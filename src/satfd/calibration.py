"""Detection thresholds: sampled percentiles, gamma fits, and a learned
per-subgraph predictor.

Fixed thresholds come from the empirical distribution of gamma_test over
all non-fault (but noisy) 6-cliques of a constellation, sampled on a 60 s
grid over one orbital period; the 95/99/99.9 percentiles of that sample
are the operational thresholds.  The tail is well approximated by a gamma
distribution whose shape depends on subgraph geometry, so a small MLP is
also provided that maps a subgraph's first three singular values and
vectors to its own 99.7th-percentile threshold, trading the conservatism
of a single global percentile for per-geometry sensitivity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import edm
from .cliques import CLIQUE_SIZE, build_clique_schedule, schedule_entry
from .constellation import ConstellationConfig, orbital_period
from .ranging import FaultConfig, RangeMatrix, measure_ranges
from .seeds import CALIBRATION, TRAINING, substream

FEATURE_DIM = 3 + 3 * CLIQUE_SIZE  # 3 singular values + 3 vectors of length CLIQUE_SIZE


class EmptySampleError(RuntimeError):
    """No cliques were found over the whole sampling window."""


class DegenerateFitError(RuntimeError):
    """Sample has zero variance; gamma fit undefined."""


class DivergenceError(RuntimeError):
    """Training loss became non-finite (learning rate too high)."""


@dataclass(frozen=True)
class StatisticSample:
    """Sorted gamma_test samples plus where they came from."""

    values: np.ndarray
    constellation: str
    sigma_w: float
    step: float
    duration: float

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class GammaFit:
    """Gamma-distribution parameters (shape, scale)."""

    shape: float
    scale: float


def sampling_times(step: float, duration: float) -> np.ndarray:
    """Epoch grid t = 0, step, ... strictly below duration."""
    if step <= 0.0 or duration < step:
        raise ValueError("need step > 0 and duration >= step")
    return step * np.arange(math.ceil(duration / step))


def sample_statistics(
    config: ConstellationConfig,
    sigma_w: float,
    step: float,
    duration: float,
    seed: int,
) -> StatisticSample:
    """gamma_test of every CLIQUE_SIZE-clique at every epoch, no faults injected.

    Epochs are built and analysed one at a time, so only one epoch's
    cliques are held at once.
    """
    vals = []
    for idx, t in enumerate(sampling_times(step, duration)):
        entry = schedule_entry(config, t, CLIQUE_SIZE)
        rng = substream(seed, CALIBRATION, idx)
        rm = measure_ranges(entry.positions, entry.graph, FaultConfig.none(), sigma_w, rng)
        vals.append(edm.analyze_clique_batch(rm, entry.cliques).gamma_test)
    values = np.sort(np.concatenate(vals))
    if values.size == 0:
        raise EmptySampleError("no cliques over the entire sampling window")
    return StatisticSample(
        values=values,
        constellation=config.body.name,
        sigma_w=sigma_w,
        step=step,
        duration=duration,
    )


def percentile(sample: StatisticSample, p: float) -> float:
    """Linear-interpolation percentile of the sorted sample."""
    if sample.n == 0:
        raise ValueError("empty sample")
    if not (0.0 < p < 100.0):
        raise ValueError("percentile must be in (0, 100)")
    return float(np.percentile(sample.values, p))


def fit_gamma(sample: StatisticSample) -> GammaFit:
    """Method-of-moments fit: shape = mean^2/var, scale = var/mean."""
    if sample.n < 10:
        raise ValueError("need at least 10 samples")
    mean = float(sample.values.mean())
    var = float(sample.values.var(ddof=1))
    if var <= 0.0:
        raise DegenerateFitError("sample variance is zero")
    return GammaFit(shape=mean * mean / var, scale=var / mean)


# ---------------------------------------------------------------------------
# Threshold files.
# ---------------------------------------------------------------------------

def write_thresholds(path: str | Path, sample: StatisticSample, percentiles: list[float]) -> list[dict]:
    """Compute and persist percentile thresholds as a JSON record list."""
    records = [
        {
            "constellation": sample.constellation,
            "sigma_w_m": sample.sigma_w,
            "percentile": p,
            "value": percentile(sample, p),
            "n_samples": sample.n,
        }
        for p in percentiles
    ]
    Path(path).write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    return records


def read_thresholds(path: str | Path) -> list[dict]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Per-subgraph threshold predictor: 21 -> 128 -> 32 -> 1 MLP, rectified
# hidden units, linear output, trained by SGD with momentum on
# standardized inputs and targets.
# ---------------------------------------------------------------------------

def batch_features(batch: edm.BatchAnalysis) -> np.ndarray:
    """Feature rows [s1, s2, s3, u1^T, u2^T, u3^T], shape (m, 21) for 6-cliques.

    Singular vectors are sign-canonicalized so the features are a function
    of the subgraph alone, not of SVD sign choices.
    """
    lam = batch.singular_values[:, :3]
    u = edm.canonicalize_signs(batch.left_vectors[:, :, :3])
    k = batch.left_vectors.shape[1]
    return np.concatenate([lam, u.transpose(0, 2, 1).reshape(-1, 3 * k)], axis=1)


class MlpPredictor:
    """Feed-forward regressor mapping subgraph features to a gamma threshold.

    Layers are fixed at 21 -> 128 -> 32 -> 1.  Inputs and targets are
    standardized with statistics frozen at training time; predictions are
    un-standardized and clamped at zero (a threshold cannot be negative).
    """

    DIMS = (FEATURE_DIM, 128, 32, 1)

    def __init__(self, weights, biases, x_mean=None, x_std=None, y_mean=0.0, y_std=1.0):
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        dims = self.DIMS
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[layer], dims[layer + 1]) or b.shape != (dims[layer + 1],):
                raise ValueError(f"layer {layer} has shape {w.shape}, want {(dims[layer], dims[layer+1])}")
        self.x_mean = np.zeros(FEATURE_DIM) if x_mean is None else np.asarray(x_mean, dtype=float)
        self.x_std = np.ones(FEATURE_DIM) if x_std is None else np.asarray(x_std, dtype=float)
        self.y_mean = float(y_mean)
        self.y_std = float(y_std)

    @classmethod
    def initialize(cls, rng: np.random.Generator) -> "MlpPredictor":
        """Uniform init scaled by 1/sqrt(fan-in)."""
        weights, biases = [], []
        for d_in, d_out in zip(cls.DIMS, cls.DIMS[1:]):
            bound = 1.0 / math.sqrt(d_in)
            weights.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
            biases.append(np.zeros(d_out))
        return cls(weights, biases)

    def _forward_std(self, x_std: np.ndarray) -> np.ndarray:
        h = x_std
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ w + b, 0.0)
        return (h @ self.weights[-1] + self.biases[-1])[:, 0]

    def predict(self, features: np.ndarray) -> np.ndarray | float:
        """Threshold estimates, clamped below at zero.

        Accepts a single (21,) vector or a (m, 21) batch.
        """
        x = np.asarray(features, dtype=float)
        single = x.ndim == 1
        x = np.atleast_2d(x)
        if x.shape[1] != FEATURE_DIM:
            raise ValueError(f"feature dimension {x.shape[1]}, want {FEATURE_DIM}")
        y = self._forward_std((x - self.x_mean) / self.x_std) * self.y_std + self.y_mean
        y = np.maximum(y, 0.0)
        return float(y[0]) if single else y

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": "satfd-mlp",
            "version": 1,
            "dims": list(self.DIMS),
            "x_mean": self.x_mean.tolist(),
            "x_std": self.x_std.tolist(),
            "y_mean": self.y_mean,
            "y_std": self.y_std,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "MlpPredictor":
        if raw.get("format") != "satfd-mlp" or raw.get("version") != 1:
            raise ValueError("not a satfd-mlp v1 model file")
        if tuple(raw["dims"]) != cls.DIMS:
            raise ValueError(f"unsupported dims {raw['dims']}")
        return cls(
            raw["weights"], raw["biases"],
            x_mean=raw["x_mean"], x_std=raw["x_std"],
            y_mean=raw["y_mean"], y_std=raw["y_std"],
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "MlpPredictor":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def loss_and_grads(model: MlpPredictor, x_std: np.ndarray, y_std: np.ndarray):
    """Mean-squared-error loss and analytic gradients on standardized data.

    Returns (loss, weight gradients, bias gradients) for one batch; used
    by the training loop and by the finite-difference gradient check.
    """
    acts = [x_std]
    pre = []
    h = x_std
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = h @ w + b
        pre.append(z)
        h = np.maximum(z, 0.0)
        acts.append(h)
    out = (h @ model.weights[-1] + model.biases[-1])[:, 0]

    m = x_std.shape[0]
    err = out - y_std
    loss = float((err**2).mean())

    d_out = (2.0 / m) * err[:, None]
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    grads_w[-1] = acts[-1].T @ d_out
    grads_b[-1] = d_out.sum(axis=0)
    d = d_out @ model.weights[-1].T
    for layer in range(len(model.weights) - 2, -1, -1):
        d = d * (pre[layer] > 0.0)
        grads_w[layer] = acts[layer].T @ d
        grads_b[layer] = d.sum(axis=0)
        if layer > 0:
            d = d @ model.weights[layer].T
    return loss, grads_w, grads_b


def train_predictor(
    features: np.ndarray,
    targets: np.ndarray,
    seed: int,
    epochs: int = 50,
    lr: float = 1e-3,
    batch_size: int = 128,
    momentum: float = 0.9,
) -> MlpPredictor:
    """Fit the predictor by mini-batch SGD with momentum.

    Standardization statistics are computed from the training set and
    stored with the model.  Deterministic for a fixed seed.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float).reshape(-1)
    if x.size == 0:
        raise ValueError("empty training set")

    x_mean = x.mean(axis=0)
    x_std = x.std(axis=0)
    x_std[x_std == 0.0] = 1.0
    y_mean = float(y.mean())
    y_std = float(y.std()) or 1.0

    rng = substream(seed, TRAINING)
    model = MlpPredictor.initialize(rng)
    model.x_mean, model.x_std = x_mean, x_std
    model.y_mean, model.y_std = y_mean, y_std

    xs = (x - x_mean) / x_std
    ys = (y - y_mean) / y_std
    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]

    n = xs.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            sel = order[start:start + batch_size]
            loss, gw, gb = loss_and_grads(model, xs[sel], ys[sel])
            if not math.isfinite(loss):
                raise DivergenceError("training loss is not finite; lower the learning rate")
            for layer in range(len(model.weights)):
                vel_w[layer] = momentum * vel_w[layer] - lr * gw[layer]
                vel_b[layer] = momentum * vel_b[layer] - lr * gb[layer]
                model.weights[layer] = model.weights[layer] + vel_w[layer]
                model.biases[layer] = model.biases[layer] + vel_b[layer]
    return model


# ---------------------------------------------------------------------------
# Training data: per-geometry empirical tail percentiles.
# ---------------------------------------------------------------------------

def build_training_set(
    config: ConstellationConfig,
    sigma_w: float,
    n_geometries: int,
    n_noise: int,
    seed: int,
    step: float = 60.0,
    tail_percentile: float = 99.7,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample (features, empirical tail threshold) pairs for training.

    Geometries are 6-clique subgraphs drawn uniformly over all (epoch,
    clique) pairs of one orbital period on the given step.  The feature
    vector comes from one noiseless analysis of the geometry; the target
    is the empirical tail percentile of gamma_test over n_noise
    independent noise realizations.
    """
    if n_noise < 300:
        raise ValueError("n_noise must be >= 300 to resolve the 99.7 percentile")
    period = orbital_period(config.satellites[0].a, config.body.mu)
    schedule = build_clique_schedule(config, sampling_times(step, period))
    counts = np.array([len(entry.cliques) for entry in schedule.entries])
    # Pool index i is row i - starts[e] of entry e, epochs in schedule order.
    starts = np.cumsum(counts) - counts
    pool_size = int(counts.sum())
    if pool_size == 0:
        raise EmptySampleError("constellation has no 6-cliques on the sampling grid")

    pick = substream(seed, TRAINING, 0)
    chosen = pick.integers(pool_size, size=n_geometries)
    entry_of = np.searchsorted(starts, chosen, side="right") - 1

    iu = np.triu_indices(CLIQUE_SIZE, k=1)
    diag = np.arange(CLIQUE_SIZE)
    feats = np.empty((n_geometries, FEATURE_DIM))
    targets = np.empty(n_geometries)
    for g, (e, pool_idx) in enumerate(zip(entry_of, chosen)):
        entry = schedule.entries[e]
        clique = entry.cliques[pool_idx - starts[e]][None]
        pos = entry.positions.positions
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        exact = RangeMatrix(r=np.where(entry.graph.adjacency, dist, 0.0))
        feats[g] = batch_features(edm.analyze_clique_batch(exact, clique))[0]

        sub = dist[np.ix_(clique[0], clique[0])]
        rng = substream(seed, TRAINING, 1, g)
        w = np.zeros((n_noise, CLIQUE_SIZE, CLIQUE_SIZE))
        draws = rng.standard_normal((n_noise, iu[0].size)) * sigma_w
        w[:, iu[0], iu[1]] = draws
        w += w.transpose(0, 2, 1)
        d = (sub + w) ** 2
        d[:, diag, diag] = 0.0
        s = np.linalg.svd(edm.geometric_center(d), compute_uv=False)
        gammas = (s[:, 3] + s[:, 4]) / s[:, 0]
        targets[g] = np.percentile(gammas, tail_percentile)
    return feats, targets
