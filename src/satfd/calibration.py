"""Detection thresholds: sampled percentiles and a learned per-subgraph
predictor.

Fixed thresholds come from the empirical distribution of gamma_test over
all non-fault (but noisy) 6-cliques of a constellation, sampled on a grid
of cliques.EPOCH_STEP (60 s) over one orbital period; the 95/99/99.9
percentiles of that sample are the operational thresholds.  The tail is
well approximated by a gamma distribution whose shape depends on subgraph
geometry, so a small MLP is also provided that maps a subgraph's first
three singular values and vectors (edm.batch_features, which the detector
reads too) to its own 99.7th-percentile threshold, trading the
conservatism of a single global percentile for per-geometry sensitivity.
Its training targets use the range model of ranging (true_ranges plus
pair_draws) on one clique's pairs, so they follow any change to that model.

A target is a tail percentile, which reads only the top few of a
geometry's noise draws, so build_training_set solves only the draws that
edm.top_gammas (the training-target screen, derived in edm's docstring)
cannot rule out of those ranks.  The screen reads each draw as its 15
squared pair ranges, and only the draws it solves are mirrored to 6x6
matrices.  Each geometry is measured as its own 6-satellite block, and
the features and targets of a block of consecutive geometries take one
analysis call (edm.analyze_blocks) and one screen call.  Features and
targets are bit for bit those of analysing each clique inside its epoch's
range matrix and solving every draw, one geometry at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import edm
from .cliques import (
    CLIQUE_SIZE, EPOCH_STEP, build_clique_schedule, epoch_count, iter_schedule,
)
from .constellation import ConstellationConfig
from .edm import batch_features  # build_training_set's call is traced under this name
from .linkgraph import VisibilityGraph
from .ranging import (
    FaultConfig, check_sigma_w, measure_ranges, pair_draws, pair_rows, true_ranges,
)
from .seeds import CALIBRATION, TRAINING, substream

FEATURE_DIM = 3 + 3 * CLIQUE_SIZE  # 3 singular values + 3 vectors of length CLIQUE_SIZE

# Mini-batch SGD settings of train_predictor.
BATCH_SIZE = 128
MOMENTUM = 0.9
# Training target: this percentile of gamma_test over a geometry's noise draws.
TAIL_PERCENTILE = 99.7
# Noise draws per block of build_training_set (32 geometries at 300 draws,
# never fewer than one geometry): numpy's per-call cost is paid once for
# the block's geometries, their 6x6 range blocks stack to a 192-wide
# matrix for the one feature analysis, and the block's arrays stay small.
BLOCK_DRAWS = 9600


class EmptySampleError(ValueError):
    """No cliques were found over the whole sampling window."""


class DivergenceError(ValueError):
    """Training loss became non-finite (learning rate too high)."""


@dataclass(frozen=True)
class StatisticSample:
    """Sorted gamma_test samples plus where they came from."""

    values: np.ndarray
    constellation: str
    sigma_w: float

    @property
    def n(self) -> int:
        return int(self.values.size)


def sampling_times(step: float, duration: float) -> np.ndarray:
    """Epoch grid t = 0, step, ... strictly below duration >= step (and epoch_count's rule)."""
    epochs = epoch_count(duration, step)
    if duration < step:
        raise ValueError(f"need duration >= step, got step={step!r} s, duration={duration!r} s")
    return step * np.arange(epochs)


def sample_statistics(
    config: ConstellationConfig,
    sigma_w: float,
    step: float,
    duration: float,
    seed: int,
) -> StatisticSample:
    """gamma_test of every CLIQUE_SIZE-clique at every epoch, no faults injected.

    Positions and links come from one array pass over the grid; cliques
    are listed and analysed one epoch at a time, so only one epoch's
    cliques are held at once.  Only the spectra are computed: no
    eigenvector is read.
    """
    vals = []
    for idx, entry in enumerate(iter_schedule(config, sampling_times(step, duration))):
        rng = substream(seed, CALIBRATION, idx)
        rm = measure_ranges(entry.positions, entry.graph, FaultConfig(), sigma_w, rng)
        vals.append(edm.analyze_clique_batch(rm, entry.cliques, vectors=False).gamma_test)
    values = np.sort(np.concatenate(vals))
    if values.size == 0:
        raise EmptySampleError("no cliques over the entire sampling window")
    return StatisticSample(values=values, constellation=config.body.name, sigma_w=sigma_w)


def check_percentile(p: float) -> None:
    """Refuse a percentile outside the open interval (0, 100)."""
    if not (0.0 < p < 100.0):
        raise ValueError("percentile must be in (0, 100)")


def percentile(sample: StatisticSample, p: float) -> float:
    """Linear-interpolation percentile of the sorted sample."""
    if sample.n == 0:
        raise ValueError("empty sample")
    check_percentile(p)
    return float(np.percentile(sample.values, p))


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


# ---------------------------------------------------------------------------
# Per-subgraph threshold predictor: 21 -> 128 -> 32 -> 1 MLP, rectified
# hidden units, linear output, trained by SGD with momentum on
# standardized inputs and targets.
# ---------------------------------------------------------------------------

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

    def _forward_std(self, x_std: np.ndarray, keep: bool = False) -> tuple[np.ndarray, list, list]:
        """Output on standardized inputs.  With keep, also each layer's input
        and each hidden layer's pre-activation (what back-propagation
        reads); without, each layer's values are dropped once the next is
        computed."""
        acts, pre = [], []
        a = x_std
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            z = a @ w + b
            if keep:
                acts.append(a)
                pre.append(z)
            a = np.maximum(z, 0.0, out=None if keep else z)
        if keep:
            acts.append(a)
        return (a @ self.weights[-1] + self.biases[-1])[:, 0], acts, pre

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Threshold estimates for an (m, 21) batch, clamped below at zero."""
        x = np.asarray(features, dtype=float)
        if x.ndim != 2 or x.shape[1] != FEATURE_DIM:
            raise ValueError(f"features have shape {x.shape}, want (m, {FEATURE_DIM})")
        y = self._forward_std((x - self.x_mean) / self.x_std)[0] * self.y_std + self.y_mean
        return np.maximum(y, 0.0)

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
    def from_dict(cls, raw) -> "MlpPredictor":
        """The model of a to_dict record.  A value that is not a satfd-mlp v1
        JSON object, or whose fields are missing or of the wrong type or
        shape, is refused with a ValueError that names the field."""
        if not isinstance(raw, dict) or raw.get("format") != "satfd-mlp" or raw.get("version") != 1:
            raise ValueError("not a satfd-mlp v1 model file")
        for name in ("dims", "weights", "biases", "x_mean", "x_std", "y_mean", "y_std"):
            if name not in raw:
                raise ValueError(f"model file has no field {name!r}")
        if raw["dims"] != list(cls.DIMS):
            raise ValueError(f"unsupported dims {raw['dims']}")
        shapes = list(zip(cls.DIMS, cls.DIMS[1:]))
        x_std = _field_array(raw["x_std"], "x_std", (FEATURE_DIM,))
        # predict divides by x_std: a zero entry would make every threshold
        # NaN or infinite, and so flag nothing.
        if not (x_std > 0.0).all():
            raise ValueError("model field 'x_std' holds a zero or negative value")
        return cls(
            _layer_arrays(raw, "weights", shapes),
            _layer_arrays(raw, "biases", [(d_out,) for _, d_out in shapes]),
            x_mean=_field_array(raw["x_mean"], "x_mean", (FEATURE_DIM,)),
            x_std=x_std,
            y_mean=_field_array(raw["y_mean"], "y_mean", ()),
            y_std=_field_array(raw["y_std"], "y_std", ()),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "MlpPredictor":
        """The model saved at path; one ValueError naming an unreadable or non-JSON file."""
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:  # its text names the file
            raise ValueError(f"cannot load threshold model: {exc}") from exc
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"cannot load threshold model: {path} is not JSON: {exc}") from exc
        return cls.from_dict(raw)


def _field_array(value, name: str, shape: tuple) -> np.ndarray:
    """value as a float array of the given shape; ValueError naming the
    model field otherwise."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nested list
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or arr.shape != shape:
        want = f"an array of shape {shape}" if shape else "a number"
        raise ValueError(f"model field {name!r} is not {want}")
    if not np.isfinite(arr).all():
        raise ValueError(f"model field {name!r} holds a non-finite value")
    return arr.astype(float)


def _layer_arrays(raw: dict, name: str, shapes: list) -> list[np.ndarray]:
    """The per-layer arrays of model field name, one per shape."""
    value = raw[name]
    if not isinstance(value, list) or len(value) != len(shapes):
        raise ValueError(f"model field {name!r} is not a list of {len(shapes)} layers")
    return [_field_array(v, f"{name}[{i}]", shape)
            for i, (v, shape) in enumerate(zip(value, shapes))]


def loss_and_grads(model: MlpPredictor, x_std: np.ndarray, y_std: np.ndarray):
    """Mean-squared-error loss and analytic gradients on standardized data.

    Returns (loss, weight gradients, bias gradients) for one batch; used
    by the training loop and by the finite-difference gradient check.
    """
    out, acts, pre = model._forward_std(x_std, keep=True)
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


def check_learning_rate(lr: float) -> None:
    """Refuse a learning rate that is not positive and finite: a NaN one
    would fit a model that predicts NaN, which flags nothing."""
    if not (0.0 < lr < math.inf):
        raise ValueError(f"learning rate must be positive and finite, got {lr!r}")


def check_epochs(epochs: int) -> None:
    """Refuse a training run of fewer than one epoch: it would save the
    untrained initial weights as a model."""
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs!r}")


def check_training_size(n_geometries: int, n_noise: int) -> None:
    """Refuse a training set of no geometries, or of too few noise draws per
    geometry to resolve the TAIL_PERCENTILE target."""
    if n_geometries < 1:
        raise ValueError(f"empty training set: n_geometries must be >= 1, got {n_geometries!r}")
    if n_noise < 300:
        raise ValueError(f"n_noise must be >= 300 to resolve the {TAIL_PERCENTILE} "
                         f"percentile, got {n_noise!r}")


def train_predictor(
    features: np.ndarray,
    targets: np.ndarray,
    seed: int,
    epochs: int = 50,
    lr: float = 1e-3,
) -> MlpPredictor:
    """Fit the predictor by mini-batch SGD with momentum.

    Standardization statistics are computed from the training set and
    stored with the model.  Deterministic for a fixed seed.
    """
    check_learning_rate(lr)
    check_epochs(epochs)
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
    # A diverging run is refused with DivergenceError, not numpy overflow warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, BATCH_SIZE):
                sel = order[start:start + BATCH_SIZE]
                loss, gw, gb = loss_and_grads(model, xs[sel], ys[sel])
                if not math.isfinite(loss):
                    raise DivergenceError("training loss is not finite; lower the learning rate")
                # In place: the same bits as new arrays, without allocating them.
                for param, vel, grad in zip(model.weights + model.biases, vel_w + vel_b, gw + gb):
                    vel *= MOMENTUM
                    vel -= lr * grad
                    param += vel
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
    step: float = EPOCH_STEP,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample (features, empirical tail threshold) pairs for training.

    Geometries are 6-clique subgraphs drawn uniformly over all (epoch,
    clique) pairs of one orbital period on the given step.  The feature
    vector comes from one analysis of the geometry's true ranges; the
    target is the empirical TAIL_PERCENTILE of gamma_test over n_noise
    pair-noise draws on the clique's submatrix, drawn from the geometry's
    own substream.

    Each geometry's six positions are gathered in clique order, and one
    true_ranges call on that stack gives every geometry's exact 6x6 range
    block.  The geometries are then taken in blocks of consecutive ones,
    about BLOCK_DRAWS noise draws each (never fewer than one geometry), so
    memory stays flat in n_geometries.  A block takes one analysis of its
    geometries' range blocks (edm.analyze_blocks), whose u1-u3 also give
    each geometry's bound basis (edm.bound_basis), one edm.top_gammas call
    on its noise draws and one np.percentile call.  As build_edm does in
    an epoch's range matrix, a noisy range <= 0 (noise larger than the
    range) or one whose square is not finite is refused with a ValueError
    that names the first such geometry.

    A target reads only the draws of the top ranks: np.percentile at
    TAIL_PERCENTILE of n draws reads ranks floor((n-1) q) and the one
    above, the top 2 of 300 or the top 7 of 2,000.  So edm.top_gammas
    solves only the draws that can hold one of those ranks and enters
    every other one as -inf.  Every row is bit for bit what the geometry
    gives on its own, inside its schedule entry's range matrix, with every
    draw solved: build_edm squares each entry alone, and the centring and
    the eigensolver work per matrix.
    """
    check_training_size(n_geometries, n_noise)
    check_sigma_w(sigma_w)
    schedule = build_clique_schedule(config, sampling_times(step, config.period))
    counts = np.array([len(entry.cliques) for entry in schedule])
    # Pool index i is row i - starts[e] of entry e, epochs in schedule order.
    starts = np.cumsum(counts) - counts
    pool_size = int(counts.sum())
    if pool_size == 0:
        raise EmptySampleError("constellation has no 6-cliques on the sampling grid")

    pick = substream(seed, TRAINING, 0)
    chosen = pick.integers(pool_size, size=n_geometries)
    entry_of = np.searchsorted(starts, chosen, side="right") - 1
    # Each geometry's six positions in clique order; a clique links every pair.
    positions = np.stack([schedule[e].positions[schedule[e].cliques[c - starts[e]]]
                          for e, c in zip(entry_of.tolist(), chosen.tolist())])
    exact = true_ranges(positions, VisibilityGraph(adjacency=~np.eye(CLIQUE_SIZE, dtype=bool)))

    def geometry(first: int, good: np.ndarray) -> str:
        """The first geometry of the block at first with a draw not good."""
        g = first + int((~good).any(axis=(1, 2)).argmax())
        e = int(entry_of[g])
        clique = schedule[e].cliques[chosen[g] - starts[e]].tolist()
        return f"training geometry {g} (clique {clique} at t={schedule[e].t:g} s)"

    feats = np.empty((n_geometries, FEATURE_DIM))
    targets = np.empty(n_geometries)
    i, j = pair_rows(CLIQUE_SIZE)
    per_block = max(1, BLOCK_DRAWS // n_noise)
    # np.percentile reads the draws of descending rank 1 .. n_noise - i,
    # i = floor((n_noise - 1) q); one rank more is kept, so that numpy's own
    # rounding of that floor cannot move a read rank out of the solved set.
    keep = n_noise - math.floor((n_noise - 1) * TAIL_PERCENTILE / 100.0) + 1
    whole = np.arange(CLIQUE_SIZE)[None]  # the one clique of each range block
    for first in range(0, n_geometries, per_block):
        block = exact[first:first + per_block]
        last = first + len(block)
        analysis = edm.analyze_blocks(block, [whole] * len(block))
        feats[first:last] = batch_features(analysis)
        basis = edm.bound_basis(analysis.left_vectors[:, :, :3])
        # The block's squared noisy pair ranges, (geometries, n_noise, 15).
        d = np.stack([pair_draws(substream(seed, TRAINING, 1, g), CLIQUE_SIZE, sigma_w,
                                 size=(n_noise,)) for g in range(first, last)])
        d += block[:, i, j][:, None]
        # build_edm's range rule: a range <= 0 (noise larger than the range)
        # or one whose square is not finite is refused, naming the geometry.
        if not d.min() > 0.0:
            raise edm.MissingEdgeError(f"{geometry(first, d > 0.0)} has a range <= 0: "
                                       f"its noise is larger than its range")
        with np.errstate(over="ignore"):
            d *= d
        if not d.max() < np.inf:
            raise ValueError(f"{geometry(first, d < np.inf)} has a range whose square "
                             f"is not finite")
        targets[first:last] = np.percentile(edm.top_gammas(basis, d, keep), TAIL_PERCENTILE,
                                            axis=1)
    return feats, targets
