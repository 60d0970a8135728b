"""Seeded Monte-Carlo campaigns over detection parameter grids.

A campaign runs n_trials independent trials against every cell of a grid
(fault count x fault magnitude x threshold x detection length).  Each
trial draws an initial epoch on the 60 s grid of one orbital period and a
fault permutation from a substream keyed only by (master seed, trial id),
so every grid cell sees the same trial conditions; measurement noise is
keyed by (master seed, trial id, absolute epoch index) so cells that share
epochs share noise too.  Per-cell confusion counts are integer sums over
trials, which makes parallel and serial runs byte-identical.

Because the noise of an epoch is the same under every fault condition, a
clique's analysis depends only on which of its vertices are biased and, if
any are, on the magnitude.  A trial therefore does each piece of work once
(CampaignContext.epoch_analyses, _trial_cell_counts):

* each epoch's noise is drawn once, and each fault config adds its bias
  to that draw (ranging.add_bias);
* each clique is analysed once per distinct (biased vertices, magnitude),
  so the fault-free cliques are shared by every magnitude and nested
  fault count;
* each threshold flags every analysed row once (one predictor evaluation
  per epoch), and a cell's flag table is gathered from those rows by
  index: the vertex and vote columns once per config, which every
  threshold shares, and the flags once per (config, threshold);
* each (config, threshold) has one flag table over the longest window,
  and a detection length is a row prefix of it.

A batched eigh gives each matrix the result of a batch of one, so every
cell's verdict equals analysing that cell alone, bit for bit.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import edm
from .calibration import MlpPredictor
# list_k_cliques is bound here only so that perfbench's tracer, which wraps
# every module binding of a traced function, finds it in this module too.
from .cliques import build_clique_schedule, list_k_cliques  # noqa: F401
from .constellation import ConstellationConfig
from .detector import (
    DetectorParams,
    FlagTable,
    detect_faults_from_analyses,
    is_scalar_threshold,
    table_from_analyses,
)
from .ranging import FaultConfig, add_bias, check_sigma_w, measure_ranges
from .seeds import EPOCH_NOISE, TRIAL_SETUP, substream


@dataclass(frozen=True)
class ThresholdSpec:
    """A labeled detection threshold: a fixed value or a trained predictor."""

    label: str
    value: float | MlpPredictor

    @property
    def scalar(self) -> float:
        """Numeric value for reports; NaN for predictor thresholds."""
        return float(self.value) if is_scalar_threshold(self.value) else math.nan


@dataclass(frozen=True)
class ExperimentGrid:
    fault_counts: tuple[int, ...]
    magnitudes: tuple[float, ...]
    thresholds: tuple[ThresholdSpec, ...]
    dls: tuple[int, ...]

    def __post_init__(self):
        if not (self.fault_counts and self.magnitudes and self.thresholds and self.dls):
            raise ValueError("every grid dimension must be non-empty")
        if min(self.fault_counts) < 0:
            raise ValueError("fault counts must be >= 0")
        if not all(0.0 <= m < math.inf for m in self.magnitudes):
            raise ValueError("fault magnitudes must be >= 0 and finite")
        if min(self.dls) < 1:
            raise ValueError("detection lengths must be >= 1")

    def cells(self):
        """Row order of the results table."""
        for fc in self.fault_counts:
            for thr in self.thresholds:
                for dl in self.dls:
                    for mag in self.magnitudes:
                        yield fc, mag, thr, dl

    @property
    def n_cells(self) -> int:
        return (
            len(self.fault_counts) * len(self.magnitudes)
            * len(self.thresholds) * len(self.dls)
        )


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fn: int
    fp: int
    tn: int


@dataclass(frozen=True)
class MetricSet:
    """Confusion metrics; NaN marks an undefined (zero-denominator) value."""

    tpr: float
    fpr: float
    ppv: float
    f1: float
    p4: float


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else math.nan


def compute_metrics(c: ConfusionCounts) -> MetricSet:
    tpr = _ratio(c.tp, c.tp + c.fn)
    fpr = _ratio(c.fp, c.fp + c.tn)
    ppv = _ratio(c.tp, c.tp + c.fp)
    f1 = _ratio(2.0 * ppv * tpr, ppv + tpr) if not (math.isnan(ppv) or math.isnan(tpr)) else math.nan
    p4 = _ratio(4.0 * c.tp * c.tn, 4.0 * c.tp * c.tn + (c.tp + c.tn) * (c.fp + c.fn))
    return MetricSet(tpr=tpr, fpr=fpr, ppv=ppv, f1=f1, p4=p4)


@dataclass(frozen=True)
class CellResult:
    faults: int
    magnitude: float
    threshold: ThresholdSpec
    dl: int
    trials: int
    counts: ConfusionCounts
    metrics: MetricSet


# ---------------------------------------------------------------------------
# Campaign context: everything deterministic shared by all trials.
# ---------------------------------------------------------------------------

class CampaignContext:
    """Precomputed epoch grid plus fixed detector settings for one campaign.

    The epoch grid covers one orbital period at the detection timestep,
    extended by (max DL - 1) epochs so any trial window fits.  Trials index
    into this grid's clique schedule, which is computed once.
    """

    def __init__(
        self,
        config: ConstellationConfig,
        sigma_w: float,
        grid: ExperimentGrid,
        master_seed: int,
        timestep: float = 60.0,
        delta_nf: int = 10,
        delta_rf: float = 0.2,
    ):
        if not 0.0 < timestep < math.inf:
            raise ValueError(f"timestep must be > 0 and finite, got {timestep!r}")
        check_sigma_w(sigma_w)
        if master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {master_seed}")
        if max(grid.fault_counts) > config.n_satellites:
            raise ValueError(f"fault counts must not exceed the {config.n_satellites} satellites")
        self.config = config
        self.sigma_w = sigma_w
        self.grid = grid
        self.master_seed = master_seed
        # Settings shared by every cell; each grid threshold sets gamma_threshold.
        self.detector = DetectorParams(delta_nf=delta_nf, delta_rf=delta_rf)

        self.n_start_epochs = math.ceil(config.period / timestep)
        times = timestep * np.arange(self.n_start_epochs + max(grid.dls) - 1)
        self.schedule = build_clique_schedule(config, times)

    @property
    def n_sats(self) -> int:
        return self.config.n_satellites

    def trial_conditions(self, trial_id: int) -> tuple[int, np.ndarray]:
        """(initial epoch index, satellite permutation) for one trial.

        Keyed by (master seed, trial id) only, so they are identical in
        every grid cell; the fault set for a cell with f faults is the
        first f entries of the permutation, making fault sets nested
        across fault-count cells.
        """
        rng = substream(self.master_seed, TRIAL_SETUP, trial_id)
        t0_index = int(rng.integers(self.n_start_epochs))
        return t0_index, rng.permutation(self.n_sats)

    def epoch_analyses(
        self, trial_id: int, t0_index: int, configs: Sequence[FaultConfig], n_epochs: int
    ) -> list[tuple[edm.BatchAnalysis, np.ndarray]]:
        """Clique analyses of one trial window under every fault config.

        Returns, for each epoch t0_index to t0_index + n_epochs - 1,
        (rows, source): rows holds every clique row analysed in the epoch,
        and row source[c, i] of rows is the analysis of the epoch's clique i
        under configs[c], equal to analyze_clique_batch on that config's own
        measured ranges.  The epoch's noise is drawn once; every config
        biases the same draw, so a clique row is analysed only for the first
        config that biases its vertices the way it does (none, or the same
        vertices by the same magnitude), and a config whose rows are all
        shared is not biased at all.
        """
        biased = np.zeros((len(configs), self.n_sats), dtype=bool)
        for c, faults in enumerate(configs):
            # A zero bias leaves every range as it is (add_bias).
            biased[c, list(faults.fault_set)] = faults.magnitude != 0.0
        out = []
        for offset in range(n_epochs):
            g = t0_index + offset
            entry = self.schedule[g]
            cliques = entry.cliques
            rng = substream(self.master_seed, EPOCH_NOISE, trial_id, g)
            clean = measure_ranges(entry.positions, entry.graph, FaultConfig(), self.sigma_w, rng)
            # (configs, m) codes: bit j is set when vertex j of the row is biased.
            codes = (biased[:, cliques] << np.arange(cliques.shape[1])).sum(axis=2)
            source = np.full(codes.shape, -1, dtype=np.intp)
            parts = []  # analysed rows, in order of analysis
            n_rows = 0
            for c, faults in enumerate(configs):
                for p in range(c):
                    same = (source[c] < 0) & (codes[p] == codes[c])
                    if configs[p].magnitude != faults.magnitude:
                        same &= codes[c] == 0
                    source[c, same] = source[p, same]
                new = np.flatnonzero(source[c] < 0)
                if c == 0 or new.size:
                    rm = add_bias(clean, entry.graph, faults)
                    parts.append(edm.analyze_clique_batch(rm, cliques[new]))
                    source[c, new] = n_rows + np.arange(new.size)
                    n_rows += new.size
            out.append((_concat(parts), source))
        return out


def _concat(parts: list[edm.BatchAnalysis]) -> edm.BatchAnalysis:
    """The rows of every part, in order."""
    if len(parts) == 1:
        return parts[0]
    return edm.BatchAnalysis(*(
        np.concatenate([getattr(part, f.name) for part in parts])
        for f in fields(edm.BatchAnalysis)
    ))


def _trial_cell_counts(ctx: CampaignContext, trial_id: int) -> np.ndarray:
    """(n_cells, 4) tp/fn/fp/tn contributions of one trial, in cell order.

    Each threshold flags every analysed row of the window once; a cell's
    window is gathered from those rows (its vertices and votes once per
    config), and each DL is a row prefix of it.
    """
    grid = ctx.grid
    t0_index, perm = ctx.trial_conditions(trial_id)
    n = ctx.n_sats
    params = [replace(ctx.detector, gamma_threshold=thr.value) for thr in grid.thresholds]
    configs = [
        FaultConfig(fault_set=perm[:fc].tolist(), magnitude=mag)
        for fc in grid.fault_counts for mag in grid.magnitudes
    ]
    epochs = ctx.epoch_analyses(trial_id, t0_index, configs, max(grid.dls))
    rows = [analysed for analysed, _ in epochs]
    tables = [table_from_analyses(rows, p) for p in params]
    # Only the flags depend on the threshold.
    vertices, voted = tables[0].vertices, tables[0].voted
    # Row c of windows lists config c's window (epochs in order) as rows of tables.
    starts = np.cumsum([0] + [len(analysed.cliques) for analysed in rows[:-1]])
    windows = iter(np.concatenate(
        [source + start for (_, source), start in zip(epochs, starts)], axis=1))
    # A window's first ends[d - 1] rows are its first d epochs.
    ends = np.cumsum([source.shape[1] for _, source in epochs])
    # Axes in ExperimentGrid.cells() order: fault count, threshold, DL, magnitude.
    shape = [len(grid.fault_counts), len(grid.thresholds), len(grid.dls), len(grid.magnitudes)]
    counts = np.zeros(shape + [4], dtype=np.int64)
    for fi, fc in enumerate(grid.fault_counts):
        truth = np.zeros(n, dtype=bool)
        truth[perm[:fc]] = True
        for mi in range(len(grid.magnitudes)):
            window = next(windows)
            window_vertices, window_voted = vertices[window], voted[window]
            for ti, (p, table) in enumerate(zip(params, tables)):
                cell = FlagTable(window_vertices, window_voted, table.flagged[window])
                for li, dl in enumerate(grid.dls):
                    outcome = detect_faults_from_analyses(cell.rows(slice(ends[dl - 1])), p, n)
                    detected = np.zeros(n, dtype=bool)
                    detected[list(outcome.fault_list)] = True
                    # Bins 0-3 are tp, fn, fp, tn.
                    counts[fi, ti, li, mi] = np.bincount(2 * ~truth + ~detected, minlength=4)
    return counts.reshape(-1, 4)


def _sum_trials(ctx: CampaignContext, trial_ids: range) -> np.ndarray:
    """(n_cells, 4) counts summed over trial_ids."""
    total = np.zeros((ctx.grid.n_cells, 4), dtype=np.int64)
    for trial_id in trial_ids:
        total += _trial_cell_counts(ctx, trial_id)
    return total


# Module-level worker state: set once per worker process by the pool
# initializer, read by every task.
_WORKER_CTX: CampaignContext | None = None


def _worker_init(ctx: CampaignContext) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _worker_chunk(trial_ids: range) -> np.ndarray:
    return _sum_trials(_WORKER_CTX, trial_ids)


def run_campaign(
    ctx: CampaignContext, n_trials: int, workers: int = 1
) -> list[CellResult]:
    """All grid cells x n_trials; returns one result row per cell.

    The aggregation is a sum of per-trial integer count arrays, so the
    result is independent of worker count and scheduling order.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if workers <= 1:
        total = _sum_trials(ctx, range(n_trials))
    else:
        chunk = max(1, math.ceil(n_trials / (workers * 4)))
        spans = [range(lo, min(lo + chunk, n_trials)) for lo in range(0, n_trials, chunk)]
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init, initargs=(ctx,)
        ) as pool:
            total = sum(pool.map(_worker_chunk, spans))

    results = []
    for row, (fc, mag, thr, dl) in enumerate(ctx.grid.cells()):
        c = ConfusionCounts(*[int(v) for v in total[row]])
        results.append(
            CellResult(
                faults=fc, magnitude=mag, threshold=thr, dl=dl,
                trials=n_trials, counts=c, metrics=compute_metrics(c),
            )
        )
    return results


# ---------------------------------------------------------------------------
# Results table I/O.
# ---------------------------------------------------------------------------

RESULT_COLUMNS = [
    "faults", "magnitude_m", "threshold_label", "threshold_value", "dl",
    "trials", "tp", "fn", "fp", "tn", "tpr", "fpr", "ppv", "f1", "p4",
]


def write_results_csv(path: str | Path, results: Sequence[CellResult]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for r in results:
            writer.writerow([
                r.faults, repr(r.magnitude), r.threshold.label,
                repr(r.threshold.scalar), r.dl, r.trials,
                r.counts.tp, r.counts.fn, r.counts.fp, r.counts.tn,
                repr(r.metrics.tpr), repr(r.metrics.fpr), repr(r.metrics.ppv),
                repr(r.metrics.f1), repr(r.metrics.p4),
            ])


def read_results_csv(path: str | Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RESULT_COLUMNS:
            raise ValueError(
                f"results file has columns {reader.fieldnames}, want {RESULT_COLUMNS}"
            )
        return [dict(row) for row in reader]
