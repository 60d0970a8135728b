"""Seeded Monte-Carlo campaigns over detection parameter grids.

A campaign runs n_trials independent trials against every cell of a grid
(fault count x fault magnitude x threshold x detection length).  Each
trial draws an initial epoch on the 60 s grid of one orbital period and a
fault permutation from a substream keyed only by (master seed, trial id),
so every grid cell sees the same trial conditions; measurement noise is
keyed by (master seed, trial id, absolute epoch index) so cells that share
epochs share noise too.  Per-cell confusion counts are integer sums over
trials, which makes parallel and serial runs byte-identical.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import edm
from .calibration import MlpPredictor
# list_k_cliques is bound here only so that perfbench's tracer, which wraps
# every module binding of a traced function, finds it in this module too.
from .cliques import build_clique_schedule, list_k_cliques  # noqa: F401
from .constellation import ConstellationConfig, orbital_period
from .detector import DetectorParams, detect_faults_from_analyses, is_scalar_threshold
from .ranging import FaultConfig, measure_ranges
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
        if min(self.magnitudes) < 0.0:
            raise ValueError("fault magnitudes must be >= 0")
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
        if timestep <= 0.0:
            raise ValueError("timestep must be > 0")
        if max(grid.fault_counts) > config.n_satellites:
            raise ValueError(f"fault counts must not exceed the {config.n_satellites} satellites")
        self.config = config
        self.sigma_w = sigma_w
        self.grid = grid
        self.master_seed = master_seed
        self.timestep = timestep
        # Settings shared by every cell; each grid threshold sets gamma_threshold.
        self.detector = DetectorParams(delta_nf=delta_nf, delta_rf=delta_rf)

        period = orbital_period(config.satellites[0].a, config.body.mu)
        self.n_start_epochs = math.ceil(period / timestep)
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
        self, trial_id: int, t0_index: int, faults: FaultConfig, n_epochs: int
    ) -> list[edm.BatchAnalysis]:
        """Clique analyses for one trial window under one fault condition."""
        out = []
        for offset in range(n_epochs):
            g = t0_index + offset
            entry = self.schedule.entries[g]
            rng = substream(self.master_seed, EPOCH_NOISE, trial_id, g)
            rm = measure_ranges(entry.positions, entry.graph, faults, self.sigma_w, rng)
            out.append(edm.analyze_clique_batch(rm, entry.cliques))
        return out


def _trial_cell_counts(ctx: CampaignContext, trial_id: int) -> np.ndarray:
    """(n_cells, 4) tp/fn/fp/tn contributions of one trial, in cell order."""
    grid = ctx.grid
    t0_index, perm = ctx.trial_conditions(trial_id)
    n = ctx.n_sats
    params = [replace(ctx.detector, gamma_threshold=thr.value) for thr in grid.thresholds]
    # Axes in ExperimentGrid.cells() order: fault count, threshold, DL, magnitude.
    shape = [len(grid.fault_counts), len(grid.thresholds), len(grid.dls), len(grid.magnitudes)]
    counts = np.zeros(shape + [4], dtype=np.int64)
    for fi, fc in enumerate(grid.fault_counts):
        truth = np.zeros(n, dtype=bool)
        truth[perm[:fc]] = True
        for mi, mag in enumerate(grid.magnitudes):
            faults = FaultConfig(fault_set=perm[:fc].tolist(), magnitude=mag)
            batches = ctx.epoch_analyses(trial_id, t0_index, faults, max(grid.dls))
            for ti, p in enumerate(params):
                for li, dl in enumerate(grid.dls):
                    outcome = detect_faults_from_analyses(batches[:dl], p, n)
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
