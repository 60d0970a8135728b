"""Seeded Monte-Carlo campaigns over detection parameter grids.

A campaign runs n_trials independent trials against every cell of a grid
(fault count x fault magnitude x threshold x detection length).  Each
trial draws an initial epoch on the timestep grid of one orbital period
and a fault permutation from a substream keyed only by (master seed,
trial id), so every grid cell sees the same trial conditions; measurement
noise is keyed by (master seed, trial id, absolute epoch index) so cells
that share epochs share noise too.  Per-cell confusion counts are integer
sums over trials, which makes parallel and serial runs byte-identical.

Because the noise of an epoch is the same under every fault condition, a
clique's analysis depends only on which of its vertices are biased and, if
any are, on the magnitude.  A trial therefore does each piece of work once
(CampaignContext.epoch_analyses, _trial_cell_counts):

* each epoch's noise is drawn once, and each fault config adds its bias
  to that draw (ranging.add_bias);
* each (config, clique) row has one key, 0 when none of the clique's
  vertices is biased and otherwise its biased vertices with the config's
  magnitude, and a clique is analysed once per distinct key: the
  fault-free cliques are shared by every magnitude and nested fault
  count, and an epoch's analyses are one analyze_clique_batch call on the
  fault configs' biased ranges stacked block-diagonally;
* each threshold flags every analysed row once (one predictor evaluation
  per epoch), and a cell's flag table is gathered from those rows by
  index: the vertex and vote columns once per config, which every
  threshold shares, and the flags once per (config, threshold);
* each (config, threshold) has one flag table over the longest window,
  and a detection length is a row prefix of it.

A batched eigh gives each matrix the result of a batch of one, so every
cell's verdict equals analysing that cell alone, bit for bit.  When every
threshold is a scalar, the analysis takes them all and solves only the
rows whose flags and vote it cannot certify without the eigensolver
(edm.analyze_clique_batch); a certified row is flagged by the same
thresholds and votes for the same satellite as its solved analysis, so no
cell's verdict changes.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import calibration, edm
# list_k_cliques is bound here only so that perfbench's tracer, which wraps
# every module binding of a traced function, finds it in this module too.
from .cliques import EPOCH_STEP, build_clique_schedule, check_window, list_k_cliques  # noqa: F401
from .constellation import ConstellationConfig, resolve_config
from .detector import (
    DetectorParams,
    FlagTable,
    analysis_thresholds,
    detect_faults_from_analyses,
    is_scalar_threshold,
    table_from_analyses,
)
from .ranging import FaultConfig, add_bias, check_magnitude, check_sigma_w, measure_ranges
from .seeds import EPOCH_NOISE, TRIAL_SETUP, check_seed, substream


@dataclass(frozen=True)
class ThresholdSpec:
    """A labeled detection threshold: a fixed value or a trained predictor."""

    label: str
    value: float | calibration.MlpPredictor

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
        for magnitude in self.magnitudes:
            check_magnitude(magnitude)

    def cells(self):
        """Row order of the results table."""
        for fc in self.fault_counts:
            for thr in self.thresholds:
                for dl in self.dls:
                    for mag in self.magnitudes:
                        yield fc, mag, thr, dl

    @property
    def n_cells(self) -> int:
        return math.prod(map(len, (self.fault_counts, self.magnitudes, self.thresholds, self.dls)))


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
    extended by (max DL - 1) epochs so any trial window fits; check_window
    refuses a DL below 1 or longer than the period, and its epoch_count a
    timestep that is not > 0 and finite, before anything is propagated.
    Trials index into this grid's clique schedule, which is computed once.
    """

    def __init__(
        self,
        config: ConstellationConfig,
        sigma_w: float,
        grid: ExperimentGrid,
        master_seed: int,
        timestep: float = EPOCH_STEP,
        delta_nf: int = 10,
        delta_rf: float = 0.2,
    ):
        check_sigma_w(sigma_w)
        check_seed(master_seed, "master_seed")
        if max(grid.fault_counts) > config.n_satellites:
            raise ValueError(f"fault counts must not exceed the {config.n_satellites} satellites")
        self.config = config
        self.sigma_w = sigma_w
        self.grid = grid
        self.master_seed = master_seed
        self.timestep = timestep
        # Settings shared by every cell; each grid threshold sets gamma_threshold.
        self.detector = DetectorParams(delta_nf=delta_nf, delta_rf=delta_rf)

        field = "detection lengths (dl_list)"
        check_window(min(grid.dls), config.period, timestep, field)
        self.n_start_epochs = check_window(max(grid.dls), config.period, timestep, field)
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
        measured ranges with the same thresholds.  The epoch's noise is drawn
        once and every config biases the same draw, so a row's analysis
        depends only on its key: 0 when none of the clique's vertices is
        biased, else the bits of its biased vertices plus (r + 1) << k, r
        the rank of the config's magnitude among the configs'.  A row is
        analysed only for the first config with its key, rows holds them in
        config order and then clique order, and a config after the first
        whose rows are all shared is not biased at all.  Under the grid's
        analysis_thresholds, a row the certificate settles is not solved,
        and rows holds no singular values or vectors (the thresholded
        edm.BatchAnalysis).

        An epoch is one analyze_clique_batch call (edm.analyze_blocks): the
        biased ranges of the b-th config with new rows are block b of one
        block-diagonal range matrix, and a solved row has the bits of
        analysing its block alone (a settled row, its flags and vote).
        """
        biased = np.zeros((len(configs), self.n_sats), dtype=bool)
        for c, faults in enumerate(configs):
            # A zero bias leaves every range as it is (add_bias).
            biased[c, list(faults.fault_set)] = faults.magnitude != 0.0
        # 1 + each config's magnitude rank, which a key holds above its vertex bits.
        ranks = np.unique([faults.magnitude for faults in configs], return_inverse=True)[1] + 1
        thresholds = analysis_thresholds(thr.value for thr in self.grid.thresholds)
        out = []
        for offset in range(n_epochs):
            g = t0_index + offset
            entry = self.schedule[g]
            cliques = entry.cliques
            rng = substream(self.master_seed, EPOCH_NOISE, trial_id, g)
            clean = measure_ranges(entry.positions, entry.graph, FaultConfig(), self.sigma_w, rng)
            # (configs, m) codes: bit j is set when vertex j of the row is biased.
            k = cliques.shape[1]
            codes = (biased[:, cliques] << np.arange(k)).sum(axis=2)
            keys = np.where(codes == 0, 0, codes + (ranks << k)[:, None])
            # first[c, i]: the first config whose row i has the key of config c's.
            first = (keys[:, None] == keys[None]).argmax(axis=1)
            own = first == np.arange(len(configs))[:, None]
            source = (own.cumsum() - 1).reshape(own.shape)[first, np.arange(len(cliques))]
            analysed = [c for c in range(len(configs)) if c == 0 or own[c].any()]
            blocks = [add_bias(clean, entry.graph, configs[c]).r for c in analysed]
            rows = [cliques[own[c]] for c in analysed]
            # The keys are not needed during the analysis.
            del codes, keys, first, own
            out.append((edm.analyze_blocks(blocks, rows, thresholds=thresholds), source))
        return out


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


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _trial_order(ctx: CampaignContext, n_trials: int) -> list[int]:
    """Trial ids, largest predicted cost first, ties by id.

    A trial's cost is predicted by the cliques of its longest window: its
    analyses and detections follow them (a correlation of 0.985 between
    the two over 24 walker_mars trials of one master seed on one core).
    """
    dl = max(ctx.grid.dls)
    costs = [sum(len(ctx.schedule[g].cliques) for g in range(t0, t0 + dl))
             for t0, _ in map(ctx.trial_conditions, range(n_trials))]
    return sorted(range(n_trials), key=lambda t: -costs[t])


def _take_trials(ctx: CampaignContext, order: Sequence[int], taken) -> np.ndarray:
    """(n_cells, 4) counts of the trials this process takes: each time it is
    free, the next trial of order that no process has taken yet.

    taken is a multiprocessing.Value shared by every process of the
    campaign: the number of trials of order handed out so far.
    """
    total = np.zeros((ctx.grid.n_cells, 4), dtype=np.int64)
    while True:
        with taken.get_lock():
            i = taken.value
            taken.value = i + 1
        if i >= len(order):
            return total
        total += _trial_cell_counts(ctx, order[i])


# Module-level worker state: set once per worker process by the pool
# initializer, read by every task.
_WORKER_ARGS: tuple | None = None


def _worker_init(ctx: CampaignContext, order: Sequence[int], taken) -> None:
    global _WORKER_ARGS
    _WORKER_ARGS = ctx, order, taken


def _worker_take() -> np.ndarray:
    return _take_trials(*_WORKER_ARGS)


def run_campaign(
    ctx: CampaignContext, n_trials: int, workers: int = 1
) -> list[CellResult]:
    """All grid cells x n_trials; returns one result row per cell.

    With workers > 1 the campaign runs in min(workers, n_trials, CPUs this
    process may run on) processes: this one and a pool of the others.  The
    trials go largest first, by the cliques of each trial's longest window
    (_trial_order), each to the first process that is free (Graham's
    longest-processing-time list schedule), so the processes finish within
    about one trial of each other however fast each CPU runs.  With one
    process no pool is made.  The aggregation is a sum of per-trial
    integer count arrays, so the result is independent of worker count and
    scheduling order.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    n_procs = min(workers, n_trials, _usable_cpus())
    if n_procs <= 1:
        total = _sum_trials(ctx, range(n_trials))
    else:
        # Imported here, so that a serial campaign and every other command
        # skip the import of the pool and multiprocessing (about 11 ms).
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import Value

        order = _trial_order(ctx, n_trials)
        taken = Value("q", 0)
        with ProcessPoolExecutor(
            max_workers=n_procs - 1, initializer=_worker_init, initargs=(ctx, order, taken)
        ) as pool:
            futures = [pool.submit(_worker_take) for _ in range(n_procs - 1)]
            total = _take_trials(ctx, order, taken)
            for future in futures:
                total += future.result()

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
# Experiment files.
# ---------------------------------------------------------------------------

# Every field an experiment file may give.
_FIELDS = frozenset({"constellation", "sigma_w_m", "fault_counts", "magnitudes_m", "thresholds",
                     "dl_list", "n_trials", "master_seed", "timestep_s", "delta_nf", "delta_rf"})


def _integer(value, field: str) -> int:
    """int(value), refusing a JSON boolean and a value that int() would change or cannot take."""
    try:
        whole = None if isinstance(value, bool) else int(value)
    except (OverflowError, ValueError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return whole


def _number(value, field: str) -> float:
    """float(value), refusing anything but a JSON number (a boolean or a
    string included) and an integer beyond the range of a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{field} must be a finite number: {exc}") from None


def _array(raw: dict, field: str) -> list:
    """raw[field], refusing anything but a JSON array: a string or an object
    would iterate as characters or keys, a number or null not at all."""
    value = raw[field]
    if not isinstance(value, list):
        raise ValueError(f"{field} must be an array, got {value!r}")
    return value


def _thresholds(spec) -> tuple[tuple[ThresholdSpec, ...], tuple[float, ...]]:
    """An experiment file's grid thresholds and its percentiles (empty unless
    it gives them); percentile values are NaN until ExperimentSpec.calibrated."""
    if not (isinstance(spec, dict) and len(spec) == 1
            and spec.keys() <= {"percentiles", "values", "model"}):
        raise ValueError("thresholds must be an object giving exactly one of 'percentiles', "
                         f"'values' or 'model', got {spec!r}")
    [kind] = spec
    if kind == "percentiles":
        percentiles = tuple(_number(p, "percentiles") for p in _array(spec, "percentiles"))
        for p in percentiles:
            calibration.check_percentile(p)
        return tuple(ThresholdSpec(f"p{p:g}", math.nan) for p in percentiles), percentiles
    if kind == "values":
        thresholds = []
        for v in _array(spec, "values"):
            if not isinstance(v, dict):
                raise ValueError(f"values entries must be objects, got {v!r}")
            label = str(v["label"])
            value = _number(v["value"], f"threshold {label!r}")
            if not math.isfinite(value):
                raise ValueError(f"threshold {label!r} must be finite, got {value!r}")
            thresholds.append(ThresholdSpec(label, value))
        return tuple(thresholds), ()
    path = spec["model"]
    if not isinstance(path, str):
        raise ValueError(f"model must be a file path string, got {path!r}")
    return (ThresholdSpec("predicted", calibration.MlpPredictor.load(path)),), ()


@dataclass(frozen=True)
class ExperimentSpec:
    """A checked experiment file; context keeps NaN percentile thresholds (see calibrated())."""

    context: CampaignContext
    n_trials: int
    percentiles: tuple[float, ...]  # empty unless the thresholds are percentiles

    @classmethod
    def load(cls, path: str | Path) -> ExperimentSpec:
        """Read and check an experiment file, before anything is calibrated or written."""
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read experiment config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError(f"invalid experiment config: {path} must be a JSON object, not {type(raw).__name__}")
        unknown = [name for name in raw if name not in _FIELDS]
        if unknown:
            raise ValueError(f"invalid experiment config: unknown field {unknown[0]!r}")
        try:
            # str(): resolve_config would take an integer for a file descriptor.
            config = resolve_config(str(raw["constellation"]))
            try:  # resolve_config's errors carry their own prefix.
                sigma_w = _number(raw["sigma_w_m"], "sigma_w_m")
                timestep = _number(raw.get("timestep_s", EPOCH_STEP), "timestep_s")
                master_seed = _integer(raw["master_seed"], "master_seed")
                n_trials = _integer(raw["n_trials"], "n_trials")
                if n_trials < 1:
                    raise ValueError("n_trials must be >= 1")
                fault_counts = tuple(_integer(v, "fault_counts") for v in _array(raw, "fault_counts"))
                magnitudes = tuple(_number(v, "magnitudes_m") for v in _array(raw, "magnitudes_m"))
                thresholds, percentiles = _thresholds(raw["thresholds"])
                dls = tuple(_integer(v, "dl_list") for v in _array(raw, "dl_list"))
                grid = ExperimentGrid(fault_counts, magnitudes, thresholds, dls)
                context = CampaignContext(
                    config, sigma_w, grid, master_seed, timestep,
                    delta_nf=_integer(raw.get("delta_nf", 10), "delta_nf"),
                    delta_rf=_number(raw.get("delta_rf", 0.2), "delta_rf"))
                if percentiles:  # refuses a step that leaves no calibration epoch
                    calibration.sampling_times(timestep, config.period)
            except (ValueError, TypeError) as exc:
                raise ValueError(f"invalid experiment config: {exc}") from exc
        except KeyError as exc:
            raise ValueError(f"invalid experiment config: missing field {exc}") from exc
        return cls(context, n_trials, percentiles)

    def calibrated(self) -> CampaignContext:
        """context, or a shallow copy of it whose grid holds the calibrated percentiles."""
        ctx = self.context
        if not self.percentiles:
            return ctx
        sample = calibration.sample_statistics(
            ctx.config, ctx.sigma_w, ctx.timestep, ctx.config.period, seed=ctx.master_seed)
        run = copy.copy(ctx)
        run.grid = replace(ctx.grid, thresholds=tuple(
            replace(thr, value=calibration.percentile(sample, p))
            for thr, p in zip(ctx.grid.thresholds, self.percentiles)))
        return run
