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

* each epoch's noise is drawn once, and the fault configs with rows of
  their own in the epoch add their biases to that draw in one broadcast
  (ranging.add_biases);
* each (config, clique) row has one key, 0 when none of the clique's
  vertices is biased and otherwise its biased vertices with the config's
  magnitude, and a clique is analysed once per distinct key: the
  fault-free cliques are shared by every magnitude and nested fault
  count.  The keys of the whole window are computed in one pass over its
  concatenated cliques, and each epoch takes its slice of them.  The
  analyses of consecutive epochs of up to CHUNK_ROWS rows are one
  analyze_clique_batch call on the fault configs' biased ranges of every
  epoch of the chunk, stacked block-diagonally;
* each threshold flags every analysed row once (one predictor evaluation
  per epoch, on that epoch's rows of its chunk, table_from_analyses);
* a cell is a row set, a flag column and a row prefix: its config's
  window (the rows of the longest window, gathered by index), its
  threshold's flags and its detection length's first epochs, so its live
  rows at the start are the flagged rows of that prefix;
* one vote (detector.vote) runs the greedy rounds of every cell of the
  trial together, one bincount per round, and each cell's outcome is read
  from it (detect_faults_from_analyses).

A batched eigh gives each matrix the result of a batch of one, so every
cell's verdict equals analysing that cell alone, bit for bit.  When every
threshold is a scalar, the analysis takes them all and solves only the
rows whose flags and vote it cannot certify without the eigensolver
(edm.analyze_clique_batch); a certified row is flagged by the same
thresholds and votes for the same satellite as its solved analysis, so no
cell's verdict changes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace
from itertools import chain
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
    analysis_thresholds,
    detect_faults_from_analyses,
    is_scalar_threshold,
    table_from_analyses,
    vote,
)
from .ranging import (
    FaultConfig, add_biases, check_magnitude, check_sigma_w, fault_biases, measure_ranges,
)
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
        # A row of results.csv and a series of satfd report are keyed by
        # these values, so a repeat would write two rows under one key.
        for field, values in [("fault counts (fault_counts)", list(self.fault_counts)),
                              ("fault magnitudes (magnitudes_m)", list(self.magnitudes)),
                              ("threshold labels", [thr.label for thr in self.thresholds]),
                              ("detection lengths (dl_list)", list(self.dls))]:
            if len(set(values)) < len(values):
                raise ValueError(f"{field} must be distinct, got {values}")

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

# The most clique rows a campaign trial analyses in one analyze_clique_batch
# call: consecutive whole epochs, or one epoch alone that holds more.  A
# call costs a fixed 0.2-0.4 ms plus about 1 us a row and peaks at about
# 1.9 KB a row, so 2,048 rows (two trend-grid epochs) save most of the
# fixed cost while a call's peak stays near 4 MB.
CHUNK_ROWS = 2048


def _chunks(sizes: Sequence[int]) -> list[list[int]]:
    """The indices of sizes (each epoch's rows) in consecutive runs: a run
    takes the next epoch while its rows stay within CHUNK_ROWS, and an
    epoch that would exceed them starts the next run."""
    runs, total = [], 0
    for i, size in enumerate(sizes):
        if not runs or total + size > CHUNK_ROWS:
            runs.append([])
            total = 0
        runs[-1].append(i)
        total += size
    return runs


def _row_range(analysis: edm.BatchAnalysis, start: int, stop: int) -> edm.BatchAnalysis:
    """Rows start to stop of analysis, as views (a field that is None stays None)."""
    return edm.BatchAnalysis(*(
        None if value is None else value[start:stop]
        for value in (getattr(analysis, f.name) for f in fields(analysis))))


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

        The keys of the whole window are computed once, over its cliques
        concatenated in epoch order: the codes are one product of the biased
        vertices with the position weights 1 << j, and each epoch slices the
        window's first-config and own-row arrays, which are dropped before
        the first analysis.  Each epoch's biased ranges, one block per config
        with new rows (config 0's always), are one broadcast of the clean
        draw (ranging.add_biases).

        The epochs are analysed in chunks of whole consecutive epochs of at
        most CHUNK_ROWS rows (_chunks), each one analyze_clique_batch call
        (edm.analyze_blocks): the biased ranges of every config with new
        rows of every epoch of the chunk are the blocks of one
        block-diagonal range matrix, in epoch order and then config order,
        and a solved row has the bits of analysing its block alone (a
        settled row, its flags and vote).  Each epoch's rows are a view of
        its rows of the chunk's analysis.
        """
        biases = fault_biases(configs, self.n_sats)
        # A zero bias leaves every range as it is (add_biases).
        biased = biases != 0.0
        # 1 + each config's magnitude rank, which a key holds above its vertex bits.
        ranks = np.unique([faults.magnitude for faults in configs], return_inverse=True)[1] + 1
        thresholds = analysis_thresholds(thr.value for thr in self.grid.thresholds)
        entries = [self.schedule[g] for g in range(t0_index, t0_index + n_epochs)]
        # The window's cliques, epoch after epoch; epoch e holds rows starts[e] to starts[e + 1].
        cliques = np.concatenate([entry.cliques for entry in entries])
        starts = np.cumsum([0] + [len(entry.cliques) for entry in entries])
        # (configs, window rows) codes: bit j is set when vertex j of the row is biased.
        k = cliques.shape[1]
        codes = np.take(biased, cliques, axis=1) @ (1 << np.arange(k))
        keys = np.where(codes == 0, 0, codes + (ranks << k)[:, None])
        # first[c, i]: the first config whose row i has the key of config c's;
        # each config marks its own and the later configs' rows with its key,
        # and an earlier config overwrites the marks of a later one.
        first = np.empty(keys.shape, dtype=np.intp)
        for c in reversed(range(len(configs))):
            first[c:][keys[c:] == keys[c]] = c
        own = first == np.arange(len(configs))[:, None]
        # Each epoch's (range blocks, clique rows per block, source).
        epochs = []
        for e, entry in enumerate(entries):
            rng = substream(self.master_seed, EPOCH_NOISE, trial_id, t0_index + e)
            clean = measure_ranges(entry.positions, entry.graph, FaultConfig(), self.sigma_w, rng)
            epoch_own = own[:, starts[e]:starts[e + 1]]
            epoch_first = first[:, starts[e]:starts[e + 1]]
            source = (epoch_own.cumsum() - 1).reshape(epoch_own.shape)
            source = source[epoch_first, np.arange(len(entry.cliques))]
            # Config 0 has a block in every epoch, one of no clique too.
            new_rows = epoch_own.any(axis=1)
            new_rows[0] = True
            analysed = np.flatnonzero(new_rows)
            blocks = add_biases(clean, entry.graph, biases[analysed])
            rows = [entry.cliques[epoch_own[c]] for c in analysed]
            epochs.append((blocks, rows, source))
        # The keys are not needed during the analysis.
        del cliques, codes, keys, first, own, epoch_own, epoch_first
        sizes = [sum(map(len, rows)) for _, rows, _ in epochs]
        out = []
        for run in _chunks(sizes):
            analysed = edm.analyze_blocks([b for e in run for b in epochs[e][0]],
                                          [r for e in run for r in epochs[e][1]],
                                          thresholds=thresholds)
            start = 0
            for e in run:
                out.append((_row_range(analysed, start, start + sizes[e]), epochs[e][2]))
                start += sizes[e]
        return out


def _trial_cell_counts(ctx: CampaignContext, trial_id: int) -> np.ndarray:
    """(n_cells, 4) tp/fn/fp/tn contributions of one trial, in cell order.

    Each threshold flags every analysed row of the window once; a cell's
    live rows are its threshold's flagged rows of its config's window, up
    to its DL's epochs, and one vote decides every cell of the trial.
    """
    grid = ctx.grid
    t0_index, perm = ctx.trial_conditions(trial_id)
    n = ctx.n_sats
    configs = [
        FaultConfig(fault_set=perm[:fc].tolist(), magnitude=mag)
        for fc in grid.fault_counts for mag in grid.magnitudes
    ]
    epochs = ctx.epoch_analyses(trial_id, t0_index, configs, max(grid.dls))
    analysed = [rows for rows, _ in epochs]
    tables = [table_from_analyses(analysed, replace(ctx.detector, gamma_threshold=thr.value))
              for thr in grid.thresholds]
    # Row c of windows lists config c's window (epochs in order) as rows of tables.
    starts = np.cumsum([0] + [len(rows.cliques) for rows in analysed[:-1]])
    windows = np.concatenate([source + start for (_, source), start in zip(epochs, starts)], axis=1)
    # A window's first ends[d - 1] rows are its first d epochs.
    ends = np.cumsum([source.shape[1] for _, source in epochs])
    # Each flagged row of a (threshold, config) window gives one (row, cell)
    # pair for each DL whose prefix holds it.
    n_configs, n_rows = windows.shape
    flags = np.stack([table.flagged for table in tables])[:, windows]
    group, positions = np.nonzero(flags.reshape(len(tables) * n_configs, n_rows))
    pair, dl = np.nonzero(positions[:, None] < ends[np.asarray(grid.dls) - 1])
    threshold, config = np.divmod(group[pair], n_configs)
    rows = windows[config, positions[pair]]
    # Cell ids in ExperimentGrid.cells() order: fault count, threshold, DL, magnitude.
    fault, magnitude = np.divmod(config, len(grid.magnitudes))
    cells = (fault * len(grid.thresholds) + threshold) * len(grid.dls) + dl
    cells = cells * len(grid.magnitudes) + magnitude
    # The vote takes the rows that some cell reads, renumbered in table order.
    read = np.zeros(len(tables[0].voted), dtype=bool)
    read[rows] = True
    read = np.flatnonzero(read)
    renumbered = np.empty(len(tables[0].voted), dtype=np.intp)
    renumbered[read] = np.arange(len(read))
    votes = vote(tables[0].vertices[read], tables[0].voted[read], renumbered[rows], cells,
                 grid.n_cells, ctx.detector, n)
    found = [detect_faults_from_analyses(votes, cell).fault_list for cell in range(grid.n_cells)]
    detected = np.zeros((grid.n_cells, n), dtype=bool)
    detected[np.repeat(np.arange(grid.n_cells), [len(f) for f in found]),
             list(chain.from_iterable(found))] = True
    # truth[f, s]: satellite s is among the first fault_counts[f] of perm.
    rank = np.empty(n, dtype=np.intp)
    rank[perm] = np.arange(n)
    truth = rank < np.asarray(grid.fault_counts)[:, None]
    # Bins 4c to 4c + 3 are cell c's tp, fn, fp, tn.
    codes = 2 * ~truth[:, None] + ~detected.reshape(len(grid.fault_counts), -1, n)
    codes = codes.reshape(grid.n_cells, n) + 4 * np.arange(grid.n_cells)[:, None]
    return np.bincount(codes.ravel(), minlength=4 * grid.n_cells).reshape(-1, 4)


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


def check_trials(n_trials: int) -> int:
    """n_trials, refusing a campaign of fewer than one trial."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    return n_trials


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
    check_trials(n_trials)
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
    it gives them); ExperimentSpec.load calibrates the NaN percentile values."""
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
    """A checked experiment file: the campaign to run, and its trial count."""

    context: CampaignContext
    n_trials: int

    @classmethod
    def load(cls, path: str | Path) -> ExperimentSpec:
        """Read and check an experiment file, then calibrate any percentile thresholds."""
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
                n_trials = check_trials(_integer(raw["n_trials"], "n_trials"))
                fault_counts = tuple(_integer(v, "fault_counts") for v in _array(raw, "fault_counts"))
                magnitudes = tuple(_number(v, "magnitudes_m") for v in _array(raw, "magnitudes_m"))
                thresholds, percentiles = _thresholds(raw["thresholds"])
                dls = tuple(_integer(v, "dl_list") for v in _array(raw, "dl_list"))
                grid = ExperimentGrid(fault_counts, magnitudes, thresholds, dls)
                context = CampaignContext(
                    config, sigma_w, grid, master_seed, timestep,
                    delta_nf=_integer(raw.get("delta_nf", 10), "delta_nf"),
                    delta_rf=_number(raw.get("delta_rf", 0.2), "delta_rf"))
                if percentiles:
                    sample = calibration.sample_statistics(config, sigma_w, timestep, config.period, master_seed)
                    context.grid = replace(grid, thresholds=tuple(
                        replace(thr, value=calibration.percentile(sample, p))
                        for thr, p in zip(thresholds, percentiles)))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"invalid experiment config: {exc}") from exc
        except KeyError as exc:
            raise ValueError(f"invalid experiment config: missing field {exc}") from exc
        return cls(context, n_trials)
