"""Greedy multi-round fault detection over clique subgraphs.

One round scans every clique of every epoch in the detection window: a
clique whose gamma_test exceeds the threshold casts one vote against the
satellite singled out by its 4th singular vector.  The round terminates
the search when votes are too few (total below delta_nf) or too diffuse
(no satellite holds a delta_rf share); otherwise the top-voted satellite
is declared faulty, every clique containing it is dropped, and the same
cached measurements are re-examined.

The rounds run over cells, not one cell at a time (vote).  A cell is a
set of rows (one window's cliques), a flag column (one threshold's) and
a prefix of those rows (its first epochs); its live rows at the start are
the flagged rows of that prefix.  Each round counts the votes of every
cell still running at once, so a campaign trial votes once for its whole
grid and detect_faults is the vote of one cell.

The threshold is either a fixed scalar (a calibrated percentile of the
non-fault statistic) or a per-subgraph value from a trained predictor,
evaluated on the observed subgraph's singular-value features
(edm.batch_features); a predictor is read only through its predict method.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import edm
from .ranging import RangeMatrix


@dataclass(frozen=True)
class DetectorParams:
    """Hyperparameters of the greedy detector.

    The detection interval is the number of epochs in the window that
    detect_faults is given.

    delta_nf     : least total number of fault-flagged subgraphs required
    delta_rf     : minimum vote share for a satellite to be declared faulty
    gamma_threshold : fixed scalar threshold (any finite real number, numpy
                   scalars included), or an object with a predict(features)
                   method for per-subgraph thresholds
    """

    delta_nf: int = 10
    delta_rf: float = 0.2
    gamma_threshold: object = 0.0

    def __post_init__(self):
        if self.delta_nf < 1:
            raise ValueError("delta_nf must be >= 1")
        if not (0.0 < self.delta_rf < 1.0):
            raise ValueError("delta_rf must be in (0, 1)")
        # No gamma exceeds NaN, so a NaN threshold would report every window clean.
        if is_scalar_threshold(self.gamma_threshold) and not math.isfinite(self.gamma_threshold):
            raise ValueError(f"gamma_threshold must be finite, got {self.gamma_threshold}")


@dataclass(frozen=True)
class VoteState:
    """Per-satellite fault vote counts for one round."""

    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def ratios(self) -> np.ndarray:
        """Vote shares; undefined (NaN) when no votes were cast."""
        total = self.total
        if total == 0:
            return np.full(self.counts.shape, np.nan)
        return self.counts / total


@dataclass(frozen=True)
class DetectionOutcome:
    """Result of a full greedy run: removal order and per-round votes."""

    fault_list: tuple[int, ...]
    vote_history: tuple[VoteState, ...]

    @property
    def rounds(self) -> int:
        return len(self.vote_history)


@dataclass(frozen=True)
class FlagTable:
    """Per-clique analysis cached for re-tallying across rounds.

    Rows cover every clique of every epoch in the window (epochs
    concatenated), so the first rows of a window are a shorter window.
    vertices is (m, k) global satellite ids; voted is the global id each
    clique would vote for; flagged marks gamma > threshold.
    """

    vertices: np.ndarray
    voted: np.ndarray
    flagged: np.ndarray


@dataclass(frozen=True)
class Votes:
    """The rounds of every cell of one vote.

    counts[r, c] is cell c's per-satellite vote count in round r, and
    removed[r, c] the satellite it removed in that round, or n_sats from
    the round it stopped in on.  Cell c's rounds are those up to the first
    that removed nothing, or every row if it never stopped.
    """

    counts: np.ndarray
    removed: np.ndarray

    def outcome(self, cell: int) -> DetectionOutcome:
        """Cell cell's removal order and per-round votes (views of counts)."""
        n_sats = self.counts.shape[2]
        removed = self.removed[:, cell].tolist()
        faults = removed[:removed.index(n_sats)] if n_sats in removed else removed
        return DetectionOutcome(
            fault_list=tuple(faults),
            vote_history=tuple(map(VoteState, self.counts[:len(faults) + 1, cell])),
        )


def is_scalar_threshold(threshold: object) -> bool:
    """True for a fixed threshold, False for a per-subgraph predictor."""
    return isinstance(threshold, numbers.Real)


def analysis_thresholds(thresholds: Iterable[object]) -> tuple[float, ...] | None:
    """The thresholds that edm.analyze_clique_batch may decide the rows of a
    detection under every one of thresholds by: all of them, as floats, if
    each is a finite scalar, else None (a predictor reads every clique's
    values and vectors, so all are solved)."""
    values = list(thresholds)
    if all(is_scalar_threshold(v) and math.isfinite(v) for v in values):
        return tuple(float(v) for v in values)
    return None


def _resolve_thresholds(params: DetectorParams, batches: Sequence[edm.BatchAnalysis]):
    """The threshold of every row of batches: the scalar itself, or the
    predictor's per-subgraph values, evaluated once per batch."""
    thr = params.gamma_threshold
    if is_scalar_threshold(thr):
        return float(thr)
    # Predictor mode: features come from the observed analyses (the first
    # three singular values and vectors are nearly noise-invariant).
    return np.concatenate([
        np.asarray(thr.predict(edm.batch_features(b)), dtype=float).reshape(-1) for b in batches])


def table_from_analyses(
    batches: Sequence[edm.BatchAnalysis], params: DetectorParams
) -> FlagTable:
    """Apply the threshold rule to precomputed per-epoch clique analyses.

    A predictor threshold is evaluated once per batch, on its rows.
    """
    if len(batches) == 0:
        raise ValueError("detection window must have at least one epoch")
    vertices = np.concatenate([b.cliques for b in batches])
    local = np.concatenate([b.fault_vertex_local for b in batches])
    gamma = np.concatenate([b.gamma_test for b in batches])
    return FlagTable(
        vertices=vertices,
        voted=vertices[np.arange(len(vertices)), local],
        flagged=gamma > _resolve_thresholds(params, batches),
    )


def vote(
    vertices: np.ndarray,
    voted: np.ndarray,
    rows: np.ndarray,
    cells: np.ndarray,
    n_cells: int,
    params: DetectorParams,
    n_sats: int,
) -> Votes:
    """The greedy rounds of n_cells cells, run together.

    vertices ((m, k) global ids) and voted ((m,), the id each row votes
    for) are a table of rows; row rows[i] is live at the start of cell
    cells[i], each (row, cell) pair given at most once.  The vote builds
    one (m, n_sats + 1) membership matrix, so a caller passes only the
    rows that some cell reads.  Each round one bincount gives every cell's
    counts.  A cell stops when its total is below delta_nf or its top
    count's share is below delta_rf; otherwise it removes the top-voted
    satellite (lowest id on ties), and its rows that hold that satellite
    stop voting.  At most n_sats rounds.
    """
    # Row j of free is False at the satellites row j holds and at column
    # n_sats, the removal of a cell that stopped, whose pairs all drop.
    width = n_sats + 1
    free = np.ones((len(voted), width), dtype=bool)
    free[np.arange(len(voted))[:, None], vertices] = False
    free[:, n_sats] = False
    free = free.ravel()
    keys = cells * n_sats + voted[rows]
    starts = rows * width  # each pair's row of free
    counts, removed = [], []
    for _ in range(n_sats):
        tally = np.bincount(keys, minlength=n_cells * n_sats).reshape(n_cells, n_sats)
        total = tally.sum(axis=1)
        # The share divides as VoteState.ratios does; a total below
        # delta_nf (>= 1) makes it 0, so no division by 0 happens.
        share = tally.max(axis=1) / np.where(total >= params.delta_nf, total, np.inf)
        removes = share >= params.delta_rf
        removal = np.where(removes, tally.argmax(axis=1), n_sats)
        counts.append(tally)
        removed.append(removal)
        if not removes.any():
            break
        live = free[starts + removal[cells]]
        keys, starts, cells = keys[live], starts[live], cells[live]
    return Votes(counts=np.array(counts), removed=np.array(removed))


def detect_faults(
    clique_lists: Sequence[np.ndarray],
    ranges: Sequence[RangeMatrix],
    params: DetectorParams,
) -> DetectionOutcome:
    """Greedy removal loop over one detection window.

    clique_lists ((m, k) arrays) and ranges are aligned per epoch;
    measurements are generated once per epoch by the caller and
    re-examined unchanged after each removal.  Terminates in at most
    n_sats rounds.  A scalar threshold is passed to the analysis
    (analysis_thresholds), which solves only the cliques whose flag or
    vote it cannot decide without the eigensolver.  The window is the
    one cell of a vote: its flagged rows.
    """
    if len(ranges) != len(clique_lists):
        raise ValueError("clique lists and range matrices must cover the same epochs")
    thresholds = analysis_thresholds([params.gamma_threshold])
    batches = [
        edm.analyze_clique_batch(rm, cliques, thresholds=thresholds)
        for cliques, rm in zip(clique_lists, ranges)
    ]
    table = table_from_analyses(batches, params)
    # The outcome is read through Votes.outcome, not detect_faults_from_analyses,
    # so that perfbench, which counts rounds at both, counts a window once.
    flagged = np.flatnonzero(table.flagged)
    n_live = len(flagged)
    return vote(table.vertices[flagged], table.voted[flagged], np.arange(n_live),
                np.zeros(n_live, dtype=np.intp), 1, params, len(ranges[0].r)).outcome(0)


def detect_faults_from_analyses(votes: Votes, cell: int) -> DetectionOutcome:
    """The outcome of one cell of a vote, equal to detect_faults on that
    cell's window alone.

    Campaign runs sweep thresholds and window lengths over the same
    measurements: a trial flags each clique's one analysis once per
    threshold (table_from_analyses) and votes once for all its cells, so
    no grid cell repeats an eigendecomposition, a threshold evaluation or
    a vote; it reads each cell's outcome here.
    """
    return votes.outcome(cell)
