"""Greedy multi-round fault detection over clique subgraphs.

One round scans every clique of every epoch in the detection window: a
clique whose gamma_test exceeds the threshold casts one vote against the
satellite singled out by its 4th singular vector.  The round terminates
the search when votes are too few (total below delta_nf) or too diffuse
(no satellite holds a delta_rf share); otherwise the top-voted satellite
is declared faulty, every clique containing it is dropped, and the same
cached measurements are re-examined.

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

    def rows(self, index) -> "FlagTable":
        """The table of the rows that index (an index array or a slice)
        selects, in that order."""
        return FlagTable(self.vertices[index], self.voted[index], self.flagged[index])


def is_scalar_threshold(threshold: object) -> bool:
    """True for a fixed threshold, False for a per-subgraph predictor."""
    return isinstance(threshold, numbers.Real)


def analysis_floor(thresholds: Iterable[object]) -> tuple[float, ...] | None:
    """The thresholds that edm.analyze_clique_batch may decide the rows of a
    detection under every one of thresholds by: all of them, as floats, if
    each is a finite scalar (the smallest is the floor below which no row is
    solved), else None (a predictor reads every clique's values and
    vectors, so all are solved)."""
    values = list(thresholds)
    if all(is_scalar_threshold(v) and math.isfinite(v) for v in values):
        return tuple(float(v) for v in values)
    return None


def _resolve_thresholds(params: DetectorParams, batch: edm.BatchAnalysis) -> np.ndarray:
    thr = params.gamma_threshold
    if is_scalar_threshold(thr):
        return np.full(len(batch.cliques), float(thr))
    # Predictor mode: features come from the observed analyses (the first
    # three singular values and vectors are nearly noise-invariant).
    return np.asarray(thr.predict(edm.batch_features(batch)), dtype=float).reshape(-1)


def table_from_analyses(
    batches: Sequence[edm.BatchAnalysis], params: DetectorParams
) -> FlagTable:
    """Apply the threshold rule to precomputed per-epoch clique analyses.

    A predictor threshold is evaluated once per batch, on its rows.
    """
    if len(batches) == 0:
        raise ValueError("detection window must have at least one epoch")
    return FlagTable(
        vertices=np.concatenate([b.cliques for b in batches]),
        voted=np.concatenate([b.fault_vertex_global() for b in batches]),
        flagged=np.concatenate([b.gamma_test > _resolve_thresholds(params, b) for b in batches]),
    )


def _greedy(table: FlagTable, n_sats: int, params: DetectorParams) -> DetectionOutcome:
    """Voting rounds until fewer than delta_nf live cliques are flagged or no
    satellite holds a delta_rf share; each other round removes the top-voted
    satellite (lowest id on ties) and drops its cliques from the live set."""
    fault_list: list[int] = []
    history: list[VoteState] = []
    alive = table.flagged.copy()
    k = table.vertices.shape[1]
    for _ in range(n_sats):
        votes = VoteState(counts=np.bincount(table.voted[alive], minlength=n_sats))
        history.append(votes)
        if votes.total < params.delta_nf or votes.ratios.max() < params.delta_rf:
            break
        removal = int(np.argmax(votes.counts))
        fault_list.append(removal)
        # A clique holds a satellite at most once, and flatnonzero ravels the
        # comparison in C order whatever the layout of vertices, so each hit
        # is one row of the table.
        alive[np.flatnonzero(table.vertices == removal) // k] = False
    return DetectionOutcome(fault_list=tuple(fault_list), vote_history=tuple(history))


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
    (analysis_floor), which solves only the cliques whose flag or vote
    it cannot decide without the eigensolver.
    """
    if len(ranges) != len(clique_lists):
        raise ValueError("clique lists and range matrices must cover the same epochs")
    thresholds = analysis_floor([params.gamma_threshold])
    batches = [
        edm.analyze_clique_batch(rm, cliques, thresholds=thresholds)
        for cliques, rm in zip(clique_lists, ranges)
    ]
    return _greedy(table_from_analyses(batches, params), len(ranges[0].r), params)


def detect_faults_from_analyses(
    table: FlagTable, params: DetectorParams, n_sats: int
) -> DetectionOutcome:
    """detect_faults on a flag table of precomputed analyses.

    Campaign runs sweep thresholds and window lengths over the same
    measurements: a trial builds one table per threshold from each
    clique's one analysis, and a shorter window is a row prefix of a
    longer one (table.rows), so no grid cell repeats an eigendecomposition
    or a threshold evaluation.
    """
    return _greedy(table, n_sats, params)
