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
evaluated on the observed subgraph's singular-value features.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Sequence

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
    gamma_threshold : fixed scalar threshold (any real number, numpy
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
    rounds: int
    vote_history: tuple[VoteState, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class _FlagTable:
    """Per-clique analysis cached for re-tallying across rounds.

    Rows cover every clique of every epoch in the window (epochs
    concatenated).  vertices is (m, k) global satellite ids; voted is the
    global id each clique would vote for; flagged marks gamma > threshold.
    """

    vertices: np.ndarray
    voted: np.ndarray
    flagged: np.ndarray


def is_scalar_threshold(threshold: object) -> bool:
    """True for a fixed threshold, False for a per-subgraph predictor."""
    return isinstance(threshold, numbers.Real)


def _resolve_thresholds(params: DetectorParams, batch: edm.BatchAnalysis) -> np.ndarray:
    thr = params.gamma_threshold
    if is_scalar_threshold(thr):
        return np.full(len(batch.cliques), float(thr))
    # Predictor mode: features come from the observed analyses (the first
    # three singular values and vectors are nearly noise-invariant).
    # Imported here so the module-level dependency stays one-directional.
    from .calibration import batch_features

    return np.asarray(thr.predict(batch_features(batch)), dtype=float).reshape(-1)


def table_from_analyses(
    batches: Sequence[edm.BatchAnalysis], params: DetectorParams
) -> _FlagTable:
    """Apply the threshold rule to precomputed per-epoch clique analyses."""
    if len(batches) == 0:
        raise ValueError("detection window must have at least one epoch")
    return _FlagTable(
        vertices=np.concatenate([b.cliques for b in batches]),
        voted=np.concatenate([b.fault_vertex_global() for b in batches]),
        flagged=np.concatenate([b.gamma_test > _resolve_thresholds(params, b) for b in batches]),
    )


def _tally(table: _FlagTable, removed: Sequence[int], n_sats: int, params: DetectorParams):
    """One voting round on the cached table.  Returns (VoteState, removal or None).

    A removal of None means terminate: either fewer than delta_nf cliques
    were flagged in total, or no satellite collected a delta_rf share of
    the votes.  Ties on the top vote count go to the lowest satellite id.
    """
    alive = table.flagged.copy()
    for s in removed:
        alive &= ~np.any(table.vertices == s, axis=1)
    counts = np.bincount(table.voted[alive], minlength=n_sats)
    votes = VoteState(counts=counts)
    total = votes.total
    if total < params.delta_nf:
        return votes, None
    if counts.max() / total < params.delta_rf:
        return votes, None
    return votes, int(np.argmax(counts))


def _greedy(table: _FlagTable, n_sats: int, params: DetectorParams) -> DetectionOutcome:
    fault_list: list[int] = []
    history: list[VoteState] = []
    for _ in range(n_sats):
        votes, removal = _tally(table, fault_list, n_sats, params)
        history.append(votes)
        if removal is None:
            break
        fault_list.append(removal)
    return DetectionOutcome(
        fault_list=tuple(fault_list),
        rounds=len(history),
        vote_history=tuple(history),
    )


def detect_faults(
    clique_lists: Sequence[np.ndarray],
    ranges: Sequence[RangeMatrix],
    params: DetectorParams,
) -> DetectionOutcome:
    """Greedy removal loop over one detection window.

    clique_lists ((m, k) arrays) and ranges are aligned per epoch;
    measurements are generated once per epoch by the caller and
    re-examined unchanged after each removal.  Terminates in at most
    n_sats rounds.
    """
    if len(ranges) != len(clique_lists):
        raise ValueError("clique lists and range matrices must cover the same epochs")
    batches = [
        edm.analyze_clique_batch(rm, cliques)
        for cliques, rm in zip(clique_lists, ranges)
    ]
    return _greedy(table_from_analyses(batches, params), len(ranges[0].r), params)


def detect_faults_from_analyses(
    batches: Sequence[edm.BatchAnalysis],
    params: DetectorParams,
    n_sats: int,
) -> DetectionOutcome:
    """detect_faults on precomputed per-epoch analyses.

    Campaign runs sweep thresholds and window lengths over the same
    measurements; analyzing each epoch's cliques once and re-tallying here
    avoids repeating identical SVDs per grid cell.
    """
    return _greedy(table_from_analyses(batches, params), n_sats, params)
