"""Synthetic two-way inter-satellite range measurements.

This module is the one home of the range model.  Each visible pair (i, j)
yields one shared range value per epoch:

    r_ij = |x_i - x_j| + w_ij + f_i + f_j

with w_ij ~ N(0, sigma_w^2) drawn once per pair (the measurement is
two-way, so both ends see the same value) and f_k equal to the fault bias
for satellites in the fault set, zero otherwise.  The three terms are
true_ranges, pair_noise and add_bias, and measure_ranges is their sum.

pair_draws is the one home of the draw order: one value for every pair
i < j, in a fixed row-major order, regardless of visibility or fault
configuration, so a given generator state produces the same noise field
whether or not faults are injected.  pair_noise is its mirror into the
(n, n) matrix (mirror_pairs, one gather).  That makes
fault/no-fault comparisons exact and keeps parameter sweeps on the same
noise realizations; a caller that needs several fault configurations of
one epoch draws the noise once and biases it per configuration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .linkgraph import VisibilityGraph


@dataclass(frozen=True)
class FaultConfig:
    """Set of faulty satellite ids (>= 0) sharing one bias magnitude (m)."""

    fault_set: frozenset[int] = field(default_factory=frozenset)
    magnitude: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "fault_set", frozenset(self.fault_set))
        check_magnitude(self.magnitude)
        if min(self.fault_set, default=0) < 0:
            raise ValueError(f"fault satellite ids must be >= 0, got {min(self.fault_set)}")


@dataclass(frozen=True)
class RangeMatrix:
    """Symmetric measured ranges (m); zero diagonal, zero on non-edges."""

    r: np.ndarray


def check_magnitude(magnitude: float) -> None:
    """Refuse a fault bias magnitude that is negative or not finite."""
    if not (0.0 <= magnitude < math.inf):
        raise ValueError(f"fault magnitude must be >= 0 and finite, got {magnitude!r}")


def check_sigma_w(sigma_w: float) -> None:
    """Refuse a range-noise std that is negative or not finite."""
    if not (0.0 <= sigma_w < math.inf):
        raise ValueError(f"sigma_w must be >= 0 and finite, got {sigma_w!r}")


def true_ranges(positions: np.ndarray, graph: VisibilityGraph) -> np.ndarray:
    """(..., n, n) distances |x_i - x_j| of (..., n, 3) positions on the
    visible edges; zero elsewhere.  Leading axes broadcast against the
    graph's adjacency, and each slice has the bits of its own call."""
    diff = positions[..., :, None, :] - positions[..., None, :, :]
    return np.where(graph.adjacency, np.sqrt((diff**2).sum(axis=-1)), 0.0)


def pair_draws(rng: np.random.Generator, n: int, sigma_w: float, size: tuple = ()) -> np.ndarray:
    """size + (n(n-1)/2,) range noise: w_ij for every pair i < j, in
    row-major order; consecutive draws along the leading axes."""
    check_sigma_w(sigma_w)
    # A draw beyond the float range is inf, which the range rule refuses by
    # name (edm.build_edm, calibration.build_training_set).
    with np.errstate(over="ignore"):
        return rng.standard_normal(size + (n * (n - 1) // 2,)) * sigma_w


@functools.cache
def pair_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows i and columns j of the pairs i < j of an n x n matrix, in the
    row-major order of pair_draws (read-only: every call shares them)."""
    i, j = np.triu_indices(n, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


@functools.cache
def _mirror_index(n: int) -> np.ndarray:
    """(n, n) read-only table: entry (i, j) is 1 + the index of the pair
    (min(i, j), max(i, j)) in pair_rows(n), and 0 on the diagonal."""
    index = np.zeros((n, n), dtype=np.intp)
    index[pair_rows(n)] = np.arange(1, n * (n - 1) // 2 + 1)
    index += index.T
    index.setflags(write=False)
    return index


def mirror_pairs(pairs: np.ndarray, n: int) -> np.ndarray:
    """size + (n, n) symmetric matrices with zero diagonals from size +
    (n(n-1)/2,) values of the pairs i < j in row-major order: one gather,
    with slot 0 a zero for the diagonal."""
    padded = np.concatenate([np.zeros(pairs.shape[:-1] + (1,)), pairs], axis=-1)
    return padded.take(_mirror_index(n), axis=-1)


def pair_noise(rng: np.random.Generator, n: int, sigma_w: float, size: tuple = ()) -> np.ndarray:
    """size + (n, n) range noise: pair_draws mirrored; zero diagonal."""
    return mirror_pairs(pair_draws(rng, n, sigma_w, size), n)


def measure_ranges(
    positions: np.ndarray,
    graph: VisibilityGraph,
    faults: FaultConfig,
    sigma_w: float,
    rng: np.random.Generator,
) -> RangeMatrix:
    """Noisy, possibly biased ranges on the visible edges of one epoch's
    (n, 3) positions: true ranges plus one noise draw, then add_bias."""
    r = true_ranges(positions, graph) + pair_noise(rng, len(positions), sigma_w)
    return add_bias(RangeMatrix(r=r), graph, faults)


def add_bias(ranges: RangeMatrix, graph: VisibilityGraph, faults: FaultConfig) -> RangeMatrix:
    """ranges plus f_i + f_j on every visible edge; zero elsewhere.

    The bias is added in one rounding step, so biasing fault-free ranges
    gives exactly the ranges measured with the faults on the same noise:
    dist + w + f evaluates as (dist + w) + f, and adding a zero bias
    changes no range.
    """
    bias = np.zeros(len(ranges.r))
    if max(faults.fault_set, default=-1) >= len(bias):
        raise ValueError(f"fault satellite ids must be in 0 .. {len(bias) - 1}, got {max(faults.fault_set)}")
    bias[list(faults.fault_set)] = faults.magnitude
    # A bias sum beyond the float range is inf, which build_edm refuses by name.
    with np.errstate(over="ignore"):
        r = np.where(graph.adjacency, ranges.r + (bias[:, None] + bias[None, :]), 0.0)
    np.fill_diagonal(r, 0.0)
    return RangeMatrix(r=r)
