"""Synthetic two-way inter-satellite range measurements.

Each visible pair (i, j) yields one shared range value per epoch:

    r_ij = |x_i - x_j| + w_ij + f_i + f_j

with w_ij ~ N(0, sigma_w^2) drawn once per pair (the measurement is
two-way, so both ends see the same value) and f_k equal to the fault bias
for satellites in the fault set, zero otherwise.

Noise is drawn for every pair i < j in a fixed row-major order regardless
of visibility or fault configuration, so a given generator state produces
the same noise field whether or not faults are injected.  That makes
fault/no-fault comparisons exact and keeps parameter sweeps on the same
noise realizations.  measure_ranges is that noise draw followed by
add_bias, so a caller that needs several fault configurations of one
epoch draws the noise once and biases it per configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linkgraph import VisibilityGraph


@dataclass(frozen=True)
class FaultConfig:
    """Set of faulty satellite ids sharing one bias magnitude (m)."""

    fault_set: frozenset[int] = field(default_factory=frozenset)
    magnitude: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "fault_set", frozenset(self.fault_set))
        if self.magnitude < 0.0:
            raise ValueError("fault magnitude must be >= 0")


@dataclass(frozen=True)
class RangeMatrix:
    """Symmetric measured ranges (m); zero diagonal, zero on non-edges."""

    r: np.ndarray


def measure_ranges(
    positions: np.ndarray,
    graph: VisibilityGraph,
    faults: FaultConfig,
    sigma_w: float,
    rng: np.random.Generator,
) -> RangeMatrix:
    """Noisy, possibly biased ranges on the visible edges of one epoch's
    (n, 3) positions: one noise draw, then add_bias."""
    if sigma_w < 0.0:
        raise ValueError("sigma_w must be >= 0")
    n = positions.shape[0]

    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))

    w = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    w[iu] = rng.standard_normal(iu[0].size) * sigma_w
    w += w.T
    return add_bias(RangeMatrix(r=np.where(graph.adjacency, dist + w, 0.0)), graph, faults)


def add_bias(ranges: RangeMatrix, graph: VisibilityGraph, faults: FaultConfig) -> RangeMatrix:
    """ranges plus f_i + f_j on every visible edge; zero elsewhere.

    The bias is added in one rounding step, so biasing fault-free ranges
    gives exactly the ranges measured with the faults on the same noise:
    dist + w + f evaluates as (dist + w) + f, and adding a zero bias
    changes no range.
    """
    bias = np.zeros(len(ranges.r))
    bias[list(faults.fault_set)] = faults.magnitude
    r = np.where(graph.adjacency, ranges.r + (bias[:, None] + bias[None, :]), 0.0)
    np.fill_diagonal(r, 0.0)
    return RangeMatrix(r=r)
