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
noise realizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constellation import PositionSet
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

    @staticmethod
    def none() -> "FaultConfig":
        return FaultConfig(frozenset(), 0.0)


@dataclass(frozen=True)
class RangeMatrix:
    """Symmetric measured ranges (m); zero diagonal, zero on non-edges."""

    r: np.ndarray


def measure_ranges(
    positions: PositionSet,
    graph: VisibilityGraph,
    faults: FaultConfig,
    sigma_w: float,
    rng: np.random.Generator,
) -> RangeMatrix:
    """Noisy, possibly biased ranges on the visible edges of one epoch."""
    if sigma_w < 0.0:
        raise ValueError("sigma_w must be >= 0")
    pos = positions.positions
    n = pos.shape[0]

    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))

    w = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    w[iu] = rng.standard_normal(iu[0].size) * sigma_w
    w += w.T

    bias = np.zeros(n)
    for k in faults.fault_set:
        bias[k] = faults.magnitude
    f = bias[:, None] + bias[None, :]

    r = np.where(graph.adjacency, dist + w + f, 0.0)
    np.fill_diagonal(r, 0.0)
    return RangeMatrix(r=r)
