"""Quadratic Casimir energies of the blocks and their energy levels.

Each block carries a total energy: the sum over edges of the quadratic
Casimir eigenvalue of the edge label (charge squared for U(1), j(j+1) for
SU(2)).  Energies are exact: integers ``n^2`` or ``2j (2j + 2)`` summed
over the label array, then rationals, one per level, so grouping blocks into
levels never depends on floating-point ties.

Merging all blocks of one energy level and summing their averaged
generators yields the same ideal as keeping blocks apart, because the
per-block projectors commute with the gauge action.  The grouping is
therefore only a label on the one verification: ``spectrum`` and
``verify --coarse`` report it next to the per-block ideal.  The tests check
the claim against an oracle that sums each level's coordinates before it
cuts roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .blocks import BlockLabel, Truncation
from .groups import GroupId
from .groups import casimir_eigenvalue as label_energy


def block_energy(block: BlockLabel) -> Fraction:
    return sum((label_energy(lab) for lab in block.labels), Fraction(0))


@dataclass(frozen=True)
class EnergyGrouping:
    """Blocks of a truncation partitioned by total energy, ascending."""

    energies: tuple[Fraction, ...]
    groups: tuple[tuple[int, ...], ...]
    dims: tuple[int, ...]

    @property
    def n_levels(self) -> int:
        return len(self.energies)


def eigenspace_grouping(trunc: Truncation) -> EnergyGrouping:
    v, scale = trunc.labels, 1 if trunc.group is GroupId.U1 else 4
    scaled = (v * v if scale == 1 else v * (v + 2)).sum(axis=1)  # n^2, or 2j (2j + 2)
    levels, which = np.unique(scaled, return_inverse=True)
    members = np.split(np.argsort(which, kind="stable"), np.cumsum(np.bincount(which))[:-1])
    energies = tuple(Fraction(n, scale) for n in levels.tolist())
    groups = tuple(tuple(g.tolist()) for g in members)
    return EnergyGrouping(energies, groups, tuple(int(trunc.dims[g].sum()) for g in members))
