"""Quadratic Casimir energies of the blocks and their energy levels.

Each block carries a total energy: the sum over edges of the quadratic
Casimir eigenvalue of the edge label (charge squared for U(1), j(j+1) for
SU(2)).  Energies are kept as exact rationals so grouping blocks into
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

from .blocks import BlockLabel, Truncation
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
    by_energy: dict[Fraction, list[int]] = {}
    for i, block in enumerate(trunc.blocks):
        by_energy.setdefault(block_energy(block), []).append(i)
    energies = tuple(sorted(by_energy))
    groups = tuple(tuple(by_energy[e]) for e in energies)
    dims = tuple(sum(trunc.dims[i] for i in g) for g in groups)
    return EnergyGrouping(energies, groups, dims)
