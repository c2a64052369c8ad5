"""Quadratic Casimir energies of the blocks and energy-level coarsening.

Each block carries a total energy: the sum over edges of the quadratic
Casimir eigenvalue of the edge label (charge squared for U(1), j(j+1) for
SU(2)).  Energies are kept as exact rationals so grouping blocks into
levels never depends on floating-point ties.

Merging all blocks of one energy level and summing their averaged
generators yields the same ideal as keeping blocks apart, because the
per-block projectors commute with the gauge action.  In the computation
the two are equal by construction: a block's averaged generator has
coordinates only on its own block pair, and its roundoff is cut before any
summing, so a level's summed coordinates are nonzero exactly where one of
its blocks' are.  The coarsened run therefore reports the same ideal, and
differs from the per-block run only in ``coarse`` and ``n_groups``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .blocks import BlockLabel, Truncation
from .groups import IrrepLabel
from .groups import casimir_eigenvalue as label_energy
from .ideal import DEFAULT_TOL, IdealReport, verify_ideal


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


def coarsened_verify(
    trunc: Truncation,
    n_max: int | None = None,
    tol: float = DEFAULT_TOL,
    method: str = "lie",
    band: IrrepLabel | None = None,
) -> IdealReport:
    """Run the ideal comparison with one summed generator per energy level."""
    grouping = eigenspace_grouping(trunc)
    return verify_ideal(
        trunc,
        n_max=n_max,
        tol=tol,
        method=method,
        band=band,
        sigma_groups=grouping.groups,
    )
