"""Averaged generator powers and the two-sided ideal they generate.

For each vertex Lie direction the truncated field algebra carries a Gauss
generator; the objects of interest are its powers conjugated by gauge
transformations and averaged over the gauge group,

    avg_n = integral of rho(k) Gamma^n rho(k)^{-1} dk.

Averaging lands in the commutant, block by block, and equals the
Frobenius-orthogonal projection onto it; that gives two independent routes
to the same element (exact Haar quadrature versus projection onto the
Lie-computed commutant basis) which the tests compare.

The closure step works in commutant coordinates.  The commutant is a sum
of full matrix algebras, one per gauge irrep, and a two-sided ideal of such
an algebra is a sum of whole components (Wedderburn-Artin): the ideal
generated by a set of seeds is the sum of the components they touch.
Roundoff is cut once, where the seed coordinates are computed, relative to
the size of the generator power they come from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .blocks import BlockLabel, Truncation
from .blockop import BlockOperator
from .groups import GroupId, IrrepLabel, lie_dim
from .lattice import VertexGenerator, gauss_generator_block, rho_block
from .reduction import (
    RANK_RTOL,
    BandError,
    EquivariantSpace,
    SubspaceBasis,
    _gauge_scheme,
    commutant_basis,
    invariant_basis,
    kernel_pi_basis,
)

# Norm below which a seed row counts as zero.  The library no longer
# decides with it; the benchmark's replay counts live seeds with it.
MINIMUM_SEED = 1e-12


@dataclass(frozen=True)
class GeneratorSpec:
    """One averaged generator power, restricted to one block."""

    block: int
    vertex: str
    lie_index: int
    power: int


def conjugation_band(block: BlockLabel) -> IrrepLabel:
    """Smallest per-vertex band that averages conjugation on this block.

    Conjugating puts the block action on both sides of the generator, so
    the degree count of the projector doubles: the band must cover the full
    summed label degree at the busiest vertex.
    """
    group = block.labels[0].group
    worst = 0
    for v in block.graph.vertices:
        total = 0
        for e, as_src, as_tgt in block.graph.incidences(v):
            total += block.label_for(e.id).degree * (int(as_src) + int(as_tgt))
        worst = max(worst, total)
    return IrrepLabel(group, worst)


def _raw_power(trunc: Truncation, spec: GeneratorSpec) -> np.ndarray:
    block = trunc.blocks[spec.block]
    gamma = gauss_generator_block(block, VertexGenerator(spec.vertex, spec.lie_index))
    return np.linalg.matrix_power(gamma, spec.power)


def generator_op(
    trunc: Truncation, spec: GeneratorSpec, band: IrrepLabel | None = None
) -> BlockOperator:
    """Haar average of a generator power on one block, by exact quadrature.

    One-dimensional blocks conjugate trivially, so the power itself is
    returned; otherwise the gauge group is swept with a scheme wide enough
    for the conjugated action.
    """
    block = trunc.blocks[spec.block]
    gn = _raw_power(trunc, spec)
    if block.dim == 1:
        return BlockOperator.from_pair(trunc, spec.block, spec.block, gn)
    need = conjugation_band(block)
    if band is None:
        band = need
    elif band.degree < need.degree:
        raise BandError(need, band)
    out = np.zeros((block.dim, block.dim), dtype=complex)
    for w, g in _gauge_scheme(block.graph, trunc.group, band):
        rho = rho_block(block, g)
        out += w * (rho @ gn @ rho.conj().T)
    return BlockOperator.from_pair(trunc, spec.block, spec.block, out)


def generator_coords(
    space: EquivariantSpace,
    spec: GeneratorSpec,
    method: str = "lie",
    band: IrrepLabel | None = None,
) -> np.ndarray:
    """Commutant coordinates of the averaged generator power.

    ``method="lie"`` exploits that averaging is the orthogonal projection
    onto the commutant: the coordinates of the average are the inner
    products of the raw power with the basis.  ``method="quadrature"``
    averages explicitly first.  The two agree to quadrature accuracy.

    Coordinates on a component whose norm there is at most ``RANK_RTOL``
    times the Frobenius norm of the raw power are roundoff and are set to
    zero, so a power that averages to zero on a component leaves it alone.
    """
    trunc = space.trunc
    gn = _raw_power(trunc, spec)
    if method == "lie":
        avg = BlockOperator.from_pair(trunc, spec.block, spec.block, gn)
    elif method == "quadrature":
        avg = generator_op(trunc, spec, band=band)
    else:
        raise ValueError(f"unknown method {method!r}")
    coords = space.coords_of(avg)
    weight = np.bincount(
        space.components, np.abs(coords) ** 2, minlength=len(space.irreps)
    )
    roundoff = np.sqrt(weight) <= RANK_RTOL * np.linalg.norm(gn)
    coords[roundoff[space.components]] = 0
    return coords


def ideal_closure(
    space: EquivariantSpace, seeds: np.ndarray, start: SubspaceBasis | None = None
) -> SubspaceBasis:
    """Two-sided ideal generated by the seed coordinate rows.

    It is the sum of the commutant components on which some seed row, or a
    vector of the already-closed ``start``, has a nonzero coordinate.
    """
    q = space.dim
    rows = np.asarray(seeds).reshape(-1, q)
    if start is not None:
        rows = np.vstack([rows, start.vectors])
    touched = np.zeros(len(space.irreps), dtype=bool)
    touched[space.components[rows.any(axis=0)]] = True
    keep = np.flatnonzero(touched[space.components])
    basis = np.zeros((keep.size, q), dtype=complex)
    basis[np.arange(keep.size), keep] = 1.0
    return SubspaceBasis(q, basis)


def subspace_distance(u: SubspaceBasis, v: SubspaceBasis) -> float:
    """Operator-norm distance between the orthogonal projectors."""
    if u.dim == 0 and v.dim == 0:
        return 0.0
    n = u.ambient_dim
    pu = u.vectors.conj().T @ u.vectors if u.dim else np.zeros((n, n))
    pv = v.vectors.conj().T @ v.vectors if v.dim else np.zeros((n, n))
    return float(np.max(np.abs(np.linalg.eigvalsh(pu - pv))))


def containment_residual(inner: SubspaceBasis, outer: SubspaceBasis) -> float:
    """Largest leftover norm when projecting the inner basis on the outer."""
    if inner.dim == 0:
        return 0.0
    rest = outer.project_out(inner.vectors)
    return float(np.max(np.linalg.norm(rest, axis=1)))


@dataclass(frozen=True)
class IdealRow:
    n: int
    dim_ideal: int
    containment_residual: float
    distance: float


@dataclass(frozen=True)
class IdealReport:
    group: GroupId
    bound: int
    n_max: int
    method: str
    tolerance: float
    coarse: bool
    n_groups: int
    dim_total: int
    n_blocks: int
    dim_hk: int
    dim_ak: int
    dim_ker_pi: int
    rows: tuple[IdealRow, ...]
    passed: bool
    seconds: float
    block_labels: tuple[tuple[int, ...], ...] = field(default=())
    final_ideal: SubspaceBasis | None = field(default=None, repr=False)
    kernel: SubspaceBasis | None = field(default=None, repr=False)


def default_n_max(trunc: Truncation) -> int:
    return max(trunc.dims)


def verify_ideal(
    trunc: Truncation,
    n_max: int | None = None,
    tol: float = 1e-8,
    method: str = "lie",
    band: IrrepLabel | None = None,
    sigma_groups: tuple[tuple[int, ...], ...] | None = None,
) -> IdealReport:
    """Compare the kernel of the invariant compression with the averaged
    generator ideal, power by power up to ``n_max``.

    ``sigma_groups`` optionally merges blocks: each group contributes one
    summed generator per vertex direction and power instead of one per
    block.  The resulting ideal is unchanged because the block projectors
    themselves commute with the gauge action.
    """
    t0 = time.perf_counter()
    if n_max is None:
        n_max = default_n_max(trunc)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    space = commutant_basis(trunc)
    inv = invariant_basis(trunc, method=method)
    kernel = kernel_pi_basis(space, inv)
    groups = (
        sigma_groups
        if sigma_groups is not None
        else tuple((i,) for i in range(len(trunc.blocks)))
    )
    coarse = sigma_groups is not None
    rows = []
    ideal = None
    for n in range(1, n_max + 1):
        seeds = []
        for members in groups:
            for v in trunc.graph.vertices:
                for a in range(lie_dim(trunc.group)):
                    w = np.zeros(space.dim, dtype=complex)
                    for i in members:
                        w += generator_coords(
                            space,
                            GeneratorSpec(i, v, a, n),
                            method=method,
                            band=band,
                        )
                    seeds.append(w)
        seeds = np.array(seeds) if seeds else np.zeros((0, space.dim), complex)
        ideal = ideal_closure(space, seeds, start=ideal)
        rows.append(
            IdealRow(
                n=n,
                dim_ideal=ideal.dim,
                containment_residual=containment_residual(ideal, kernel),
                distance=subspace_distance(ideal, kernel),
            )
        )
    last = rows[-1]
    passed = last.distance <= tol and last.containment_residual <= tol
    return IdealReport(
        group=trunc.group,
        bound=trunc.bound.value,
        n_max=n_max,
        method=method,
        tolerance=tol,
        coarse=coarse,
        n_groups=len(groups),
        dim_total=trunc.total_dim,
        n_blocks=len(trunc.blocks),
        dim_hk=inv.dim,
        dim_ak=space.dim,
        dim_ker_pi=kernel.dim,
        rows=tuple(rows),
        passed=passed,
        seconds=time.perf_counter() - t0,
        block_labels=tuple(
            tuple(lab.value for lab in b.labels) for b in trunc.blocks
        ),
        final_ideal=ideal,
        kernel=kernel,
    )
