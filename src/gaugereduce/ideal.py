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
generated by a set of seeds is the sum of the components they touch, held
as a boolean mask over the coordinates.  Roundoff is cut once, where the
seed coordinates are computed, relative to the size of the generator power
they come from.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .blocks import BlockLabel, Truncation
from .groups import GroupId, IrrepLabel
from .lattice import VertexGenerator, gauss_generator_block
from .reduction import (
    RANK_RTOL,
    EquivariantSpace,
    PiKernel,
    kernel_pi_basis,
    own_elements,
    reduce_blocks,
    vertex_actions,
    vertex_degree,
)

# Norm below which a seed row counts as zero.  The library no longer
# decides with it; the benchmark's replay counts live seeds with it.
MINIMUM_SEED = 1e-12

# Default acceptance tolerance: a run passes when the final ideal's
# distance to the kernel, and the containment residual at every power, are
# at most this.
DEFAULT_TOL = 1e-8


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
    return IrrepLabel(block.group, vertex_degree(block))


def _averaging_actions(block: BlockLabel, basis: np.ndarray, method: str, band) -> list:
    """Per-vertex actions, in the block's copy basis ``basis``, that average
    conjugation: none for ``method="lie"``, which reads the average off the
    raw power, nor for a one-dimensional block, which conjugates trivially."""
    if method not in ("lie", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method == "lie" or block.dim == 1:
        return []
    actions = vertex_actions(block, conjugation_band(block), band)
    return [(weights, basis.conj().T @ rho @ basis) for weights, rho in actions]


def _conjugation_average(gn: np.ndarray, actions) -> np.ndarray:
    """Haar average of ``rho(k) gn rho(k)^-1``: the map
    ``X -> sum_s w_s rho_v(s) X rho_v(s)^H`` applied once per vertex."""
    for weights, rho in actions:
        gn = np.tensordot(weights, rho @ gn @ rho.conj().transpose(0, 2, 1), 1)
    return gn


def generator_op(
    trunc: Truncation, spec: GeneratorSpec, band: IrrepLabel | None = None
) -> np.ndarray:
    """Haar average of a generator power on one block, by exact quadrature:
    the averaged ``d x d`` matrix of block ``spec.block``."""
    block = trunc.blocks[spec.block]
    gamma = gauss_generator_block(block, VertexGenerator(spec.vertex, spec.lie_index))
    actions = [] if block.dim == 1 else vertex_actions(block, conjugation_band(block), band)
    return _conjugation_average(np.linalg.matrix_power(gamma, spec.power), actions)


def _roundoff_cut(comps: np.ndarray, coords, norms) -> np.ndarray:
    """The roundoff cut of ``generator_coords`` on one block: the last axis
    of ``coords`` runs over the block's own elements, of components
    ``comps``, and ``norms`` holds the raw powers' Frobenius norms over the
    leading axes."""
    weight = np.abs(coords) ** 2 @ (comps[:, None] == comps)  # per component
    coords[np.sqrt(weight) <= RANK_RTOL * norms[..., None]] = 0
    return coords


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
    i, block = spec.block, space.trunc.blocks[spec.block]
    gamma = gauss_generator_block(block, VertexGenerator(spec.vertex, spec.lie_index))
    u = space.bases[i]
    gn = np.linalg.matrix_power(u.conj().T @ gamma @ u, spec.power)
    avg = _conjugation_average(gn, _averaging_actions(block, u, method, band))
    comps, read = own_elements(space.copies[i])
    norm = np.sqrt(np.vdot(gn, gn).real)  # Frobenius
    out = np.zeros(space.dim, dtype=complex)
    out[space.by_pair[(i, i)]] = _roundoff_cut(comps, read(avg), norm)
    return out


def _block_seeds(block: BlockLabel | None, gens, basis, copies, n_max: int, method: str, band):
    """Seed supports on one block's ``own_elements``: entry ``(n - 1, k)`` is
    set when the averaged ``n``-th power of some generator in ``gens``,
    stepped as ``Gamma^(n-1) Gamma`` in the copy basis, has a nonzero
    coordinate ``k``.  The block is cut in one pass.  Each stepped power is
    rescaled by a power of two taken from its Frobenius norm: the cut
    compares quantities of one scale, so every decision is unchanged, and no
    power overflows.

    With ``block=None``, ``gens`` holds the ``(n_blocks, V*L)`` scalar
    generators of one-dimensional blocks, and entry ``b`` of the result is
    block ``b``'s ``(n_max, 1)`` support: a scalar power is its own average
    and its own coordinate, and it is zero exactly when the scalar is."""
    if block is None:
        return np.repeat(gens.any(axis=1)[:, None, None], n_max, axis=1)
    comps, read = own_elements(copies)
    coords = np.zeros((len(gens), n_max, len(comps)), dtype=complex)
    norms = np.zeros((len(gens), n_max))
    actions = _averaging_actions(block, basis, method, band)
    uh = basis.conj().T
    for d, gamma in enumerate(gens):
        gamma = gn = uh @ gamma @ basis
        for n in range(n_max):
            if n:
                gn = np.ldexp(1.0, -np.frexp(norms[d, n - 1])[1]) * gn @ gamma
            coords[d, n] = read(_conjugation_average(gn, actions))
            norms[d, n] = np.sqrt(np.vdot(gn, gn).real)  # Frobenius
    return (_roundoff_cut(comps, coords, norms) != 0).any(axis=0)


def reduce_with_seeds(trunc: Truncation, n_max: int, method: str = "lie", band=None):
    """The commutant, the invariant subspace and the seed supports, from one
    pass over the blocks.  Entry ``(n - 1, k)`` of the supports is set when
    some ``GeneratorSpec(i, v, a, n)`` has a nonzero coordinate ``k``."""
    seeds = functools.partial(_block_seeds, n_max=n_max, method=method, band=band)
    space, inv, own = reduce_blocks(trunc, invariants=method, seeds=seeds)
    support = np.zeros((n_max, space.dim), dtype=bool)
    support[:, [k for i in range(len(own)) for k in space.by_pair[(i, i)]]] = np.hstack(own)
    return space, inv, support


class IdealMask:
    """A two-sided ideal of the commutant, as a sum of whole components:
    ``mask[k]`` is set when basis element ``k`` lies in the ideal."""

    def __init__(self, mask: np.ndarray):
        self.mask = mask

    @property
    def dim(self) -> int:
        return int(np.count_nonzero(self.mask))


def ideal_closure(
    space: EquivariantSpace, seeds: np.ndarray, start: IdealMask | None = None
) -> IdealMask:
    """Two-sided ideal generated by the seed coordinate rows.

    It is the sum of the commutant components on which some seed row has a
    nonzero coordinate, together with the already-closed ``start``.
    """
    rows = np.asarray(seeds).reshape(-1, space.dim)
    touched = np.zeros(len(space.irreps), dtype=bool)
    touched[space.components[rows.any(axis=0)]] = True
    mask = touched[space.components]
    return IdealMask(mask if start is None else mask | start.mask)


def subspace_distance(ideal: IdealMask, kernel: PiKernel) -> float:
    """Operator-norm distance between the orthogonal projectors: exactly 1
    when the dimensions differ, otherwise the sine of the largest principal
    angle (Bjorck and Golub, Math. Comp. 27, 1973), which is the spectral
    norm of the kernel's complement on the ideal's coordinates."""
    if ideal.dim != kernel.dim:
        return 1.0
    block = kernel.complement[:, ideal.mask]
    return float(np.linalg.norm(block, 2)) if block.size else 0.0


def containment_residual(ideal: IdealMask, kernel: PiKernel) -> float:
    """Largest norm of an ideal basis element off the kernel."""
    block = kernel.complement[:, ideal.mask]
    return float(np.linalg.norm(block, axis=0).max()) if block.size else 0.0


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
    dim_total: int
    n_blocks: int
    dim_hk: int
    dim_ak: int
    dim_ker_pi: int
    rows: tuple[IdealRow, ...]
    passed: bool
    seconds: float
    block_labels: tuple[tuple[int, ...], ...] = field(default=())
    final_ideal: IdealMask | None = field(default=None, repr=False)


def default_n_max(trunc: Truncation) -> int:
    return max(trunc.dims)


def verify_ideal(
    trunc: Truncation,
    n_max: int | None = None,
    tol: float = DEFAULT_TOL,
    method: str = "lie",
    band: IrrepLabel | None = None,
) -> IdealReport:
    """Compare the kernel of the invariant compression with the averaged
    generator ideal, power by power up to ``n_max``."""
    t0 = time.perf_counter()
    if n_max is None:
        n_max = default_n_max(trunc)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    space, inv, support = reduce_with_seeds(trunc, n_max, method, band)
    kernel = kernel_pi_basis(space, inv)
    rows = []
    ideal = None
    for n, seeds in enumerate(support, 1):
        ideal = ideal_closure(space, seeds, start=ideal)
        rows.append(
            IdealRow(
                n=n,
                dim_ideal=ideal.dim,
                containment_residual=containment_residual(ideal, kernel),
                distance=subspace_distance(ideal, kernel),
            )
        )
    passed = rows[-1].distance <= tol and all(r.containment_residual <= tol for r in rows)
    return IdealReport(
        group=trunc.group,
        bound=trunc.bound.value,
        n_max=n_max,
        method=method,
        tolerance=tol,
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
    )
