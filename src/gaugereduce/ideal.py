"""Averaged generator powers and the two-sided ideal they generate.

For each vertex Lie direction the truncated field algebra carries a Gauss
generator; the objects of interest are its powers conjugated by gauge
transformations and averaged over the gauge group,

    avg_n = integral of rho(k) Gamma^n rho(k)^{-1} dk.

Averaging lands in the commutant, block by block, and equals the
Frobenius-orthogonal projection onto it: two independent routes to one
element (exact Haar quadrature, projection onto the Lie-computed commutant
basis) that the tests compare.  A commutant coordinate is unchanged by
every conjugation, so the pass in ``reduction.py`` takes the projection,
and reads ``Gamma_{v,z}`` alone: by Haar invariance ``Gamma_{v,x}`` and
``Gamma_{v,y}``, its conjugates by rotations at ``v``, average to the
same.  Only ``generator_op`` and ``generator_coords`` sum conjugations.

The closure step works in commutant coordinates.  The commutant is a sum
of full matrix algebras, one per gauge irrep, and a two-sided ideal of such
an algebra is a sum of whole components (Wedderburn-Artin): the ideal
generated by a set of seeds is the sum of the components they touch.  So
the one pass over the blocks in ``reduction.py`` records only the components
each power reaches; this module keeps the spec-by-spec reference routes to
the seeds (``generator_op``, ``generator_coords``), the closure of their
coordinate rows, the ideal's mask over the components, the distances to
``ker(pi)`` and the verification that compares the two.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .blocks import BlockLabel, Truncation
from .groups import GroupId, IrrepLabel
from .lattice import VertexGenerator, gauss_generator_block
from .reduction import (
    EquivariantSpace,
    PiKernel,
    _roundoff_cut,
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


def generator_op(
    trunc: Truncation, spec: GeneratorSpec, band: IrrepLabel | None = None
) -> np.ndarray:
    """Haar average of a generator power on one block, by exact quadrature:
    the averaged ``d x d`` matrix of block ``spec.block``, by the map ``X ->
    sum_s w_s rho_v(s) X rho_v(s)^H`` once per vertex, each sum taken as the
    points of ``vertex_actions`` arrive.  A one-dimensional block conjugates
    trivially, so its band is not checked."""
    block = trunc.block(spec.block)
    gamma = gauss_generator_block(block, VertexGenerator(spec.vertex, spec.lie_index))
    gn = np.linalg.matrix_power(gamma, spec.power)
    for points in vertex_actions(block, conjugation_band(block), band) if block.dim > 1 else ():
        gn = sum(w * (rho @ gn @ rho.conj().T) for w, rho in points)
    return gn


def generator_coords(
    space: EquivariantSpace,
    spec: GeneratorSpec,
    method: str = "lie",
    band: IrrepLabel | None = None,
) -> np.ndarray:
    """Commutant coordinates of the averaged generator power.

    ``method="lie"`` exploits that averaging is the orthogonal projection
    onto the commutant: the coordinates of the average are the inner
    products of the raw power with the basis, read in the dense copy basis
    (``EquivariantSpace.bases``).  ``method="quadrature"`` reads them off
    the explicit average of ``generator_op``.  The two agree to roundoff.

    Coordinates on a component whose norm there is at most ``RANK_RTOL``
    times the Frobenius norm of the raw power are roundoff and are set to
    zero, so a power that averages to zero on a component leaves it alone.
    """
    i, block = spec.block, space.trunc.block(spec.block)
    gamma = gauss_generator_block(block, VertexGenerator(spec.vertex, spec.lie_index))
    u = space.bases[i]
    if method not in ("lie", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    gn = np.linalg.matrix_power(u.conj().T @ gamma @ u, spec.power)
    avg = gn if method == "lie" else u.conj().T @ generator_op(space.trunc, spec, band) @ u
    comps, read = own_elements(space.copies[i])
    norm = np.sqrt(np.vdot(gn, gn).real)  # Frobenius
    out = np.zeros(space.dim, dtype=complex)
    out[space.by_pair[(i, i)]] = _roundoff_cut(comps, read(avg), norm)
    return out


class IdealMask:
    """A two-sided ideal of the commutant, as a sum of whole components:
    ``mask[c]`` is set when component ``c``, of ``sizes[c]**2`` elements, lies
    in the ideal."""

    def __init__(self, mask: np.ndarray, sizes: np.ndarray):
        self.mask, self.sizes = mask, sizes

    @property
    def dim(self) -> int:
        return sum(n * n for n in self.sizes[self.mask].tolist())


def ideal_closure(
    space: EquivariantSpace, seeds: np.ndarray, start: IdealMask | None = None
) -> IdealMask:
    """Two-sided ideal generated by the seed coordinate rows.

    It is the sum of the commutant components on which some seed row has a
    nonzero coordinate, together with the already-closed ``start``.
    """
    rows = np.asarray(seeds).reshape(-1, space.dim)
    touched = np.zeros(len(space.sizes), dtype=bool)
    touched[space.components[rows.any(axis=0)]] = True
    return IdealMask(touched if start is None else touched | start.mask, space.sizes)


def subspace_distance(ideal: IdealMask, kernel: PiKernel) -> float:
    """Operator-norm distance between the orthogonal projectors: exactly 1
    when the dimensions differ, otherwise the sine of the largest principal
    angle (Bjorck and Golub, Math. Comp. 27, 1973), which is the spectral
    norm of the kernel's complement on the ideal's coordinates.  Its rows are
    orthonormal and lie in one component: that is 1 if the ideal holds it."""
    if ideal.dim != kernel.dim:
        return 1.0
    return float(kernel.rank > 0 and ideal.mask[kernel.component])


def containment_residual(ideal: IdealMask, kernel: PiKernel) -> float:
    """Largest norm of an ideal basis element off the kernel: ``sqrt(sum_kept
    |w_ap|^2 |w_bt|^2)``, over ``b < pairs[a]`` a prefix sum, for element ``(p,
    t)`` of the kernel's component, and zero for every other element."""
    if kernel.rank == 0 or not ideal.mask[kernel.component]:
        return 0.0
    weight = np.zeros((len(kernel.rows), ideal.sizes[kernel.component]))  # the rows' |w|^2
    for a, (lo, v) in enumerate(kernel.rows):
        weight[a, lo : lo + len(v)] = np.abs(v) ** 2
    return float(np.sqrt((weight.T @ np.cumsum(weight, axis=0)[kernel.pairs - 1]).max()))


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
    final_ideal: IdealMask | None = field(default=None, repr=False)


def default_n_max(trunc: Truncation) -> int:
    """The largest block's dimension: the bound's label on every edge."""
    return trunc.bound.dim ** (2 * len(trunc.graph.edges))


def verify_ideal(
    trunc: Truncation,
    n_max: int | None = None,
    tol: float = DEFAULT_TOL,
    method: str = "lie",
    band: IrrepLabel | None = None,
) -> IdealReport:
    """Compare the kernel of the invariant compression with the averaged
    generator ideal, power by power up to ``n_max``: the components each power
    reaches.  They are cumulative, so the ideal grows only where they change;
    every other row repeats the one before it, with nothing recomputed."""
    t0 = time.perf_counter()
    if n_max is None:
        n_max = default_n_max(trunc)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    space, inv, support = reduce_blocks(trunc, method, n_max, band)
    kernel = kernel_pi_basis(space, inv)
    rows = []
    grew = np.r_[True, (support[1:] != support[:-1]).any(axis=1)]
    for n in range(1, n_max + 1):
        if n <= len(support) and grew[n - 1]:  # past its last row, nothing grows
            ideal = IdealMask(support[n - 1], space.sizes)
            row = ideal.dim, containment_residual(ideal, kernel), subspace_distance(ideal, kernel)
        rows.append(IdealRow(n, *row))
    passed = rows[-1].distance <= tol and all(r.containment_residual <= tol for r in rows)
    return IdealReport(
        group=trunc.group,
        bound=trunc.bound.value,
        n_max=n_max,
        method=method,
        tolerance=tol,
        dim_total=trunc.total_dim,
        n_blocks=len(trunc.labels),
        dim_hk=inv.dim,
        dim_ak=space.dim,
        dim_ker_pi=kernel.dim,
        rows=tuple(rows),
        passed=passed,
        seconds=time.perf_counter() - t0,
        final_ideal=ideal,
    )
