"""Invariant subspaces, commutants, and the compression map.

The headline oracle here is a dense one: on systems small enough to afford
it, the commutant is recomputed as the null space of full-space commutator
constraints, with no block bookkeeping at all, and must agree with the
irrep-based computation in both dimension and span.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import null_space

from gaugereduce import (
    BandError,
    BlockOperator,
    EquivariantSpace,
    GaugeElement,
    IrrepLabel,
    SpanConsistencyError,
    commutant_basis,
    invariant_basis,
    invariant_projector,
    kernel_pi_basis,
    pi_matrix,
    projector_band,
    random_point,
    rho_block,
    vertex_flux,
)
from gaugereduce.lattice import block_generators
from gaugereduce.reduction import RANK_RTOL, _invariant_columns

from .oracles import element_op, op_from_coords
from .systems import CANON, SMALL, build

# every system whose total dimension keeps the kron'd constraints small
DENSE_OK = SMALL


def dense_generators(trunc):
    """Full-space Gauss generators, assembled without block shortcuts."""
    gens = None
    for i, block in enumerate(trunc.blocks):
        for k, g in enumerate(block_generators(block)):
            if gens is None:
                gens = [
                    np.zeros((trunc.total_dim, trunc.total_dim), complex)
                    for _ in range(len(block_generators(block)))
                ]
            sl = slice(trunc.offsets[i], trunc.offsets[i + 1])
            gens[k][sl, sl] = g
    return gens


def dense_commutant_dim(trunc):
    """Oracle: null space of the stacked full-space commutator constraints."""
    gens = dense_generators(trunc)
    d = trunc.total_dim
    rows = [np.kron(g, np.eye(d)) - np.kron(np.eye(d), g.T) for g in gens]
    ns = null_space(np.vstack(rows), rcond=RANK_RTOL)
    return ns.shape[1], ns


@pytest.mark.parametrize("name", DENSE_OK)
def test_commutant_matches_dense_oracle(name):
    trunc = build(name)
    space = commutant_basis(trunc)
    dim, ns = dense_commutant_dim(trunc)
    assert space.dim == dim == CANON[name][3]
    # every basis element must lie in the dense null space's span
    proj = ns @ ns.conj().T
    for k in range(space.dim):
        vec = element_op(space, k).to_dense().ravel()
        assert np.linalg.norm(proj @ vec - vec) < 1e-9


def random_gauge(trunc, rng):
    return GaugeElement(
        trunc.graph,
        tuple(random_point(trunc.group, rng) for _ in trunc.graph.vertices),
    )


@pytest.mark.parametrize("name", ["u1-parallel-b1", "su2-loop-j2", "su2-edge-j2"])
def test_commutant_elements_commute_with_group_points(name):
    # Lie-level solutions must commute with actual finite transformations.
    trunc = build(name)
    space = commutant_basis(trunc)
    rng = np.random.default_rng(31)
    rho_blocks = None
    for _ in range(10):
        g = random_gauge(trunc, rng)
        rho_blocks = [rho_block(b, g) for b in trunc.blocks]
        for k in range(space.dim):
            i, j, m = space.elements[k]
            assert (
                np.abs(rho_blocks[i] @ m - m @ rho_blocks[j]).max() < 1e-10
            )


def test_commutant_is_orthonormal_and_star_closed():
    trunc = build("su2-loop-j2")
    space = commutant_basis(trunc)
    gram = np.zeros((space.dim, space.dim), complex)
    for a in range(space.dim):
        for b in range(space.dim):
            gram[a, b] = element_op(space, a).fro_inner(element_op(space, b))
    assert_allclose(gram, np.eye(space.dim), atol=1e-12)
    # adjoints stay inside the span
    for k in range(space.dim):
        adj = element_op(space, k).adjoint()
        w = space.coords_of(adj)
        assert abs(op_from_coords(space, w).fro_inner(adj) - 1.0) < 1e-10


@pytest.mark.parametrize("name", SMALL)
def test_projector_methods_agree(name):
    trunc = build(name)
    for block in trunc.blocks:
        lie = invariant_projector(block, "lie")
        quad = invariant_projector(block, "quadrature")
        assert np.abs(lie - quad).max() < 1e-8
        assert_allclose(lie, lie.conj().T, atol=1e-12)
        assert_allclose(lie @ lie, lie, atol=1e-10)


def test_projector_commutes_with_generators():
    trunc = build("su2-loop-j2")
    for block in trunc.blocks:
        p = invariant_projector(block, "lie")
        for g in block_generators(block):
            assert np.abs(p @ g - g @ p).max() < 1e-10
            # generators vanish on the invariant range
            assert np.abs(g @ p).max() < 1e-10


def test_u1_projector_is_flux_indicator():
    trunc = build("u1-triangle-b1")
    for block in trunc.blocks:
        flat = all(vertex_flux(block, v) == 0 for v in trunc.graph.vertices)
        p = invariant_projector(block, "lie")
        assert_allclose(p, np.eye(1) if flat else np.zeros((1, 1)), atol=1e-12)


def test_quadrature_band_too_small_is_rejected():
    trunc = build("su2-loop-j1")
    block = trunc.blocks[1]
    assert projector_band(block).degree == 1
    with pytest.raises(BandError):
        invariant_projector(block, "quadrature", band=IrrepLabel(trunc.group, 0))
    # a wider band than necessary is fine
    wide = invariant_projector(block, "quadrature", band=IrrepLabel(trunc.group, 3))
    assert np.abs(wide - invariant_projector(block, "lie")).max() < 1e-8


def test_unknown_method_is_rejected():
    trunc = build("u1-edge-b1")
    with pytest.raises(ValueError):
        invariant_projector(trunc.blocks[0], "monte-carlo")


@pytest.mark.parametrize("name", SMALL)
def test_invariant_dims_match_expectations(name):
    trunc = build(name)
    assert invariant_basis(trunc).dim == CANON[name][4]
    assert invariant_basis(trunc, method="quadrature").dim == CANON[name][4]


def test_invariant_vectors_are_killed_by_generators():
    trunc = build("su2-loop-j2")
    inv = invariant_basis(trunc)
    gens = dense_generators(trunc)
    for g in gens:
        assert np.abs(inv.vectors @ g.T).max() < 1e-10


@pytest.mark.parametrize("name", list(CANON))
def test_dimension_ledger(name):
    # dim(commutant) = dim(kernel) + dim(invariants)^2, exactly.
    trunc = build(name)
    space = commutant_basis(trunc)
    inv = invariant_basis(trunc)
    ker = kernel_pi_basis(space, inv)
    q, hk, kk = CANON[name][3], CANON[name][4], CANON[name][5]
    assert (space.dim, inv.dim, ker.dim) == (q, hk, kk)
    assert space.dim == ker.dim + inv.dim**2


def test_pi_sends_identity_to_identity():
    trunc = build("su2-loop-j2")
    space = commutant_basis(trunc)
    inv = invariant_basis(trunc)
    mat = pi_matrix(space, inv)
    w = space.coords_of(BlockOperator.identity(trunc))
    assert_allclose((mat @ w).reshape(inv.dim, inv.dim), np.eye(inv.dim), atol=1e-10)


def test_kernel_elements_compress_to_zero():
    trunc = build("u1-parallel-b1")
    space = commutant_basis(trunc)
    inv = invariant_basis(trunc)
    ker = kernel_pi_basis(space, inv)
    for row in ker.vectors:
        op = op_from_coords(space, row)
        for r in range(inv.dim):
            for s in range(inv.dim):
                val = inv.vectors[r].conj() @ op.apply(inv.vectors[s])
                assert abs(val) < 1e-10


def test_coordinate_round_trip():
    trunc = build("su2-loop-j1")
    space = commutant_basis(trunc)
    rng = np.random.default_rng(41)
    w = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    op = op_from_coords(space, w)
    assert_allclose(space.coords_of(op), w, atol=1e-12)


@pytest.mark.parametrize("name", ["u1-parallel-b1", "su2-loop-j2"])
def test_structure_maps_match_direct_products(name):
    # Dual route: the sparse product tables against literal operator
    # multiplication, on random algebra elements.
    trunc = build(name)
    space = commutant_basis(trunc)
    left, right = space.structure_maps()
    q = space.dim
    rng = np.random.default_rng(47)
    for _ in range(5):
        w = rng.normal(size=q) + 1j * rng.normal(size=q)
        op = op_from_coords(space, w)
        lw = (left @ w).reshape(q, q)
        rw = (right @ w).reshape(q, q)
        for j in rng.integers(0, q, size=4):
            bj = element_op(space, int(j))
            assert_allclose(lw[j], space.coords_of(bj @ op), atol=1e-10)
            assert_allclose(rw[j], space.coords_of(op @ bj), atol=1e-10)


def test_incomplete_basis_is_detected():
    # removing one element from a genuine commutant basis leaves products
    # unresolved, which the table construction must refuse to paper over
    trunc = build("u1-parallel-b1")
    space = commutant_basis(trunc)
    drop = next(
        k for k, (i, j, _) in enumerate(space.elements) if i != j
    )
    i, j, _ = space.elements[drop]
    victim = next(
        k for k, (a, b, _) in enumerate(space.elements) if (a, b) == (j, j)
    )
    broken = EquivariantSpace(
        trunc, [e for k, e in enumerate(space.elements) if k != victim]
    )
    with pytest.raises(SpanConsistencyError):
        broken.structure_maps()


def test_kernel_is_everything_when_no_invariants():
    # charge bound 1 on a single edge, but keep only nonzero-flux blocks by
    # hand: the compression map to a zero-dimensional space has full kernel
    trunc = build("u1-edge-b1")
    space = commutant_basis(trunc)
    empty = invariant_basis(trunc).__class__(trunc.total_dim)
    ker = kernel_pi_basis(space, empty)
    assert ker.dim == space.dim
