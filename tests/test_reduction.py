"""Invariant subspaces, commutants, and the compression map.

The headline oracle here is a dense one: on systems small enough to afford
it, the commutant is recomputed as the null space of full-space commutator
constraints, with no block bookkeeping at all, and must agree with the
irrep-based computation in both dimension and span.
"""

import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import null_space

from gaugereduce import (
    BandError,
    EquivariantSpace,
    GaugeElement,
    Graph,
    InvariantSpace,
    IrrepLabel,
    commutant_basis,
    invariant_basis,
    invariant_projector,
    kernel_pi_basis,
    projector_band,
    random_point,
    rho_block,
    verify_ideal,
    vertex_flux,
)
from gaugereduce.blocks import kron_chain
from gaugereduce.groups import irrep_generator
from gaugereduce.ideal import IdealMask
from gaugereduce.lattice import block_generators, lie_directions
from gaugereduce.reduction import (
    RANK_RTOL,
    _incidence,
    _null_columns,
    _contract,
    _copies,
    _table,
    _vertex_split,
    own_elements,
    reduce_blocks,
)

from .oracles import (
    DenseSpace,
    SpanConsistencyError,
    complement_parts,
    complement_rows,
    coords_of,
    coords_of_matrix,
    dense_pi_matrix,
    dense_space,
    element_matrix,
    element_op,
    haar_projector,
    invariant_columns,
    invariant_rows,
    isotypic_copies,
    op_from_coords,
    overlap_norms,
    pair_commutant,
    per_block_kernel,
    per_block_pass,
    product_projector,
    stepped_rows,
    stepped_supports,
    touched_components,
    written_out,
)
from .systems import (
    CANON,
    SMALL,
    SU2,
    U1,
    build,
    edgeless_graph,
    isolated_vertex_graph,
    k4_graph,
    loops_and_parallels,
    loop_graph,
    make,
    parallel_graph,
    theta_graph,
    triangle_graph,
)

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
        vec = element_op(space, k).ravel()
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
            i, j, m = element_matrix(space, k)
            assert (
                np.abs(rho_blocks[i] @ m - m @ rho_blocks[j]).max() < 1e-10
            )


def test_commutant_is_orthonormal_and_star_closed():
    trunc = build("su2-loop-j2")
    space = commutant_basis(trunc)
    gram = np.zeros((space.dim, space.dim), complex)
    for a in range(space.dim):
        for b in range(space.dim):
            gram[a, b] = np.vdot(element_op(space, a), element_op(space, b))
    assert_allclose(gram, np.eye(space.dim), atol=1e-12)
    # adjoints stay inside the span
    for k in range(space.dim):
        adj = element_op(space, k).conj().T
        w = coords_of_matrix(space, adj)
        assert abs(np.vdot(op_from_coords(space, w), adj) - 1.0) < 1e-10


@pytest.mark.parametrize("name", SMALL)
def test_projector_methods_agree(name):
    trunc = build(name)
    for block in trunc.blocks:
        lie = invariant_projector(block, "lie")
        quad = invariant_projector(block, "quadrature")
        assert np.abs(lie - quad).max() < 1e-8
        assert_allclose(lie, lie.conj().T, atol=1e-12)
        assert_allclose(lie @ lie, lie, atol=1e-10)


@pytest.mark.parametrize(
    "trunc",
    [make(parallel_graph(), SU2, 1), build("u1-triangle-b1")],
    ids=["su2-parallel-b1", "u1-triangle-b1"],
)
def test_vertex_by_vertex_projector_equals_product_scheme(trunc):
    # the library averages over one vertex at a time; the oracle sweeps
    # every tuple of per-vertex points at once
    for block in trunc.blocks:
        want = product_projector(block, projector_band(block))
        got = invariant_projector(block, "quadrature")
        assert_allclose(got, want, rtol=0, atol=1e-12)


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
    with pytest.raises(ValueError, match="unknown method 'monte-carlo'"):
        reduce_blocks(trunc, "monte-carlo")


@pytest.mark.parametrize("name", list(CANON) + ["u1-loops-and-parallels"])
def test_band_error_names_the_first_short_block(name):
    # the pass checks every block's band from the label array at once; the
    # error must name the band of the first block, in block order, that needs
    # more than the given one, as a check block by block does
    trunc = make(loops_and_parallels(), U1, 2) if name not in CANON else build(name)
    need, h = [projector_band(block) for block in trunc.blocks], invariant_basis(trunc).dim
    for b in range(max(n.degree for n in need) + 1):
        band = IrrepLabel(trunc.group, b)
        short = [n for n in need if n.degree > b]
        if not short:
            assert reduce_blocks(trunc, "quadrature", band=band)[1].dim == h
            continue
        with pytest.raises(BandError) as err:
            reduce_blocks(trunc, "quadrature", band=band)
        assert str(err.value) == str(BandError(short[0], band))


def test_short_band_is_refused_before_the_scalar_generators(monkeypatch):
    # the band is checked from the label array before the pass builds its
    # largest array, the generators of every one-dimensional block: their
    # weights, read through the signed incidence that the check's unsigned
    # one shares its code with
    def boom(graph, source, target):
        if (source, target) != (1, 1):
            raise AssertionError("scalar generators built before the band check")
        return _incidence(graph, source, target)

    monkeypatch.setattr("gaugereduce.reduction._incidence", boom)
    for trunc in (make(k4_graph(), U1, 2), build("su2-loop-j1")):
        with pytest.raises(BandError):
            reduce_blocks(trunc, "quadrature", band=IrrepLabel(trunc.group, 0))


def test_quadrature_without_a_band_skips_the_band_sweep(monkeypatch):
    # with no band given each vertex averages at its own, so no block can be
    # short and the degree sweep over the label array is never run; the
    # counts equal those of the null spaces
    def boom(graph, labels):
        raise AssertionError("band sweep run without a band")

    def counts(report):
        return report.dim_hk, report.dim_ker_pi, [r.dim_ideal for r in report.rows], report.passed

    truncs = (make(k4_graph(), U1, 2), build("su2-loop-j1"))
    want = [counts(verify_ideal(trunc, n_max=2)) for trunc in truncs]
    monkeypatch.setattr("gaugereduce.reduction.vertex_degrees", boom)
    for trunc, lie in zip(truncs, want):
        assert counts(verify_ideal(trunc, n_max=2, method="quadrature")) == lie


def test_dimensions_sum_squares_without_wrapping():
    # three components of 2^32 copies each hold 3 * 2^64 elements, which an
    # int64 sum of the squares wraps to 0; su2 K4 j <= 5 (461,761 cells, the
    # largest of 42,486,075 copies) would wrap past 2^63 without an error
    sizes = np.full(3, 2**32, dtype=np.int64)
    assert EquivariantSpace(None, None, np.arange(3), sizes, None).dim == 3 * 2**64
    assert IdealMask(np.array([True, False, True]), sizes).dim == 2 * 2**64


@pytest.mark.parametrize("shape", [(12, 5), (5, 12), (7, 7)])
@pytest.mark.parametrize("scale", [1.0, 1e-13, 1e8])
def test_null_columns_match_scipy_null_space(shape, scale):
    # rank-deficient by two, at scales where an absolute cut would differ
    rng = np.random.default_rng(71)
    m, n = shape
    r = min(m, n) - 2
    a = (rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))) @ rng.normal(size=(r, n))
    got = _null_columns(scale * a)
    want = null_space(scale * a, rcond=RANK_RTOL)
    assert got.shape == want.shape == (n, n - r)
    assert_allclose(got @ got.conj().T, want @ want.conj().T, rtol=0, atol=1e-10)


def seed_grid(small, second):
    """The components two synthetic vertices' tables reach, joined by one
    edge of one label: at the first, two one-column copies (irrep 0) each
    trace ``small`` against a power of norm 1 and a three-column copy (irrep
    2) traces 1; the second holds one copy of each irrep in ``second`` and
    reads nothing.  The splits hold, per distinct irrep, the copies'
    ``|trace|^2 / dim`` summed: 2 small^2 for irrep 0, 1 / 3 for irrep 2."""
    first = {"values": np.array([0, 2]), "mult": np.array([2, 1])}
    first.update(seedw=np.array([[2 * small**2, 1 / 3]]), norms=np.ones(1), lams=np.array([0, 0, 2]))
    values = np.array(second)
    other = {"values": values, "mult": np.ones(len(values), dtype=int)}
    other.update(seedw=np.zeros((1, len(values))), norms=np.ones(1), lams=values)
    for split in (first, other):  # no invariant
        split.update(at=np.repeat(np.arange(len(split["mult"])), split["mult"]), inv=np.zeros((5, 0)))
        split["overlaps"] = np.zeros((0, len(split["lams"])))
    first, other = _table([first], [0], (1,), 3), _table([other], [0], (1,), values.max() + 1)
    # the second vertex's power reaches nothing
    assert not (_contract([first["share"], other["seed"][0]], [[0], [0]], np.maximum) > 0).any()
    return _contract([first["seed"][0], other["share"]], [[0], [0]], np.maximum) > RANK_RTOL**2


@pytest.mark.parametrize("small,reached", [(0.8e-10, True), (0.6e-10, False)])
def test_block_seeds_cut_each_component_by_its_norm(small, reached):
    # the second vertex holds one two-column copy.  So the block has copies
    # of 2, 2 and 6 columns, the two of component (0, 1) trace sqrt(2) small
    # each, and the power's norm is sqrt(10 / 5): component (0, 1) is reached
    # when 2 small passes sqrt(2) RANK_RTOL, though neither trace does
    got = seed_grid(small, [1])
    assert got.shape == (3, 2)
    assert np.array_equal(got[[0, 2], 1], [reached, True])
    assert not got[:, 0].any() and not got[1].any()


@pytest.mark.parametrize("small,reached", [(1.3e-10, True), (1.1e-10, False)])
def test_block_seeds_weigh_the_other_vertices_copies(small, reached):
    # the second vertex holds a two- and a four-column copy (irreps 1 and 3),
    # so the block has 30 columns and the power's norm is sqrt(30 / 5): the
    # two copies of component (0, 1), of 2 columns each, trace sqrt(2) small
    # each, and it is reached when 2 small passes sqrt(6) RANK_RTOL.  A cut
    # on the first vertex alone would reach it at both values
    got = seed_grid(small, [1, 3])
    assert got.shape == (3, 4)
    assert np.array_equal(got[0, [1, 3]], [reached, True]) and got[2, [1, 3]].all()
    assert not got[:, [0, 2]].any() and not got[1].any()


@pytest.mark.parametrize(
    "trunc,steps",
    [(make(loop_graph(), SU2, 2), 5), (make(k4_graph(), SU2, 1), 4), (make(triangle_graph(), U1, 1), 1)],
    ids=["su2-loop-b2", "su2-k4-b1", "u1-triangle-b1"],
)
def test_seed_supports_stop_at_the_last_power_that_can_grow(trunc, steps):
    # verify's default n_max is the largest block dimension, 531,441 on su2
    # K4 j <= 1, but past a split's number of distinct Gamma_z eigenvalues
    # (the largest 2j at a vertex, plus 1) no power reaches a new component,
    # and a U(1) power reaches at n = 1 all it ever will.  So the supports
    # stop there, and verify repeats the last row for every later power
    space, _, support = reduce_blocks(trunc, n_max=10**6)
    assert support.shape == (steps, len(space.sizes))
    report = verify_ideal(trunc, n_max=steps + 30)
    rows = [(r.dim_ideal, r.containment_residual, r.distance) for r in report.rows]
    assert len(rows) == steps + 30 and rows[steps:] == [rows[steps - 1]] * 30


@pytest.mark.parametrize("loops", [1, 2])
def test_split_sums_its_copies_traces_per_irrep(loops):
    # on one vertex with loops a block is its vertex's E_v, index for index,
    # so Gamma_z read in the block's copy basis, the split's, is diagonal; per
    # distinct irrep, seedw is the sum over its copies of |trace|^2 / dim of
    # Gamma_z's powers scaled by its largest eigenvalue, and norms are the
    # powers' norms
    graph = Graph(("x",), [(f"l{k}", "x", "x") for k in range(loops)])
    trunc = make(graph, SU2, 2)
    space = commutant_basis(trunc)
    for i in range(len(trunc.dims)):
        (split,) = space.splits(i)
        u, lams = space.bases[i], split["lams"]
        assert np.array_equal(split["values"][split["at"]], lams)
        assert np.array_equal(split["mult"], np.bincount(split["at"]))
        eig = np.diagonal(u.conj().T @ block_generators(trunc.blocks[i])[2] @ u)
        eig = eig / np.abs(eig).max(initial=np.finfo(float).tiny)
        powers = eig ** np.arange(1, len(split["norms"]) + 1)[:, None]
        traces = np.add.reduceat(powers, np.cumsum(lams + 1) - lams - 1, axis=1)
        per_copy = np.abs(traces) ** 2 / (lams + 1)
        want = np.array([per_copy[:, lams == lam].sum(axis=1) for lam in split["values"]]).T
        assert_allclose(split["seedw"], want, rtol=1e-12, atol=1e-14)
        assert_allclose(split["norms"], np.linalg.norm(powers, axis=1), rtol=1e-12)


def assert_one_dim_blocks_match_null_space(trunc, n_max=3):
    """The pass reads every one-dimensional block off one array of scalar
    generators.  Block by block, from the block's own generators, the copy
    split and copy basis must be those of the dense ``isotypic_copies``, and
    the seed rows those ``stepped_supports`` steps; the pass's support must hold
    the component of every row set and, a one-dimensional block's component
    being its own, miss it at every power where no row is set, and the block
    must keep its invariant vector exactly when the null-space rule on its
    stacked generators (``_null_columns``, which ``invariant_columns``
    applies) does."""
    space, inv, support = reduce_blocks(trunc, n_max=n_max)
    support = written_out(support, n_max)
    rows = invariant_rows(trunc, inv)
    alone = space.sizes == 1  # components with no other block to set them
    for i, block in enumerate(trunc.blocks):
        if block.dim > 1:
            continue
        gens = block_generators(block)
        u, split, _ = isotypic_copies(block, gens)
        assert [(space.irreps[c], cols) for c, cols in space.copies[i]] == split
        assert np.array_equal(space.bases[i], u)
        want = stepped_supports(gens, u, space.copies[i], n_max)
        (c, _), = space.copies[i]
        assert support[:, [c]][want].all()
        if alone[c]:
            assert np.array_equal(support[:, [c]], want)
        # a kept block's invariant row is its basis vector, entry exactly 1
        kept = rows[:, trunc.offsets[i]]
        want = _null_columns(np.vstack(gens))
        assert np.array_equal(kept[kept != 0], np.abs(want[0]))


ONE_DIM_CASES = {
    "su2-triangle-b1": (triangle_graph, SU2, 1),
    "su2-loops-and-parallels": (loops_and_parallels, SU2, 1),
    "u1-loops-and-parallels": (loops_and_parallels, U1, 1),
    "su2-isolated-vertex": (isolated_vertex_graph, SU2, 1),
    "u1-isolated-vertex": (isolated_vertex_graph, U1, 2),
    "su2-edgeless": (edgeless_graph, SU2, 1),
    "u1-edgeless": (edgeless_graph, U1, 1),
}


@pytest.mark.parametrize("name", list(CANON) + list(ONE_DIM_CASES))
def test_one_dim_blocks_match_null_space(name):
    if name in CANON:
        trunc = build(name)
    else:
        graph, group, bound = ONE_DIM_CASES[name]
        trunc = make(graph(), group, bound)
    assert_one_dim_blocks_match_null_space(trunc)


@pytest.mark.parametrize("name", SMALL)
def test_invariant_dims_match_expectations(name):
    trunc = build(name)
    assert invariant_basis(trunc).dim == CANON[name][4]
    assert invariant_basis(trunc, method="quadrature").dim == CANON[name][4]


def test_invariant_vectors_are_killed_by_generators():
    trunc = build("su2-loop-j2")
    rows = invariant_rows(trunc, invariant_basis(trunc))
    gens = dense_generators(trunc)
    for g in gens:
        assert np.abs(rows @ g.T).max() < 1e-10


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
    mat = dense_pi_matrix(space, inv)
    w = coords_of_matrix(space, np.eye(trunc.total_dim))
    assert_allclose((mat @ w).reshape(inv.dim, inv.dim), np.eye(inv.dim), atol=1e-10)


def test_kernel_elements_compress_to_zero():
    trunc = build("u1-parallel-b1")
    space = commutant_basis(trunc)
    inv = invariant_basis(trunc)
    ker = kernel_pi_basis(space, inv)
    rows = invariant_rows(trunc, inv)
    null = null_space(complement_rows(space.sizes, ker))
    assert null.shape[1] == ker.dim
    for row in null.T:
        op = op_from_coords(space, row)
        for r in range(inv.dim):
            for s in range(inv.dim):
                val = rows[r].conj() @ op @ rows[s]
                assert abs(val) < 1e-10


def invariant_space(space, columns):
    """An ``InvariantSpace`` that holds the given columns of every block, and
    their overlaps with the weight-zero columns of ``space``, which
    ``kernel_pi_basis`` reads."""
    counts = np.array([c.shape[1] for c in columns], dtype=int)
    zeros = zip(columns, space.weight_zero)
    overlaps = {i: c[w].conj().T @ z for i, (c, (w, z)) in enumerate(zeros)}
    factors = {i: (o,) for i, o in overlaps.items()}
    norms = overlap_norms(space, overlaps)
    out = InvariantSpace(space.trunc, space.splits, counts, factors.__getitem__, norms)
    out.columns = columns
    return out


def phased(space):
    """The same commutant with a complex phase on each copy, so on the matrix
    units between copies: on the copy's columns in the dense basis and on its
    weight-zero column alike."""
    zeros, bases = [], []
    for i, u in enumerate(space.bases):
        ph = np.exp(0.3j * (i + 2 * np.arange(len(space.copies[i])) + 1))
        rows, z = space.weight_zero[i]
        zeros.append((rows, z * ph))
        bases.append(u * np.repeat(ph, [c.stop - c.start for _, c in space.copies[i]]))
    parts = space.grid, space.cells, space.sizes, space.scalar, space.tables
    out = EquivariantSpace(space.trunc, *parts)
    out.weight_zero, out.bases = zeros, bases
    return out


@pytest.mark.parametrize("name", ["u1-parallel-b1", "su2-loop-j2", "su2-edge-j2"])
def test_pi_matrix_compresses_each_element(name):
    # overlaps with the copy bases against each dense element compressed
    # directly, and the kernel's complement, read off the weight-zero
    # overlaps, spans the row space of those compressions; the phases make
    # the overlaps complex
    trunc = build(name)
    space = phased(commutant_basis(trunc))
    inv = invariant_space(space, invariant_basis(trunc).columns)
    rows = invariant_rows(trunc, inv)
    want = np.array(
        [(rows.conj() @ element_op(space, k) @ rows.T).ravel() for k in range(space.dim)]
    ).T
    assert_allclose(dense_pi_matrix(space, inv), want, rtol=0, atol=1e-12)
    assert_kernel_spans_the_row_space(space, inv, want)


def test_coordinate_round_trip():
    trunc = build("su2-loop-j1")
    space = commutant_basis(trunc)
    # coordinates are conjugate-linear in the elements
    rng = np.random.default_rng(41)
    for basis in (space, phased(space), dense_space(phased(space))):
        w = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        op = op_from_coords(basis, w)
        assert_allclose(coords_of_matrix(basis, op), w, atol=1e-12)


# SMALL and two multi-vertex SU(2) systems, whose blocks hold several copies
OWN_CASES = [build(k) for k in SMALL] + [
    make(parallel_graph(), SU2, 1),
    make(triangle_graph(), SU2, 1),
]
OWN_IDS = SMALL + ["su2-parallel-b1", "su2-triangle-b1"]


@pytest.mark.parametrize("trunc", OWN_CASES, ids=OWN_IDS)
def test_own_elements_follow_the_space(trunc):
    # the one pass over the blocks reads a block's own coordinates before the
    # space exists; they must land on by_pair[(i, i)], in that order
    space = commutant_basis(trunc)
    rng = np.random.default_rng(43)
    for i, d in enumerate(trunc.dims):
        own = space.by_pair[(i, i)]
        comps, read = own_elements(space.copies[i])
        assert np.array_equal(comps, space.components[own])
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        u = space.bases[i]
        assert_allclose(read(u.conj().T @ m @ u), coords_of(space, i, i, m)[own], atol=1e-12)


@pytest.mark.parametrize("trunc", OWN_CASES, ids=OWN_IDS)
def test_conjugation_leaves_own_coordinates_alone(trunc):
    # a matrix unit commutes with every gauge transformation, so each own
    # coordinate of rho Gamma^n rho^H is that of Gamma^n: the pass reads the
    # seeds of the averaged powers off the raw powers, for either method
    space = commutant_basis(trunc)
    rng = np.random.default_rng(47)
    points = [random_gauge(trunc, rng) for _ in range(3)]
    for i, block in enumerate(trunc.blocks):
        u = space.bases[i]
        _, read = own_elements(space.copies[i])
        rhos = [u.conj().T @ rho_block(block, g) @ u for g in points]
        for gamma in block_generators(block):
            gn = np.eye(block.dim)
            for _ in range(3):
                gn = gn @ (u.conj().T @ gamma @ u)
                want = read(gn)
                for rho in rhos:
                    got = read(rho @ gn @ rho.conj().T)
                    assert np.abs(got - want).max() <= 1e-12 * np.linalg.norm(gn)


def column_eigenvalues(space, i):
    """Per vertex, the eigenvalue ``-i mu_v / 2`` of ``Gamma_{v,z}`` on each
    column of the copy basis of block ``i``, of dimension above one: within
    a copy of irrep ``lam``, ``mu`` runs over ``prod_v range(lam_v, -lam_v -
    1, -2)``, vertex 0 slowest."""
    lams = [space.irreps[c] for c, _ in space.copies[i]]
    mus = [mu for lam in lams for mu in product(*(range(s, -s - 1, -2) for s in lam))]
    return -0.5j * np.array(mus, dtype=float).T


def minimal_degrees(space):
    """Per block, the degree the pass steps the generators at each vertex
    to: the number of distinct eigenvalues it reads there, one on a
    one-dimensional block."""
    one = np.zeros((len(space.trunc.graph.vertices), 1))
    eigs = [column_eigenvalues(space, i) if d > 1 else one for i, d in enumerate(space.trunc.dims)]
    return [np.array([len(set(lam.tolist())) for lam in eig]) for eig in eigs]


def assert_powers_stop_at_the_minimal_polynomial(trunc):
    """On every block of dimension above one, ``Gamma_{v,z}`` is diagonal in
    the copy basis, with the eigenvalues the pass reads on its diagonal, and
    the copies' normalised traces of their powers, the coordinates the pass
    reads, are the dense powers' on every element ``(a, a)``; on an element
    ``(a, b != a)`` between two copies of one irrep the dense coordinate is
    roundoff.  The degree the pass steps each generator at a vertex to is its
    number of distinct eigenvalues, and the next power lies in the span of
    the powers up to it."""
    space = commutant_basis(trunc)
    for i, (block, degree) in enumerate(zip(trunc.blocks, minimal_degrees(space))):
        if block.dim == 1:
            continue
        gens = block_generators(block)
        u, eig = space.bases[i], column_eigenvalues(space, i)
        _, read = own_elements(space.copies[i])
        a, b = np.array([space.elements[k][1::2] for k in space.by_pair[(i, i)]]).T
        starts, sizes = zip(*((c.start, c.stop - c.start) for _, c in space.copies[i]))
        nl = len(lie_directions(block))
        for v, (k, lam) in enumerate(zip(degree, eig)):
            gz = u.conj().T @ gens[v * nl + nl - 1] @ u
            assert np.abs(gz - np.diag(lam)).max() <= 1e-12 * np.linalg.norm(gz)
            gn = gz
            for n in range(1, k + 2):
                traces = np.add.reduceat(lam**n, starts) / np.sqrt(sizes)
                got, bound = read(gn), 1e-12 * np.linalg.norm(gn)
                assert np.abs(got[a == b] - traces[a[a == b]]).max() <= bound
                assert np.abs(got[a != b]).max(initial=0.0) <= bound
                gn = gn @ gz
            for gamma in gens[v * nl : (v + 1) * nl]:
                assert np.unique(np.round(np.linalg.eigvals(gamma), 8)).size == k
                powers = [gamma]
                for _ in range(k):
                    powers.append(powers[-1] @ gamma)
                span = np.column_stack([p.ravel() for p in powers[:k]])
                norms = np.linalg.norm(span, axis=0)
                span /= np.where(norms > 0, norms, 1.0)  # a zero generator stays zero
                top = powers[k].ravel()
                x = np.linalg.lstsq(span, top, rcond=None)[0]
                assert np.linalg.norm(span @ x - top) <= 1e-10 * np.linalg.norm(top)


def assert_supports_are_running_union(trunc, n_max=None):
    """The pass's seed supports are the running union of the per-power
    supports of every power up to ``n_max`` (by default three past the
    largest minimal-polynomial degree), which the oracle steps one by one.

    At each vertex the oracle's rows are the same for every Lie direction,
    which a gauge rotation there carries to one another; the pass reads the
    last one only.  The pass records only the components a power reaches,
    so its rows are compared with the components the oracle's touch."""
    if n_max is None:
        n_max = max(int(d.max(initial=1)) for d in minimal_degrees(commutant_basis(trunc))) + 3
    space, _, support = reduce_blocks(trunc, n_max=n_max)
    for i, block in enumerate(trunc.blocks):
        gens, nl = block_generators(block), len(lie_directions(block))
        u, copies = space.bases[i], space.copies[i]
        for v in range(0, len(gens), nl):  # the generators at one vertex
            rows = [stepped_supports(gens[[d]], u, copies, n_max) for d in range(v, v + nl)]
            assert all(np.array_equal(rows[0], r) for r in rows[1:])
    want = np.logical_or.accumulate(stepped_rows(space, n_max))
    assert support.shape[1] == len(space.irreps)
    assert np.array_equal(written_out(support, n_max), touched_components(space, want))


def assert_graded_route_matches_dense_oracles(trunc):
    """Block by block, the pass's factored route against the dense routes
    over the whole block (``oracles.py``), by what does not depend on the
    basis chosen within a component: the same irreps, each as often, the
    same projector onto each irrep's copies, the same weight-zero indices,
    and both invariant projectors equal to the dense ones, the null space of
    the whole generator stack and the Haar projector over the whole block,
    to 1e-12.  The weight-zero column the pass keeps of each copy is exactly
    that copy's column of weight zero in the lazily built copy basis (zero
    if it has none), those columns are an orthonormal basis of ``W_0`` to
    1e-12, and by both methods the kernel's complement spans the row space
    of the dense overlaps' ``dense_pi_matrix``
    (``assert_kernel_spans_the_row_space``)."""
    space, inv, _ = reduce_blocks(trunc)
    for i, (block, (dense, want, _, zero)) in enumerate(zip(trunc.blocks, per_block_pass(trunc))):
        u, (rows, z) = space.bases[i], space.weight_zero[i]
        split = [(space.irreps[c], cols) for c, cols in space.copies[i]]
        assert sorted(lam for lam, _ in split) == sorted(lam for lam, _ in want)
        for lam in dict.fromkeys(lam for lam, _ in split):
            got, ref = ([m[:, c] for k, c in p if k == lam] for m, p in [(u, split), (dense, want)])
            got, ref = np.hstack(got), np.hstack(ref)
            assert_allclose(got @ got.conj().T, ref @ ref.conj().T, rtol=0, atol=1e-12)
        assert sorted(rows) == zero.tolist()
        weights = column_eigenvalues(space, i) if block.dim > 1 else np.array(split[0][:1]).T
        at_zero = ~weights.any(axis=0)  # the columns of weight zero
        has = []
        for a, (_, cols) in enumerate(space.copies[i]):
            k = cols.start + np.flatnonzero(at_zero[cols])
            assert k.size <= 1
            has.append(k.size == 1)
            assert np.array_equal(z[:, a], u[rows, k[0]] if k.size else np.zeros(len(rows)))
        live = z[:, has]
        assert live.shape == (len(rows), len(rows))
        assert_allclose(live.conj().T @ live, np.eye(len(rows)), rtol=0, atol=1e-12)
    assert_kernel_matches_dense_pi(trunc)
    for block in trunc.blocks:
        gens = block_generators(block)
        v = invariant_columns(gens)
        assert_allclose(invariant_projector(block, "lie"), v @ v.conj().T, rtol=0, atol=1e-12)
        got = invariant_projector(block, "quadrature")
        assert_allclose(got, haar_projector(block), rtol=0, atol=1e-12)


def assert_kernel_spans_the_row_space(space, inv, mat, atol=1e-12):
    """The kernel's complement, written out over the commutant
    (``complement_rows``), spans the row space of the matrix ``mat`` of
    ``pi``, cut by the rank rule: its projector equals that of the SVD's
    rows to ``atol``.  The dropped components' bound ``delta`` is at most
    1e-12 of the largest singular value, and the smallest kept product of
    singular values is at least 100 times the cut.  Return the kernel."""
    kernel = kernel_pi_basis(space, inv)
    rows = complement_rows(space.sizes, kernel)
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    ref = vh[: np.count_nonzero(s > RANK_RTOL * s[0])]
    assert kernel.rank == ref.shape[0]
    assert_allclose(rows @ rows.conj().T, np.eye(kernel.rank), rtol=0, atol=1e-12)
    # equal ranks, so the projectors' distance is the part of ref off rows
    assert np.linalg.norm(ref - (ref @ rows.conj().T) @ rows, 2) <= atol
    assert kernel.delta <= 1e-12 * s[0]
    assert kernel.margin >= 100
    return kernel


def assert_kernel_matches_dense_pi(trunc):
    """``assert_kernel_spans_the_row_space`` of ``dense_pi_matrix``, with the
    invariants found by either method."""
    for method in ("lie", "quadrature"):
        space, inv, _ = reduce_blocks(trunc, method)
        assert_kernel_spans_the_row_space(space, inv, dense_pi_matrix(space, inv))


@pytest.mark.parametrize("name", ["su2-triangle-j1", "su2-theta-j1"])
def test_frontier_kernel_matches_dense_pi(name):
    assert_kernel_matches_dense_pi(build(name))


@pytest.mark.parametrize("name", ["u1-parallel-b1", "su2-loop-j2", "su2-theta-b1"])
def test_kernel_keeps_pairs_by_their_product(name):
    # invariant columns rescaled by 1 and 1e-6 in turn: the overlaps' singular
    # values are those scales, pi's are their products, and the rank rule keeps
    # the pairs 1 * 1 and 1 * 1e-6 and drops 1e-6 * 1e-6, which a rule on the
    # overlaps' own singular values would keep or drop whole.  The kept rows
    # span the dense matrix's row space cut the same way, to the roundoff over
    # the gap 1e-6 that the dense SVD's singular vectors carry (Wedin)
    trunc = make(theta_graph(), SU2, 1) if name == "su2-theta-b1" else build(name)
    space, inv, _ = reduce_blocks(trunc)
    scales = iter(np.resize([1.0, 1e-6], inv.dim))
    columns = [c * np.fromiter(scales, float, c.shape[1]) for c in inv.columns]
    scaled = invariant_space(space, columns)
    mat = dense_pi_matrix(space, scaled)
    kernel = assert_kernel_spans_the_row_space(space, scaled, mat, atol=1e-8)
    small = np.count_nonzero(np.resize([False, True], inv.dim))
    assert kernel.rank == inv.dim**2 - small**2


@pytest.mark.parametrize("name", ["u1-parallel-b1", "su2-loop-j2", "su2-theta-j1"])
def test_kernel_merges_unequal_blocks(name):
    # each block's invariant columns scaled by its own 10^-3.5, 1 or 10^-7.5,
    # the first two blocks out of descending order: the blocks' singular
    # values differ, so the rank rule keeps a pair of them across blocks
    # (1 * 10^-7.5) and drops one (10^-3.5 * 10^-7.5).  The per-block SVDs,
    # merged, give the dense route's component, rank, margin and complement
    # (``per_block_kernel``), and span the dense matrix's row space
    trunc = build(name)
    space, inv, _ = reduce_blocks(trunc)
    held = np.flatnonzero(inv.counts)
    assert len(held) >= 3
    scales = dict(zip(held.tolist(), np.resize(10.0 ** np.array([-3.5, 0, -7.5]), len(held))))
    columns = [c * scales.get(i, 1.0) for i, c in enumerate(inv.columns)]
    scaled = invariant_space(space, columns)
    kernel = assert_kernel_spans_the_row_space(space, scaled, dense_pi_matrix(space, scaled), 1e-8)
    each = np.repeat([scales.get(i, 1.0) for i in range(len(columns))], inv.counts)
    assert kernel.rank == np.count_nonzero(np.outer(each, each) > RANK_RTOL * each.max() ** 2)
    assert kernel.rank < inv.dim**2
    want = per_block_kernel(space, scaled)
    assert (kernel.component, kernel.rank) == (want.component, want.rank)
    assert np.isclose(kernel.margin, want.margin, rtol=1e-9, atol=0)
    m = space.sizes[kernel.component]
    got, want = complement_parts(kernel, m), complement_parts(want, m)
    assert got.keys() == want.keys()
    for n, (q, p) in got.items():
        assert_allclose(q, want[n][0], rtol=0, atol=1e-8)
        assert_allclose(p, want[n][1], rtol=0, atol=1e-8)


@pytest.mark.parametrize(
    "graph,group,bound",
    [(triangle_graph, U1, 2), (theta_graph, SU2, 2), (k4_graph, SU2, 2)],
    ids=["u1-triangle-b2", "su2-theta-j1", "su2-k4-b2"],
)
def test_kernel_takes_one_svd_per_block(monkeypatch, graph, group, bound):
    # the kernel's SVDs are one per block that holds copies of the kept
    # component, each its invariants by those copies: no SVD spans two blocks
    space, inv, _ = reduce_blocks(make(graph(), group, bound))
    shapes, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: shapes.append(a.shape) or svd(a, **kw))
    kernel = kernel_pi_basis(space, inv)
    runs = Counter(i for i, _ in space.held_by(kernel.component))
    assert sorted(shapes) == sorted((int(inv.counts[i]), n) for i, n in runs.items())
    assert kernel.rank == inv.dim**2


def test_kernel_refuses_a_second_component():
    # su2 loop j1's m = 0 spin-1 state lies in W_0 but is not invariant; with
    # it among the invariant vectors, pi sees two components, its kernel is
    # no single Kronecker square, and the pass refuses it
    trunc = build("su2-loop-j1")
    space, inv, _ = reduce_blocks(trunc)
    rows, z = space.weight_zero[1]
    a = next(a for a, (c, _) in enumerate(space.copies[1]) if space.irreps[c] == (2,))
    extra = np.zeros((trunc.dims[1], 1), dtype=complex)
    extra[rows, 0] = z[:, a]
    bad = invariant_space(space, [inv.columns[0], np.hstack([inv.columns[1], extra])])
    assert bad.dim == inv.dim + 1
    with pytest.raises(RuntimeError, match=r"on component \d+ and .* on component \d+"):
        kernel_pi_basis(space, bad)


def test_verify_holds_no_square_of_the_invariants_and_no_copy_basis():
    # su2 K4 j <= 5/2 has h = 1,479 invariants.  The kernel reads its kept
    # pairs off the sorted singular values a run of rows at a time, so its
    # traced peak stays below one h x h float64 array (16.7 MiB); and a
    # cached split keeps its copies' weight-zero columns, not their copy
    # basis, so the splits the vertex tables hold stay below 4 MiB
    space, inv, _ = reduce_blocks(make(k4_graph(), SU2, 5))
    assert inv.dim == 1479
    tracemalloc.start()
    try:
        kernel = kernel_pi_basis(space, inv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kernel.rank == inv.dim**2
    assert peak < 8 * inv.dim**2
    held = {id(s): s for t in space.tables for s in t["splits"].flat}
    assert sum(part.nbytes for s in held.values() for part in s.values()) < 4 * 2**20
    assert not any("basis" in s for s in held.values())


def test_highest_weight_count_is_checked(monkeypatch):
    # each copy is found by its anchor, a right singular vector of J_+ from
    # W_mu to W_{mu+2}, so J_+ must have full rank there; an SVD that lost a
    # value would turn a copy of lam > mu into one of mu, so the pass refuses
    # it.  The cache of splits is emptied first, so the pattern is split
    # again, and after, so that no split made with the short SVD outlives
    # the test
    svd = np.linalg.svd

    def short(a, *args, **kwargs):  # the smallest singular value lost
        u, s, vh = svd(a, *args, **kwargs)
        return u, np.where(np.arange(len(s)) < len(s) - 1, s, 0.0), vh

    monkeypatch.setattr(np.linalg, "svd", short)
    _vertex_split.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=r"J_\+ has rank 0 on W_0, not 1"):
            reduce_blocks(make(loop_graph(), SU2, 1))
    finally:
        _vertex_split.cache_clear()


@pytest.mark.parametrize(
    "ends,lams", [(((2, 1),) * 3, [0, 2, 2, 2, 4, 4, 6]), (((1, 1),) * 3, [1, 1, 3])]
)
def test_copies_take_one_svd(monkeypatch, ends, lams):
    # three spin-1 ends hold irreps 0, 2, 4 and 6 (1, 3, 2 and 1 copies),
    # three spin-1/2 ends irreps 1 and 3.  Every copy's anchor on W_mu is a
    # right singular vector of one SVD of J_+ from W_mu to W_{mu+2}, by
    # ascending value, so J_- J_+ = (lam (lam + 2) - mu (mu + 2)) / 4 there;
    # no null space is taken per irrep
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
    got, anchors, w, up, _, _ = _copies(SU2, ends)
    assert len(calls) == 1 and got.tolist() == lams
    mu = got[0] % 2
    a = up[w == mu + 2][:, w == mu] @ anchors
    want = np.diag((got * (got + 2) - mu * (mu + 2)) / 4)
    assert_allclose(a.conj().T @ a, want, rtol=0, atol=1e-12)
    assert_allclose(anchors.conj().T @ anchors, np.eye(len(got)), rtol=0, atol=1e-12)


ASSEMBLY_CASES = {k: build(k) for k in SMALL if CANON[k][1] is SU2} | {
    "su2-theta-b1": make(theta_graph(), SU2, 1),
    "su2-loops-and-parallels": make(loops_and_parallels(), SU2, 1),
    "su2-isolated-vertex": make(isolated_vertex_graph(), SU2, 1),
    "su2-reversed-edge-b2": make(Graph(("x", "y"), [("e", "y", "x")]), SU2, 2),
}


@pytest.mark.parametrize("name", list(ASSEMBLY_CASES))
def test_copies_carry_the_irrep_generators(name):
    # a block's copy basis is assembled from its vertices' splits, a
    # Kronecker product placed into the block's own index order.  It is
    # unitary, and every Gamma_{v,a} of block_generators, read in it, is zero
    # between copies and, on a copy of irrep lam, the irrep generator of
    # lam_v at v, tensored with the identity at every other vertex.  A source
    # end left unconjugated, or an edge's row and column digits swapped,
    # would break it
    trunc = ASSEMBLY_CASES[name]
    space = commutant_basis(trunc)
    for i, block in enumerate(trunc.blocks):
        u, gens = space.bases[i], block_generators(block)
        assert_allclose(u.conj().T @ u, np.eye(block.dim), rtol=0, atol=1e-12)
        for (v, a), gamma in zip(product(range(len(trunc.graph.vertices)), range(3)), gens):
            want = np.zeros((block.dim, block.dim), dtype=complex)
            for c, cols in space.copies[i]:
                at = [IrrepLabel(SU2, s) for s in space.irreps[c]]
                parts = [irrep_generator(lab, a) if k == v else np.eye(lab.dim) for k, lab in enumerate(at)]
                want[cols, cols] = kron_chain(parts)
            assert_allclose(u.conj().T @ gamma @ u, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "trunc,count",
    [(make(k4_graph(), SU2, 2), 49), (make(loops_and_parallels(), SU2, 2), None)],
    ids=["su2-k4-b2", "su2-loops-and-parallels-b2"],
)
def test_each_end_pattern_is_split_once(trunc, count):
    # the pass splits one E_v per distinct pattern of (2j, end) at a vertex,
    # over the blocks of dimension above one, however many blocks share it;
    # the patterns are counted here from the graph and the label array.  A
    # spin-0 end is a factor of dimension one and is left out: K4 j <= 1 has
    # 108 patterns of all its ends and 49 of its other ends
    edges = enumerate(trunc.graph.edges)
    ends = [(j, k, at) for j, e in edges for k, at in enumerate((e.source, e.target))]
    patterns = {
        tuple((labels[j], k) for j, k, at in ends if at == v and labels[j])
        for labels in trunc.labels[trunc.dims > 1].tolist()
        for v in trunc.graph.vertices
    }
    assert count is None or len(patterns) == count
    _vertex_split.cache_clear()
    reduce_blocks(trunc, n_max=2)
    assert _vertex_split.cache_info().misses == len(patterns)


GRADED_CASES = {k: build(k) for k in SMALL} | {
    "su2-theta-b1": make(theta_graph(), SU2, 1),
    "su2-loops-and-parallels": make(loops_and_parallels(), SU2, 1),
    "u1-loops-and-parallels": make(loops_and_parallels(), U1, 1),
}


@pytest.mark.parametrize("name", list(GRADED_CASES))
def test_graded_route_matches_dense_oracles(name):
    assert_graded_route_matches_dense_oracles(GRADED_CASES[name])


# systems whose generators have minimal polynomials of degree 1 to 9, one
# (theta) with blocks holding an irrep more than once, and the power each
# pass is compared to the oracle up to (None: three past the degree)
DEGREE_CASES = {k: (build(k), None) for k in SMALL} | {
    "su2-parallel-b1": (make(parallel_graph(), SU2, 1), None),
    "su2-triangle-b1": (make(triangle_graph(), SU2, 1), None),
    "su2-loop-b4": (make(loop_graph(), SU2, 4), 40),
    "su2-theta-b1": (make(theta_graph(), SU2, 1), None),
}


@pytest.mark.parametrize("name", list(DEGREE_CASES))
def test_powers_stop_at_the_minimal_polynomial(name):
    trunc, n_max = DEGREE_CASES[name]
    assert_powers_stop_at_the_minimal_polynomial(trunc)
    assert_supports_are_running_union(trunc, n_max)


@pytest.mark.parametrize("name", ["u1-parallel-b1", "su2-loop-j2"])
def test_structure_maps_match_direct_products(name):
    # Dual route: the sparse product tables against literal operator
    # multiplication, on random algebra elements.
    trunc = build(name)
    space = commutant_basis(trunc)
    q = space.dim
    rng = np.random.default_rng(47)
    # the library's matrix-unit rule, and the oracle's products resolved
    # numerically in the same basis
    for basis in (space, dense_space(space)):
        left, right = basis.structure_maps()
        for _ in range(5):
            w = rng.normal(size=q) + 1j * rng.normal(size=q)
            op = op_from_coords(space, w)
            lw = (left @ w).reshape(q, q)
            rw = (right @ w).reshape(q, q)
            for j in rng.integers(0, q, size=4):
                bj = element_op(space, int(j))
                assert_allclose(lw[j], coords_of_matrix(space, bj @ op), atol=1e-10)
                assert_allclose(rw[j], coords_of_matrix(space, op @ bj), atol=1e-10)


def test_incomplete_basis_is_detected():
    # removing one element from a genuine commutant basis leaves products
    # unresolved, which the oracle's table construction must refuse to
    # paper over
    trunc = build("u1-parallel-b1")
    space = pair_commutant(trunc)
    drop = next(
        k for k, (i, j, _) in enumerate(space.elements) if i != j
    )
    i, j, _ = space.elements[drop]
    victim = next(
        k for k, (a, b, _) in enumerate(space.elements) if (a, b) == (j, j)
    )
    broken = DenseSpace(trunc, [e for k, e in enumerate(space.elements) if k != victim])
    with pytest.raises(SpanConsistencyError):
        broken.structure_maps()


def test_kernel_is_everything_when_no_invariants():
    # charge bound 1 on a single edge, but keep only nonzero-flux blocks by
    # hand: the compression map to a zero-dimensional space has full kernel
    trunc = build("u1-edge-b1")
    space = commutant_basis(trunc)
    empty = invariant_space(space, [np.zeros((d, 0), dtype=complex) for d in trunc.dims])
    ker = kernel_pi_basis(space, empty)
    assert ker.dim == space.dim
