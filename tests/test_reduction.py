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
    EquivariantSpace,
    GaugeElement,
    InvariantSpace,
    IrrepLabel,
    commutant_basis,
    invariant_basis,
    invariant_projector,
    kernel_pi_basis,
    projector_band,
    random_point,
    rho_block,
    vertex_flux,
)
from gaugereduce.lattice import block_generators, lie_directions
from gaugereduce.reduction import (
    RANK_RTOL,
    _block_seeds,
    _graded_copies,
    _null_columns,
    _weight_spaces,
    own_elements,
    reduce_blocks,
)

from .oracles import (
    DenseSpace,
    SpanConsistencyError,
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
    pair_commutant,
    product_projector,
    stepped_rows,
    stepped_supports,
    touched_components,
)
from .systems import (
    CANON,
    SMALL,
    SU2,
    U1,
    build,
    edgeless_graph,
    isolated_vertex_graph,
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


@pytest.mark.parametrize("small,reached", [(0.8e-10, True), (0.6e-10, False)])
def test_block_seeds_cut_each_component_by_its_norm(small, reached):
    # two one-column copies of component 0, each with trace `small` against a
    # power of norm about 1, and one copy of component 1: component 0 is
    # reached when sqrt(2) * small passes RANK_RTOL, though neither trace does
    copies = [(0, slice(0, 1)), (0, slice(1, 2)), (1, slice(2, 3))]
    got = _block_seeds(np.array([[small, small, 1.0]]), copies, 1)
    assert np.array_equal(got, [[reached, reached, True]])


def assert_one_dim_blocks_match_null_space(trunc, n_max=3):
    """The pass reads every one-dimensional block off one array of scalar
    generators.  Block by block, from the block's own generators, the copy
    split, copy basis and seed rows must be those of the dense
    ``isotypic_copies`` and ``_block_seeds``, the pass's support must hold
    the component of every row set and, a one-dimensional block's component
    being its own, miss it at every power where no row is set, and the block
    must keep its invariant vector exactly when the null-space rule on its
    stacked generators (``_null_columns``, which ``invariant_columns``
    applies) does."""
    space, inv, support = reduce_blocks(trunc, n_max=n_max)
    rows = invariant_rows(trunc, inv)
    alone = space.sizes == 1  # components with no other block to set them
    for i, block in enumerate(trunc.blocks):
        if block.dim > 1:
            continue
        gens = block_generators(block)
        u, split, eig = isotypic_copies(block, gens)
        assert [(space.irreps[c], cols) for c, cols in space.copies[i]] == split
        assert np.array_equal(space.bases[i], u)
        want = _block_seeds(eig, space.copies[i], n_max)
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


def phased(space):
    """The same commutant with a complex phase on each copy, so on the matrix
    units between copies: on the copy's columns in the dense basis and on its
    weight-zero column, which ``kernel_pi_basis`` reads, alike."""
    zeros, bases = [], []
    for i, u in enumerate(space.bases):
        ph = np.exp(0.3j * (i + 2 * np.arange(len(space.copies[i])) + 1))
        rows, z = space.weight_zero[i]
        zeros.append((rows, z * ph))
        bases.append(u * np.repeat(ph, [c.stop - c.start for _, c in space.copies[i]]))
    out = EquivariantSpace(space.trunc, zeros, space.copies, space.irreps)
    out.bases = bases
    return out


@pytest.mark.parametrize("name", ["u1-parallel-b1", "su2-loop-j2", "su2-edge-j2"])
def test_pi_matrix_compresses_each_element(name):
    # overlaps with the copy bases against each dense element compressed
    # directly, and the kernel's complement, read off the weight-zero
    # overlaps, spans the row space of those compressions; the phases make
    # the overlaps complex
    trunc = build(name)
    space = phased(commutant_basis(trunc))
    inv = invariant_basis(trunc)
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


def graded(block):
    """The pass's copy basis, kept at every lowering level, copies and
    ``Gamma_{v,z}`` eigenvalues of a block of dimension above one."""
    return _graded_copies(block, *_weight_spaces(block)[:2], True)


def minimal_degrees(trunc):
    """Per block, the degree the pass steps the generators at each vertex
    to: the number of distinct eigenvalues it reads there, one on a
    one-dimensional block."""
    one = np.zeros((len(trunc.graph.vertices), 1))
    eigs = [graded(b)[2] if b.dim > 1 else one for b in trunc.blocks]
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
    for i, (block, degree) in enumerate(zip(trunc.blocks, minimal_degrees(trunc))):
        if block.dim == 1:
            continue
        gens = block_generators(block)
        u, _, eig = graded(block)
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
        n_max = max(int(d.max(initial=1)) for d in minimal_degrees(trunc)) + 3
    space, _, support = reduce_blocks(trunc, n_max=n_max)
    for i, block in enumerate(trunc.blocks):
        gens, nl = block_generators(block), len(lie_directions(block))
        u, copies = space.bases[i], space.copies[i]
        for v in range(0, len(gens), nl):  # the generators at one vertex
            rows = [stepped_supports(gens[[d]], u, copies, n_max) for d in range(v, v + nl)]
            assert all(np.array_equal(rows[0], r) for r in rows[1:])
    want = np.logical_or.accumulate(stepped_rows(space, n_max))
    assert support.shape == (n_max, len(space.irreps))
    assert np.array_equal(support, touched_components(space, want))


def assert_graded_route_matches_dense_oracles(trunc):
    """Block by block, the pass's weight-graded route against the dense
    routes it replaced (``oracles.py``): the same copies in the same order,
    with the same ``Gamma_{v,z}`` eigenvalue on every column, the same
    projector onto each irrep's copies, and both invariant projectors equal
    to the dense ones, the null space of the whole generator stack and the
    Haar projector over the whole block, to 1e-12.  The weight-zero column
    the pass keeps of each copy is exactly that copy's column of weight zero
    in the lazily built copy basis, on ``W_0`` (zero if it has none), those
    columns are an orthonormal basis of ``W_0`` to 1e-12, and by both
    methods the kernel's complement spans the row space of the dense
    overlaps' ``dense_pi_matrix`` (``assert_kernel_spans_the_row_space``)."""
    space, inv, _ = reduce_blocks(trunc)
    for i, (block, (rows, z)) in enumerate(zip(trunc.blocks, space.weight_zero)):
        u = space.bases[i]
        lams = np.array([space.irreps[c] for c, _ in space.copies[i]]).T
        weights = graded(block)[2] if block.dim > 1 else lams
        at_zero = ~weights.any(axis=0)  # the columns of weight zero
        assert np.array_equal(rows, _weight_spaces(block)[2])
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
        if block.dim == 1:
            continue
        u, split, eig = graded(block)
        dense, want, want_eig = isotypic_copies(block, gens)
        assert split == want
        assert np.array_equal(eig, want_eig)
        for lam in dict.fromkeys(lam for lam, _ in split):
            cols = np.concatenate([np.arange(c.start, c.stop) for k, c in split if k == lam])
            got, ref = u[:, cols], dense[:, cols]
            assert_allclose(got @ got.conj().T, ref @ ref.conj().T, rtol=0, atol=1e-12)


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
    scaled = InvariantSpace(columns)
    mat = dense_pi_matrix(space, scaled)
    kernel = assert_kernel_spans_the_row_space(space, scaled, mat, atol=1e-8)
    small = np.count_nonzero(np.resize([False, True], inv.dim))
    assert kernel.rank == inv.dim**2 - small**2


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
    bad = InvariantSpace([inv.columns[0], np.hstack([inv.columns[1], extra])])
    assert bad.dim == inv.dim + 1
    with pytest.raises(RuntimeError, match=r"on component \d+ and .* on component \d+"):
        kernel_pi_basis(space, bad)


def test_highest_weight_count_is_checked(monkeypatch):
    # the raising operators' null space on a weight must have the dimension
    # the weight multiplicities give; a rank decision that lost a vector
    # would drop a copy, so the pass refuses it
    short = lambda a: _null_columns(a)[:, 1:]  # noqa: E731
    monkeypatch.setattr("gaugereduce.reduction._null_columns", short)
    with pytest.raises(RuntimeError, match="highest weights"):
        reduce_blocks(make(loop_graph(), SU2, 1))


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
    empty = InvariantSpace(np.zeros((d, 0), dtype=complex) for d in trunc.dims)
    ker = kernel_pi_basis(space, empty)
    assert ker.dim == space.dim
