"""Property tests over random small graphs, for both groups.

Graphs are drawn with loops, parallel edges, isolated vertices and
disconnected pieces, up to total dimension 40.  On each the Gauss
generators must match the Kronecker-chain oracle, the one-sweep build of a
block's generators must equal each generator built on its own (and the
scalar sweep of the one-dimensional blocks their entries), the pass must
read each one-dimensional block's copy and seeds as the per-block route
does and keep its invariant vector exactly when the null-space rule does,
the copies assembled from the vertices' splits and the invariant projectors
must be the dense routes', each ``Gamma_{v,z}`` must be diagonal on the
copies with the eigenvalues the pass reads, and their powers' coordinates
the dense ones, each generator's next power past the degree the pass stops
it at must lie in the span of the powers before, the oracle's supports must agree across the Lie directions
at each vertex, and the components the pass's seed supports reach must be
those the running union of the oracle's touches, which steps every power,
the irrep-based commutant must match the dense oracle, the dimension
ledger must hold, the component closure must match the round-based oracle
closure, the quadrature averages of generator powers 1 and 2 must have the
same commutant coordinates as the Lie route (and the averaged square must
be the commutant element with those coordinates), and the
averaged-generator ideal must reach ``ker(pi)`` by power 2, with the
kernel dimension, containment residual and distance of every power equal
to the dense oracle's.  The arrays the library holds the truncation and its
one-dimensional blocks in must equal the per-block routes they replaced
(``assert_arrays_match_per_block_routes``, basis-free where a component
holds several copies), there and on the edgeless,
isolated-vertex and loops-and-parallels graphs of both groups.  The pass's
components, their numbers of copies and the dimension ledger must be those
of the vertex tables contracted over the edge labels in integers
(``ledger_by_contraction``), there and on the edgeless and isolated-vertex
graphs of both groups.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gaugereduce import (
    Graph,
    GeneratorSpec,
    commutant_basis,
    generator_coords,
    generator_op,
    invariant_basis,
    eigenspace_grouping,
    kernel_pi_basis,
)
from gaugereduce.groups import lie_dim
from gaugereduce.reduction import RANK_RTOL, PiKernel, reduce_blocks

from .oracles import (
    complement_parts,
    enumerate_blocks,
    fraction_grouping,
    op_from_coords,
    per_block_kernel,
    per_block_pass,
)
from .systems import (
    SU2,
    U1,
    edgeless_graph,
    isolated_vertex_graph,
    loops_and_parallels,
    make,
    parallel_graph,
)
from .test_lattice import assert_generators_match_oracle, assert_sweep_matches_single_builds
from .test_multiplicity import contracted_counter, ledger_by_contraction
from .test_oracles import assert_closures_agree, assert_rows_match_dense_oracle
from .test_reduction import (
    assert_graded_route_matches_dense_oracles,
    assert_one_dim_blocks_match_null_space,
    assert_powers_stop_at_the_minimal_polynomial,
    assert_supports_are_running_union,
    dense_commutant_dim,
)

MAX_DIM = 40
# rows of the dense oracle's stacked constraints, whose full SVD it takes
MAX_DENSE_ROWS = 2000


def edge_block_dim(group, bound):
    """Summed dimension of one edge's blocks at the bound."""
    if group is U1:
        return 2 * bound + 1
    return sum((k + 1) ** 2 for k in range(bound + 1))


@st.composite
def truncations(draw):
    group = draw(st.sampled_from([U1, SU2]))
    bound = draw(st.integers(1, 3))
    per_edge = edge_block_dim(group, bound)
    max_edges = int(math.log(MAX_DIM) / math.log(per_edge) + 1e-9)
    n_vertices = draw(st.integers(1, 4))
    vertices = [f"v{k}" for k in range(n_vertices)]
    ends = st.sampled_from(vertices)
    edges = [
        (f"e{k}", draw(ends), draw(ends))
        for k in range(draw(st.integers(1, max_edges)))
    ]
    trunc = make(Graph(vertices, edges), group, bound)
    assume(lie_dim(group) * n_vertices * trunc.total_dim**2 <= MAX_DENSE_ROWS)
    return trunc


def assert_arrays_match_per_block_routes(trunc):
    """The truncation's label array, dims and offsets are those of the blocks
    enumerated one ``BlockLabel`` at a time, and its energy levels those
    summed per block as ``Fraction``s; the components' irreps, each block's
    count of copies of each and its weight-zero indices are those read off
    the block's own dense generators (``per_block_pass``), and so are the
    parts that do not depend on the basis chosen within a component: the
    projector onto each component's weight-zero columns in a block and the
    norm of their overlaps with the invariant vectors; and by both methods
    the kernel's component, complement projector and margin (to roundoff:
    the library's overlaps are products of its vertices') are those of the
    overlaps gathered block by block (``per_block_kernel``)."""
    blocks = enumerate_blocks(trunc.graph, trunc.group, trunc.bound)
    dims = [b.dim for b in blocks]
    assert trunc.labels.shape == (len(blocks), len(trunc.graph.edges))
    assert trunc.labels.tolist() == [[lab.value for lab in b.labels] for b in blocks]
    assert trunc.dims.tolist() == dims
    assert trunc.offsets.tolist() == list(itertools.accumulate(dims, initial=0))
    assert trunc.total_dim == sum(dims) and trunc.blocks == blocks
    assert eigenspace_grouping(trunc) == fraction_grouping(blocks, dims)
    dense = per_block_pass(trunc)
    for method in ("lie", "quadrature"):
        space, inv, _ = reduce_blocks(trunc, method)
        assert set(space.irreps) == {lam for _, split, _, _ in dense for lam, _ in split}
        held = Counter((space.irreps[c], i) for c, m in enumerate(space.members) for i, _ in m)
        want = Counter((lam, i) for i, (_, split, _, _) in enumerate(dense) for lam, _ in split)
        assert held == want
        for i, (u, split, eig, zero) in enumerate(dense):
            rows, z = space.weight_zero[i]
            assert sorted(rows) == zero.tolist()
            z = z[np.argsort(rows)]  # on W_0 in ascending order, as the dense columns
            at = [c.start + np.flatnonzero(~eig[:, c].any(axis=0)) for _, c in split]
            want = np.column_stack([u[zero, k[0]] if k.size else np.zeros(len(zero)) for k in at])
            cols = inv.columns[i][zero]
            for lam in {lam for lam, _ in split}:
                got = z[:, [space.irreps[c] == lam for c, _ in space.copies[i]]]
                ref = want[:, [k == lam for k, _ in split]]
                assert np.allclose(got @ got.conj().T, ref @ ref.conj().T, rtol=0, atol=1e-12)
                norms = [np.linalg.norm(cols.conj().T @ x) for x in (got, ref)]
                assert np.isclose(*norms, rtol=0, atol=1e-12)
        got, want = kernel_pi_basis(space, inv), per_block_kernel(space, inv)
        assert (got.component, got.rank) == (want.component, want.rank)
        assert np.isclose(got.margin, want.margin, rtol=1e-12, atol=0)  # overlaps two ways
        m = space.sizes[got.component]
        got, want = complement_parts(got, m), complement_parts(want, m)
        assert got.keys() == want.keys()
        for n, (q, p) in got.items():
            assert np.allclose(q, want[n][0], rtol=0, atol=1e-12)
            assert np.allclose(p, want[n][1], rtol=0, atol=1e-12)


def assert_sizes_match_the_contracted_ledger(trunc):
    """The pass's components and their numbers of copies ``M_lam`` are the
    contracted ledger's (a U(1) irrep is the copy's weight, ``-2`` times the
    flux), and so are ``dim A^K``, ``dim H^K`` and ``dim ker pi``, by both
    methods.  The ledger reads a loop's label at both of its ends and gives
    an isolated vertex a table with no edge axis."""
    graph, group, bound = trunc.graph, trunc.group, trunc.bound.value
    scale = -2 if group is U1 else 1
    want = {tuple(scale * x for x in lam): m for lam, m in contracted_counter(graph, group, bound).items()}
    for method in ("lie", "quadrature"):
        space, inv, _ = reduce_blocks(trunc, method)
        assert dict(zip(space.irreps, space.sizes.tolist())) == want
        counts = (space.dim, inv.dim, kernel_pi_basis(space, inv).dim)
        assert counts == ledger_by_contraction(graph, group, bound)


@pytest.mark.parametrize("group,bound", [(U1, 1), (U1, 2), (SU2, 1), (SU2, 2)])
@pytest.mark.parametrize("graph", [edgeless_graph, isolated_vertex_graph])
def test_sizes_match_the_contracted_ledger(graph, group, bound):
    assert_sizes_match_the_contracted_ledger(make(graph(), group, bound))


@pytest.mark.parametrize("group,bound", [(U1, 1), (U1, 2), (SU2, 1)])
@pytest.mark.parametrize(
    "graph", [edgeless_graph, isolated_vertex_graph, loops_and_parallels, parallel_graph]
)
def test_arrays_match_per_block_routes(graph, group, bound):
    assert_arrays_match_per_block_routes(make(graph(), group, bound))


@given(truncations())
def test_random_graphs(trunc):
    assert trunc.total_dim <= MAX_DIM
    assert_arrays_match_per_block_routes(trunc)
    assert_sizes_match_the_contracted_ledger(trunc)
    assert_generators_match_oracle(trunc)
    assert_sweep_matches_single_builds(trunc)
    assert_one_dim_blocks_match_null_space(trunc)
    assert_graded_route_matches_dense_oracles(trunc)
    assert_powers_stop_at_the_minimal_polynomial(trunc)
    assert_supports_are_running_union(trunc)
    space = commutant_basis(trunc)
    assert space.dim == dense_commutant_dim(trunc)[0]
    inv = invariant_basis(trunc)
    assert space.dim == kernel_pi_basis(space, inv).dim + inv.dim**2
    assert_closures_agree(space)
    # one Lie direction per vertex: each call rebuilds the quadrature
    off = trunc.offsets
    for i in range(len(trunc.blocks)):
        block = slice(off[i], off[i + 1])
        for v in trunc.graph.vertices:
            for n in (1, 2):
                spec = GeneratorSpec(i, v, 0, n)
                lie = generator_coords(space, spec, method="lie")
                quad = generator_coords(space, spec, method="quadrature")
                assert np.abs(lie - quad).max() < 1e-8
                if n == 2:
                    # Coordinates cannot see an average that skips vertex v:
                    # any partial average projects onto the commutant alike.
                    # The averaged square itself can.
                    avg = op_from_coords(space, lie)[block, block]
                    assert np.abs(generator_op(trunc, spec) - avg).max() < 1e-8
    assert assert_rows_match_dense_oracle(trunc, n_max=2).passed


@st.composite
def descending_values(draw):
    """Descending singular values over many decades, some of them tied, some
    at ``RANK_RTOL s_0^2 / s_a`` for another value ``s_a`` or one float
    either side of it, and some zero."""
    n = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = 10.0 ** rng.uniform(-14, 0, n) * 10.0 ** draw(st.integers(-100, 100))
    s[0] = s.max()
    cut, rest = RANK_RTOL * s[0] ** 2, np.arange(1, n)  # s[0] stays the largest
    for b in rng.choice(rest, draw(st.integers(0, n - 1))):
        a, kind = rng.integers(n), rng.integers(4)
        edge = cut / s[a]
        s[b] = [s[a], edge, np.nextafter(edge, 0), np.nextafter(edge, np.inf)][kind]
    s[rng.choice(rest, draw(st.integers(0, min(2, n - 1))))] = 0.0
    return -np.sort(-np.minimum(s, s[0]))


@given(descending_values())
def test_kernel_staircase_is_the_dense_rule(s):
    # the kernel reads its kept pairs, rank and margin off the sorted values
    # a run of rows at a time; they must be the dense rule's, decision for
    # decision: the pairs of the outer product above RANK_RTOL s_0^2
    kernel = PiKernel(s.size**2, 0, s, [(0, np.ones(1))] * s.size)
    products = np.outer(s, s)
    cut = RANK_RTOL * s[0] ** 2
    kept = products > cut
    k = np.count_nonzero(kept[:, 0])
    assert not kept[k:].any() and len(kernel.rows) == len(kernel.pairs) == k
    assert np.array_equal(kernel.pairs, kept.sum(axis=1)[:k])
    assert np.array_equal(kept[:k, :k], np.arange(k) < kernel.pairs[:, None])
    assert kernel.rank == np.count_nonzero(kept)
    assert kernel.margin == (products[kept].min() / cut if k else np.inf)
