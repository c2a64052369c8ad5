"""Property tests over random small graphs, for both groups.

Graphs are drawn with loops, parallel edges, isolated vertices and
disconnected pieces, up to total dimension 40.  On each the Gauss
generators must match the Kronecker-chain oracle, the one-sweep build of a
block's generators must equal each generator built on its own (and the
scalar sweep of the one-dimensional blocks their entries), the pass must
read each one-dimensional block's copy and seeds as the per-block route
does and keep its invariant vector exactly when the null-space rule does,
the weight-graded copies and invariant projectors must be the dense
routes', each ``Gamma_{v,z}`` must be diagonal on the copies with the eigenvalues the
pass reads, and their powers' coordinates the dense ones, each generator's
next power past the degree the pass stops it at must lie in the span of the
powers before, the oracle's supports must agree across the Lie directions
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
(``assert_arrays_match_per_block_routes``), there and on the edgeless,
isolated-vertex and loops-and-parallels graphs of both groups.
"""

import itertools
import math

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
from gaugereduce.reduction import reduce_blocks

from .oracles import (
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
    summed per block as ``Fraction``s; the lazily built ``copies``,
    ``members`` and ``weight_zero`` are those read off each block's own
    weight spaces (``per_block_pass``); and by both methods the kernel's
    component, complement projector and margin are those of the overlaps
    gathered block by block (``per_block_kernel``)."""
    blocks = enumerate_blocks(trunc.graph, trunc.group, trunc.bound)
    dims = [b.dim for b in blocks]
    assert trunc.labels.shape == (len(blocks), len(trunc.graph.edges))
    assert trunc.labels.tolist() == [[lab.value for lab in b.labels] for b in blocks]
    assert trunc.dims.tolist() == dims
    assert trunc.offsets.tolist() == list(itertools.accumulate(dims, initial=0))
    assert trunc.total_dim == sum(dims) and trunc.blocks == blocks
    assert eigenspace_grouping(trunc) == fraction_grouping(blocks, dims)
    irreps, copies, zeros, members = per_block_pass(trunc)
    for method in ("lie", "quadrature"):
        space, inv, _ = reduce_blocks(trunc, method)
        assert (space.irreps, space.copies, space.members) == (irreps, copies, members)
        for (rows, z), (want_rows, want_z) in zip(space.weight_zero, zeros, strict=True):
            assert list(rows) == list(want_rows)
            assert z.shape == want_z.shape and np.array_equal(z, want_z)
        got, want = kernel_pi_basis(space, inv), per_block_kernel(space, inv)
        assert (got.component, got.rank, got.margin) == (want.component, want.rank, want.margin)
        got, want = complement_parts(got), complement_parts(want)
        assert got.keys() == want.keys()
        for n, (q, p) in got.items():
            assert np.allclose(q, want[n][0], rtol=0, atol=1e-12)
            assert np.allclose(p, want[n][1], rtol=0, atol=1e-12)


def complement_parts(kernel):
    """The kernel's complement ``sum_n Q_n (x) conj(P_n)`` by its parts: per
    count ``n`` of pairs kept with a row of ``w``, the projector ``Q_n`` onto
    the rows with that count and ``P_n`` onto the first ``n`` rows.  Rows of
    one singular value have one count and ``n`` ends no run of equal singular
    values, so the parts do not depend on the basis ``w`` holds."""
    n = kernel.kept.sum(axis=1)
    w = kernel.w
    return {k: (w[n == k].conj().T @ w[n == k], w[:k].conj().T @ w[:k]) for k in set(n.tolist())}


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
