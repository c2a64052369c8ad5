"""Property tests over random small graphs, for both groups.

Graphs are drawn with loops, parallel edges, isolated vertices and
disconnected pieces, up to total dimension 40.  On each the irrep-based
commutant must match the dense oracle, the dimension ledger must hold, the
component closure must match the round-based oracle closure, and the
averaged-generator ideal must reach ``ker(pi)`` by power 2.
"""

import math

from hypothesis import assume, given
from hypothesis import strategies as st

from gaugereduce import Graph, commutant_basis, invariant_basis, kernel_pi_basis, verify_ideal
from gaugereduce.groups import lie_dim

from .systems import SU2, U1, make
from .test_oracles import assert_closures_agree
from .test_reduction import dense_commutant_dim

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


@given(truncations())
def test_random_graphs(trunc):
    assert trunc.total_dim <= MAX_DIM
    space = commutant_basis(trunc)
    assert space.dim == dense_commutant_dim(trunc)[0]
    inv = invariant_basis(trunc)
    assert space.dim == kernel_pi_basis(space, inv).dim + inv.dim**2
    assert_closures_agree(space)
    assert verify_ideal(trunc, n_max=2).passed
