"""SU(2) irrep multiplicities by Clebsch-Gordan counting, in integers.

The non-abelian counterpart of acceptance criterion 4 (U(1) flux counting).
A block with edge spins ``j_e`` carries ``V_{j_e}`` at each end of edge
``e``, so at a vertex the gauge group sees the tensor product of the spins
of the edge ends meeting there.  Coupling them one at a time (``J`` runs
from ``|J - s|`` to ``J + s`` in steps of one, or of two in ``2j`` units)
gives the multiplicity of every vertex spin; the product over vertices,
summed over blocks, is the multiplicity ``M_lam`` of the gauge irrep
``lam = (2 J_v)_v``.  No matrix is formed, and then

    dim A^K = sum M_lam^2,   dim H^K = M_0,   dim ker pi = dim A^K - M_0^2.
"""

import itertools
import math
from collections import Counter

import pytest

from gaugereduce import commutant_basis, invariant_basis, kernel_pi_basis, verify_ideal

from .systems import (
    CANON,
    SU2,
    edge_graph,
    loop_graph,
    make,
    parallel_graph,
    triangle_graph,
)


def couple(spins):
    """Multiplicity of each total ``2J`` in the product of the ``2j`` spins."""
    mult = Counter({0: 1})
    for s in spins:
        nxt = Counter()
        for total, m in mult.items():
            for k in range(abs(total - s), total + s + 1, 2):
                nxt[k] += m
        mult = nxt
    return mult


def irrep_multiplicities(graph, bound):
    """``M_lam`` for every gauge irrep of the SU(2) truncation at 2j <= bound."""
    out = Counter()
    for spins in itertools.product(range(bound + 1), repeat=len(graph.edges)):
        per_vertex = []
        for v in graph.vertices:
            ends = [
                s
                for e, s in zip(graph.edges, spins)
                for end in (e.source, e.target)
                if end == v
            ]
            per_vertex.append(couple(ends).items())
        for combo in itertools.product(*per_vertex):
            out[tuple(k for k, _ in combo)] += math.prod(m for _, m in combo)
    return out


def ledger(graph, bound):
    mult = irrep_multiplicities(graph, bound)
    m0 = mult[(0,) * len(graph.vertices)]
    dim_ak = sum(m * m for m in mult.values())
    return dim_ak, m0, dim_ak - m0 * m0


# name -> (graph, 2j bound, (dim A^K, dim H^K, dim ker pi)); the counts
# beyond CANON were made with the rule above
SYSTEMS = {
    name: (graph, bound, (q, hk, kk))
    for name, (graph, group, bound, q, hk, kk, _) in CANON.items()
    if group is SU2
}
SYSTEMS.update(
    {
        "su2-loop-b4": (loop_graph, 4, (55, 5, 30)),
        "su2-edge-b3": (edge_graph, 3, (4, 1, 3)),
        "su2-parallel-b1": (parallel_graph, 1, (11, 2, 7)),
        "su2-triangle-b1": (triangle_graph, 1, (26, 2, 22)),
    }
)


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_clebsch_gordan_count_matches_the_ledger(name):
    graph, bound, counts = SYSTEMS[name]
    assert ledger(graph(), bound) == counts
    trunc = make(graph(), SU2, bound)
    space = commutant_basis(trunc)
    inv = invariant_basis(trunc)
    ker = kernel_pi_basis(space, inv)
    assert (space.dim, inv.dim, ker.dim) == counts


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_commutant_components_have_counted_multiplicities(name):
    # each component is a full matrix algebra M_m(C), with m^2 elements
    graph, bound, _ = SYSTEMS[name]
    space = commutant_basis(make(graph(), SU2, bound))
    sizes = Counter(space.components.tolist())
    assert all(math.isqrt(n) ** 2 == n for n in sizes.values())
    got = {space.irreps[c]: math.isqrt(n) for c, n in sizes.items()}
    assert got == dict(irrep_multiplicities(graph(), bound))


def test_su2_triangle_verifies_at_the_default_power_budget():
    report = verify_ideal(make(triangle_graph(), SU2, 1))
    assert report.n_max == 64
    assert report.passed
    assert (report.dim_ak, report.dim_hk, report.dim_ker_pi) == (26, 2, 22)
    assert [row.dim_ideal for row in report.rows[:2]] == [0, 22]
