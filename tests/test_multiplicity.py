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

For U(1) every block is one charge assignment, one-dimensional, and its
gauge irrep is its pattern of vertex fluxes, so ``M_lam`` counts the
assignments with flux pattern ``lam``.  That fixes the counts of systems
past a thousand commutant dimensions, where ``verify`` must still pass.
Every averaged power of a U(1) generator is a power of ``i flux_v``, so
the ideal holds every nonzero component from ``n = 1`` on.
"""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from gaugereduce import commutant_basis, kernel_pi_basis, verify_ideal
from gaugereduce.reduction import reduce_blocks

from .systems import (
    CANON,
    FRONTIER,
    SU2,
    U1,
    build,
    cube_graph,
    edge_graph,
    k4_graph,
    loop_graph,
    make,
    parallel_graph,
    square_graph,
    triangle_graph,
)
from .test_acceptance import brute_force_balanced


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
SYSTEMS.update(
    {name: (graph, bound, (q, hk, kk)) for name, (graph, _, bound, q, hk, kk, _) in FRONTIER.items()}
)


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_clebsch_gordan_count_matches_the_ledger(name):
    graph, bound, counts = SYSTEMS[name]
    assert ledger(graph(), bound) == counts
    space, inv, _ = reduce_blocks(make(graph(), SU2, bound))
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


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_every_row_equals_the_integer_count(name):
    # Odd powers average to zero (a pi rotation at v sends Gamma_{v,a} to
    # -Gamma_{v,a}), and the squares reach every lam != 0 through the
    # Casimir identity, so the ideal is empty at n = 1 and holds every
    # nonzero component from n = 2 on.  No generator is built here.
    graph, bound, _ = SYSTEMS[name]
    mult = irrep_multiplicities(graph(), bound)
    zero = (0,) * len(graph().vertices)
    nonzero = sum(m * m for lam, m in mult.items() if lam != zero)
    report = verify_ideal(make(graph(), SU2, bound), n_max=3)
    assert [row.dim_ideal for row in report.rows] == [0, nonzero, nonzero]


def test_su2_triangle_verifies_at_the_default_power_budget():
    report = verify_ideal(make(triangle_graph(), SU2, 1))
    assert report.n_max == 64
    assert report.passed
    assert (report.dim_ak, report.dim_hk, report.dim_ker_pi) == (26, 2, 22)
    assert [row.dim_ideal for row in report.rows[:2]] == [0, 22]


def test_su2_k4_verifies_with_the_counted_rows():
    # the complete graph on four vertices, spin 1/2 on each of its six edges:
    # 64 blocks up to dimension 4,096, with no invariant on the largest
    graph = k4_graph()
    mult = irrep_multiplicities(graph, 1)
    nonzero = sum(m * m for lam, m in mult.items() if lam != (0,) * 4)
    assert ledger(graph, 1) == (5119, 8, 5055) and nonzero == 5055
    report = verify_ideal(make(graph, SU2, 1), n_max=2)
    assert report.passed
    assert (report.dim_ak, report.dim_hk, report.dim_ker_pi) == (5119, 8, 5055)
    assert [row.dim_ideal for row in report.rows] == [0, nonzero]


@pytest.mark.parametrize("method", ["lie", "quadrature"])
def test_su2_square_verifies_below_one_dense_block(method):
    # spin up to 1 on the four edges of a square: 81 blocks up to dimension
    # 3^8 = 6,561.  The pass keeps one weight-zero column per copy, so its
    # traced peak stays below one d x d complex array of the largest block.
    # The ledger of these counts is checked with the other SYSTEMS
    trunc = build("su2-square-j1")
    counts = FRONTIER["su2-square-j1"][3:6]
    tracemalloc.start()
    try:
        report = verify_ideal(trunc, n_max=2, method=method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * max(trunc.dims) ** 2
    assert report.passed
    assert (report.dim_ak, report.dim_hk, report.dim_ker_pi) == counts
    assert [row.dim_ideal for row in report.rows] == [0, 2009]


def flux_multiplicities(graph, bound):
    """``M_lam`` for every vertex-flux pattern of the U(1) truncation: the
    incidence matrix (+1 at an edge's target, -1 at its source) times every
    charge assignment, and the distinct columns counted by ``np.unique``."""
    ne = len(graph.edges)
    charges = np.indices((2 * bound + 1,) * ne).reshape(ne, -1) - bound
    incidence = np.zeros((len(graph.vertices), ne), dtype=int)
    for j, e in enumerate(graph.edges):
        incidence[graph.vertex_index[e.target], j] += 1
        incidence[graph.vertex_index[e.source], j] -= 1
    flux = incidence @ charges
    lo = flux.min(axis=1, keepdims=True)
    shape = tuple(flux.max(axis=1) - lo[:, 0] + 1)
    keys, counts = np.unique(np.ravel_multi_index(tuple(flux - lo), shape), return_counts=True)
    patterns = np.array(np.unravel_index(keys, shape)) + lo
    return Counter(dict(zip(map(tuple, patterns.T.tolist()), counts.tolist())))


@pytest.mark.parametrize(
    "graph,bound,counts,mib",
    [
        (triangle_graph, 3, (1225, 7, 1176), 64),
        (square_graph, 2, (1333, 5, 1308), 64),
        (k4_graph, 2, (426425, 65, 422200), 64),
        (k4_graph, 4, (81545697, 369, 81409536), 160),
        (cube_graph, 1, (5756661, 69, 5751900), 256),
    ],
    ids=["u1-triangle-b3", "u1-square-b2", "u1-k4-b2", "u1-k4-b4", "u1-cube-b1"],
)
def test_u1_flux_count_fixes_a_verify_past_a_thousand(graph, bound, counts, mib):
    # ker(pi) is read off the one component pi sees, so verify holds nothing
    # of length dim A^K, and no matrix of pi: on u1 K4 b2 that matrix alone
    # would be 65^2 x 426,425 complex, 26.8 GiB; its traced peak stays below 64 MiB.
    # Past half a million blocks (K4 b4, the cube b1) the truncation and every
    # one-dimensional block stay arrays, so the traced peak, Truncation
    # included, stays below the bound.  The brute-force count of balanced
    # assignments, one Python loop per assignment, checks the smaller ones.
    g = graph()
    mult = flux_multiplicities(g, bound)
    h = mult[(0,) * len(g.vertices)]
    if (2 * bound + 1) ** len(g.edges) < 10**5:
        assert brute_force_balanced(g, bound) == h
    dim_ak = sum(m * m for m in mult.values())
    assert (dim_ak, h, dim_ak - h * h) == counts
    tracemalloc.start()
    try:
        report = verify_ideal(make(g, U1, bound))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20
    assert report.passed
    assert (report.dim_ak, report.dim_hk, report.dim_ker_pi) == counts
    assert report.rows[0].dim_ideal == report.dim_ker_pi


# name -> (graph, bound) of every U(1) system of CANON, and two past a
# thousand commutant dimensions
U1_SYSTEMS = {
    name: (graph, bound) for name, (graph, group, bound, *_) in CANON.items() if group is U1
}
U1_SYSTEMS.update({"u1-triangle-b3": (triangle_graph, 3), "u1-square-b2": (square_graph, 2)})


@pytest.mark.parametrize("name", list(U1_SYSTEMS))
def test_u1_components_and_rows_match_the_flux_count(name):
    # A U(1) block's generator at v is i * flux_v, so its one copy has weight
    # -2 flux_v there, and the averaged power (i flux_v)^n touches its
    # component from n = 1 on exactly when some flux is nonzero.
    graph, bound = U1_SYSTEMS[name]
    g = graph()
    mult = flux_multiplicities(g, bound)
    trunc = make(g, U1, bound)
    space = commutant_basis(trunc)
    sizes = Counter(space.components.tolist())
    assert all(math.isqrt(n) ** 2 == n for n in sizes.values())
    got = {space.irreps[c]: math.isqrt(n) for c, n in sizes.items()}
    assert got == {tuple(-2 * f for f in flux): m for flux, m in mult.items()}
    zero = (0,) * len(g.vertices)
    nonzero = sum(m * m for flux, m in mult.items() if flux != zero)
    report = verify_ideal(trunc, n_max=3)
    assert report.passed
    assert [row.dim_ideal for row in report.rows] == [nonzero] * 3
