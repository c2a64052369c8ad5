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
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

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
    pentagon_graph,
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


def vertex_table(graph, group, bound, v):
    """Vertex ``v``'s integer table: one axis per edge at ``v`` (a loop once,
    its label read at both of its ends) over the edge's labels, then one over
    ``v``'s gauge irrep from ``lo``; an entry is that irrep's multiplicity in
    the product of the ends' irreps: ``couple``'s count of the vertex spin
    ``2J`` for SU(2), 1 or 0 for U(1), whose irrep is the flux (charges
    entering minus charges leaving).  Returns ``(table, edges, lo)``."""
    edges = [j for j, e in enumerate(graph.edges) if v in (e.source, e.target)]
    signs = {j: (graph.edges[j].target == v) - (graph.edges[j].source == v) for j in edges}
    ends = {j: 1 + (graph.edges[j].source == graph.edges[j].target) for j in edges}
    values = range(-bound, bound + 1) if group is U1 else range(bound + 1)
    reach = bound * sum(ends.values() if group is SU2 else map(abs, signs.values()))
    lo = -reach if group is U1 else 0
    table = np.zeros((len(values),) * len(edges) + (reach - lo + 1,), dtype=np.int64)
    for at in itertools.product(range(len(values)), repeat=len(edges)):
        x = [values[k] for k in at]
        if group is U1:
            table[at][sum(signs[j] * q for j, q in zip(edges, x)) - lo] = 1
        else:
            for total, m in couple([s for j, s in zip(edges, x) for _ in range(ends[j])]).items():
                table[at][total] = m
    return table, edges, lo


def contracted_multiplicities(graph, group, bound):
    """``M_lam`` on the whole grid of vertex irreps, vertex 0 slowest, from
    ``lo``: the vertex tables contracted over the shared edge labels, one
    ``np.tensordot`` per vertex, in int64 under an exact bound on every
    entry.  A block is an assignment of labels to the edges, and it holds
    ``prod_v T_v`` copies of ``lam``, so ``M_lam`` is that product summed
    over the assignments.  Returns ``(grid, lo)``."""
    acc, axes, most, lows = np.ones((), dtype=np.int64), [], 1, []
    labels = 2 * bound + 1 if group is U1 else bound + 1
    for v in graph.vertices:
        table, edges, lo = vertex_table(graph, group, bound, v)
        lows.append(lo)
        loops = [k for k, j in enumerate(edges) if graph.edges[j].source == graph.edges[j].target]
        table = table.sum(axis=tuple(loops))  # a loop's label is summed here alone
        edges = [j for k, j in enumerate(edges) if k not in loops]
        shared = [j for j in edges if ("e", j) in axes]
        # no entry exceeds the product of the tables' largest entries times
        # the number of label assignments summed so far
        most *= int(table.max(initial=0)) * labels ** (len(loops) + len(shared))
        assert most < 2**63, "the contraction could overflow int64"
        pairs = [axes.index(("e", j)) for j in shared], [edges.index(j) for j in shared]
        acc = np.tensordot(acc, table, pairs)
        axes = [a for a in axes if a[0] != "e" or a[1] not in shared]
        axes += [("e", j) for j in edges if j not in shared] + [("lam", v)]
    return acc.transpose([axes.index(("lam", v)) for v in graph.vertices]), np.array(lows)


def ledger_by_contraction(graph, group, bound):
    """``(dim A^K, dim H^K, dim ker pi)`` from ``contracted_multiplicities``,
    summed as Python integers: ``sum M_lam^2``, ``M_0``, and their
    difference ``sum M_lam^2 - M_0^2``."""
    grid, lo = contracted_multiplicities(graph, group, bound)
    dim_ak = sum(m * m for m in grid[grid > 0].tolist())
    m0 = int(grid[tuple(-lo)])
    return dim_ak, m0, dim_ak - m0 * m0


def contracted_counter(graph, group, bound):
    """``contracted_multiplicities`` as a ``Counter`` over the irrep tuples
    that occur."""
    grid, lo = contracted_multiplicities(graph, group, bound)
    cells = np.argwhere(grid > 0)
    return Counter(dict(zip(map(tuple, (cells + lo).tolist()), grid[grid > 0].tolist())))


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


# the two routes meet on systems the per-block ledger still reaches: K4 with
# spin up to 1 (the per-block ledger takes seconds there) and the cube with
# spin up to 1/2
LEDGER_RUNGS = {"su2-k4-b4": (k4_graph, 4), "su2-cube-b1": (cube_graph, 1)}
LEDGER_RUNGS.update({name: (graph, bound) for name, (graph, bound, _) in SYSTEMS.items()})


@pytest.mark.parametrize("name", list(LEDGER_RUNGS))
def test_contraction_matches_the_clebsch_gordan_ledger(name):
    graph, bound = LEDGER_RUNGS[name]
    assert contracted_counter(graph(), SU2, bound) == irrep_multiplicities(graph(), bound)
    assert ledger_by_contraction(graph(), SU2, bound) == ledger(graph(), bound)


@pytest.mark.parametrize(
    "graph,bound", [(k4_graph, 2), (k4_graph, 4), (cube_graph, 1)], ids=["u1-k4-b2", "u1-k4-b4", "u1-cube-b1"]
)
def test_contraction_matches_the_flux_count(graph, bound):
    assert contracted_counter(graph(), U1, bound) == flux_multiplicities(graph(), bound)


# counts past the per-block ledger: (dim A^K, dim H^K, dim ker pi) by
# contraction alone, frozen here; K4 with spin up to 7/2, 4 and 9/2 equal
# whole ``verify --nmax 2`` reports
CONTRACTED = {
    "su2-k4-b5": (k4_graph, 5, (15828205933597, 1479, 15828203746156)),
    "su2-cube-b2": (cube_graph, 2, (35287146051733, 1013, 35287145025564)),
    "su2-k4-b6": (k4_graph, 6, (472511388812326, 3418, 472511377129602)),
    "su2-k4-b7": (k4_graph, 7, (9290750536742346, 7094, 9290750486417510)),
    "su2-k4-b8": (k4_graph, 8, (131749224915343833, 13691, 131749224727900352)),
    "su2-k4-b9": (k4_graph, 9, (1436846065139194339, 24694, 1436846064529400703)),
}


@pytest.mark.parametrize("name", list(CONTRACTED))
def test_contraction_fixes_the_rungs_past_the_per_block_ledger(name):
    graph, bound, counts = CONTRACTED[name]
    assert ledger_by_contraction(graph(), SU2, bound) == counts


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


def run_file(graph, group, bound):
    """The text of a run file for ``graph`` at the label bound ``bound``."""
    edges = "".join(f"edge = {e.id} {e.source} {e.target}\n" for e in graph.edges)
    head = f"[group]\nkind = {group}\n\n[graph]\nvertices = {' '.join(graph.vertices)}\n"
    return f"{head}{edges}\n[truncation]\nbound = {bound}\n"


@pytest.mark.parametrize(
    "group,graph,bound,method,mib",
    [
        (SU2, square_graph, 3, "lie", 768),
        (SU2, pentagon_graph, 2, "quad", 768),
        (SU2, k4_graph, 2, "lie", 768),
        (SU2, k4_graph, 2, "quad", 768),
        (SU2, cube_graph, 1, "lie", 768),
        (SU2, cube_graph, 1, "quad", 768),
        (SU2, k4_graph, 4, "lie", 768),
        (SU2, k4_graph, 4, "quad", 768),
        (SU2, k4_graph, 5, "lie", 768),
        (SU2, k4_graph, 5, "quad", 768),
        (SU2, cube_graph, 2, "lie", 832),
        (SU2, cube_graph, 2, "quad", 832),
        (SU2, k4_graph, 6, "lie", 384),
        (SU2, k4_graph, 6, "quad", 384),
        (U1, k4_graph, 5, "lie", 512),
    ],
    ids=[
        "su2-square-b3-lie",
        "su2-pentagon-b2-quad",
        "su2-k4-b2-lie",
        "su2-k4-b2-quad",
        "su2-cube-b1-lie",
        "su2-cube-b1-quad",
        "su2-k4-b4-lie",
        "su2-k4-b4-quad",
        "su2-k4-b5-lie",
        "su2-k4-b5-quad",
        "su2-cube-b2-lie",
        "su2-cube-b2-quad",
        "su2-k4-b6-lie",
        "su2-k4-b6-quad",
        "u1-k4-b5-lie",
    ],
)
def test_su2_frontier_verifies_in_a_capped_process(tmp_path, group, graph, bound, method, mib):
    # a square with spin up to 3/2 (blocks up to 4^8 = 65,536 dimensions), a
    # pentagon and K4 with spin up to 1 (up to 3^10 = 59,049 and 3^12 =
    # 531,441), the cube with spin up to 1/2 (up to 2^24 = 16,777,216), K4
    # with spin up to 2 and 5/2 (19,100,382 block components at 5/2) and the
    # cube with spin up to 1 (398,665,688 block components, 2,852,071
    # components): a block is split vertex by vertex and the sums over
    # blocks are contractions of the vertices' tables over the edge labels,
    # so no array of a block's length is built, nor one with an entry per
    # copy or per block component (on the cube with spin up to 1, one int64
    # entry per block component would be 3.2 GB), and a whole `verify`
    # process passes with its address space capped at 768 MiB, or 832 MiB on
    # the cube with spin up to 1, whose contraction holds grids of up to
    # 22,235,661 entries.  K4 with spin up to 3 (117,649 blocks, 3,418
    # invariants) passes under 384 MiB: the kernel takes one SVD per block, no
    # wider than the block's invariants, and reads its kept pairs off the
    # sorted singular values a run of rows at a time, so it holds no 3,418 x
    # 3,418 array, and no cached split holds a copy basis.  The child sets
    # the cap on itself before it imports anything else.  Its counts are the contracted
    # Clebsch-Gordan ledger's (``ledger_by_contraction``).  Both methods run
    # on K4 and the cube, since only the Haar projector finds the invariants
    # by other means than the raising operators that also find the copies.
    # u1 K4 b5 (1,771,561 blocks) passes under 512 MiB: its weights are one
    # integer product of the label array, and the report lists no blocks; its
    # counts are flux counting's, and its first power already reaches all of
    # ker(pi)
    g = graph()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(run_file(g, group.value, bound))
    out = tmp_path / "report.json"
    capped = (
        "import resource, runpy, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({mib} * 2**20, {mib} * 2**20))\n"
        "sys.argv[0] = 'gaugereduce'\n"
        "runpy.run_module('gaugereduce', run_name='__main__')\n"
    )
    argv = ["verify", "--config", str(cfg), "--nmax", "2", "--method", method, "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c", capped, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(out.read_text())
    if group is SU2:
        dim_ak, hk, kk = ledger_by_contraction(g, SU2, bound)
    else:
        mult = flux_multiplicities(g, bound)
        hk, dim_ak = mult[(0,) * len(g.vertices)], sum(m * m for m in mult.values())
        kk = dim_ak - hk * hk
    assert (report["dim_AK"], report["dim_HK"], report["dim_ker_pi"]) == (dim_ak, hk, kk)
    first = 0 if group is SU2 else kk
    assert report["pass"] and [row["dim_ideal"] for row in report["per_nmax"]] == [first, kk]


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
        (k4_graph, 4, (81545697, 369, 81409536), 80),
        (cube_graph, 1, (5756661, 69, 5751900), 144),
        (k4_graph, 5, (493679879, 671, 493229638), 272),
    ],
    ids=["u1-triangle-b3", "u1-square-b2", "u1-k4-b2", "u1-k4-b4", "u1-cube-b1", "u1-k4-b5"],
)
def test_u1_flux_count_fixes_a_verify_past_a_thousand(graph, bound, counts, mib):
    # ker(pi) is read off the one component pi sees, so verify holds nothing
    # of length dim A^K, and no matrix of pi: on u1 K4 b2 that matrix alone
    # would be 65^2 x 426,425 complex, 26.8 GiB; its traced peak stays below 64 MiB.
    # Past half a million blocks (K4 b4, the cube b1, K4 b5 with 1,771,561)
    # the truncation and every one-dimensional block stay arrays, the weights
    # are one integer product of the label array, and the per-block
    # dimensions are never built, so the traced peak, Truncation included,
    # stays below the bound.  The brute-force count of balanced
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
def test_u1_contraction_matches_the_flux_count(name):
    graph, bound = U1_SYSTEMS[name]
    assert contracted_counter(graph(), U1, bound) == flux_multiplicities(graph(), bound)


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
