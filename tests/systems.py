"""Shared example systems: small graphs with known reduction data.

The expected counts below were derived by hand before the implementation
existed and are frozen; see the individual test modules for the
independent routes that recompute them.
"""

import itertools

from gaugereduce import Graph, IrrepLabel, Truncation
from gaugereduce.groups import GroupId

U1 = GroupId.U1
SU2 = GroupId.SU2


def edge_graph():
    return Graph(("x", "y"), [("e", "x", "y")])


def parallel_graph():
    return Graph(("x", "y"), [("e", "x", "y"), ("f", "x", "y")])


def triangle_graph():
    return Graph(
        ("x", "y", "z"), [("a", "x", "y"), ("b", "y", "z"), ("c", "z", "x")]
    )


def square_graph():
    return Graph(
        ("w", "x", "y", "z"),
        [("a", "w", "x"), ("b", "x", "y"), ("c", "y", "z"), ("d", "z", "w")],
    )


def theta_graph():
    """Two vertices joined by three edges, one of them reversed: three edge
    ends at each vertex, so a block can hold an irrep more than once."""
    return Graph(("x", "y"), [("a", "x", "y"), ("b", "x", "y"), ("c", "y", "x")])


def k4_graph():
    """The complete graph on four vertices: six edges, three ends at each."""
    vertices = ("w", "x", "y", "z")
    return Graph(vertices, [(a + b, a, b) for a, b in itertools.combinations(vertices, 2)])


def cube_graph():
    """The cube: eight vertices, twelve edges, each from the vertex with a 0
    in one coordinate to the vertex with a 1 there."""
    vertices = ["".join(bits) for bits in itertools.product("01", repeat=3)]
    edges = [
        (v + "-" + v[:k] + "1" + v[k + 1 :], v, v[:k] + "1" + v[k + 1 :])
        for v in vertices
        for k in range(3)
        if v[k] == "0"
    ]
    return Graph(vertices, edges)


def loop_graph():
    return Graph(("x",), [("l", "x", "x")])


def loops_and_parallels():
    """A loop, two parallel edges and one reversed edge on two vertices."""
    edges = [("l", "x", "x"), ("e", "x", "y"), ("f", "x", "y"), ("g", "y", "x")]
    return Graph(("x", "y"), edges)


def isolated_vertex_graph():
    """A loop and a reversed pair of edges, next to a vertex no edge meets."""
    return Graph(("x", "y", "z"), [("l", "x", "x"), ("e", "x", "y"), ("f", "y", "x")])


def edgeless_graph():
    return Graph(("x", "y"), [])


def make(graph, group, bound):
    return Truncation(graph, group, IrrepLabel(group, bound))


# name -> (graph builder, group, bound,
#          dim commutant, dim invariants, dim kernel, saturating power)
CANON = {
    "u1-edge-b1": (edge_graph, U1, 1, 3, 1, 2, 1),
    "u1-edge-b2": (edge_graph, U1, 2, 5, 1, 4, 1),
    "u1-parallel-b1": (parallel_graph, U1, 1, 19, 3, 10, 1),
    "u1-parallel-b2": (parallel_graph, U1, 2, 85, 5, 60, 1),
    "u1-triangle-b1": (triangle_graph, U1, 1, 45, 3, 36, 1),
    "u1-triangle-b2": (triangle_graph, U1, 2, 325, 5, 300, 1),
    "u1-loop-b1": (loop_graph, U1, 1, 9, 3, 0, 1),
    "su2-loop-j1": (loop_graph, SU2, 1, 5, 2, 1, 2),
    "su2-loop-j2": (loop_graph, SU2, 2, 14, 3, 5, 2),
    "su2-edge-j1": (edge_graph, SU2, 1, 2, 1, 1, 2),
    "su2-edge-j2": (edge_graph, SU2, 2, 3, 1, 2, 2),
}

SMALL = [k for k in CANON if k not in ("u1-triangle-b2", "u1-parallel-b2")]

# SU(2) systems at the frontier, spin up to 1 on every edge, in the format of
# CANON; their counts are the Clebsch-Gordan ledger's (test_multiplicity.py)
FRONTIER = {
    "su2-triangle-j1": (triangle_graph, SU2, 2, 359, 3, 350, 2),
    "su2-theta-j1": (theta_graph, SU2, 2, 4117, 11, 3996, 2),
    "su2-square-j1": (square_graph, SU2, 2, 2018, 3, 2009, 2),
}


def build(name):
    builder, group, bound, *_ = CANON[name] if name in CANON else FRONTIER[name]
    return make(builder(), group, bound)
