"""Finite oriented graphs carrying lattice gauge data.

Vertices are named by strings.  Edges are ordered pairs (source, target);
loops and parallel edges are allowed.  The edge declaration order is
significant: tensor factors throughout the package follow it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Edge:
    id: str
    source: str
    target: str


class Graph:
    """An oriented multigraph with a fixed edge order."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        self.edges = tuple(
            e if isinstance(e, Edge) else Edge(*e) for e in edges
        )
        seen = set()
        vset = set(self.vertices)
        for e in self.edges:
            if e.id in seen:
                raise ValueError(f"duplicate edge id {e.id!r}")
            seen.add(e.id)
            if e.source not in vset or e.target not in vset:
                raise ValueError(f"edge {e.id!r} touches an unknown vertex")
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.edge_index = {e.id: i for i, e in enumerate(self.edges)}

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"
