"""Gauge transformations and their action on the isotypical blocks.

A connection assigns a group element to every edge.  A gauge transformation
assigns a group element to every vertex and acts on connections by

    (g . a)_e = g_{source(e)} * a_e * g_{target(e)}^{-1},

The unitary on block functions is ``(rho(g) psi)(a) = psi(g^{-1} . a)``,
which per edge reads

    conj(D(g_source)) (x) D(g_target)

on the (row, column) index pair.  The vertex Lie generators accordingly
place ``conj(dD(X))`` on row factors of outgoing edges and ``dD(X)`` on
column factors of incoming ones; a loop at the vertex receives both on its
single tensor factor.

All of a block's generators are built in one sweep over its edges.  Each
edge end adds ``1_pre (x) piece (x) 1_post`` to the generator of its vertex,
where ``pre`` and ``post`` are the dimensions of the edges before and after
it and the piece, ``conj(dD(X)) (x) 1`` at the source or ``1 (x) dD(X)`` at
the target, is cached per irrep label and Lie direction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .blocks import BlockLabel, kron_chain
from .graphs import Graph
from .groups import (
    GroupId,
    GroupPoint,
    IrrepLabel,
    irrep_generator,
    irrep_matrix,
    lie_dim,
)


@dataclass(frozen=True)
class GaugeElement:
    """One group element per vertex."""

    graph: Graph
    points: tuple[GroupPoint, ...]

    def __post_init__(self) -> None:
        if len(self.points) != len(self.graph.vertices):
            raise ValueError("need exactly one point per vertex")

    def at(self, vertex: str) -> GroupPoint:
        return self.points[self.graph.vertex_index[vertex]]


@dataclass(frozen=True)
class Connection:
    """One group element per edge."""

    graph: Graph
    points: tuple[GroupPoint, ...]

    def __post_init__(self) -> None:
        if len(self.points) != len(self.graph.edges):
            raise ValueError("need exactly one point per edge")

    def at(self, edge_id: str) -> GroupPoint:
        return self.points[self.graph.edge_index[edge_id]]


@dataclass(frozen=True)
class VertexGenerator:
    """A Lie algebra basis direction attached to one vertex."""

    vertex: str
    lie_index: int


def rho_block(block: BlockLabel, g: GaugeElement) -> np.ndarray:
    """Matrix of the gauge transformation on one block."""
    factors = []
    for e, lab in zip(block.graph.edges, block.labels):
        lm = np.conj(irrep_matrix(lab, g.at(e.source)))
        rm = irrep_matrix(lab, g.at(e.target))
        factors.append(np.kron(lm, rm))
    return kron_chain(factors)


@functools.cache
def _edge_pieces(label: IrrepLabel, lie_index: int):
    """A Lie direction on one edge's (row, column) pair, acting at the
    edge's source and at its target.  Read-only: the cache shares them."""
    x = irrep_generator(label, lie_index)
    one = np.eye(label.dim)
    pieces = (np.kron(np.conj(x), one), np.kron(one, x))
    for piece in pieces:
        piece.setflags(write=False)
    return pieces


def _generators(block: BlockLabel, wanted: list[VertexGenerator]) -> np.ndarray:
    """The generators ``wanted`` as one ``(n, d, d)`` array, from one sweep
    over the block's edges; each receives its terms in edge order, the
    source end before the target end."""
    slots = {(g.vertex, g.lie_index): s for s, g in enumerate(wanted)}
    lie = sorted({g.lie_index for g in wanted})
    d, pre = block.dim, 1
    out = np.zeros((len(wanted), d, d), dtype=complex)
    for e, lab in zip(block.graph.edges, block.labels):
        width = lab.dim**2
        post = d // (pre * width)
        for k in lie:
            for piece, end in zip(_edge_pieces(lab, k), (e.source, e.target)):
                if (end, k) not in slots:
                    continue
                if pre * post > 1:
                    piece = np.kron(np.kron(np.eye(pre), piece), np.eye(post))
                out[slots[end, k]] += piece
        pre *= width
    return out


def gauss_generator_block(block: BlockLabel, gen: VertexGenerator) -> np.ndarray:
    """Block matrix of d/dt rho(exp(t X)) at t = 0 for a vertex generator."""
    return _generators(block, [gen])[0]


def lie_directions(block: BlockLabel) -> range:
    """The Lie indices of the block's group."""
    return range(lie_dim(block.group))


def block_generators(block: BlockLabel) -> np.ndarray:
    """All vertex Gauss generators of the block as one array, vertex-major
    then Lie index."""
    lie = lie_directions(block)
    return _generators(block, [VertexGenerator(v, k) for v in block.graph.vertices for k in lie])


def basis_values(block: BlockLabel, a: Connection) -> np.ndarray:
    """Values of the block's orthonormal basis functions at a connection.

    Returns a vector over the block's (row, column) index pairs; entry
    ``(m, n)`` is ``prod_e sqrt(dim) * D(a_e)[m_e, n_e]``.
    """
    factors = []
    for e, lab in zip(block.graph.edges, block.labels):
        m = irrep_matrix(lab, a.at(e.id))
        factors.append(np.sqrt(lab.dim) * m.reshape(-1, 1))
    return kron_chain(factors).ravel()


def vertex_flux(block: BlockLabel, vertex: str) -> int:
    """U(1) charge imbalance at a vertex: incoming minus outgoing labels.

    The single Gauss generator of a U(1) block at the vertex is ``1j`` times
    this integer, so a block meets the gauge-invariant subspace exactly when
    every vertex flux vanishes.
    """
    if block.group is not GroupId.U1:
        raise ValueError("vertex flux is defined for U(1) blocks only")
    flux = 0
    for e, lab in zip(block.graph.edges, block.labels):
        if e.target == vertex:
            flux += lab.value
        if e.source == vertex:
            flux -= lab.value
    return flux
