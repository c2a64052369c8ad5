"""Isotypical blocks of the field Hilbert space under two-sided translation.

The square-integrable functions on G^edges decompose into blocks indexed by
one irrep label per edge.  The block of labels ``(d_e)`` has an orthonormal
basis of rescaled matrix coefficients

    psi_{m,n}(a) = prod_e sqrt(dim d_e) * D^{d_e}(a_e)[m_e, n_e],

and carries left translation on the row indices and right translation on
the column indices, edge by edge.  We keep the (row, column) index pair of
each edge together and flatten row-major, then take the Kronecker product
over edges in declaration order; a block therefore has dimension
``prod_e dim(d_e)**2``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .groups import GroupId, GroupPoint, IrrepLabel, irrep_matrix, labels_within


@dataclass(frozen=True)
class BlockLabel:
    """One irrep label of ``group`` per edge, in edge declaration order."""

    graph: Graph
    group: GroupId
    labels: tuple[IrrepLabel, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.graph.edges):
            raise ValueError("need exactly one label per edge")
        if any(lab.group is not self.group for lab in self.labels):
            raise ValueError("every label must belong to the block's group")

    @property
    def dim(self) -> int:
        return math.prod(lab.dim**2 for lab in self.labels)

    def __repr__(self) -> str:
        inner = ",".join(str(lab.value) for lab in self.labels)
        return f"BlockLabel({inner})"


class Truncation:
    """All blocks with every edge label of degree at most a bound, held as
    arrays: ``labels[i]`` has block ``i``'s label values, one per edge, in
    lexicographic order over edges in declaration order (first edge
    slowest); ``dims`` and ``offsets`` their dimensions and starts, built on
    first read.  ``total_dim`` is ``(sum_label dim^2)^E``.  A ``BlockLabel``
    is built on demand (``block``, ``blocks``)."""

    def __init__(self, graph: Graph, group: GroupId, bound: IrrepLabel):
        if bound.group is not group:
            raise ValueError("bound label belongs to a different group")
        self.graph = graph
        self.group = group
        self.bound = bound
        per_edge = labels_within(group, bound)
        n, ne = len(per_edge), len(graph.edges)
        which = np.indices((n,) * ne, dtype=np.min_scalar_type(n - 1)).reshape(ne, n**ne).T
        self.labels = np.array([lab.value for lab in per_edge])[which]  # edgeless: one block
        self.total_dim = sum(lab.dim**2 for lab in per_edge) ** ne

    @functools.cached_property
    def dims(self) -> np.ndarray:
        per_edge = labels_within(self.group, self.bound)  # consecutive values, ascending
        squares = np.array([lab.dim**2 for lab in per_edge])
        return np.prod(squares[self.labels - per_edge[0].value], axis=1)

    @functools.cached_property
    def offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.dims)])

    def block(self, i: int) -> BlockLabel:
        labels = tuple(IrrepLabel(self.group, v) for v in self.labels[i].tolist())
        return BlockLabel(self.graph, self.group, labels)

    @functools.cached_property
    def blocks(self) -> tuple[BlockLabel, ...]:
        return tuple(self.block(i) for i in range(len(self.labels)))

    def __repr__(self) -> str:
        return (
            f"Truncation({self.group.value}, bound={self.bound.value}, "
            f"{len(self.labels)} blocks, dim={self.total_dim})"
        )


def kron_chain(mats) -> np.ndarray:
    return functools.reduce(np.kron, mats, np.array([[1.0 + 0j]]))


def regular_action_block(
    block: BlockLabel, edge_id: str, left: GroupPoint | None, right: GroupPoint | None
) -> np.ndarray:
    """Matrix of a one-edge two-sided translation on the block.

    Left translation by ``g`` sends psi(a) to psi(g^{-1} a) and acts on the
    row index as ``conj(D(g))``; right translation by ``h`` sends psi(a) to
    psi(a h) and acts on the column index as ``D(h)``.
    """
    factors = []
    for e, lab in zip(block.graph.edges, block.labels):
        d = lab.dim
        if e.id == edge_id:
            lm = np.conj(irrep_matrix(lab, left)) if left is not None else np.eye(d)
            rm = irrep_matrix(lab, right) if right is not None else np.eye(d)
            factors.append(np.kron(lm, rm))
        else:
            factors.append(np.eye(d * d))
    return kron_chain(factors)
