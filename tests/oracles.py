"""Reference routes that the library no longer takes, kept for comparison.

The library builds the commutant from the gauge irreps of each block and
closes ideals component by component.  The routes here know nothing of
irreps: the commutant is the null space of the Kronecker-expanded
commutator constraints, one pair of blocks at a time, and the ideal is
reached by a round-based sweep of left and right multiplications through
the sparse structure tables.  They are slow but independent.  Subspaces
are dense orthonormal row bases here: ``ker(pi)`` is the full-SVD null
space of ``pi_matrix``, and the distance between two subspaces is read off
an eigendecomposition of the difference of their projectors.  A Gauss
generator is also built here the long way, as one full Kronecker chain of
per-edge factors for every edge at the vertex, and a Haar average over
``G^V`` as one sweep of the product scheme, ``|S|^V`` points, instead of
one average per vertex.
"""

import itertools

import numpy as np
from scipy.linalg import null_space

from gaugereduce import EquivariantSpace, SubspaceBasis
from gaugereduce.blocks import kron_chain
from gaugereduce.groups import haar_scheme, irrep_generator
from gaugereduce.lattice import GaugeElement, block_generators, rho_block
from gaugereduce.reduction import RANK_RTOL, pi_matrix

MINIMUM_SEED = 1e-12


def element_op(space, k):
    """Basis element ``k`` of the commutant as a full-space matrix."""
    return op_from_coords(space, np.eye(space.dim)[k])


def op_from_coords(space, w):
    """The commutant element with coordinates ``w``, as a full-space matrix."""
    off = space.trunc.offsets
    out = np.zeros((space.trunc.total_dim,) * 2, dtype=complex)
    for c, (i, j, m) in zip(w, space.elements):
        out[off[i] : off[i + 1], off[j] : off[j + 1]] += c * m
    return out


def coords_of_matrix(space, x):
    """Commutant coordinates of a full-space matrix, read block pair by
    block pair through ``space.coords_of``."""
    off = space.trunc.offsets
    n = len(space.trunc.blocks)
    return sum(
        space.coords_of(i, j, x[off[i] : off[i + 1], off[j] : off[j + 1]])
        for i in range(n)
        for j in range(n)
    )


def product_scheme(graph, group, band):
    """Exact Haar quadrature over one copy of the group per vertex: every
    tuple of per-vertex scheme points, weighted by the product of their
    weights."""
    one = haar_scheme(group, band)
    nv = len(graph.vertices)
    for combo in itertools.product(range(len(one.points)), repeat=nv):
        g = GaugeElement(graph, tuple(one.points[k] for k in combo))
        yield float(np.prod([one.weights[k] for k in combo])), g


def product_projector(block, band):
    """Invariant projector of a block as one sweep of the product scheme."""
    out = np.zeros((block.dim, block.dim), dtype=complex)
    for w, g in product_scheme(block.graph, block.labels[0].group, band):
        out += w * rho_block(block, g)
    return out


def kron_generator(block, gen):
    """Block matrix of a vertex Gauss generator: for each edge at the
    vertex, the Kronecker chain of its piece with identities on every other
    edge."""
    graph = block.graph
    d = block.dim
    out = np.zeros((d, d), dtype=complex)
    for e, lab in zip(graph.edges, block.labels):
        x = irrep_generator(lab, gen.lie_index)
        de = lab.dim
        piece = np.zeros((de * de, de * de), dtype=complex)
        if e.source == gen.vertex:
            piece += np.kron(np.conj(x), np.eye(de))
        if e.target == gen.vertex:
            piece += np.kron(np.eye(de), x)
        if not piece.any():
            continue
        factors = [
            piece if f.id == e.id else np.eye(l.dim**2)
            for f, l in zip(graph.edges, block.labels)
        ]
        out += kron_chain(factors)
    return out


def _pair_solutions(gi, gj, di, dj):
    """Matrices intertwining the generator lists of two blocks."""
    if di == 1 and dj == 1:
        ok = all(abs(a[0, 0] - b[0, 0]) <= RANK_RTOL for a, b in zip(gi, gj))
        return [np.ones((1, 1), complex)] if ok else []
    rows = []
    idn_i = np.eye(di)
    idn_j = np.eye(dj)
    for a, b in zip(gi, gj):
        rows.append(np.kron(a, idn_j) - np.kron(idn_i, b.T))
    ns = null_space(np.vstack(rows), rcond=RANK_RTOL)
    return [ns[:, k].reshape(di, dj) for k in range(ns.shape[1])]


def pair_commutant(trunc):
    """Commutant basis solved pair of blocks by pair of blocks."""
    gens = [block_generators(b) for b in trunc.blocks]
    elements = []
    n = len(trunc.blocks)
    for i in range(n):
        for j in range(n):
            for m in _pair_solutions(gens[i], gens[j], trunc.dims[i], trunc.dims[j]):
                elements.append((i, j, m))
    return EquivariantSpace(trunc, elements)


def round_closure(space, seeds, start=None, rtol=RANK_RTOL):
    """Two-sided ideal generated by the seed rows, by repeated left and
    right multiplication with the basis until no new direction appears."""
    left, right = space.structure_maps()
    q = space.dim
    basis = start.vectors.copy() if start is not None else np.zeros((0, q), complex)

    def absorb(rows):
        nonlocal basis
        if rows.shape[0] == 0:
            return rows
        for _ in range(2):
            if basis.shape[0]:
                rows = rows - (rows @ basis.conj().T) @ basis
        norms = np.linalg.norm(rows, axis=1)
        rows = rows[norms > MINIMUM_SEED]
        if rows.shape[0] == 0:
            return rows
        _, s, vh = np.linalg.svd(rows, full_matrices=False)
        fresh = vh[s > rtol * max(1.0, s[0])]
        basis = np.vstack([basis, fresh]) if basis.shape[0] else fresh
        return fresh

    norms = np.linalg.norm(seeds, axis=1) if seeds.shape[0] else np.zeros(0)
    live = seeds[norms > MINIMUM_SEED]
    if live.shape[0]:
        live = live / np.linalg.norm(live, axis=1, keepdims=True)
    pending = absorb(live)
    while pending.shape[0]:
        batches = []
        for w in pending:
            for table in (left, right):
                block = (table @ w).reshape(q, q)
                keep = np.linalg.norm(block, axis=1) > MINIMUM_SEED
                if keep.any():
                    batches.append(block[keep])
        pending = absorb(np.vstack(batches)) if batches else np.zeros((0, q), complex)
    return SubspaceBasis(q, basis)


def mask_basis(ideal):
    """The identity rows of an ideal's masked coordinates, as a basis."""
    keep = np.flatnonzero(ideal.mask)
    basis = np.zeros((keep.size, ideal.mask.size), dtype=complex)
    basis[np.arange(keep.size), keep] = 1.0
    return SubspaceBasis(ideal.mask.size, basis)


def dense_kernel_basis(space, inv):
    """Orthonormal rows spanning ``ker(pi)``: the full-SVD null space of
    ``pi_matrix``, or the whole commutant when there are no invariants."""
    q = space.dim
    if inv.dim == 0:
        return SubspaceBasis(q, np.eye(q, dtype=complex))
    return SubspaceBasis(q, null_space(pi_matrix(space, inv), rcond=RANK_RTOL).T)


def project_out(basis, rows):
    """Components of the given rows orthogonal to the subspace."""
    if basis.dim == 0:
        return rows
    return rows - (rows @ basis.vectors.conj().T) @ basis.vectors


def subspace_distance(u, v):
    """Operator-norm distance between the orthogonal projectors."""
    if u.dim == 0 and v.dim == 0:
        return 0.0
    n = u.ambient_dim
    pu = u.vectors.conj().T @ u.vectors if u.dim else np.zeros((n, n))
    pv = v.vectors.conj().T @ v.vectors if v.dim else np.zeros((n, n))
    return float(np.max(np.abs(np.linalg.eigvalsh(pu - pv))))


def containment_residual(inner, outer):
    """Largest leftover norm when projecting the inner basis on the outer."""
    if inner.dim == 0:
        return 0.0
    rest = project_out(outer, inner.vectors)
    return float(np.max(np.linalg.norm(rest, axis=1)))
