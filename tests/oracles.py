"""Reference routes that the library no longer takes, kept for comparison.

The library builds the commutant from the gauge irreps of each block, holds
each matrix unit as the index of two copies, and closes ideals component by
component.  The routes here know nothing of irreps: a commutant basis is a
list of dense block-pair matrices (``DenseSpace``), the one found as the
null space of the Kronecker-expanded commutator constraints, one pair of
blocks at a time, or the library's matrix units written out; products are
resolved numerically into its span, which is checked; and the ideal is
reached by a round-based sweep of left and right multiplications through
those numeric product tables.  They are slow but independent.  Subspaces
are dense orthonormal row bases here: ``ker(pi)`` is the full-SVD null
space of ``pi_matrix``, and the distance between two subspaces is read off
an eigendecomposition of the difference of their projectors.  A Gauss
generator is also built here the long way, as one full Kronecker chain of
per-edge factors for every edge at the vertex, and a Haar average over
``G^V`` as one sweep of the product scheme, ``|S|^V`` points, instead of
one average per vertex.  The claim that summing the generators over an
energy level leaves the ideal as it is gets its own route
(``level_summed_masks``), which cuts roundoff only after summing.
"""

import itertools

import numpy as np
from scipy.linalg import null_space
from scipy.sparse import csr_matrix

from gaugereduce import SubspaceBasis
from gaugereduce.blocks import kron_chain
from gaugereduce.groups import haar_scheme, irrep_generator
from gaugereduce.lattice import GaugeElement, block_generators, rho_block
from gaugereduce.reduction import RANK_RTOL, pi_matrix

MINIMUM_SEED = 1e-12


class SpanConsistencyError(RuntimeError):
    """A product of commutant elements left their numerical span."""


class DenseSpace:
    """A commutant basis held as dense matrices.

    Element ``k`` is a triple ``(i, j, m)``: a matrix ``m`` mapping block
    ``j`` into block ``i``.  The elements are orthonormal in the Frobenius
    inner product; nothing else about them is assumed.
    """

    def __init__(self, trunc, elements):
        self.trunc = trunc
        self.elements = tuple(elements)
        self.by_pair = {}
        for k, (i, j, _) in enumerate(self.elements):
            self.by_pair.setdefault((i, j), []).append(k)

    @property
    def dim(self):
        return len(self.elements)

    def coords_of(self, i, j, m):
        """Coordinates of the operator that is ``m`` from block ``j`` into
        block ``i`` and zero elsewhere: its inner products with the basis."""
        out = np.zeros(self.dim, dtype=complex)
        for k in self.by_pair.get((i, j), ()):
            out[k] = np.vdot(self.elements[k][2], m)
        return out

    def structure_maps(self):
        """Sparse product tables: row ``j*q + m`` of ``L @ w`` is the m-th
        coordinate of ``basis[j] @ op(w)``, and of ``R @ w`` the m-th
        coordinate of ``op(w) @ basis[j]``, each product resolved into the
        basis by inner products.

        Raises ``SpanConsistencyError`` if any pairwise product fails to be
        resolved inside the basis span, which would falsify every closure
        computed from the tables.
        """
        q = self.dim
        by_row, by_col = {}, {}
        for k, (i, j, _) in enumerate(self.elements):
            by_row.setdefault(i, []).append(k)
            by_col.setdefault(j, []).append(k)
        lrows, lcols, lvals = [], [], []
        rrows, rcols, rvals = [], [], []
        for mid in by_col:
            for a in by_col[mid]:  # basis[a] ends in block `mid`
                ia, _, ma = self.elements[a]
                for b in by_row.get(mid, ()):  # basis[b] starts there
                    _, jb, mb = self.elements[b]
                    prod = ma @ mb
                    norm2 = np.vdot(prod, prod).real
                    resolved = 0.0
                    for m in self.by_pair.get((ia, jb), ()):
                        c = np.vdot(self.elements[m][2], prod)
                        if abs(c) > 0:
                            lrows.append(a * q + m)
                            lcols.append(b)
                            lvals.append(c)
                            rrows.append(b * q + m)
                            rcols.append(a)
                            rvals.append(c)
                            resolved += abs(c) ** 2
                    if norm2 - resolved > RANK_RTOL * max(1.0, norm2):
                        raise SpanConsistencyError(
                            f"product of elements {a} and {b} leaves the span "
                            f"(missing weight {norm2 - resolved:.3e})"
                        )
        shape = (q * q, q)
        return (
            csr_matrix((lvals, (lrows, lcols)), shape=shape),
            csr_matrix((rvals, (rrows, rcols)), shape=shape),
        )


def element_matrix(space, k):
    """Basis element ``k`` as ``(i, j, m)``, ``m`` a dense matrix from block
    ``j`` into block ``i``: for the library's commutant, the matrix unit
    ``u_a u_b^H / sqrt(dim)`` of its copy index ``(i, a, j, b)``."""
    if isinstance(space, DenseSpace):
        return space.elements[k]
    i, a, j, b = space.elements[k]
    ua = space.bases[i][:, space.copies[i][a][1]]
    ub = space.bases[j][:, space.copies[j][b][1]]
    return i, j, ua @ ub.conj().T / np.sqrt(ua.shape[1])


def dense_space(space):
    """The library's commutant basis written out as dense matrices, in the
    same order."""
    return DenseSpace(space.trunc, [element_matrix(space, k) for k in range(space.dim)])


def element_op(space, k):
    """Basis element ``k`` of the commutant as a full-space matrix."""
    return op_from_coords(space, np.eye(space.dim)[k])


def op_from_coords(space, w):
    """The commutant element with coordinates ``w``, as a full-space matrix."""
    off = space.trunc.offsets
    out = np.zeros((space.trunc.total_dim,) * 2, dtype=complex)
    for k in np.flatnonzero(w):
        i, j, m = element_matrix(space, k)
        out[off[i] : off[i + 1], off[j] : off[j + 1]] += w[k] * m
    return out


def coords_of(space, i, j, m):
    """Coordinates of the operator that is ``m`` from block ``j`` into block
    ``i`` and zero elsewhere.  A library space is read through its copy
    bases: element ``(i, a, j, b)`` takes the normalised trace of the copy
    block ``(a, b)`` of ``U_i^H m U_j``.  A ``DenseSpace`` is read by inner
    products."""
    if isinstance(space, DenseSpace):
        return space.coords_of(i, j, m)
    out = np.zeros(space.dim, dtype=complex)
    x = space.bases[i].conj().T @ m @ space.bases[j]
    for k in space.by_pair.get((i, j), ()):
        _, a, _, b = space.elements[k]
        rows, cols = space.copies[i][a][1], space.copies[j][b][1]
        out[k] = np.trace(x[rows, cols]) / np.sqrt(rows.stop - rows.start)
    return out


def coords_of_matrix(space, x):
    """Commutant coordinates of a full-space matrix, read block pair by
    block pair through ``coords_of``."""
    off = space.trunc.offsets
    n = len(space.trunc.blocks)
    return sum(
        coords_of(space, i, j, x[off[i] : off[i + 1], off[j] : off[j + 1]])
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
    for w, g in product_scheme(block.graph, block.group, band):
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
    return DenseSpace(trunc, elements)


def round_closure(space, seeds, start=None, rtol=RANK_RTOL):
    """Two-sided ideal generated by the seed rows, by repeated left and
    right multiplication with the ``DenseSpace`` basis until no new
    direction appears."""
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


def level_summed_masks(space, groups, n_max):
    """The ideal generated by the Lie-route averages of the generator powers
    summed over each group of blocks, as one cumulative mask per power.

    For each group, vertex, Lie direction and power, the uncut copy-basis
    coordinates of the power on every block of the group are added.  A
    component is touched when the summed coordinates' norm on it exceeds
    ``RANK_RTOL`` times the Frobenius norm of the group's summed power, the
    direct sum of its blocks' powers.  The library cuts each block against
    its own power instead, so the two masks agree only when no block's
    weight on a component is lost against a larger block of its group."""
    trunc = space.trunc
    gens = [block_generators(block) for block in trunc.blocks]
    touched = np.zeros((n_max, len(space.irreps)), dtype=bool)
    for members in groups:
        for g in range(len(gens[members[0]])):  # one (vertex, Lie direction)
            powers = {i: np.eye(trunc.dims[i]) for i in members}
            for n in range(n_max):
                w, norm2 = np.zeros(space.dim, dtype=complex), 0.0
                for i in members:
                    powers[i] = powers[i] @ gens[i][g]
                    w += coords_of(space, i, i, powers[i])
                    norm2 += np.vdot(powers[i], powers[i]).real
                weight = np.bincount(space.components, np.abs(w) ** 2, len(space.irreps))
                touched[n] |= np.sqrt(weight) > RANK_RTOL * np.sqrt(norm2)
    return np.logical_or.accumulate(touched, axis=0)[:, space.components]


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
