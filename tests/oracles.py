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
are dense orthonormal row bases here (``SubspaceBasis``; ``invariant_rows``
writes the library's per-block invariant vectors out that way):
``ker(pi)`` is the full-SVD null space of ``dense_pi_matrix``, and the distance
between two subspaces is read off an eigendecomposition of the difference
of their projectors.  A Gauss generator is also built here the long way,
as one full Kronecker chain of per-edge factors for every edge at the
vertex, and a Haar average over ``G^V`` as one sweep of the product
scheme, ``|S|^V`` points, instead of one average per vertex.  The claim
that summing the generators over an energy level leaves the ideal as it is
gets its own route (``level_summed_masks``), which cuts roundoff only after
summing.  The seed supports of every power, not only of those up to each
generator's minimal polynomial, come from ``stepped_supports``, which steps
every power to ``n_max`` and cuts every coordinate; the library records only
the components a power reaches, and ``touched_components`` reduces the
coordinate rows to those.  The library reads a block's copies and invariants
off the products of its vertices' splits; the dense route over the whole
block is kept here: the copies from the dense generators
(``isotypic_copies``), the invariants as the null space of the whole
generator stack (``invariant_columns``) and as the range of the Haar
projector over the whole block (``haar_projector``).  The
library reads each copy's one column of weight zero and keeps ``ker(pi)``
by the Kronecker square of one component's overlaps; the matrix of ``pi``
from the dense overlaps with every column of the copy basis is kept here
(``dense_pi_matrix``), and the library's complement is written out as dense
rows over the whole commutant (``complement_rows``), from its kept rows and
pairs written out dense (``dense_rows``).  The library holds the
truncation, and every one-dimensional block through the pass, as arrays; the
per-block routes it replaced are kept here: the blocks enumerated one
``BlockLabel`` at a time (``enumerate_blocks``), energies summed as
``Fraction`` per block (``fraction_grouping``), every block's copies and
weight-zero indices read off its own dense generators (``per_block_pass``), and
the kernel's overlaps gathered block by block into one dense matrix and
one SVD (``per_block_kernel``), whose complement is compared by parts that
do not depend on the basis chosen (``complement_parts``).
"""

import itertools
from fractions import Fraction

import numpy as np
from scipy.linalg import null_space
from scipy.sparse import csr_matrix

from gaugereduce.blocks import BlockLabel, kron_chain
from gaugereduce.groups import haar_scheme, irrep_generator, labels_within
from gaugereduce.lattice import GaugeElement, block_generators, lie_directions, rho_block
from gaugereduce.reduction import (
    RANK_RTOL,
    PiKernel,
    _null_columns,
    _roundoff_cut,
    own_elements,
    projector_band,
    vertex_actions,
)
from gaugereduce.spectrum import EnergyGrouping, block_energy

MINIMUM_SEED = 1e-12


def enumerate_blocks(graph, group, bound):
    """Every block whose edge labels all have degree at most the bound,
    ordered lexicographically over edges in declaration order."""
    per_edge = labels_within(group, bound)
    combos = [()]
    for _ in graph.edges:
        combos = [c + (lab,) for c in combos for lab in per_edge]
    return tuple(BlockLabel(graph, group, c) for c in combos)


def fraction_grouping(blocks, dims):
    """The blocks grouped by energy, summed per block as ``Fraction``s."""
    by_energy = {}
    for i, block in enumerate(blocks):
        by_energy.setdefault(block_energy(block), []).append(i)
    energies = tuple(sorted(by_energy))
    groups = tuple(tuple(by_energy[e]) for e in energies)
    return EnergyGrouping(energies, groups, tuple(sum(dims[i] for i in g) for g in groups))


def per_block_pass(trunc):
    """Block by block, off the block's own dense generators: the copy basis,
    the copies ``(lam, cols)`` and the per-vertex ``Gamma_{v,z}`` eigenvalues
    on the columns (``isotypic_copies``), and the weight-zero indices, where
    every ``Gamma_{v,z}`` vanishes on the diagonal, ascending."""
    out = []
    for block in trunc.blocks:
        gens, nl = block_generators(block), len(lie_directions(block))
        gz = np.diagonal(gens[nl - 1 :: nl], axis1=1, axis2=2)  # Gamma_{v,z}, per vertex
        out.append((*isotypic_copies(block, gens), np.flatnonzero(~gz.any(axis=0))))
    return out


def overlap_norms(space, over):
    """Per component, the squared norms of the block overlaps ``over[i]``
    (invariant vectors by the block's copies) on its copies, each over the
    square root of the copy's size, summed block by block."""
    norms = np.zeros(len(space.irreps))
    for i, o in over.items():
        kinds, sizes = zip(*((c, cols.stop - cols.start) for c, cols in space.copies[i]))
        np.add.at(norms, list(kinds), np.square(np.abs(o)).sum(axis=0) / np.sqrt(sizes))
    return norms


def per_block_kernel(space, inv):
    """``kernel_pi_basis`` with every block's overlaps gathered one block at
    a time from the lazily built ``copies``, ``weight_zero``, ``members`` and
    ``columns``, as it was before the one-dimensional blocks became arrays,
    into one dense ``h x M_0`` matrix of the kept component's overlaps, and
    one SVD of it: no block structure is read off the factors.  Its rank and
    margin are checked against the rank rule on the dense products."""
    if inv.dim == 0:
        return PiKernel(space.dim, None, np.zeros(0))
    first = np.cumsum([0] + [cols.shape[1] for cols in inv.columns])
    zeros = zip(inv.columns, space.weight_zero)
    over = {i: c[w].conj().T @ z for i, (c, (w, z)) in enumerate(zeros) if c.size}
    norms = overlap_norms(space, over)
    keep, rest = int(norms.argmax()), norms.copy()
    rest[keep] = 0.0
    o = np.zeros((inv.dim, len(space.members[keep])), dtype=complex)
    for p, (i, a) in enumerate(space.members[keep]):
        if i in over:
            o[first[i] : first[i + 1], p] = over[i][:, a]
    _, s, vh = np.linalg.svd(o, full_matrices=False)
    kernel = PiKernel(space.dim, keep, s, [(0, v) for v in vh], float(np.linalg.norm(rest)))
    products = np.outer(s, s)  # the rank rule written out densely, against the staircase
    kept = products > RANK_RTOL * products.max()
    assert kernel.rank == np.count_nonzero(kept)
    assert kernel.margin == products[kept].min() / (RANK_RTOL * products.max())
    return kernel


def dense_rows(kernel, m):
    """A kernel's complement as dense arrays: ``w``, its kept rows written out
    over the ``m`` copies of its component, and ``kept``, its kept pairs
    ``(a, b)``, ``b`` below row ``a``'s count of pairs (``PiKernel.pairs``)."""
    w = np.zeros((len(kernel.rows), m), dtype=complex)
    for a, (lo, v) in enumerate(kernel.rows):
        w[a, lo : lo + len(v)] = v
    return w, np.arange(len(w)) < kernel.pairs[:, None]


def complement_parts(kernel, m):
    """The kernel's complement ``sum_n Q_n (x) conj(P_n)`` by its parts: per
    count ``n`` of pairs kept with a row of ``w`` (``dense_rows``, over ``m``
    copies), the projector ``Q_n`` onto the rows with that count and ``P_n``
    onto the first ``n`` rows.  Rows of one singular value have one count and
    ``n`` ends no run of equal singular values, so the parts do not depend on
    the basis ``w`` holds."""
    w, kept = dense_rows(kernel, m)
    n = kept.sum(axis=1)
    return {k: (w[n == k].conj().T @ w[n == k], w[:k].conj().T @ w[:k]) for k in set(n.tolist())}


class SubspaceBasis:
    """An orthonormal set of row vectors spanning a subspace."""

    def __init__(self, ambient_dim: int, vectors: np.ndarray | None = None):
        self.ambient_dim = ambient_dim
        if vectors is None:
            vectors = np.zeros((0, ambient_dim), dtype=complex)
        self.vectors = np.asarray(vectors, dtype=complex).reshape(-1, ambient_dim)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def invariant_rows(trunc, inv):
    """The library's per-block invariant columns written out as dense
    orthonormal rows over the whole field space, in block order."""
    rows = np.zeros((inv.dim, trunc.total_dim), dtype=complex)
    start, off = 0, trunc.offsets
    for i, cols in enumerate(inv.columns):
        rows[start : start + cols.shape[1], off[i] : off[i + 1]] = cols.T
        start += cols.shape[1]
    return rows


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


def haar_projector(block, band=None):
    """Invariant projector of a block on its whole space: the product over
    vertices of the Haar average of the dense block action there, each
    summed as the points of ``vertex_actions`` arrive."""
    out = np.eye(block.dim, dtype=complex)
    for points in vertex_actions(block, projector_band(block), band):
        out = sum(w * rho for w, rho in points) @ out
    return out


def invariant_columns(gens):
    """Orthonormal columns spanning the vectors that every generator of the
    ``(n, d, d)`` stack ``gens`` annihilates: the null space of all of them
    stacked, over the whole block."""
    return _null_columns(gens.reshape(-1, gens.shape[1]))


def isotypic_copies(block, gens):
    """The block split into irreducible copies of the gauge action, read
    off its dense generators ``gens = block_generators(block)``: the copy
    basis, the copies ``(lam, cols)`` and the per-vertex eigenvalues of
    ``Gamma_{v,z}`` on the columns.

    With ``Gamma_{v,a} = -i J_a^v``, the raising operators are ``J_+^v = i
    (Gamma_{v,1} + i Gamma_{v,2})`` and ``J_z^v = i Gamma_{v,3}`` is
    diagonal in the block's weight basis, so the highest-weight vectors of
    each weight, dominant or not, are the joint null space of the whole
    stack of raising operators on the basis vectors of that weight.  Each is
    lowered on its own by dense matrix-vector products.  U(1) has no raising
    operators, so every vector is a highest-weight vector.
    """
    nl = len(lie_directions(block))
    gz = np.diagonal(gens[nl - 1 :: nl], axis1=1, axis2=2)  # Gamma_{v,z} = -i J_z^v
    weights = [tuple(w) for w in np.rint(2 * (1j * gz).real).astype(int).T.tolist()]
    raising = 1j * (gens[::nl] + 1j * gens[1::nl]) if nl > 1 else gens[:0]
    stacked = raising.reshape(-1, block.dim)
    lowering = [up.conj().T for up in raising]
    columns, copies = [], []
    for lam in dict.fromkeys(weights):
        cols = [k for k, w in enumerate(weights) if w == lam]
        hw = _null_columns(stacked[:, cols]) if nl > 1 else np.eye(len(cols))
        for coeffs in hw.T:
            chain = [np.zeros(block.dim, dtype=complex)]
            chain[0][cols] = coeffs
            for v, down in enumerate(lowering):
                chain = [w for t in chain for w in _lowered(down, t, lam[v])]
            copies.append((lam, slice(len(columns), len(columns) + len(chain))))
            columns += chain
    return np.column_stack(columns), copies, gz[:, [np.abs(w).argmax() for w in columns]]


def _lowered(down, top, steps):
    """``top`` followed by ``steps`` normalized applications of ``down``."""
    out = [top]
    for _ in range(steps):
        w = down @ out[-1]
        out.append(w / np.linalg.norm(w))
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


def stepped_supports(gens, basis, copies, n_max):
    """Per-power seed supports on one block's ``own_elements``: entry
    ``(n - 1, k)`` is set when the ``n``-th power of some generator in
    ``gens`` has a nonzero coordinate ``k``.  Every power up to ``n_max`` is
    stepped as ``Gamma^(n-1) Gamma`` in the copy basis, rescaled by a power
    of two, and cut for roundoff against its own Frobenius norm."""
    comps, read = own_elements(copies)
    coords = np.zeros((len(gens), n_max, len(comps)), dtype=complex)
    norms = np.zeros((len(gens), n_max))
    uh = basis.conj().T
    for d, gamma in enumerate(gens):
        gamma = gn = uh @ gamma @ basis
        for n in range(n_max):
            if n:
                gn = np.ldexp(1.0, -np.frexp(norms[d, n - 1])[1]) * gn @ gamma
            coords[d, n] = read(gn)
            norms[d, n] = np.sqrt(np.vdot(gn, gn).real)
    return (_roundoff_cut(comps, coords, norms) != 0).any(axis=0)


def stepped_rows(space, n_max):
    """``stepped_supports`` of every block of ``space``, written out as one
    ``(n_max, q)`` per-power support over the whole commutant."""
    out = np.zeros((n_max, space.dim), dtype=bool)
    for i, block in enumerate(space.trunc.blocks):
        gens = block_generators(block)
        rows = stepped_supports(gens, space.bases[i], space.copies[i], n_max)
        out[:, space.by_pair[(i, i)]] = rows
    return out


def written_out(support, n_max):
    """The pass's cumulative seed supports written out to ``n_max`` rows: it
    stops at the last power that can reach a new component, and every later
    row repeats that one."""
    assert 0 < len(support) <= n_max
    return support[np.minimum(np.arange(n_max), len(support) - 1)]


def touched_components(space, rows):
    """Per row of coordinate supports (``q`` wide), which components of
    ``space`` it has a set coordinate on, as ``(rows, components)`` booleans."""
    labels = np.arange(len(space.irreps))
    touched = [np.isin(labels, space.components[row]) for row in rows]
    return np.array(touched, dtype=bool).reshape(-1, labels.size)


def dense_pi_matrix(space, inv):
    """The matrix of ``pi`` read through the dense copy bases: element ``(i,
    a, j, b)`` compresses to ``O_i[:, a] O_j[:, b]^H / sqrt(dim)``, ``O_i``
    the overlaps of block ``i``'s invariant vectors with every column of its
    copy basis, over the whole block, summed over each copy's columns."""
    h, start = inv.dim, 0
    out = np.zeros((h, h, space.dim), dtype=complex)
    first = np.cumsum([0] + [cols.shape[1] for cols in inv.columns])  # row offsets
    over = {i: c.conj().T @ u for i, (c, u) in enumerate(zip(inv.columns, space.bases)) if c.size}
    for held in space.members:
        m, live = len(held), [(p, i, a) for p, (i, a) in enumerate(held) if i in over]
        if live:
            o = np.vstack([over[i][:, space.copies[i][a][1]] for _, i, a in live])
            rows = np.concatenate([np.arange(first[i], first[i + 1]) for _, i, _ in live])
            at = np.concatenate([np.full(first[i + 1] - first[i], p) for p, i, _ in live])
            cols = start + at[:, None] * m + at  # element (p, t) for rows of members p, t
            out[rows[:, None], rows, cols] = o @ o.conj().T / np.sqrt(o.shape[1])
        start += m * m
    return out.reshape(h * h, space.dim)


def element_mask(ideal):
    """An ideal's mask over the components written out over the commutant
    coordinates: every element of a component it holds."""
    return np.repeat(ideal.mask, np.square(ideal.sizes))


def mask_basis(ideal):
    """The identity rows of an ideal's coordinates, as a basis."""
    mask = element_mask(ideal)
    keep = np.flatnonzero(mask)
    basis = np.zeros((keep.size, mask.size), dtype=complex)
    basis[np.arange(keep.size), keep] = 1.0
    return SubspaceBasis(mask.size, basis)


def complement_rows(sizes, kernel):
    """The library's ``ker(pi)`` complement written out as dense rows over
    the commutant of components with ``sizes`` members: ``kron(w[a],
    conj(w[b]))`` on the kept component's elements, one row per kept pair."""
    rows = np.zeros((kernel.rank, int(np.square(sizes).sum())), dtype=complex)
    if not kernel.rank:
        return rows
    m = sizes[kernel.component]
    w, kept = dense_rows(kernel, m)
    a, b = np.nonzero(kept)
    start = int(np.square(sizes[: kernel.component]).sum())
    block = (w[a, :, None] * w[b, None, :].conj()).reshape(len(a), m * m)
    rows[:, start : start + block.shape[1]] = block
    return rows


def dense_kernel_basis(space, inv):
    """Orthonormal rows spanning ``ker(pi)``: the full-SVD null space of
    ``dense_pi_matrix``, or the whole commutant when there are no invariants."""
    q = space.dim
    if inv.dim == 0:
        return SubspaceBasis(q, np.eye(q, dtype=complex))
    return SubspaceBasis(q, null_space(dense_pi_matrix(space, inv), rcond=RANK_RTOL).T)


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
