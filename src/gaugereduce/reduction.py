"""Gauge reduction machinery.

Four objects are produced from a truncation:

* the invariant subspace (joint kernel of the vertex Gauss generators, or
  the range of the Haar-averaged projector), as orthonormal columns per block,
* the commutant algebra of the gauge action: each block is split once into
  irreducible copies, labelled by a gauge irrep ``lam``, and the commutant
  is ``sum_lam M_{m_lam}(C)``, whose matrix units between copies (Schur's
  lemma) are held as copy indices,
* the commutant components (gauge irreps) that the Haar-averaged Gauss
  generator powers reach, the seeds of the ideal in ``ideal.py``.  A matrix
  unit commutes with every gauge transformation, so an average's coordinates
  are the raw power's; a rotation at ``v`` carries ``Gamma_{v,z}`` to the
  other directions there, so only it is read.  It is diagonal on the copies:
  its powers are elementwise, up to its number of distinct eigenvalues,
* the kernel of the restriction map ``pi`` onto the invariant subspace, kept
  by its complement, the row space of ``pi``: the Kronecker square of one
  component's overlaps with the invariant vectors, by one SVD per block, its
  kept pairs counted off the sorted singular values.  No irrep label is read,
  so comparing the kernel with the ideal is a real check.

The first three come from one pass (``reduce_blocks``) with no array of a
block's length: ``G^V`` acts on an SU(2) block vertex by vertex, so it is
``(x)_v E_v``, ``E_v`` the product of the irreps at ``v``'s edge ends, and its
copies, invariants, overlaps and seeds are products of those of the ``E_v``,
each split once per pattern of ends (``_vertex_split``), its copies found by
their vectors of weight 0 or 1, off one SVD of ``J_+`` (``_copies``).  Every
sum over the blocks is then a contraction of per-vertex tables over the edge
labels (``_contract``): only the blocks with invariants are listed.  The U(1)
blocks carry characters of ``G^V``: they stay arrays over the label array.

Ranks are decided at a single relative tolerance, so the counts reported
downstream are stable.  Roundoff in a seed is cut once, where its
coordinates are computed, relative to the size of the power it comes from.
"""

from __future__ import annotations

import functools
import math
from itertools import groupby, product, repeat

import numpy as np

from .blocks import BlockLabel, Truncation
from .groups import GroupId, IrrepLabel, haar_scheme, identity_point, irrep_generator, irrep_matrix
from .groups import required_band
from .lattice import GaugeElement, rho_block
from .lattice import block_generators  # noqa: F401  (the bench wraps it)

RANK_RTOL = 1e-10


class BandError(ValueError):
    """A quadrature band too small for the integrand it must handle."""

    def __init__(self, required: IrrepLabel, given: IrrepLabel):
        self.required = required
        self.given = given
        super().__init__(
            f"quadrature band {given.value} cannot integrate this action "
            f"exactly; need at least {required.value}"
        )


class InvariantSpace:
    """The invariant subspace, block by block: ``counts[i]`` orthonormal
    vectors in block ``i``, in block order an orthonormal basis of the whole.
    An SU(2) block holds the products of its vertices' invariants
    (``splits(i)``), a U(1) block its basis vector if it is invariant.  Their
    overlaps with the copies' weight-zero columns are the Kronecker product
    of the factors ``overlaps(i)`` (one per vertex, or one for the block),
    and ``norms[c]`` sums over the blocks the squared norms of the overlaps
    with component ``c``'s copies, each over the square root of its size.
    Every block's ``columns`` and ``overlaps`` are read on demand."""

    def __init__(self, trunc: Truncation, splits, counts: np.ndarray, overlaps, norms):
        self.trunc, self.splits, self.overlaps, self.norms = trunc, splits, overlaps, norms
        self.counts, self.dim = counts, int(counts.sum())

    @functools.cached_property
    def columns(self) -> list:
        dims = zip(self.trunc.dims.tolist(), self.counts.tolist())
        out = [_UNIT[:, :n] if d == 1 else np.zeros((d, 0), dtype=complex) for d, n in dims]
        for i in np.flatnonzero((self.trunc.dims > 1) & (self.counts > 0)).tolist():
            rows, v = _on_zero(self.trunc.block(i), self.splits(i), "inv")
            out[i] = np.zeros((self.trunc.dims[i], v.shape[1]), dtype=complex)
            out[i][rows] = v
        return out


class PiKernel:
    """The kernel of ``pi`` in commutant coordinates, known by its orthogonal
    complement in the one ``component`` that ``pi`` sees: a row ``kron(w[a],
    conj(w[b]))`` on its elements per pair whose singular values ``s``
    (descending) have ``s[a] s[b] > RANK_RTOL s[0]^2``, a staircase: ``a`` with
    ``b < pairs[a]``.  ``rows[a]``, orthonormal, is ``w[a]`` by its first copy
    and its entries from there.  Dropping the other components moves no
    singular value of ``pi`` by more than ``delta`` (Weyl); the least kept is
    ``margin`` times the cut."""

    def __init__(self, ambient_dim, component, s, rows=(), delta=0.0):
        cut = RANK_RTOL * s.max(initial=0.0) ** 2  # s[0]^2, s descending
        k = np.count_nonzero(s * s[:1] > cut)  # the rows kept with row 0
        top, self.pairs, run = s[:k], np.full(k, k), max(1, 2**17 // max(k, 1))
        for a in range(np.count_nonzero(top * top[-1:] > cut), k, run):  # past the full rows
            self.pairs[a : a + run] = np.sum(np.multiply.outer(top[a : a + run], top) > cut, 1)
        self.margin = (top * s[self.pairs - 1]).min(initial=np.inf) / cut
        self.component, self.s, self.rows, self.delta = component, s, rows[:k], delta
        self.rank = int(self.pairs.sum())
        self.dim = ambient_dim - self.rank


def _incidence(graph, source: int, target: int) -> np.ndarray:
    """``(E x V)``: edge ``j`` adds ``source`` at its source and ``target`` at
    its target, both at a loop's one vertex."""
    ends = np.zeros((len(graph.edges), len(graph.vertices)), dtype=int)
    for j, e in enumerate(graph.edges):
        at = [graph.vertex_index[e.source], graph.vertex_index[e.target]]
        np.add.at(ends[j], at, [source, target])
    return ends


def vertex_degrees(graph, labels: np.ndarray) -> np.ndarray:
    """Per row of label values, the largest summed label degree of the edge
    endpoints at one vertex; a loop counts twice."""
    return (np.abs(labels) @ _incidence(graph, 1, 1)).max(axis=1, initial=0)


def vertex_degree(block: BlockLabel) -> int:
    """``vertex_degrees`` of one block."""
    labels = np.array([[lab.value for lab in block.labels]], dtype=int)
    return int(vertex_degrees(block.graph, labels)[0])


def projector_band(block: BlockLabel) -> IrrepLabel:
    """Smallest per-vertex band that averages this block's action exactly.

    The integrand at a vertex is a product of one coefficient function per
    incident edge endpoint (a loop contributes two), so the band must cover
    half the summed label degrees, rounded up.
    """
    return required_band(block.group, vertex_degree(block))


def vertex_actions(block: BlockLabel, need: IrrepLabel, band: IrrepLabel | None) -> list:
    """Per-vertex quadrature for a Haar average over ``G^V``.

    The actions at different vertices commute, so the average over ``G^V``
    is one average per vertex, in any order.  Returns one iterator per
    vertex of ``(weight, action)`` pairs, one scheme point at a time; the
    action is the block matrix of the point at that vertex and the identity
    elsewhere, built only when it is reached.  The band is ``need`` unless a
    wider ``band`` is given; a narrower one raises ``BandError`` here, before
    any action is built.
    """
    band = need if band is None else band
    if band.degree < need.degree:
        raise BandError(need, band)
    scheme = haar_scheme(need.group, band)
    vertices, one = block.graph.vertices, identity_point(need.group)

    def points(v):
        for w, p in zip(scheme.weights, scheme.points):
            g = tuple(p if u == v else one for u in vertices)
            yield w, rho_block(block, GaugeElement(block.graph, g))

    return [points(v) for v in vertices]


def invariant_projector(
    block: BlockLabel, method: str = "lie", band: IrrepLabel | None = None
) -> np.ndarray:
    """Orthogonal projector onto the gauge-invariant vectors of a block, by
    the ``method`` of ``reduce_blocks``."""
    labels = np.array([[lab.value for lab in block.labels]], dtype=int)
    _check_method(block.graph, block.group, labels, method, band)
    if block.dim == 1:  # all spin 0, or U(1), invariant exactly when flux-free
        return _UNIT * float(not (labels @ _incidence(block.graph, 2, -2)).any())
    x, group = labels[0].tolist(), block.group
    splits = [_vertex_split(group, _pattern(at, x), method, band) for at in _ends(block.graph)]
    rows, v = _on_zero(block, splits, "inv")
    out = np.zeros((block.dim, block.dim), dtype=complex)
    out[rows[:, None], rows] = v @ v.conj().T
    return out


def _null_columns(a: np.ndarray) -> np.ndarray:
    """Orthonormal null space of ``a`` by the rank rule of ``null_space``
    (singular values above ``RANK_RTOL`` times the largest), from an SVD
    that is thin unless ``a`` is wide."""
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    return vh[np.count_nonzero(s > RANK_RTOL * s.max(initial=0.0)) :].conj().T


def _ends(graph) -> list:
    """Per vertex, its edge ends ``(j, s)`` in edge order: edge ``j``'s row
    digit (``s = 0``, its source end, conjugated) or column digit (``s = 1``,
    its target end); a loop's row before its column."""
    at = [(j, s, u) for j, e in enumerate(graph.edges) for s, u in enumerate([e.source, e.target])]
    return [[(j, s) for j, s, u in at if u == v] for v in graph.vertices]


def _pattern(at: list, x) -> tuple:
    """The irreps ``(value, s)`` at a vertex's edge ends ``at`` (``_ends``) under
    the label values ``x[j]``, but for spin-0 ends: the key of its split."""
    return tuple((x[j], s) for j, s in at if x[j])


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, as one broadcast product."""
    return np.multiply.outer(a, b).swapaxes(1, 2).reshape(len(a) * len(b), a.shape[1] * b.shape[1])


def _edge_major(block: BlockLabel, index: list) -> np.ndarray:
    """The block's own indices of the products, vertex 0 slowest, of indices
    ``index[v]`` into the ``E_v``: a block index has one digit per edge end,
    each edge's row (``2 j``) then its column, an ``E_v`` index its ends'."""
    ends = _ends(block.graph)
    own = np.arange(block.dim).reshape([lab.dim for lab in block.labels for _ in "rc"])
    own = own.transpose([2 * j + s for at in ends for j, s in at])  # by vertex
    sizes = [np.prod([block.labels[j].dim for j, _ in at], dtype=int) for at in ends]
    return own.reshape(sizes)[np.ix_(*index)].ravel()


def _on_zero(block: BlockLabel, splits: tuple, key: str) -> tuple:
    """The block's weight-zero indices, the products of its vertices' ``zero``
    indices, and the Kronecker product of their ``key`` columns there."""
    rows = _edge_major(block, [s["zero"] for s in splits])
    return rows, functools.reduce(_kron, [s[key] for s in splits])


def _copy_basis(block: BlockLabel) -> np.ndarray:
    """A block's unitary with its copies side by side, in order (``split``),
    each the Kronecker product of its vertices' copies: their anchors
    (``_copies``) raised by ``J_+`` and lowered by ``J_-``, onto weight ``nu``
    at the standard ``sqrt((lam + |nu|) (lam - |nu| + 2)) / 2``."""
    x, parts = [lab.value for lab in block.labels], []
    for at in _ends(block.graph):
        lams, anchors, w, up, starts, weights = _copies(block.group, _pattern(at, x))
        lam, mu = np.repeat(lams, lams + 1), lams[0] % 2  # each column's irrep, the anchors' weight
        coef = np.sqrt((lam + np.abs(weights)) * (lam - np.abs(weights) + 2)) / 2
        basis = np.zeros((len(w), len(w)), dtype=complex)
        basis[np.ix_(w == mu, weights == mu)] = anchors
        for nu in [*range(mu + 2, lams.max() + 1, 2), *range(mu - 2, -lams.max() - 1, -2)]:
            cols, step = np.flatnonzero(weights == nu), up if nu > mu else up.conj().T
            basis[:, cols] = step @ basis[:, cols + np.sign(nu - mu)] / coef[cols]  # from W_mu
        parts.append(np.split(basis, starts[1:], axis=1))
    u = np.hstack([functools.reduce(_kron, cols) for cols in product(*parts)])
    return u[np.argsort(_edge_major(block, [np.arange(len(p[0])) for p in parts]))]


@functools.cache
def _haar_matrices(label: IrrepLabel, band: IrrepLabel) -> np.ndarray:
    """An irrep's read-only matrices at the points of the scheme of ``band``."""
    out = np.array([irrep_matrix(label, p) for p in haar_scheme(label.group, band).points])
    out.setflags(write=False)
    return out


def _copies(group, ends: tuple) -> tuple:
    """``E_v``, the product of the irreps ``(value, s)`` at a vertex's edge
    ends, conjugated at a source (``s = 0``), split into irreducible copies,
    uncached: ``w`` holds ``E_v``'s weights, ``up`` its ``J_+``, and a dominant
    ``lam = 2j`` has ``|W_lam| - |W_{lam+2}|`` copies, ``lams`` ascending, copy
    ``a`` on the ``lams[a] + 1`` columns from ``starts[a]`` of descending
    ``weights``.  A copy meets ``W_mu`` (``mu`` the weights' parity) in its
    anchor, where ``J_- J_+ = (lam (lam + 2) - mu (mu + 2)) / 4``: the anchors
    are ``J_+``'s right singular vectors on ``W_mu`` (the indices ``w == mu``)
    by ascending value, the first ``|W_mu| - |W_{mu+2}|`` its null space."""
    w, up = np.zeros(1, dtype=int), np.zeros((1, 1), dtype=complex)
    for value, s in ends:  # one factor at a time
        lab = IrrepLabel(group, value)
        x, y, gz = (np.conj(g) if s == 0 else g for g in map(irrep_generator, [lab] * 3, range(3)))
        w = (w[:, None] + np.rint(2 * (1j * np.diagonal(gz)).real).astype(int)).ravel()
        up = _kron(up, np.eye(lab.dim)) + _kron(np.eye(len(up)), 1j * (x + 1j * y))
    n = np.bincount(w[w >= 0])  # |W_lam|, lam = 0, 1, ...
    lams = np.repeat(np.arange(len(n)), n - np.append(n, [0, 0])[2:])
    mu = lams[0] % 2
    _, s, vh = np.linalg.svd(up[np.flatnonzero(w == mu + 2)[:, None], w == mu])
    rank, want = np.count_nonzero(s > RANK_RTOL * s.max(initial=0.0)), np.sum(w == mu + 2)
    if rank != want:  # a lost rank would drop a copy
        raise RuntimeError(f"ends {ends}: J_+ has rank {rank} on W_{mu}, not {want}")
    starts, copy = np.cumsum(lams + 1) - lams - 1, np.repeat(np.arange(len(lams)), lams + 1)
    weights = lams[copy] - 2 * (np.arange(len(w)) - starts[copy])
    return lams, vh[::-1].conj().T, w, up, starts, weights


@functools.cache
def _vertex_split(group, ends: tuple, method: str, band) -> dict:
    """``_copies`` as the pass reads it, read-only: ``lams``, ``z`` the
    copies' anchors on ``W_0`` and ``inv`` the invariants on its indices
    ``zero``; per distinct irrep ``values[at[a]]`` (ascending), ``seedw`` sums
    its ``mult`` copies' ``|trace|^2 / dim`` of ``Gamma_z``'s scaled powers, of
    norms ``norms``, up to its number of eigenvalues.  The invariants are the
    null space on ``W_0`` of ``J_+`` and ``J_-`` stacked (``"lie"``) or the
    range of the Haar projector there."""
    lams, anchors, w, up, starts, weights = _copies(group, ends)
    values, first, mult = np.unique(lams, return_index=True, return_counts=True)
    zero = np.flatnonzero(w == 0)
    z = anchors[: len(zero)]  # all of them, or none if the weights are odd
    if method == "lie" or not len(zero):  # no weight zero, no invariant
        inv = _null_columns(np.vstack([up[w == 2][:, zero], up.conj().T[w == -2][:, zero]]))
    else:  # the Haar projector of band, or of its own, maps W_0 into itself
        scheme = haar_scheme(group, band or required_band(group, sum(value for value, _ in ends)))
        term = scheme.weights[:, None, None]
        for (value, s), p in zip(ends, np.unravel_index(zero, [v + 1 for v, _ in ends] or 1)):
            mats = _haar_matrices(IrrepLabel(group, value), scheme.band)  # gathered end by end
            term = term * (np.conj(mats) if s == 0 else mats)[:, p[:, None], p]
        vals, vecs = np.linalg.eigh(term.sum(axis=0))
        inv = vecs[:, vals > 0.5]
    eig = -0.5j * weights  # Gamma_z's, with lams.max() + 1 distinct ones
    eig = eig / np.abs(eig).max(initial=np.finfo(float).tiny)
    powers = eig ** np.arange(1, lams.max() + 2)[:, None]
    per_copy = np.abs(np.add.reduceat(powers, starts, axis=1)) ** 2 / (lams + 1)
    out = dict(lams=lams, zero=zero, z=z, inv=inv, overlaps=inv.conj().T @ z)
    out.update(values=values, mult=mult, seedw=np.add.reduceat(per_copy, first, axis=1))
    out.update(at=np.repeat(np.arange(len(values)), mult), norms=np.linalg.norm(powers, axis=1))
    for part in out.values():
        part.setflags(write=False)
    return out


def invariant_basis(trunc: Truncation, method: str = "lie") -> InvariantSpace:
    """Orthonormal basis of the invariant subspace of the whole truncation."""
    return reduce_blocks(trunc, method)[1]


def own_elements(copies: list):
    """One block's elements ``(i, a, i, b)``, in the order of
    ``EquivariantSpace.by_pair[(i, i)]`` (by component, then row-major over
    the block's copies of it): their components, and a map reading their
    coordinates off an operator given in the block's copy basis, the
    normalised trace of each element's copy block."""
    kinds = [c for c, _ in copies]
    pairs = sorted((c, a, b) for a, c in enumerate(kinds) for b, cb in enumerate(kinds) if c == cb)
    r, c, starts, scale = [], [], [], []
    for _, a, b in pairs:
        rows, cols = copies[a][1], copies[b][1]
        starts.append(len(r))
        scale.append((rows.stop - rows.start) ** -0.5)
        r += range(rows.start, rows.stop)
        c += range(cols.start, cols.stop)
    r, c, starts, scale = map(np.array, (r, c, starts, scale))
    return np.array([p[0] for p in pairs]), lambda x: np.add.reduceat(x[r, c], starts) * scale


class EquivariantSpace:
    """The commutant as one full matrix algebra per gauge irrep.

    Its components are the cells of the grid of gauge irreps that hold a copy,
    in grid order (vertex 0 slowest): ``cells[c]`` ravelled over ``grid =
    (shape, lo)``, of ``sizes[c]`` copies.  ``scalar[i]`` is the component of
    U(1) block ``i``, one copy on column 0, of weight-zero column ``[[1]]`` if
    its irrep is trivial; with ``tables`` (SU(2), no ``scalar``) a block is
    held by its vertices' splits (``splits``), whose products are its copies,
    and ``tables[v]["mult"]`` counts vertex ``v``'s copies of each irrep over
    its edges' labels.  Element ``k``, a matrix unit ``u_a u_b^H / sqrt(dim)``
    of component ``components[k]``, is orthonormal to the others; a
    component's run row-major over its ``members`` (``held_by``) squared.
    Every block's ``copies`` (``(c, cols)``, on the columns ``cols`` of
    ``bases``) and ``weight_zero`` (its ``W_0`` indices and copies' columns
    there), and each cached property, are built on first read."""

    def __init__(self, trunc, grid, cells, sizes, scalar, tables=()):
        self.trunc, self.grid, self.cells, self.sizes = trunc, grid, cells, sizes
        self.scalar, self.tables, self.dim = scalar, tables, sum(n * n for n in sizes.tolist())

    def splits(self, i: int) -> tuple:
        """SU(2) block ``i``'s vertices' splits, each at its edges' labels there."""
        return tuple(t["splits"][tuple(self.trunc.labels[i, t["edges"]])] for t in self.tables)

    def split(self, i: int) -> tuple:
        """Block ``i``'s copies, in order: their components and numbers of columns."""
        if not self.tables:
            return self.scalar[i : i + 1], np.ones(1, dtype=int)
        lams = [s["lams"] for s in self.splits(i)]  # an SU(2) grid starts at 0
        flat = np.ravel_multi_index(np.ix_(*lams), self.grid[0]).ravel()
        sizes = functools.reduce(np.multiply.outer, [x + 1 for x in lams]).ravel()
        return np.searchsorted(self.cells, flat), sizes

    def held_by(self, c: int) -> list:
        """Component ``c``'s ``(block, copy)`` pairs, in block order: a U(1)
        block's one copy; in each SU(2) block whose vertices all hold its
        irrep (``tables``, read at the label array), the products of their
        copies of it."""
        if not self.tables:
            return [(i, 0) for i in np.flatnonzero(self.scalar == c).tolist()]
        lams, mult, out = np.unravel_index(self.cells[c], self.grid[0]), 1, []  # SU(2): lo = 0
        for t, lam in zip(self.tables, lams):
            mult = mult * t["mult"][(*self.trunc.labels[:, t["edges"]].T, lam)]
        for i in np.flatnonzero(mult).tolist():
            sp = self.splits(i)
            at = np.ix_(*[np.flatnonzero(s["lams"] == lam) for s, lam in zip(sp, lams)])
            out += [(i, a) for a in np.ravel_multi_index(at, [len(s["lams"]) for s in sp]).flat]
        return out

    @functools.cached_property
    def irreps(self) -> tuple:
        lams = np.array(np.unravel_index(self.cells, self.grid[0])).T + self.grid[1]
        return tuple(map(tuple, lams.tolist()))

    @functools.cached_property
    def copies(self) -> list:
        return [
            [(c, slice(b - m, b)) for c, m, b in zip(k.tolist(), n.tolist(), np.cumsum(n).tolist())]
            for k, n in map(self.split, range(len(self.trunc.labels)))
        ]

    @functools.cached_property
    def weight_zero(self) -> list:
        if self.tables:
            blocks = range(len(self.trunc.labels))
            return [_on_zero(self.trunc.block(i), self.splits(i), "z") for i in blocks]
        zero = [([], _UNIT[:0]) if any(lam) else ([0], _UNIT) for lam in self.irreps]
        return [zero[c] for c in self.scalar.tolist()]

    @functools.cached_property
    def members(self) -> list:
        return [self.held_by(c) for c in range(len(self.sizes))]

    @functools.cached_property
    def components(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.sizes)), np.square(self.sizes))

    @functools.cached_property
    def elements(self) -> tuple:
        return tuple((i, a, j, b) for m in self.members for i, a in m for j, b in m)

    @functools.cached_property
    def by_pair(self) -> dict[tuple[int, int], list[int]]:
        out: dict[tuple[int, int], list[int]] = {}
        for k, (i, _, j, _) in enumerate(self.elements):
            out.setdefault((i, j), []).append(k)
        return out

    @functools.cached_property
    def bases(self) -> list:
        """Per block, the unitary with its copies side by side (``_copy_basis``),
        built from their anchors on first read; only the reference routes read it."""
        if not self.tables:
            return [_UNIT] * len(self.trunc.labels)
        return [_copy_basis(self.trunc.block(i)) for i in range(len(self.trunc.labels))]

    def structure_maps(self):
        """Sparse product tables: row ``x*q + m`` of ``L @ w`` (``R @ w``) is
        the m-th coordinate of ``basis[x] @ op(w)`` (``op(w) @ basis[x]``),
        by the matrix-unit rule: ``E(i,a,j,b) E(j,b,l,c)`` is
        ``E(i,a,l,c) / sqrt(dim)``, and every other product is zero."""
        from scipy.sparse import csr_matrix

        q, start, parts = self.dim, 0, []
        for held in self.members:  # x = (p, r) times y = (r, t) is m = (p, t)
            n, (i, a) = len(held), held[0]
            cols = self.copies[i][a][1]
            p, r, t = np.indices((n, n, n)).reshape(3, -1)
            x, y, m = start + p * n + r, start + r * n + t, start + p * n + t
            parts.append((x, y, m, np.full(x.size, (cols.stop - cols.start) ** -0.5)))
            start += n * n
        x, y, m, vals = map(np.concatenate, zip(*parts))
        shape = (q * q, q)
        return csr_matrix((vals, (x * q + m, y)), shape), csr_matrix((vals, (y * q + m, x)), shape)


def commutant_basis(trunc: Truncation) -> EquivariantSpace:
    """Orthonormal basis of the operators commuting with the gauge action:
    by Schur's lemma, the matrix units ``u_a u_b^H / sqrt(dim)`` between
    the copies of each irrep, in any two blocks, held as copy indices."""
    return reduce_blocks(trunc)[0]


def _roundoff_cut(comps: np.ndarray, coords, norms) -> np.ndarray:
    """The roundoff cut on one block: the last axis of ``coords`` runs over
    the block's own elements, of components ``comps``, and ``norms`` holds
    the raw powers' Frobenius norms over the leading axes.  Coordinates on a
    component whose norm there is at most ``RANK_RTOL`` times that of the
    raw power are roundoff and are set to zero."""
    weight = np.abs(coords) ** 2 @ (comps[:, None] == comps)  # per component
    coords[np.sqrt(weight) <= RANK_RTOL * norms[..., None]] = 0
    return coords


def _table(splits: list, edges: list, shape: tuple, width: int) -> dict:
    """A vertex's tables over the labels of its ``edges`` (``shape``) and its
    irrep ``lam < width``, from the ``splits`` of its ends under each row of
    labels, kept by row: ``mult``, the copies of ``lam``; ``inv``, the
    invariants; ``norm``, the copies' squared overlaps over ``sqrt(lam + 1)``;
    ``share``, ``mult (lam + 1) / dim E_v``; per power ``n``, ``seed[n - 1] =
    seedw / norms^2``.  Block ``(j_v)`` holds component ``(lam_v)`` on
    ``prod_v mult`` copies, and its power at ``v`` reaches it when ``seed_v
    prod_{u != v} share_u`` passes ``RANK_RTOL^2``: the squared norm ``seedw_v
    prod_{u != v} mult_u (lam_u + 1)`` of the coordinates against ``norms_v^2
    prod_{u != v} dim E_u``."""
    mult = np.zeros((*shape, width), dtype=np.int64)
    share, norm, inv = np.zeros(mult.shape), np.zeros(mult.shape), np.zeros(shape, dtype=int)
    seed = np.zeros((max(len(s["norms"]) for s in splits), *mult.shape))
    for s, row in zip(splits, np.ndindex(shape)):
        at = (*row, s["values"])
        mult[at], inv[row] = s["mult"], s["inv"].shape[1]
        share[at] = s["mult"] * (s["values"] + 1) / np.sum(s["lams"] + 1)  # over dim E_v
        squares = np.square(np.abs(s["overlaps"])).sum(axis=0) / np.sqrt(s["lams"] + 1)
        norm[at] = np.bincount(s["at"], squares)
        powers = s["norms"][:, None] ** 2  # 0 on a split of weight 0 alone
        seed[(slice(len(powers)), *at)] = s["seedw"] / np.where(powers > 0, powers, 1)
    splits = np.array(splits, dtype=object).reshape(shape)
    return dict(edges=edges, splits=splits, mult=mult, share=share, norm=norm, inv=inv, seed=seed)


def _contract(tables: list, edges: list, reduce) -> np.ndarray:
    """The ``tables``, vertex ``v``'s over the labels of ``edges[v]`` and then
    its irrep, multiplied entry by entry and reduced by ``reduce`` (``np.add``,
    or ``np.maximum`` of nonnegative entries) over every assignment of labels:
    a grid over the irreps, vertex 0 slowest.  Vertex by vertex, the grid so
    far, over the earlier irreps (axis ``-1 - v``) and open edges (axis
    ``j``), takes the next table and is reduced over the labels of the edges
    it closes, one value at a time and a cache-sized run at a time."""
    acc, axes, ends = np.ones((), dtype=tables[0].dtype), [], sum(edges, [])
    for v, (table, own) in enumerate(zip(tables, edges)):
        loops = tuple(k for k, j in enumerate(own) if ends.count(j) == 1)
        if loops:
            table, own = reduce.reduce(table, axis=loops), [j for j in own if ends.count(j) > 1]
        shut, new = [j for j in own if j in axes], [j for j in own if j not in axes]
        rest = [a for a in axes if a not in shut]
        left = acc.transpose([axes.index(a) for a in shut + rest])
        right = table.transpose([*(own.index(j) for j in shut + new), -1])
        shape = (*right.shape[len(shut) :], *left.shape[len(shut) :])
        right = right.reshape(math.prod(right.shape[: len(shut)]), -1)
        left = left.reshape(len(right), -1)
        acc = np.zeros((right.shape[1], left.shape[1]), dtype=np.result_type(left, right))
        run = max(1, 2**17 // len(acc))
        term = np.empty((len(acc), run), dtype=acc.dtype)
        for c in range(0, left.shape[1], run):
            part = acc[:, c : c + run]
            for x, y in zip(left[:, c : c + run], right):  # one value of the closed labels
                reduce(part, np.multiply(y[:, None], x, out=term[:, : len(x)]), out=part)
        acc, axes = acc.reshape(shape), [*new, -1 - v, *rest]
    return acc.transpose(np.argsort(-np.array(axes, dtype=int)))


# the copy basis, weight-zero column, or kept invariant column of every
# one-dimensional block: one array shared by all of them, so it is read-only
_UNIT = np.ones((1, 1), dtype=complex)
_UNIT.setflags(write=False)


def _check_method(graph, group, labels: np.ndarray, method: str, band) -> None:
    """Refuse an unknown ``method``; for ``"quadrature"``, raise ``BandError``
    for the first row of label values that needs more than ``band``."""
    if method not in ("lie", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method == "quadrature" and band is not None:  # with no band, no block is short
        degree = vertex_degrees(graph, labels)
        short = (degree + 1) // 2 > band.degree
        if short.any():
            raise BandError(required_band(group, degree[short.argmax()]), band)


def reduce_blocks(trunc: Truncation, method: str = "lie", n_max: int = 0, band=None):
    """One pass over the blocks: the commutant, the invariant subspace by the
    null spaces (``"lie"``) or the Haar projector (``"quadrature"``, its band
    checked on every block first, or ``band``), and the seed supports of the
    averaged powers ``1..n_max``, read off the raw powers whatever the
    ``method``.  The supports are per component and cumulative: entry ``(n -
    1, c)`` is set when some ``GeneratorSpec(i, v, a, m)`` with ``m <= n``
    reaches component ``c``.  They stop at the last power that can reach a
    new component; every later power repeats it.  Components are the cells
    of the grid of gauge irreps that hold a copy, in grid order.

    A U(1) block carries a character of ``G^V``: one copy, basis ``[[1]]``,
    of weight ``2 Re(i Gamma_v) = -2 flux_v`` at each vertex, all of them one
    integer product of the label array and the signed incidence (an edge adds
    2 at its source and -2 at its target).  A scalar power is its own average
    and coordinate, zero exactly when the flux is, so it seeds its component
    at every power if some flux is nonzero; its Haar average is 1 exactly when
    it is trivial, so both methods keep it when every flux is zero.  An
    SU(2) block's copies, invariants, overlaps and seeds are the products of
    its vertices' (``_vertex_split``), so every sum over the blocks is a
    contraction of the vertices' tables over the edge labels (``_table``,
    ``_contract``); only the blocks with invariants are split whole.
    """
    _check_method(trunc.graph, trunc.group, trunc.labels, method, band)
    if trunc.group is GroupId.U1:  # every block is one-dimensional
        rows = trunc.labels @ _incidence(trunc.graph, 2, -2)
        live = rows.any(axis=1)
        grid = (tuple(rows.max(axis=0) - rows.min(axis=0) + 1), rows.min(axis=0))
        keys = np.ravel_multi_index(tuple((rows - grid[1]).T), grid[0])
        cells, scalar, sizes = np.unique(keys, return_inverse=True, return_counts=True)
        support = np.zeros((min(n_max, 1), len(cells)), dtype=bool)
        support[:, scalar[live]] = True
        norms = np.bincount(scalar[~live], minlength=len(cells)) * 1.0  # each meets its copy in 1
        inv = InvariantSpace(trunc, None, (~live).astype(int), lambda i: (_UNIT,), norms)
        return EquivariantSpace(trunc, grid, cells, sizes, scalar), inv, support
    values, tables, counts = range(trunc.bound.value + 1), [], np.ones(len(trunc.labels), dtype=int)
    for at in _ends(trunc.graph):  # a vertex's tables, over its edges' labels (a loop's once)
        edges = sorted({j for j, _ in at})
        rows = [dict(zip(edges, x)) for x in product(values, repeat=len(edges))]
        splits = [_vertex_split(trunc.group, _pattern(at, x), method, band) for x in rows]
        tables.append(_table(splits, edges, (len(values),) * len(edges), values[-1] * len(at) + 1))
        counts *= tables[-1]["inv"][tuple(trunc.labels[:, edges].T)]  # its invariants' products
    edges, cut = [t["edges"] for t in tables], RANK_RTOL**2
    sizes = _contract([t["mult"] for t in tables], edges, np.add)
    steps, cells = min(n_max, max(len(t["seed"]) for t in tables)), np.flatnonzero(sizes)
    # power n's components, then the powers up to n's: a block's power at v
    # reaches (lam) when seed_v times the other vertices' share passes the cut
    support = np.zeros((steps, *sizes.shape), dtype=bool)
    for n, v in product(range(steps), range(len(tables))):
        if n < len(tables[v]["seed"]) and (tables[v]["seed"][n] > cut).any():
            parts = [t["seed"][n] if u == v else t["share"] for u, t in enumerate(tables)]
            support[n] |= _contract(parts, edges, np.maximum) > cut
    support = np.logical_or.accumulate(support).reshape(steps, sizes.size)[:, cells]
    space = EquivariantSpace(trunc, (sizes.shape, 0), cells, sizes.ravel()[cells], None, tables)
    overlaps = lambda i: tuple(s["overlaps"] for s in space.splits(i))  # noqa: E731
    norms = _contract([t["norm"] for t in tables], edges, np.add).ravel()[cells]
    return space, InvariantSpace(trunc, space.splits, counts, overlaps, norms), support


def kernel_pi_basis(space: EquivariantSpace, inv: InvariantSpace) -> PiKernel:
    """Kernel of the compression map, by the row space of its matrix.

    An invariant vector has weight zero, so it meets copy ``a`` in its
    weight-zero column ``z_a`` alone, and component ``c``'s columns of ``pi``
    are ``(O_c (x) conj O_c) / sqrt(w_c)``, ``O_c`` its copies' overlaps
    ``inv^H z_a``, ``w_c`` their size.  ``O_c`` is block diagonal, a block's
    part the Kronecker product of the columns its copies use in its factors
    ``InvariantSpace.overlaps(i)``, so its SVD is the blocks' SVDs merged.
    The component of largest norm ``|O_c|_F^2 / sqrt(w_c)`` (summed in
    ``InvariantSpace.norms``) is kept and a second one above ``RANK_RTOL`` of
    it refused: correct invariant vectors span trivial copies.  A pair of
    singular values of ``O_c`` is kept when its product exceeds ``RANK_RTOL``
    times the largest, the rank rule of ``scipy.linalg.null_space``, read off
    the sorted values (``PiKernel``).  With no invariants the kernel is everything.
    """
    if inv.dim == 0:
        return PiKernel(space.dim, None, np.zeros(0))
    keep, rest = int(inv.norms.argmax()), inv.norms.copy()
    rest[keep] = 0.0
    if rest.max() > RANK_RTOL * inv.norms[keep]:
        second = f"{rest.max():.3e} on component {rest.argmax()}"
        raise RuntimeError(f"pi has norm {inv.norms[keep]:.3e} on component {keep} and {second}")
    members, parts = space.held_by(keep), []
    for i, run in groupby(range(len(members)), lambda p: members[p][0]):  # block i's copies
        run, factors = list(run), inv.overlaps(i)
        digits = np.unravel_index([members[p][1] for p in run], [f.shape[1] for f in factors])
        o = functools.reduce(_kron, [f[:, sorted(set(x))] for f, x in zip(factors, digits)])
        parts += zip(*np.linalg.svd(o, full_matrices=False)[1:], repeat(run[0]))
    parts.sort(key=lambda part: -part[0])  # (value, right vector, first copy), ties in block order
    s, rows = np.array([x for x, _, _ in parts]), [(lo, v) for _, v, lo in parts]
    return PiKernel(space.dim, keep, s, rows, float(np.linalg.norm(rest)))
