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
  by its complement, the row space of ``pi``: the Kronecker square of the
  SVD of one component's overlaps with the invariant vectors.  No irrep
  label is read, so comparing the kernel with the ideal is a real check.

The first three come from one pass over the blocks (``reduce_blocks``) with
no array of a block's length: ``G^V`` acts on a block vertex by vertex, so it
is ``(x)_v E_v``, ``E_v`` the product of the irreps at ``v``'s edge ends, and
its copies, invariants, overlaps and seeds are products of those of the
``E_v``, each split once per pattern of ends (``_vertex_split``).  The
one-dimensional blocks carry characters of ``G^V``: they stay arrays over the
truncation's label array, from their scalar generators to the overlaps of
``pi``, and no ``BlockLabel`` is built for them.

Ranks are decided at a single relative tolerance, so the counts reported
downstream are stable.  Roundoff in a seed is cut once, where its
coordinates are computed, relative to the size of the power it comes from.
"""

from __future__ import annotations

import functools
from itertools import product

import numpy as np

from .blocks import BlockLabel, Truncation
from .groups import IrrepLabel, haar_scheme, identity_point, irrep_generator, irrep_matrix
from .groups import lie_dim, required_band
from .lattice import GaugeElement, rho_block
from .lattice import block_generators, scalar_generators  # noqa: F401  (the bench wraps the first)

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
    A block of dimension above one holds the products of its vertices'
    invariants (``splits[i]``) and their overlaps ``overlaps[i]`` with its
    copies' weight-zero columns; a one-dimensional one, its basis vector if
    it is invariant.  Every block's ``columns`` are built on first read."""

    def __init__(self, trunc: Truncation, splits: dict, counts: np.ndarray, overlaps: dict):
        self.trunc, self.splits, self.overlaps = trunc, splits, overlaps
        self.counts, self.dim = counts, int(counts.sum())

    @functools.cached_property
    def columns(self) -> list:
        out = [_UNIT[:, :n] for n in self.counts.tolist()]
        for i, splits in self.splits.items():
            rows, v = _on_zero(self.trunc.block(i), splits, "inv")
            out[i] = np.zeros((self.trunc.dims[i], v.shape[1]), dtype=complex)
            out[i][rows] = v
        return out


class PiKernel:
    """The kernel of ``pi`` in commutant coordinates, known by its orthogonal
    complement in the one ``component`` that ``pi`` sees: a row ``kron(w[a],
    conj(w[b]))`` on its elements per pair ``kept[a, b]``, ``w`` orthonormal
    rows.  Dropping the other components moves no singular value of ``pi`` by
    more than ``delta`` (Weyl); the least kept is ``margin`` times the cut."""

    def __init__(self, ambient_dim, component, w, kept, delta=0.0, margin=np.inf):
        self.component, self.w, self.kept = component, w, kept
        self.delta, self.margin = delta, margin
        self.rank = int(np.count_nonzero(kept))
        self.dim = ambient_dim - self.rank


def vertex_degrees(graph, labels: np.ndarray) -> np.ndarray:
    """Per row of label values, the largest summed label degree of the edge
    endpoints at one vertex; a loop counts twice."""
    ends = np.zeros((len(graph.edges), len(graph.vertices)), dtype=int)
    for j, e in enumerate(graph.edges):
        np.add.at(ends[j], [graph.vertex_index[e.source], graph.vertex_index[e.target]], 1)
    return (np.abs(labels) @ ends).max(axis=1, initial=0)


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
    if block.dim == 1:
        return _UNIT * float(not scalar_generators(block.graph, block.group, labels).any())
    splits = _block_splits(_ends(block.graph), block.group, labels[0], method, band)
    rows, v = _on_zero(block, splits, "inv")
    out = np.zeros((block.dim, block.dim), dtype=complex)
    out[rows[:, None], rows] = v @ v.conj().T
    return out


def _null_columns(a: np.ndarray) -> np.ndarray:
    """Orthonormal null space of ``a`` by the rank rule of ``null_space``
    (singular values above ``RANK_RTOL`` times the largest), from an SVD
    that is thin unless ``a`` is wide."""
    if not a.size:  # no constraint, or no column
        return np.eye(a.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    return vh[np.count_nonzero(s > RANK_RTOL * s.max(initial=0.0)) :].conj().T


def _ends(graph) -> list:
    """Per vertex, its edge ends ``(j, s)`` in edge order: edge ``j``'s row
    digit (``s = 0``, its source end, conjugated) or column digit (``s = 1``,
    its target end); a loop's row before its column."""
    at = [(j, s, u) for j, e in enumerate(graph.edges) for s, u in enumerate([e.source, e.target])]
    return [[(j, s) for j, s, u in at if u == v] for v in graph.vertices]


def _block_splits(ends: list, group, labels: np.ndarray, method: str, band) -> tuple:
    """Per vertex, the ``_vertex_split`` of its ``ends`` (``_ends``) in the block
    of label values ``labels``, but for spin-0 ends: factors of dimension one."""
    x = labels.tolist()
    patterns = [tuple((x[j], s) for j, s in at if x[j]) for at in ends]
    return tuple(_vertex_split(group, p, method, band) for p in patterns)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, as one broadcast product."""
    return np.multiply.outer(a, b).swapaxes(1, 2).reshape(len(a) * len(b), a.shape[1] * b.shape[1])


def _copy_index(splits: tuple) -> np.ndarray:
    """A block's copies, the products of its vertices' copies in lexicographic
    order, vertex 0 slowest: row ``v`` holds each copy's ``a_v``."""
    return np.indices([len(s["lams"]) for s in splits]).reshape(len(splits), -1)


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


def _copy_basis(block: BlockLabel, splits: tuple) -> np.ndarray:
    """A block's unitary with its copies side by side, in ``_copy_index``
    order: each the Kronecker product of its vertices' columns."""
    parts = [np.split(s["basis"], np.cumsum(s["lams"] + 1)[:-1], axis=1) for s in splits]
    u = np.hstack([functools.reduce(_kron, cols) for cols in product(*parts)])
    return u[np.argsort(_edge_major(block, [np.arange(len(s["basis"])) for s in splits]))]


@functools.cache
def _haar_matrices(label: IrrepLabel, band: IrrepLabel) -> np.ndarray:
    """An irrep's read-only matrices at the points of the scheme of ``band``."""
    out = np.array([irrep_matrix(label, p) for p in haar_scheme(label.group, band).points])
    out.setflags(write=False)
    return out


@functools.cache
def _vertex_split(group, ends: tuple, method: str, band) -> dict:
    """``E_v``, the product of the irreps ``(value, s)`` at a vertex's edge
    ends, conjugated at a source (``s = 0``), split into irreducible copies,
    read-only: ``basis`` has them side by side, irrep ``lams[a] = 2j`` on
    ``lams[a] + 1`` columns of descending weight, ``z`` their columns of
    weight zero and ``inv`` the invariants on the indices ``zero``, ``traces``
    and ``norms`` those of ``Gamma_z``'s scaled powers up to its number of
    eigenvalues.  A dominant ``lam`` is highest in ``|W_lam| - |W_{lam+2}|``
    copies, the null space of ``J_+`` on ``W_lam``, lowered by ``J_-``; the
    invariants are the null space on ``W_0`` of ``J_+`` and ``J_-`` stacked
    (``"lie"``) or the range of the Haar projector there."""
    w, up = np.zeros(1, dtype=int), np.zeros((1, 1), dtype=complex)
    for value, s in ends:  # one factor at a time
        lab = IrrepLabel(group, value)
        x, y, gz = (np.conj(g) if s == 0 else g for g in map(irrep_generator, [lab] * 3, range(3)))
        w = (w[:, None] + np.rint(2 * (1j * np.diagonal(gz)).real).astype(int)).ravel()
        up = _kron(up, np.eye(lab.dim)) + _kron(np.eye(len(up)), 1j * (x + 1j * y))
    down, lams, tops = up.conj().T, [], []
    for lam in [lam for lam in sorted(set(w.tolist())) if lam >= 0]:
        cols, above = np.flatnonzero(w == lam), np.flatnonzero(w == lam + 2)
        m = len(cols) - len(above)
        if not m:
            continue
        hw = _null_columns(up[above[:, None], cols])  # all of W_lam if nothing is above
        if hw.shape[1] != m:
            raise RuntimeError(f"ends {ends}: {hw.shape[1]} highest weights {lam}, not {m}")
        tops.append(np.eye(len(w), dtype=complex)[:, cols] @ hw)
        lams += [lam] * m
    lams = np.array(lams)
    chain = [np.hstack(tops)]
    for t in range(1, lams.max() + 1):  # the t-th step down, past the bottom of the smaller copies
        chain.append(down @ chain[-1] / np.sqrt(np.maximum(t * (lams + 1 - t), 1)))
    starts, copy = np.cumsum(lams + 1) - lams - 1, np.repeat(np.arange(len(lams)), lams + 1)
    t = np.arange(len(w)) - starts[copy]  # each column's steps down its copy
    basis = np.array(chain)[t, :, copy].T
    zero = np.flatnonzero(w == 0)
    z = np.where(lams % 2 == 0, basis[zero[:, None], starts + lams // 2], 0)
    if method == "lie" or not len(zero):  # no weight zero, no invariant
        inv = _null_columns(np.vstack([up[w == 2][:, zero], down[w == -2][:, zero]]))
    else:  # the Haar projector of band, or of its own, maps W_0 into itself
        scheme = haar_scheme(group, band or required_band(group, sum(value for value, _ in ends)))
        term = scheme.weights[:, None, None]
        for (value, s), p in zip(ends, np.unravel_index(zero, [v + 1 for v, _ in ends] or 1)):
            mats = _haar_matrices(IrrepLabel(group, value), scheme.band)  # gathered end by end
            term = term * (np.conj(mats) if s == 0 else mats)[:, p[:, None], p]
        vals, vecs = np.linalg.eigh(term.sum(axis=0))
        inv = vecs[:, vals > 0.5]
    eig = -0.5j * (lams[copy] - 2 * t)  # Gamma_z's, with lams.max() + 1 distinct ones
    eig = eig / np.abs(eig).max(initial=np.finfo(float).tiny)
    powers = eig ** np.arange(1, lams.max() + 2)[:, None]
    out = dict(lams=lams, basis=basis, zero=zero, z=z, inv=inv, overlaps=inv.conj().T @ z)
    out.update(traces=np.add.reduceat(powers, starts, axis=1), norms=np.linalg.norm(powers, axis=1))
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

    ``scalar[i]`` is the component of one-dimensional block ``i``, one copy on
    column 0, of weight-zero column ``[[1]]`` if its irrep is trivial; or -1
    for a block held by its vertices' ``splits[i]``, whose copies, products
    of theirs (``_copy_index``), are of components ``kinds[i]``, rows of
    ``lams``.  ``sizes[c]`` counts component ``c``'s copies.  Element ``k``, a
    matrix unit ``u_a u_b^H / sqrt(dim)`` of component ``components[k]``, is
    orthonormal to the others; a component's run row-major over its
    ``members`` (``held_by``) squared.  Every block's ``copies`` (``(c,
    cols)``, on the columns ``cols`` of ``bases``) and ``weight_zero`` (its
    ``W_0`` indices and copies' columns there), and each cached property, are
    built on first read."""

    def __init__(self, trunc: Truncation, splits: dict, kinds: dict, irreps, scalar: np.ndarray):
        self.trunc, self.lams = trunc, np.array(irreps, dtype=int).reshape(len(irreps), -1)
        self.scalar, self._splits, self._kinds = scalar, splits, kinds
        comps = np.concatenate([self.scalar[self.scalar >= 0], *kinds.values()]).astype(int)
        self.sizes = np.bincount(comps, minlength=len(self.lams))
        self.dim = int(np.square(self.sizes).sum())

    def split(self, i: int) -> tuple:
        """Block ``i``'s copies: their components and numbers of columns."""
        if self.scalar[i] >= 0:
            return self.scalar[i : i + 1], np.ones(1, dtype=int)
        return self._kinds[i], np.prod(self.lams[self._kinds[i]] + 1, axis=1)

    def held_by(self, c: int) -> list:
        """Component ``c``'s ``(block, copy)`` pairs, in block order."""
        held = [(i, a) for i, k in self._kinds.items() for a in np.flatnonzero(k == c).tolist()]
        return sorted(held + [(i, 0) for i in np.flatnonzero(self.scalar == c).tolist()])

    @functools.cached_property
    def irreps(self) -> tuple:
        return tuple(map(tuple, self.lams.tolist()))

    @functools.cached_property
    def copies(self) -> list:
        return [
            [(c, slice(b - m, b)) for c, m, b in zip(k.tolist(), n.tolist(), np.cumsum(n).tolist())]
            for k, n in map(self.split, range(len(self.scalar)))
        ]

    @functools.cached_property
    def weight_zero(self) -> list:
        zero = [([], _UNIT[:0]) if any(lam) else ([0], _UNIT) for lam in self.lams.tolist()]
        return [
            _on_zero(self.trunc.block(i), self._splits[i], "z") if c < 0 else zero[c]
            for i, c in enumerate(self.scalar.tolist())
        ]

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
        built on first read; only the reference routes read it."""
        return [
            _copy_basis(self.trunc.block(i), self._splits[i]) if c < 0 else _UNIT
            for i, c in enumerate(self.scalar.tolist())
        ]

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


def _block_seeds(splits: tuple, kinds: np.ndarray, n_max: int) -> np.ndarray:
    """Cumulative seed supports on one block's copies, of components
    ``kinds``: entry ``(n - 1, a)`` is set when some ``Gamma_{v,z}``'s power
    ``m <= n`` reaches copy ``a``'s component, its copies' normalised traces
    (the coordinates) above ``RANK_RTOL`` times the power's norm; less is
    roundoff.  Copy ``(a_u)``, of ``size = prod_u dim a_u`` columns, has
    ``E_v``'s trace of ``a_v`` times ``size / dim a_v``, and the power has
    ``E_v``'s norm times ``sqrt(d / dim E_v)``."""
    at, dims = _copy_index(splits), [s["lams"] + 1 for s in splits]
    size = np.prod([n[a] for n, a in zip(dims, at)], axis=0)
    d = np.prod([len(s["basis"]) for s in splits])
    steps = min(max(len(s["norms"]) for s in splits), n_max)
    seen = np.zeros((steps, len(kinds)), dtype=bool)
    for s, n, a in zip(splits, dims, at):
        k = min(len(s["norms"]), steps)
        traces = (s["traces"][:k] / n)[:, a] * np.sqrt(size)
        key = kinds + (kinds.max() + 1) * np.arange(k)[:, None]  # (power, component)
        weight = np.bincount(key.ravel(), np.abs(traces.ravel()) ** 2)[key]
        cut = RANK_RTOL * np.sqrt(d / len(s["basis"])) * s["norms"][:k, None]
        seen[:k] |= np.sqrt(weight) > cut
    return np.logical_or.accumulate(seen)[np.minimum(np.arange(n_max), steps - 1)]


# the copy basis, weight-zero column, or kept invariant column of every
# one-dimensional block: one array shared by all of them, so it is read-only
_UNIT = np.ones((1, 1), dtype=complex)
_UNIT.setflags(write=False)


def _check_method(graph, group, labels: np.ndarray, method: str, band) -> None:
    """Refuse an unknown ``method``; for ``"quadrature"``, raise ``BandError``
    for the first row of label values that needs more than ``band``."""
    if method not in ("lie", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method == "quadrature":
        degree = vertex_degrees(graph, labels)
        short = (degree + 1) // 2 > (np.inf if band is None else band.degree)
        if short.any():
            raise BandError(required_band(group, degree[short.argmax()]), band)


def reduce_blocks(trunc: Truncation, method: str = "lie", n_max: int = 0, band=None):
    """One pass over the blocks: the commutant, the invariant subspace by the
    null spaces (``"lie"``) or the Haar projector (``"quadrature"``, its band
    checked on every block first, or ``band``), and the seed supports of the
    averaged powers ``1..n_max``, read off the raw powers whatever the
    ``method``.  The supports are per component and cumulative: entry ``(n -
    1, c)`` is set when some ``GeneratorSpec(i, v, a, m)`` with ``m <= n``
    reaches component ``c`` (``_block_seeds``).  Components are numbered by
    first appearance, in block order, then copy order.

    A one-dimensional block carries a character of ``G^V``: one copy, basis
    ``[[1]]``, of weight ``2 Re(i Gamma_{v,L-1})`` at each vertex, read off
    the stacked ``scalar_generators`` of them all.  A scalar power is its own
    average and coordinate, zero exactly when the scalar is, so it seeds its
    component at every power if some scalar is nonzero; its Haar average is 1
    exactly when it is trivial, so both methods keep it when every scalar is
    zero.  Every other block's copies, invariants and their overlaps are the
    products of its vertices' (``_vertex_split``), vertex 0 slowest.
    """
    one, nl, counts = trunc.dims == 1, lie_dim(trunc.group), np.zeros(len(trunc.dims), int)
    gens = scalar_generators(trunc.graph, trunc.group, trunc.labels[one])
    live, rows = gens.any(axis=1), np.rint(-2 * gens[:, nl - 1 :: nl].imag).astype(int)
    del gens  # the pass's largest array
    _check_method(trunc.graph, trunc.group, trunc.labels, method, band)
    counts[one], ends = ~live, _ends(trunc.graph)
    splits = {
        i: _block_splits(ends, trunc.group, trunc.labels[i], method, band)
        for i in np.flatnonzero(~one).tolist()
    }
    # the one-dimensional blocks come first: U(1) has no other, SU(2) one, block 0
    grids = [np.array([s["lams"][a] for s, a in zip(x, _copy_index(x))]).T for x in splits.values()]
    rows = np.concatenate([rows, *grids])
    lo = rows.min(axis=0, initial=0)
    key = np.ravel_multi_index(tuple((rows - lo).T), rows.max(axis=0, initial=0) - lo + 1)
    _, first, which = np.unique(key, return_index=True, return_inverse=True)
    comps = np.argsort(np.argsort(first))[which]  # numbered by first appearance
    scalar = np.full(len(trunc.dims), -1)
    scalar[one] = comps[: len(live)]
    cuts = np.cumsum([len(live)] + [len(g) for g in grids])
    kinds = dict(zip(splits, np.split(comps, cuts)[1:]))
    support = np.zeros((n_max, len(first)), dtype=bool)
    support[:, scalar[one][live]] = True
    overlaps = {}
    for i, sp in splits.items():
        np.logical_or.at(support.T, kinds[i], _block_seeds(sp, kinds[i], n_max).T)
        counts[i] = np.prod([s["inv"].shape[1] for s in sp])
        if counts[i]:
            overlaps[i] = functools.reduce(_kron, [s["overlaps"] for s in sp])
    space = EquivariantSpace(trunc, splits, kinds, rows[np.sort(first)], scalar)
    return space, InvariantSpace(trunc, splits, counts, overlaps), support


def kernel_pi_basis(space: EquivariantSpace, inv: InvariantSpace) -> PiKernel:
    """Kernel of the compression map, by the row space of its matrix.

    An invariant vector has weight zero, so it meets copy ``a`` in its
    weight-zero column ``z_a`` alone, and component ``c``'s columns of ``pi``
    are ``(O_c (x) conj O_c) / sqrt(w_c)``, ``O_c`` its copies' overlaps
    ``inv^H z_a`` (``InvariantSpace.overlaps``), ``w_c`` their size.  A
    one-dimensional block that both spaces hold as arrays (``unit``) meets
    its one copy in the overlap 1, or 0 off the trivial irrep.
    The component of largest norm ``|O_c|_F^2 / sqrt(w_c)`` is kept and a
    second one above ``RANK_RTOL`` of it refused: correct invariant vectors
    span trivial copies.  A pair of singular values of ``O_c`` is kept when its
    product exceeds ``RANK_RTOL`` times the largest, the rank rule of
    ``scipy.linalg.null_space``.  With no invariants the kernel is everything.
    """
    if inv.dim == 0:
        return PiKernel(space.dim, None, np.zeros((0, 0)), np.zeros((0, 0), dtype=bool))
    first, over = np.concatenate([[0], np.cumsum(inv.counts)]), inv.overlaps  # row offsets
    unit = (space.scalar >= 0) & (inv.counts > 0)
    unit[list(over)] = False
    trivial = ~space.lams.any(axis=1)
    norms = np.bincount(space.scalar[unit], trivial[space.scalar[unit]], len(space.sizes)) * 1.0
    for i, o in over.items():
        kinds, sizes = space.split(i)
        np.add.at(norms, kinds, np.square(np.abs(o)).sum(axis=0) / np.sqrt(sizes))
    keep, rest = int(norms.argmax()), norms.copy()
    rest[keep] = 0.0
    if rest.max() > RANK_RTOL * norms[keep]:
        second = f"{rest.max():.3e} on component {rest.argmax()}"
        raise RuntimeError(f"pi has norm {norms[keep]:.3e} on component {keep} and {second}")
    members = space.held_by(keep)
    o = np.zeros((inv.dim, len(members)), dtype=complex)
    for p, (i, a) in enumerate(members):
        if i in over:
            o[first[i] : first[i + 1], p] = over[i][:, a]
        elif unit[i]:
            o[first[i], p] = trivial[keep]
    _, s, vh = np.linalg.svd(o, full_matrices=False)
    products = np.outer(s, s)  # the singular values of pi, times sqrt(w_c)
    kept = products > RANK_RTOL * products.max()
    k = np.count_nonzero(kept[:, 0])  # s is sorted, so the kept pairs are a staircase
    margin = products[kept].min() / (RANK_RTOL * products.max())
    return PiKernel(space.dim, keep, vh[:k], kept[:k, :k], float(np.linalg.norm(rest)), margin)
