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

The first three come from one pass over the blocks (``reduce_blocks``) with no
``d x d`` array: a block is graded by joint weights off per-edge diagonals,
ladder operators are maps between weight spaces, a copy keeps only its irrep,
its column weights and its column of weight zero, all that ``pi`` reads, and
either ``method`` finds the invariants on the weight-zero indices alone.  The
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
from .groups import IrrepLabel, haar_scheme, identity_point, irrep_matrix, lie_dim, required_band
from .lattice import GaugeElement, _edge_pieces, rho_block
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
    vectors in block ``i``, the columns of ``given[i]`` if it is there, else
    the one-dimensional block's basis vector.  Taken in block order, they are
    an orthonormal basis of the whole subspace.  Every block's ``columns``
    are built on first read."""

    def __init__(self, columns: dict, counts: np.ndarray):
        self.given, self.counts, self.dim = columns, counts, int(counts.sum())

    @functools.cached_property
    def columns(self) -> list:
        return [self.given.get(i, _UNIT[:, :n]) for i, n in enumerate(self.counts.tolist())]


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
    the ``method`` of ``_zero_invariants``."""
    ladder, _, zero = _weight_spaces(block)
    v = _zero_invariants(block, ladder, zero, method, band)
    return v @ v.conj().T


def _null_columns(a: np.ndarray) -> np.ndarray:
    """Orthonormal null space of ``a`` by the rank rule of ``null_space``
    (singular values above ``RANK_RTOL`` times the largest), from an SVD
    that is thin unless ``a`` is wide.  A tall stack is first reduced to
    its QR triangle, which has the same singular values and right factor
    and holds no left factor the size of the stack."""
    if a.shape[0] > a.shape[1]:
        a = np.linalg.qr(a, mode="r")
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    return vh[np.count_nonzero(s > RANK_RTOL * s.max(initial=0.0)) :].conj().T


@functools.cache
def _pieces(label: IrrepLabel, ends: tuple[int, ...]) -> dict:
    """An edge's read-only pieces at its ``ends`` at one vertex (0 source, 1
    target; both for a loop): ``weight``, ``rint(2 Re(i Gamma_z))`` on the
    diagonal; ``up``, ``J_+ = i (Gamma_x + i Gamma_y)`` (zero for U(1)), and ``down``."""
    parts = [sum(_edge_pieces(label, a)[s] for s in ends) for a in range(lie_dim(label.group))]
    up = 1j * (parts[0] + 1j * parts[1]) if len(parts) > 1 else np.zeros_like(parts[0])
    out = {"weight": np.rint(2 * (1j * np.diagonal(parts[-1])).real).astype(int), "up": up}
    out["down"] = up.conj().T
    for piece in out.values():
        piece.setflags(write=False)
    return out


def _weight_spaces(block: BlockLabel) -> tuple:
    """The block's ``_ladder`` maps, each built once, as ``ladder(mu, v, key)``;
    per joint weight (``2 <J_z^v>`` over the vertices, by first appearance) its
    indices, ascending; and those of weight 0."""
    index, post = block.graph.vertex_index, block.dim
    at, weights = [[] for _ in index], np.zeros((len(index), block.dim), dtype=int)
    for e, lab in zip(block.graph.edges, block.labels):
        post //= lab.dim**2
        loop = e.source == e.target  # a loop's ends act on one vertex as one piece
        for v, ends in {index[e.target]: (1,), index[e.source]: (0, 1) if loop else (0,)}.items():
            at[v].append((_pieces(lab, ends), (lab.dim**2, post)))
            shared = weights[v].reshape(-1, lab.dim**2, post)
            shared += at[v][-1][0]["weight"][:, None]
    spaces: dict[tuple[int, ...], list[int]] = {}
    for k, lam in enumerate(map(tuple, weights.T.tolist())):
        spaces.setdefault(lam, []).append(k)
    ladder = functools.cache(functools.partial(_ladder, at, spaces))
    return ladder, spaces, spaces.get((0,) * len(at), [])


def _ladder(at: list, spaces: dict, mu: tuple, v: int, key: str) -> np.ndarray:
    """``J_+^v`` (``key`` "up") or ``J_-^v`` ("down") out of ``W_mu``, as the dense
    ``|W_{mu +- 2 e_v}| x |W_mu|`` matrix, from the pieces of ``v``'s edge ends
    ``at[v]``, ``(pieces, (w, post))`` (``w`` the edge's dimension, ``post``
    that after it).  An end's piece changes index ``k``'s digit ``(k // post)
    % w`` alone, so within one end no entry is placed twice."""
    shifted = (*mu[:v], mu[v] + (2 if key == "up" else -2), *mu[v + 1 :])
    src, dst = np.array(spaces.get(mu, []), int), np.array(spaces.get(shifted, []), int)
    out = np.zeros((len(dst), len(src)), dtype=complex)
    for pieces, (w, post) in at[v] if out.size else ():  # an empty map reads no piece
        digit = src // post % w
        r, c = np.nonzero(pieces[key][:, digit])
        out[np.searchsorted(dst, src[c] + (r - digit[c]) * post), c] += pieces[key][r, digit[c]]
    return out


def _zero_invariants(block: BlockLabel, ladder, zero: list, method: str, band) -> np.ndarray:
    """Orthonormal invariant columns, found on the weight-zero indices ``zero``
    where all lie and placed into the block once: the null space there of
    every ``J_+^v`` and ``J_-^v`` stacked (``"lie"``, which is not the copies'
    null space of the ``J_+`` alone), or the Haar projector's range there."""
    if method == "lie":
        key = (0,) * len(block.graph.vertices)
        maps = [ladder(key, v, s) for v in range(len(key)) for s in ("up", "down")]
        cols = _null_columns(np.vstack([np.zeros((0, len(zero)))] + maps))
    elif method == "quadrature":
        vals, vecs = np.linalg.eigh(_haar_on_zero(block, zero, band))
        cols = vecs[:, vals > 0.5]
    else:
        raise ValueError(f"unknown method {method!r}")
    out = np.zeros((block.dim, cols.shape[1]), dtype=complex)
    out[zero] = cols
    return out


@functools.cache
def _edge_factors(label: IrrepLabel, band: IrrepLabel, source: bool, target: bool) -> np.ndarray:
    """``rho_block``'s read-only edge factors at the points of the scheme of
    ``band``, taken at the edge's source and/or target, the identity else."""
    one = np.eye(label.dim)
    mats = [irrep_matrix(label, p) for p in haar_scheme(label.group, band).points]
    out = np.array([np.kron(np.conj(m) if source else one, m if target else one) for m in mats])
    out.setflags(write=False)
    return out


def _haar_on_zero(block: BlockLabel, zero: list, band: IrrepLabel | None) -> np.ndarray:
    """The Haar projector ``prod_v P_v`` on the weight-zero indices ``zero``,
    after the band check.  ``P_v`` maps ``W_0`` into itself: it commutes
    with every ``J_z^u``, ``u != v``, and its range has weight zero at ``v``."""
    need = projector_band(block)
    band = need if band is None else band
    if band.degree < need.degree:
        raise BandError(need, band)
    out, dims = np.eye(len(zero), dtype=complex), [lab.dim**2 for lab in block.labels]
    digits = np.unravel_index(np.array(zero, dtype=int), dims) if dims else ()
    for v in block.graph.vertices if zero else ():
        term = haar_scheme(block.group, band).weights[:, None, None]
        for e, lab, p in zip(block.graph.edges, block.labels, digits):
            term = term * _edge_factors(lab, band, e.source == v, e.target == v)[:, p[:, None], p]
        out = term.sum(axis=0) @ out
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
    for a block held per block, whose ``W_0`` indices and weight-zero columns
    (``_graded_copies``) are ``weight_zero[i]`` and whose copies are
    ``copies[i]``: ``(c, cols)`` puts one of irrep ``irreps[c]`` (row ``c`` of
    ``lams``) on the columns ``cols``.  ``sizes[c]`` counts component ``c``'s
    copies.  Element ``k``, a matrix unit ``u_a u_b^H / sqrt(dim)`` of
    component ``components[k]``, is orthonormal to the others; a component's
    run row-major over its ``members`` (``held_by``) squared.  Every block's
    ``copies`` and ``weight_zero``, and each cached property, are built on
    first read."""

    def __init__(self, trunc: Truncation, weight_zero, copies, irreps, scalar: np.ndarray):
        self.trunc, self.lams = trunc, np.array(irreps, dtype=int).reshape(len(irreps), -1)
        self.scalar = scalar
        self.held = np.flatnonzero(self.scalar < 0).tolist()
        self._zero, self._copies = weight_zero, copies
        kinds = [c for i in self.held for c, _ in copies[i]]
        comps = np.concatenate([self.scalar[self.scalar >= 0], kinds]).astype(int)
        self.sizes = np.bincount(comps, minlength=len(self.lams))
        self.dim = int(np.square(self.sizes).sum())

    def held_by(self, c: int) -> list:
        """Component ``c``'s ``(block, copy)`` pairs, in block order."""
        held = [(i, a) for i in self.held for a, (k, _) in enumerate(self._copies[i]) if k == c]
        return sorted(held + [(i, 0) for i in np.flatnonzero(self.scalar == c).tolist()])

    @functools.cached_property
    def irreps(self) -> tuple:
        return tuple(map(tuple, self.lams.tolist()))

    @functools.cached_property
    def copies(self) -> list:
        scalar = enumerate(self.scalar.tolist())
        return [self._copies[i] if c < 0 else [(c, slice(0, 1))] for i, c in scalar]

    @functools.cached_property
    def weight_zero(self) -> list:
        zero = [([], _UNIT[:0]) if any(lam) else ([0], _UNIT) for lam in self.lams.tolist()]
        return [self._zero[i] if c < 0 else zero[c] for i, c in enumerate(self.scalar.tolist())]

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
        """Per block, the unitary with its copies side by side (``_graded_copies``
        at every level), built on first read; only the reference routes read it."""
        return [
            _graded_copies(b, *_weight_spaces(b)[:2], True)[0] if b.dim > 1 else _UNIT
            for b in self.trunc.blocks
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


def _graded_copies(block: BlockLabel, ladder, spaces: dict, every: bool = False) -> tuple:
    """The block's irreducible copies: each one's column of weight zero on
    ``W_0`` (zero if some ``lam_v`` is odd), or with ``every`` a unitary of all
    their columns; per copy ``(lam, cols)`` (``lam_v = 2 j_v``); and per vertex
    the eigenvalue ``-i mu_v / 2`` of ``Gamma_{v,z}`` on each column, ``mu`` in
    ``prod_v range(lam_v, -lam_v - 1, -2)`` within a copy.  A dominant ``lam``
    is highest in ``m = sum_S (-1)^|S| |W_{lam + 2 e_S}|`` copies (``S``: sets
    of vertices), the null space on ``W_lam`` of the stacked ``J_+`` maps, held
    as rows per weight and lowered vertex by vertex to weight zero or every
    level, each weight from the one above it, each step normalized."""
    nv = len(block.graph.vertices)
    signed = [((-1) ** s.count(2), s) for s in product((0, 2), repeat=nv)]
    kept, copies, weights = [], [], []  # kept: the columns, as rows
    out = np.zeros((block.dim, block.dim), dtype=complex) if every else None
    for lam, cols in ((k, c) for k, c in spaces.items() if min(k, default=0) >= 0):  # dominant
        sizes = [len(spaces.get(tuple(a + b for a, b in zip(lam, s)), ())) for _, s in signed]
        m = sum(sign * n for (sign, _), n in zip(signed, sizes))
        if not m:
            continue
        mus, start = list(product(*(range(s, -s - 1, -2) for s in lam))), len(weights)
        weights += mus * m  # mus: one copy's weights, lam first
        copies += [(lam, slice(k, k + len(mus))) for k in range(start, len(weights), len(mus))]
        if not every and any(s % 2 for s in lam):  # no weight zero
            kept.append(np.zeros((m, len(spaces.get((0,) * nv, ()))), dtype=complex))
            continue
        rows = {lam: np.eye(len(cols), dtype=complex)}  # per mu, the copies' rows on W_mu
        if m < len(cols):
            hw = _null_columns(np.vstack([ladder(lam, v, "up") for v in range(nv)]))
            if hw.shape[1] != m:
                raise RuntimeError(f"{block}: {hw.shape[1]} highest weights {lam}, not {m}")
            rows[lam] = hw.T
        path = [(*(0,) * v, s, *lam[v + 1 :]) for v in range(nv) for s in range(lam[v] - 2, -1, -2)]
        for mu in mus[1:] if every else path:  # from one step above, at the last vertex below lam
            k = max(v for v in range(nv) if mu[v] < lam[v])
            above, t = (*mu[:k], mu[k] + 2, *mu[k + 1 :]), (lam[k] - mu[k]) // 2  # step t at k
            rows[mu] = rows[above] @ ladder(above, k, "down").T / np.sqrt(t * (lam[k] + 1 - t))
        if not every:
            kept.append(rows[(0,) * nv])
            continue
        for t, mu in enumerate(mus):  # copy a's column t is start + a len(mus) + t
            out[np.array(spaces[mu])[:, None], start + t + len(mus) * np.arange(m)] = rows[mu].T
    return out if every else np.vstack(kept).T, copies, -0.5j * np.array(weights).T


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


def _block_seeds(eig: np.ndarray, copies: list, n_max: int) -> np.ndarray:
    """Cumulative seed supports on one block's copies: entry ``(n - 1, a)`` is
    set when some generator's averaged power ``m <= n`` reaches copy ``a``'s
    component: the norm of the normalised traces (the coordinates) of that
    component's copies exceeds ``RANK_RTOL`` times the power's Frobenius norm;
    less is roundoff.  Read off the eigenvalues ``eig[v]`` of ``Gamma_{v,z}`` on
    the copy columns, each divided by the largest at its vertex so no power overflows."""
    steps = np.minimum([len(set(lam.tolist())) for lam in eig], n_max)
    base = eig / np.abs(eig).max(axis=1, keepdims=True, initial=np.finfo(float).tiny)
    n = np.arange(1, steps.max(initial=0) + 1)[:, None]
    powers = np.where(n <= steps[:, None, None], base[:, None] ** n, 0)  # none past the steps
    kinds, starts, sizes = zip(*((c, cols.start, cols.stop - cols.start) for c, cols in copies))
    traces = np.add.reduceat(powers, starts, axis=-1) / np.sqrt(sizes)
    weight = np.abs(traces) ** 2 @ np.equal.outer(kinds, kinds)  # per copy, its component's
    cut = RANK_RTOL * np.linalg.norm(powers, axis=-1)[..., None]
    seen = (np.sqrt(weight) > cut).any(axis=0)
    return np.logical_or.accumulate(seen)[np.minimum(np.arange(n_max), len(seen) - 1)]


# the copy basis, weight-zero column, or kept invariant column of every
# one-dimensional block: one array shared by all of them, so it is read-only
_UNIT = np.ones((1, 1), dtype=complex)
_UNIT.setflags(write=False)


def _scalar_invariants(trunc: Truncation, live: np.ndarray, method: str, band) -> np.ndarray:
    """Which one-dimensional blocks are invariant, by either ``method``: those
    whose scalars are all zero (not ``live``).  The Haar average of a
    character of ``G^V`` is 1 exactly when the character is trivial, so
    ``"quadrature"`` keeps the same blocks; it checks the band of every block
    first, and a ``band`` too small raises ``BandError`` for the first block
    that needs more."""
    if method not in ("lie", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method == "quadrature":
        degree = vertex_degrees(trunc.graph, trunc.labels)
        short = (degree + 1) // 2 > (np.inf if band is None else band.degree)
        if short.any():
            raise BandError(required_band(trunc.group, degree[short.argmax()]), band)
    return ~live


def reduce_blocks(trunc: Truncation, method: str = "lie", n_max: int = 0, band=None):
    """One pass over the blocks: the commutant, the invariant subspace by
    the ``method`` of ``invariant_projector`` (``band`` overrides its
    quadrature band), and the seed supports of the averaged powers
    ``1..n_max``, read off the raw powers whatever the ``method``.  The
    supports are per component and cumulative: entry ``(n - 1, c)`` is set
    when some ``GeneratorSpec(i, v, a, m)`` with ``m <= n`` reaches component
    ``c`` (``_block_seeds``).  Components are numbered by first appearance,
    in block order, then copy order.

    A one-dimensional block carries a character of ``G^V``: one copy, basis
    ``[[1]]``, of weight ``2 Re(i Gamma_{v,L-1})`` at each vertex, read off
    the stacked ``scalar_generators`` of them all.  A scalar power is its own
    average and coordinate, zero exactly when the scalar is, so it seeds its
    component at every power if some scalar is nonzero.  Every other block is
    read off its weight spaces.
    """
    one, nl, counts = trunc.dims == 1, lie_dim(trunc.group), np.zeros(len(trunc.dims), int)
    gens = scalar_generators(trunc.graph, trunc.group, trunc.labels[one])
    live, rows = gens.any(axis=1), np.rint(-2 * gens[:, nl - 1 :: nl].imag).astype(int)
    del gens  # the pass's largest array
    counts[one] = _scalar_invariants(trunc, live, method, band)
    held, columns = {}, {}
    for i in np.flatnonzero(~one).tolist():
        block = trunc.block(i)
        ladder, spaces, zero = _weight_spaces(block)
        held[i] = zero, *_graded_copies(block, ladder, spaces)
        columns[i] = _zero_invariants(block, ladder, zero, method, band)
        counts[i] = columns[i].shape[1]
    # the one-dimensional blocks come first: U(1) has no other, SU(2) one, block 0
    lams = [lam for _, _, split, _ in held.values() for lam, _ in split]
    rows = np.concatenate([rows, np.array(lams, dtype=int).reshape(len(lams), rows.shape[1])])
    lo = rows.min(axis=0, initial=0)
    key = np.ravel_multi_index(tuple((rows - lo).T), rows.max(axis=0, initial=0) - lo + 1)
    _, first, which = np.unique(key, return_index=True, return_inverse=True)
    comps = np.argsort(np.argsort(first))[which]  # numbered by first appearance
    scalar = np.full(len(trunc.dims), -1)
    scalar[one], comps = comps[: len(live)], iter(comps[len(live) :].tolist())
    support = np.zeros((n_max, len(first)), dtype=bool)
    support[:, scalar[one][live]] = True
    zeros, copies = {}, {}
    for i, (zero, z, split, eig) in held.items():
        zeros[i], copies[i] = (zero, z), [(next(comps), c) for _, c in split]
        seeds = _block_seeds(eig, copies[i], n_max)
        np.logical_or.at(support.T, [c for c, _ in copies[i]], seeds.T)
    space = EquivariantSpace(trunc, zeros, copies, rows[np.sort(first)], scalar)
    return space, InvariantSpace(columns, counts), support


def kernel_pi_basis(space: EquivariantSpace, inv: InvariantSpace) -> PiKernel:
    """Kernel of the compression map, by the row space of its matrix.

    An invariant vector has weight zero, so it meets copy ``a`` in its
    weight-zero column ``z_a`` alone (``EquivariantSpace.weight_zero``), and
    component ``c``'s columns of ``pi`` are ``(O_c (x) conj O_c) / sqrt(w_c)``,
    ``O_c`` its copies' overlaps ``inv^H z_a`` on ``W_0``, ``w_c`` their size.
    A one-dimensional block that both spaces hold as arrays (``unit``) meets
    its one copy in the overlap 1, or 0 off the trivial irrep.
    The component of largest norm ``|O_c|_F^2 / sqrt(w_c)`` is kept and a
    second one above ``RANK_RTOL`` of it refused: correct invariant vectors
    span trivial copies.  A pair of singular values of ``O_c`` is kept when its
    product exceeds ``RANK_RTOL`` times the largest, the rank rule of
    ``scipy.linalg.null_space``.  With no invariants the kernel is everything.
    """
    if inv.dim == 0:
        return PiKernel(space.dim, None, np.zeros((0, 0)), np.zeros((0, 0), dtype=bool))
    first = np.concatenate([[0], np.cumsum(inv.counts)])  # row offsets
    unit = (space.scalar >= 0) & (inv.counts > 0)
    unit[list(inv.given)] = False
    over = {}  # on W_0
    for i in np.flatnonzero((inv.counts > 0) & ~unit).tolist():
        w, z = space.weight_zero[i]
        over[i] = inv.columns[i][w].conj().T @ z
    trivial = ~space.lams.any(axis=1)
    norms = np.bincount(space.scalar[unit], trivial[space.scalar[unit]], len(space.sizes)) * 1.0
    for i, o in over.items():
        kinds, sizes = zip(*((c, cols.stop - cols.start) for c, cols in space.copies[i]))
        np.add.at(norms, list(kinds), np.square(np.abs(o)).sum(axis=0) / np.sqrt(sizes))
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
