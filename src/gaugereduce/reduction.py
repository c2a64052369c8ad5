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
ladder operators act one edge at a time, a copy keeps only its irrep, its
column weights and its column of weight zero, all that ``pi`` reads, and
either ``method`` finds the invariants on the weight-zero indices alone.  The
one-dimensional blocks carry characters of ``G^V``, read off one array.

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
from .lattice import GaugeElement, _edge_pieces, lie_directions, rho_block
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
    """The invariant subspace, block by block: ``columns[i]`` holds block
    ``i``'s orthonormal invariant vectors as columns.  Taken in block order,
    they are an orthonormal basis of the whole subspace."""

    def __init__(self, columns):
        self.columns = list(columns)
        self.dim = sum(cols.shape[1] for cols in self.columns)


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


def vertex_degree(block: BlockLabel) -> int:
    """Largest summed label degree of the edge endpoints at one vertex; a
    loop counts twice."""
    degree = dict.fromkeys(block.graph.vertices, 0)
    for e, lab in zip(block.graph.edges, block.labels):
        degree[e.source] += lab.degree
        degree[e.target] += lab.degree
    return max(degree.values(), default=0)


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
    at, _, zero = _weight_spaces(block)
    v = _zero_invariants(block, at, zero, method, band)
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
    diagonal; for SU(2) ``x``, ``y``, ``up`` (``J_+ = i (x + i y)``), ``down``."""
    parts = [sum(_edge_pieces(label, a)[s] for s in ends) for a in range(lie_dim(label.group))]
    out = {"weight": np.rint(2 * (1j * np.diagonal(parts[-1])).real).astype(int)}
    if len(parts) > 1:
        up = 1j * (parts[0] + 1j * parts[1])
        out.update(x=parts[0], y=parts[1], up=up, down=up.conj().T)
    for piece in out.values():
        piece.setflags(write=False)
    return out


def _weight_spaces(block: BlockLabel) -> tuple[list, dict, list]:
    """Per vertex, its edge ends ``(pieces, (w, post))`` (``_pieces``; ``w`` the
    edge's dimension, ``post`` that after it); per joint weight (``2 <J_z^v>``
    over the vertices, by first appearance) its indices; and those of weight 0."""
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
    return at, spaces, spaces.get((0,) * len(at), [])


def _act(ends: list, key: str, x: np.ndarray) -> np.ndarray:
    """Sum over one vertex's edge ``ends`` of ``1_pre (x) piece (x) 1_post``, on ``x``'s rows."""
    terms = [(pieces[key] @ x.reshape(-1, *shape)).reshape(x.shape) for pieces, shape in ends]
    return sum(terms[1:], terms[0]) if terms else np.zeros_like(x)


def _zero_invariants(block: BlockLabel, at, zero: list, method: str, band) -> np.ndarray:
    """Orthonormal invariant columns, found on the weight-zero indices ``zero``
    where all lie: the null space there of every ``Gamma_{v,x}`` and ``Gamma_{v,y}``
    (``"lie"``, with no raising operator), or the Haar projector's range there."""
    units = np.equal.outer(zero, np.arange(block.dim)).astype(complex)  # as rows
    if method == "lie":
        if not zero:
            return units.T
        dirs = "xy"[: len(lie_directions(block)) - 1]
        images = np.hstack([units[:, :0]] + [_act(e, a, units) for e in at for a in dirs])
        return units.T @ _null_columns(images[:, images.any(axis=0)].T)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    vals, vecs = np.linalg.eigh(_haar_on_zero(block, zero, band))
    return units.T @ vecs[:, vals > 0.5]


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

    ``copies[i][a] = (c, cols)`` puts copy ``a`` of block ``i``, of irrep
    ``irreps[c]``, on the columns ``cols``; ``members[c]`` lists its
    ``(block, copy)`` pairs; ``weight_zero[i]`` holds the block's ``W_0``
    indices and weight-zero columns (``_graded_copies``); ``sizes[c]`` counts
    component ``c``'s members.  Element ``k``, a matrix unit ``u_a u_b^H /
    sqrt(dim)`` of component ``components[k]``, is orthonormal to the others;
    a component's run row-major over its members squared.  Only the reference
    routes read the ``components``, the indices ``(i, a, j, b)`` (``elements``)
    and those of each block pair (``by_pair``), built lazily."""

    def __init__(self, trunc: Truncation, weight_zero, copies, irreps):
        self.trunc = trunc
        self.weight_zero = weight_zero
        self.copies = copies
        self.irreps = tuple(irreps)
        self.members = [[] for _ in self.irreps]
        for i, block_copies in enumerate(copies):
            for a, (c, _) in enumerate(block_copies):
                self.members[c].append((i, a))
        self.sizes = np.array([len(held) for held in self.members])
        self.dim = int(np.square(self.sizes).sum())

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


def _graded_copies(block: BlockLabel, at: list, spaces: dict, every: bool = False) -> tuple:
    """The block's irreducible copies: each one's column of weight zero on
    ``W_0`` (zero if some ``lam_v`` is odd), or with ``every`` a unitary of all
    their columns; per copy ``(lam, cols)`` (``lam_v = 2 j_v``); and per vertex
    the eigenvalue ``-i mu_v / 2`` of ``Gamma_{v,z}`` on each column, ``mu`` in
    ``prod_v range(lam_v, -lam_v - 1, -2)`` within a copy.  A dominant ``lam``
    is highest in ``m = sum_S (-1)^|S| |W_{lam + 2 e_S}|`` copies (``S``: sets
    of vertices), the raising operators' null space on ``W_lam``, lowered
    together vertex by vertex to weight zero or every level, each step normalized."""
    d, nv, zero = block.dim, len(at), spaces.get((0,) * len(at), [])
    signed = [((-1) ** s.count(2), s) for s in product((0, 2), repeat=nv)]
    kept, copies, weights = [], [], []  # kept: the columns, as rows
    for lam, cols in ((k, c) for k, c in spaces.items() if min(k, default=0) >= 0):  # dominant
        sizes = [len(spaces.get(tuple(a + b for a, b in zip(lam, s)), ())) for _, s in signed]
        m = sum(sign * n for (sign, _), n in zip(signed, sizes))
        if not m:
            continue
        mus, start = list(product(*(range(s, -s - 1, -2) for s in lam))), len(weights)
        weights += mus * m  # mus: one copy's weights
        copies += [(lam, slice(k, k + len(mus))) for k in range(start, len(weights), len(mus))]
        if not every and any(s % 2 for s in lam):  # no weight zero
            kept.append(np.zeros((m, len(zero)), dtype=complex))
            continue
        top = np.equal.outer(cols, np.arange(d)).astype(complex)  # as rows
        if m < len(cols):
            above = [(e, lam[:v] + (lam[v] + 2,) + lam[v + 1 :]) for v, e in enumerate(at)]
            raised = np.hstack([_act(e, "up", top)[:, spaces[w]] for e, w in above if w in spaces])
            hw = _null_columns(raised.T)
            if hw.shape[1] != m:
                raise RuntimeError(f"{block}: {hw.shape[1]} highest weights {lam}, not {m}")
            top = hw.T @ top
        chain = [top]  # the copies' rows, one array per column kept
        for ends, steps in zip(at, lam):
            levels = [chain]  # |J_- v| = sqrt(t (steps + 1 - t)) on level t - 1
            for t in range(1, (steps if every else steps // 2) + 1):
                lowered = [_act(ends, "down", r) for r in levels[-1]]
                levels.append([y / np.sqrt(t * (steps + 1 - t)) for y in lowered])
            chain = [r for rows in zip(*levels) for r in rows] if every else levels[-1]
        kept.append(np.stack(chain, axis=1).reshape(-1, d) if every else chain[0][:, zero])
    return np.vstack(kept).T, copies, -0.5j * np.array(weights).T


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
_UNIT, _EMPTY = np.ones((1, 1), dtype=complex), np.zeros((1, 0), dtype=complex)
_UNIT.setflags(write=False)
_EMPTY.setflags(write=False)


def _scalar_parts(trunc: Truncation, n_max: int):
    """Per one-dimensional block of ``trunc``, in order, the ``(zeros, copies,
    seed supports, lie invariant columns)`` of ``reduce_blocks``, read with
    whole-array operations off their stacked scalar generators
    (``scalar_generators``); every truncation has one, of all-zero labels.
    Such a block carries a character of ``G^V``: it is one copy, with basis
    ``[[1]]`` and weight ``2 Re(i Gamma_{v,L-1})`` at each vertex, and it is
    invariant, of weight zero, iff every scalar is zero.  A scalar power is
    its own average and its own coordinate, and it is zero exactly when the
    scalar is, so the ``(n_max, 1)`` support repeats whether any scalar is
    nonzero."""
    blocks = [b for b, d in zip(trunc.blocks, trunc.dims) if d == 1]
    gens = scalar_generators(blocks)
    nl = len(lie_directions(blocks[0]))
    weights = np.rint(2 * (1j * gens[:, nl - 1 :: nl]).real).astype(int).tolist()
    live = gens.any(axis=1)
    seeded = np.repeat(live[:, None, None], n_max, axis=1)
    zeros = [([], _UNIT[:0]) if touched else ([0], _UNIT) for touched in live]
    columns = [_EMPTY if touched else _UNIT for touched in live]
    return zip(zeros, ([(tuple(w), slice(0, 1))] for w in weights), seeded, columns)


def reduce_blocks(trunc: Truncation, method: str = "lie", n_max: int = 0, band=None):
    """One pass over the blocks: the commutant, the invariant subspace by
    the ``method`` of ``invariant_projector`` (``band`` overrides its
    quadrature band), and the seed supports of the averaged powers
    ``1..n_max``, read off the raw powers whatever the ``method``.  The
    supports are per component and cumulative: entry ``(n - 1, c)`` is set
    when some ``GeneratorSpec(i, v, a, m)`` with ``m <= n`` reaches component
    ``c`` (``_block_seeds``).  The one-dimensional blocks are read off one
    array (``_scalar_parts``), every other block off its weight spaces.
    """
    irreps: dict[tuple[int, ...], int] = {}
    zeros, copies, columns, seeded = [], [], [], []
    scalar = _scalar_parts(trunc, n_max)
    for block, d in zip(trunc.blocks, trunc.dims):
        if d == 1:
            ((zero, z), split, seed, cols), at = next(scalar), None
        else:
            at, spaces, zero = _weight_spaces(block)
            z, split, eig = _graded_copies(block, at, spaces)
        zeros.append((zero, z))
        copies.append([(irreps.setdefault(lam, len(irreps)), c) for lam, c in split])
        if d > 1:
            seed = _block_seeds(eig, copies[-1], n_max)
        if d > 1 or method != "lie":
            cols = _zero_invariants(block, at, zero, method, band)
        seeded.append(seed)
        columns.append(cols)
    support = np.zeros((n_max, len(irreps)), dtype=bool)
    np.logical_or.at(support.T, [c for split in copies for c, _ in split], np.hstack(seeded).T)
    return EquivariantSpace(trunc, zeros, copies, irreps), InvariantSpace(columns), support


def kernel_pi_basis(space: EquivariantSpace, inv: InvariantSpace) -> PiKernel:
    """Kernel of the compression map, by the row space of its matrix.

    An invariant vector has weight zero, so it meets copy ``a`` in its
    weight-zero column ``z_a`` alone (``EquivariantSpace.weight_zero``), and
    component ``c``'s columns of ``pi`` are ``(O_c (x) conj O_c) / sqrt(w_c)``,
    ``O_c`` its copies' overlaps ``inv^H z_a`` on ``W_0``, ``w_c`` their size.
    The component of largest norm ``|O_c|_F^2 / sqrt(w_c)`` is kept and a
    second one above ``RANK_RTOL`` of it refused: correct invariant vectors
    span trivial copies.  A pair of singular values of ``O_c`` is kept when its
    product exceeds ``RANK_RTOL`` times the largest, the rank rule of
    ``scipy.linalg.null_space``.  With no invariants the kernel is everything.
    """
    if inv.dim == 0:
        return PiKernel(space.dim, None, np.zeros((0, 0)), np.zeros((0, 0), dtype=bool))
    first = np.cumsum([0] + [cols.shape[1] for cols in inv.columns])  # row offsets
    zeros = zip(inv.columns, space.weight_zero)
    over = {i: c[w].conj().T @ z for i, (c, (w, z)) in enumerate(zeros) if c.size}  # on W_0
    norms = np.zeros(len(space.irreps))
    for i, o in over.items():
        kinds, sizes = zip(*((c, cols.stop - cols.start) for c, cols in space.copies[i]))
        np.add.at(norms, list(kinds), np.square(np.abs(o)).sum(axis=0) / np.sqrt(sizes))
    keep, rest = int(norms.argmax()), norms.copy()
    rest[keep] = 0.0
    if rest.max() > RANK_RTOL * norms[keep]:
        second = f"{rest.max():.3e} on component {rest.argmax()}"
        raise RuntimeError(f"pi has norm {norms[keep]:.3e} on component {keep} and {second}")
    o = np.zeros((inv.dim, len(space.members[keep])), dtype=complex)
    for p, (i, a) in enumerate(space.members[keep]):
        if i in over:
            o[first[i] : first[i + 1], p] = over[i][:, a]
    _, s, vh = np.linalg.svd(o, full_matrices=False)
    products = np.outer(s, s)  # the singular values of pi, times sqrt(w_c)
    kept = products > RANK_RTOL * products.max()
    k = np.count_nonzero(kept[:, 0])  # s is sorted, so the kept pairs are a staircase
    margin = products[kept].min() / (RANK_RTOL * products.max())
    return PiKernel(space.dim, keep, vh[:k], kept[:k, :k], float(np.linalg.norm(rest)), margin)
