"""Gauge reduction machinery.

Three objects are produced from a truncation:

* the invariant subspace of the field space (joint kernel of the vertex
  Gauss generators, or equivalently the range of the Haar-averaged
  projector),
* the commutant algebra -- the block operators commuting with every
  gauge transformation.  Each block is split once into irreducible copies
  of the gauge action, labelled by a gauge irrep ``lam``; the commutant is
  then ``sum_lam M_{m_lam}(C)``, one full matrix algebra per irrep, whose
  matrix units between copies (Schur's lemma) are held as copy indices,
* the matrix of the restriction map ``pi`` sending a commutant element to
  its compression onto the invariant subspace, and its kernel, kept by its
  complement, the row space of ``pi``.  Neither uses the irrep labels, so
  comparing the kernel with the ideal built from them is a genuine check.

All three come from one pass over the blocks (``reduce_blocks``): each
block's Gauss generators are built once, everything that needs them is read
off, and they are dropped before the next block is built.  A
one-dimensional block carries a character of ``G^V`` and its generators are
scalars, so all such blocks are read off one array of them at once.

Everything is finite-dimensional linear algebra; ranks are decided at a
single relative tolerance so the counts reported downstream are stable.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .blocks import BlockLabel, Truncation
from .groups import IrrepLabel, haar_scheme, identity_point, required_band
from .lattice import GaugeElement, block_generators, lie_directions, rho_block, scalar_generators

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


class PiKernel:
    """The kernel of ``pi`` in commutant coordinates, known by its
    orthogonal complement: ``complement`` has orthonormal rows ``V_r`` and
    the kernel is every ``w`` with ``V_r @ w = 0``."""

    def __init__(self, ambient_dim: int, complement: np.ndarray):
        self.ambient_dim = ambient_dim
        self.complement = complement

    @property
    def dim(self) -> int:
        return self.ambient_dim - self.complement.shape[0]


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
    is one average per vertex, in any order.  Returns one ``(weights,
    actions)`` pair per vertex; ``actions[s]`` is the block matrix of scheme
    point ``s`` at that vertex and the identity elsewhere.  The band is
    ``need`` unless a wider ``band`` is given; a narrower one raises
    ``BandError``.
    """
    band = need if band is None else band
    if band.degree < need.degree:
        raise BandError(need, band)
    scheme = haar_scheme(need.group, band)
    vertices, one = block.graph.vertices, identity_point(need.group)
    out = []
    for v in vertices:
        points = [tuple(p if u == v else one for u in vertices) for p in scheme.points]
        rho = [rho_block(block, GaugeElement(block.graph, g)) for g in points]
        out.append((scheme.weights, np.array(rho)))
    return out


def invariant_projector(
    block: BlockLabel, method: str = "lie", band: IrrepLabel | None = None
) -> np.ndarray:
    """Orthogonal projector onto the gauge-invariant vectors of a block.

    ``method="lie"`` intersects the kernels of the vertex generators;
    ``method="quadrature"`` multiplies the exact Haar averages of the block
    action over each vertex.  Both agree to rank tolerance on every system.
    """
    if method == "lie":
        v = _invariant_columns(block_generators(block))
        return v @ v.conj().T
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    out = np.eye(block.dim, dtype=complex)
    for weights, actions in vertex_actions(block, projector_band(block), band):
        out = np.tensordot(weights, actions, 1) @ out
    return out


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


def _invariant_columns(gens: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the vectors that every generator of the
    ``(n, d, d)`` stack ``gens`` annihilates."""
    return _null_columns(gens.reshape(-1, gens.shape[1]))


def invariant_basis(trunc: Truncation, method: str = "lie") -> SubspaceBasis:
    """Orthonormal basis of the invariant subspace of the whole truncation."""
    return reduce_blocks(trunc, invariants=method, commutant=False)[1]


def own_elements(copies: list):
    """One block's elements ``(i, a, i, b)``, in the order of
    ``EquivariantSpace.by_pair[(i, i)]`` (by component, then row-major over
    the block's copies of it): their components, and a map reading their
    coordinates off an operator given in the block's copy basis, the
    normalised trace of each element's copy block."""
    pairs = sorted(
        (c, a, b) for a, (c, _) in enumerate(copies) for b, (cb, _) in enumerate(copies) if c == cb
    )
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

    ``bases[i]`` is a unitary whose columns are block ``i``'s irreducible
    copies side by side; ``copies[i][a] = (c, cols)`` puts copy ``a`` of
    irrep ``irreps[c]`` on the columns ``cols``, and ``members[c]`` lists its
    ``(block, copy)`` pairs.  Element ``k`` is the index ``(i, a, j, b)`` of
    the matrix unit ``u_a u_b^H / sqrt(dim)``.  The elements are orthonormal;
    those of irrep ``components[k]`` run row-major over its members squared,
    and ``by_pair`` lists those of each block pair."""

    def __init__(self, trunc: Truncation, bases, copies, irreps):
        self.trunc = trunc
        self.bases = bases
        self.copies = copies
        self.irreps = tuple(irreps)
        self.members = [[] for _ in self.irreps]
        for i, block_copies in enumerate(copies):
            for a, (c, _) in enumerate(block_copies):
                self.members[c].append((i, a))
        self.elements = tuple(
            (i, a, j, b) for held in self.members for i, a in held for j, b in held
        )
        sizes = [len(held) for held in self.members]
        self.components = np.repeat(np.arange(len(sizes)), np.square(sizes))
        self.by_pair: dict[tuple[int, int], list[int]] = {}
        for k, (i, _, j, _) in enumerate(self.elements):
            self.by_pair.setdefault((i, j), []).append(k)

    @property
    def dim(self) -> int:
        return len(self.elements)

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


def _isotypic_copies(block: BlockLabel, gens: np.ndarray) -> tuple[np.ndarray, list]:
    """The block split into irreducible copies of the gauge action, read
    off its generators ``gens = block_generators(block)``.

    Returns a unitary with the copies side by side, and per copy ``(lam,
    cols)``: its columns, and ``2 <J_z^v>`` of its highest-weight vector at
    each vertex ``v``: ``2 j_v`` for SU(2), minus twice the vertex flux for
    U(1).  With ``Gamma_{v,a} = -i J_a^v``, the raising operators are
    ``J_+^v = i (Gamma_{v,1} + i Gamma_{v,2})`` and ``J_z^v = i Gamma_{v,3}``
    is diagonal in the block's weight basis, so the highest-weight vectors
    of each weight are the joint null space of the raising operators on the
    basis vectors of that weight.  Normalized lowering fills in the rest of
    each copy, in the same order for every copy of an irrep.  U(1) has no
    raising operators, so every vector is a highest-weight vector.
    """
    nl = len(lie_directions(block))
    jz = 1j * np.diagonal(gens[nl - 1 :: nl], axis1=1, axis2=2)
    weights = [tuple(w) for w in np.rint(2 * jz.real).astype(int).T.tolist()]
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
    return np.column_stack(columns), copies


def _lowered(down: np.ndarray, top: np.ndarray, steps: int) -> list[np.ndarray]:
    """``top`` followed by ``steps`` normalized applications of ``down``."""
    out = [top]
    for _ in range(steps):
        w = down @ out[-1]
        out.append(w / np.linalg.norm(w))
    return out


def commutant_basis(trunc: Truncation) -> EquivariantSpace:
    """Orthonormal basis of the operators commuting with the gauge action.

    For every pair of copies ``u_a``, ``u_b`` of the same irrep, in any two
    blocks, the matrix unit ``u_a u_b^H / sqrt(dim)`` maps copy ``b`` onto
    copy ``a`` and is zero elsewhere; by Schur's lemma these span the
    commutant, one full matrix algebra per irrep.  Each matrix unit is held
    as the index of its two copies.
    """
    return reduce_blocks(trunc, invariants=None)[0]


# the copy basis, or kept invariant column, of every one-dimensional block:
# one array shared by all of them, so it is read-only
_UNIT, _EMPTY = np.ones((1, 1), dtype=complex), np.zeros((1, 0), dtype=complex)
_UNIT.setflags(write=False)
_EMPTY.setflags(write=False)


def _scalar_parts(trunc: Truncation, seeds):
    """Per one-dimensional block of ``trunc``, in order, the ``(basis,
    copies, seeds, lie invariant columns)`` of ``reduce_blocks``, read with
    whole-array operations off their stacked scalar generators
    (``scalar_generators``); every truncation has one, of all-zero labels.
    Such a block carries a character of ``G^V``: it is one copy, with basis
    ``[[1]]`` and weight ``2 Re(i Gamma_{v,L-1})`` at each vertex, and it is
    invariant iff every scalar is zero.  The seeds hook, when given, takes
    all the blocks at once as ``seeds(None, scalars, None, None)``."""
    blocks = [b for b, d in zip(trunc.blocks, trunc.dims) if d == 1]
    gens = scalar_generators(blocks)
    nl = len(lie_directions(blocks[0]))
    weights = np.rint(2 * (1j * gens[:, nl - 1 :: nl]).real).astype(int).tolist()
    seeded = repeat(None) if seeds is None else seeds(None, gens, None, None)
    columns = [_UNIT if keep else _EMPTY for keep in ~gens.any(axis=1)]
    return zip(repeat(_UNIT), ([(tuple(w), slice(0, 1))] for w in weights), seeded, columns)


def reduce_blocks(
    trunc: Truncation, invariants: str | None = "lie", commutant: bool = True, seeds=None
):
    """One pass over the blocks: the commutant (if ``commutant``), the
    invariant subspace by the method ``invariants`` of ``invariant_projector``
    (unless ``None``), and the list of ``seeds(block, gens, basis, copies)``
    per block, when given, with ``copies`` numbered by component.  The
    one-dimensional blocks are read off one array (``_scalar_parts``); every
    other block's generators are built once and dropped before the next
    block's.
    """
    irreps: dict[tuple[int, ...], int] = {}
    bases, copies, columns, seeded = [], [], [], []
    scalar = _scalar_parts(trunc, seeds if commutant else None)
    for block, d in zip(trunc.blocks, trunc.dims):
        if d == 1:
            u, split, seed, cols = next(scalar)
        else:
            gens = block_generators(block) if commutant or invariants == "lie" else None
            if commutant:
                u, split = _isotypic_copies(block, gens)
            cols = _invariant_columns(gens) if invariants == "lie" else None
        if invariants not in (None, "lie"):
            vals, vecs = np.linalg.eigh(invariant_projector(block, method=invariants))
            cols = vecs[:, vals > 0.5]
        if commutant:
            bases.append(u)
            copies.append([(irreps.setdefault(lam, len(irreps)), c) for lam, c in split])
            if seeds is not None:
                seeded.append(seed if d == 1 else seeds(block, gens, u, copies[-1]))
        columns.append(cols)
        gens = None  # only one block's generators are alive at a time
    space = EquivariantSpace(trunc, bases, copies, irreps) if commutant else None
    if invariants is None:
        return space, None, seeded
    rows = np.zeros((sum(c.shape[1] for c in columns), trunc.total_dim), dtype=complex)
    start, off = 0, trunc.offsets
    for i, cols in enumerate(columns):
        rows[start : start + cols.shape[1], off[i] : off[i + 1]] = cols.T
        start += cols.shape[1]
    return space, SubspaceBasis(trunc.total_dim, rows), seeded


def pi_matrix(space: EquivariantSpace, inv: SubspaceBasis) -> np.ndarray:
    """Matrix of the compression map onto the invariant subspace.

    Columns follow the commutant basis; rows are the flattened matrix units
    of the invariant-subspace basis.  Element ``(i, a, j, b)`` compresses to
    ``O_i[:, a] O_j[:, b]^H / sqrt(dim)``, ``O_i`` the overlaps of the
    invariant vectors with block ``i``'s copy basis.
    """
    h, off, start = inv.dim, space.trunc.offsets, 0
    out = np.zeros((h * h, space.dim), dtype=complex)
    over = [inv.vectors[:, off[i] : off[i + 1]].conj() @ u for i, u in enumerate(space.bases)]
    for held in space.members:
        o = np.vstack([over[i][:, space.copies[i][a][1]] for i, a in held])
        m, w = len(held), o.shape[1]
        units = (o @ o.conj().T).reshape(m, h, m, h).transpose(1, 3, 0, 2) / np.sqrt(w)
        out[:, start : start + m * m] = units.reshape(h * h, m * m)
        start += m * m
    return out


def kernel_pi_basis(space: EquivariantSpace, inv: SubspaceBasis) -> PiKernel:
    """Kernel of the compression map, by the row space of its matrix.

    A thin SVD of ``pi_matrix`` keeps the right singular vectors whose
    singular value exceeds ``RANK_RTOL`` times the largest, the rank rule of
    ``scipy.linalg.null_space``.  The kernel is the whole commutant when the
    invariant space is zero.
    """
    q = space.dim
    if inv.dim == 0:
        return PiKernel(q, np.zeros((0, q), dtype=complex))
    _, s, vh = np.linalg.svd(pi_matrix(space, inv), full_matrices=False)
    return PiKernel(q, vh[: np.count_nonzero(s > RANK_RTOL * s[0])])
