"""Gauge reduction machinery.

Three objects are produced from a truncation:

* the invariant subspace of the field space (joint kernel of the vertex
  Gauss generators, or equivalently the range of the Haar-averaged
  projector),
* an orthonormal basis of the commutant algebra -- the block operators
  commuting with every gauge transformation.  Each block is split once
  into irreducible copies of the gauge action, labelled by a gauge irrep
  ``lam``; the commutant is then ``sum_lam M_{m_lam}(C)``, one full matrix
  algebra per irrep, spanned by matrix units between copies of the same
  irrep (Schur's lemma),
* the matrix of the restriction map ``pi`` sending a commutant element to
  its compression onto the invariant subspace, and a basis of its kernel.
  Neither uses the irrep labels, so comparing the kernel with the ideal
  built from them is a genuine check.

Everything is finite-dimensional linear algebra; ranks are decided at a
single relative tolerance so the counts reported downstream are stable.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.linalg import null_space

from .blocks import BlockLabel, Truncation
from .blockop import BlockOperator
from .graphs import Graph
from .groups import GroupId, IrrepLabel, haar_scheme, lie_dim, required_band
from .lattice import GaugeElement, block_generators

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


class SpanConsistencyError(RuntimeError):
    """A product of commutant elements left their numerical span."""


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

    def project_out(self, rows: np.ndarray) -> np.ndarray:
        """Components of the given rows orthogonal to the subspace."""
        if self.dim == 0:
            return rows
        return rows - (rows @ self.vectors.conj().T) @ self.vectors


def projector_band(block: BlockLabel) -> IrrepLabel:
    """Smallest per-vertex band that averages this block's action exactly.

    The integrand at a vertex is a product of one coefficient function per
    incident edge endpoint (a loop contributes two), so the band must cover
    half the summed label degrees, rounded up.
    """
    group = block.labels[0].group
    worst = 0
    for v in block.graph.vertices:
        total = 0
        for e, as_src, as_tgt in block.graph.incidences(v):
            deg = block.label_for(e.id).degree
            total += deg * (int(as_src) + int(as_tgt))
        worst = max(worst, total)
    return required_band(group, worst)


def _gauge_scheme(graph: Graph, group: GroupId, band: IrrepLabel):
    """Product quadrature over one copy of the group per vertex."""
    one = haar_scheme(group, band)
    nv = len(graph.vertices)
    for combo in itertools.product(range(len(one.points)), repeat=nv):
        g = GaugeElement(graph, tuple(one.points[k] for k in combo))
        w = float(np.prod([one.weights[k] for k in combo]))
        yield w, g


def invariant_projector(
    block: BlockLabel, method: str = "lie", band: IrrepLabel | None = None
) -> np.ndarray:
    """Orthogonal projector onto the gauge-invariant vectors of a block.

    ``method="lie"`` intersects the kernels of the vertex generators;
    ``method="quadrature"`` averages the block action over an exact Haar
    scheme.  Both agree to rank tolerance on every system.
    """
    if method == "lie":
        v = _invariant_columns(block)
        return v @ v.conj().T
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    need = projector_band(block)
    if band is None:
        band = need
    elif band.degree < need.degree:
        raise BandError(need, band)
    from .lattice import rho_block

    group = block.labels[0].group
    out = np.zeros((block.dim, block.dim), dtype=complex)
    for w, g in _gauge_scheme(block.graph, group, band):
        out += w * rho_block(block, g)
    return out


def _invariant_columns(block: BlockLabel) -> np.ndarray:
    """Orthonormal columns spanning the block's invariant vectors."""
    gens = block_generators(block)
    if not gens:
        return np.eye(block.dim, dtype=complex)
    if block.dim == 1:
        flat = all(abs(g[0, 0]) <= RANK_RTOL for g in gens)
        return np.ones((1, 1), complex) if flat else np.zeros((1, 0), complex)
    stacked = np.vstack(gens)
    return null_space(stacked, rcond=RANK_RTOL)


def invariant_basis(trunc: Truncation, method: str = "lie") -> SubspaceBasis:
    """Orthonormal basis of the invariant subspace of the whole truncation."""
    rows = []
    for i, block in enumerate(trunc.blocks):
        if method == "lie":
            cols = _invariant_columns(block)
        else:
            p = invariant_projector(block, method=method)
            vals, vecs = np.linalg.eigh(p)
            cols = vecs[:, vals > 0.5]
        for k in range(cols.shape[1]):
            vec = np.zeros(trunc.total_dim, dtype=complex)
            vec[trunc.offsets[i] : trunc.offsets[i + 1]] = cols[:, k]
            rows.append(vec)
    if not rows:
        return SubspaceBasis(trunc.total_dim)
    return SubspaceBasis(trunc.total_dim, np.array(rows))


class EquivariantSpace:
    """Orthonormal basis of the commutant, kept block pair by block pair.

    Element ``k`` is a triple ``(i, j, m)``: a matrix ``m`` mapping block
    ``j`` into block ``i``.  Frobenius inner products make the basis
    orthonormal, and elements on different pairs are orthogonal for free.
    ``components[k]`` indexes the gauge irrep ``irreps[c]`` whose matrix
    algebra holds element ``k``.
    """

    def __init__(self, trunc: Truncation, elements, components=None, irreps=()):
        self.trunc = trunc
        self.elements = tuple(elements)
        self.components = (
            None if components is None else np.asarray(components, dtype=int)
        )
        self.irreps = tuple(irreps)
        self._structure = None

    @property
    def dim(self) -> int:
        return len(self.elements)

    def coords_of(self, op: BlockOperator) -> np.ndarray:
        out = np.zeros(self.dim, dtype=complex)
        for k, (i, j, m) in enumerate(self.elements):
            blk = op.data.get((i, j))
            if blk is not None:
                out[k] = np.vdot(m, blk)
        return out

    def structure_maps(self):
        """Sparse product tables: row ``j*q + m`` of ``L @ w`` is the m-th
        coordinate of ``basis[j] @ op(w)``, and of ``R @ w`` the m-th
        coordinate of ``op(w) @ basis[j]``.

        Raises ``SpanConsistencyError`` if any pairwise product fails to be
        resolved inside the basis span, which would falsify every closure
        computed from the tables.
        """
        if self._structure is not None:
            return self._structure
        from scipy.sparse import csr_matrix

        q = self.dim
        by_row: dict[int, list[int]] = {}
        by_col: dict[int, list[int]] = {}
        by_pair: dict[tuple[int, int], list[int]] = {}
        for k, (i, j, _) in enumerate(self.elements):
            by_row.setdefault(i, []).append(k)
            by_col.setdefault(j, []).append(k)
            by_pair.setdefault((i, j), []).append(k)
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
                    for m in by_pair.get((ia, jb), ()):
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
        self._structure = (
            csr_matrix((lvals, (lrows, lcols)), shape=shape),
            csr_matrix((rvals, (rrows, rcols)), shape=shape),
        )
        return self._structure


def _isotypic_copies(block: BlockLabel) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """The block split into irreducible copies of the gauge action.

    Returns ``(lam, u)`` pairs: ``u`` has orthonormal columns spanning one
    copy, and ``lam`` holds ``2 <J_z^v>`` of its highest-weight vector at
    each vertex ``v``: ``2 j_v`` for SU(2), minus twice the vertex flux for
    U(1).  With ``Gamma_{v,a} = -i J_a^v``, the raising operators are
    ``J_+^v = i (Gamma_{v,1} + i Gamma_{v,2})`` and ``J_z^v = i Gamma_{v,3}``
    is diagonal in the block's weight basis, so the highest-weight vectors
    of each weight are the joint null space of the raising operators on the
    basis vectors of that weight.  Normalized lowering fills in the rest of
    each copy, in the same order for every copy of an irrep.  U(1) has no
    raising operators, so every vector is a highest-weight vector.
    """
    gens = block_generators(block)
    nl = lie_dim(block.labels[0].group)
    nv = len(block.graph.vertices)
    jz = np.array([1j * np.diag(gens[v * nl + nl - 1]) for v in range(nv)])
    weights = [tuple(w) for w in np.rint(2 * jz.real).astype(int).T.tolist()]
    raising = [
        1j * (gens[v * nl] + 1j * gens[v * nl + 1]) for v in range(nv) if nl > 1
    ]
    stacked = np.vstack(raising) if raising else None
    copies = []
    for lam in dict.fromkeys(weights):
        cols = [k for k, w in enumerate(weights) if w == lam]
        if raising:
            hw = null_space(stacked[:, cols], rcond=RANK_RTOL)
        else:
            hw = np.eye(len(cols))
        for coeffs in hw.T:
            chain = [np.zeros(block.dim, dtype=complex)]
            chain[0][cols] = coeffs
            for v, up in enumerate(raising):
                down = up.conj().T
                chain = [w for t in chain for w in _lowered(down, t, lam[v])]
            copies.append((lam, np.column_stack(chain)))
    return copies


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
    commutant, one full matrix algebra per irrep.
    """
    copies: dict[tuple[int, ...], list[tuple[int, np.ndarray]]] = {}
    for i, block in enumerate(trunc.blocks):
        for lam, u in _isotypic_copies(block):
            copies.setdefault(lam, []).append((i, u))
    elements, components = [], []
    for c, members in enumerate(copies.values()):
        for i, ua in members:
            for j, ub in members:
                elements.append((i, j, ua @ ub.conj().T / np.sqrt(ua.shape[1])))
                components.append(c)
    return EquivariantSpace(trunc, elements, components, tuple(copies))


def pi_matrix(space: EquivariantSpace, inv: SubspaceBasis) -> np.ndarray:
    """Matrix of the compression map onto the invariant subspace.

    Columns follow the commutant basis; rows are the flattened matrix units
    of the invariant-subspace basis.
    """
    h = inv.dim
    off = space.trunc.offsets
    out = np.zeros((h * h, space.dim), dtype=complex)
    if h == 0:
        return out
    for k, (i, j, m) in enumerate(space.elements):
        ui = inv.vectors[:, off[i] : off[i + 1]]
        uj = inv.vectors[:, off[j] : off[j + 1]]
        out[:, k] = (ui.conj() @ m @ uj.T).ravel()
    return out


def kernel_pi_basis(space: EquivariantSpace, inv: SubspaceBasis) -> SubspaceBasis:
    """Orthonormal basis, in commutant coordinates, of the kernel of the
    compression map; the whole commutant when the invariant space is zero."""
    q = space.dim
    if inv.dim == 0:
        return SubspaceBasis(q, np.eye(q, dtype=complex))
    mat = pi_matrix(space, inv)
    ns = null_space(mat, rcond=RANK_RTOL)
    return SubspaceBasis(q, ns.T)
