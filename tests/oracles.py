"""Reference routes that the library no longer takes, kept for comparison.

The library builds the commutant from the gauge irreps of each block and
closes ideals component by component.  The routes here know nothing of
irreps: the commutant is the null space of the Kronecker-expanded
commutator constraints, one pair of blocks at a time, and the ideal is
reached by a round-based sweep of left and right multiplications through
the sparse structure tables.  They are slow but independent.
"""

import numpy as np
from scipy.linalg import null_space

from gaugereduce import BlockOperator, EquivariantSpace, SubspaceBasis
from gaugereduce.lattice import block_generators
from gaugereduce.reduction import RANK_RTOL

MINIMUM_SEED = 1e-12


def element_op(space, k):
    """Basis element ``k`` of the commutant as a block operator."""
    i, j, m = space.elements[k]
    return BlockOperator.from_pair(space.trunc, i, j, m)


def op_from_coords(space, w):
    """The commutant element with coordinates ``w``."""
    out = BlockOperator(space.trunc)
    for k, c in enumerate(w):
        if c == 0:
            continue
        i, j, m = space.elements[k]
        key = (i, j)
        if key in out.data:
            out.data[key] = out.data[key] + c * m
        else:
            out.data[key] = c * m
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
