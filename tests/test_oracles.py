"""The irrep-based commutant and closure against the generic routes.

The library reads the commutant off the gauge irreps of each block and
takes an ideal to be the sum of the irrep components its seeds touch.  The
oracles in ``oracles.py`` know nothing of irreps: a Kronecker null space per
pair of blocks, and a round-based multiplication sweep.  On every small
system both must give the same commutant and the same ideals.
"""

import numpy as np
import pytest

from gaugereduce import (
    GeneratorSpec,
    commutant_basis,
    generator_coords,
    ideal_closure,
    subspace_distance,
)
from gaugereduce.groups import lie_dim

from .oracles import element_op, pair_commutant, round_closure
from .systems import SMALL, build


def dense_span(space):
    """Orthonormal columns spanning the vectorized dense elements."""
    vecs = np.array([element_op(space, k).to_dense().ravel() for k in range(space.dim)])
    q, _ = np.linalg.qr(vecs.T)
    return q


def power_seeds(space, n):
    """One averaged-generator seed per block, vertex and Lie direction."""
    trunc = space.trunc
    return np.array(
        [
            generator_coords(space, GeneratorSpec(i, v, a, n))
            for i in range(len(trunc.blocks))
            for v in trunc.graph.vertices
            for a in range(lie_dim(trunc.group))
        ]
    )


def assert_closures_agree(space, n_max=3):
    fast = slow = None
    for n in range(1, n_max + 1):
        seeds = power_seeds(space, n)
        fast = ideal_closure(space, seeds, start=fast)
        slow = round_closure(space, seeds, start=slow)
        assert fast.dim == slow.dim, n
        assert subspace_distance(fast, slow) <= 1e-8, n


@pytest.mark.parametrize("name", SMALL)
def test_commutant_matches_pair_oracle(name):
    trunc = build(name)
    space = commutant_basis(trunc)
    oracle = pair_commutant(trunc)
    assert space.dim == oracle.dim
    basis = dense_span(oracle)
    for k in range(space.dim):
        vec = element_op(space, k).to_dense().ravel()
        assert np.linalg.norm(basis @ (basis.conj().T @ vec) - vec) < 1e-9


@pytest.mark.parametrize("name", SMALL)
def test_component_closure_matches_round_closure(name):
    assert_closures_agree(commutant_basis(build(name)))
