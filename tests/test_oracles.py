"""The irrep-based commutant and closure against the generic routes.

The library reads the commutant off the gauge irreps of each block and
takes an ideal to be the sum of the irrep components its seeds touch.  The
oracles in ``oracles.py`` know nothing of irreps: a Kronecker null space per
pair of blocks, and a round-based multiplication sweep through numeric
product tables.  On every small
system both must give the same commutant and the same ideals.  The library
also holds ``ker(pi)`` by the row space of one component's block of ``pi``
and the ideal as a mask of the components the seeds reach; the oracle's
seed rows must reach the same components, and the dense oracle bases must
give the same kernel dimension, containment residual and distance at every
power.
"""

import numpy as np
import pytest

from gaugereduce import (
    GeneratorSpec,
    commutant_basis,
    generator_coords,
    ideal_closure,
    kernel_pi_basis,
    verify_ideal,
)
from gaugereduce.groups import lie_dim
from gaugereduce.reduction import reduce_blocks

from .oracles import (
    complement_rows,
    containment_residual,
    dense_kernel_basis,
    dense_space,
    element_op,
    mask_basis,
    pair_commutant,
    round_closure,
    stepped_rows,
    subspace_distance,
    touched_components,
    written_out,
)
from .systems import CANON, SMALL, build


def dense_span(space):
    """Orthonormal columns spanning the vectorized dense elements."""
    vecs = np.array([element_op(space, k).ravel() for k in range(space.dim)])
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
    # the sweep multiplies through numeric product tables of the same
    # basis, written out as dense matrices
    dense = dense_space(space)
    fast = slow = None
    for n in range(1, n_max + 1):
        seeds = power_seeds(space, n)
        fast = ideal_closure(space, seeds, start=fast)
        slow = round_closure(dense, seeds, start=slow)
        assert fast.dim == slow.dim, n
        assert subspace_distance(mask_basis(fast), slow) <= 1e-8, n


def assert_rows_match_dense_oracle(trunc, n_max):
    """Verify ``trunc`` and check every row against the dense routes: the
    pass's components per power against those the oracle's stepped seed rows
    touch, and the report's numbers against the closure of those rows and
    the dense kernel.  Return the report."""
    space, inv, support = reduce_blocks(trunc, n_max=n_max)
    per_power = stepped_rows(space, n_max)
    want = touched_components(space, np.logical_or.accumulate(per_power))
    assert np.array_equal(written_out(support, n_max), want)
    kernel = kernel_pi_basis(space, inv)
    dense = dense_kernel_basis(space, inv)
    assert kernel.dim == dense.dim
    # V_r N = 0: the oracle's null basis lies in the library's kernel
    rows = complement_rows(space.sizes, kernel)
    assert np.abs(rows @ dense.vectors.T).max(initial=0.0) <= 1e-12
    report = verify_ideal(trunc, n_max=n_max)
    assert report.dim_ker_pi == dense.dim
    ideal = None
    for row, seeds in zip(report.rows, per_power):
        ideal = ideal_closure(space, seeds, start=ideal)
        basis = mask_basis(ideal)
        assert row.dim_ideal == basis.dim, row.n
        residual = containment_residual(basis, dense)
        assert abs(row.containment_residual - residual) <= 1e-12, row.n
        assert abs(row.distance - subspace_distance(basis, dense)) <= 1e-12, row.n
    return report


@pytest.mark.parametrize("name", SMALL)
def test_commutant_matches_pair_oracle(name):
    trunc = build(name)
    space = commutant_basis(trunc)
    oracle = pair_commutant(trunc)
    assert space.dim == oracle.dim
    basis = dense_span(oracle)
    for k in range(space.dim):
        vec = element_op(space, k).ravel()
        assert np.linalg.norm(basis @ (basis.conj().T @ vec) - vec) < 1e-9


@pytest.mark.parametrize("name", SMALL)
def test_component_closure_matches_round_closure(name):
    assert_closures_agree(commutant_basis(build(name)))


@pytest.mark.parametrize("name", SMALL)
def test_rows_match_dense_oracle(name):
    trunc = build(name)
    assert_rows_match_dense_oracle(trunc, max(CANON[name][6], 2))
