"""Block enumeration, dimensions, and the two-sided translation action."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gaugereduce import (
    BlockLabel,
    Connection,
    IrrepLabel,
    Truncation,
    basis_values,
    haar_scheme,
    inverse,
    multiply,
    random_point,
    regular_action_block,
    su2_spin,
    u1_charge,
)
from gaugereduce.groups import GroupId

from .oracles import enumerate_blocks
from .systems import SMALL, CANON, build, edge_graph, k4_graph, parallel_graph, triangle_graph


def test_block_dims_are_products_of_squares():
    g = edge_graph()
    assert BlockLabel(g, GroupId.SU2, (su2_spin(1),)).dim == 9
    assert BlockLabel(g, GroupId.U1, (u1_charge(-2),)).dim == 1
    g2 = parallel_graph()
    assert BlockLabel(g2, GroupId.SU2, (su2_spin(0.5), su2_spin(1))).dim == 4 * 9


def test_enumeration_is_lexicographic_over_edges():
    blocks = enumerate_blocks(parallel_graph(), GroupId.U1, u1_charge(1))
    got = [tuple(lab.value for lab in b.labels) for b in blocks]
    want = [(m, n) for m in (-1, 0, 1) for n in (-1, 0, 1)]
    assert got == want


def test_truncation_counts():
    trunc = build("u1-triangle-b2")
    assert len(trunc.blocks) == 5**3
    assert trunc.total_dim == 125
    su2 = build("su2-loop-j2")
    assert trunc.offsets[0] == 0
    assert su2.dims.tolist() == [1, 4, 9]
    assert su2.total_dim == 14
    assert su2.offsets.tolist() == [0, 1, 5, 14]


def test_label_array_is_gathered_through_a_one_byte_index():
    # u1 K4 b4: 531,441 blocks of six int64 labels.  The index they are
    # gathered through takes one byte a digit (nine labels an edge), so the
    # build holds the label array and an eighth of it, not two label arrays
    tracemalloc.start()
    try:
        trunc = Truncation(k4_graph(), GroupId.U1, u1_charge(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trunc.labels.shape == (9**6, 6) and trunc.labels.dtype == np.dtype(int)
    assert trunc.labels[[0, 1, -1]].tolist() == [[-4] * 6, [-4] * 5 + [-3], [4] * 6]
    assert peak <= 1.25 * trunc.labels.nbytes


def test_truncation_rejects_foreign_bound():
    with pytest.raises(ValueError):
        Truncation(edge_graph(), GroupId.SU2, u1_charge(1))


def test_label_count_per_edge():
    with pytest.raises(ValueError):
        BlockLabel(edge_graph(), GroupId.U1, (u1_charge(1), u1_charge(0)))


def random_connection(graph, group, rng):
    return Connection(
        graph, tuple(random_point(group, rng) for _ in graph.edges)
    )


@pytest.mark.parametrize("label", [su2_spin(0.5), su2_spin(1)])
def test_translation_matches_pointwise_evaluation(label):
    # Translating the argument of every basis function must agree with the
    # matrix acting on coefficients: values transform by the transpose.
    g = edge_graph()
    block = BlockLabel(g, label.group, (label,))
    rng = np.random.default_rng(21)
    for _ in range(20):
        a = random_connection(g, GroupId.SU2, rng)
        gl = random_point(GroupId.SU2, rng)
        gr = random_point(GroupId.SU2, rng)
        m = regular_action_block(block, "e", gl, gr)
        moved = Connection(g, (multiply(multiply(inverse(gl), a.at("e")), gr),))
        assert_allclose(
            basis_values(block, moved), m.T @ basis_values(block, a), atol=1e-10
        )


def test_translation_leaves_other_edges_alone():
    from gaugereduce import irrep_matrix

    g = parallel_graph()
    half = su2_spin(0.5)
    block = BlockLabel(g, GroupId.SU2, (half, half))
    rng = np.random.default_rng(4)
    p = random_point(GroupId.SU2, rng)
    m = regular_action_block(block, "f", p, None)
    # acting on edge f only: identity on the edge-e factor
    per_edge = np.kron(irrep_matrix(half, p).conj(), np.eye(2))
    assert_allclose(m, np.kron(np.eye(4), per_edge), atol=1e-14)
    ident = regular_action_block(block, "e", None, None)
    assert_allclose(ident, np.eye(16), atol=0)


def test_translation_is_unitary_homomorphism():
    g = edge_graph()
    block = BlockLabel(g, GroupId.SU2, (su2_spin(1),))
    rng = np.random.default_rng(9)
    for _ in range(5):
        p = random_point(GroupId.SU2, rng)
        q = random_point(GroupId.SU2, rng)
        mp = regular_action_block(block, "e", p, q)
        assert_allclose(mp @ mp.conj().T, np.eye(block.dim), atol=1e-12)
        p2 = random_point(GroupId.SU2, rng)
        q2 = random_point(GroupId.SU2, rng)
        mq = regular_action_block(block, "e", p2, q2)
        both = regular_action_block(block, "e", multiply(p, p2), multiply(q, q2))
        assert_allclose(mp @ mq, both, atol=1e-12)


@pytest.mark.parametrize("label", [u1_charge(2), su2_spin(0.5), su2_spin(1)])
def test_basis_functions_are_orthonormal(label):
    # Gram matrix of the rescaled coefficients over one edge, by exact Haar
    # quadrature: must be the identity.
    g = edge_graph()
    block = BlockLabel(g, label.group, (label,))
    scheme = haar_scheme(label.group, label)
    gram = np.zeros((block.dim, block.dim), complex)
    for p, w in zip(scheme.points, scheme.weights):
        v = basis_values(block, Connection(g, (p,)))
        gram += w * np.outer(v, v.conj())
    assert_allclose(gram, np.eye(block.dim), atol=1e-12)


def test_distinct_blocks_are_orthogonal():
    g = edge_graph()
    b1 = BlockLabel(g, GroupId.SU2, (su2_spin(0.5),))
    b2 = BlockLabel(g, GroupId.SU2, (su2_spin(1),))
    scheme = haar_scheme(GroupId.SU2, su2_spin(1.5))
    cross = np.zeros((b1.dim, b2.dim), complex)
    for p, w in zip(scheme.points, scheme.weights):
        conn = Connection(g, (p,))
        cross += w * np.outer(basis_values(b1, conn), basis_values(b2, conn).conj())
    assert np.abs(cross).max() < 1e-12


def test_total_dim_matches_sum_over_systems():
    for name in SMALL:
        trunc = build(name)
        assert trunc.total_dim == sum(b.dim for b in trunc.blocks)
        assert len(trunc.blocks) == len(set(b.labels for b in trunc.blocks))
