"""Gauge action on connections and blocks, Gauss generators, flux."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gaugereduce import (
    BlockLabel,
    Connection,
    GaugeElement,
    VertexGenerator,
    basis_values,
    block_generators,
    commutant_basis,
    exp_point,
    gauss_generator_block,
    identity_point,
    inverse,
    invariant_projector,
    multiply,
    random_point,
    rho_block,
    su2_spin,
    u1_charge,
    vertex_flux,
)
from gaugereduce.groups import GroupId, lie_dim

from .oracles import kron_generator
from .systems import (
    SMALL,
    build,
    edge_graph,
    edgeless_graph,
    isolated_vertex_graph,
    loop_graph,
    loops_and_parallels,
    make,
    triangle_graph,
)
from .test_multiplicity import U1_SYSTEMS

FD_STEP = 1e-4
FD_TOL = 1e-6


def random_gauge(graph, group, rng):
    return GaugeElement(graph, tuple(random_point(group, rng) for _ in graph.vertices))


def random_connection(graph, group, rng):
    return Connection(graph, tuple(random_point(group, rng) for _ in graph.edges))


def inverse_gauge(g):
    return GaugeElement(g.graph, tuple(inverse(p) for p in g.points))


def gauge_act(g, a):
    """``(g . a)_e = g_source(e) a_e g_target(e)^-1`` on a connection."""
    new = tuple(
        multiply(multiply(g.at(e.source), a.at(e.id)), inverse(g.at(e.target)))
        for e in a.graph.edges
    )
    return Connection(a.graph, new)


def exp_gauge(graph, group, gen, t):
    """The one-parameter gauge transformation exp(t X) supported on one vertex."""
    coeffs = np.zeros(lie_dim(group))
    coeffs[gen.lie_index] = t
    pts = tuple(
        exp_point(group, coeffs) if v == gen.vertex else identity_point(group)
        for v in graph.vertices
    )
    return GaugeElement(graph, pts)


def test_gauge_action_composes():
    graph = triangle_graph()
    rng = np.random.default_rng(13)
    for group in (GroupId.U1, GroupId.SU2):
        g = random_gauge(graph, group, rng)
        h = random_gauge(graph, group, rng)
        a = random_connection(graph, group, rng)
        gh = GaugeElement(graph, tuple(map(multiply, g.points, h.points)))
        one = gauge_act(g, gauge_act(h, a))
        two = gauge_act(gh, a)
        for p, q in zip(one.points, two.points):
            assert_allclose(p.data, q.data, atol=1e-12)


def test_rho_block_is_a_unitary_homomorphism():
    graph = edge_graph()
    block = BlockLabel(graph, GroupId.SU2, (su2_spin(1),))
    rng = np.random.default_rng(17)
    for _ in range(5):
        g = random_gauge(graph, GroupId.SU2, rng)
        h = random_gauge(graph, GroupId.SU2, rng)
        rg = rho_block(block, g)
        assert_allclose(rg @ rg.conj().T, np.eye(block.dim), atol=1e-12)
        gh = GaugeElement(graph, tuple(map(multiply, g.points, h.points)))
        assert_allclose(rg @ rho_block(block, h), rho_block(block, gh), atol=1e-12)


@pytest.mark.parametrize(
    "graph_builder,labels",
    [
        (edge_graph, (su2_spin(0.5),)),
        (edge_graph, (su2_spin(1),)),
        (loop_graph, (su2_spin(0.5),)),
        (triangle_graph, (su2_spin(0.5),) * 3),
    ],
)
def test_block_action_matches_pointwise_evaluation(graph_builder, labels):
    # rho(g) psi evaluated at a equals psi at g^{-1}.a; on value vectors the
    # matrix therefore appears transposed.  Checked at 20 random points.
    graph = graph_builder()
    block = BlockLabel(graph, GroupId.SU2, labels)
    rng = np.random.default_rng(23)
    for _ in range(20):
        g = random_gauge(graph, GroupId.SU2, rng)
        a = random_connection(graph, GroupId.SU2, rng)
        lhs = basis_values(block, gauge_act(inverse_gauge(g), a))
        rhs = rho_block(block, g).T @ basis_values(block, a)
        assert_allclose(lhs, rhs, atol=1e-10)


@pytest.mark.parametrize(
    "graph_builder,group,labels",
    [
        (edge_graph, GroupId.U1, (u1_charge(2),)),
        (edge_graph, GroupId.SU2, (su2_spin(1),)),
        (loop_graph, GroupId.SU2, (su2_spin(0.5),)),
        (loop_graph, GroupId.U1, (u1_charge(1),)),
        (triangle_graph, GroupId.SU2, (su2_spin(0.5), su2_spin(1), su2_spin(0.5))),
    ],
)
def test_gauss_generator_is_the_action_derivative(graph_builder, group, labels):
    graph = graph_builder()
    block = BlockLabel(graph, group, labels)
    for v in graph.vertices:
        for k in range(lie_dim(group)):
            gen = VertexGenerator(v, k)
            plus = rho_block(block, exp_gauge(graph, group, gen, FD_STEP))
            minus = rho_block(block, exp_gauge(graph, group, gen, -FD_STEP))
            fd = (plus - minus) / (2 * FD_STEP)
            assert_allclose(fd, gauss_generator_block(block, gen), atol=FD_TOL)


def test_generators_at_distinct_vertices_commute():
    graph = triangle_graph()
    block = BlockLabel(graph, GroupId.SU2, (su2_spin(0.5), su2_spin(1), su2_spin(0.5)))
    a = gauss_generator_block(block, VertexGenerator("x", 0))
    b = gauss_generator_block(block, VertexGenerator("y", 2))
    assert_allclose(a @ b, b @ a, atol=1e-12)


def assert_generators_match_oracle(trunc):
    """The one-pass build equals the Kronecker-chain oracle on every block."""
    for block in trunc.blocks:
        for v in trunc.graph.vertices:
            for k in range(lie_dim(trunc.group)):
                gen = VertexGenerator(v, k)
                want = kron_generator(block, gen)
                assert_allclose(gauss_generator_block(block, gen), want, rtol=0, atol=1e-13)


@pytest.mark.parametrize(
    "trunc",
    [build(k) for k in SMALL] + [make(triangle_graph(), GroupId.SU2, 1)],
    ids=SMALL + ["su2-triangle-b1"],
)
def test_generators_match_kron_chain_oracle(trunc):
    # the triangle puts identities of different sizes on both sides of a piece
    assert_generators_match_oracle(trunc)


def assert_sweep_matches_single_builds(trunc):
    """The one-sweep build of all a block's generators equals each generator
    built on its own exactly, not to a tolerance."""
    nl = lie_dim(trunc.group)
    for block in trunc.blocks:
        gens = block_generators(block)
        assert gens.shape == (len(trunc.graph.vertices) * nl, block.dim, block.dim)
        for vi, v in enumerate(trunc.graph.vertices):
            for k in range(nl):
                one = gauss_generator_block(block, VertexGenerator(v, k))
                assert np.array_equal(gens[vi * nl + k], one), (block, v, k)


@pytest.mark.parametrize(
    "trunc",
    [build(k) for k in SMALL]
    + [
        make(triangle_graph(), GroupId.SU2, 1),
        make(loops_and_parallels(), GroupId.SU2, 1),
        make(loops_and_parallels(), GroupId.U1, 1),
        build("u1-triangle-b2"),
        make(isolated_vertex_graph(), GroupId.SU2, 1),
        make(isolated_vertex_graph(), GroupId.U1, 2),
        make(edgeless_graph(), GroupId.U1, 1),
    ],
    ids=SMALL
    + ["su2-triangle-b1", "su2-loops-and-parallels", "u1-loops-and-parallels", "u1-triangle-b2"]
    + ["su2-isolated-vertex", "u1-isolated-vertex", "u1-edgeless"],
)
def test_one_sweep_equals_single_builds(trunc):
    assert_sweep_matches_single_builds(trunc)


@pytest.mark.parametrize("name", list(U1_SYSTEMS))
def test_u1_weights_are_minus_twice_the_flux(name):
    # A U(1) block's Gauss generator at v is i * flux_v, so the pass reads its
    # copy's weight there, 2 Re(i Gamma_v), as -2 flux_v: one integer product
    # of the label array with the signed incidence.  The weights equal the
    # dense generators' [0, 0] entries, and the invariant projector keeps
    # exactly the flux-free blocks (and SU(2)'s all-spin-0 block)
    graph, bound = U1_SYSTEMS[name]
    trunc = make(graph(), GroupId.U1, bound)
    space = commutant_basis(trunc)
    for i, block in enumerate(trunc.blocks):
        flux = [vertex_flux(block, v) for v in trunc.graph.vertices]
        weights = space.irreps[space.scalar[i]]
        assert list(weights) == [-2 * f for f in flux], block
        assert np.array_equal(2 * (1j * block_generators(block)[:, 0, 0]).real, weights)
        assert invariant_projector(block).tolist() == [[float(not any(flux))]], block
    spin_zero = make(graph(), GroupId.SU2, 1).block(0)
    assert spin_zero.dim == 1 and invariant_projector(spin_zero).tolist() == [[1.0]]


def test_generator_count_and_order():
    trunc = build("su2-loop-j1")
    gens = block_generators(trunc.blocks[1])
    assert len(gens) == 3  # one vertex, three Lie directions
    assert_allclose(
        gens[2], gauss_generator_block(trunc.blocks[1], VertexGenerator("x", 2)),
        atol=0,
    )


def brute_force_flux(graph, charges, vertex):
    """Independent flux count: walk the edge list with explicit signs."""
    total = 0
    for e, n in zip(graph.edges, charges):
        if e.target == vertex:
            total += n
        if e.source == vertex:
            total -= n
    return total


def test_vertex_flux_matches_brute_force():
    graph = triangle_graph()
    for charges in itertools.product((-2, -1, 0, 1, 2), repeat=3):
        block = BlockLabel(graph, GroupId.U1, tuple(u1_charge(n) for n in charges))
        for v in graph.vertices:
            assert vertex_flux(block, v) == brute_force_flux(graph, charges, v)


def test_u1_generator_scalar_is_i_flux():
    graph = triangle_graph()
    block = BlockLabel(graph, GroupId.U1, (u1_charge(1), u1_charge(-2), u1_charge(0)))
    for v in graph.vertices:
        gen = gauss_generator_block(block, VertexGenerator(v, 0))
        assert gen.shape == (1, 1)
        assert abs(gen[0, 0] - 1j * vertex_flux(block, v)) < 1e-14


def test_loop_flux_always_balances():
    graph = loop_graph()
    for n in range(-2, 3):
        block = BlockLabel(graph, GroupId.U1, (u1_charge(n),))
        assert vertex_flux(block, "x") == 0
        gen = gauss_generator_block(block, VertexGenerator("x", 0))
        assert abs(gen[0, 0]) == 0.0


def test_flux_requires_u1():
    block = BlockLabel(edge_graph(), GroupId.SU2, (su2_spin(1),))
    with pytest.raises(ValueError):
        vertex_flux(block, "x")


def test_identity_gauge_acts_trivially():
    graph = triangle_graph()
    block = BlockLabel(graph, GroupId.SU2, (su2_spin(0.5),) * 3)
    e = GaugeElement(graph, tuple(identity_point(GroupId.SU2) for _ in range(3)))
    assert_allclose(rho_block(block, e), np.eye(block.dim), atol=1e-14)
