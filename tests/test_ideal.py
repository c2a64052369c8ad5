"""Averaged generator powers, ideal closure, and the kernel comparison.

The frozen values in here were computed by hand before the code existed:
the spin-1/2 loop average of the squared z-generator is -(2/3) times the
projector onto the spin-1 half of the block, and every U(1) average is the
corresponding power of i times the vertex flux.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gaugereduce import (
    BandError,
    GeneratorSpec,
    IrrepLabel,
    VertexGenerator,
    commutant_basis,
    containment_residual,
    gauss_generator_block,
    generator_coords,
    generator_op,
    ideal_closure,
    rho_block,
    subspace_distance,
    vertex_flux,
    verify_ideal,
)
from gaugereduce.groups import casimir_eigenvalue, lie_dim
from gaugereduce.ideal import _seed_rows, conjugation_band, default_n_max
from gaugereduce.reduction import SubspaceBasis
from gaugereduce.spectrum import eigenspace_grouping

from .oracles import coords_of_matrix, element_op, op_from_coords, product_scheme
from .systems import CANON, SMALL, SU2, build, loop_graph, make, triangle_graph


def oracle_average(trunc, block_index, power, vertex, lie_index, extra_band=1):
    """Independent conjugation average: a literal quadrature sweep with a
    wider band than required, written without the library's shortcut paths."""
    block = trunc.blocks[block_index]
    gamma = gauss_generator_block(block, VertexGenerator(vertex, lie_index))
    gn = np.linalg.matrix_power(gamma, power)
    band = IrrepLabel(trunc.group, conjugation_band(block).degree + extra_band)
    acc = np.zeros_like(gn)
    for w, g in product_scheme(trunc.graph, trunc.group, band):
        rho = rho_block(block, g)
        acc += w * (rho @ gn @ rho.conj().T)
    return acc


@pytest.mark.parametrize("name", ["su2-loop-j1", "su2-edge-j1", "u1-parallel-b1"])
def test_generator_op_matches_oracle_average(name):
    trunc = build(name)
    for i in range(len(trunc.blocks)):
        for n in (1, 2, 3):
            v = trunc.graph.vertices[0]
            got = generator_op(trunc, GeneratorSpec(i, v, 0, n))
            want = oracle_average(trunc, i, n, v, 0)
            assert np.abs(got - want).max() < 1e-10


def test_spin_half_loop_square_average_is_frozen_value():
    # avg over gauge orbits of Gamma_z^2 on the spin-1/2 loop block equals
    # -(2/3) P1, with P1 the projector complementary to the normalized
    # identity-matrix vector of the block.
    trunc = build("su2-loop-j1")
    spec = GeneratorSpec(1, "x", 2, 2)
    got = generator_op(trunc, spec)
    singlet = np.eye(2).ravel() / np.sqrt(2.0)
    p0 = np.outer(singlet, singlet.conj())
    p1 = np.eye(4) - p0
    assert np.abs(got - (-2.0 / 3.0) * p1).max() < 1e-8
    # the same holds in every Lie direction by symmetry
    for a in (0, 1):
        other = generator_op(trunc, GeneratorSpec(1, "x", a, 2))
        assert np.abs(other - (-2.0 / 3.0) * p1).max() < 1e-8


def test_first_power_averages_to_zero_on_su2_blocks():
    # tracelessness kills the n = 1 average: nothing enters the ideal yet.
    for name in ("su2-loop-j1", "su2-loop-j2", "su2-edge-j2"):
        trunc = build(name)
        for i in range(len(trunc.blocks)):
            for a in range(3):
                op = generator_op(trunc, GeneratorSpec(i, trunc.graph.vertices[0], a, 1))
                assert np.linalg.norm(op) < 1e-12


def test_u1_average_is_flux_power():
    trunc = build("u1-triangle-b1")
    for i, block in enumerate(trunc.blocks):
        for v in trunc.graph.vertices:
            for n in (1, 2, 3):
                got = generator_op(trunc, GeneratorSpec(i, v, 0, n))
                want = (1j * vertex_flux(block, v)) ** n
                assert abs(got[0, 0] - want) < 1e-14


@pytest.mark.parametrize("name", ["su2-loop-j1", "su2-loop-j2", "u1-edge-b2"])
def test_generator_coords_lie_equals_quadrature(name):
    trunc = build(name)
    space = commutant_basis(trunc)
    for i in range(len(trunc.blocks)):
        for n in (1, 2):
            spec = GeneratorSpec(i, trunc.graph.vertices[0], 0, n)
            lie = generator_coords(space, spec, method="lie")
            quad = generator_coords(space, spec, method="quadrature")
            assert np.abs(lie - quad).max() < 1e-8


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("method", ["lie", "quadrature"])
def test_stepped_seed_rows_equal_spec_by_spec_coords(name, method):
    # verify_ideal steps Gamma^n = Gamma^(n-1) Gamma from generators built
    # once; each spec here rebuilds its generator and takes a matrix power.
    # Both the per-block and the coarse (per energy level) grouping.
    trunc = build(name)
    space = commutant_basis(trunc)
    directions = [(v, a) for v in trunc.graph.vertices for a in range(lie_dim(trunc.group))]
    groupings = (
        tuple((i,) for i in range(len(trunc.blocks))),
        eigenspace_grouping(trunc).groups,
    )
    stepped = zip(*(_seed_rows(space, groups, 4, method, None) for groups in groupings))
    for n, rows in enumerate(stepped, 1):
        specs = {
            (i, v, a): generator_coords(space, GeneratorSpec(i, v, a, n), method=method)
            for i in range(len(trunc.blocks))
            for v, a in directions
        }
        for groups, got in zip(groupings, rows):
            want = np.array(
                [sum(specs[i, v, a] for i in members) for members in groups for v, a in directions]
            )
            assert got.shape == want.shape
            assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max(), err_msg=n)


@pytest.mark.parametrize(
    "trunc",
    [build(k) for k in CANON if CANON[k][1] is SU2] + [make(triangle_graph(), SU2, 1)],
    ids=[k for k in CANON if CANON[k][1] is SU2] + ["su2-triangle-b1"],
)
def test_summed_square_average_is_minus_the_vertex_casimir(trunc):
    # sum_a Gamma_{v,a}^2 = -C_v, which is -j_v(j_v + 1) on every copy of
    # the gauge irrep lambda, with j_v = lambda_v / 2.  Its average is
    # itself, so every SU(2) seed of power 2 has this closed form.
    space = commutant_basis(trunc)
    for vi, v in enumerate(trunc.graph.vertices):
        casimir = np.array(
            [
                float(casimir_eigenvalue(IrrepLabel(SU2, space.irreps[c][vi])))
                for c in space.components
            ]
        )
        for i, d in enumerate(trunc.dims):
            got = sum(generator_coords(space, GeneratorSpec(i, v, a, 2)) for a in range(3))
            one = space.coords_of(i, i, np.eye(d))
            assert_allclose(got, -casimir * one, rtol=0, atol=1e-12)


def test_generator_band_is_validated():
    trunc = build("su2-loop-j1")
    spec = GeneratorSpec(1, "x", 2, 2)
    need = conjugation_band(trunc.blocks[1])
    assert need.degree == 2
    with pytest.raises(BandError):
        generator_op(trunc, spec, band=IrrepLabel(trunc.group, 1))
    exact = generator_op(trunc, spec, band=need)
    wide = generator_op(trunc, spec, band=IrrepLabel(trunc.group, 4))
    assert np.abs(exact - wide).max() < 1e-12
    # a one-dimensional block conjugates trivially, so its band is not checked
    flat = generator_op(trunc, GeneratorSpec(0, "x", 2, 2), band=IrrepLabel(trunc.group, 0))
    assert flat.shape == (1, 1)


def test_closure_of_nothing_is_nothing():
    trunc = build("u1-edge-b1")
    space = commutant_basis(trunc)
    ideal = ideal_closure(space, np.zeros((0, space.dim), complex))
    assert ideal.dim == 0


def test_closure_of_identity_is_everything():
    trunc = build("su2-loop-j1")
    space = commutant_basis(trunc)
    seed = coords_of_matrix(space, np.eye(trunc.total_dim))
    ideal = ideal_closure(space, seed.reshape(1, -1))
    assert ideal.dim == space.dim


@pytest.mark.parametrize("name", ["u1-parallel-b1", "su2-loop-j2"])
def test_closure_is_two_sided_stable(name):
    # products taken with literal operator multiplication, not the tables,
    # must stay inside the computed span
    trunc = build(name)
    space = commutant_basis(trunc)
    rng = np.random.default_rng(53)
    seeds = rng.normal(size=(2, space.dim)) + 1j * rng.normal(size=(2, space.dim))
    ideal = ideal_closure(space, seeds)
    for row in ideal.vectors:
        x = op_from_coords(space, row)
        for k in rng.integers(0, space.dim, size=6):
            b = element_op(space, int(k))
            for prod in (b @ x, x @ b):
                w = coords_of_matrix(space, prod)
                left = ideal.project_out(w.reshape(1, -1))
                assert np.linalg.norm(left) < 1e-9


def test_closure_incremental_equals_batch():
    trunc = build("su2-loop-j2")
    space = commutant_basis(trunc)
    rng = np.random.default_rng(59)
    s1 = rng.normal(size=(1, space.dim)) + 0j
    s2 = rng.normal(size=(1, space.dim)) + 0j
    batch = ideal_closure(space, np.vstack([s1, s2]))
    step = ideal_closure(space, s2, start=ideal_closure(space, s1))
    assert batch.dim == step.dim
    assert subspace_distance(batch, step) < 1e-10


def test_subspace_distance_principal_angle():
    # 45 degrees between lines: projector difference has norm sin(45)
    u = SubspaceBasis(2, np.array([[1.0, 0.0]]))
    v = SubspaceBasis(2, np.array([[1.0, 1.0]]) / np.sqrt(2))
    assert abs(subspace_distance(u, v) - np.sqrt(2) / 2) < 1e-12
    assert subspace_distance(u, u) == 0.0
    assert subspace_distance(SubspaceBasis(2), SubspaceBasis(2)) == 0.0


def test_subspace_distance_ignores_basis_choice():
    rng = np.random.default_rng(61)
    vecs = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0][:, :2].T
    u = SubspaceBasis(4, vecs)
    phase = np.exp(1j * 0.7)
    mix = np.array([[phase, 0], [0, 1]]) @ np.array([[0, 1], [1, 0]])
    v = SubspaceBasis(4, mix @ vecs)
    assert subspace_distance(u, v) < 1e-12


def test_containment_residual_extremes():
    big = SubspaceBasis(3, np.eye(3)[:2])
    inside = SubspaceBasis(3, np.eye(3)[:1])
    outside = SubspaceBasis(3, np.eye(3)[2:])
    assert containment_residual(inside, big) == 0.0
    assert abs(containment_residual(outside, big) - 1.0) < 1e-14
    assert containment_residual(SubspaceBasis(3), big) == 0.0


@pytest.mark.parametrize("name", list(CANON))
def test_verify_reaches_the_kernel(name):
    trunc = build(name)
    sat = CANON[name][6]
    report = verify_ideal(trunc, n_max=max(sat, 2))
    assert report.passed
    assert report.dim_ker_pi == CANON[name][5]
    assert report.rows[-1].distance <= 1e-8
    # containment holds at every power, not only at saturation
    for row in report.rows:
        assert row.containment_residual <= 1e-8
    # the ideal saturates exactly when predicted
    assert report.rows[sat - 1].dim_ideal == report.dim_ker_pi
    if sat > 1:
        assert report.rows[sat - 2].dim_ideal < report.dim_ker_pi


def test_su2_loop_fails_at_first_power():
    trunc = build("su2-loop-j1")
    report = verify_ideal(trunc, n_max=1)
    assert not report.passed
    assert report.rows[0].dim_ideal == 0
    assert report.rows[0].distance > 0.9
    assert report.rows[0].containment_residual <= 1e-10


@pytest.mark.parametrize(
    "trunc,n_max",
    [(build(k), CANON[k][6]) for k in SMALL] + [(make(triangle_graph(), SU2, 1), 2)],
    ids=SMALL + ["su2-triangle-b1"],
)
def test_verify_methods_agree(trunc, n_max):
    lie = verify_ideal(trunc, n_max=n_max, method="lie")
    quad = verify_ideal(trunc, n_max=n_max, method="quadrature")
    assert lie.passed and quad.passed
    assert [r.dim_ideal for r in lie.rows] == [r.dim_ideal for r in quad.rows]
    assert subspace_distance(lie.final_ideal, quad.final_ideal) < 1e-8


def test_su2_loop_default_power_budget_stays_on_the_kernel():
    # Large powers carry roundoff of size eps * |Gamma^n| onto the invariant
    # component, where their average is exactly zero; it must not enter the
    # ideal.
    report = verify_ideal(make(loop_graph(), SU2, 4))
    assert report.n_max == 25
    assert report.passed
    for row in report.rows[1:]:
        assert row.dim_ideal == report.dim_ker_pi == 30
        assert row.distance <= 1e-8


def test_default_power_budget_is_largest_block():
    assert default_n_max(build("su2-loop-j2")) == 9
    assert default_n_max(build("u1-triangle-b1")) == 1


def test_verify_rejects_bad_nmax():
    with pytest.raises(ValueError):
        verify_ideal(build("u1-edge-b1"), n_max=0)
