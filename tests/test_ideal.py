"""Averaged generator powers, ideal closure, and the kernel comparison.

The frozen values in here were computed by hand before the code existed:
the spin-1/2 loop average of the squared z-generator is -(2/3) times the
projector onto the spin-1 half of the block, and every U(1) average is the
corresponding power of i times the vertex flux.
"""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import null_space

import gaugereduce
from gaugereduce import (
    BandError,
    GeneratorSpec,
    IdealMask,
    IrrepLabel,
    PiKernel,
    VertexGenerator,
    block_generators,
    commutant_basis,
    gauss_generator_block,
    generator_coords,
    generator_op,
    ideal_closure,
    rho_block,
    vertex_flux,
    verify_ideal,
)
from gaugereduce.groups import casimir_eigenvalue, lie_dim
from gaugereduce.ideal import conjugation_band, default_n_max
from gaugereduce.reduction import RANK_RTOL, reduce_blocks

from . import oracles
from .oracles import (
    SubspaceBasis,
    complement_rows,
    containment_residual,
    coords_of,
    coords_of_matrix,
    dense_rows,
    element_mask,
    element_op,
    mask_basis,
    product_scheme,
    stepped_rows,
    subspace_distance,
    touched_components,
    written_out,
)
from .systems import (
    CANON,
    SMALL,
    SU2,
    U1,
    build,
    edgeless_graph,
    loop_graph,
    make,
    theta_graph,
    triangle_graph,
)


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


@pytest.mark.parametrize("name", SMALL + ["su2-theta-b1"])
@pytest.mark.parametrize("method", ["lie", "quadrature"])
def test_stepped_seed_rows_equal_spec_by_spec_coords(name, method):
    # The oracle steps every power Gamma^n = Gamma^(n-1) Gamma from generators
    # built once; each spec here rebuilds its generator and takes a matrix
    # power.  Power by power, the stepped support is the union of the specs'
    # supports on every element (a, a).  On a block holding an irrep more
    # than once (theta), an element (a, b != a) between two of its copies has
    # a roundoff coordinate in both dense routes, which the cut keeps when
    # the component is reached, so those are compared by the components
    # they touch.  The pass stops each generator at its minimal polynomial
    # and records the running union of the components those rows touch.
    trunc = make(theta_graph(), SU2, 1) if name == "su2-theta-b1" else build(name)
    space, _, support = reduce_blocks(trunc, method, 4)
    same = np.array([(i, a) == (j, b) for i, a, j, b in space.elements])
    per_power = stepped_rows(space, 4)
    directions = [(v, a) for v in trunc.graph.vertices for a in range(lie_dim(trunc.group))]
    for n, got in enumerate(per_power, 1):
        want = np.zeros(space.dim, dtype=bool)
        for i in range(len(trunc.blocks)):
            for v, a in directions:
                spec = GeneratorSpec(i, v, a, n)
                want |= generator_coords(space, spec, method=method) != 0
        assert np.array_equal(got[same], want[same]), n
        assert np.array_equal(*touched_components(space, [got, want])), n
    assert support.dtype == bool
    union = np.logical_or.accumulate(per_power)
    assert np.array_equal(written_out(support, 4), touched_components(space, union))


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
            one = coords_of(space, i, i, np.eye(d))
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
    inside = element_mask(ideal)
    for m in np.flatnonzero(inside):
        x = element_op(space, int(m))
        for k in rng.integers(0, space.dim, size=6):
            b = element_op(space, int(k))
            for prod in (b @ x, x @ b):
                w = coords_of_matrix(space, prod)
                assert np.linalg.norm(w[~inside]) < 1e-9


def test_closure_incremental_equals_batch():
    trunc = build("su2-loop-j2")
    space = commutant_basis(trunc)
    rng = np.random.default_rng(59)
    s1 = rng.normal(size=(1, space.dim)) + 0j
    s2 = rng.normal(size=(1, space.dim)) + 0j
    batch = ideal_closure(space, np.vstack([s1, s2]))
    step = ideal_closure(space, s2, start=ideal_closure(space, s1))
    assert np.array_equal(batch.mask, step.mask)


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


def test_mask_numbers_equal_dense_oracle_off_the_kernel():
    # A kernel in general position on component 1 of four: random orthonormal
    # rows w, and singular values whose rank cut on products keeps some pairs
    # and drops others, so residuals are neither 0 nor 1; every mask of the
    # components.  With every pair kept the kernel is the other components,
    # which a mask of them meets at distance 0.  The pairs the kernel reads
    # off the values are those of the dense rule
    rng = np.random.default_rng(67)
    sizes = np.array([1, 3, 2, 1])
    q = int(np.square(sizes).sum())
    w = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0].T
    s = np.array([1.0, 1e-3, 1e-8])
    cut = np.outer(s, s) > RANK_RTOL
    assert 0 < np.count_nonzero(cut) < cut.size
    every = np.ones((3, 3), dtype=bool)
    kept = [(s, cut), (s[:2], every[:2, :2]), (np.ones(3), every)]
    for values, pairs in kept:
        kernel = PiKernel(q, 1, values, [(0, v) for v in w[: len(values)]])
        assert np.array_equal(dense_rows(kernel, 3)[1], pairs)
        dense = SubspaceBasis(q, null_space(complement_rows(sizes, kernel)).T)
        assert kernel.dim == dense.dim == q - np.count_nonzero(pairs)
        for bits in itertools.product((False, True), repeat=len(sizes)):
            ideal = IdealMask(np.array(bits), sizes)
            basis = mask_basis(ideal)
            assert ideal.dim == basis.dim
            want = containment_residual(basis, dense)
            assert abs(gaugereduce.containment_residual(ideal, kernel) - want) <= 1e-12
            want = subspace_distance(basis, dense)
            assert abs(gaugereduce.subspace_distance(ideal, kernel) - want) <= 1e-12


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
    "trunc,n_max,counts",
    [(build(k), CANON[k][6], CANON[k][3:6]) for k in SMALL]
    + [
        (make(triangle_graph(), SU2, 1), 2, (26, 2, 22)),
        (make(edgeless_graph(), SU2, 1), 2, (1, 1, 0)),
        (make(edgeless_graph(), U1, 1), 2, (1, 1, 0)),
    ],
    ids=SMALL + ["su2-triangle-b1", "su2-edgeless", "u1-edgeless"],
)
def test_verify_methods_agree(trunc, n_max, counts):
    lie = verify_ideal(trunc, n_max=n_max, method="lie")
    quad = verify_ideal(trunc, n_max=n_max, method="quadrature")
    assert lie.passed and quad.passed
    assert (lie.dim_ak, lie.dim_hk, lie.dim_ker_pi) == counts
    assert (quad.dim_ak, quad.dim_hk, quad.dim_ker_pi) == counts
    assert [r.dim_ideal for r in lie.rows] == [r.dim_ideal for r in quad.rows]
    assert np.array_equal(lie.final_ideal.mask, quad.final_ideal.mask)
    # one generator per vertex and Lie direction, edgeless blocks included
    nv, nl = len(trunc.graph.vertices), lie_dim(trunc.group)
    assert all(len(block_generators(b)) == nv * nl for b in trunc.blocks)


def count_builds(monkeypatch) -> list:
    """Record every dense operator the library builds on a block: a Gauss
    generator matrix (``lattice._generators``, behind ``block_generators``
    and ``gauss_generator_block``), a block action (``rho_block``) or a
    Kronecker chain (``kron_chain``), wherever the caller imported it from;
    the dense matrix of ``pi`` (``oracles.dense_pi_matrix``); and a
    commutant's dense copy bases (``EquivariantSpace.bases``), its
    per-element components (``components``) and indices (``elements``,
    ``by_pair``), when they are built or assigned."""
    built = []
    space_cls = gaugereduce.reduction.EquivariantSpace

    class Recorded:
        def __init__(self, name):
            self.name, self.lazy = name, vars(space_cls).get(name)

        def __get__(self, space, owner=None):
            if space is not None and self.name not in vars(space):
                self.__set__(space, self.lazy.func(space))
            return self if space is None else vars(space)[self.name]

        def __set__(self, space, value):
            built.append((self.name, space.trunc))
            vars(space)[self.name] = value

    for name in ("bases", "components", "elements", "by_pair"):
        monkeypatch.setattr(space_cls, name, Recorded(name), raising=False)
    for module, name in [
        (gaugereduce.lattice, "_generators"),
        (gaugereduce.reduction, "block_generators"),
        (gaugereduce.ideal, "gauss_generator_block"),
        (gaugereduce.lattice, "rho_block"),
        (gaugereduce.reduction, "rho_block"),
        (gaugereduce.blocks, "kron_chain"),
        (gaugereduce.lattice, "kron_chain"),
        (oracles, "dense_pi_matrix"),
    ]:

        def record(*args, build=getattr(module, name), name=name):
            built.append((name, args[0]))
            return build(*args)

        monkeypatch.setattr(module, name, record)
    return built


@pytest.mark.parametrize("method", ["lie", "quadrature"])
@pytest.mark.parametrize(
    "trunc",
    [build("u1-triangle-b2"), make(triangle_graph(), SU2, 1), make(theta_graph(), SU2, 1)],
    ids=["u1-triangle-b2", "su2-triangle-b1", "su2-theta-b1"],
)
def test_verify_builds_no_dense_generator_and_calls_no_rho_block(trunc, method, monkeypatch):
    # blocks are split by their weights and ladder pieces, both methods find
    # the invariants on the weight-zero indices from per-edge pieces or
    # per-edge factors, ker(pi) is read off one component's weight-zero
    # overlaps, and the ideal off the components the seeds reach: no d x d
    # generator, block action, copy basis or matrix of pi, and nothing per
    # element, is built
    built = count_builds(monkeypatch)
    assert verify_ideal(trunc, n_max=2, method=method).passed
    assert built == []


def count_labels(monkeypatch) -> list:
    """Record the labels of every ``BlockLabel`` built, and ``"blocks"`` for
    every read of ``Truncation.blocks``."""
    built = []
    label_cls, trunc_cls = gaugereduce.blocks.BlockLabel, gaugereduce.blocks.Truncation
    check, lazy = label_cls.__post_init__, vars(trunc_cls).get("blocks")

    def post_init(block):
        built.append(block.labels)
        check(block)

    def blocks(trunc):
        built.append("blocks")
        return lazy.func(trunc)

    monkeypatch.setattr(label_cls, "__post_init__", post_init)
    monkeypatch.setattr(trunc_cls, "blocks", property(blocks), raising=False)
    return built


@pytest.mark.parametrize("method", ["lie", "quadrature"])
@pytest.mark.parametrize("name", list(CANON))
def test_verify_builds_block_labels_only_past_one_dimension(name, method, monkeypatch):
    # the truncation is an array of labels, and the one-dimensional blocks
    # stay arrays through the pass: on U(1) no BlockLabel is built and
    # Truncation.blocks is never read; on SU(2) a block of dimension > 1 is
    # built once, for its weight spaces, and no other block is
    builder, group, bound, *_ = CANON[name]
    built = count_labels(monkeypatch)
    trunc = make(builder(), group, bound)
    assert verify_ideal(trunc, n_max=2, method=method).passed
    assert "blocks" not in built
    assert len(set(built)) == len(built)
    assert all(math.prod(lab.dim for lab in labels) > 1 for labels in built)
    if group is U1:
        assert built == []


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


@pytest.mark.parametrize(
    "trunc,n_max",
    [
        (build("u1-triangle-b2"), None),
        (make(edgeless_graph(), U1, 1), None),
        (build("su2-loop-j2"), None),
        (make(triangle_graph(), SU2, 2), 2),
        (make(theta_graph(), SU2, 2), 2),
    ],
    ids=["u1-triangle-b2", "u1-edgeless", "su2-loop-j2", "su2-triangle-j1", "su2-theta-j1"],
)
def test_verify_leaves_the_per_block_arrays_unbuilt(trunc, n_max):
    # verify counts the blocks off the label array and takes the default
    # power budget and the total dimension in closed form, so the per-block
    # dimensions and offsets are never built; read afterwards, they agree
    assert verify_ideal(trunc, n_max).passed
    assert "dims" not in vars(trunc) and "offsets" not in vars(trunc)
    assert default_n_max(trunc) == trunc.dims.max()
    assert trunc.total_dim == trunc.dims.sum() == trunc.offsets[-1]


def test_verify_rejects_bad_nmax():
    with pytest.raises(ValueError):
        verify_ideal(build("u1-edge-b1"), n_max=0)
