"""Group primitives: pinned conventions, group laws, exact quadrature."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from gaugereduce.groups import (
    GroupId,
    HaarScheme,
    IrrepLabel,
    casimir_eigenvalue,
    exp_point,
    gauss_legendre,
    haar_scheme,
    identity_point,
    inverse,
    irrep_generator,
    irrep_matrix,
    labels_within,
    multiply,
    random_point,
    required_band,
    su2_point,
    su2_spin,
    u1_charge,
    u1_point,
)

SPINS = [su2_spin(j) for j in (0, 0.5, 1, 1.5, 2)]


def spin_half_oracle(w, x, y, z):
    # Closed form of the defining representation, written independently of
    # the exponential route the package uses.
    return np.array(
        [[w - 1j * z, -1j * x - y], [-1j * x + y, w + 1j * z]]
    )


def test_spin_half_matches_quaternion_formula():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = random_point(GroupId.SU2, rng)
        assert_allclose(
            irrep_matrix(su2_spin(0.5), p),
            spin_half_oracle(*p.data),
            atol=1e-12,
        )


def test_u1_irrep_is_the_phase_power():
    for n in range(-3, 4):
        theta = 1.234
        got = irrep_matrix(u1_charge(n), u1_point(theta))
        assert got.shape == (1, 1)
        assert abs(got[0, 0] - np.exp(1j * n * theta)) < 1e-14


@pytest.mark.parametrize("group", [GroupId.U1, GroupId.SU2])
def test_group_laws(group):
    rng = np.random.default_rng(11)
    e = identity_point(group)
    for _ in range(20):
        p = random_point(group, rng)
        q = random_point(group, rng)
        r = random_point(group, rng)
        pq_r = multiply(multiply(p, q), r)
        p_qr = multiply(p, multiply(q, r))
        assert_allclose(pq_r.data, p_qr.data, atol=1e-12)
        assert_allclose(multiply(p, e).data, p.data, atol=1e-15)
        ident = multiply(p, inverse(p))
        assert_allclose(ident.data, e.data, atol=1e-12)


def test_irreps_are_homomorphisms():
    rng = np.random.default_rng(3)
    for lab in SPINS + [u1_charge(-2), u1_charge(3)]:
        for _ in range(10):
            p = random_point(lab.group, rng)
            q = random_point(lab.group, rng)
            assert_allclose(
                irrep_matrix(lab, multiply(p, q)),
                irrep_matrix(lab, p) @ irrep_matrix(lab, q),
                atol=1e-12,
            )


def test_irreps_are_unitary():
    rng = np.random.default_rng(5)
    for lab in SPINS:
        p = random_point(GroupId.SU2, rng)
        u = irrep_matrix(lab, p)
        assert_allclose(u @ u.conj().T, np.eye(lab.dim), atol=1e-12)


def test_generator_is_derivative_of_irrep():
    # Central difference of the one-parameter subgroup at t = 0.
    h = 1e-4
    for lab in SPINS + [u1_charge(2)]:
        dim = 1 if lab.group is GroupId.U1 else 3
        for a in range(dim):
            step = [0.0] * dim
            step[a] = h
            plus = irrep_matrix(lab, exp_point(lab.group, step))
            step[a] = -h
            minus = irrep_matrix(lab, exp_point(lab.group, step))
            fd = (plus - minus) / (2 * h)
            assert_allclose(fd, irrep_generator(lab, a), atol=1e-6)


def test_generator_commutators():
    for lab in SPINS[1:]:
        x = [irrep_generator(lab, a) for a in range(3)]
        assert_allclose(x[0] @ x[1] - x[1] @ x[0], x[2], atol=1e-12)
        assert_allclose(x[1] @ x[2] - x[2] @ x[1], x[0], atol=1e-12)
        assert_allclose(x[2] @ x[0] - x[0] @ x[2], x[1], atol=1e-12)


def test_generators_antihermitian():
    for lab in SPINS:
        for a in range(3):
            x = irrep_generator(lab, a)
            assert_allclose(x + x.conj().T, 0, atol=1e-13)


def test_generators_are_shared_and_read_only():
    for lab in SPINS + [u1_charge(2)]:
        x = irrep_generator(lab, 0)
        assert irrep_generator(lab, 0) is x
        with pytest.raises(ValueError):
            x[0, 0] = 0


def test_full_turn_is_minus_one_in_spin_half():
    for a in range(3):
        coeffs = [0.0, 0.0, 0.0]
        coeffs[a] = 2 * math.pi
        g = exp_point(GroupId.SU2, coeffs)
        assert_allclose(irrep_matrix(su2_spin(0.5), g), -np.eye(2), atol=1e-12)
        assert_allclose(irrep_matrix(su2_spin(1), g), np.eye(3), atol=1e-12)


def test_z_rotation_weights_descend():
    # diag(exp(-i t m)) with m = j..-j top to bottom.
    t = 0.77
    g = exp_point(GroupId.SU2, [0, 0, t])
    for lab in SPINS[1:]:
        j = lab.value / 2
        ms = j - np.arange(lab.dim)
        assert_allclose(
            irrep_matrix(lab, g), np.diag(np.exp(-1j * t * ms)), atol=1e-12
        )


def test_spin_one_z_generator_matrix():
    assert_allclose(
        irrep_generator(su2_spin(1), 2), -1j * np.diag([1.0, 0.0, -1.0]), atol=1e-14
    )


def test_u1_generator_is_charge_times_i():
    for n in (-2, 0, 5):
        assert irrep_generator(u1_charge(n), 0)[0, 0] == 1j * n


def test_quaternion_validation():
    with pytest.raises(ValueError):
        su2_point(0, 0, 0, 0)
    with pytest.raises(ValueError):
        su2_spin(0.3)
    with pytest.raises(ValueError):
        IrrepLabel(GroupId.SU2, -1)


def test_labels_within_order():
    u1 = labels_within(GroupId.U1, u1_charge(2))
    assert [lab.value for lab in u1] == [-2, -1, 0, 1, 2]
    su2 = labels_within(GroupId.SU2, su2_spin(1))
    assert [lab.value for lab in su2] == [0, 1, 2]


def test_casimir_values():
    assert casimir_eigenvalue(u1_charge(3)) == 9.0
    assert casimir_eigenvalue(su2_spin(0.5)) == 0.75
    assert casimir_eigenvalue(su2_spin(1)) == 2.0


def test_required_band_covers_half_the_degree():
    assert required_band(GroupId.U1, 4).degree == 2
    assert required_band(GroupId.U1, 5).degree == 3
    assert required_band(GroupId.SU2, 0).degree == 0
    assert required_band(GroupId.SU2, 3).degree == 2


def schur_integral(scheme: HaarScheme, a: IrrepLabel, b: IrrepLabel) -> np.ndarray:
    """Quadrature value of the matrix of integrals D^a_{ij} conj(D^b_{kl})."""
    acc = np.zeros((a.dim, a.dim, b.dim, b.dim), complex)
    for p, w in zip(scheme.points, scheme.weights):
        da = irrep_matrix(a, p)
        db = irrep_matrix(b, p)
        acc += w * np.einsum("ij,kl->ijkl", da, db.conj())
    return acc


@pytest.mark.parametrize(
    "group,band",
    [
        (GroupId.U1, 2),
        (GroupId.SU2, 1),
        (GroupId.SU2, 2),
        (GroupId.SU2, 3),
    ],
)
def test_schur_orthogonality_within_band(group, band):
    # The scheme must reproduce the exact Schur relations:
    # integral of D^a conj(D^b) is 0 for a != b and the rescaled identity
    # pairing for a == b.  Every pair within the band stays in budget.
    scheme = haar_scheme(group, IrrepLabel(group, band))
    assert abs(sum(scheme.weights) - 1.0) < 1e-13
    labels = labels_within(group, IrrepLabel(group, band))
    for a in labels:
        for b in labels:
            got = schur_integral(scheme, a, b)
            want = np.zeros_like(got)
            if a == b:
                want = (
                    np.einsum(
                        "ik,jl->ijkl", np.eye(a.dim), np.eye(a.dim)
                    )
                    / a.dim
                )
            assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_gauss_legendre_matches_numpy(n):
    # Golub-Welsch against numpy's own nodes and weights
    x, w = gauss_legendre(n)
    want_x, want_w = np.polynomial.legendre.leggauss(n)
    assert_allclose(x, want_x, rtol=0, atol=1e-14)
    assert_allclose(w, want_w, rtol=0, atol=1e-14)


def test_single_coefficient_integrals_vanish():
    scheme = haar_scheme(GroupId.SU2, su2_spin(1.5))
    for lab in SPINS[1:]:
        acc = sum(
            w * irrep_matrix(lab, p) for p, w in zip(scheme.points, scheme.weights)
        )
        assert np.abs(acc).max() < 1e-12


def test_u1_scheme_aliases_just_past_the_band():
    # 2b+1 equispaced angles alias charge 2b+1 onto charge 0, so the first
    # integral outside the guarantee is visibly wrong: a sharp exactness edge.
    b = 2
    scheme = haar_scheme(GroupId.U1, u1_charge(b))
    val = sum(
        w * irrep_matrix(u1_charge(2 * b + 1), p)[0, 0]
        for p, w in zip(scheme.points, scheme.weights)
    )
    assert abs(val - 1.0) < 1e-13


def test_irrep_matrix_matches_truncated_exp_series():
    # Independent route: sum the power series of the generator combination
    # to 30 terms and compare with the library's matrix at the same point.
    rng = np.random.default_rng(19)
    for lab in SPINS[1:] + [u1_charge(-2)]:
        dim_lie = 1 if lab.group is GroupId.U1 else 3
        coeffs = rng.uniform(-1.5, 1.5, size=dim_lie)
        a = sum(
            c * irrep_generator(lab, k) for k, c in enumerate(coeffs)
        )
        series = np.eye(lab.dim, dtype=complex)
        term = np.eye(lab.dim, dtype=complex)
        for k in range(1, 31):
            term = term @ a / k
            series = series + term
        point = exp_point(lab.group, coeffs)
        assert np.abs(irrep_matrix(lab, point) - series).max() < 1e-8


@pytest.mark.parametrize("two_j", range(9))
def test_irrep_matrix_matches_scipy_expm(two_j):
    # Oracle: scipy's Pade exponential of theta times the generator along
    # the point's axis, against the library's eigenbasis exponential.
    lab = IrrepLabel(GroupId.SU2, two_j)
    rng = np.random.default_rng(100 + two_j)
    for _ in range(20):
        p = random_point(GroupId.SU2, rng)
        w, *axis = p.data
        s = math.sqrt(sum(c * c for c in axis))
        gen = sum((c / s) * irrep_generator(lab, k) for k, c in enumerate(axis))
        u = irrep_matrix(lab, p)
        assert np.abs(u - expm(2.0 * math.atan2(s, w) * gen)).max() < 1e-12
        assert np.abs(u @ u.conj().T - np.eye(lab.dim)).max() < 1e-12


def test_su2_scheme_handles_half_integer_frequencies():
    # The last Euler angle runs over a double period; a spin 1/2 coefficient
    # integrates to zero rather than aliasing.
    scheme = haar_scheme(GroupId.SU2, su2_spin(0.5))
    acc = sum(
        w * irrep_matrix(su2_spin(0.5), p)
        for p, w in zip(scheme.points, scheme.weights)
    )
    assert np.abs(acc).max() < 1e-13
