"""Compact-group primitives for U(1) and SU(2).

Conventions, pinned once and relied on everywhere downstream:

* A U(1) point is an angle ``theta`` in ``[0, 2*pi)``; the charge-``n``
  irrep is the scalar ``exp(1j*n*theta)``.  The single Lie basis element
  ``X1`` satisfies ``exp(t*X1) = angle t``, so its charge-``n`` image is
  the scalar ``1j*n``.
* An SU(2) point is a unit quaternion ``(w, x, y, z)`` with identity
  ``(1, 0, 0, 0)``.  Spin-``j`` irreps use the weight basis ordered
  ``m = j, j-1, ..., -j``.  The Lie basis ``X1, X2, X3`` is ``-i/2`` times
  the Pauli matrices in spin 1/2, extended to higher spin through the
  standard ladder recursion, so ``[Xa, Xb] = eps_abc Xc`` and
  ``exp(2*pi*Xa) = -1`` in spin 1/2.  A z-rotation by ``t`` acts as
  ``diag(exp(-1j*t*m))`` over the descending weights.
* Irrep matrices at arbitrary points are matrix exponentials of the
  generators along the point's axis-angle form: one code path for every
  spin, which reproduces the quaternion itself in spin 1/2.  The
  exponential of ``theta*gen`` is taken on the eigenbasis of the hermitian
  ``H = 1j*gen``, as ``V exp(-1j*theta*vals) V^H``: unitary by
  construction, and independent of the eigenvectors' phases.
* Haar quadrature is exact up to a declared band.  The scheme of band
  ``b`` integrates every product of matrix-coefficient functions whose
  label degrees (|charge| for U(1), 2j for SU(2)) sum to at most ``2*b``;
  in particular every pair ``D^a * conj(D^b)`` with both labels within the
  band.  U(1) uses ``2b+1`` equispaced angles.  SU(2) uses a z-y-z Euler
  product with equispaced outer angles, the last over a ``4*pi`` period so
  half-integer spins are covered, and Gauss-Legendre nodes in
  ``cos(beta)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi


class GroupId(Enum):
    """Structure-group tag."""

    U1 = "u1"
    SU2 = "su2"


@dataclass(frozen=True)
class IrrepLabel:
    """Label of an irreducible unitary representation.

    U(1) irreps are indexed by an integer charge.  SU(2) irreps are indexed
    by a nonnegative half-integer spin stored as ``value = 2j`` so the
    label stays integral.
    """

    group: GroupId
    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", int(self.value))
        if self.group is GroupId.SU2 and self.value < 0:
            raise ValueError(f"negative spin label: 2j = {self.value}")

    @property
    def dim(self) -> int:
        return 1 if self.group is GroupId.U1 else self.value + 1

    @property
    def spin(self) -> float:
        if self.group is not GroupId.SU2:
            raise ValueError("spin is defined for SU(2) labels only")
        return self.value / 2.0

    @property
    def degree(self) -> int:
        """Size used in band arithmetic: |charge| for U(1), 2j for SU(2)."""
        return abs(self.value) if self.group is GroupId.U1 else self.value


def u1_charge(n: int) -> IrrepLabel:
    return IrrepLabel(GroupId.U1, int(n))


def su2_spin(j) -> IrrepLabel:
    """SU(2) label from a spin given in spin units (0, 1/2, 1, 3/2, ...)."""
    two_j = 2.0 * float(j)
    if abs(two_j - round(two_j)) > 1e-12:
        raise ValueError(f"spin must be a half-integer, got {j}")
    return IrrepLabel(GroupId.SU2, int(round(two_j)))


def labels_within(group: GroupId, bound: IrrepLabel) -> tuple[IrrepLabel, ...]:
    """All labels of degree at most the bound's, in a fixed ascending order."""
    if bound.group is not group:
        raise ValueError("bound label belongs to a different group")
    b = bound.degree
    if group is GroupId.U1:
        return tuple(IrrepLabel(group, n) for n in range(-b, b + 1))
    return tuple(IrrepLabel(group, two_j) for two_j in range(b + 1))


def lie_dim(group: GroupId) -> int:
    return 1 if group is GroupId.U1 else 3


@dataclass(frozen=True)
class GroupPoint:
    """A group element: ``(theta,)`` for U(1), a unit quaternion for SU(2)."""

    group: GroupId
    data: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.group is GroupId.U1:
            if len(self.data) != 1:
                raise ValueError("U(1) point needs a single angle")
        else:
            if len(self.data) != 4:
                raise ValueError("SU(2) point needs four quaternion components")
            norm = math.sqrt(sum(c * c for c in self.data))
            if abs(norm - 1.0) > 1e-12:
                raise ValueError(f"quaternion norm {norm} is not 1")


def u1_point(theta: float) -> GroupPoint:
    return GroupPoint(GroupId.U1, (float(theta) % TWO_PI,))


def su2_point(w: float, x: float, y: float, z: float) -> GroupPoint:
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    if not norm > 1e-9:
        raise ValueError("quaternion too close to zero")
    return GroupPoint(GroupId.SU2, (w / norm, x / norm, y / norm, z / norm))


def identity_point(group: GroupId) -> GroupPoint:
    if group is GroupId.U1:
        return GroupPoint(group, (0.0,))
    return GroupPoint(group, (1.0, 0.0, 0.0, 0.0))


def multiply(p: GroupPoint, q: GroupPoint) -> GroupPoint:
    if p.group is not q.group:
        raise ValueError("cannot multiply points of different groups")
    if p.group is GroupId.U1:
        return u1_point(p.data[0] + q.data[0])
    a, b, c, d = p.data
    e, f, g, h = q.data
    return su2_point(
        a * e - b * f - c * g - d * h,
        a * f + b * e + c * h - d * g,
        a * g - b * h + c * e + d * f,
        a * h + b * g - c * f + d * e,
    )


def inverse(p: GroupPoint) -> GroupPoint:
    if p.group is GroupId.U1:
        return u1_point(-p.data[0])
    w, x, y, z = p.data
    return GroupPoint(GroupId.SU2, (w, -x, -y, -z))


def random_point(group: GroupId, rng: np.random.Generator) -> GroupPoint:
    if group is GroupId.U1:
        return u1_point(rng.uniform(0.0, TWO_PI))
    v = rng.normal(size=4)
    while np.linalg.norm(v) < 1e-6:
        v = rng.normal(size=4)
    return su2_point(*v)


def exp_point(group: GroupId, coeffs) -> GroupPoint:
    """Group exponential of ``sum_a coeffs[a] * X_a``."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (lie_dim(group),):
        raise ValueError(f"expected {lie_dim(group)} coefficients, got {c.shape}")
    if group is GroupId.U1:
        return u1_point(c[0])
    theta = float(np.linalg.norm(c))
    if theta < 1e-300:
        return identity_point(group)
    axis = c / theta
    half = 0.5 * theta
    s = math.sin(half)
    return su2_point(math.cos(half), s * axis[0], s * axis[1], s * axis[2])


@functools.cache
def irrep_generator(label: IrrepLabel, index: int) -> np.ndarray:
    """Image of the index-th Lie basis element in the given irrep.

    Anti-hermitian, and equal to the t-derivative of
    ``irrep_matrix(label, exp(t * X_index))`` at ``t = 0``.  Cached per
    label and index, so the array is read-only.
    """
    if index < 0 or index >= lie_dim(label.group):
        raise ValueError(f"lie index {index} out of range for {label.group.value}")
    if label.group is GroupId.U1:
        out = np.array([[1j * label.value]], dtype=complex)
    else:
        two_j = label.value
        d = two_j + 1
        j = two_j / 2.0
        m = j - np.arange(d)  # descending weights j, j-1, ..., -j
        jz = np.diag(m).astype(complex)
        jp = np.zeros((d, d), dtype=complex)
        for k in range(1, d):
            mk = m[k]
            jp[k - 1, k] = math.sqrt(j * (j + 1) - mk * (mk + 1))
        jm = jp.conj().T
        jx = 0.5 * (jp + jm)
        jy = (jp - jm) / 2j
        out = -1j * (jx, jy, jz)[index]
    out.setflags(write=False)
    return out


def irrep_matrix(label: IrrepLabel, point: GroupPoint) -> np.ndarray:
    """Unitary matrix of ``point`` in the irrep ``label``."""
    if point.group is not label.group:
        raise ValueError("point and label belong to different groups")
    if label.group is GroupId.U1:
        return np.array([[np.exp(1j * label.value * point.data[0])]])
    two_j = label.value
    d = two_j + 1
    w, x, y, z = point.data
    s = math.sqrt(x * x + y * y + z * z)
    if s < 1e-15:
        sign = 1.0 if w > 0 else (-1.0) ** two_j
        return sign * np.eye(d, dtype=complex)
    theta = 2.0 * math.atan2(s, w)
    gen = (
        (x / s) * irrep_generator(label, 0)
        + (y / s) * irrep_generator(label, 1)
        + (z / s) * irrep_generator(label, 2)
    )
    vals, vecs = np.linalg.eigh(1j * gen)  # H = i*gen: exp(theta*gen) = exp(-i*theta*H)
    return (vecs * np.exp(-1j * theta * vals)) @ vecs.conj().T


def casimir_eigenvalue(label: IrrepLabel) -> Fraction:
    """Exact eigenvalue of ``-sum_a X_a^2``: n^2 for U(1), j(j+1) for SU(2)."""
    if label.group is GroupId.U1:
        return Fraction(label.value**2)
    return Fraction(label.value * (label.value + 2), 4)


@dataclass(frozen=True, eq=False)
class HaarScheme:
    """Finite quadrature for the normalized Haar integral.

    Exact for every product of matrix-coefficient functions whose label
    degrees sum to at most ``2 * band.degree``.
    """

    group: GroupId
    band: IrrepLabel
    points: tuple[GroupPoint, ...]
    weights: np.ndarray


def required_band(group: GroupId, total_degree: int) -> IrrepLabel:
    """Smallest band whose scheme integrates products of that total degree."""
    return IrrepLabel(group, (max(int(total_degree), 0) + 1) // 2)


def _z_rotation(t: float) -> GroupPoint:
    return su2_point(math.cos(0.5 * t), 0.0, 0.0, math.sin(0.5 * t))


def _y_rotation(t: float) -> GroupPoint:
    return su2_point(math.cos(0.5 * t), 0.0, math.sin(0.5 * t), 0.0)


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on ``[-1, 1]``, by Golub-Welsch."""
    k = np.arange(1, n)
    nodes, vecs = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1), 1), UPLO="U")
    return nodes, 2 * vecs[0] ** 2


@functools.cache
def haar_scheme(group: GroupId, band: IrrepLabel) -> HaarScheme:
    """The product quadrature of the requested band, built once per band."""
    if band.group is not group:
        raise ValueError("band label belongs to a different group")
    b = band.degree
    if group is GroupId.U1:
        n = 2 * b + 1
        points = tuple(u1_point(TWO_PI * k / n) for k in range(n))
        weights = np.full(n, 1.0 / n)
    else:
        n_alpha = b + 1
        n_beta = b // 2 + 1
        n_gamma = 2 * b + 1
        xs, ws = gauss_legendre(n_beta)
        pts = []
        wts = []
        for ka in range(n_alpha):
            za = _z_rotation(TWO_PI * ka / n_alpha)
            for xb, wb in zip(xs, ws):
                zy = multiply(za, _y_rotation(math.acos(xb)))
                for kc in range(n_gamma):
                    pts.append(multiply(zy, _z_rotation(2.0 * TWO_PI * kc / n_gamma)))
                    wts.append(0.5 * wb / (n_alpha * n_gamma))
        points = tuple(pts)
        weights = np.array(wts)
    weights.setflags(write=False)
    return HaarScheme(group, band, points, weights)
