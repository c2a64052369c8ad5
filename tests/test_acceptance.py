"""Acceptance gate: one check per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the ledger.
Every line states what was verified and at which tolerance; the numbers
in here are frozen and must not drift with refactors.
"""

import functools
import itertools
import json

import numpy as np

from gaugereduce import (
    GaugeElement,
    commutant_basis,
    eigenspace_grouping,
    exp_point,
    generator_op,
    haar_scheme,
    invariant_basis,
    invariant_projector,
    irrep_generator,
    irrep_matrix,
    kernel_pi_basis,
    labels_within,
    multiply,
    random_point,
    verify_ideal,
)
from gaugereduce.cli import main
from gaugereduce.groups import GroupId, IrrepLabel, lie_dim, su2_spin, u1_charge
from gaugereduce.ideal import GeneratorSpec

from .oracles import element_mask, level_summed_masks
from .systems import CANON, build

DISTANCE_TOL = 1e-8
ALGEBRAIC_TOL = 1e-10
FD_TOL = 1e-6
SERIES_TOL = 1e-8


def report(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


@functools.cache
def cached_verify(name: str, n_max: int):
    return verify_ideal(build(name), n_max=n_max)


U1_GRAPH_SECTIONS = {
    "edge": "vertices = x y\nedge = e x y",
    "parallel": "vertices = x y\nedge = e x y\nedge = f x y",
    "triangle": "vertices = x y z\nedge = a x y\nedge = b y z\nedge = c z x",
}


def test_criterion_1_abelian_equality(tmp_path):
    # through the command line, as shipped
    worst = 0.0
    for label, section in U1_GRAPH_SECTIONS.items():
        cfg = tmp_path / f"{label}.cfg"
        cfg.write_text(
            f"[group]\nkind = u1\n\n[graph]\n{section}\n\n"
            "[truncation]\nbound = 2\n\n[verify]\nnmax = 4\n"
        )
        out = tmp_path / f"{label}.json"
        rc = main(["verify", "--config", str(cfg), "--out", str(out)])
        assert rc == 0, label
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        worst = max(worst, payload["per_nmax"][-1]["distance"])
        for row in payload["per_nmax"]:
            assert row["containment_residual"] <= DISTANCE_TOL
    report(
        1,
        worst <= DISTANCE_TOL,
        "U(1) edge/parallel/triangle at charge bound 2: kernel equals the "
        f"averaged-generator ideal by power 4 (worst distance {worst:.1e}, "
        "containment at every power <= 1e-8)",
    )


def test_criterion_2_nonabelian_equality_and_frozen_average():
    rep = cached_verify("su2-loop-j2", 2)
    first = cached_verify("su2-loop-j2", 1)
    trunc = build("su2-loop-j1")
    got = generator_op(trunc, GeneratorSpec(1, "x", 2, 2))
    singlet = np.eye(2).ravel() / np.sqrt(2.0)
    p1 = np.eye(4) - np.outer(singlet, singlet.conj())
    frozen_err = np.abs(got - (-2.0 / 3.0) * p1).max()
    ok = (
        rep.passed
        and rep.rows[-1].distance <= DISTANCE_TOL
        and not first.passed
        and first.rows[0].containment_residual <= DISTANCE_TOL
        and frozen_err <= DISTANCE_TOL
    )
    report(
        2,
        ok,
        "SU(2) loop at spin bound 1: equality at power 2 (distance "
        f"{rep.rows[-1].distance:.1e}), power 1 fails by tracelessness while "
        f"contained, spin-1/2 square average is -(2/3) P1 to {frozen_err:.1e}",
    )


def test_criterion_3_dimension_ledger():
    ok = True
    for name, (_, _, _, q, hk, kk, _) in CANON.items():
        trunc = build(name)
        space = commutant_basis(trunc)
        inv = invariant_basis(trunc)
        ker = kernel_pi_basis(space, inv)
        ok = ok and (space.dim, inv.dim, ker.dim) == (q, hk, kk)
        ok = ok and space.dim == ker.dim + inv.dim**2
    triples = (
        CANON["u1-edge-b1"][3:6] == (3, 1, 2)
        and CANON["u1-parallel-b1"][3:6] == (19, 3, 10)
        and CANON["su2-loop-j1"][3:6] == (5, 2, 1)
    )
    report(
        3,
        ok and triples,
        "dim(commutant) = dim(kernel) + dim(invariants)^2 on all 11 systems; "
        "worked triples 3=2+1, 19=10+9, 5=1+4 confirmed",
    )


def brute_force_balanced(graph, bound):
    """Count edge-charge assignments with zero net charge at every vertex."""
    count = 0
    charges = range(-bound, bound + 1)
    for combo in itertools.product(charges, repeat=len(graph.edges)):
        good = True
        for v in graph.vertices:
            flux = 0
            for e, n in zip(graph.edges, combo):
                if e.target == v:
                    flux += n
                if e.source == v:
                    flux -= n
            if flux != 0:
                good = False
                break
        if good:
            count += 1
    return count


def test_criterion_4_flux_counting():
    ok = True
    for name in (
        "u1-edge-b1",
        "u1-edge-b2",
        "u1-parallel-b1",
        "u1-parallel-b2",
        "u1-triangle-b1",
        "u1-triangle-b2",
        "u1-loop-b1",
    ):
        trunc = build(name)
        expected = brute_force_balanced(trunc.graph, trunc.bound.value)
        ok = ok and invariant_basis(trunc).dim == expected
    triangle = invariant_basis(build("u1-triangle-b1")).dim
    report(
        4,
        ok and triangle == 3,
        "U(1) invariant dimension equals the brute-force count of "
        "flux-balanced charge assignments on every graph and bound "
        "(triangle at bound 1: 3)",
    )


def test_criterion_5_projector_cross_validation():
    worst = 0.0
    for name in CANON:
        trunc = build(name)
        for block in trunc.blocks:
            gap = np.abs(
                invariant_projector(block, "lie")
                - invariant_projector(block, "quadrature")
            ).max()
            worst = max(worst, gap)
    report(
        5,
        worst <= DISTANCE_TOL,
        "lie-algebra and Haar-quadrature invariant projectors agree on every "
        f"block of every system (worst entry gap {worst:.1e})",
    )


def test_criterion_6_harmonic_substrate():
    rng = np.random.default_rng(101)
    ok = True
    # Schur orthogonality at the algebraic tolerance
    for group, bandval in ((GroupId.U1, 2), (GroupId.SU2, 2)):
        band = IrrepLabel(group, bandval)
        scheme = haar_scheme(group, band)
        labels = labels_within(group, band)
        for a in labels:
            for b in labels:
                acc = np.zeros((a.dim, a.dim, b.dim, b.dim), complex)
                for p, w in zip(scheme.points, scheme.weights):
                    acc += w * np.einsum(
                        "ij,kl->ijkl", irrep_matrix(a, p), irrep_matrix(b, p).conj()
                    )
                want = np.zeros_like(acc)
                if a == b:
                    want = np.einsum("ik,jl->ijkl", np.eye(a.dim), np.eye(a.dim)) / a.dim
                ok = ok and np.abs(acc - want).max() <= ALGEBRAIC_TOL
    # unitarity and homomorphism
    for lab in (u1_charge(2), su2_spin(0.5), su2_spin(1)):
        for _ in range(5):
            p = random_point(lab.group, rng)
            q = random_point(lab.group, rng)
            u = irrep_matrix(lab, p)
            ok = ok and np.abs(u @ u.conj().T - np.eye(lab.dim)).max() <= ALGEBRAIC_TOL
            ok = (
                ok
                and np.abs(
                    irrep_matrix(lab, multiply(p, q)) - u @ irrep_matrix(lab, q)
                ).max()
                <= ALGEBRAIC_TOL
            )
    # generator finite differences
    h = 1e-4
    for lab in (u1_charge(3), su2_spin(1)):
        for a in range(lie_dim(lab.group)):
            step = [0.0] * lie_dim(lab.group)
            step[a] = h
            plus = irrep_matrix(lab, exp_point(lab.group, step))
            step[a] = -h
            minus = irrep_matrix(lab, exp_point(lab.group, step))
            fd = (plus - minus) / (2 * h)
            ok = ok and np.abs(fd - irrep_generator(lab, a)).max() <= FD_TOL
    # 30-term exponential series
    for lab in (su2_spin(1.5), u1_charge(-2)):
        coeffs = rng.uniform(-1.0, 1.0, size=lie_dim(lab.group))
        gen = sum(c * irrep_generator(lab, k) for k, c in enumerate(coeffs))
        series = np.eye(lab.dim, dtype=complex)
        term = np.eye(lab.dim, dtype=complex)
        for k in range(1, 31):
            term = term @ gen / k
            series = series + term
        ok = (
            ok
            and np.abs(irrep_matrix(lab, exp_point(lab.group, coeffs)) - series).max()
            <= SERIES_TOL
        )
    report(
        6,
        ok,
        "Schur orthogonality, unitarity, homomorphism (1e-10), generator "
        "finite differences (1e-6), and 30-term exponential series (1e-8) "
        "all hold",
    )


def test_criterion_7_coarsening_invariance():
    differ = 0
    ok = True
    for name in CANON:
        n_max = 4 if name.endswith("b2") and name.startswith("u1") else CANON[name][6]
        fine = cached_verify(name, n_max)
        trunc = build(name)
        grouping = eigenspace_grouping(trunc)
        masks = level_summed_masks(commutant_basis(trunc), grouping.groups, n_max)
        differ += not np.array_equal(element_mask(fine.final_ideal), masks[-1])
        members = sorted(i for g in grouping.groups for i in g)
        ok = ok and members == list(range(fine.n_blocks))
    report(
        7,
        ok and differ == 0,
        "generators summed over each energy level, cut after summing "
        "(1e-10), give the same final ideal on all systems (component masks "
        f"differ on {differ}); levels partition the blocks exactly",
    )


def test_criterion_8_deterministic_reports(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[group]\nkind = su2\n\n[graph]\nvertices = x\nedge = l x x\n\n"
        "[truncation]\nbound = 2\n\n[verify]\nnmax = 2\n"
    )
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    rc1 = main(["verify", "--config", str(cfg), "--out", str(out1)])
    rc2 = main(["verify", "--config", str(cfg), "--out", str(out2)])
    same = out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    report(
        8,
        rc1 == 0 and rc2 == 0 and same and payload["pass"] is True,
        "two consecutive verify runs on the same input emit byte-identical "
        "JSON reports",
    )
