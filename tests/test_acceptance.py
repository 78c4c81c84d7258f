"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they execute; a plain `pytest` shows them on failure.
"""

import json
import time
from fractions import Fraction

import numpy as np

from oracles import (
    fd_scalar_curvature,
    hc_diag,
    interval_midpoint_integral,
    rayleigh_quotient,
    simplex2_centroid_integral,
    sturm_liouville_lambda1,
)
from toriceig import (
    LabelledPolytope,
    balance,
    build_embedding,
    build_quadrature,
    dilation,
    example_path,
    example_polytope,
    guillemin,
    ke_check,
    lambda1_invariant,
    psi_diag,
    quadratic_perturbed,
    saturation_check,
    scalar_curvature,
    sweep_dilation,
    sweep_uc,
)
from toriceig.cli import main as cli_main
from toriceig.sampling import interior_points
from toriceig.spectral import TrialFunction

interval01 = example_polytope("interval01")
intervalC = example_polytope("intervalC")
simplex2 = example_polytope("simplex2")


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_cp1_model():
    start = time.perf_counter()
    Q = build_quadrature(interval01, 3, 3)
    result = lambda1_invariant(guillemin(interval01), 4, Q)
    elapsed = time.perf_counter() - start
    err = abs(result.lambda1T - 4.0)
    report(
        1,
        err < 1e-4 and elapsed < 1.0,
        f"CP^1 lambda1T = {result.lambda1T:.10f} (|err| = {err:.2e}, {elapsed:.3f}s)",
    )


def test_criterion_2_cp2_model():
    Q = build_quadrature(simplex2, 3, 2)
    result = lambda1_invariant(guillemin(simplex2), 4, Q)
    err = abs(result.lambda1T - 6.0)
    bound = simplex2.bly_bound().bound
    E = build_embedding(simplex2)
    u = guillemin(E.polytope)
    w = balance(E, u, Q, tol=1e-10)
    sat = saturation_check(E, u, w, Q)
    ok = (
        err < 5e-3
        and bound == Fraction(6)
        and sat.saturated
        and sat.r1 < 1e-6
        and sat.r2 < 1e-6
        and sat.classification == "fubini-study"
    )
    report(
        2,
        ok,
        f"CP^2 lambda1T = {result.lambda1T:.8f}, bound = {bound}, "
        f"saturation r1 = {sat.r1:.2e}, r2 = {sat.r2:.2e}, {sat.classification}",
    )


def test_criterion_3_ke_characterization():
    r1 = ke_check(guillemin(interval01))
    r2 = ke_check(guillemin(simplex2))
    bad = ke_check(quadratic_perturbed(interval01, 0, 5.0))
    ok = (
        r1.is_ke
        and abs(r1.lambda_hat - 2.0) < 1e-6
        and r1.residual_max < 1e-8
        and r2.is_ke
        and abs(r2.lambda_hat - 3.0) < 1e-6
        and r2.residual_max < 1e-8
        and (not bad.is_ke)
        and bad.residual_max > 0.1
    )
    report(
        3,
        ok,
        f"KE: lambda = {r1.lambda_hat:.8f}/{r2.lambda_hat:.8f} "
        f"(residuals {r1.residual_max:.1e}, {r2.residual_max:.1e}), "
        f"perturbed residual {bad.residual_max:.3f}",
    )


def test_criterion_4_curvature_oracles():
    worst_closed = worst_fd = 0.0
    for P, expected in ((interval01, 4.0), (simplex2, 12.0)):
        u = guillemin(P)
        for x in interior_points(P, 20, min_facet=0.02):
            closed = scalar_curvature(u, x).scal
            fd = fd_scalar_curvature(u, x)
            worst_closed = max(worst_closed, abs(closed - expected) / expected)
            worst_fd = max(worst_fd, abs(fd - expected) / expected)
    ok = worst_closed < 1e-6 and worst_fd < 1e-3
    report(4, ok, f"scal rel err: closed {worst_closed:.2e}, fd {worst_fd:.2e}")


def test_criterion_5_inf_zero_trend():
    result = sweep_uc(interval01, 0, [0, 1, 10, 100, 1000], degree=6)
    lams = [lam for _, lam in result.rows]
    decreasing = all(b < a for a, b in zip(lams, lams[1:]))
    ok = decreasing and lams[-1] < 0.05
    report(5, ok, f"sweep_uc lambda1T: {', '.join(f'{v:.4g}' for v in lams)}")


def test_criterion_6_sup_infinity_trend():
    result = sweep_dilation(intervalC, [2, 1.5, 1.1, 1.01], degree=6)
    lams = [lam for _, lam in result.rows]
    base = lambda1_invariant(
        guillemin(intervalC), 6, build_quadrature(intervalC, 3, 2)
    ).lambda1T
    ok = all(lam >= base - 1e-6 for lam in lams) and lams[-1] > 5 * lams[0]
    report(
        6,
        ok,
        f"sweep_dilation lambda1T: {', '.join(f'{v:.4g}' for v in lams)} "
        f"(guillemin {base:.6f})",
    )


def test_criterion_7_lattice_combinatorics():
    third = example_polytope("interval-third")
    three_halves = LabelledPolytope(1, [((1,), 0), ((-1,), Fraction(3, 2))])
    parts = [
        third.k0() == 3,
        third.bly_bound().bound == 12,
        three_halves.k0() == 1,
        three_halves.bly_bound().bound == 4,
    ]
    names = ("interval01", "intervalC", "simplex2", "square",
             "interval-third", "perturbed-simplex")
    for name in names:
        P = example_polytope(name)
        k0 = P.k0()
        for k in (k0, k0 + 1, k0 + 2):
            r = P.check_kpk_integral(k)
            parts.append(r["is_integral"] and r["is_delzant"] and r["lattice_count_matches"])
    report(7, all(parts), f"k0/bounds and kP_k checks over {len(names)} polytopes")


def test_criterion_8_balance():
    msgs = []
    ok = True

    E1 = build_embedding(interval01)
    u1 = guillemin(E1.polytope)
    Q1 = build_quadrature(E1.polytope, 3, 3)
    w1 = balance(E1, u1, Q1, tol=1e-8)
    ok &= bool(np.allclose(w1.alpha, 0.5, atol=1e-10)) and w1.iterations <= 20
    for idx in range(E1.count):
        avg = interval_midpoint_integral(
            lambda p, i=idx: psi_diag(E1, u1, w1.alpha, p)[..., i], 0.0, 1.0, 4000
        )
        ok &= abs(avg - 0.5) < 1e-8
    msgs.append(f"interval residual {w1.residual:.1e} in {w1.iterations} iters")

    E2 = build_embedding(simplex2)
    u2 = guillemin(E2.polytope)
    Q2 = build_quadrature(E2.polytope, 3, 2)
    w2 = balance(E2, u2, Q2, tol=1e-8)
    ok &= bool(np.allclose(w2.alpha, 1 / 3, atol=1e-10)) and w2.iterations <= 20
    for idx in range(E2.count):
        integral = simplex2_centroid_integral(
            lambda pts, i=idx: psi_diag(E2, u2, w2.alpha, pts)[..., i], k=120
        )
        ok &= abs(integral / 0.5 - 1 / 3) < 1e-8
    msgs.append(f"simplex residual {w2.residual:.1e} in {w2.iterations} iters")

    report(8, ok, "; ".join(msgs))


def test_criterion_9_oracle_equivalence():
    worst = 0.0
    Q1 = build_quadrature(interval01, 3, 3)
    for c in (0.0, 1.0, 10.0):
        u = guillemin(interval01) if c == 0 else quadratic_perturbed(interval01, 0, c)
        ritz = lambda1_invariant(u, 6, Q1).lambda1T
        oracle = sturm_liouville_lambda1(
            lambda t, cc=c: 1.0 / (1.0 / (2 * t * (1 - t)) + cc), 0.0, 1.0, 2000
        )
        worst = max(worst, abs(ritz - oracle) / oracle)
    QC = build_quadrature(intervalC, 3, 3)
    for s in (1.5, 2.0):
        u = dilation(intervalC, s)
        ritz = lambda1_invariant(u, 6, QC).lambda1T

        def H(t, ss=s):
            L = np.array([1.0 + t, 1.0 - t])
            return 1.0 / (0.5 * np.sum(1.0 / L - 1.0 / (ss * (L + ss - 1.0))))

        oracle = sturm_liouville_lambda1(H, -1.0, 1.0, 2000)
        worst = max(worst, abs(ritz - oracle) / oracle)
    report(9, worst < 1e-3, f"worst Ritz-vs-FD relative gap {worst:.2e}")


def test_criterion_10_property_suites(capsys, tmp_path):
    parts = {}

    # Ritz monotonicity in degree
    Q = build_quadrature(interval01, 3, 2)
    u = quadratic_perturbed(interval01, 0, 3.0)
    values = [lambda1_invariant(u, d, Q).lambda1T for d in (2, 3, 4, 5)]
    parts["ritz monotone"] = all(b <= a + 1e-10 for a, b in zip(values, values[1:]))

    # stiffness domination for the dilation family
    QC = build_quadrature(intervalC, 3, 2)
    u0 = guillemin(intervalC)
    rng = np.random.default_rng(3)
    dom = True
    for s in (1.01, 2.0, 10.0):
        us = dilation(intervalC, s)
        for _ in range(4):
            f = TrialFunction(rng.normal(size=4), 4, [0.0], [1.0])
            dom &= rayleigh_quotient(us, f, QC) >= rayleigh_quotient(u0, f, QC) - 1e-9
    parts["stiffness domination"] = dom

    # minor identity at 50 points, rel err < 1e-9
    minor_ok = True
    base = guillemin(simplex2)
    pts = interior_points(simplex2, 50)
    for x in pts:
        G0 = base.hessian(x)
        direct = quadratic_perturbed(simplex2, 0, 7.0)
        lhs = hc_diag(direct, x)
        rhs = float(np.linalg.inv(direct.hessian(x))[0, 0])
        minor_ok &= abs(lhs - rhs) / abs(rhs) < 1e-9
        det_lhs = np.linalg.det(direct.hessian(x))
        det_rhs = np.linalg.det(G0) + 7.0 * G0[1, 1]
        minor_ok &= abs(det_lhs - det_rhs) / abs(det_rhs) < 1e-9
    parts["minor identity"] = minor_ok

    # partition of unity below 1e-12
    E = build_embedding(simplex2)
    ug = guillemin(E.polytope)
    alpha = np.array([0.25, 0.4, 0.35])
    unity = max(
        abs(float(np.sum(psi_diag(E, ug, alpha, x))) - 1.0)
        for x in interior_points(simplex2, 25)
    )
    parts["partition of unity"] = unity < 1e-12

    # quadrature total weight = exact volume below 1e-10 relative
    vol_ok = True
    for name in ("interval01", "intervalC", "simplex2", "square",
                 "interval-third", "perturbed-simplex"):
        P = example_polytope(name)
        rule = build_quadrature(P, 3, 2)
        vol_ok &= abs(float(np.sum(rule.weights)) - float(rule.exact_volume)) <= 1e-10 * float(
            rule.exact_volume
        )
    parts["quadrature volume"] = vol_ok

    # bit-identical reruns of every CLI command
    poly1 = str(example_path("interval01"))
    polyC = str(example_path("intervalC"))
    poly2 = str(example_path("simplex2"))
    commands = [
        ("info", poly2),
        ("bound", poly2),
        ("lambda1t", poly1, "--degree", "4"),
        ("sweep-uc", poly1, "--c", "0,5", "--degree", "3", "--output", "csv"),
        ("sweep-dilation", polyC, "--s", "2,1.5", "--degree", "3", "--output", "csv"),
        ("ke-check", poly1),
        ("balance", poly1),
        ("saturate", poly1),
    ]
    identical = True
    for argv in commands:
        cli_main(list(argv))
        first = capsys.readouterr().out
        cli_main(list(argv))
        identical &= capsys.readouterr().out == first
    parts["cli determinism"] = identical

    ok = all(parts.values())
    report(10, ok, ", ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in parts.items()))
