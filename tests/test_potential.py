"""Symplectic potentials: closed-form Hessians against finite differences and
hand values, the minor identity, degeneration and dilation comparisons."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_validate
from toriceig import (
    LabelledPolytope,
    MultiPoly,
    build_quadrature,
    dilation,
    dilation_limit_B,
    eval_grad_hess,
    example_polytope,
    guillemin,
    guillemin_plus_poly,
    hc_diag,
    ke_check,
    lambda1_invariant,
    potential_from_spec,
    quadratic_perturbed,
    validate,
)
from toriceig.potential import BoundaryPoint, NotPositiveDefinite
from toriceig.sampling import interior_points

interval01 = example_polytope("interval01")
intervalC = example_polytope("intervalC")
simplex2 = example_polytope("simplex2")
square = example_polytope("square")
cube = LabelledPolytope(
    3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
        ((-1, 0, 0), 1), ((0, -1, 0), 1), ((0, 0, -1), 1)],
)

EXAMPLES = ("interval01", "intervalC", "interval-third", "simplex2", "square", "perturbed-simplex")
interval_m1_2 = LabelledPolytope(1, [((1,), 1), ((-1,), 2)])

VALIDATE_POLYTOPES = [interval01, simplex2, square, example_polytope("perturbed-simplex"), cube]

KINDS = {
    "guillemin": guillemin,
    "uc": lambda P: quadratic_perturbed(P, 0, 3.0),
    "dilation": lambda P: dilation(P, 1.5),
    "poly": lambda P: guillemin_plus_poly(
        P, MultiPoly(P.dim, {(2,) + (1,) * (P.dim - 1): 0.05, (1,) * P.dim: 0.01})
    ),
}


class TestEvalGradHess:
    @pytest.mark.parametrize("x", [0.1, 0.37, 0.5, 0.9])
    def test_guillemin_interval(self, x):
        s = eval_grad_hess(guillemin(interval01), [x])
        assert s.G[0, 0] == pytest.approx(1.0 / (2 * x * (1 - x)), rel=1e-12)
        assert s.H[0, 0] == pytest.approx(2 * x * (1 - x), rel=1e-12)

    def test_guillemin_simplex_center(self):
        s = eval_grad_hess(guillemin(simplex2), [1 / 3, 1 / 3])
        assert np.allclose(s.G, 1.5 * np.array([[2.0, 1.0], [1.0, 2.0]]), atol=1e-12)
        assert np.allclose(np.linalg.eigvalsh(s.G), [1.5, 4.5], atol=1e-12)

    @pytest.mark.parametrize("s_par,expected", [(2.0, 4.0 / 3.0), (3.0, 9.0 / 8.0)])
    def test_dilation_center(self, s_par, expected):
        samp = eval_grad_hess(dilation(intervalC, s_par), [0.0])
        assert samp.H[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_boundary_guard(self):
        with pytest.raises(BoundaryPoint):
            eval_grad_hess(guillemin(interval01), [1e-12])

    def test_gh_inverse_and_symmetry(self):
        for u in (
            guillemin(square),
            quadratic_perturbed(simplex2, 1, 3.0),
            dilation(square.translated(square.vertex_barycenter()), 1.5),
        ):
            for x in interior_points(u.polytope, 10):
                s = eval_grad_hess(u, x)
                assert np.max(np.abs(s.G - s.G.T)) < 1e-12
                assert np.max(np.abs(s.H - s.H.T)) < 1e-12
                assert np.max(np.abs(s.G @ s.H - np.eye(u.polytope.dim))) < 1e-10
                assert np.all(np.linalg.eigvalsh(s.G) > 0)


class TestBatchedEvaluation:
    """A (m, n) array of points gives, row by row, the bits of one-point calls."""

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize(
        "P", [interval01, simplex2, square, cube], ids=["interval", "simplex2", "square", "cube"]
    )
    def test_rows_equal_one_point_calls(self, kind, P):
        u = KINDS[kind](P)
        X = interior_points(u.polytope, 25)
        G, grad, H = u.hessian(X), u.gradient(X), u.sample(X).H
        assert G.shape == (25, P.dim, P.dim) and grad.shape == (25, P.dim)
        for q, x in enumerate(X):
            assert G[q].tobytes() == u.hessian(x).tobytes()
            assert grad[q].tobytes() == u.gradient(x).tobytes()
            assert H[q].tobytes() == u.sample(x).H.tobytes()

    def test_boundary_guard_names_the_point(self):
        X = np.array([[0.5], [1.5], [0.25]])
        with pytest.raises(BoundaryPoint, match=r"point \[1.5\]"):
            guillemin(interval01).hessian(X)

    def test_not_positive_definite_names_the_point(self):
        u = guillemin_plus_poly(interval01, MultiPoly(1, {(2,): -10.0}), check=False)
        # G = 1/(2x(1-x)) - 20 is most negative at the midpoint
        with pytest.raises(NotPositiveDefinite, match=r"at \[0.5\]"):
            u.sample(np.array([[0.01], [0.5], [0.99]]))


class TestClosedFormVsFiniteDifferences:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: guillemin(simplex2),
            lambda: quadratic_perturbed(simplex2, 0, 2.5),
            lambda: dilation(intervalC, 1.5),
            lambda: guillemin_plus_poly(square, MultiPoly(2, {(2, 1): 0.05})),
        ],
    )
    def test_gradient_and_hessian(self, make):
        u = make()
        h = 1e-5
        n = u.polytope.dim
        for x in interior_points(u.polytope, 8, min_facet=0.05):
            grad = u.gradient(x)
            G = u.hessian(x)
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                dval = (u.value(x + e) - u.value(x - e)) / (2 * h)
                assert dval == pytest.approx(grad[j], rel=1e-5, abs=1e-7)
                dgrad = (u.gradient(x + e) - u.gradient(x - e)) / (2 * h)
                assert np.allclose(dgrad, G[:, j], rtol=1e-5, atol=1e-6)


class TestValidate:
    def test_guillemin_passes(self):
        for P in (interval01, simplex2, square, example_polytope("perturbed-simplex")):
            assert validate(guillemin(P), samples=20)["passed"]

    def test_large_c_still_valid(self):
        report = validate(quadratic_perturbed(square, 0, 1e6), samples=20)
        assert report["passed"]

    def test_bad_poly_fails(self):
        u = guillemin_plus_poly(interval01, MultiPoly(1, {(2,): -10.0}), check=False)
        report = validate(u, samples=20)
        assert not report["passed"]
        assert report["worst_margin"] < 0

    def test_report_order_on_indefinite_square(self):
        # u0 - 10 x_0^2 on [0,1]^2 has G = diag(g(x_0) - 20, g(x_1)) with
        # g(t) = 1/(2t(1-t)): it fails at most interior points, and at every
        # probe near the facets x_1 = 0 (facet 1) and x_1 = 1 (facet 3); near
        # facets 0 and 2 g(x_0) is large.
        u = guillemin_plus_poly(square, MultiPoly(2, {(2, 0): -10.0}), check=False)
        report = validate(u, samples=20)

        def g(t):
            return 1 / (2 * t * (1 - t))

        X = interior_points(square, 20)
        low = np.minimum(g(X[:, 0]) - 20, g(X[:, 1]))
        expected = [("interior", x, m) for x, m in zip(X, low) if m <= 0]
        for facet, edge in ((1, 0.0), (3, 1.0)):
            for e in range(2, 7):
                point = [0.5, abs(edge - 10.0**-e)]
                expected.append((f"near facet {facet} (distance {10.0**-e:.1e})", point, -18.0))
        failures = report["failures"]
        assert [f["where"] for f in failures] == [w for w, _, _ in expected]
        assert np.allclose([f["point"] for f in failures], [p for _, p, _ in expected], atol=1e-15)
        assert np.allclose([f["margin"] for f in failures], [m for _, _, m in expected], rtol=1e-12)
        assert len(expected) == 29 and report["worst_margin"] == pytest.approx(-18.0, rel=1e-12)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_reference_with_tangent_blocks(self, data):
        # For orthonormal rows B, lambda_min(B G B^T) >= lambda_min(G), so the
        # facet-tangent checks of the reference add only duplicate failures.
        P = data.draw(st.sampled_from(VALIDATE_POLYTOPES))
        exponents = st.tuples(*[st.integers(0, 3)] * P.dim)
        terms = data.draw(st.dictionaries(exponents, st.floats(-20, 20), min_size=1, max_size=4))
        u = guillemin_plus_poly(P, MultiPoly(P.dim, terms), check=False)
        report, reference = validate(u, samples=10), reference_validate(u, samples=10)
        assert report["passed"] == reference["passed"]
        # the reference's tangent eigenvalue can round below the full one
        assert report["worst_margin"] >= reference["worst_margin"]
        assert report["worst_margin"] == pytest.approx(reference["worst_margin"], rel=1e-9)
        assert report["failures"] == [
            f for f in reference["failures"] if not f["where"].startswith("tangent to")
        ]

    def test_bad_poly_rejected_at_construction(self):
        with pytest.raises(NotPositiveDefinite):
            guillemin_plus_poly(interval01, MultiPoly(1, {(2,): -10.0}))

    @pytest.mark.parametrize("coeff", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("check", [True, False])
    def test_non_finite_coefficient_rejected(self, coeff, check):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            guillemin_plus_poly(interval01, MultiPoly(1, {(2,): coeff}), check=check)

    def test_sampling_bad_hessian_raises(self):
        u = guillemin_plus_poly(interval01, MultiPoly(1, {(2,): -10.0}), check=False)
        with pytest.raises(NotPositiveDefinite):
            eval_grad_hess(u, [0.5])  # Hessian is 2 - 20 < 0 there

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            validate(guillemin(interval01), samples=5)


class TestMinorFormula:
    def test_interval_hand_value(self):
        u = quadratic_perturbed(interval01, 0, 2.0)
        assert hc_diag(u, [0.5]) == pytest.approx(0.25, rel=1e-12)

    def test_c_zero_is_guillemin(self):
        u0 = quadratic_perturbed(simplex2, 0, 0.0)
        base = guillemin(simplex2)
        for x in interior_points(simplex2, 6):
            assert hc_diag(u0, x) == pytest.approx(
                eval_grad_hess(base, x).H[0, 0], rel=1e-12
            )

    def test_square_center(self):
        # G0 = diag(2, 2) at the center, so minor = 2, det = 4:
        # H_c[0,0] = 2 / (4 + 2*2) = 1/4
        u = quadratic_perturbed(square, 0, 2.0)
        assert hc_diag(u, [0.5, 0.5]) == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("c", [0.5, 2.0, 17.0])
    def test_against_direct_inverse(self, c):
        for P, axis in ((simplex2, 0), (square, 1)):
            u = quadratic_perturbed(P, axis, c)
            for x in interior_points(P, 10):
                direct = eval_grad_hess(u, x).H[axis, axis]
                assert hc_diag(u, x) == pytest.approx(direct, rel=1e-10)

    def test_determinant_identity_50_points(self):
        # det Hess u_c = det Hess u0 + c det M_ii
        rng = np.random.default_rng(7)
        for P in (simplex2, square):
            base = guillemin(P)
            pts = interior_points(P, 25)
            for x in pts:
                G0 = base.hessian(x)
                for c in rng.uniform(0.1, 50.0, size=2):
                    u = quadratic_perturbed(P, 0, float(c))
                    lhs = np.linalg.det(u.hessian(x))
                    minor = np.linalg.det(np.delete(np.delete(G0, 0, 0), 0, 1))
                    rhs = np.linalg.det(G0) + c * minor
                    assert lhs == pytest.approx(rhs, rel=1e-9)


class TestDegeneration:
    def test_hc_strictly_decreasing_in_c(self):
        x = [0.5, 0.5]
        values = [hc_diag(quadratic_perturbed(square, 0, c), x) for c in (0, 1, 10, 100)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_large_c_ratio(self):
        center = [1 / 3, 1 / 3]
        v0 = hc_diag(quadratic_perturbed(simplex2, 0, 0.0), center)
        v6 = hc_diag(quadratic_perturbed(simplex2, 0, 1e6), center)
        assert v6 / v0 < 1e-4


class TestDilation:
    @pytest.mark.parametrize("s", [1.01, 1.5, 2.0, 10.0])
    def test_spectral_radius_H0_G0s(self, s):
        # eigenvalues of H0 * Hess(u0 of sP) stay strictly below 1
        for P in (intervalC, square.translated(square.vertex_barycenter())):
            A = np.array(P.normals, dtype=float)
            c = np.array([float(v) for v in P.offsets])
            H0 = lambda x: np.linalg.inv(
                0.5 * np.einsum("k,ki,kj->ij", 1.0 / (x @ A.T + c), A, A)
            )
            G0s = lambda x: 0.5 * np.einsum(
                "k,ki,kj->ij", 1.0 / (x @ A.T + s * c), A, A
            )
            for x in interior_points(P, 12):
                eigs = np.linalg.eigvals(H0(x) @ G0s(x))
                assert np.max(np.abs(eigs)) < 1.0

    def test_limit_matrix_values(self):
        assert dilation_limit_B(intervalC, [0.0])[0, 0] == pytest.approx(2.0, rel=1e-12)
        sq_centered = LabelledPolytope(
            2, [((1, 0), 1), ((0, 1), 1), ((-1, 0), 1), ((0, -1), 1)]
        )
        assert np.allclose(
            dilation_limit_B(sq_centered, [0.0, 0.0]), 2.0 * np.eye(2), atol=1e-12
        )

    def test_limit_convergence(self):
        # || G^s/(s-1) - B || decreases through s = 1.1, 1.01, 1.001, also
        # where the origin is not interior (interval01, x = the image of 0.2)
        for P, x in ((intervalC, np.array([0.2])), (interval01, np.array([0.6]))):
            B = dilation_limit_B(P, x)
            errs = []
            for s in (1.1, 1.01, 1.001):
                G = dilation(P, s).hessian(x)
                errs.append(np.max(np.abs(G / (s - 1) - B)))
            assert errs[0] > errs[1] > errs[2]
            assert errs[2] < 1e-2

    def test_interval_closed_form(self):
        # G^s/(s-1) = (s+1)/s^2 at the center of [-1, 1]
        for s in (1.1, 2.0, 5.0):
            G = dilation(intervalC, s).hessian([0.0])[0, 0]
            assert G / (s - 1) == pytest.approx((s + 1) / s**2, rel=1e-12)

    def test_dilates_in_place(self):
        # [0,1] is dilated about 1/2 in its own coordinates: G at x equals G
        # of the dilation of [-1/2, 1/2] at x - 1/2
        u = dilation(interval01, 2.0)
        assert u.polytope == interval01
        v = dilation(interval01.translated((0.5,)), 2.0)
        x = np.array([[0.125], [0.5], [0.875]])
        assert np.array_equal(u.hessian(x), v.hessian(x - 0.5))

    def test_s_must_exceed_one(self):
        with pytest.raises(ValueError):
            dilation(intervalC, 1.0)

    @pytest.mark.parametrize(
        "P",
        [example_polytope(name) for name in EXAMPLES] + [interval_m1_2],
        ids=list(EXAMPLES) + ["interval[-1,2]"],
    )
    def test_translation_invariance(self, P):
        # dilation about the vertex barycenter does not see where the origin
        # sits: lambda1T and the KE fit of P - t equal those of P, and xbar
        # moves by -t
        u = dilation(P, 1.5)
        lam = lambda1_invariant(u, 6, build_quadrature(P)).lambda1T
        ke = ke_check(u)
        for t in itertools.product((Fraction(1, 2), Fraction(-3)), repeat=P.dim):
            Pt = P.translated(t)
            ut = dilation(Pt, 1.5)
            assert lambda1_invariant(ut, 6, build_quadrature(Pt)).lambda1T == pytest.approx(
                lam, rel=1e-12
            )
            ke_t = ke_check(ut)
            assert ke_t.lambda_hat == pytest.approx(ke.lambda_hat, rel=1e-12)
            assert np.allclose(ke_t.xbar, ke.xbar - np.array(t, dtype=float), rtol=0, atol=1e-12)


class TestSpecStrings:
    def test_parse_guillemin(self):
        assert potential_from_spec(interval01, "guillemin").kind == "guillemin"

    def test_parse_uc(self):
        u = potential_from_spec(simplex2, "uc:i=1,c=2.5")
        assert (u.kind, u.axis, u.c) == ("quadratic_perturbed", 1, 2.5)

    def test_parse_dilation(self):
        u = potential_from_spec(intervalC, "dilation:s=1.5")
        assert (u.kind, u.s) == ("dilation", 1.5)

    def test_parse_poly_file(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text('[{"exponents": [2, 0], "coeff": 0.01}]')
        u = potential_from_spec(square, f"poly:{path}")
        assert u.kind == "guillemin_plus_poly"

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            potential_from_spec(interval01, "uc:c=2")
