"""Curvature and Laplacian oracles: the sphere/projective-plane model values,
symbolic 1D cross-checks, Ricci consistency and the Einstein residual test."""

import numpy as np
import pytest

from oracles import (
    fd_scalar_curvature,
    lattice_perimeter,
    reference_laplacian,
    symbolic_uc_scal_interval,
)
from toriceig import (
    LabelledPolytope,
    MultiPoly,
    build_quadrature,
    dilation,
    example_polytope,
    guillemin,
    guillemin_plus_poly,
    ke_check,
    quadratic_perturbed,
    scalar_curvature,
)
from toriceig.geometry import StepUnderflow, hessian_inverse_derivatives
from toriceig.potential import BoundaryPoint
from toriceig.sampling import interior_points

interval01 = example_polytope("interval01")
simplex2 = example_polytope("simplex2")
square = example_polytope("square")
cube = LabelledPolytope(
    3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
        ((-1, 0, 0), 1), ((0, -1, 0), 1), ((0, 0, -1), 1)],
)

x_1d = MultiPoly(1, {(1,): 1.0})
POLY_V = MultiPoly(2, {(2, 0): 0.3, (1, 1): 0.2, (0, 3): 0.1})  # v = 0.3x^2 + 0.2xy + 0.1y^3


class TestLaplacian:
    @pytest.mark.parametrize("x", [0.1, 0.3, 0.5, 0.77])
    def test_interval_coordinate(self, x):
        assert reference_laplacian(guillemin(interval01), x_1d, [x]) == pytest.approx(
            4 * x - 2, abs=1e-12
        )

    def test_constant_is_zero(self):
        f = MultiPoly(2, {(0, 0): 3.5})
        assert reference_laplacian(guillemin(simplex2), f, [0.2, 0.3]) == pytest.approx(
            0.0, abs=1e-12
        )

    @pytest.mark.parametrize("i", [0, 1])
    def test_simplex_coordinates(self, i):
        u = guillemin(simplex2)
        f = MultiPoly(2, {(1 - i, i): 1.0})
        n = 2
        for x in interior_points(simplex2, 8):
            expected = 2 * (n + 1) * x[i] - 2
            assert reference_laplacian(u, f, x) == pytest.approx(expected, abs=1e-10)
        assert reference_laplacian(u, f, [1 / 3, 1 / 3]) == pytest.approx(0.0, abs=1e-12)

    def test_fd_path_matches_closed(self):
        u = guillemin(simplex2)
        f = MultiPoly(2, {(1, 0): 1.0})
        for x in interior_points(simplex2, 6, min_facet=0.05):
            closed = reference_laplacian(u, f, x)
            fd = reference_laplacian(u, f, x, method="fd")
            assert fd == pytest.approx(closed, rel=1e-5, abs=1e-6)

    def test_unknown_method_refused(self):
        with pytest.raises(ValueError, match="unknown derivative method 'bogus'"):
            hessian_inverse_derivatives(guillemin(simplex2), [0.2, 0.3], method="bogus")


class TestScalarCurvature:
    def test_interval_is_4(self):
        u = guillemin(interval01)
        for x in interior_points(interval01, 20, min_facet=0.02):
            assert scalar_curvature(u, x).scal == pytest.approx(4.0, rel=1e-6)
            assert fd_scalar_curvature(u, x) == pytest.approx(4.0, rel=1e-3)

    def test_simplex_is_12(self):
        u = guillemin(simplex2)
        for x in interior_points(simplex2, 20, min_facet=0.02):
            assert scalar_curvature(u, x).scal == pytest.approx(12.0, rel=1e-6)
            assert fd_scalar_curvature(u, x) == pytest.approx(12.0, rel=1e-3)

    @pytest.mark.parametrize("c,x", [(0.0, 0.5), (2.0, 0.5), (5.0, 0.3), (2.0, 0.41)])
    def test_uc_against_symbolic(self, c, x):
        u = quadratic_perturbed(interval01, 0, c) if c else guillemin(interval01)
        expected = symbolic_uc_scal_interval(c, x)
        assert scalar_curvature(u, [x]).scal == pytest.approx(expected, rel=1e-9)

    def test_closed_vs_fd(self):
        for P in (simplex2, square):
            u = guillemin(P)
            for x in interior_points(P, 10, min_facet=0.05):
                closed = scalar_curvature(u, x).scal
                fd = fd_scalar_curvature(u, x)
                assert fd == pytest.approx(closed, rel=1e-4)

    def test_poly_closed_vs_fd(self):
        # v's third derivatives enter dG exactly; "auto" is the closed form
        u = guillemin_plus_poly(square, POLY_V)
        for x in interior_points(square, 10, min_facet=0.05):
            closed = scalar_curvature(u, x).scal
            assert fd_scalar_curvature(u, x) == pytest.approx(closed, rel=1e-4)

    def test_boundary_guard(self):
        with pytest.raises(BoundaryPoint):
            scalar_curvature(guillemin(interval01), [5e-5])


class TestRicci:
    def test_interval_coefficient(self):
        sample = scalar_curvature(guillemin(interval01), [0.3])
        assert sample.ricci[0, 0] == pytest.approx(2.0, rel=1e-9)  # -1/2 H'' = 2

    def test_trace_reproduces_scal(self):
        for P in (simplex2, square):
            u = guillemin(P)
            for x in interior_points(P, 8, min_facet=0.02):
                s = scalar_curvature(u, x)
                assert 2 * np.trace(s.ricci) == pytest.approx(s.scal, rel=1e-9)

    def test_moment_map_generates_ricci(self):
        # d/dx_k (Lap x_j) = 2 rho_kj; on [0,1] both sides equal 4
        u1 = guillemin(interval01)
        s1 = scalar_curvature(u1, [0.4])
        h = 1e-6
        fd = (
            reference_laplacian(u1, x_1d, [0.4 + h])
            - reference_laplacian(u1, x_1d, [0.4 - h])
        ) / (2 * h)
        assert fd == pytest.approx(4.0, rel=1e-8)
        assert 2 * s1.ricci[0, 0] == pytest.approx(fd, rel=1e-8)

        u2 = quadratic_perturbed(simplex2, 0, 1.5)
        x0 = np.array([0.3, 0.25])
        s2 = scalar_curvature(u2, x0)
        for j in range(2):
            f = MultiPoly(2, {(1 - j, j): 1.0})
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                fd = (
                    reference_laplacian(u2, f, x0 + e)
                    - reference_laplacian(u2, f, x0 - e)
                ) / (2 * h)
                assert 2 * s2.ricci[k, j] == pytest.approx(fd, rel=1e-5, abs=1e-6)


class TestAbreuConsistency:
    def test_scal_matches_d2H_contraction(self):
        u = guillemin(simplex2)
        for x in interior_points(simplex2, 6, min_facet=0.05):
            s = scalar_curvature(u, x)
            assert s.scal == pytest.approx(-np.einsum("ijij->", s.d2H), rel=1e-12)
            _, dH, d2H = hessian_inverse_derivatives(u, x, method="fd")
            assert np.allclose(d2H, s.d2H, rtol=1e-4, atol=1e-4)
            assert np.allclose(dH, s.dH, rtol=1e-6, atol=1e-9)


class TestKECheck:
    def test_interval(self):
        report = ke_check(guillemin(interval01))
        assert report.is_ke
        assert report.lambda_hat == pytest.approx(2.0, abs=1e-9)
        assert report.xbar[0] == pytest.approx(0.5, abs=1e-9)
        assert report.residual_max < 1e-8

    def test_simplex(self):
        report = ke_check(guillemin(simplex2))
        assert report.is_ke
        assert report.lambda_hat == pytest.approx(3.0, abs=1e-9)
        assert np.allclose(report.xbar, [1 / 3, 1 / 3], atol=1e-9)
        assert report.residual_max < 1e-8

    def test_perturbed_fails(self):
        report = ke_check(quadratic_perturbed(interval01, 0, 5.0))
        assert not report.is_ke
        assert report.residual_max > 0.1

    def test_square_guillemin_is_ke(self):
        # product of spheres: Lap x_i = 4 x_i - 2 coordinatewise
        report = ke_check(guillemin(square))
        assert report.is_ke
        assert report.lambda_hat == pytest.approx(2.0, abs=1e-9)

    def test_eigenfunction_consequence(self):
        # when the check passes, x_i - xbar_i is an eigenfunction for 2 lambda
        for P, lam in ((interval01, 2.0), (simplex2, 3.0)):
            u = guillemin(P)
            report = ke_check(u)
            for x in interior_points(P, 6):
                for i in range(P.dim):
                    e_i = tuple(int(j == i) for j in range(P.dim))
                    f = MultiPoly(P.dim, {e_i: 1.0, (0,) * P.dim: -report.xbar[i]})
                    lhs = reference_laplacian(u, f, x)
                    rhs = 2 * lam * (x[i] - report.xbar[i])
                    assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            ke_check(guillemin(interval01), samples=10)


class TestBatchedDerivatives:
    """Points of shape (..., n) give, point by point, the bits of one-point calls."""

    @pytest.mark.parametrize("second", [False, True])
    @pytest.mark.parametrize("method", ["auto", "fd"], ids=["closed", "fd"])
    @pytest.mark.parametrize(
        "P", [interval01, simplex2, square, cube], ids=["interval", "simplex2", "square", "cube"]
    )
    def test_rows_equal_one_point_calls(self, P, method, second):
        self._check_rows(quadratic_perturbed(P, 0, 2.5), method, second)

    @pytest.mark.parametrize("second", [False, True])
    @pytest.mark.parametrize("method", ["auto", "fd"], ids=["closed", "fd"])
    @pytest.mark.parametrize(
        "P", [interval01, simplex2, square, cube], ids=["interval", "simplex2", "square", "cube"]
    )
    def test_poly_rows_equal_one_point_calls(self, P, method, second):
        v = MultiPoly(P.dim, {(3,) + (0,) * (P.dim - 1): 0.02, (1,) * P.dim: 0.01})
        self._check_rows(guillemin_plus_poly(P, v), method, second)

    @staticmethod
    def _check_rows(u, method, second):
        P = u.polytope
        X = interior_points(P, 12, min_facet=0.02).reshape(3, 4, P.dim)
        batch = hessian_inverse_derivatives(u, X, method=method, second=second)
        assert batch[1].shape == (3, 4) + (P.dim,) * 3
        for idx in np.ndindex(3, 4):
            one = hessian_inverse_derivatives(u, X[idx], method=method, second=second)
            for b, o in zip(batch, one):
                assert (b is None and o is None) or b[idx].tobytes() == o.tobytes()

    def test_scalar_curvature_rows(self):
        u = quadratic_perturbed(square, 1, 2.5)
        X = interior_points(square, 10, min_facet=0.05)
        batch = scalar_curvature(u, X)
        assert batch.scal.shape == (10,) and batch.ricci.shape == (10, 2, 2)
        for q, x in enumerate(X):
            one = scalar_curvature(u, x)
            assert type(one.scal) is float and one.scal == batch.scal[q]
            assert one.ricci.tobytes() == batch.ricci[q].tobytes()

    @pytest.mark.parametrize("method", ["auto", "fd"], ids=["closed", "fd"])
    def test_boundary_point(self, method):
        with pytest.raises(BoundaryPoint):
            hessian_inverse_derivatives(guillemin(interval01), [5e-11], method=method)

    def test_step_underflow(self):
        # the centre passes the guard L >= 1e-10; its stencil point x - h does not
        u = guillemin(interval01)
        with pytest.raises(StepUnderflow):
            hessian_inverse_derivatives(u, [1.00001e-10], method="fd")
        hessian_inverse_derivatives(u, [1.00001e-10])


class TestDonaldsonIdentity:
    """int_P scal = 2 |dP|_lattice for every potential with Guillemin boundary
    behaviour (Donaldson, J. Diff. Geom. 62, 2002), over one batched call."""

    @pytest.mark.parametrize(
        "make",
        [
            guillemin,
            lambda P: quadratic_perturbed(P, 0, 5.0),
            lambda P: dilation(P, 1.5),
            lambda P: guillemin_plus_poly(P, POLY_V),
        ],
        ids=["guillemin", "uc5", "dilation1.5", "poly"],
    )
    @pytest.mark.parametrize("P", [simplex2, square], ids=["simplex2", "square"])
    def test_total_scalar_curvature(self, P, make):
        u = make(P)
        Q = build_quadrature(u.polytope, 4, 4)
        total = float(Q.weights @ scalar_curvature(u, Q.nodes).scal)
        assert total == pytest.approx(2 * lattice_perimeter(P), abs=5e-7)
