"""Embedding magnitudes, partition of unity, balanced weights, the telescoping
identity on simplices, saturation and the bound report."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    MISTYPED_POLYGONS,
    balance_exp_per_iteration,
    interval_midpoint_integral,
    log_z2_guillemin_loop,
    simplex2_centroid_integral,
)
from toriceig import (
    LabelledPolytope,
    balance,
    bound_report,
    build_embedding,
    build_quadrature,
    example_polytope,
    guillemin,
    ke_check,
    lambda1_invariant,
    polytope_from_dict,
    psi_diag,
    quadratic_perturbed,
    saturation_check,
    scalar_curvature,
)
from toriceig.polytope import PolytopeError
from toriceig.projective import NoConvergence, _log_z2_nodes, is_standard_simplex
from toriceig.sampling import facet_values, interior_points

interval01 = example_polytope("interval01")
simplex2 = example_polytope("simplex2")
square = example_polytope("square")

F = Fraction


@pytest.fixture(scope="module")
def emb1():
    E = build_embedding(interval01)
    u = guillemin(E.polytope)
    Q = build_quadrature(E.polytope, 3, 3)
    return E, u, Q


@pytest.fixture(scope="module")
def emb2():
    E = build_embedding(simplex2)
    u = guillemin(E.polytope)
    Q = build_quadrature(E.polytope, 3, 2)
    return E, u, Q


class TestEmbedding:
    def test_interval_data(self, emb1):
        E, _, _ = emb1
        assert E.points == ((0,), (1,))
        assert E.exponents.tolist() == [[0, 1], [1, 0]]
        assert E.count == 2

    def test_translation_to_origin(self):
        shifted = LabelledPolytope(1, [((1,), -1), ((-1,), 2)])  # [1, 2]
        E = build_embedding(shifted)
        assert E.m0 == (1,)
        assert E.points == ((0,), (1,))
        assert E.polytope.offsets == (0, 1)

    def test_translation_past_int64(self):
        # the lattice numerators of P are Python ints; those of E are small
        t = (10**19, -3 * 10**19)
        E = build_embedding(simplex2.translated(t))
        assert E.m0 == (-(10**19), 3 * 10**19)
        assert E.points == ((0, 0), (0, 1), (1, 0))
        assert E.exponents.tolist() == build_embedding(simplex2).exponents.tolist()

    def test_requires_integral(self):
        with pytest.raises(PolytopeError):
            build_embedding(example_polytope("interval-third"))

    def test_requires_delzant(self):
        orb = LabelledPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), 2)])
        with pytest.raises(PolytopeError):
            build_embedding(orb)


class TestZSquared:
    """|Z_m|^2 as exp of the batched log table, column E.points.index(m)."""

    def test_interval_product_form(self, emb1):
        E, u, _ = emb1
        for x in (0.2, 0.5, 0.8):
            z0, z1 = np.exp(_log_z2_nodes(E, u, [x]))  # E.points == ((0,), (1,))
            assert z1 == pytest.approx(x, rel=1e-12)
            assert z1 / z0 == pytest.approx(x / (1 - x), rel=1e-12)
        z0, z1 = np.exp(_log_z2_nodes(E, u, [0.5]))
        assert z1 / z0 == pytest.approx(1.0)

    def test_simplex_ratio_at_center(self, emb2):
        E, u, _ = emb2
        z = np.exp(_log_z2_nodes(E, u, [1 / 3, 1 / 3]))
        ratio = z[E.points.index((1, 0))] / z[E.points.index((0, 0))]
        assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_non_guillemin_normalized_at_origin_point(self):
        E = build_embedding(interval01)
        u = quadratic_perturbed(E.polytope, 0, 2.0)
        assert np.exp(_log_z2_nodes(E, u, [0.37]))[0] == pytest.approx(1.0, rel=1e-15)

    def test_guillemin_extends_to_boundary(self, emb1):
        E, u, _ = emb1
        z0, z1 = np.exp(_log_z2_nodes(E, u, [0.0]))
        assert z1 == pytest.approx(0.0, abs=1e-300)
        assert z0 == pytest.approx(1.0, rel=1e-12)

    def test_non_guillemin_boundary_rejected(self):
        from toriceig.potential import BoundaryPoint

        E = build_embedding(interval01)
        u = quadratic_perturbed(E.polytope, 0, 2.0)
        with pytest.raises(BoundaryPoint):
            _log_z2_nodes(E, u, [0.0])


class TestPsi:
    """Psi_mm is column E.points.index(m) of `psi_diag`."""

    def test_interval_telescoping(self, emb1):
        E, u, _ = emb1
        alpha = np.array([0.5, 0.5])
        for x in (0.1, 0.3, 0.9):
            psi0, psi1 = psi_diag(E, u, alpha, [x])  # E.points == ((0,), (1,))
            assert psi1 == pytest.approx(x, rel=1e-12)
            assert psi0 == pytest.approx(1 - x, rel=1e-12)

    def test_simplex_telescoping(self, emb2):
        E, u, _ = emb2
        alpha = np.full(3, 1 / 3)
        col = E.points.index((1, 0))
        for x in interior_points(simplex2, 8):
            assert psi_diag(E, u, alpha, x)[col] == pytest.approx(x[0], rel=1e-10)

    def test_exact_rational_telescoping(self):
        # product form with Fractions: Psi_mm is exactly the barycentric
        # coordinate on the standard simplices (n = 1 and 2)
        for P, pts in (
            (interval01, [(F(1, 7),), (F(3, 5),)]),
            (simplex2, [(F(1, 7), F(2, 7)), (F(1, 3), F(1, 5))]),
        ):
            E = build_embedding(P)
            expo = E.exponents
            for x in pts:
                L = P.defining_values(x)
                z2 = [
                    np.prod([F(L[i]) ** int(e) for i, e in enumerate(row)])
                    for row in expo
                ]
                total = sum(z2)
                for idx, m in enumerate(E.points):
                    psi_exact = z2[idx] / total
                    if sum(m) == 0:
                        continue
                    axis = m.index(1)
                    assert psi_exact == x[axis]

    def test_partition_of_unity(self, emb2):
        E, u, _ = emb2
        alpha = np.array([0.2, 0.5, 0.3])
        for x in interior_points(simplex2, 20):
            assert abs(np.sum(psi_diag(E, u, alpha, x)) - 1.0) < 1e-12

    def test_concentration_limit(self, emb1):
        E, u, _ = emb1
        alpha = np.array([1e-6, 1.0])
        assert psi_diag(E, u, alpha, [0.5])[1] == pytest.approx(1.0, abs=1e-9)

    def test_bad_weights_refused(self, emb2):
        E, u, _ = emb2
        with pytest.raises(ValueError, match=r"need 3 weights, got shape \(2,\)"):
            psi_diag(E, u, [0.5, 0.5], [0.2, 0.3])
        with pytest.raises(ValueError, match="weights must be positive"):
            psi_diag(E, u, [0.5, 0.0, 0.5], [0.2, 0.3])

    def test_untranslated_potential_refused(self):
        # E lives on [1, 2] translated by its first lattice point, [0, 1]
        P = LabelledPolytope(1, [((1,), -1), ((-1,), 2)])
        E = build_embedding(P)
        assert E.polytope != P
        with pytest.raises(ValueError, match="translated polytope"):
            psi_diag(E, guillemin(P), [0.5, 0.5], [1.5])

    def test_projective_invariance(self, emb2):
        E, u, _ = emb2
        alpha = np.array([0.2, 0.5, 0.3])
        for x in interior_points(simplex2, 5):
            a = psi_diag(E, u, alpha, x)
            b = psi_diag(E, u, 3.7 * alpha, x)
            assert np.allclose(a, b, atol=1e-14)


class TestBalance:
    def test_rule_on_another_polytope_refused(self, emb1):
        E, u, _ = emb1
        with pytest.raises(ValueError, match="must share one polytope"):
            balance(E, u, build_quadrature(simplex2, 3, 0))

    def test_interval_uniform(self, emb1):
        E, u, Q = emb1
        w = balance(E, u, Q, tol=1e-10)
        assert np.allclose(w.alpha, [0.5, 0.5], atol=1e-12)
        assert w.residual < 1e-10
        assert w.iterations <= 5

    def test_simplex_uniform(self, emb2):
        E, u, Q = emb2
        w = balance(E, u, Q, tol=1e-8)
        assert np.allclose(w.alpha, 1 / 3, atol=1e-12)
        assert w.iterations <= 20

    def test_post_hoc_grid_oracle_interval(self, emb1):
        E, u, Q = emb1
        w = balance(E, u, Q, tol=1e-10)
        for idx in range(E.count):
            avg = interval_midpoint_integral(
                lambda p, i=idx: psi_diag(E, u, w.alpha, p)[..., i], 0.0, 1.0, 4000
            )
            assert avg == pytest.approx(0.5, abs=1e-8)

    def test_post_hoc_grid_oracle_simplex(self, emb2):
        E, u, Q = emb2
        w = balance(E, u, Q, tol=1e-8)
        vol = 0.5
        for idx in range(E.count):
            integral = simplex2_centroid_integral(
                lambda pts, i=idx: psi_diag(E, u, w.alpha, pts)[..., i], k=120
            )
            assert integral / vol == pytest.approx(1 / 3, abs=1e-8)

    def test_unbalanced_potential_moves_weights(self):
        E = build_embedding(interval01)
        u = quadratic_perturbed(E.polytope, 0, 5.0)
        Q = build_quadrature(E.polytope, 3, 3)
        w = balance(E, u, Q, tol=1e-9, max_iter=500)
        assert w.residual < 1e-9
        assert not np.allclose(w.alpha, [0.5, 0.5], atol=1e-3)

    def test_no_convergence_raises(self):
        E = build_embedding(interval01)
        u = quadratic_perturbed(E.polytope, 0, 5.0)
        Q = build_quadrature(E.polytope, 2, 1)
        with pytest.raises(NoConvergence):
            balance(E, u, Q, tol=1e-14, max_iter=0)

    @pytest.mark.parametrize("kind", ["guillemin", "uc"])
    @pytest.mark.parametrize(
        "P",
        [
            simplex2,
            LabelledPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), 4), ((0, -1), 4)]),
            LabelledPolytope(2, [((1, 0), 0), ((0, 1), 0), ((0, -1), 2), ((-1, -1), 4)]),
            LabelledPolytope(
                3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                    ((-1, 0, 0), 2), ((0, -1, 0), 2), ((0, 0, -1), 2)],
            ),
        ],
        ids=["simplex2", "square4", "hirzebruch2", "cube2"],
    )
    def test_matches_exp_per_iteration_oracle(self, P, kind):
        E = build_embedding(P)
        u = guillemin(E.polytope) if kind == "guillemin" else quadratic_perturbed(E.polytope, 0, 1.0)
        Q = build_quadrature(E.polytope, 3, 1)
        w = balance(E, u, Q, max_iter=1000)
        alpha, residual, iterations = balance_exp_per_iteration(
            _log_z2_nodes(E, u, Q.nodes), Q.weights, float(Q.exact_volume), max_iter=1000
        )
        assert w.iterations == iterations
        assert np.max(np.abs(w.alpha - alpha) / alpha) < 1e-13
        assert w.residual == pytest.approx(residual, rel=1e-4, abs=1e-13)

    def test_cube2_on_the_benchmark_rule(self):
        # the (3, 2) rule of the moment benchmark: 20,736 nodes, 27 points
        E = build_embedding(
            LabelledPolytope(
                3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                    ((-1, 0, 0), 2), ((0, -1, 0), 2), ((0, 0, -1), 2)],
            )
        )
        u = guillemin(E.polytope)
        Q = build_quadrature(E.polytope, 3, 2)
        w = balance(E, u, Q)
        alpha, _, iterations = balance_exp_per_iteration(
            _log_z2_nodes(E, u, Q.nodes), Q.weights, float(Q.exact_volume)
        )
        assert len(Q) == 20736 and E.count == 27
        assert w.iterations == iterations
        assert np.max(np.abs(w.alpha - alpha) / alpha) < 1e-13


EMBEDDED = [
    simplex2,
    LabelledPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, 0), 4), ((0, -1), 4)]),
    LabelledPolytope(2, [((1, 0), 0), ((0, 1), 0), ((0, -1), 2), ((-1, -1), 4)]),
    LabelledPolytope(
        3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
            ((-1, 0, 0), 2), ((0, -1, 0), 2), ((0, 0, -1), 2)],
    ),
]
EMBEDDED_IDS = ["simplex2", "square4", "hirzebruch2", "cube2"]


class TestPsiBatch:
    """Points of shape (a, b, n) give, row by row, the bits of one-point calls,
    also where a matrix product over all rows would round differently."""

    @pytest.mark.parametrize("kind", ["guillemin", "uc"])
    @pytest.mark.parametrize("P", EMBEDDED, ids=EMBEDDED_IDS)
    def test_rows_equal_one_point_calls(self, P, kind):
        E = build_embedding(P)
        u = guillemin(E.polytope) if kind == "guillemin" else quadratic_perturbed(E.polytope, 0, 2.5)
        nodes = build_quadrature(E.polytope, 3, 1).nodes
        X = nodes[: len(nodes) // 8 * 8].reshape(8, -1, P.dim)
        alpha = np.linspace(1.0, 2.0, E.count)
        batch = psi_diag(E, u, alpha, X)
        assert batch.shape == X.shape[:-1] + (E.count,)
        for idx in np.ndindex(X.shape[:-1]):
            assert batch[idx].tobytes() == psi_diag(E, u, alpha, X[idx]).tobytes()


class TestLogZ2:
    """The one-product log |Z|^2 table against the point-by-point loop."""

    @pytest.mark.parametrize("P", EMBEDDED, ids=EMBEDDED_IDS)
    def test_matches_loop_inside_and_on_the_boundary(self, P):
        E = build_embedding(P)
        u = guillemin(E.polytope)
        inner = build_quadrature(E.polytope, 3, 1).nodes
        lattice = np.array(E.points, dtype=float)  # vertices, edge and facet points
        mids = (lattice[:, None, :] + lattice[None, :, :]).reshape(-1, P.dim) / 2.0
        for X in (inner, lattice, mids):
            got = _log_z2_nodes(E, u, X)
            ref = log_z2_guillemin_loop(facet_values(E.polytope, X), E.exponents)
            assert np.array_equal(np.isneginf(got), np.isneginf(ref))
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13)
        assert np.isneginf(_log_z2_nodes(E, u, lattice)).any()

    @pytest.mark.parametrize("P", EMBEDDED, ids=EMBEDDED_IDS)
    def test_balance_iterations_match_loop_table(self, P):
        E = build_embedding(P)
        u = guillemin(E.polytope)
        Q = build_quadrature(E.polytope, 3, 1)
        ref = log_z2_guillemin_loop(facet_values(E.polytope, Q.nodes), E.exponents)
        alpha, _, iterations = balance_exp_per_iteration(
            ref, Q.weights, float(Q.exact_volume), max_iter=1000
        )
        w = balance(E, u, Q, max_iter=1000)
        assert w.iterations == iterations
        assert np.max(np.abs(w.alpha - alpha) / alpha) < 1e-13


class TestSaturation:
    def test_interval_fubini_study(self, emb1):
        E, u, Q = emb1
        w = balance(E, u, Q, tol=1e-10)
        report = saturation_check(E, u, w, Q)
        assert report.saturated
        assert report.r1 < 1e-8 and report.r2 < 1e-8
        assert report.classification == "fubini-study"

    def test_simplex_fubini_study(self, emb2):
        E, u, Q = emb2
        w = balance(E, u, Q, tol=1e-8)
        report = saturation_check(E, u, w, Q)
        assert report.saturated
        assert report.r1 < 1e-8 and report.r2 < 1e-8
        assert report.classification == "fubini-study"

    def test_perturbed_interval_not_saturated(self):
        E = build_embedding(interval01)
        u = quadratic_perturbed(E.polytope, 0, 5.0)
        Q = build_quadrature(E.polytope, 3, 3)
        w = balance(E, u, Q, tol=1e-9, max_iter=500)
        report = saturation_check(E, u, w, Q)
        assert not report.saturated
        assert report.r1 > 1e-2
        assert report.classification == "none"

    def test_square_not_saturated(self):
        E = build_embedding(square)
        u = guillemin(E.polytope)
        Q = build_quadrature(E.polytope, 3, 2)
        w = balance(E, u, Q, tol=1e-9, max_iter=500)
        report = saturation_check(E, u, w, Q)
        assert not report.saturated  # n/N = 2/3 but dPsi_00 is not constant
        assert report.classification == "none"

    def test_rule_on_another_polytope_rejected(self, emb2):
        E, u, Q = emb2
        w = balance(E, u, Q, tol=1e-8)
        with pytest.raises(ValueError, match="share one polytope"):
            saturation_check(E, u, w, build_quadrature(square, 3, 1))

    def test_standard_simplex_recognizer(self):
        assert is_standard_simplex(interval01)
        assert is_standard_simplex(simplex2)
        assert not is_standard_simplex(square)
        doubled = LabelledPolytope(1, [((1,), 0), ((-1,), 2)])  # [0, 2]: 3 points
        assert not is_standard_simplex(doubled)
        # a simplex with n + 1 facets that is integral but not Delzant (the
        # normals at (0, 1) have determinant 2), and one Delzant but not integral
        orbifold = LabelledPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), 2)])
        assert orbifold.is_integral() and not is_standard_simplex(orbifold)
        third = example_polytope("interval-third")
        assert third.is_delzant() and not is_standard_simplex(third)

    def test_saturation_coherence_with_ritz(self):
        # if the Ritz value reaches the integral bound, the saturation checker
        # must agree (simplex cases)
        for P, Qdepth in ((interval01, 3), (simplex2, 2)):
            bound = float(P.bly_bound().bound)
            Q = build_quadrature(P, 3, Qdepth)
            lam = lambda1_invariant(guillemin(P), 4, Q).lambda1T
            if lam >= bound - 1e-3:
                E = build_embedding(P)
                u = guillemin(E.polytope)
                w = balance(E, u, Q, tol=1e-8)
                assert saturation_check(E, u, w, Q).saturated


class TestBoundReport:
    def test_simplex_matches_exact_bound(self):
        report = bound_report(simplex2)
        assert report.k0 == 1
        assert report.bounds[0].bound == simplex2.bly_bound().bound == 6
        assert report.integral_bound.bound == 6
        assert report.recommended == 6

    def test_interval01(self):
        report = bound_report(interval01)
        assert report.bounds[0].bound == 4
        assert report.recommended == 4

    def test_interval_third(self):
        P = example_polytope("interval-third")
        report = bound_report(P)
        assert report.k0 == 3
        assert report.bounds[0].bound == 12
        assert report.integral_bound is None

    def test_simplex_k2_row(self):
        # enumeration gives N_2 = 5, so the k = 2 bound is 2*2*2*6/5
        report = bound_report(simplex2)
        row = report.bounds[1]
        assert (row.k_used, row.n_k, row.bound) == (2, 5, F(48, 5))
        assert not row.is_integer_bound


    @pytest.mark.parametrize("data,k0,mistyped", MISTYPED_POLYGONS)
    def test_mistyped_rows_dropped(self, data, k0, mistyped):
        # a row whose kP_k has not P's type is left out, and the least bound
        # is taken over the rows kept
        P = polytope_from_dict(data)
        report = bound_report(P)
        kept = [k for k in range(k0, k0 + 5) if k not in mistyped]
        assert report.k0 == k0 and [b.k_used for b in report.bounds] == kept
        assert [b.n_k for b in report.bounds] == [P.lattice_count(k).n_k for k in kept]
        assert report.recommended == min(b.bound for b in report.bounds)
        assert report.recommended == report.bounds[0].bound


class TestBoundReportCalls:
    """bound_report searches k0 once, lists no point and keeps nothing
    between calls."""

    def test_one_k0_search_per_report(self, monkeypatch):
        calls = {"k0_rows": 0, "_scan": 0, "lattice_count": 0, "lattice_points": 0}
        for name in calls:
            original = getattr(LabelledPolytope, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(LabelledPolytope, name, counted)
        # Hirzebruch-type polygon: 0 <= y <= 1/17, x + y <= 20/17; k0 = 17
        P = LabelledPolytope(
            2,
            [((1, 0), 0), ((0, 1), 0), ((0, -1), F(1, 17)), ((-1, -1), F(20, 17))],
        )
        counts = []
        for _ in range(2):
            report = bound_report(P)
            counts.append(dict(calls))
            calls.update(k0_rows=0, _scan=0, lattice_count=0, lattice_points=0)
            assert report.k0 == 17
            assert [b.bound for b in report.bounds] == [
                F(697, 10), F(516, 7), F(855, 11), F(1880, 23), F(343, 4)
            ]
        # one search over the scan windows k = 1..8 and 9..24, which hold k0
        # and the four later rows
        assert counts[0] == {"k0_rows": 1, "_scan": 2, "lattice_count": 0, "lattice_points": 0}
        assert counts[1] == counts[0]

    def test_k_max_above_default(self):
        # k0 = 67 lies beyond the default search cutoff of 64
        P = LabelledPolytope(1, [((1,), 0), ((-1,), F(1, 67))])
        report = bound_report(P, k_max=100)
        assert report.k0 == 67
        assert report.bounds[0].bound == 268


class TestResultIdentity:
    """The results that hold arrays compare by identity: a field-wise == or
    hash would ask numpy for the truth value of an array."""

    @pytest.mark.parametrize("make", [
        lambda: simplex2.lattice_points(2),
        lambda: build_quadrature(interval01, 3, 1),
        lambda: lambda1_invariant(guillemin(interval01), 4, build_quadrature(interval01, 3, 1)),
        lambda: scalar_curvature(guillemin(simplex2), [0.25, 0.25]),
        lambda: ke_check(guillemin(interval01), samples=20),
        lambda: build_embedding(interval01),
        lambda: balance(build_embedding(interval01), guillemin(interval01),
                        build_quadrature(interval01, 3, 1), tol=1e-6),
    ], ids=["LatticeData", "QuadratureRule", "RitzResult", "CurvatureSample",
            "KEReport", "EmbeddingData", "BalanceWeights"])
    def test_eq_and_hash_are_identity(self, make):
        x, y = make(), make()
        assert x == x and x in [x] and hash(x) == hash(x) and len({x, x}) == 1
        assert x != y and x not in [y]
