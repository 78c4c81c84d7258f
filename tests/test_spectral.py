"""Rayleigh-Ritz eigenvalue computations against the model cases, a
finite-difference Sturm-Liouville oracle and Riemann-grid integrals."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    ZeroDenominator,
    box_midpoint_integral,
    interval_midpoint_integral,
    mp_guillemin_ritz_eigenvalues,
    rayleigh_quotient,
    sturm_liouville_lambda1,
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
    lambda1_invariant,
    quadratic_perturbed,
    sweep_dilation,
    sweep_uc,
)
from toriceig import spectral
from toriceig.potential import NotPositiveDefinite
from toriceig.spectral import MassSingular, TrialFunction

interval01 = example_polytope("interval01")
intervalC = example_polytope("intervalC")
simplex2 = example_polytope("simplex2")
square = example_polytope("square")
cube = LabelledPolytope(
    3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
        ((-1, 0, 0), 1), ((0, -1, 0), 1), ((0, 0, -1), 1)],
)

x_1d = MultiPoly(1, {(1,): 1.0})


def uc_H(c):
    return lambda t: 1.0 / (1.0 / (2 * t * (1 - t)) + c)


def dilation_H_intervalC(s):
    def H(t):
        L = np.array([1.0 + t, 1.0 - t])
        Ls = L + (s - 1.0)
        G = 0.5 * np.sum(1.0 / L - 1.0 / (s * Ls))
        return 1.0 / G

    return H


class TestRayleighQuotient:
    def test_interval_coordinate_gives_4(self):
        Q = build_quadrature(interval01, 3, 3)
        assert rayleigh_quotient(guillemin(interval01), x_1d, Q) == pytest.approx(
            4.0, rel=1e-10
        )

    def test_uc_quotient_decreases_in_c(self):
        Q = build_quadrature(interval01, 3, 3)
        vals = [
            rayleigh_quotient(quadratic_perturbed(interval01, 0, c), x_1d, Q)
            for c in (0.5, 1, 5, 50)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_grid_oracle_interval(self):
        # symmetric polytope, f = x: compare with a Riemann-sum evaluation
        u = guillemin(intervalC)
        Q = build_quadrature(intervalC, 3, 3)
        lib = rayleigh_quotient(u, x_1d, Q)
        num = interval_midpoint_integral(lambda p: 1.0 - p[:, 0] ** 2, -1, 1, 20000)
        den = interval_midpoint_integral(lambda p: p[:, 0] ** 2, -1, 1, 20000)
        assert lib == pytest.approx(num / den, rel=1e-6)

    def test_grid_oracle_square(self):
        sq_centered = example_polytope("square").translated((0.5, 0.5))
        u = guillemin(sq_centered)
        Q = build_quadrature(sq_centered, 3, 3)
        f = MultiPoly(2, {(1, 0): 1.0})
        lib = rayleigh_quotient(u, f, Q)

        def H00(pts):
            # product metric: H = diag(1/2 - 2 x_i^2 ... ) on [-1/2, 1/2]^2
            L1, L2 = 0.5 + pts[:, 0], 0.5 - pts[:, 0]
            return 1.0 / (0.5 * (1 / L1 + 1 / L2))

        num = box_midpoint_integral(H00, (-0.5, -0.5), (0.5, 0.5), cells_per_axis=1500)
        den = box_midpoint_integral(
            lambda p: p[:, 0] ** 2, (-0.5, -0.5), (0.5, 0.5), cells_per_axis=1500
        )
        assert lib == pytest.approx(num / den, rel=1e-6)

    def test_constant_rejected(self):
        Q = build_quadrature(interval01, 2, 1)
        with pytest.raises(ZeroDenominator):
            rayleigh_quotient(guillemin(interval01), MultiPoly(1, {(0,): 2.0}), Q)


class TestLambda1:
    @pytest.mark.parametrize("degree", [1, 2, 4])
    def test_interval_guillemin(self, degree):
        Q = build_quadrature(interval01, 3, 3)
        result = lambda1_invariant(guillemin(interval01), degree, Q)
        assert result.lambda1T == pytest.approx(4.0, abs=1e-6)

    @pytest.mark.parametrize("degree", [1, 3, 4])
    def test_simplex_guillemin(self, degree):
        Q = build_quadrature(simplex2, 3, 2)
        result = lambda1_invariant(guillemin(simplex2), degree, Q)
        assert result.lambda1T == pytest.approx(6.0, abs=5e-3)

    @pytest.mark.parametrize(
        "u,degree,order,depth",
        [
            (guillemin(simplex2), 5, 3, 2),
            (guillemin(cube), 6, 3, 1),
            (dilation(square, 1.5), 5, 3, 2),
        ],
        ids=["simplex2", "cube", "square-dilation"],
    )
    def test_result_invariants(self, u, degree, order, depth):
        # the Rayleigh quotient of the eigenfunction, from H at the nodes,
        # checks every K_jk block of the assembled stiffness matrix
        Q = build_quadrature(u.polytope, order, depth)
        result = lambda1_invariant(u, degree, Q)
        assert result.lambda1T > 0
        assert np.all(np.diff(result.eigenvalues) >= -1e-9)
        quotient = rayleigh_quotient(u, result.eigenfunction(), Q)
        assert quotient == pytest.approx(result.lambda1T, rel=1e-8)

    def test_eigenfunction_at_one_point(self):
        # a point of shape (n,) gives the row of a batch, up to the order of
        # the coefficient sums
        Q = build_quadrature(square, 3, 1)
        f = lambda1_invariant(guillemin(square), 4, Q).eigenfunction()
        X = Q.nodes[:5]
        values, grads = f.value(X), f.gradient(X)
        for q, x in enumerate(X):
            assert f.value(x).shape == () and f.gradient(x).shape == (2,)
            np.testing.assert_allclose(f.value(x), values[q], rtol=1e-13)
            np.testing.assert_allclose(f.gradient(x), grads[q], rtol=1e-13)

    @pytest.mark.parametrize(
        "make_u,P",
        [
            (lambda P: guillemin(P), interval01),
            (lambda P: quadratic_perturbed(P, 0, 3.0), interval01),
            (lambda P: guillemin(P), simplex2),
        ],
    )
    def test_degree_monotonicity(self, make_u, P):
        Q = build_quadrature(P, 3, 2)
        u = make_u(P)
        values = [lambda1_invariant(u, d, Q).lambda1T for d in (2, 3, 4, 5)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-10

    def test_determinism(self):
        Q = build_quadrature(simplex2, 3, 2)
        u = guillemin(simplex2)
        r1 = lambda1_invariant(u, 4, Q)
        r2 = lambda1_invariant(u, 4, Q)
        assert r1.lambda1T == r2.lambda1T
        assert r1.eigvec.tobytes() == r2.eigvec.tobytes()

    def test_mismatched_quadrature_rejected(self):
        Q = build_quadrature(interval01, 2, 1)
        with pytest.raises(ValueError):
            lambda1_invariant(guillemin(intervalC), 3, Q)

    def test_rank_deficient_mass_drops_basis(self):
        # 2 nodes cannot support 6 monomials: the mean-centered values have
        # rank 1, so the whitening keeps one mass direction and still returns
        # a bound
        Q = build_quadrature(interval01, 1, 0)
        result = lambda1_invariant(guillemin(interval01), 6, Q)
        assert len(Q) == 2 and result.basis_size == 1
        assert result.lambda1T > 0

    def test_table_cap(self, monkeypatch):
        # degree 4 on simplex2: B = C(6, 2) - 1 = 14 basis functions, a block
        # table of B + 1 rows by min(m, step) nodes, here all len(Q) of them;
        # the cap is checked before it is built
        Q = build_quadrature(simplex2, 3, 2)
        entries = 15 * max(15, len(Q))
        monkeypatch.setattr(spectral, "MAX_TABLE", entries)
        lambda1_invariant(guillemin(simplex2), 4, Q)
        monkeypatch.setattr(spectral, "MAX_TABLE", entries - 1)
        message = f"degree 4 needs 14 basis functions on {len(Q)} nodes"
        with pytest.raises(ValueError, match=message):
            lambda1_invariant(guillemin(simplex2), 4, Q)
        with pytest.raises(ValueError, match=message):
            sweep_uc(simplex2, 0, [0, 1], degree=4, Q=Q)

    def test_zero_mass_raises(self):
        # every node at one point: the mean-centered values vanish and no
        # mass direction clears the rank tolerance
        Q = build_quadrature(interval01, 1, 0)
        Q = dataclasses.replace(Q, nodes=np.full_like(Q.nodes, 0.5))
        with pytest.raises(MassSingular):
            lambda1_invariant(guillemin(interval01), 3, Q)


class TestDeepDegree:
    """At degree 16 the monomial mass matrix on simplex2 has condition about
    1e13 after the rank cut; every direction above the cut must stay in the
    Ritz space, since dropping one raises the bound."""

    @pytest.fixture(scope="class")
    def rule(self):
        Pc = simplex2.translated(simplex2.vertex_barycenter())
        return Pc, build_quadrature(Pc, 15, 1)

    def test_dilation_near_one_keeps_basis(self, rule):
        Pc, Q = rule
        result = lambda1_invariant(dilation(Pc, 1.01), 16, Q)
        assert len(Q) == 2700
        assert 207.98 < result.lambda1T < 208.0
        assert result.basis_size >= 120

    def test_guillemin_exact_at_degree_16(self, rule):
        Pc, Q = rule
        assert abs(lambda1_invariant(guillemin(Pc), 16, Q).lambda1T - 6.0) <= 1e-12


class TestMatchedOrder:
    """A rule of order D + 1 is exact to degree 2D + 1, which covers the
    degree-2D stiffness and mass integrands of the polynomial Guillemin H, so
    the Ritz value is the exact first eigenvalue at a single level."""

    @pytest.mark.parametrize("P,exact", [(simplex2, 6.0), (square, 4.0), (cube, 4.0)],
                             ids=["simplex2", "square", "cube"])
    @pytest.mark.parametrize("degree", [5, 6, 7, 8])
    def test_lambda1_exact_at_depth_zero(self, P, exact, degree):
        Q = build_quadrature(P, degree + 1, 0)
        result = lambda1_invariant(guillemin(P), degree, Q)
        assert abs(result.lambda1T - exact) <= 1e-12


def reference_eigenvalues(u, degree, Q):
    """Ritz eigenvalues assembled node by node: per-node inverse Hessians, the
    4-operand stiffness einsum, a plain Cholesky whitening and numpy's eigh."""
    P, w = u.polytope, Q.weights
    lo, hi = (np.array([float(v) for v in b]) for b in P.bounding_box())
    center, half = (lo + hi) / 2, (hi - lo) / 2
    exps = [
        np.array(e) for e in itertools.product(range(degree + 1), repeat=P.dim)
        if 1 <= sum(e) <= degree
    ]
    xhat = (Q.nodes - center) / half
    vals = np.stack([np.prod(xhat**e, axis=-1) for e in exps], axis=-1)
    vals -= (w @ vals) / np.sum(w)
    grads = np.zeros((len(w), len(exps), P.dim))
    for b, e in enumerate(exps):
        for j in np.flatnonzero(e):
            lowered = e - np.eye(P.dim, dtype=int)[j]
            grads[:, b, j] = e[j] / half[j] * np.prod(xhat**lowered, axis=-1)
    Hs = np.array([np.linalg.inv(u.hessian(x)) for x in Q.nodes])
    M = np.einsum("q,qa,qb->ab", w, vals, vals)
    A = np.einsum("q,qai,qij,qbj->ab", w, grads, Hs, grads)
    Linv = np.linalg.inv(np.linalg.cholesky(M))
    C = Linv @ A @ Linv.T
    return np.linalg.eigh(0.5 * (C + C.T))[0]


class TestBatchedCore:
    @pytest.mark.parametrize(
        "P,depth,digits",
        [(simplex2, 2, 40), (cube, 1, None)],
        ids=["simplex2", "cube"],
    )
    def test_eigenvalues_match_node_by_node_reference(self, P, depth, digits):
        # simplex2 against 40-digit arithmetic, because the float64
        # reference is itself 6.1e-12 off there; on the cube the code agrees
        # with the float64 reference to 1.7e-13
        Q = build_quadrature(P, 3, depth)
        u = guillemin(P)
        result = lambda1_invariant(u, 4, Q)
        if digits is None:
            ref = reference_eigenvalues(u, 4, Q)
        else:
            ref = mp_guillemin_ritz_eigenvalues(
                P, Q.nodes, Q.weights, 4, result.center, result.halfwidth, digits
            )
        assert result.basis_size == len(ref)
        assert np.max(np.abs(result.eigenvalues - ref) / np.abs(ref)) < 1e-12

    def test_not_positive_definite_raised(self):
        u = guillemin_plus_poly(interval01, MultiPoly(1, {(2,): -10.0}), check=False)
        with pytest.raises(NotPositiveDefinite, match="not positive definite at"):
            lambda1_invariant(u, 4, build_quadrature(interval01, 3, 2))


class TestOracleEquivalence:
    @pytest.mark.parametrize("c", [0.0, 1.0, 10.0])
    def test_uc_family_interval(self, c):
        Q = build_quadrature(interval01, 3, 3)
        u = guillemin(interval01) if c == 0 else quadratic_perturbed(interval01, 0, c)
        ritz = lambda1_invariant(u, 6, Q).lambda1T
        oracle = sturm_liouville_lambda1(uc_H(c), 0.0, 1.0, 2000)
        assert ritz == pytest.approx(oracle, rel=1e-3)

    @pytest.mark.parametrize("s", [1.5, 2.0])
    def test_dilation_family_intervalC(self, s):
        Q = build_quadrature(intervalC, 3, 3)
        u = dilation(intervalC, s)
        ritz = lambda1_invariant(u, 6, Q).lambda1T
        oracle = sturm_liouville_lambda1(dilation_H_intervalC(s), -1.0, 1.0, 2000)
        assert ritz == pytest.approx(oracle, rel=1e-3)

    @pytest.mark.parametrize(
        "name",
        ["interval01", "intervalC", "simplex2", "square", "interval-third", "perturbed-simplex"],
    )
    def test_ke_slope(self, name):
        # a Kahler-Einstein metric has Lap x_i = 2 lam (x_i - xbar_i), so the
        # coordinates are first eigenfunctions and lambda1T = 2 lam; the rule
        # q = D + 1 at depth 1 integrates guillemin's Ritz problem exactly
        P = example_polytope(name)
        u = guillemin(P)
        report = ke_check(u)
        assert report.is_ke
        for degree in (4, 6):
            ritz = lambda1_invariant(u, degree, build_quadrature(P, degree + 1, 1)).lambda1T
            assert ritz == pytest.approx(2 * report.lambda_hat, abs=1e-12)

    def test_product_rule(self):
        # uc along axis 0 of the square is the product of uc on [0, 1] and
        # guillemin on [0, 1], so lambda1T is the smaller of the factors'
        ritz = lambda1_invariant(
            quadratic_perturbed(square, 0, 3.0), 8, build_quadrature(square, 9, 1)
        ).lambda1T
        Q = build_quadrature(interval01, 9, 2)
        factors = [
            lambda1_invariant(u, 8, Q).lambda1T
            for u in (quadratic_perturbed(interval01, 0, 3.0), guillemin(interval01))
        ]
        assert ritz == pytest.approx(min(factors), abs=1e-10)


class TestStiffnessDomination:
    @pytest.mark.parametrize("s", [1.01, 2.0, 10.0])
    def test_dilation_energy_dominates_guillemin(self, s):
        # same f, same quadrature: integral H^s(df, df) >= integral H_0(df, df)
        Q = build_quadrature(intervalC, 3, 2)
        u0 = guillemin(intervalC)
        us = dilation(intervalC, s)
        rng = np.random.default_rng(11)
        for _ in range(6):
            f = TrialFunction(rng.normal(size=4), 4, [0.0], [1.0])  # x, x^2, x^3, x^4
            q_s = rayleigh_quotient(us, f, Q)
            q_0 = rayleigh_quotient(u0, f, Q)
            assert q_s >= q_0 - 1e-9 * max(1.0, abs(q_0))


class TestSweeps:
    def test_uc_sweep_decreasing_and_small_tail(self):
        result = sweep_uc(interval01, 0, [0, 1, 10, 100, 1000], degree=6)
        lams = [lam for _, lam in result.rows]
        assert all(b < a - 1e-8 for a, b in zip(lams, lams[1:]))
        assert lams[0] == pytest.approx(4.0, abs=1e-4)
        assert lams[-1] < 0.05
        assert result.trend_violations == ()

    def test_uc_c0_equals_guillemin(self):
        Q = build_quadrature(interval01, 3, 2)
        result = sweep_uc(interval01, 0, [0.0], degree=4, Q=Q)
        direct = lambda1_invariant(guillemin(interval01), 4, Q).lambda1T
        assert result.rows[0][1] == direct

    def test_dilation_sweep_grows_and_dominates(self):
        result = sweep_dilation(intervalC, [2, 1.5, 1.1, 1.01], degree=6)
        lams = [lam for _, lam in result.rows]
        base = lambda1_invariant(
            guillemin(intervalC), 6, build_quadrature(intervalC, 3, 2)
        ).lambda1T
        assert all(lam >= base - 1e-6 for lam in lams)
        assert lams[-1] > 5 * lams[0]
        assert result.trend_violations == ()

    def test_dilation_large_s_near_guillemin(self):
        result = sweep_dilation(intervalC, [1000.0], degree=6)
        base = lambda1_invariant(
            guillemin(intervalC), 6, build_quadrature(intervalC, 3, 2)
        ).lambda1T
        assert result.rows[0][1] == pytest.approx(base, rel=0.05)

    def test_square_dilation_increasing(self):
        sq_centered = square.translated((0.5, 0.5))
        result = sweep_dilation(sq_centered, [2, 1.2, 1.05], degree=5)
        lams = [lam for _, lam in result.rows]
        assert lams[0] < lams[1] < lams[2]

    def test_bad_lists_rejected(self):
        with pytest.raises(ValueError):
            sweep_uc(interval01, 0, [10, 1], degree=3)
        with pytest.raises(ValueError):
            sweep_dilation(intervalC, [1.01, 1.5], degree=3)
        with pytest.raises(ValueError):
            sweep_dilation(intervalC, [2.0, 1.0], degree=3)
        with pytest.raises(ValueError, match="strictly decreasing"):
            sweep_dilation(intervalC, [2.0, 2.0, 1.5], degree=3)
        # c only has to ascend, so a repeated value gives a repeated row
        rows = sweep_uc(interval01, 0, [0, 1, 1], degree=3).rows
        assert rows[1] == rows[2]


class TestSharedTrialSpace:
    """A sweep solves every potential on one trial space, with the values
    of one `lambda1_invariant` call per potential."""

    def test_rows_equal_single_solves(self):
        Q = build_quadrature(square, 3, 1)
        result = sweep_uc(square, 1, [0.0, 1.0, 10.0], degree=4, Q=Q)
        for c, lam in result.rows:
            u = guillemin(square) if c == 0 else quadratic_perturbed(square, 1, c)
            assert lam == lambda1_invariant(u, 4, Q).lambda1T

        result = sweep_dilation(square, [2.0, 1.5, 1.1], degree=4, Q=Q)
        for s, lam in result.rows:
            assert lam == lambda1_invariant(dilation(square, s), 4, Q).lambda1T

    def test_monomial_table_built_once_per_sweep(self, monkeypatch):
        calls = []
        original = spectral._monomial_table
        monkeypatch.setattr(
            spectral, "_monomial_table", lambda *args: calls.append(1) or original(*args)
        )
        sweep_uc(interval01, 0, [0, 1, 10, 100], degree=4)
        assert len(calls) == 1
        sweep_dilation(intervalC, [2, 1.5, 1.1], degree=4)
        assert len(calls) == 2


class TestAssemblyTables:
    """The cached exponent table and the skipped Hessian blocks of `_ritz`."""

    @pytest.mark.parametrize("n,degree", [(1, 6), (2, 5), (3, 4)])
    def test_exponent_table(self, n, degree):
        E, parent, axis, lowered = spectral._exponent_table(n, degree)
        expected = sorted(
            (sum(e), e) for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree
        )
        exponents = [tuple(e) for e in E.tolist()]
        assert exponents == [e for _, e in expected]
        for a in (E, parent, axis, lowered):
            assert not a.flags.writeable
        row = {e: i for i, e in enumerate(exponents)}
        for i, e in enumerate(exponents):
            for j in range(n):
                down = e[:j] + (e[j] - 1,) + e[j + 1 :]
                assert lowered[j, i] == (row[down] if e[j] else 0)
            if i:
                j = max(k for k in range(n) if e[k])
                assert axis[i] == j and parent[i] == lowered[j, i]

    def test_cube_off_diagonal_blocks_vanish(self):
        # the case whose K_jk GEMMs `_ritz` skips
        Q = build_quadrature(cube, 3, 1)
        H = guillemin(cube).sample(Q.nodes)
        for j, k in itertools.combinations(range(3), 2):
            assert not H[:, j, k].any()

    def test_coupled_block_assembled(self):
        # an x*y term makes H_01 nonzero, so no block is skipped; the
        # eigenfunction's Rayleigh quotient checks the K_01 block
        u = guillemin_plus_poly(square, MultiPoly(2, {(1, 1): 0.25}))
        Q = build_quadrature(square, 3, 1)
        assert np.all(u.sample(Q.nodes)[:, 0, 1] != 0)
        result = lambda1_invariant(u, 4, Q)
        quotient = rayleigh_quotient(u, result.eigenfunction(), Q)
        assert quotient == pytest.approx(result.lambda1T, rel=1e-8)


class TestStreaming:
    """`_ritz` makes one pass over node blocks of at most BLOCK_ENTRIES table
    entries and combines the blocks' centred mass Grams by the pairwise
    update of Chan, Golub and LeVeque."""

    @staticmethod
    def split(monkeypatch, Q, degree, blocks=5):
        # blocks of len(Q) // blocks nodes, so the rule takes >= `blocks`
        step = len(Q) // blocks
        assert step >= 64
        rows = math.comb(degree + Q.polytope.dim, degree)
        monkeypatch.setattr(spectral, "BLOCK_ENTRIES", rows * step)

    @pytest.mark.parametrize("order,depth,degree", [(3, 2, 4), (7, 1, 6), (9, 1, 8)])
    def test_blocks_match_one_block(self, monkeypatch, order, depth, degree):
        Q = build_quadrature(cube, order, depth)
        u = guillemin(cube)
        monkeypatch.setattr(spectral, "BLOCK_ENTRIES", 2**40)
        whole = lambda1_invariant(u, degree, Q)
        self.split(monkeypatch, Q, degree)
        blocked = lambda1_invariant(u, degree, Q)
        assert blocked.basis_size == whole.basis_size
        assert blocked.lambda1T == pytest.approx(whole.lambda1T, rel=1e-12, abs=0)
        assert np.max(np.abs(blocked.eigenvalues / whole.eigenvalues - 1)) < 1e-9
        if order == degree + 1:  # a matched rule: the exact value
            assert abs(blocked.lambda1T - 4.0) <= 1e-12

    def test_sweep_blocks_match_one_block(self, monkeypatch):
        Q = build_quadrature(cube, 3, 2)
        monkeypatch.setattr(spectral, "BLOCK_ENTRIES", 2**40)
        whole = sweep_uc(cube, 2, [0.0, 1.0, 10.0], degree=4, Q=Q)
        self.split(monkeypatch, Q, 4)
        blocked = sweep_uc(cube, 2, [0.0, 1.0, 10.0], degree=4, Q=Q)
        for (c, lam), (c_whole, lam_whole) in zip(blocked.rows, whole.rows):
            assert c == c_whole and lam == pytest.approx(lam_whole, rel=1e-12, abs=0)

    def test_memory_independent_of_node_count(self):
        # depth 5 has 4x the nodes of depth 4 (331,776); a solve's peak is
        # set by its blocks of the degree-8 table, about 3 MiB at both
        u = guillemin(square)
        lambda1_invariant(u, 8, build_quadrature(square, 9, 0))  # fill the caches
        peaks = []
        for depth in (4, 5):
            Q = build_quadrature(square, 9, depth)
            tracemalloc.start()
            try:
                lambda1_invariant(u, 8, Q)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0]

    def test_not_positive_definite_in_later_block(self, monkeypatch):
        # G = 1/(2x(1 - x)) - 6 fails for 0.092 < x < 0.908, past the first
        # block of 64 nodes, which ends before x = 0.034
        u = guillemin_plus_poly(interval01, MultiPoly(1, {(2,): -3.0}), check=False)
        Q = build_quadrature(interval01, 15, 6)
        self.split(monkeypatch, Q, 4, blocks=len(Q) // 64)
        u.sample(Q.nodes[:64])
        with pytest.raises(NotPositiveDefinite, match="not positive definite at"):
            lambda1_invariant(u, 4, Q)
