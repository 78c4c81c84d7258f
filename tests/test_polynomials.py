"""MultiPoly derivative tensors against sympy, and the bits of value, gradient
and hessian as orders 0-2 of the one tensor."""

import itertools

import numpy as np
import pytest
import sympy

from oracles import reference_poly_gradient_hessian
from toriceig import MultiPoly


def random_poly(n: int, seed: int) -> MultiPoly:
    rng = np.random.default_rng(seed)
    terms = {tuple(rng.integers(0, 5, n)): float(rng.uniform(-2, 2)) for _ in range(6)}
    return MultiPoly(n, terms)


@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_derivatives_match_sympy(n, order):
    p = random_poly(n, 10 * n + order)
    xs = sympy.symbols(f"x0:{n}")
    expr = sum(
        sympy.Rational(c) * sympy.prod([x**e for x, e in zip(xs, expo)])
        for expo, c in p.terms.items()
    )
    X = np.random.default_rng(n).uniform(-1.5, 1.5, (2, 3, n))
    got = p.derivatives(X, order)
    assert got.shape == (2, 3) + (n,) * order
    for axes in itertools.product(range(n), repeat=order):
        d = sympy.diff(expr, *[xs[a] for a in axes]) if axes else expr
        for idx in np.ndindex(2, 3):
            exact = float(d.subs({x: sympy.Rational(v) for x, v in zip(xs, X[idx])}))
            assert got[idx + axes] == pytest.approx(exact, rel=1e-12, abs=1e-12)
    for idx in np.ndindex(2, 3):
        assert p.derivatives(X[idx], order).tobytes() == got[idx].tobytes()
    for perm in itertools.permutations(range(2, 2 + order)):
        assert np.array_equal(got.transpose((0, 1) + perm), got)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_value_gradient_hessian_bits(n):
    p = random_poly(n, 100 + n)
    rng = np.random.default_rng(n)
    for shape in ((n,), (7, n), (2, 3, n)):
        X = rng.uniform(-1.5, 1.5, shape)
        grad, hess = reference_poly_gradient_hessian(p, X)
        assert p.gradient(X).shape == grad.shape and p.gradient(X).tobytes() == grad.tobytes()
        assert p.hessian(X).shape == hess.shape and p.hessian(X).tobytes() == hess.tobytes()
        value, expected = p.value(X), p._value_t(X.T).T
        assert type(value) is type(expected)
        assert np.asarray(value).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize(
    "nvars,terms",
    [
        (2, {(1.5, 0): 1.0, (True, 0): 2.0}),  # both rounded to (1, 0), and one term lost
        (2, {(True, 0): 2.0}),
        (1, {(2.7,): 1.0}),  # truncated to x^2
        (1, {(2.0,): 1.0}),
        (1, {(np.True_,): 1.0}),
        (1, {(-1,): 1.0}),
        (2, {(1,): 1.0}),
        (1, {(1.5,): 0.0}),  # refused even where the zero term would be dropped
    ],
    ids=["collision", "bool", "fraction", "float", "numpy-bool", "negative", "short", "zero-term"],
)
def test_inexact_exponents_rejected(nvars, terms):
    with pytest.raises(ValueError, match="bad exponent tuple"):
        MultiPoly(nvars, terms)


def test_numpy_integer_exponents_accepted():
    p = MultiPoly(2, {(np.int64(2), np.int32(1)): 1.5, (np.uint8(0), 3): 0.5})
    assert p.terms == {(2, 1): 1.5, (0, 3): 0.5}
    assert all(type(e) is int for expo in p.terms for e in expo)
