"""Rayleigh-Ritz computation of the first invariant eigenvalue.

The smallest nonzero eigenvalue of the invariant Laplacian reduces to the
minimum of the Rayleigh quotient

    R(f) = integral_P H(df, df) / integral_P (f - fbar)^2

over functions on the polytope.  The trial space is the span of monomials of
total degree <= D, affinely normalized to the bounding box and mean-centered
against the quadrature.  Every computed value is an upper bound for the true
eigenvalue up to quadrature error; it is exact when the rule order is at
least D + 1 and H is polynomial, as for the Guillemin potential.  Trial
values and gradients come from one table of coordinate powers at the nodes.
The mass matrix is one GEMM, (w V)^T V for the mean-centered trial values V.
With G = R R^T at each node, the stiffness matrix is sum_i F_i^T F_i for
F = sqrt(w) R^{-1} grad(phi).  The generalized problem A c = lambda M c is
whitened on the eigenvectors of M = U diag(mass) U^T (one LAPACK `eigh`):
directions with mass <= B * eps * max(mass), numpy's `matrix_rank` tolerance
for B basis functions, are dropped, and `eigh` of
U^T A U / sqrt(mass_i mass_j) on the rest gives the Ritz values.  A sweep
builds the trial space and the whitening once and solves each potential on
it.  Everything is deterministic, so identical inputs give bit-identical
output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .polytope import LabelledPolytope
from .potential import (
    SymplecticPotential,
    center_polytope,
    dilation,
    guillemin,
    quadratic_perturbed,
)
from .quadrature import QuadratureRule, build_quadrature

__all__ = [
    "SpectralError",
    "ZeroDenominator",
    "MassSingular",
    "TrialFunction",
    "RitzResult",
    "SweepResult",
    "rayleigh_quotient",
    "lambda1_invariant",
    "sweep_uc",
    "sweep_dilation",
]


class SpectralError(Exception):
    pass


class ZeroDenominator(SpectralError):
    """The test function is quadrature-constant."""


class MassSingular(SpectralError):
    """No eigenvalue of the mass matrix clears the rank tolerance
    B * eps * max(mass), so the trial space is empty."""


def _power_table(xhat: np.ndarray, degree: int) -> np.ndarray:
    """xhat_i^p for p = 0..degree, shape (..., n, degree + 1)."""
    return xhat[..., None] ** np.arange(degree + 1)


def _monomials(table: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """xhat^e for every row e of the (B, n) exponent array, shape (..., B)."""
    out = table[..., 0, :].take(exponents[:, 0], axis=-1)
    for i in range(1, exponents.shape[1]):
        out = out * table[..., i, :].take(exponents[:, i], axis=-1)
    return out


def _monomial_gradients(table, exponents, halfwidth) -> list:
    """d/dx_j of every monomial, one (..., B) array per coordinate j."""
    grads = []
    for j in range(exponents.shape[1]):
        lowered = exponents.copy()
        lowered[:, j] = np.maximum(lowered[:, j] - 1, 0)
        grads.append(_monomials(table, lowered) * (exponents[:, j] / halfwidth[j]))
    return grads


def _stiffness(S: np.ndarray, grads: list) -> np.ndarray:
    """sum_i F_i^T F_i with F_i = sum_j S[:, i, j] grads[j]: the stiffness
    matrix when S = sqrt(w) R^{-1} for G = R R^T at each node."""
    A = 0.0
    for i in range(len(grads)):
        F = S[:, i, 0, None] * grads[0]
        for j in range(1, len(grads)):
            F += S[:, i, j, None] * grads[j]
        A = A + F.T @ F
    return A


class TrialFunction:
    """Polynomial in normalized coordinates xhat = (x - center)/halfwidth,
    determined by monomial exponents and a coefficient vector.  Evaluates at
    points of shape (..., n)."""

    def __init__(self, coeffs, exponents, center, halfwidth):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.exponents = tuple(tuple(e) for e in exponents)
        self.center = np.asarray(center, dtype=float)
        self.halfwidth = np.asarray(halfwidth, dtype=float)
        self._E = np.array(self.exponents, dtype=int).reshape(len(self.exponents), -1)

    def _table(self, x) -> np.ndarray:
        xhat = (np.asarray(x, dtype=float) - self.center) / self.halfwidth
        return _power_table(xhat, int(self._E.max(initial=0)))

    def value(self, x) -> np.ndarray:
        return _monomials(self._table(x), self._E) @ self.coeffs

    def gradient(self, x) -> np.ndarray:
        grads = _monomial_gradients(self._table(x), self._E, self.halfwidth)
        return np.stack([g @ self.coeffs for g in grads], axis=-1)


@dataclass(frozen=True)
class RitzResult:
    """Output of one Ritz solve: ascending eigenvalues on the mean-zero trial
    space, the extracted upper bound lambda1T and its minimizer."""

    degree: int
    basis_size: int
    eigenvalues: np.ndarray
    lambda1T: float
    eigvec: np.ndarray
    mass_condition: float
    stiffness_condition: float
    exponents: tuple
    center: np.ndarray
    halfwidth: np.ndarray
    quad_nodes: int

    def eigenfunction(self) -> TrialFunction:
        return TrialFunction(self.eigvec, self.exponents, self.center, self.halfwidth)

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "basis_size": self.basis_size,
            "lambda1T": self.lambda1T,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "mass_condition": self.mass_condition,
            "stiffness_condition": self.stiffness_condition,
            "quad_nodes": self.quad_nodes,
        }


def _require_matching(u: SymplecticPotential, Q: QuadratureRule):
    if Q.polytope != u.polytope:
        raise ValueError(
            "quadrature was built for a different polytope than the potential "
            "(dilation potentials live on the auto-centered copy)"
        )


def _weighted_factors(u: SymplecticPotential, Q: QuadratureRule) -> np.ndarray:
    """sqrt(w_q) R_q^{-1} with Hess u = R R^T at every node, shape (m, n, n)."""
    return np.sqrt(Q.weights)[:, None, None] * u.sample(Q.nodes).Rinv


def rayleigh_quotient(u: SymplecticPotential, f, Q: QuadratureRule) -> float:
    """integral H(df, df) / integral (f - fbar)^2 by quadrature; an upper
    bound for lambda1T up to quadrature error.  f evaluates value(x) and
    gradient(x) on arrays of points, as MultiPoly and TrialFunction do."""
    _require_matching(u, Q)
    w = Q.weights
    vals = np.asarray(f.value(Q.nodes), dtype=float)
    grads = np.asarray(f.gradient(Q.nodes), dtype=float)
    columns = [grads[:, j, None] for j in range(grads.shape[1])]
    numerator = float(_stiffness(_weighted_factors(u, Q), columns)[0, 0])
    fbar = float(w @ vals) / float(np.sum(w))
    centered = vals - fbar
    denominator = float(w @ centered**2)
    scale = float(np.sum(w)) * max(1.0, float(np.max(np.abs(vals))) ** 2)
    if denominator <= 1e-24 * scale:
        raise ZeroDenominator("test function is constant on the quadrature nodes")
    return numerator / denominator


def _monomial_exponents(n: int, degree: int) -> list:
    out = [
        e
        for e in itertools.product(range(degree + 1), repeat=n)
        if 1 <= sum(e) <= degree
    ]
    out.sort(key=lambda e: (sum(e), e))
    return out


def _ritz(potentials, degree: int, Q: QuadratureRule) -> list:
    """One `RitzResult` per potential on the span of mean-centered monomials
    of total degree <= degree.  The power table, the mass matrix with its
    eigh and the monomial gradients depend only on the rule, so they are
    built once; each potential adds its stiffness matrix and one eigh."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    for u in potentials:
        _require_matching(u, Q)
    P = Q.polytope
    n = P.dim
    lo, hi = P.bounding_box()
    lo_f = np.array([float(v) for v in lo])
    hi_f = np.array([float(v) for v in hi])
    center = (lo_f + hi_f) / 2.0
    halfwidth = np.maximum((hi_f - lo_f) / 2.0, 1e-12)

    exponents = _monomial_exponents(n, degree)
    E = np.array(exponents)
    w = Q.weights
    table = _power_table((Q.nodes - center) / halfwidth, degree)
    vals = _monomials(table, E)  # (m, B)
    vals -= (w @ vals) / float(np.sum(w))  # mean-zero against the rule
    M = (vals * w[:, None]).T @ vals
    del vals
    # Sample the potentials before the gradient tables exist, so that the
    # sampling temporaries and the tables are never held at once.
    factors = [_weighted_factors(u, Q) for u in potentials]
    grads = _monomial_gradients(table, E, halfwidth)

    # Whiten on the eigenvectors of M, keeping the directions above numpy's
    # matrix_rank tolerance; eigh reads one triangle, so neither matrix needs
    # symmetrising.
    mass, U = np.linalg.eigh(M)
    keep = mass > len(mass) * np.finfo(float).eps * mass[-1]
    if not keep.any():
        raise MassSingular("mass matrix is numerically zero")
    mass, U = mass[keep], U[:, keep]
    root = np.sqrt(mass)
    results = []
    for S in factors:
        A_kept = U.T @ _stiffness(S, grads) @ U
        eigs, vecs = np.linalg.eigh(A_kept / np.outer(root, root))
        results.append(
            RitzResult(
                degree=degree,
                basis_size=len(mass),
                eigenvalues=eigs,
                lambda1T=float(eigs[0]),
                eigvec=U @ (vecs[:, 0] / root),
                mass_condition=float(mass[-1] / mass[0]),
                stiffness_condition=float(np.linalg.cond(A_kept)),
                exponents=tuple(exponents),
                center=center,
                halfwidth=halfwidth,
                quad_nodes=len(w),
            )
        )
    return results


def lambda1_invariant(u: SymplecticPotential, degree: int, Q: QuadratureRule) -> RitzResult:
    """Ritz upper bound for the first invariant eigenvalue on the span of
    mean-centered monomials of total degree <= degree."""
    return _ritz([u], degree, Q)[0]


@dataclass(frozen=True)
class SweepResult:
    """Table of (family parameter, lambda1T) rows from one sweep."""

    parameter: str
    rows: tuple
    degree: int
    quad_nodes: int
    trend_violations: tuple

    def to_csv(self) -> str:
        lines = ["param,lambda1T,degree,quad_nodes"]
        for param, lam in self.rows:
            lines.append(f"{param!r},{lam!r},{self.degree},{self.quad_nodes}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "parameter": self.parameter,
            "rows": [{self.parameter: p, "lambda1T": lam} for p, lam in self.rows],
            "degree": self.degree,
            "quad_nodes": self.quad_nodes,
            "trend_violations": list(self.trend_violations),
        }


def _sweep(parameter, params, potentials, degree, Q, trend) -> SweepResult:
    """lambda1T of each potential on one trial space; row i is flagged when
    trend(lambda1T_i, lambda1T_{i-1}) is false."""
    rows = tuple((p, r.lambda1T) for p, r in zip(params, _ritz(potentials, degree, Q)))
    violations = tuple(i for i in range(1, len(rows)) if not trend(rows[i][1], rows[i - 1][1]))
    return SweepResult(parameter, rows, degree, quad_nodes=len(Q), trend_violations=violations)


def sweep_uc(
    P: LabelledPolytope,
    axis: int,
    c_list,
    degree: int = 6,
    Q: QuadratureRule | None = None,
    order: int = 3,
    depth: int = 2,
) -> SweepResult:
    """lambda1T along the quadratic perturbation family; the values decrease
    toward 0 as c grows.  Rows violating the decreasing trend are flagged,
    not rejected."""
    c_list = [float(c) for c in c_list]
    if any(c < 0 for c in c_list) or sorted(c_list) != c_list:
        raise ValueError("c_list must be nonnegative and ascending")
    if Q is None:
        Q = build_quadrature(P, order, depth)
    potentials = [guillemin(P) if c == 0 else quadratic_perturbed(P, axis, c) for c in c_list]
    return _sweep("c", c_list, potentials, degree, Q, lambda lam, prev: lam < prev + 1e-8)


def sweep_dilation(
    P: LabelledPolytope,
    s_list,
    degree: int = 6,
    Q: QuadratureRule | None = None,
    order: int = 3,
    depth: int = 2,
) -> SweepResult:
    """lambda1T along the dilation family for s decreasing toward 1.

    The polytope is auto-centered.  Values stay above the Guillemin lambda1T
    and grow as s drops to 1; the growth need not be monotone, so violations
    are flagged rather than raised.
    """
    s_list = [float(s) for s in s_list]
    if any(s <= 1 for s in s_list):
        raise ValueError("dilation parameters must satisfy s > 1")
    if sorted(s_list, reverse=True) != s_list:
        raise ValueError("s_list must be strictly decreasing toward 1")
    Pc, _shift = center_polytope(P)
    if Q is None:
        Q = build_quadrature(Pc, order, depth)
    elif Q.polytope != Pc:
        raise ValueError("quadrature must be built on the centered polytope")
    potentials = [dilation(Pc, s) for s in s_list]
    return _sweep("s", s_list, potentials, degree, Q, lambda lam, prev: lam > prev - 1e-8)
