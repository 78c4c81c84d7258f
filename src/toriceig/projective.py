"""Lattice-point projective embedding, balanced weights and saturation.

An integral Delzant polytope with lattice points m_0, ..., m_N embeds the
manifold into CP^N through the monomial sections; only the magnitudes
|Z_m|^2 matter here.  For the canonical potential they close up to the
boundary as the product  prod_i L_i(x)^{L_i(m)};  for a general potential the
interior formula  |Z_m|^2 = exp(2 m . du/dx)  (normalized so the distinguished
point m_0 = 0 gives 1) is used.

The diagonal moment-map components

    Psi_mm = alpha_m^2 |Z_m|^2 / sum_j alpha_j^2 |Z_j|^2

sum to one pointwise.  `balance` finds positive weights alpha making every
Psi_mm average to vol/(N+1) by a multiplicative fixed point, and
`saturation_check` tests the identities that characterize equality in the
lattice-point eigenvalue bound (they force the standard simplex and the
canonical metric).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polytope import BlyBound, LabelledPolytope, PolytopeError, _fraction_to_json
from .potential import SymplecticPotential
from .quadrature import QuadratureRule
from .sampling import facet_values, interior_points, polytope_scale

__all__ = [
    "ProjectiveError",
    "NoConvergence",
    "EmbeddingData",
    "BalanceWeights",
    "SaturationReport",
    "BoundReport",
    "build_embedding",
    "z_squared",
    "psi_mm",
    "psi_diag",
    "balance",
    "saturation_check",
    "bound_report",
    "is_standard_simplex",
]


class ProjectiveError(Exception):
    pass


class NoConvergence(ProjectiveError):
    """The balance iteration did not reach the tolerance within max_iter
    steps, or a step left the floating-point range."""


@dataclass(frozen=True)
class EmbeddingData:
    """Lattice embedding data, in coordinates translated so the
    lexicographically smallest lattice point m0 sits at the origin."""

    polytope: LabelledPolytope  # translated copy
    original: LabelledPolytope
    m0: tuple  # distinguished point in the original coordinates
    points: tuple  # translated lattice points, sorted, points[0] = 0
    exponents: np.ndarray  # exponents[m, i] = L_i(points[m]), nonnegative ints

    @property
    def n(self) -> int:
        return self.polytope.dim

    @property
    def count(self) -> int:
        return len(self.points)

    @property
    def N(self) -> int:
        return len(self.points) - 1


def build_embedding(P: LabelledPolytope) -> EmbeddingData:
    """Embedding data for an integral Delzant polytope."""
    if not P.is_delzant():
        raise PolytopeError("embedding needs a Delzant polytope")
    if not P.is_integral():
        raise PolytopeError("embedding needs an integral polytope")
    lattice = P.lattice_points(1)
    if lattice.n_k + 1 < 2:
        raise PolytopeError("need at least two lattice points")
    m0 = lattice.points[0]
    translated = P.translated(m0)
    points = tuple(
        tuple(int(c - s) for c, s in zip(p, m0)) for p in lattice.points
    )
    exponents = np.array(
        [[int(v) for v in translated.defining_values(p)] for p in points],
        dtype=np.int64,
    )
    return EmbeddingData(
        polytope=translated,
        original=P,
        m0=tuple(int(v) for v in m0),
        points=points,
        exponents=exponents,
    )


def _point_index(E: EmbeddingData, m) -> int:
    if isinstance(m, (int, np.integer)):
        return int(m)
    key = tuple(int(v) for v in m)
    try:
        return E.points.index(key)
    except ValueError as exc:
        raise ValueError(f"{key} is not a lattice point of the embedding") from exc


def _log_z2_nodes(E: EmbeddingData, u: SymplecticPotential, X: np.ndarray) -> np.ndarray:
    """log |Z_m|^2 at the rows of X, shape (len(X), N+1).

    Guillemin kind: sum_i L_i(m) log L_i(x) (continuous up to the boundary,
    with 0 * log 0 = 0).  Other kinds: 2 m . du/dx, interior only.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if u.kind == "guillemin":
        L = facet_values(u.polytope, X)  # (q, d)
        inside = L > 0
        expo = E.exponents.astype(float)  # (N+1, d)
        out = np.log(np.where(inside, L, 1.0)) @ expo.T  # a facet with L <= 0 adds 0 here
        out[(~inside).astype(float) @ expo.T > 0] = -np.inf  # ... unless its exponent is > 0
        return out
    grads = u.gradient(X)  # raises BoundaryPoint near dP
    pts = np.array(E.points, dtype=float)
    return 2.0 * grads @ pts.T


def z_squared(E: EmbeddingData, u: SymplecticPotential, m, x) -> float:
    """|Z_m|^2 at x (translated coordinates); m is an index or a lattice point."""
    if u.polytope != E.polytope:
        raise ValueError("potential must live on the embedding's translated polytope")
    idx = _point_index(E, m)
    log_z2 = _log_z2_nodes(E, u, np.asarray(x, dtype=float)[None, :])[0, idx]
    return float(np.exp(log_z2))


def _normalized_alpha(alpha, count: int) -> np.ndarray:
    if isinstance(alpha, BalanceWeights):
        alpha = alpha.alpha
    a = np.asarray(alpha, dtype=float)
    if a.shape != (count,):
        raise ValueError(f"need {count} weights, got shape {a.shape}")
    if np.any(a <= 0):
        raise ValueError("weights must be positive")
    return a


def psi_diag(E: EmbeddingData, u: SymplecticPotential, alpha, x) -> np.ndarray:
    """All diagonal components Psi_mm(x); they sum to 1."""
    if u.polytope != E.polytope:
        raise ValueError("potential must live on the embedding's translated polytope")
    a = _normalized_alpha(alpha, E.count)
    logw = _log_z2_nodes(E, u, np.asarray(x, dtype=float)[None, :])[0] + 2.0 * np.log(a)
    logw -= np.max(logw)
    w = np.exp(logw)
    return w / np.sum(w)


def psi_mm(E: EmbeddingData, u: SymplecticPotential, alpha, m, x) -> float:
    """One diagonal component Psi_mm(x) in [0, 1]."""
    return float(psi_diag(E, u, alpha, x)[_point_index(E, m)])


@dataclass(frozen=True)
class BalanceWeights:
    """Positive weights with sum(alpha) = 1 and the achieved balance residual
    max_m |(1/vol) integral Psi_mm - 1/(N+1)|."""

    alpha: np.ndarray
    residual: float
    iterations: int

    def to_dict(self) -> dict:
        a0 = float(self.alpha[0])
        return {
            "alpha": [float(v) for v in self.alpha],
            "alpha_over_alpha0": [float(v) / a0 for v in self.alpha],
            "residual": self.residual,
            "iterations": self.iterations,
        }


def balance(
    E: EmbeddingData,
    u: SymplecticPotential,
    Q: QuadratureRule,
    tol: float = 1e-10,
    max_iter: int = 200,
    start=None,
) -> BalanceWeights:
    """Multiplicative fixed point for the balanced weights:
    alpha_m^2 <- alpha_m^2 * target / integral Psi_mm, renormalized to
    sum(alpha) = 1, until every average matches 1/(N+1).  A step that
    overflows, divides by zero or makes an invalid value raises
    NoConvergence at once."""
    if u.polytope != E.polytope or Q.polytope != E.polytope:
        raise ValueError("potential, quadrature and embedding must share one polytope")
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    count = E.count
    if start is None:
        alpha = np.full(count, 1.0 / count)
    else:
        alpha = _normalized_alpha(start, count)
        alpha = alpha / np.sum(alpha)
    vol = float(Q.exact_volume)
    target = vol / count
    # Psi_mm = Z_m a_m^2 / sum_j Z_j a_j^2 with Z = |Z|^2 scaled per node by
    # its largest entry; Z does not depend on alpha, so it is built once.
    logz2 = _log_z2_nodes(E, u, Q.nodes)
    Z = np.exp(logz2 - np.max(logz2, axis=1, keepdims=True))
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for iteration in range(max_iter + 1):
                a2 = alpha**2
                averages = ((Q.weights / (Z @ a2)) @ Z) * a2
                residual = float(np.max(np.abs(averages / vol - 1.0 / count)))
                if residual < tol:
                    return BalanceWeights(alpha=alpha, residual=residual, iterations=iteration)
                alpha = alpha * np.sqrt(target / averages)
                alpha = alpha / np.sum(alpha)
    except FloatingPointError as exc:
        raise NoConvergence(
            f"balance step {iteration} left the floating-point range: {exc}"
        ) from exc
    raise NoConvergence(f"balance residual {residual:.3e} after {max_iter} iterations")


@dataclass(frozen=True)
class SaturationReport:
    """Residuals of the equality-case identities.

    r1: the slope identity  dPsi_00(m) = -n/N  over lattice directions.
    r2: affineness of Psi_mm for lattice points adjacent to the origin vertex.
    Both vanish exactly when the bound is saturated, which forces the standard
    simplex and the canonical (Fubini-Study) metric.
    """

    r1: float
    r2: float
    saturated: bool
    classification: str
    tol: float

    def to_dict(self) -> dict:
        return {
            "r1": self.r1,
            "r2": self.r2,
            "saturated": self.saturated,
            "classification": self.classification,
            "tol": self.tol,
        }


def is_standard_simplex(P: LabelledPolytope) -> bool:
    """True iff P is a unimodular image of the standard simplex: a simplex
    whose only lattice points are its n+1 vertices."""
    if P.num_facets != P.dim + 1:
        return False
    if not (P.is_delzant() and P.is_integral()):
        return False
    return P.lattice_points(1).n_k == P.dim


def saturation_check(
    E: EmbeddingData,
    u: SymplecticPotential,
    alpha,
    Q: QuadratureRule,
    tol: float | None = None,
    samples: int = 60,
) -> SaturationReport:
    """Numerical test of the saturation identities under balanced weights."""
    if u.polytope != E.polytope:
        raise ValueError("potential must live on the embedding's translated polytope")
    if tol is None:
        tol = 1e-6
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    a = _normalized_alpha(alpha, E.count)
    P = E.polytope
    n, N = E.n, E.N
    pts = interior_points(P, samples, min_facet=polytope_scale(P) * 2e-2)
    pts_arr = np.array(E.points, dtype=float)

    logz2 = _log_z2_nodes(E, u, pts)
    logw = logz2 + 2.0 * np.log(a)
    logw -= np.max(logw, axis=1, keepdims=True)
    w = np.exp(logw)
    psi = w / np.sum(w, axis=1, keepdims=True)  # (q, N+1)

    # gradient of log |Z_m|^2 = 2 m . du/dx at each sample.  For the Guillemin
    # kind the true gradient differs by sum_i c_i nu_i / L_i, the same for
    # every m, which cancels in grad Psi_00 because the Psi_mm sum to 1.
    glog = 2.0 * np.einsum("qij,mj->qmi", u.sample(pts).G, pts_arr)

    grad_psi00 = psi[:, 0:1] * (glog[:, 0, :] - np.einsum("qm,qmi->qi", psi, glog))
    directional = np.einsum("qi,mi->qm", grad_psi00, pts_arr[1:])  # skip m = 0
    r1 = float(np.max(np.abs(directional + n / N)))

    # Psi_mm should be affine for lattice points adjacent to the origin vertex
    verts = P.vertices()
    origin = next(v for v in verts if all(c == 0 for c in v.coords))
    adjacent = [
        v.coords
        for v in verts
        if v is not origin and len(set(v.active) & set(origin.active)) == n - 1
    ]
    design = np.hstack([np.ones((len(pts), 1)), pts])
    r2 = 0.0
    for m in adjacent:
        idx = _point_index(E, m)
        y = psi[:, idx]
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        r2 = max(r2, float(np.max(np.abs(y - design @ coef))))

    saturated = r1 < tol and r2 < tol
    if saturated:
        classification = "fubini-study" if is_standard_simplex(P) else "contradiction"
    else:
        classification = "none"
    return SaturationReport(
        r1=r1, r2=r2, saturated=saturated, classification=classification, tol=tol
    )


@dataclass(frozen=True)
class BoundReport:
    """Eigenvalue bounds 2nk(N_k+1)/N_k tabulated for k = k0 .. k0+4."""

    k0: int
    bounds: tuple
    integral_bound: object
    recommended: Fraction

    def to_dict(self) -> dict:
        return {
            "k0": self.k0,
            "bounds": [b.to_dict() for b in self.bounds],
            "integral_bound": self.integral_bound.to_dict() if self.integral_bound else None,
            "recommended": _fraction_to_json(self.recommended),
        }


def bound_report(P: LabelledPolytope, k_max: int = 64) -> BoundReport:
    """Tabulate the lattice-point bound over k0 .. k0+4 (exact rationals).

    k0 is searched once and its accepted lattice data is the first row; an
    integral P has k0 = 1 (its vertices are lattice points, so P_1 = P).
    """
    first = P.k0_lattice(k_max)
    k_first = first.k
    rows = (first, *(P.lattice_points(k) for k in range(k_first + 1, k_first + 5)))
    bounds = tuple(BlyBound.from_lattice(P.dim, data) for data in rows)
    integral = bounds[0] if P.is_integral() else None
    recommended = min(b.bound for b in bounds)
    return BoundReport(
        k0=k_first, bounds=bounds, integral_bound=integral, recommended=recommended
    )
