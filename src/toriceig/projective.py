"""Lattice-point projective embedding, balanced weights and saturation.

An integral Delzant polytope with lattice points m_0, ..., m_N embeds the
manifold into CP^N through the monomial sections; only the magnitudes
|Z_m|^2 matter here.  For the canonical potential they close up to the
boundary as the product  prod_i L_i(x)^{L_i(m)};  for a general potential the
interior formula  |Z_m|^2 = exp(2 m . du/dx)  (normalized so the distinguished
point m_0 = 0 gives 1) is used.

The diagonal moment-map components

    Psi_mm = alpha_m^2 |Z_m|^2 / sum_j alpha_j^2 |Z_j|^2

sum to one pointwise.  `psi_diag` evaluates them on points of shape (..., n)
as the columns of one array, column m for the lattice point E.points[m].
`balance` finds positive weights alpha making every Psi_mm average to
vol/(N+1) by a multiplicative fixed point on one |Z|^2 table at the nodes,
shifted and exponentiated in place, with two GEMVs a step, and
`saturation_check` tests the identities that characterize equality in the
lattice-point eigenvalue bound (they force the standard simplex and the
canonical metric).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polytope import BlyBound, LabelledPolytope, PolytopeError
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


@dataclass(frozen=True, eq=False)
class EmbeddingData:
    """Lattice embedding data, in coordinates translated so the
    lexicographically smallest lattice point m0 sits at the origin."""

    polytope: LabelledPolytope  # translated copy
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
    m0 = tuple(lattice.points[0].tolist())
    translated = P.translated(m0)
    pts = (lattice.points - lattice.points[0]).astype(np.int64)
    offsets = np.array([int(c) for c in translated.offsets], dtype=np.int64)
    exponents = pts @ np.array(translated.normals, dtype=np.int64).T + offsets
    return EmbeddingData(
        polytope=translated,
        m0=m0,
        points=tuple(map(tuple, pts.tolist())),
        exponents=exponents,
    )


def _log_z2_nodes(E: EmbeddingData, u: SymplecticPotential, X) -> np.ndarray:
    """log |Z_m|^2 at points X of shape (..., n), shape (..., N+1).

    Guillemin kind: sum_i L_i(m) log L_i(x) (continuous up to the boundary,
    with 0 * log 0 = 0).  Other kinds: 2 m . du/dx, interior only.  Each
    point is a row-vector product of its own, so a row of a batch gets
    exactly the bits of a one-point call.
    """
    X = np.asarray(X, dtype=float)
    if u.kind == "guillemin":
        L = facet_values(u.polytope, X)  # (..., d)
        inside = L > 0
        expo = E.exponents.astype(float)  # (N+1, d)
        # a facet with L <= 0 adds 0 here ...
        out = (np.log(np.where(inside, L, 1.0))[..., None, :] @ expo.T)[..., 0, :]
        if not inside.all():  # quadrature nodes are interior and skip this
            out[(~inside).astype(float) @ expo.T > 0] = -np.inf  # ... unless its exponent is > 0
        return out
    grads = u.gradient(X)  # raises BoundaryPoint near dP
    pts = np.array(E.points, dtype=float)
    return 2.0 * (grads[..., None, :] @ pts.T)[..., 0, :]


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
    """All diagonal components Psi_mm at points x of shape (..., n), as an
    array of shape (..., N+1) that sums to 1 on its last axis.  The
    log-weights are shifted by their largest entry per point before the
    exponential; a row of a batch gets exactly the bits of a one-point call."""
    if u.polytope != E.polytope:
        raise ValueError("potential must live on the embedding's translated polytope")
    a = _normalized_alpha(alpha, E.count)
    logw = _log_z2_nodes(E, u, x) + 2.0 * np.log(a)
    logw -= np.max(logw, axis=-1, keepdims=True)
    w = np.exp(logw)
    return w / np.sum(w, axis=-1, keepdims=True)


@dataclass(frozen=True, eq=False)
class BalanceWeights:
    """Positive weights with sum(alpha) = 1 and the achieved balance residual
    max_m |(1/vol) integral Psi_mm - 1/(N+1)|."""

    alpha: np.ndarray
    residual: float
    iterations: int


def balance(
    E: EmbeddingData,
    u: SymplecticPotential,
    Q: QuadratureRule,
    tol: float = 1e-10,
    max_iter: int = 200,
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
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    count = E.count
    alpha = np.full(count, 1.0 / count)
    vol = float(Q.exact_volume)
    target = vol / count
    # Psi_mm = Z_m a_m^2 / sum_j Z_j a_j^2 with Z = |Z|^2 scaled per node by
    # its largest entry.  Z does not depend on alpha, so it is built once and
    # shifted and exponentiated in place.
    Z = _log_z2_nodes(E, u, Q.nodes)
    Z -= np.max(Z, axis=1, keepdims=True)
    np.exp(Z, out=Z)
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


def is_standard_simplex(P: LabelledPolytope) -> bool:
    """True iff P is a unimodular image of the standard simplex: a simplex
    whose only lattice points are its n+1 vertices."""
    if P.num_facets != P.dim + 1:
        return False
    if not (P.is_delzant() and P.is_integral()):
        return False
    return P.lattice_count(1).n_k == P.dim


_SATURATION_POINTS = 60


def saturation_check(
    E: EmbeddingData,
    u: SymplecticPotential,
    alpha,
    Q: QuadratureRule,
    tol: float | None = None,
) -> SaturationReport:
    """Numerical test of the saturation identities under balanced weights.

    The identities are evaluated at 60 fixed interior points of the
    embedding's polytope (Halton points 2% of its scale inside every facet),
    not on the nodes of Q, which must only live on that polytope, as in
    `balance`.
    """
    if u.polytope != E.polytope or Q.polytope != E.polytope:
        raise ValueError("potential, quadrature and embedding must share one polytope")
    if tol is None:
        tol = 1e-6
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    P = E.polytope
    n, N = E.n, E.N
    pts = interior_points(P, _SATURATION_POINTS, min_facet=polytope_scale(P) * 2e-2)
    pts_arr = np.array(E.points, dtype=float)
    psi = psi_diag(E, u, alpha, pts)  # (q, N+1)

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
        y = psi[:, E.points.index(m)]
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
    """Eigenvalue bounds 2nk(N_k+1)/N_k tabulated for the k of k0 .. k0+4
    whose kP_k has P's type."""

    k0: int
    bounds: tuple
    integral_bound: object
    recommended: Fraction


def bound_report(P: LabelledPolytope, k_max: int = 64) -> BoundReport:
    """Tabulate the lattice-point bound over k0 .. k0+4 (exact rationals).

    k0 is searched once, and the rows come from the same windows of the
    scan; a row whose kP_k has not P's type is dropped, and `recommended` is
    the least bound of the rows kept.  An integral P has k0 = 1 (its
    vertices are lattice points, so P_1 = P).  Every row is counted without
    listing a point.
    """
    rows = P.k0_rows(k_max, rows=5)
    bounds = tuple(BlyBound.from_lattice(P.dim, data) for data in rows)
    integral = bounds[0] if P.is_integral() else None
    recommended = min(b.bound for b in bounds)
    return BoundReport(
        k0=rows[0].k, bounds=bounds, integral_bound=integral, recommended=recommended
    )
