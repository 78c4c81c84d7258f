"""Symplectic potentials on a labelled polytope.

A potential u is a strictly convex function on the interior of P whose
Hessian G = Hess u and inverse H = G^{-1} encode a torus-invariant Kahler
metric.  Every kind here has the Guillemin/Abreu form

    u = 1/2 sum_k psi(L_k) + v,    G = 1/2 sum_k psi''(L_k) nu_k nu_k^T + Hess v

for a facet profile psi and a polynomial v, so the value, gradient, G, dG and
d2G are the facet sums 1/2 sum_k psi^(r)(L_k) nu_k^(r-fold tensor) for
r = 0..4 plus the exact derivatives of v: every kind has them in closed form.
The kinds differ only in psi and v:

* ``guillemin``            -- psi(L) = L log L - L, v = 0 (the canonical u0);
* ``quadratic_perturbed``  -- v = (c/2) x_i^2, which degenerates H along
                              axis i as c grows;
* ``dilation``             -- psi(L) - psi(L + (s-1) L(p))/s, i.e. u0 - u0^s/s
                              for P dilated by s about its vertex barycenter
                              p, which blows H up as s drops to 1;
* ``guillemin_plus_poly``  -- any polynomial v, validity checked by sampling.

Points are arrays of shape (..., n): every method evaluates on the last axis
and puts the batch axes in front.  The facet sums are elementwise array
operations over all points at once, so a row of a batch gets exactly the
bits of a one-point call, and each tensor entry is a copy of the entry of
its sorted index, so the tensors are exactly symmetric.  `sample` factors
G = R R^T in closed form on its (n, n, ...) entry arrays: no step calls
LAPACK or BLAS once per point.  All evaluation happens at strictly interior
points (every L_i >= EPS_INTERIOR) because G entries scale like 1/L_i.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .polynomials import MultiPoly
from .polytope import LabelledPolytope
from .sampling import facet_proximal_points, facet_values, interior_points, polytope_scale

EPS_INTERIOR = 1e-10

__all__ = [
    "EPS_INTERIOR",
    "PotentialError",
    "BoundaryPoint",
    "NotPositiveDefinite",
    "HessianSample",
    "SymplecticPotential",
    "QuadraticPerturbedPotential",
    "DilationPotential",
    "GuilleminPlusPolyPotential",
    "guillemin",
    "quadratic_perturbed",
    "dilation",
    "guillemin_plus_poly",
    "potential_from_spec",
    "validate",
    "dilation_limit_B",
]


class PotentialError(Exception):
    pass


class BoundaryPoint(PotentialError):
    """Evaluation point violates the interior guard L_i >= EPS_INTERIOR."""


class NotPositiveDefinite(PotentialError):
    """The Hessian failed to be positive definite at an evaluation point."""


@dataclass(frozen=True, eq=False)
class HessianSample:
    """Hessian G and inverse H at points of shape (..., n), batch axes in front."""

    G: np.ndarray
    H: np.ndarray


# psi^(r) for the Guillemin profile psi(L) = L log L - L, r = 0..4
_LOG_PROFILE = (
    lambda L: L * np.log(L) - L,
    np.log,
    lambda L: 1.0 / L,
    lambda L: -1.0 / L**2,
    lambda L: 2.0 / L**3,
)


class SymplecticPotential:
    """u = 1/2 sum_k psi(L_k) + v.  This base class is the Guillemin kind;
    the other kinds change only `profile` and the added polynomial."""

    kind = "guillemin"
    added: MultiPoly | None = None  # the polynomial v

    def __init__(self, polytope: LabelledPolytope):
        self.polytope = polytope
        self._terms = {}  # order -> `_facet_terms(order)`, built on first use

    def _facet_terms(self, order: int) -> tuple:
        """(terms, (dst, src)) for the order-th derivative of 1/2 sum_k
        psi(L_k), flattened to n**order entries: terms pairs each entry e of
        sorted index i_1 <= ... <= i_r with its nonzero (k, 1/2 nu_k[i_1] ...
        nu_k[i_r]), which are exact; entry dst[j] is a copy of entry src[j]."""
        if order not in self._terms:
            terms, first, dst, src = [], {}, [], []
            for e, idx in enumerate(itertools.product(range(self.polytope.dim), repeat=order)):
                key = tuple(sorted(idx))  # first met as idx itself
                if key in first:
                    dst.append(e)
                    src.append(first[key])
                    continue
                first[key] = e
                coeffs = [0.5 * math.prod([nu[i] for i in idx]) for nu in self.polytope.normals]
                terms.append((e, [(k, c) for k, c in enumerate(coeffs) if c != 0]))
            self._terms[order] = (terms, (np.array(dst, dtype=int), np.array(src, dtype=int)))
        return self._terms[order]

    def profile(self, L: np.ndarray, order: int) -> np.ndarray:
        """psi^(order) at every facet value in L."""
        return _LOG_PROFILE[order](L)

    # -- interior guard -------------------------------------------------------

    def _interior_L(self, x) -> np.ndarray:
        L = facet_values(self.polytope, x)
        if L.min() < EPS_INTERIOR:
            low = L.min(axis=-1)
            worst = np.unravel_index(np.argmin(low), low.shape)
            raise BoundaryPoint(
                f"point {np.asarray(x, float)[worst]} has facet value "
                f"{low[worst]:.3e} < {EPS_INTERIOR}"
            )
        return L

    # -- values, gradients, Hessians -------------------------------------------

    def _entries(self, x, order: int) -> np.ndarray:
        """The order-th derivative tensor of u at x as entry arrays, shape
        (n**order,) + batch: 1/2 sum_k psi^(order)(L_k) nu_k^(order-fold),
        summed in facet order from +0 over the nonzero terms, plus that
        derivative of v."""
        L = self._interior_L(x)
        psi = self.profile(L, order)
        terms, (dst, src) = self._facet_terms(order)
        T = np.zeros((self.polytope.dim**order,) + L.shape[:-1])
        for e, entry in terms:
            row = T[e, ...]
            for k, coeff in entry:
                row += psi[..., k] * coeff
        T[dst] = T[src]
        if self.added is not None:
            D = self.added.derivatives(x, order).reshape(L.shape[:-1] + (-1,))
            T += np.moveaxis(D, -1, 0)
        return T

    def _derivative(self, x, order: int) -> np.ndarray:
        """The order-th derivative tensor of u at x, batch axes in front."""
        T = self._entries(x, order)
        shape = T.shape[1:] + (self.polytope.dim,) * order
        return np.ascontiguousarray(np.moveaxis(T, 0, -1)).reshape(shape)

    def value(self, x):
        return self._derivative(x, 0)[()]

    def gradient(self, x) -> np.ndarray:
        return self._derivative(x, 1)

    def hessian(self, x) -> np.ndarray:
        return self._derivative(x, 2)

    def hessian_derivative(self, x) -> np.ndarray:
        """dG[..., i, j, m] = d G_ij / d x_m."""
        return self._derivative(x, 3)

    def hessian_second_derivative(self, x) -> np.ndarray:
        """d2G[..., i, j, m, l] = d^2 G_ij / d x_m d x_l."""
        return self._derivative(x, 4)

    def sample(self, x) -> HessianSample:
        """G and H = G^{-1} at interior points.

        G = R R^T is factored in closed form on its (n, n, ...) entry
        arrays; a nonpositive or NaN pivot raises NotPositiveDefinite naming
        the point with the smallest Hessian eigenvalue.
        """
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        G = self._entries(x, 2).reshape((n, n) + x.shape[:-1])
        # R column by column as LAPACK's unblocked potf2 forms it: the pivot
        # G_jj - sum_k R_jk^2, its square root, and the entries below it
        # times the root's reciprocal.  W holds R on and below its diagonal.
        W = np.empty_like(G)
        for j in range(n):
            pivot = G[j, j] - sum(W[j, k] * W[j, k] for k in range(j))
            if not np.all(pivot > 0):  # also false on a NaN pivot
                raise _not_positive_definite(x, np.moveaxis(G, (0, 1), (-2, -1)))
            W[j, j] = np.sqrt(pivot)
            recip = 1.0 / W[j, j]
            for i in range(j + 1, n):
                W[i, j] = (G[i, j] - sum(W[i, k] * W[j, k] for k in range(j))) * recip
        # R^{-1} over R by forward substitution, then H = R^{-T} R^{-1} over
        # R^{-1}: the entries above the diagonal first, which read only those
        # on or below it, then the diagonal, then the copies below it.
        for i in range(n):
            row = W[i, : i + 1].copy()
            W[i, :i] = 0.0
            W[i, i] = 1.0
            for k in range(i):
                W[i, : k + 1] -= row[k] * W[k, : k + 1]
            W[i, : i + 1] /= row[i]
        for a, b in itertools.combinations(range(n), 2):
            W[a, b] = sum(W[k, a] * W[k, b] for k in range(b, n))
        for a in range(n):
            W[a, a] = sum(W[k, a] * W[k, a] for k in range(a, n))
        for a, b in itertools.combinations(range(n), 2):
            W[b, a] = W[a, b]
        return HessianSample(
            G=np.moveaxis(G, (0, 1), (-2, -1)), H=np.moveaxis(W, (0, 1), (-2, -1))
        )


def _not_positive_definite(x: np.ndarray, G: np.ndarray) -> NotPositiveDefinite:
    """The error naming the point whose Hessian G (batch axes in front) has
    the smallest eigenvalue; a point with a non-finite entry counts as the
    smallest."""
    finite = np.isfinite(G).all(axis=(-2, -1))
    low = np.linalg.eigvalsh(np.where(finite[..., None, None], G, 0.0))[..., 0]
    low = np.where(finite, low, np.nan)
    worst = np.unravel_index(np.argmin(low), low.shape)  # the first NaN, if any
    return NotPositiveDefinite(
        f"Hessian not positive definite at {x[worst]} (smallest eigenvalue {low[worst]:.3e})"
    )


class QuadraticPerturbedPotential(SymplecticPotential):
    """u0 + (c/2) x_axis^2.  The Hessian gains c on the (axis, axis) entry;
    all higher derivatives coincide with the Guillemin ones."""

    kind = "quadratic_perturbed"

    def __init__(self, polytope: LabelledPolytope, axis: int, c: float):
        super().__init__(polytope)
        if not 0 <= axis < polytope.dim:
            raise ValueError(f"axis {axis} out of range for dim {polytope.dim}")
        if not math.isfinite(c):
            raise ValueError(f"perturbation strength c must be finite, got {c}")
        if c < 0:
            raise ValueError("perturbation strength c must be >= 0")
        self.axis = axis
        self.c = float(c)
        square = tuple(2 if j == axis else 0 for j in range(polytope.dim))
        self.added = MultiPoly(polytope.dim, {square: 0.5 * self.c})


def _barycenter_values(P: LabelledPolytope) -> np.ndarray:
    """L_k(p) at the vertex barycenter p of P, exact before rounding; all
    positive, and equal to the offsets c_k when p = 0."""
    return np.array([float(v) for v in P.defining_values(P.vertex_barycenter())])


class DilationPotential(SymplecticPotential):
    """u0 - u0^s / s where u0^s is the Guillemin potential of P dilated by
    s > 1 about its vertex barycenter p: the profile psi(L) - psi(L + (s-1)
    L(p))/s, since the facet values of p + s(P - p) are L + (s-1) L(p).  The
    potential lives on P itself, in the input's coordinates.
    """

    kind = "dilation"

    def __init__(self, polytope: LabelledPolytope, s: float):
        if not s > 1:
            raise ValueError("dilation parameter s must be > 1")
        if not math.isfinite(s):
            raise ValueError(f"dilation parameter s must be finite, got {s}")
        super().__init__(polytope)
        self.s = float(s)
        self._Lp = _barycenter_values(polytope)

    def profile(self, L: np.ndarray, order: int) -> np.ndarray:
        psi = _LOG_PROFILE[order]
        return psi(L) - psi(L + (self.s - 1.0) * self._Lp) / self.s


class GuilleminPlusPolyPotential(SymplecticPotential):
    """u0 + v for a polynomial v.  There is no algorithmic membership test for
    the valid-potential class, so positivity of the Hessian is checked by
    sampling at construction (disable with check=False to inspect a bad v via
    validate()).  dG and d2G add the exact derivatives of v, as for every kind."""

    kind = "guillemin_plus_poly"

    def __init__(self, polytope: LabelledPolytope, poly: MultiPoly, check: bool = True):
        super().__init__(polytope)
        if poly.nvars != polytope.dim:
            raise ValueError("polynomial variable count must match the polytope dimension")
        if not all(math.isfinite(c) for c in poly.terms.values()):
            raise ValueError("polynomial coefficients must be finite")
        self.added = poly
        if check:
            report = validate(self)
            if not report["passed"]:
                raise NotPositiveDefinite(
                    f"Hessian of u0 + v fails positivity: worst margin {report['worst_margin']:.3e}"
                )


# -- constructors -------------------------------------------------------------


def guillemin(P: LabelledPolytope) -> SymplecticPotential:
    return SymplecticPotential(P)


def quadratic_perturbed(P: LabelledPolytope, axis: int, c: float) -> QuadraticPerturbedPotential:
    return QuadraticPerturbedPotential(P, axis, c)


def dilation(P: LabelledPolytope, s: float) -> DilationPotential:
    return DilationPotential(P, s)


def guillemin_plus_poly(
    P: LabelledPolytope, poly: MultiPoly, check: bool = True
) -> GuilleminPlusPolyPotential:
    return GuilleminPlusPolyPotential(P, poly, check=check)


def _spec_params(spec: str, keys: set, usage: str) -> dict:
    """The "key=value" pairs after the colon of `spec`; each of `keys` must
    appear exactly once, and nothing else."""
    pairs = [part.partition("=") for part in spec.partition(":")[2].split(",")]
    params = {key.strip(): value for key, _, value in pairs}
    if any(not sep for _, sep, _ in pairs) or len(params) != len(pairs) or set(params) != keys:
        raise ValueError(f"bad potential spec {spec!r}: need {usage}")
    return params


def potential_from_spec(P: LabelledPolytope, spec: str) -> SymplecticPotential:
    """Parse a CLI potential description.

    Accepted forms: "guillemin", "uc:i=<axis>,c=<float>", "dilation:s=<float>",
    "poly:<coefficient JSON file>".  The polynomial file holds a list of
    {"exponents": [...], "coeff": <number>} entries: distinct exponents of
    one integer >= 0 per dimension, and numeric (not boolean) coefficients.
    """
    spec = spec.strip()
    if spec == "guillemin":
        return guillemin(P)
    if spec.startswith("uc:"):
        params = _spec_params(spec, {"i", "c"}, "uc:i=<axis>,c=<float>")
        return quadratic_perturbed(P, int(params["i"]), float(params["c"]))
    if spec.startswith("dilation:"):
        return dilation(P, float(_spec_params(spec, {"s"}, "dilation:s=<float>")["s"]))
    if spec.startswith("poly:"):
        import json

        path = spec[len("poly:") :]
        with open(path, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
        try:
            terms = {tuple(e["exponents"]): e["coeff"] for e in entries}
            coeffs = {expo: float(c) for expo, c in terms.items()}
        except (TypeError, KeyError, OverflowError) as exc:
            raise ValueError(
                f"bad polynomial file {path!r}: need a list of "
                '{"exponents": [...], "coeff": <float>} entries'
            ) from exc
        # checked before MultiPoly, which drops zero terms, so that an inexact
        # file is refused whatever its coefficients and the message names it
        if len(terms) != len(entries) or not all(
            len(expo) == P.dim
            and all(type(k) is int and k >= 0 for k in expo)
            and type(c) in (int, float)
            for expo, c in terms.items()
        ):
            raise ValueError(
                f"bad polynomial file {path!r}: need distinct exponents of {P.dim} "
                "integers >= 0 each and numeric coefficients"
            )
        return guillemin_plus_poly(P, MultiPoly(P.dim, coeffs))
    raise ValueError(f"unknown potential spec {spec!r}")


# -- operations ----------------------------------------------------------------


def validate(u: SymplecticPotential) -> dict:
    """Sample-based validity report for u.

    Checks G > 0 at 40 deterministic interior (Halton) points and at probes
    approaching each facet (distances 1e-2 .. 1e-6 of the polytope's scale).
    Failures are collected in the report, never raised.
    """
    P = u.polytope
    distances = [polytope_scale(P) * 10.0**-e for e in range(2, 7)]
    checks = [(x, "interior") for x in interior_points(P, 40)]
    checks += [
        (x, f"near facet {i} (distance {d:.1e})") for i, d, x in facet_proximal_points(P, distances)
    ]
    X = np.array([x for x, _ in checks])
    inside = np.min(facet_values(P, X), axis=-1) >= EPS_INTERIOR  # probes below are skipped
    lowest = np.linalg.eigvalsh(u.hessian(X[inside]))[:, 0]  # G is exactly symmetric
    failures = [
        {"point": list(map(float, x)), "where": where, "margin": float(low)}
        for (x, where), low in zip(itertools.compress(checks, inside), lowest)
        if low <= 0
    ]
    worst = float(np.min(lowest, initial=np.inf))
    return {"passed": not failures, "worst_margin": worst, "failures": failures}


def dilation_limit_B(P: LabelledPolytope, x) -> np.ndarray:
    """The s->1 limit of G^s/(s-1) for `dilation(P, s)`:
    B_x = 1/2 sum (L_k + L_k(p))/L_k^2 nu_k nu_k^T, p the vertex barycenter."""
    A, _ = P.float_facets()
    L = facet_values(P, x)
    if np.min(L) < EPS_INTERIOR:
        raise BoundaryPoint(f"point {x} is not interior")
    coeff = (L + _barycenter_values(P)) / L**2
    return 0.5 * np.einsum("k,ki,kj->ij", coeff, A, A)
