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
and puts the batch axes in front.  Each point is a (1 x d) row-vector product
of its own, so a row of a batch gets exactly the bits of a one-point call.
All evaluation happens at strictly interior points (every L_i >= EPS_INTERIOR)
because G entries scale like 1/L_i.
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


@dataclass(frozen=True)
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
        self._A, self._c = polytope.float_facets()  # d x n, d
        # 1/2 nu_k tensored r times and flattened, r = 0..4: shape (d, n**r)
        self._half_nu_powers = [np.full((len(self._A), 1), 0.5)]
        for _ in range(4):
            self._half_nu_powers.append(
                np.einsum("ka,ki->kai", self._half_nu_powers[-1], self._A).reshape(len(self._A), -1)
            )

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

    def _derivative(self, x, order: int) -> np.ndarray:
        """The order-th derivative tensor of u at x, 1/2 sum_k psi^(order)(L_k)
        nu_k^(order-fold), plus that derivative of v."""
        L = self._interior_L(x)
        total = self.profile(L, order)[..., None, :] @ self._half_nu_powers[order]
        total = total.reshape(L.shape[:-1] + (self._A.shape[1],) * order)
        if self.added is not None:
            total = total + self.added.derivatives(x, order)
        return total

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

        H is produced by a symmetric (Cholesky) factorization; a nonpositive
        pivot raises NotPositiveDefinite naming the point with the smallest
        Hessian eigenvalue.
        """
        x = np.asarray(x, dtype=float)
        G = self.hessian(x)
        G = 0.5 * (G + G.swapaxes(-1, -2))
        try:
            R = np.linalg.cholesky(G)
        except np.linalg.LinAlgError as exc:
            low = np.linalg.eigvalsh(G)[..., 0]
            worst = np.unravel_index(np.argmin(low), low.shape)
            raise NotPositiveDefinite(
                f"Hessian not positive definite at {x[worst]} "
                f"(smallest eigenvalue {low[worst]:.3e})"
            ) from exc
        # R^{-1} by forward substitution and H = R^{-T} R^{-1}, one entry
        # array over all points at a time, on a contiguous (n, n, ...) copy of
        # R (the strided factor is dropped before R^{-1} is allocated); H
        # comes out exactly symmetric.
        n = G.shape[-1]
        R = np.ascontiguousarray(np.moveaxis(R, (-2, -1), (0, 1)))
        Rinv = np.zeros_like(R)
        for i in range(n):
            Rinv[i, i] = 1.0
            for k in range(i):
                Rinv[i, : k + 1] -= R[i, k] * Rinv[k, : k + 1]
            Rinv[i, : i + 1] /= R[i, i]
        H = np.empty_like(Rinv)
        for a, b in itertools.combinations_with_replacement(range(n), 2):
            H[a, b] = H[b, a] = sum(Rinv[k, a] * Rinv[k, b] for k in range(b, n))
        return HessianSample(G=G, H=np.moveaxis(H, (0, 1), (-2, -1)))


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
    G = u.hessian(X[inside])
    G = 0.5 * (G + G.swapaxes(-1, -2))
    lowest = np.linalg.eigvalsh(G)[:, 0]
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
