"""Metric geometry of a symplectic potential on points of shape (..., n).

The inverse Hessian H drives everything here.  One batched path,
`hessian_inverse_derivatives`, evaluates H, dH and d2H on the last axis of its
points with the batch axes in front: in closed form from dG and d2G, which
every potential kind has, or on request (method="fd") by central differences
from one `sample` call over the stencils of every point, as a cross-check.  A
row of a batch gets exactly the bits of a one-point call.  From these arrays
follow the invariant Laplacian of any function f of the moment coordinates,

    Lap f = - sum_ij ( dH_ij/dx_i * df/dx_j + H_ij * d2f/dx_i dx_j ),

the scalar curvature  scal = - sum_ij d^2 H_ij / dx_i dx_j  and the Ricci
coefficients  rho_kl = -1/2 sum_i d^2 H_li / dx_i dx_k  (`scalar_curvature`),
and the Kahler-Einstein residual test (`ke_check`): the metric is Einstein
with constant lam exactly when  Lap x_i = 2 lam (x_i - xbar_i)  for every
coordinate.

Signs follow the positive-Laplacian convention, pinned by the sphere metric
on the interval [0, 1] where H = 2x(1-x), Lap x = 4x - 2 and scal = 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potential import (
    EPS_INTERIOR,
    BoundaryPoint,
    PotentialError,
    SymplecticPotential,
)
from .sampling import facet_values, interior_points, polytope_scale

__all__ = [
    "StepUnderflow",
    "CurvatureSample",
    "KEReport",
    "hessian_inverse_derivatives",
    "scalar_curvature",
    "ke_check",
]


class StepUnderflow(PotentialError):
    """A finite-difference stencil left the interior guard."""


@dataclass(frozen=True, eq=False)
class CurvatureSample:
    """Scalar curvature, Ricci coefficients and the H-derivatives behind them."""

    scal: float | np.ndarray
    ricci: np.ndarray  # rho[k, l]: coefficient of dx_k ^ dtheta_l
    dH: np.ndarray  # dH[i, j, k]   = d H_ij / d x_k
    d2H: np.ndarray  # d2H[i, j, k, l] = d^2 H_ij / d x_k d x_l


@dataclass(frozen=True, eq=False)
class KEReport:
    lambda_hat: float
    xbar: np.ndarray
    residual_max: float
    residual_l2: float
    is_ke: bool


def hessian_inverse_derivatives(
    u: SymplecticPotential, x, method: str = "auto", second: bool = True
):
    """(H, dH, d2H) of u at points x of shape (..., n), batch axes in front:
    dH[..., i, j, k] = d H_ij / d x_k and d2H[..., i, j, k, l].

    method="auto", the closed form: dH = -H (dG) H and the corresponding
    product rule for d2H.  method="fd": central differences of H with step 1e-4 * min_i L_i(x), from one
    `sample` call over the whole stencil of every point.
    With second=False, d2H is returned as None.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if method not in ("auto", "fd"):
        raise ValueError(f"unknown derivative method {method!r}")

    if method == "auto":
        H = u.sample(x).H
        dG = u.hessian_derivative(x)  # (..., n, n, m)
        dH = -np.einsum("...ia,...abm,...bj->...ijm", H, dG, H)
        if not second:
            return H, dH, None
        d2G = u.hessian_second_derivative(x)  # (..., n, n, m, l)
        term_cross = np.einsum("...ia,...abl,...bc,...cdm,...dj->...ijml", H, dG, H, dG, H)
        d2H = (
            term_cross
            + np.swapaxes(term_cross, -1, -2)
            - np.einsum("...ia,...abml,...bj->...ijml", H, d2G, H)
        )
        return H, dH, d2H

    # stencil offsets in units of h: 0, +e_k, -e_k, then +-e_k +-e_l for k < l
    eye = np.eye(n)
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)] if second else []
    offsets = [np.zeros(n), *eye, *-eye] + [
        s * eye[k] + t * eye[l] for k, l in pairs for s, t in ((1, 1), (1, -1), (-1, 1), (-1, -1))
    ]
    # the centre's own guard comes first, so a boundary point raises BoundaryPoint
    h = 1e-4 * u._interior_L(x).min(axis=-1)
    pts = x[..., None, :] + h[..., None, None] * np.array(offsets)
    if facet_values(u.polytope, pts).min() < EPS_INTERIOR:
        raise StepUnderflow("finite-difference stencil left the interior guard")
    Hs = np.moveaxis(u.sample(pts).H, -3, 0)  # (stencil, ..., n, n)
    H, Hp, Hm = Hs[0], Hs[1 : n + 1], Hs[n + 1 : 2 * n + 1]
    h = h[..., None, None]
    dH = np.stack([(Hp[k] - Hm[k]) / (2 * h) for k in range(n)], axis=-1)
    if not second:
        return H, dH, None
    # libm pow, as h**2 of a Python float takes it: numpy's h**2 is h*h, which
    # can round differently
    h2 = np.float_power(h, 2)
    d2H = np.empty(x.shape[:-1] + (n,) * 4)
    for k in range(n):
        d2H[..., k, k] = (Hp[k] - 2 * H + Hm[k]) / h2
    corners = Hs[2 * n + 1 :].reshape((len(pairs), 4) + H.shape)
    for (k, l), (Hpp, Hpm, Hmp, Hmm) in zip(pairs, corners):
        d2H[..., k, l] = d2H[..., l, k] = (Hpp - Hpm - Hmp + Hmm) / (4 * h2)
    return H, dH, d2H


def scalar_curvature(u: SymplecticPotential, x) -> CurvatureSample:
    """Scalar curvature and Ricci coefficients at points x of shape (..., n),
    contracted from the closed-form d2H of `hessian_inverse_derivatives`; scal
    is a float for one point and an array over the batch axes otherwise.

    Requires min_i L_i(x) >= 1e-4: second derivatives of H amplify boundary
    ill-conditioning.
    """
    x = np.asarray(x, dtype=float)
    low = float(np.min(facet_values(u.polytope, x)))
    if low < 1e-4:
        raise BoundaryPoint(f"curvature needs min L_i >= 1e-4, got {low:.2e}")
    _, dH, d2H = hessian_inverse_derivatives(u, x)
    scal = -np.einsum("...ijij->...", d2H)
    if x.ndim == 1:
        scal = float(scal)
    ricci = -0.5 * np.einsum("...liik->...kl", d2H)
    return CurvatureSample(scal=scal, ricci=ricci, dH=dH, d2H=d2H)


def ke_check(
    u: SymplecticPotential,
    samples: int = 40,
    tol: float | None = None,
    method: str = "auto",
) -> KEReport:
    """Fit Lap x_i = 2 lam (x_i - xbar_i) over deterministic interior samples.

    lam and the additive constants are fitted by least squares (a common slope
    2 lam across coordinates, one intercept per coordinate), which makes the
    test translation-invariant.  The report carries the max and rms residuals;
    is_ke holds when residual_max < tol.
    """
    if samples < 20:
        raise ValueError("samples must be >= 20")
    if tol is None:
        tol = 1e-6 if method == "auto" else 1e-4
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    P = u.polytope
    n = P.dim
    pts = interior_points(P, samples, min_facet=polytope_scale(P) * 5e-3)
    # f = x_i has gradient e_i and zero Hessian, so Lap x_i = -sum_j dH_ji/dx_j:
    # one derivative evaluation gives all n coordinates.
    _, dH, _ = hessian_inverse_derivatives(u, pts, method=method, second=False)
    lap = -np.einsum("...iji->...j", dH)

    # least squares for Lap x_i ~ a * x_i + b_i with one slope a = 2 lam
    xc = pts - pts.mean(axis=0)
    yc = lap - lap.mean(axis=0)
    denom = float(np.sum(xc * xc))
    a = float(np.sum(xc * yc)) / denom
    b = lap.mean(axis=0) - a * pts.mean(axis=0)
    residuals = lap - (a * pts + b)
    lambda_hat = 0.5 * a
    xbar = -b / a if a != 0 else np.zeros(n)
    res_max = float(np.max(np.abs(residuals)))
    res_l2 = float(np.sqrt(np.mean(residuals**2)))
    return KEReport(
        lambda_hat=lambda_hat,
        xbar=xbar,
        residual_max=res_max,
        residual_l2=res_l2,
        is_ke=res_max < tol,
    )
