"""Rayleigh-Ritz computation of the first invariant eigenvalue.

The smallest nonzero eigenvalue of the invariant Laplacian reduces to the
minimum of the Rayleigh quotient

    R(f) = integral_P H(df, df) / integral_P (f - fbar)^2

over functions on the polytope.  The trial space is the span of monomials of
total degree <= D, affinely normalized to the bounding box and mean-centered
against the quadrature.  Every computed value is an upper bound for the true
eigenvalue up to quadrature error.  A rule of order at least D + 1 makes it
exact when H is a polynomial of degree <= 2, as the Guillemin H is on
products of simplices; elsewhere, e.g. the Guillemin H of a Hirzebruch
polygon, H is rational and the quadrature error can put the value below the
eigenvalue.  All monomials of degree <= D sit in one table V at the nodes,
one row per exponent e, each the product x_j * x^(e - e_j) of an earlier
row; the rows, their parents and the rows of e - e_j come from one cached
integer exponent table per (n, D).  The gradient of a basis monomial is a
scaled row of degree <= D - 1, so the stiffness matrix is
sum_{j<=k} C_j^T K_jk C_k plus the transposes for j < k, with
K_jk = V_low diag(w H_jk) V_low^T over those rows and C_j the scaled
selection of the lowered exponents.  One pass over node blocks of at most
BLOCK_ENTRIES table entries adds each block's K_jk, skipping an H_jk that is
zero at every node (j != k on boxes), which moves no bit, and its mass Gram,
centered on the block's weighted mean; M = sum_b M_b + sum_b W_b (mu_b -
mu)(mu_b - mu)^T (Chan, Golub and LeVeque) then adds the scatter of the
block means.  So memory is set by the block, not by the node count.  The
generalized problem A c = lambda M c is whitened on the
eigenvectors of M = U diag(mass) U^T (one LAPACK `eigh`): directions with
mass <= B * eps * max(mass), numpy's `matrix_rank` tolerance
for B basis functions, are dropped, and `eigh` of
U^T A U / sqrt(mass_i mass_j) on the rest gives the Ritz values.  A sweep
builds the trial space and the whitening once and solves each potential on
it.  Everything is deterministic, so identical inputs give bit-identical
output.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .polytope import LabelledPolytope
from .potential import SymplecticPotential, dilation, guillemin, quadratic_perturbed
from .quadrature import QuadratureRule, build_quadrature

__all__ = [
    "SpectralError",
    "MassSingular",
    "TrialFunction",
    "RitzResult",
    "SweepResult",
    "lambda1_invariant",
    "sweep_uc",
    "sweep_dilation",
]


# the most entries `_ritz` puts in one block's monomial table or in its mass
# matrix: 256 MiB of float64
MAX_TABLE = 2**25
BLOCK_ENTRIES = 2**17  # a `_ritz` block: max(64, BLOCK_ENTRIES // (B + 1)) nodes


class SpectralError(Exception):
    pass


class MassSingular(SpectralError):
    """No eigenvalue of the mass matrix clears the rank tolerance
    B * eps * max(mass), so the trial space is empty."""


@functools.lru_cache(maxsize=None)
def _exponent_table(n: int, degree: int):
    """Read-only int arrays (E, parent, axis, lowered) over every exponent of
    total degree <= degree, in (sum(e), e) order with the zero exponent
    first: E holds the exponents as rows; row e is X_j * X^(e - e_j) of row
    parent[e] with j = axis[e], the last nonzero axis of e; lowered[j, e] is
    the row of e - e_j, or 0 where e_j = 0.  Rows are found through the
    mixed-radix code sum_j e_j (degree + 1)^(n - 1 - j) of each exponent."""
    E = np.array(list(itertools.product(range(degree + 1), repeat=n)), dtype=int)
    row_of = np.zeros(len(E), dtype=int)  # by code: row p of the product has code p
    E = E[E.sum(axis=1) <= degree]
    E = E[np.argsort(E.sum(axis=1), kind="stable")]
    radix = (degree + 1) ** np.arange(n - 1, -1, -1)
    code = E @ radix
    row_of[code] = np.arange(len(E))
    lowered = np.where(E.T > 0, row_of[np.maximum(code - radix[:, None], 0)], 0)
    axis = n - 1 - np.argmax(E[:, ::-1] > 0, axis=1)
    parent = lowered[axis, np.arange(len(E))]
    for a in (E, parent, axis, lowered):
        a.flags.writeable = False
    return E, parent, axis, lowered


def _monomial_table(X: np.ndarray, degree: int) -> np.ndarray:
    """Row i is X^e for the exponent e in row i of `_exponent_table`, shape
    (rows, ...) for X of shape (n, ...): one multiply of an earlier row per
    row."""
    _, parent, axis, _ = _exponent_table(len(X), degree)
    V = np.empty((len(parent),) + X.shape[1:])
    V[0] = 1.0
    for i, (j, p) in enumerate(zip(axis[1:].tolist(), parent[1:].tolist()), 1):
        np.multiply(X[j], V[p], out=V[i, ...])
    return V


class TrialFunction:
    """Polynomial sum_e c_e xhat^e in normalized coordinates
    xhat = (x - center)/halfwidth, over every exponent e of total degree
    1..degree in `_exponent_table` order, one coefficient each: the trial
    space of `lambda1_invariant`.  Evaluates at points of shape (..., n)."""

    def __init__(self, coeffs, degree, center, halfwidth):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.center = np.asarray(center, dtype=float)
        self.halfwidth = np.asarray(halfwidth, dtype=float)
        self.degree = degree
        E, _, _, lowered = _exponent_table(len(self.center), degree)
        self._lowered = [(lowered[j, 1:], E[1:, j] / h) for j, h in enumerate(self.halfwidth)]

    def _table(self, x) -> np.ndarray:
        xhat = (np.asarray(x, dtype=float) - self.center) / self.halfwidth
        return _monomial_table(np.moveaxis(xhat, -1, 0), self.degree)

    def value(self, x) -> np.ndarray:
        return np.tensordot(self.coeffs, self._table(x)[1:], axes=1)

    def gradient(self, x) -> np.ndarray:
        V = self._table(x)
        return np.stack(
            [np.tensordot(self.coeffs * scale, V[rows], axes=1) for rows, scale in self._lowered],
            axis=-1,
        )


@dataclass(frozen=True, eq=False)
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
    center: np.ndarray
    halfwidth: np.ndarray
    quad_nodes: int

    def eigenfunction(self) -> TrialFunction:
        return TrialFunction(self.eigvec, self.degree, self.center, self.halfwidth)


def _require_matching(u: SymplecticPotential, Q: QuadratureRule):
    if Q.polytope != u.polytope:
        raise ValueError("quadrature was built for a different polytope than the potential")


def _stiffness(K, lowered) -> np.ndarray:
    """sum_{j<=k} C_j^T K_jk C_k plus the transposes for j < k over the
    blocks K[j, k] that were formed; lowered[j] holds C_j as (rows, scale)."""
    A = 0.0
    for (j, k), K_jk in sorted(K.items()):
        (rows_j, scale_j), (rows_k, scale_k) = lowered[j], lowered[k]
        block = scale_j[:, None] * K_jk[np.ix_(rows_j, rows_k)] * scale_k
        A = A + (block if j == k else block + block.T)
    return A


def _ritz(potentials, degree: int, Q: QuadratureRule) -> list:
    """One `RitzResult` per potential on the span of mean-centered monomials
    of total degree <= degree.  One pass over node blocks builds each
    block's table once and adds every potential's K_jk and the block's mass
    Gram; the mass matrix and its eigh are built once, and each potential
    adds one eigh.  A degree whose block table or mass matrix would hold
    more than MAX_TABLE entries raises ValueError before either is built."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    for u in potentials:
        _require_matching(u, Q)
    P = Q.polytope
    n = P.dim
    basis = math.comb(degree + n, n) - 1
    m, step = len(Q), max(64, BLOCK_ENTRIES // (basis + 1))
    if (basis + 1) * max(basis + 1, min(m, step)) > MAX_TABLE:
        raise ValueError(
            f"degree {degree} needs {basis} basis functions on {m} nodes, "
            f"more than the MAX_TABLE = {MAX_TABLE} entries a table may hold"
        )
    lo_f, hi_f = (np.array([float(v) for v in b]) for b in P.bounding_box())
    center = (lo_f + hi_f) / 2.0
    halfwidth = np.maximum((hi_f - lo_f) / 2.0, 1e-12)

    # The basis gradients are scaled rows of degree <= degree - 1, which come
    # first in each block's table; every potential's K_jk is formed from them
    # before the table is centered in place on the block's mean.
    low = math.comb(degree - 1 + n, n)
    E, _, _, rows = _exponent_table(n, degree)
    lowered = [(rows[j, 1:], E[1:, j] / h) for j, h in enumerate(halfwidth)]
    grams, sums, means = [{} for _ in potentials], [], []
    for a in range(0, m, step):
        nodes, w = Q.nodes[a : a + step], Q.weights[a : a + step]
        V = _monomial_table(np.ascontiguousarray(((nodes - center) / halfwidth).T), degree)
        for u, K in zip(potentials, grams):
            H = u.sample(nodes).H
            for j, k in itertools.combinations_with_replacement(range(n), 2):
                # H_jk vanishes at every node for j != k on boxes under
                # guillemin, uc and dilation; skipping its zero block moves no bit.
                if j == k or H[:, j, k].any():
                    G = (V[:low] * (w * H[:, j, k])) @ V[:low].T
                    K[j, k] = K[j, k] + G if (j, k) in K else G
        vals = V[1:]
        sums.append(float(np.sum(w)))
        means.append((vals @ w) / sums[-1])
        vals -= means[-1][:, None]  # mean-zero against the block
        gram = (vals * w) @ vals.T
        M = gram if a == 0 else M + gram
    if len(means) > 1:  # Chan-Golub-LeVeque: add the scatter of the block means
        sums, means = np.array(sums), np.array(means)
        means -= (sums @ means) / sums.sum()
        M += (means.T * sums) @ means

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
    for K in grams:
        A_kept = U.T @ _stiffness(K, lowered) @ U
        eigs, vecs = np.linalg.eigh(A_kept / np.outer(root, root))
        spread = np.abs(np.linalg.eigvalsh(A_kept))
        results.append(
            RitzResult(
                degree=degree,
                basis_size=len(mass),
                eigenvalues=eigs,
                lambda1T=float(eigs[0]),
                eigvec=U @ (vecs[:, 0] / root),
                mass_condition=float(mass[-1] / mass[0]),
                stiffness_condition=float(spread.max() / spread.min()),
                center=center,
                halfwidth=halfwidth,
                quad_nodes=m,
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
) -> SweepResult:
    """lambda1T along the quadratic perturbation family on the rule Q
    (`build_quadrature(P)` when None); the values decrease toward 0 as c
    grows.  Rows violating the decreasing trend are flagged, not rejected."""
    c_list = [float(c) for c in c_list]
    if any(c < 0 for c in c_list) or sorted(c_list) != c_list:
        raise ValueError("c_list must be nonnegative and ascending")
    if Q is None:
        Q = build_quadrature(P)
    potentials = [guillemin(P) if c == 0 else quadratic_perturbed(P, axis, c) for c in c_list]
    return _sweep("c", c_list, potentials, degree, Q, lambda lam, prev: lam < prev + 1e-8)


def sweep_dilation(
    P: LabelledPolytope,
    s_list,
    degree: int = 6,
    Q: QuadratureRule | None = None,
) -> SweepResult:
    """lambda1T along the dilation family for s decreasing toward 1, on the
    rule Q (`build_quadrature(P)` when None).

    P is dilated in place about its vertex barycenter.  Values stay above
    the Guillemin lambda1T and grow as s drops to 1; the growth need not be
    monotone, so violations are flagged rather than raised.
    """
    s_list = [float(s) for s in s_list]
    if any(s <= 1 for s in s_list):
        raise ValueError("dilation parameters must satisfy s > 1")
    if any(s <= t for s, t in zip(s_list, s_list[1:])):
        raise ValueError("s_list must be strictly decreasing toward 1")
    if Q is None:
        Q = build_quadrature(P)
    potentials = [dilation(P, s) for s in s_list]
    return _sweep("s", s_list, potentials, degree, Q, lambda lam, prev: lam > prev - 1e-8)
