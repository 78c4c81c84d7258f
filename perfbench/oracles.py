"""Exact answers computed without the program under test.

Nothing here imports toriceig.  Lattice counts are plain integer loops, the
bound is a `Fraction`, and the eigenvalues are the closed-form values of the
Guillemin (Fubini-Study / product) metrics.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

# lambda1 of the Guillemin metric: 2(n+1) on the unit simplex (CP^n), 4 on
# products of the unit interval (CP^1); it scales as 1/length, so the
# interval [-1, 1] gives 2.  A dilation potential has H >= H_guillemin, so
# its lambda1 is at least the Guillemin value.
LAMBDA1 = {"interval": 4.0, "intervalC": 2.0, "simplex2": 6.0, "square": 4.0, "cube": 4.0}

# Kahler-Einstein constant lambda in Lap x_i = 2 lambda (x_i - xbar_i).
KE_LAMBDA = {"interval": 2.0, "simplex2": 3.0, "square": 2.0}

# CLI exit codes: 0 success, 2 validation failure.
EXIT_OK = 0
EXIT_INVALID = 2


def lattice_count(normals, offsets, box, k: int) -> int:
    """#(P intersect Z^n/k) for P = {<nu_i, x> + c_i >= 0}, counted over the
    integer points of k * box (box is any (lo, hi) containing P)."""
    lo, hi = box
    ranges = [
        range(math.ceil(k * Fraction(l)), math.floor(k * Fraction(h)) + 1)
        for l, h in zip(lo, hi)
    ]
    rows = []
    for nu, c in zip(normals, offsets):
        c = Fraction(c)
        # <nu, j/k> + c >= 0  <=>  den * <nu, j> + k * num >= 0
        rows.append((tuple(c.denominator * v for v in nu), k * c.numerator))
    return sum(
        1
        for j in itertools.product(*ranges)
        if all(sum(a * b for a, b in zip(nu, j)) + c >= 0 for nu, c in rows)
    )


def bly_bound(dim: int, k: int, count: int) -> Fraction:
    """The lattice bound 2nk(N_k+1)/N_k with N_k = count - 1."""
    n_k = count - 1
    return Fraction(2 * dim * k * (n_k + 1), n_k)


def balance_residual(nodes, weights, normals, offsets, points, alpha, volume) -> float:
    """max_m |(1/vol) sum_q w_q Psi_mm(x_q) - 1/(N+1)| for the Guillemin
    sections |Z_m|^2 = prod_i L_i(x)^{L_i(m)}."""
    A = np.array(normals, dtype=float)
    c = np.array([float(v) for v in offsets])
    expo = np.array(points, dtype=float) @ A.T + c  # L_i(m), (N+1, d)
    log_z2 = np.log(np.asarray(nodes) @ A.T + c) @ expo.T  # (q, N+1)
    logw = log_z2 + 2.0 * np.log(np.asarray(alpha, dtype=float))
    logw -= np.max(logw, axis=1, keepdims=True)
    w = np.exp(logw)
    psi = w / np.sum(w, axis=1, keepdims=True)
    averages = np.asarray(weights) @ psi
    return float(np.max(np.abs(averages / float(volume) - 1.0 / len(points))))
