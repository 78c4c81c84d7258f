"""Sparse multivariate polynomials with exact derivatives.

Used for test functions fed to the Laplacian and for the polynomial
perturbation term of a symplectic potential.  Coefficients are plain floats;
differentiation is exact term manipulation.  Evaluation takes points of shape
(..., nvars) and works on the last axis.
"""

from __future__ import annotations

import numpy as np


class MultiPoly:
    """Polynomial sum_a  c_a * x^a  stored as {exponent tuple: coefficient}."""

    def __init__(self, nvars: int, terms: dict):
        self.nvars = nvars
        self.terms = {
            tuple(int(e) for e in expo): float(c)
            for expo, c in terms.items()
            if c != 0
        }
        for expo in self.terms:
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo} for {nvars} variables")
        self._derivatives: dict = {}

    @classmethod
    def coordinate(cls, nvars: int, axis: int, shift: float = 0.0) -> "MultiPoly":
        """The polynomial x_axis - shift."""
        terms = {tuple(1 if j == axis else 0 for j in range(nvars)): 1.0}
        if shift:
            terms[(0,) * nvars] = -float(shift)
        return cls(nvars, terms)

    @classmethod
    def constant(cls, nvars: int, value: float) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: float(value)})

    def _value_t(self, coords):
        """Value at points given coordinate-first, as the transpose of (..., n)."""
        total = np.zeros(coords.shape[1:])
        for expo, c in self.terms.items():
            term = c
            for xi, e in zip(coords, expo):
                for _ in range(e):  # products, not pow: one point and a batch round alike
                    term = term * xi
            total = total + term
        return total

    def value(self, x):
        return self._value_t(np.asarray(x, dtype=float).T).T

    def derivative(self, axis: int) -> "MultiPoly":
        if axis in self._derivatives:
            return self._derivatives[axis]
        out: dict = {}
        for expo, c in self.terms.items():
            e = expo[axis]
            if e == 0:
                continue
            new = list(expo)
            new[axis] = e - 1
            key = tuple(new)
            out[key] = out.get(key, 0.0) + c * e
        self._derivatives[axis] = MultiPoly(self.nvars, out)
        return self._derivatives[axis]

    def gradient(self, x) -> np.ndarray:
        coords = np.asarray(x, dtype=float).T
        return np.array([self.derivative(i)._value_t(coords) for i in range(self.nvars)]).T

    def hessian(self, x) -> np.ndarray:
        coords = np.asarray(x, dtype=float).T
        n = self.nvars
        H = np.empty((n, n) + coords.shape[1:])
        for i in range(n):
            for j in range(i, n):
                H[i, j] = H[j, i] = self.derivative(i).derivative(j)._value_t(coords)
        return H.T

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __repr__(self):
        return f"MultiPoly(nvars={self.nvars}, terms={len(self.terms)})"
