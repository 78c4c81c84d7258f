"""Sparse multivariate polynomials with exact derivatives.

Used for test functions fed to the Laplacian and for the polynomial
perturbation term of a symplectic potential.  Coefficients are plain floats;
differentiation is exact term manipulation.  Evaluation takes points of shape
(..., nvars) and works on the last axis.
"""

from __future__ import annotations

import itertools

import numpy as np


class MultiPoly:
    """Polynomial sum_a  c_a * x^a  stored as {exponent tuple: coefficient}."""

    def __init__(self, nvars: int, terms: dict):
        """Each exponent tuple holds nvars integers >= 0 (Python or numpy
        integers, not bools); anything else raises ValueError rather than
        being rounded.  Zero coefficients are dropped."""
        self.nvars = nvars
        for expo in terms:
            if len(expo) != nvars or not all(
                isinstance(e, (int, np.integer)) and not isinstance(e, bool) and e >= 0
                for e in expo
            ):
                raise ValueError(f"bad exponent tuple {expo} for {nvars} variables")
        self.terms = {
            tuple(int(e) for e in expo): float(c)
            for expo, c in terms.items()
            if c != 0
        }
        self._derivatives: dict = {}

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
        return self.derivatives(x, 0)[()]

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

    def derivatives(self, x, order: int) -> np.ndarray:
        """The order-th derivative tensor at points x of shape (..., n), with
        shape (..., n, ..., n) and `order` trailing axes; order 0 is the value.
        Each entry is the derivative polynomial along its sorted axes, so the
        tensor is exactly symmetric and the transpose that puts the batch axes
        in front leaves its entries in place."""
        coords = np.asarray(x, dtype=float).T
        out = np.empty((self.nvars,) * order + coords.shape[1:])
        for axes in itertools.combinations_with_replacement(range(self.nvars), order):
            p = self
            for axis in axes:
                p = p.derivative(axis)
            value = p._value_t(coords)
            for index in set(itertools.permutations(axes)):
                out[index] = value
        return out.T

    def gradient(self, x) -> np.ndarray:
        return self.derivatives(x, 1)

    def hessian(self, x) -> np.ndarray:
        return self.derivatives(x, 2)

    def __repr__(self):
        return f"MultiPoly(nvars={self.nvars}, terms={len(self.terms)})"
