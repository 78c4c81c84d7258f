"""Polytope quadrature for n <= 3.

The polytope is triangulated exactly (rational vertices) by coning its vertex
barycenter over its facets; a 3D facet is fanned from its smallest vertex
along the cycle of its edges, read from the vertex active sets.
`build_quadrature` scales that triangulation once to integers (by the lcm of
its denominators times 2**depth) into one (simplices, n + 1, n) integer
array, int64 while every determinant and coordinate converts to float64
exactly and Python ints (object dtype) past that, chosen once per build.
Each of the ``depth`` red refinements takes the midpoints by one shift and
the children by one fancy index, then puts each child's vertices in
lexicographic order by one `np.lexsort`; a last lexsort orders the
simplices.  Each exact volume is a closed-form integer determinant of the
edge arrays, so no `Fraction` is made per simplex.  A conical-product
Gauss-Jacobi rule of degree 2*order - 1 is mapped onto all simplices in one
batched product; its 1D factors come from the Golub-Welsch eigenproblem of
the Jacobi matrix (Golub and Welsch, Math. Comp. 23, 1969), solved by
`numpy.linalg.eigh`.  The rule has strictly interior nodes and positive
weights, and its total weight reproduces the exact rational volume of the
triangulation.  The refined simplices are not kept: the rule is its nodes,
weights and exact volume.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polytope import LabelledPolytope, PolytopeError, _det

__all__ = ["DimUnsupported", "QuadratureRule", "triangulate", "build_quadrature"]

MAX_ORDER = 15
MAX_NODES = 2**22


class DimUnsupported(PolytopeError):
    """Quadrature is implemented for polytope dimension 1, 2, 3."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Composite rule on `polytope`: nodes (m, n), positive weights (m,) and
    the exact rational volume that the weights sum to.  Exact integrals over
    the same region are taken on `triangulate(polytope)`: refinement does not
    change the union of the simplices."""

    polytope: LabelledPolytope
    nodes: np.ndarray
    weights: np.ndarray
    exact_volume: Fraction

    def __len__(self) -> int:
        return len(self.weights)


def _facet_vertices(P: LabelledPolytope, facet: int) -> list:
    return [v.coords for v in P.vertices() if facet in v.active]


def _facet_ring(P: LabelledPolytope, facet: int) -> list:
    """The vertices of a 3D facet in cyclic order from its smallest one: two
    vertices of the facet span an edge iff they share a second facet."""
    rest = [v for v in P.vertices() if facet in v.active]
    ring = [rest.pop(0)]
    while rest:
        prev = set(ring[-1].active)
        ring.append(next(v for v in rest if len(prev & set(v.active)) == 2))
        rest.remove(ring[-1])
    return [v.coords for v in ring]


@functools.lru_cache(maxsize=64)
def triangulate(P: LabelledPolytope) -> tuple:
    """Exact simplicial decomposition: cone the vertex barycenter over each
    facet (for n = 3, facets fanned from their smallest vertex along their
    edge cycle).  Simplices are returned in canonical (sorted) order, and
    cached per polytope, as every rule on P starts from them."""
    n = P.dim
    if n > 3:
        raise DimUnsupported(f"dimension {n} > 3")
    bary = P.vertex_barycenter()
    if n < 3:  # a facet is one vertex (n = 1) or one edge (n = 2)
        simplices = [(bary, *_facet_vertices(P, f)) for f in range(P.num_facets)]
    else:
        simplices = []
        for facet in range(P.num_facets):
            ring = _facet_ring(P, facet)
            for i in range(1, len(ring) - 1):
                simplices.append((bary, ring[0], ring[i], ring[i + 1]))
    canon = [tuple(sorted(s)) for s in simplices]
    return tuple(sorted(canon))


# Red refinement: the midpoints of `_RED[n][0]` (index pairs into the
# simplex) are appended to its vertices, and `_RED[n][1]` lists the children
# as indices into that point list.
_RED = {
    1: (((0, 1),), ((0, 2), (2, 1))),
    2: (((0, 1), (0, 2), (1, 2)), ((0, 3, 4), (1, 3, 5), (2, 4, 5), (3, 5, 4))),
    3: (
        ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
        ((0, 4, 5, 6), (4, 1, 7, 8), (5, 7, 2, 9), (6, 8, 9, 3),
         (4, 5, 6, 8), (4, 5, 7, 8), (5, 6, 8, 9), (5, 7, 8, 9)),
    ),
}


def _gauss_jacobi(q: int, alpha: int):
    """q-point Gauss rule on [-1, 1] for the weight (1 - t)^alpha, by
    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix, the weights mu_0 times the squared first components of its
    normalized eigenvectors."""
    k = np.arange(q, dtype=float)
    s = 2.0 * k + alpha
    diag = np.empty(q)
    diag[0] = -alpha / (alpha + 2.0)
    diag[1:] = -(alpha**2) / (s[1:] * (s[1:] + 2.0))
    off = 2.0 * k[1:] * (k[1:] + alpha) / (s[1:] * np.sqrt(s[1:] ** 2 - 1.0))
    t, V = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return t, V[0] ** 2 * (2.0 ** (alpha + 1) / (alpha + 1))


@functools.lru_cache(maxsize=None)
def _unit_simplex_rule(n: int, q: int):
    """Conical-product rule on the unit simplex, exact for total degree
    <= 2q - 1, q^n interior nodes, positive weights."""
    axes = []
    for i in range(n):
        alpha = n - 1 - i  # weight (1 - xi)^alpha from the collapsed Jacobian
        t, w = _gauss_jacobi(q, alpha)
        axes.append(((t + 1.0) / 2.0, w / 2.0 ** (alpha + 1)))
    nodes = np.empty((q**n, n))
    weights = np.empty(q**n)
    for row, combo in enumerate(itertools.product(range(q), repeat=n)):
        rem = 1.0
        wgt = 1.0
        for i, ci in enumerate(combo):
            xi, wi = axes[i]
            nodes[row, i] = xi[ci] * rem
            rem *= 1.0 - xi[ci]
            wgt *= wi[ci]
        weights[row] = wgt
    return nodes, weights


def build_quadrature(P: LabelledPolytope, order: int = 3, depth: int = 2) -> QuadratureRule:
    """Composite rule on P.  order q in 1..MAX_ORDER selects a base rule
    exact to degree 2q - 1; depth >= 0 uniform red refinements of the
    triangulation.  A rule of more than MAX_NODES nodes is refused before
    any refinement."""
    if P.dim > 3:
        raise DimUnsupported(f"dimension {P.dim} > 3")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = P.dim
    base = triangulate(P)
    count = len(base) * 2 ** (n * depth) * order**n
    if count > MAX_NODES:
        raise ValueError(f"order {order}, depth {depth} gives {count} nodes, over {MAX_NODES}")
    scale = math.lcm(*(c.denominator for s in base for v in s for c in v)) << depth
    simplices = [[[c.numerator * (scale // c.denominator) for c in v] for v in s] for s in base]
    fact = math.factorial(n)
    denom = scale**n * fact
    # Every det term is below n! (2 top)^n, so int64 holds each and float64
    # converts it, denom and each coordinate exactly; past that the entries
    # are Python ints.
    top = max(abs(c) for s in simplices for v in s for c in v)
    exact = fact * (2 * top) ** n < 2**53 and denom < 2**53
    S = np.array(simplices, dtype=np.int64 if exact else object)  # (simplices, n + 1, n)
    pairs, children = (np.array(a) for a in _RED[n])
    for _ in range(depth):
        S = np.concatenate([S, (S[:, pairs[:, 0]] + S[:, pairs[:, 1]]) >> 1], axis=1)
        pts = S[:, children].reshape(-1, n)
        # each child's vertices in lexicographic order, keyed by the child first
        child = np.repeat(np.arange(len(pts) // (n + 1)), n + 1)
        S = pts[np.lexsort((*pts.T[::-1], child))].reshape(-1, n + 1, n)
    S = S[np.lexsort(S.reshape(len(S), -1).T[::-1])]

    # Each integer above converts to float64 exactly and IEEE division is
    # correctly rounded, so every float below equals the float of the exact
    # rational it stands for, as Python int / int gives.
    edges = S[:, 1:] - S[:, :1]  # (simplices, n, n), row i is vertex i + 1 - vertex 0
    dets = abs(_det(edges.transpose(1, 2, 0)))  # its n <= 3 closed forms, entrywise
    lam, base_w = _unit_simplex_rule(n, order)
    # x = v0 + lam @ edges, the edge vectors scaled back as rows
    nodes = np.asarray(S[:, 0] / scale, float)[:, None, :] + lam @ np.asarray(edges / scale, float)
    vol_scale = np.asarray(dets / denom * fact, float)  # |det J| per simplex
    return QuadratureRule(
        polytope=P,
        nodes=nodes.reshape(-1, n),
        weights=(vol_scale[:, None] * base_w).reshape(-1),
        exact_volume=Fraction(int(dets.sum()), denom),
    )
