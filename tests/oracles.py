"""Independent oracles for the test suite.

Nothing here reuses the library's numerical paths: eigenvalues come from a
finite-difference discretization, integrals from Riemann-style grids or exact
rational formulas, and 1D curvature from symbolic differentiation.  The
`reference_*` functions are earlier implementations kept as references for
later refactors; each says what it shares with the library.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal


def sturm_liouville_lambda1(H_fn, a: float, b: float, nodes: int = 2000) -> float:
    """First nonzero eigenvalue of -(H f')' = lam f on [a, b] with natural
    boundary conditions, by a conservative three-point scheme.

    Fluxes use H at cell midpoints; the boundary cells carry half mass.  The
    constant null mode makes lam1 the second-smallest eigenvalue.
    """
    x = np.linspace(a, b, nodes)
    h = x[1] - x[0]
    Hm = np.array([H_fn(xi + h / 2) for xi in x[:-1]])  # midpoint conductivities
    diag_A = np.zeros(nodes)
    diag_A[:-1] += Hm / h
    diag_A[1:] += Hm / h
    off_A = -Hm / h
    mass = np.full(nodes, h)
    mass[0] = mass[-1] = h / 2
    d = diag_A / mass
    e = off_A / np.sqrt(mass[:-1] * mass[1:])
    vals = eigh_tridiagonal(d, e, select="i", select_range=(0, 1), eigvals_only=True)
    return float(vals[1])


def interval_midpoint_integral(fn, a: float, b: float, cells: int = 4000) -> float:
    x = np.linspace(a, b, cells + 1)
    mid = 0.5 * (x[:-1] + x[1:])
    vals = np.asarray(fn(mid[:, None]), dtype=float)  # fn takes points of shape (cells, 1)
    return float(np.sum(vals) * (b - a) / cells)


def box_midpoint_integral(fn, lo, hi, member=None, cells_per_axis: int = 400) -> float:
    """Midpoint rule over a box, optionally masked by a membership predicate.

    fn is vectorized over rows of points; member(points) returns a bool mask.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.size
    axes = [
        lo[i] + (hi[i] - lo[i]) * (np.arange(cells_per_axis) + 0.5) / cells_per_axis
        for i in range(n)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    cell = float(np.prod((hi - lo) / cells_per_axis))
    if member is not None:
        pts = pts[member(pts)]
    return float(np.sum(fn(pts)) * cell)


def simplex2_centroid_integral(fn, k: int = 400) -> float:
    """Centroid rule on the standard 2-simplex over a conforming k^2 grid.

    Exact for affine integrands, O(1/k^2) in general; the grid conforms to the
    boundary so there is no boundary-cell error.
    """
    total = 0.0
    area = 0.5 / k**2
    centroids = []
    for i in range(k):
        for j in range(k - i):
            v = np.array([[i, j], [i + 1, j], [i, j + 1]], dtype=float) / k
            centroids.append(v.mean(axis=0))
            if i + j < k - 1:
                v = np.array([[i + 1, j], [i, j + 1], [i + 1, j + 1]], dtype=float) / k
                centroids.append(v.mean(axis=0))
    vals = fn(np.array(centroids))
    return float(np.sum(vals) * area)


def _det(mat):
    """Determinant by cofactor expansion along the first row."""
    if len(mat) == 1:
        return mat[0][0]
    total = Fraction(0)
    for j in range(len(mat)):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total


def exact_monomial_integral_simplex(vertices, exponents) -> Fraction:
    """Exact integral of x^exponents over the simplex with rational vertices.

    Expands the monomial in barycentric coordinates and applies the Dirichlet
    integral formula  int lam^beta = n! vol * prod(beta_i!) / (|beta| + n)!.
    """
    verts = [tuple(Fraction(c) for c in v) for v in vertices]
    n = len(verts) - 1
    base = verts[0]
    rows = [[verts[i + 1][j] - base[j] for j in range(n)] for i in range(n)]
    vol = abs(_det(rows)) / math.factorial(n)

    # polynomial in barycentric coordinates lam_0..lam_n as {beta: coeff}
    poly = {(0,) * (n + 1): Fraction(1)}
    for axis, power in enumerate(exponents):
        # x_axis = sum_j verts[j][axis] * lam_j
        lin = {
            tuple(1 if t == j else 0 for t in range(n + 1)): verts[j][axis]
            for j in range(n + 1)
        }
        for _ in range(power):
            new = {}
            for b1, c1 in poly.items():
                for b2, c2 in lin.items():
                    key = tuple(a + b for a, b in zip(b1, b2))
                    new[key] = new.get(key, Fraction(0)) + c1 * c2
            poly = new

    total = Fraction(0)
    for beta, coeff in poly.items():
        if coeff == 0:
            continue
        num = Fraction(math.factorial(n)) * vol
        for b in beta:
            num *= math.factorial(b)
        total += coeff * num / math.factorial(sum(beta) + n)
    return total


def exact_monomial_integral(triangulation, exponents) -> Fraction:
    """Exact integral of a monomial over a union of rational simplices."""
    return sum(
        (exact_monomial_integral_simplex(s, exponents) for s in triangulation),
        Fraction(0),
    )


def symbolic_uc_scal_interval(c: float, x_val: float):
    """Scalar curvature of the quadratic perturbation on [0, 1] at x, by
    symbolic differentiation: scal = -H'' with H = 1/(1/(2x(1-x)) + c)."""
    import sympy as sp

    x = sp.symbols("x")
    H = 1 / (1 / (2 * x * (1 - x)) + c)
    scal = -sp.diff(H, x, 2)
    return float(scal.subs(x, sp.Rational(x_val) if isinstance(x_val, Fraction) else x_val))


def guillemin_G_interval(x: np.ndarray) -> np.ndarray:
    return 1.0 / (2.0 * x * (1.0 - x))


def brute_force_lattice(P, k: int):
    """(points, l_min) of P intersect Z^n/k, testing every candidate of the
    bounding box with exact `Fraction` membership; raises EmptyLattice.

    This is a reference for the integer lattice scan: it shares only the
    bounding box and `defining_values` with the library.
    """
    from toriceig.polytope import EmptyLattice

    lo, hi = P.bounding_box()
    ranges = [range(math.ceil(k * lo[i]), math.floor(k * hi[i]) + 1) for i in range(P.dim)]
    points = []
    for js in itertools.product(*ranges):
        cand = tuple(Fraction(j, k) for j in js)
        if min(P.defining_values(cand)) >= 0:
            points.append(cand)
    if not points:
        raise EmptyLattice(f"P contains no point of Z^{P.dim}/{k}")
    points = tuple(sorted(points))
    values = [P.defining_values(p) for p in points]
    l_min = tuple(min(v[i] for v in values) for i in range(P.num_facets))
    return points, l_min


def listed_l_min(P, data) -> tuple:
    """L_min(i, k) = min_j <nu_i, j> / k + c_i over the numerators j that
    `P.lattice_points(k)` listed in `data`, summed in Python ints, as
    `Fraction`s.

    This is a reference for the facet minima of the count scan: it reads
    only the listed points.
    """
    sums = data.points.astype(object) @ np.array(P.normals, dtype=object).T
    return tuple(Fraction(int(m), data.k) + c for m, c in zip(sums.min(axis=0), P.offsets))


def ehrhart_fit(values) -> list:
    """Coefficients c_0..c_n, lowest first, in Fractions, of the polynomial
    of degree n through (k, values[k]) for k = 0..n (Lagrange interpolation).
    For an integral n-polytope and values[k] = N_k + 1 it is the Ehrhart
    polynomial (Beck and Robins, "Computing the Continuous Discretely",
    ch. 3)."""
    n = len(values) - 1
    coeffs = [Fraction(0)] * (n + 1)
    for i, y in enumerate(values):
        basis, scale = [Fraction(1)], 1
        for j in range(n + 1):
            if j != i:
                # basis * (k - j)
                basis = [(basis[t - 1] if t else 0) - j * (basis[t] if t < len(basis) else 0)
                         for t in range(len(basis) + 1)]
                scale *= i - j
        coeffs = [c + Fraction(y, scale) * b for c, b in zip(coeffs, basis)]
    return coeffs


def lattice_perimeter(P) -> int:
    """|dP| in the lattice measure of a lattice polygon: each edge counts its
    lattice steps, the gcd of its integer edge vector."""
    verts = P.vertices()
    total = 0
    for i in range(P.num_facets):
        a, b = (v.coords for v in verts if i in v.active)
        total += math.gcd(*(int(p - q) for p, q in zip(a, b)))
    return total


def _rref(rows, ncols: int):
    """Gauss-Jordan reduction over Fraction, pivoting on the first `ncols`
    columns: (reduced rows, pivot columns).  The reduced form is unique."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(mat):
            break
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [v / pv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
    return mat, pivots


def _nullspace_vector(rows, n: int):
    """One nonzero rational vector orthogonal to all rows, or None."""
    mat, pivots = _rref(rows, n)
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return None
    vec = [Fraction(0)] * n
    vec[free[0]] = Fraction(1)
    for r, pc in enumerate(pivots):
        vec[pc] = -mat[r][free[0]]
    return tuple(vec)


def _recession_ray(normals, n: int):
    """A nonzero direction v with <nu_i, v> >= 0 for all i, or None if the
    polyhedron is bounded: a common null vector of the normals, else the
    null vector of some n - 1 of them, up to sign."""
    if len(_rref(normals, n)[1]) < n:
        return _nullspace_vector(normals, n)
    if n == 1:
        for v in ((Fraction(1),), (Fraction(-1),)):
            if all(nu[0] * v[0] >= 0 for nu in normals):
                return v
        return None
    for subset in itertools.combinations(normals, n - 1):
        vec = _nullspace_vector(subset, n)
        if vec is None:
            continue
        for cand in (vec, tuple(-v for v in vec)):
            if all(sum(a * b for a, b in zip(nu, cand)) >= 0 for nu in normals):
                return cand
    return None


def _affine_rank(points) -> int:
    if len(points) <= 1:
        return 0
    diffs = [[p[i] - points[0][i] for i in range(len(p))] for p in points[1:]]
    return len(_rref(diffs, len(points[0]))[1])


def reference_vertices(dim: int, normals, offsets) -> tuple:
    """((coords, active), ...) of {<x, nu_i> + c_i >= 0}, sorted by coords,
    raising the library's UnboundedOrEmpty / NonSimple.

    This is a reference for `LabelledPolytope.vertices`: boundedness comes
    from a recession-ray search and each vertex from Gauss-Jordan reduction,
    not from determinants or the vertex active sets.
    """
    from toriceig.polytope import NonSimple, UnboundedOrEmpty

    offsets = [Fraction(c) for c in offsets]
    ray = _recession_ray(normals, dim)
    if ray is not None:
        raise UnboundedOrEmpty(f"recession direction {ray}")
    found = {}
    for subset in itertools.combinations(range(len(normals)), dim):
        mat, pivots = _rref([[*normals[i], -offsets[i]] for i in subset], dim)
        if len(pivots) < dim:
            continue
        x = tuple(row[dim] for row in mat)
        vals = [sum(a * b for a, b in zip(nu, x)) + c for nu, c in zip(normals, offsets)]
        if all(v >= 0 for v in vals):
            found[x] = tuple(i for i, v in enumerate(vals) if v == 0)
    if not found:
        raise UnboundedOrEmpty("no feasible vertex")
    for coords, active in found.items():
        if len(active) > dim:
            raise NonSimple(f"vertex {coords} lies on facets {active}")
    coords = sorted(found)
    bary = [sum(c[i] for c in coords) / len(coords) for i in range(dim)]
    if any(sum(a * b for a, b in zip(nu, bary)) + c <= 0 for nu, c in zip(normals, offsets)):
        raise UnboundedOrEmpty("empty interior")
    return tuple((c, found[c]) for c in coords)


def _carries_facets(dim: int, num_facets: int, verts) -> bool:
    """True iff every facet holds vertices of affine rank dim - 1."""
    return all(
        _affine_rank([c for c, active in verts if i in active]) == dim - 1
        for i in range(num_facets)
    )


def reference_polytope(dim: int, facets) -> tuple:
    """The vertices `LabelledPolytope(dim, facets).vertices()` should return,
    as `reference_vertices` does, after the constructor's facet count and
    redundancy checks (by affine rank)."""
    from toriceig.polytope import InvalidPolytope

    normals = [tuple(nu) for nu, _ in facets]
    if len(normals) < dim + 1:
        raise InvalidPolytope("too few facets")
    verts = reference_vertices(dim, normals, [c for _, c in facets])
    if not _carries_facets(dim, len(normals), verts):
        raise InvalidPolytope("redundant facet")
    return verts


def reference_same_combinatorial_type(P, offsets) -> bool:
    """True iff Q = {<x, nu_i> + offsets[i] >= 0}, on the normals of P, is a
    simple polytope whose vertex active sets are those of P, from
    `reference_vertices` and an affine-rank test of every facet of Q.

    This is a reference for the integer type check of the k0 search: it
    shares nothing with the library but the normals and offsets of P.
    """
    from toriceig.polytope import NonSimple, UnboundedOrEmpty

    if len(offsets) != P.num_facets:
        raise ValueError("Q needs one offset per facet of P")
    try:
        verts_q = reference_vertices(P.dim, P.normals, offsets)
    except (UnboundedOrEmpty, NonSimple):
        return False
    if not _carries_facets(P.dim, P.num_facets, verts_q):
        return False
    family_p = {frozenset(a) for _, a in reference_vertices(P.dim, P.normals, P.offsets)}
    return family_p == {frozenset(a) for _, a in verts_q}


class ZeroDenominator(Exception):
    """The test function of `rayleigh_quotient` is quadrature-constant."""


def rayleigh_quotient(u, f, Q) -> float:
    """integral H(df, df) / integral (f - fbar)^2 by quadrature; an upper
    bound for lambda1T up to quadrature error.  f evaluates value(x) and
    gradient(x) on arrays of points, as MultiPoly and TrialFunction do.

    This is a check of the Ritz solve of `lambda1_invariant`: it shares only
    the quadrature rule and the potential's Hessian samples with it.
    """
    if Q.polytope != u.polytope:
        raise ValueError("quadrature was built for a different polytope than the potential")
    w = Q.weights
    vals = np.asarray(f.value(Q.nodes), dtype=float)
    grads = np.asarray(f.gradient(Q.nodes), dtype=float)
    numerator = float(np.einsum("qj,qjk,qk->", grads * w[:, None], u.sample(Q.nodes).H, grads))
    fbar = float(w @ vals) / float(np.sum(w))
    centered = vals - fbar
    denominator = float(w @ centered**2)
    scale = float(np.sum(w)) * max(1.0, float(np.max(np.abs(vals))) ** 2)
    if denominator <= 1e-24 * scale:
        raise ZeroDenominator("test function is constant on the quadrature nodes")
    return numerator / denominator


def _midpoint(a, b):
    return tuple((ai + bi) / 2 for ai, bi in zip(a, b))


def _red_refine(simplex: tuple) -> list:
    """One red refinement step with rational midpoints."""
    n = len(simplex) - 1
    if n == 1:
        a, b = simplex
        m = _midpoint(a, b)
        return [(a, m), (m, b)]
    if n == 2:
        a, b, c = simplex
        mab, mac, mbc = _midpoint(a, b), _midpoint(a, c), _midpoint(b, c)
        return [(a, mab, mac), (b, mab, mbc), (c, mac, mbc), (mab, mbc, mac)]
    a, b, c, d = simplex
    mab, mac, mad = _midpoint(a, b), _midpoint(a, c), _midpoint(a, d)
    mbc, mbd, mcd = _midpoint(b, c), _midpoint(b, d), _midpoint(c, d)
    return [
        (a, mab, mac, mad),
        (mab, b, mbc, mbd),
        (mac, mbc, c, mcd),
        (mad, mbd, mcd, d),
        (mab, mac, mad, mbd),
        (mab, mac, mbc, mbd),
        (mac, mad, mbd, mcd),
        (mac, mbc, mbd, mcd),
    ]


def fraction_quadrature(P, order: int, depth: int):
    """(nodes, weights, exact_volume) of the composite rule,
    built with `Fraction` arithmetic on every simplex and one small map per
    simplex.

    This is a reference for the integer build of `build_quadrature`: it
    shares only the base triangulation and the unit-simplex rule with the
    library.
    """
    from toriceig.quadrature import _unit_simplex_rule, triangulate

    simplices = list(triangulate(P))
    for _ in range(depth):
        simplices = [tuple(sorted(c)) for s in simplices for c in _red_refine(s)]
    simplices.sort()
    n = P.dim
    lam, base_w = _unit_simplex_rule(n, order)
    exact_volume = Fraction(0)
    all_nodes, all_weights = [], []
    for s in simplices:
        rows = [[v[i] - s[0][i] for i in range(n)] for v in s[1:]]
        vol = abs(Fraction(_det(rows))) / math.factorial(n)
        exact_volume += vol
        v0 = np.array([float(c) for c in s[0]])
        J = np.array([[float(s[i + 1][j] - s[0][j]) for i in range(n)] for j in range(n)])
        all_nodes.append(v0 + lam @ J.T)
        all_weights.append(base_w * (float(vol) * math.factorial(n)))
    return np.vstack(all_nodes), np.concatenate(all_weights), exact_volume


def balance_exp_per_iteration(logz2, weights, volume, tol=1e-10, max_iter=200):
    """(alpha, residual, iterations) of the balance fixed point,
    exponentiating log(alpha_m^2 |Z_m|^2) afresh at every node and iteration.

    This is a reference for `balance`, which scales |Z|^2 once before the
    loop; it shares only the log |Z_m|^2 table with the library.  Returns
    None when the iteration does not reach `tol`.
    """
    count = logz2.shape[1]
    alpha = np.full(count, 1.0 / count)
    for iteration in range(max_iter + 1):
        logw = logz2 + 2.0 * np.log(alpha)
        w = np.exp(logw - np.max(logw, axis=1, keepdims=True))
        averages = weights @ (w / np.sum(w, axis=1, keepdims=True))
        residual = float(np.max(np.abs(averages / volume - 1.0 / count)))
        if residual < tol:
            return alpha, residual, iteration
        alpha = alpha * np.sqrt(volume / count / averages)
        alpha = alpha / np.sum(alpha)
    return None


def log_z2_guillemin_loop(L, exponents):
    """log |Z_m|^2 = sum_i e_mi log L_i for the Guillemin potential, from the
    facet values L (q, d) and the exponent table (N+1, d), one point m at a
    time over the facets with e_mi > 0: 0 * log 0 = 0, and a facet with
    L_i <= 0 and e_mi > 0 gives -inf."""
    with np.errstate(divide="ignore"):
        logL = np.where(L > 0, np.log(np.maximum(L, 1e-300)), -np.inf)
    expo = np.asarray(exponents, dtype=float)
    out = np.empty((L.shape[0], expo.shape[0]))
    for m in range(expo.shape[0]):
        mask = expo[m] > 0
        if not mask.any():
            out[:, m] = 0.0
            continue
        out[:, m] = np.sum(logL[:, mask] * expo[m, mask], axis=1)
    return out


def _facet_tangent_basis(P, facet_index: int) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to normal i (rows)."""
    nu = np.array(P.normals[facet_index], dtype=float)
    n = P.dim
    if n == 1:
        return np.zeros((0, 1))
    basis = []
    for e in np.eye(n):
        v = e - (e @ nu) / (nu @ nu) * nu
        for b in basis:
            v = v - (v @ b) * b
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            basis.append(v / norm)
        if len(basis) == n - 1:
            break
    return np.array(basis)


def reference_validate(u) -> dict:
    """`validate` with the facet-tangent block check it used to make: at every
    probe near a facet, the restriction of G to the facet's tangent directions
    is checked too and reported as "tangent to facet i (distance d)".  It
    shares the sample points and u.hessian with the library."""
    from toriceig.potential import EPS_INTERIOR
    from toriceig.sampling import (
        facet_proximal_points,
        facet_values,
        interior_points,
        polytope_scale,
    )

    P = u.polytope
    distances = [polytope_scale(P) * 10.0**-e for e in range(2, 7)]
    checks = [(x, "interior", None) for x in interior_points(P, 40)]
    checks += [
        (x, f"near facet {i} (distance {d:.1e})", (i, d))
        for i, d, x in facet_proximal_points(P, distances)
    ]
    X = np.array([x for x, _, _ in checks])
    inside = np.min(facet_values(P, X), axis=-1) >= EPS_INTERIOR
    G = u.hessian(X[inside])
    G = 0.5 * (G + G.swapaxes(-1, -2))
    lowest = np.linalg.eigvalsh(G)[:, 0]
    failures = []
    worst = np.inf
    for (x, where, probe), Gq, low in zip(itertools.compress(checks, inside), G, lowest):
        margins = [(where, low)]
        if probe and P.dim > 1:
            facet, dist = probe
            basis = _facet_tangent_basis(P, facet)
            tangent = np.linalg.eigvalsh(basis @ Gq @ basis.T)[0]
            margins.append((f"tangent to facet {facet} (distance {dist:.1e})", tangent))
        for tag, margin in margins:
            worst = min(worst, float(margin))
            if margin <= 0:
                failures.append(
                    {"point": list(map(float, x)), "where": tag, "margin": float(margin)}
                )
    return {"passed": not failures, "worst_margin": float(worst), "failures": failures}


def reference_sample(u, x):
    """(G, H) of u at points x of shape (..., n) by the path `sample` took
    before its closed-form factor: facet values and the facet sum
    1/2 sum_k psi''(L_k) nu_k nu_k^T as one BLAS row-vector product per
    point, G symmetrised, then LAPACK's Cholesky (`numpy.linalg.cholesky`,
    one call per point), R^{-1} by forward substitution and H = R^{-T} R^{-1}.
    It shares only u.profile and the polynomial part u.added with the
    library; a nonpositive pivot raises numpy's LinAlgError."""
    x = np.asarray(x, dtype=float)
    A = np.array(u.polytope.normals, dtype=float)
    c = np.array([float(v) for v in u.polytope.offsets])
    L = (x[..., None, :] @ A.T)[..., 0, :] + c
    half_nu_nu = 0.5 * np.einsum("ki,kj->kij", A, A).reshape(len(A), -1)
    G = (u.profile(L, 2)[..., None, :] @ half_nu_nu)[..., 0, :].reshape(x.shape + x.shape[-1:])
    if u.added is not None:
        G = G + u.added.derivatives(x, 2)
    G = 0.5 * (G + G.swapaxes(-1, -2))
    n = G.shape[-1]
    R = np.ascontiguousarray(np.moveaxis(np.linalg.cholesky(G), (-2, -1), (0, 1)))
    Rinv = np.zeros_like(R)
    for i in range(n):
        Rinv[i, i] = 1.0
        for k in range(i):
            Rinv[i, : k + 1] -= R[i, k] * Rinv[k, : k + 1]
        Rinv[i, : i + 1] /= R[i, i]
    H = np.empty_like(Rinv)
    for a, b in itertools.combinations_with_replacement(range(n), 2):
        H[a, b] = H[b, a] = sum(Rinv[k, a] * Rinv[k, b] for k in range(b, n))
    return G, np.moveaxis(H, (0, 1), (-2, -1))


def reference_poly_gradient_hessian(p, x):
    """(gradient, hessian) of a MultiPoly at points x of shape (..., n), each
    entry the value of the derivative polynomial along its sorted axes: the
    evaluation order `MultiPoly.derivatives` must keep bit for bit."""
    coords = np.asarray(x, dtype=float).T
    n = p.nvars
    grad = np.array([p.derivative(i)._value_t(coords) for i in range(n)]).T
    H = np.empty((n, n) + coords.shape[1:])
    for i in range(n):
        for j in range(i, n):
            H[i, j] = H[j, i] = p.derivative(i).derivative(j)._value_t(coords)
    return grad, H.T


def reference_laplacian(u, f, x, method: str = "auto"):
    """The invariant Laplacian -(sum_i dH_ij/dx_i) df/dx_j - H : Hess f of a
    MultiPoly f at points x of shape (..., n); a float for one point.  It
    shares H and dH with the library (`hessian_inverse_derivatives`, closed
    form or with method="fd" its central differences)."""
    from toriceig.geometry import hessian_inverse_derivatives

    x = np.asarray(x, dtype=float)
    H, dH, _ = hessian_inverse_derivatives(u, x, method=method, second=False)
    div_H = np.einsum("...iji->...j", dH)  # sum_i dH_ij/dx_i
    lap = -np.sum(div_H * f.gradient(x), axis=-1) - np.sum(H * f.hessian(x), axis=(-2, -1))
    return float(lap) if x.ndim == 1 else lap


def fd_scalar_curvature(u, x):
    """scal = -sum_ij d^2 H_ij / dx_i dx_j at points x of shape (..., n) from
    the central-difference d2H of `hessian_inverse_derivatives(method="fd")`;
    a float for one point."""
    from toriceig.geometry import hessian_inverse_derivatives

    x = np.asarray(x, dtype=float)
    scal = -np.einsum("...ijij->...", hessian_inverse_derivatives(u, x, method="fd")[2])
    return float(scal) if x.ndim == 1 else scal


def hc_diag(u_c, x) -> float:
    """H[i][i] of a quadratic perturbation u0 + (c/2) x_i^2 through the minor
    formula det M_ii / (det G0 + c det M_ii), where M_ii deletes row and
    column i of the Guillemin Hessian G0 = 1/2 sum_k nu_k nu_k^T / L_k.
    Independent of the Cholesky inversion in `sample`."""
    A = np.array(u_c.polytope.normals, dtype=float)
    c = np.array([float(v) for v in u_c.polytope.offsets])
    L = A @ np.asarray(x, dtype=float) + c
    G0 = 0.5 * np.einsum("k,ki,kj->ij", 1.0 / L, A, A)
    i = u_c.axis
    minor = np.delete(np.delete(G0, i, axis=0), i, axis=1)
    det_minor = float(np.linalg.det(minor)) if minor.size else 1.0
    det_G0 = float(np.linalg.det(G0))
    return det_minor / (det_G0 + u_c.c * det_minor)


def mp_guillemin_ritz_eigenvalues(P, nodes, weights, degree, center, halfwidth, digits=40):
    """Ritz eigenvalues of the Guillemin metric on the mean-centred monomials
    of total degree 1..degree in xhat = (x - center)/halfwidth, assembled and
    solved in `digits`-digit mpmath arithmetic on the given nodes and weights
    (converted exactly).  G = 1/2 sum_k nu_k nu_k^T / L_k is built from the
    exact facets and inverted per node; the generalized problem is reduced by
    a Cholesky factor of the mass matrix and solved by `mpmath.eigsy`."""
    import mpmath as mp

    with mp.workdps(digits):
        normals = [[mp.mpf(v) for v in nu] for nu in P.normals]
        offsets = [mp.mpf(c.numerator) / c.denominator for c in map(Fraction, P.offsets)]
        ctr = [mp.mpf(float(v)) for v in center]
        half = [mp.mpf(float(v)) for v in halfwidth]
        w = [mp.mpf(float(v)) for v in weights]
        n = P.dim
        exps = [
            e for e in itertools.product(range(degree + 1), repeat=n) if 1 <= sum(e) <= degree
        ]

        def monomial(xh, e):
            return mp.fprod(xh[i] ** e[i] for i in range(n))

        vals, grads, Hs = [], [], []
        for x in nodes:
            x = [mp.mpf(float(v)) for v in x]
            L = [mp.fdot(nu, x) + c for nu, c in zip(normals, offsets)]
            G = mp.matrix(n, n)
            for nu, Lk in zip(normals, L):
                for i in range(n):
                    for j in range(n):
                        G[i, j] += nu[i] * nu[j] / (2 * Lk)
            Hs.append(G**-1)
            xh = [(x[i] - ctr[i]) / half[i] for i in range(n)]
            vals.append([monomial(xh, e) for e in exps])
            grads.append(
                [
                    [
                        e[j] / half[j] * monomial(xh, tuple(p - (i == j) for i, p in enumerate(e)))
                        if e[j]
                        else mp.mpf(0)
                        for j in range(n)
                    ]
                    for e in exps
                ]
            )
        total = mp.fsum(w)
        B = len(exps)
        means = [mp.fdot(w, [v[a] for v in vals]) / total for a in range(B)]
        centred = [[v[a] - means[a] for a in range(B)] for v in vals]
        Hg = [
            [[mp.fdot([H[i, j] for j in range(n)], g[b]) for i in range(n)] for b in range(B)]
            for H, g in zip(Hs, grads)
        ]
        M, A = mp.matrix(B, B), mp.matrix(B, B)
        for a in range(B):
            for b in range(a, B):
                M[a, b] = M[b, a] = mp.fsum(wq * v[a] * v[b] for wq, v in zip(w, centred))
                A[a, b] = A[b, a] = mp.fsum(
                    wq * mp.fdot(g[a], h[b]) for wq, g, h in zip(w, grads, Hg)
                )
        Linv = mp.cholesky(M) ** -1
        eigs = mp.eigsy(Linv * A * Linv.T, eigvals_only=True)
        return np.array(sorted(float(v) for v in eigs))


# Four Delzant polygons with rational offsets, as polytope JSON, whose kP_k
# loses the type of P at some k just past k0: (polygon, k0, those k in
# k0..k0 + 4).  At those k a vertex of kP_k lies on three facets.
MISTYPED_POLYGONS = [
    (
        {"dim": 2, "facets": [  # x, y >= 0; y <= 3/2; x + 2y <= 17/5
            {"normal": [1, 0], "offset": 0}, {"normal": [0, 1], "offset": 0},
            {"normal": [0, -1], "offset": "3/2"}, {"normal": [-1, -2], "offset": "17/5"},
        ]},
        1, (2,),
    ),
    (
        {"dim": 2, "facets": [  # x, y >= 0; y <= 31/9; x + y <= 18/5
            {"normal": [1, 0], "offset": 0}, {"normal": [0, 1], "offset": 0},
            {"normal": [0, -1], "offset": "31/9"}, {"normal": [-1, -1], "offset": "18/5"},
        ]},
        2, (3,),
    ),
    (
        {"dim": 2, "facets": [  # x >= -1/5, x + y >= -1/3, y >= -29/5, x <= 40/7, y <= 8
            {"normal": [1, 0], "offset": "1/5"}, {"normal": [1, 1], "offset": "1/3"},
            {"normal": [0, 1], "offset": "29/5"}, {"normal": [-1, 0], "offset": "40/7"},
            {"normal": [0, -1], "offset": 8},
        ]},
        3, (4, 5),
    ),
    (
        {"dim": 2, "facets": [  # x >= -2, x + y >= -4/5, y >= -27/4, x <= 28, y <= 9/7
            {"normal": [1, 0], "offset": 2}, {"normal": [1, 1], "offset": "4/5"},
            {"normal": [0, 1], "offset": "27/4"}, {"normal": [-1, 0], "offset": 28},
            {"normal": [0, -1], "offset": "9/7"},
        ]},
        14, (16, 17),
    ),
]
