"""Labelled polytopes with exact rational arithmetic.

A labelled polytope is the data (P, nu): a compact simple polytope cut out
by affine inequalities L_i(x) = <x, nu_i> + c_i >= 0 with primitive integer
inward normals nu_i and rational offsets c_i.  Everything in this module
(membership, vertices, lattice enumeration, the shrunk polytopes P_k and the
eigenvalue bound they produce) is exact, so reruns are bit-identical.
Vertices and offsets are `fractions.Fraction`; each vertex solves n facet
equations by Cramer's rule.  Boundedness, non-redundancy of a facet and the
combinatorial type are read from the vertex active sets, because the edges
of a simple n-polytope are the (n-1)-subsets of those sets, each shared by
exactly two vertices (Ziegler, Lectures on Polytopes, ch. 3).  The lattice
scan decides membership of j/k and the facet minima L_min in integers, from
<nu_i, j> >= ceil(-k c_i), and builds `Fraction` values only for its output.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "PolytopeError",
    "InvalidPolytope",
    "UnboundedOrEmpty",
    "NonSimple",
    "MismatchedNormals",
    "EmptyLattice",
    "K0NotFound",
    "PrematureK",
    "DegenerateN",
    "Vertex",
    "LatticeData",
    "BlyBound",
    "LabelledPolytope",
    "same_combinatorial_type",
    "polytope_from_dict",
    "polytope_to_dict",
    "load_polytope",
]


class PolytopeError(Exception):
    """Base class for polytope failures."""


class InvalidPolytope(PolytopeError):
    """Construction-time rejection (non-primitive normal, redundant facet, ...)."""


class UnboundedOrEmpty(PolytopeError):
    """The feasible set is empty, unbounded, or has empty interior."""


class NonSimple(PolytopeError):
    """Some vertex lies on more than `dim` facets."""


class MismatchedNormals(PolytopeError):
    """Combinatorial comparison requires identical normal lists."""


class EmptyLattice(PolytopeError):
    """P contains no point of Z^n/k."""


class K0NotFound(PolytopeError):
    """No k <= k_max produced a shrunk polytope of the right combinatorial type."""


class PrematureK(PolytopeError):
    """Requested refinement k is below k0(P)."""


class DegenerateN(PolytopeError):
    """The lattice count N_k vanishes, so the bound formula is undefined."""


# ---------------------------------------------------------------------------
# exact determinants and Cramer's rule


def _det(rows: Sequence[Sequence]) -> Fraction | int:
    """Exact determinant of integer or `Fraction` entries: closed forms for
    n <= 3, cofactor expansion along the first row beyond."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    det = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        det += (-1) ** j * rows[0][j] * _det(minor)
    return det


def _solve_square(rows: Sequence[Sequence[int]], rhs: Sequence[Fraction]):
    """Solve an n x n system with integer rows and rational right-hand side
    by Cramer's rule, x_j = det(A_j) / det(A); None if singular."""
    det = _det(rows)
    if det == 0:
        return None
    return tuple(
        _det([(*row[:j], b, *row[j + 1 :]) for row, b in zip(rows, rhs)]) / det
        for j in range(len(rows))
    )


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vertex:
    """A vertex with the sorted indices of the facets it saturates."""

    coords: tuple
    active: tuple


@dataclass(frozen=True)
class LatticeData:
    """P intersected with Z^n/k: the points, the count N_k, the facet minima
    L_min(i, k) and the shrunk polytope P_k = {L_i >= L_min(i, k)}."""

    k: int
    points: tuple
    n_k: int
    l_min: tuple
    shrunk: "LabelledPolytope"


@dataclass(frozen=True)
class BlyBound:
    """One evaluation of the lattice-point eigenvalue bound 2nk(N_k+1)/N_k."""

    k_used: int
    n_k: int
    bound: Fraction
    is_integer_bound: bool

    @classmethod
    def from_lattice(cls, dim: int, data: LatticeData) -> "BlyBound":
        """The bound at data.k from its lattice count N_k."""
        if data.n_k == 0:
            raise DegenerateN(f"N_{data.k} = 0: the bound formula is undefined")
        bound = Fraction(2 * dim * data.k * (data.n_k + 1), data.n_k)
        return cls(
            k_used=data.k,
            n_k=data.n_k,
            bound=bound,
            is_integer_bound=bound.denominator == 1,
        )

    def to_dict(self) -> dict:
        return {
            "k_used": self.k_used,
            "n_k": self.n_k,
            "bound": _fraction_to_json(self.bound),
            "is_integer_bound": self.is_integer_bound,
        }


def _gcd_all(values: Iterable[int]) -> int:
    g = 0
    for v in values:
        g = math.gcd(g, abs(v))
    return g


class LabelledPolytope:
    """Compact simple polytope {x : <x, nu_i> + c_i >= 0} with integer normals.

    Normals must be primitive; offsets are rationals.  Construction validates
    boundedness, nonempty interior, simplicity and facet non-redundancy unless
    ``validate=False`` (used internally for candidate shrunk polytopes that may
    be degenerate).
    """

    def __init__(self, dim: int, facets: Sequence[tuple], validate: bool = True):
        if dim < 1:
            raise InvalidPolytope("dimension must be >= 1")
        normals = []
        offsets = []
        for idx, (normal, offset) in enumerate(facets):
            nvec = tuple(int(v) for v in normal)
            if len(nvec) != dim:
                raise InvalidPolytope(f"facet {idx}: normal has length {len(nvec)}, expected {dim}")
            if any(int(v) != v for v in normal):
                raise InvalidPolytope(f"facet {idx}: normal entries must be integers")
            if _gcd_all(nvec) != 1:
                raise InvalidPolytope(f"facet {idx}: normal {nvec} is not primitive")
            normals.append(nvec)
            offsets.append(Fraction(offset))
        self.dim = dim
        self.normals = tuple(normals)
        self.offsets = tuple(offsets)
        self._vertices: Optional[tuple] = None
        self._float_facets: Optional[tuple] = None
        if validate:
            if len(normals) < dim + 1:
                raise InvalidPolytope(f"need at least {dim + 1} facets, got {len(normals)}")
            self._validate()

    # -- basic geometry -----------------------------------------------------

    @property
    def num_facets(self) -> int:
        return len(self.normals)

    def defining_values(self, x: Sequence) -> tuple:
        """The tuple (L_1(x), ..., L_d(x))."""
        return tuple(
            sum(Fraction(xi) * ni for xi, ni in zip(x, nu)) + c
            for nu, c in zip(self.normals, self.offsets)
        )

    def contains(self, x: Sequence) -> bool:
        return all(v >= 0 for v in self.defining_values(x))

    def float_facets(self) -> tuple:
        """(normals, offsets) as read-only float arrays of shape (d, n) and
        (d,), built on first use."""
        if self._float_facets is None:
            A = np.array(self.normals, dtype=float)
            c = np.array([float(v) for v in self.offsets])
            A.flags.writeable = c.flags.writeable = False
            self._float_facets = (A, c)
        return self._float_facets

    def vertices(self) -> tuple:
        """All vertices as `Vertex` objects, sorted lexicographically.

        Raises UnboundedOrEmpty / NonSimple when the halfspace data does not
        describe a compact simple polytope with interior.
        """
        if self._vertices is not None:
            return self._vertices
        n, d = self.dim, self.num_facets
        found: dict = {}
        for subset in itertools.combinations(range(d), n):
            rows = [self.normals[i] for i in subset]
            rhs = [-self.offsets[i] for i in subset]
            x = _solve_square(rows, rhs)
            if x is None:
                continue
            vals = self.defining_values(x)
            if any(v < 0 for v in vals):
                continue
            found[x] = tuple(i for i, v in enumerate(vals) if v == 0)
        if not found:
            raise UnboundedOrEmpty("no feasible vertex; polytope is empty or contains a line")
        for coords, active in found.items():
            if len(active) > n:
                raise NonSimple(f"vertex {coords} lies on facets {active}")
        # At a simple vertex every n-1 of its n facets span an edge, and the
        # edge is bounded iff a second vertex has the same n-1 facets active;
        # a pointed polyhedron whose edges are all bounded is a polytope.
        ends = Counter(
            e for active in found.values() for e in itertools.combinations(active, n - 1)
        )
        if any(count != 2 for count in ends.values()):
            raise UnboundedOrEmpty("an edge has only one vertex; polytope is unbounded")
        coords_sorted = sorted(found)
        bary = tuple(
            sum(c[i] for c in coords_sorted) / len(coords_sorted) for i in range(n)
        )
        if any(v <= 0 for v in self.defining_values(bary)):
            raise UnboundedOrEmpty("empty interior: vertex barycenter lies on a facet")
        self._vertices = tuple(Vertex(c, found[c]) for c in coords_sorted)
        return self._vertices

    def _validate(self):
        # A facet active at a simple vertex carries the n - 1 edges of that
        # vertex that stay on it, so it is redundant iff no vertex has it.
        carried = {i for v in self.vertices() for i in v.active}
        for i in range(self.num_facets):
            if i not in carried:
                raise InvalidPolytope(
                    f"facet {i} is redundant: it does not carry a {self.dim - 1}-dimensional face"
                )

    def bounding_box(self) -> tuple:
        """Exact per-axis (min, max) over the vertices."""
        verts = self.vertices()
        lo = tuple(min(v.coords[i] for v in verts) for i in range(self.dim))
        hi = tuple(max(v.coords[i] for v in verts) for i in range(self.dim))
        return lo, hi

    def vertex_barycenter(self) -> tuple:
        verts = self.vertices()
        return tuple(
            sum(v.coords[i] for v in verts) / len(verts) for i in range(self.dim)
        )

    def translated(self, shift: Sequence) -> "LabelledPolytope":
        """The polytope P - shift (so x=0 corresponds to x=shift in P)."""
        shift = tuple(Fraction(s) for s in shift)
        facets = [
            (nu, c + sum(s * v for s, v in zip(shift, nu)))
            for nu, c in zip(self.normals, self.offsets)
        ]
        return LabelledPolytope(self.dim, facets)

    # -- lattice combinatorics ----------------------------------------------

    def is_delzant(self) -> bool:
        """True iff the active normals at every vertex have determinant +-1."""
        for v in self.vertices():
            rows = [self.normals[i] for i in v.active]
            if abs(_det(rows)) != 1:
                return False
        return True

    def is_integral(self) -> bool:
        """True iff every vertex has integer coordinates."""
        return all(
            all(c.denominator == 1 for c in v.coords) for v in self.vertices()
        )

    def lattice_points(self, k: int) -> LatticeData:
        """Enumerate P  intersect  Z^n/k and derive L_min and the shrunk P_k."""
        if k < 1:
            raise ValueError("k must be a positive integer")
        lo, hi = self.bounding_box()
        ranges = [
            range(math.ceil(k * lo[i]), math.floor(k * hi[i]) + 1)
            for i in range(self.dim)
        ]
        # j/k lies in P iff <nu_i, j> >= t_i = ceil(-k c_i).  Over each prefix
        # of the first n-1 coordinates every facet bounds the last coordinate
        # j_n from below (nu_in > 0), from above (nu_in < 0) or not at all.
        facets = [
            (nu[:-1], nu[-1], math.ceil(-k * c))
            for nu, c in zip(self.normals, self.offsets)
        ]
        last = ranges[-1]
        last_fracs = [Fraction(j, k) for j in last]
        prefix_fracs = [{j: Fraction(j, k) for j in r} for r in ranges[:-1]]
        points = []
        low_sums = [math.inf] * len(facets)  # min <nu_i, j> over the points
        for js in itertools.product(*ranges[:-1]):
            sums = [sum(v * j for v, j in zip(head, js)) for head, _, _ in facets]
            j_lo, j_hi = last.start, last.stop - 1
            for s, (_, a, t) in zip(sums, facets):
                if a > 0:
                    j_lo = max(j_lo, -((s - t) // a))
                elif a < 0:
                    j_hi = min(j_hi, (t - s) // a)
                elif s < t:  # the prefix itself lies outside facet i
                    j_hi = j_lo - 1
            if j_lo > j_hi:
                continue
            low_sums = [
                min(m, s + a * (j_lo if a > 0 else j_hi))
                for m, s, (_, a, _) in zip(low_sums, sums, facets)
            ]
            head = tuple(fr[j] for fr, j in zip(prefix_fracs, js))
            points.extend(
                head + (f,) for f in last_fracs[j_lo - last.start : j_hi - last.start + 1]
            )
        if not points:
            raise EmptyLattice(f"P contains no point of Z^{self.dim}/{k}")
        points = tuple(points)
        l_min = tuple(Fraction(m, k) + c for m, c in zip(low_sums, self.offsets))
        shrunk = LabelledPolytope(
            self.dim,
            [(nu, c - m) for nu, c, m in zip(self.normals, self.offsets, l_min)],
            validate=False,
        )
        return LatticeData(k=k, points=points, n_k=len(points) - 1, l_min=l_min, shrunk=shrunk)

    def k0(self, k_max: int = 64) -> int:
        """Smallest k <= k_max whose shrunk polytope P_k matches P combinatorially."""
        return self.k0_lattice(k_max).k

    def k0_lattice(self, k_max: int = 64) -> LatticeData:
        """The `LatticeData` of P intersect Z^n/k0, kept from the k0 search."""
        if not self.is_delzant():
            raise InvalidPolytope("k0 is defined for Delzant polytopes")
        for k in range(1, k_max + 1):
            try:
                data = self.lattice_points(k)
            except EmptyLattice:
                continue
            if same_combinatorial_type(self, data.shrunk):
                return data
        raise K0NotFound(f"no k <= {k_max} reproduces the combinatorial type; raise k_max")

    def check_kpk_integral(self, k: int, k_max: int = 64) -> dict:
        """Build kP_k and report integrality, the Delzant test and the count match."""
        data = self.k0_lattice(k_max)
        if k < data.k:
            raise PrematureK(f"k={k} is below k0={data.k}")
        if k > data.k:
            data = self.lattice_points(k)
        kpk = LabelledPolytope(
            self.dim,
            [
                (nu, k * (c - m))
                for nu, c, m in zip(self.normals, self.offsets, data.l_min)
            ],
        )
        count = len(kpk.lattice_points(1).points)
        return {
            "k": k,
            "is_integral": kpk.is_integral(),
            "is_delzant": kpk.is_delzant(),
            "lattice_count_matches": count == data.n_k + 1,
            "n_k": data.n_k,
        }

    def bly_bound(self, k: Optional[int] = None, k_max: int = 64) -> BlyBound:
        """The exact rational eigenvalue bound 2nk(N_k+1)/N_k.

        With no k the integral case uses k=1 and the non-integral case k=k0(P).
        """
        data = None if self.is_integral() else self.k0_lattice(k_max)
        threshold = 1 if data is None else data.k
        if k is None:
            k = threshold
        elif k < threshold:
            raise PrematureK(f"k={k} is below k0={threshold}")
        if data is None or k > data.k:
            data = self.lattice_points(k)
        return BlyBound.from_lattice(self.dim, data)

    # -- misc -----------------------------------------------------------------

    def __repr__(self):
        return f"LabelledPolytope(dim={self.dim}, facets={self.num_facets})"

    def __eq__(self, other):
        return (
            isinstance(other, LabelledPolytope)
            and self.dim == other.dim
            and self.normals == other.normals
            and self.offsets == other.offsets
        )

    def __hash__(self):
        return hash((self.dim, self.normals, self.offsets))


def same_combinatorial_type(P: LabelledPolytope, Q: LabelledPolytope) -> bool:
    """True iff Q is a simple polytope whose vertex active sets are those of
    P.  Every facet of P is active at a vertex, so equal families also keep
    every facet of Q.  Requires identical normal lists (parallel facets give
    the canonical facet correspondence)."""
    if P.dim != Q.dim or P.normals != Q.normals:
        raise MismatchedNormals("combinatorial comparison needs identical normal lists")
    try:
        verts_q = Q.vertices()
    except (UnboundedOrEmpty, NonSimple):
        return False
    family_p = {frozenset(v.active) for v in P.vertices()}
    family_q = {frozenset(v.active) for v in verts_q}
    return family_p == family_q


# ---------------------------------------------------------------------------
# JSON interface


def _offset_from_json(value, index: int) -> Fraction:
    if isinstance(value, bool):
        raise InvalidPolytope(f"facet {index}: offset must be an integer or a rational string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidPolytope(f"facet {index}: cannot parse offset {value!r}") from exc
    raise InvalidPolytope(
        f"facet {index}: offset must be an integer, a decimal string or 'p/q', got {value!r}"
    )


def _fraction_to_json(value: Fraction):
    return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def polytope_from_dict(data: dict) -> LabelledPolytope:
    """Parse {"dim": n, "facets": [{"normal": [...], "offset": ...}, ...]}."""
    try:
        dim = int(data["dim"])
        raw_facets = data["facets"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidPolytope("polytope JSON needs 'dim' and 'facets'") from exc
    if not isinstance(raw_facets, list):
        raise InvalidPolytope("'facets' must be a list")
    facets = []
    for idx, entry in enumerate(raw_facets):
        try:
            normal = entry["normal"]
        except (KeyError, TypeError) as exc:
            raise InvalidPolytope(f"facet {idx}: missing 'normal'") from exc
        if not isinstance(normal, list):
            raise InvalidPolytope(f"facet {idx}: normal must be a list of integers")
        for v in normal:
            if isinstance(v, bool) or not isinstance(v, int):
                raise InvalidPolytope(f"facet {idx}: normal entries must be integers")
        facets.append((normal, _offset_from_json(entry.get("offset", 0), idx)))
    return LabelledPolytope(dim, facets)


def polytope_to_dict(P: LabelledPolytope) -> dict:
    return {
        "dim": P.dim,
        "facets": [
            {"normal": list(nu), "offset": _fraction_to_json(c)}
            for nu, c in zip(P.normals, P.offsets)
        ],
    }


def load_polytope(path) -> LabelledPolytope:
    with open(path, "r", encoding="utf-8") as fh:
        return polytope_from_dict(json.load(fh))
