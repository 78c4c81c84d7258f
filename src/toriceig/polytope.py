"""Labelled polytopes with exact rational arithmetic.

A labelled polytope is the data (P, nu): a compact simple polytope cut out
by affine inequalities L_i(x) = <x, nu_i> + c_i >= 0 with primitive integer
inward normals nu_i and rational offsets c_i.  Everything in this module
(membership, vertices, lattice counts and listings, the k0 search and the
eigenvalue bound) is exact, so reruns are bit-identical.
The arithmetic is in integers, and `fractions.Fraction` values are made
only for what is reported: vertex coordinates, offsets and bounds.  Each
n-subset of facets is solved by Cramer's rule over the offsets scaled to
integers, all subsets at once from their adjugates and determinants,
tabulated once per polytope, which gives the vertex active sets exactly.
Boundedness, non-redundancy of a facet and the combinatorial type are read
from those sets, because the edges of a simple n-polytope are the
(n-1)-subsets of them, each shared by exactly two vertices (Ziegler,
Lectures on Polytopes, ch. 3).  The lattice scan is one numpy pass over
the columns of the bounding box of k P: it decides membership of j/k from
<nu_i, j> >= ceil(-k c_i) and keeps each column's first and last point.
Counting is that scan alone.  It gives N_k and the integer offsets of
kP_k = {<nu_i, y> >= min_j <nu_i, j>}, on which the k0 search decides the
type, with no point or Fraction made.  Listing is the scan followed by the
integer array of numerators j, each written once, and returns only those
and N_k.  Before allocating, the scan checks that its values fit int64 and
its column table fits MAX_LATTICE entries, and a listing that its points
do too.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "PolytopeError",
    "InvalidPolytope",
    "UnboundedOrEmpty",
    "NonSimple",
    "EmptyLattice",
    "LatticeTooLarge",
    "K0NotFound",
    "PrematureK",
    "DegenerateN",
    "Vertex",
    "LatticeCount",
    "LatticeData",
    "BlyBound",
    "LabelledPolytope",
    "polytope_from_dict",
    "polytope_to_dict",
    "load_polytope",
]


class PolytopeError(Exception):
    """Base class for polytope failures."""


class InvalidPolytope(PolytopeError):
    """Construction-time rejection (non-primitive normal, redundant facet, ...)."""


class UnboundedOrEmpty(PolytopeError):
    """The feasible set is empty or unbounded (an empty interior is NonSimple)."""


class NonSimple(PolytopeError):
    """Some vertex lies on more than `dim` facets."""


class EmptyLattice(PolytopeError):
    """P contains no point of Z^n/k."""


class LatticeTooLarge(PolytopeError):
    """The scan of P intersect Z^n/k would hold more than MAX_LATTICE entries
    or compute a value outside int64."""


class K0NotFound(PolytopeError):
    """No k <= k_max produced a shrunk polytope of the right combinatorial type."""


class PrematureK(PolytopeError):
    """Requested refinement k is below k0(P)."""


class DegenerateN(PolytopeError):
    """The lattice count N_k vanishes, so the bound formula is undefined."""


# the most int64 entries a lattice scan puts in its column table, or a
# listing in its point array: 256 MiB
MAX_LATTICE = 2**25


def _check_lattice_size(k: int, what: str, count: int, width: int) -> None:
    """Refuse, before allocating, `count` rows of `width` entries each past
    MAX_LATTICE."""
    if count * width > MAX_LATTICE:
        raise LatticeTooLarge(
            f"k={k} needs {count} lattice {what} of {width} entries each, "
            f"more than the MAX_LATTICE = {MAX_LATTICE} entries a scan may hold"
        )


# ---------------------------------------------------------------------------
# exact determinants


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix: closed forms for n <= 3,
    cofactor expansion along the first row beyond."""
    n = len(rows)
    if n == 0:
        return 1
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


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vertex:
    """A vertex with the sorted indices of the facets it saturates."""

    coords: tuple
    active: tuple


@dataclass(frozen=True)
class LatticeCount:
    """N_k and the facet minima of P intersected with Z^n/k, from the column
    scan alone.  low_sums[i] is the least <nu_i, j> over the numerators j, so
    L_min(i, k) = low_sums[i] / k + c_i and kP_k = {<nu_i, y> >= low_sums[i]}.
    """

    k: int
    n_k: int
    low_sums: tuple


@dataclass(frozen=True)
class LatticeData:
    """P intersected with Z^n/k: the points and the count N_k.

    `points` is a read-only (N_k + 1, n) integer array of numerators, in
    lexicographic order: row j is the point j/k.  Its dtype is int64, or
    object (Python ints) when some numerator leaves the int64 range.
    """

    k: int
    points: np.ndarray
    n_k: int


@dataclass(frozen=True)
class BlyBound:
    """One evaluation of the lattice-point eigenvalue bound 2nk(N_k+1)/N_k."""

    k_used: int
    n_k: int
    bound: Fraction
    is_integer_bound: bool

    @classmethod
    def from_lattice(cls, dim: int, data: LatticeCount) -> "BlyBound":
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


def _gcd_all(values: Iterable[int]) -> int:
    g = 0
    for v in values:
        g = math.gcd(g, abs(v))
    return g


class LabelledPolytope:
    """Compact simple polytope {x : <x, nu_i> + c_i >= 0} with integer normals.

    Normals must be primitive; offsets are rationals.  Construction validates
    the facet count, boundedness, nonempty interior, simplicity and facet
    non-redundancy.
    """

    def __init__(self, dim: int, facets: Sequence[tuple]):
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
        self._box: Optional[tuple] = None
        self._float_facets: Optional[tuple] = None
        self._cramer: Optional[tuple] = None
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
        if self._vertices is None:
            verts = (
                Vertex(tuple(Fraction(x, den) for x in num), active)
                for active, (num, den) in self._vertex_table().items()
            )
            self._vertices = tuple(sorted(verts, key=lambda v: v.coords))
        return self._vertices

    def _vertex_table(self) -> dict:
        """{active set: (numerators, denominator)} of the vertices, checked
        for simplicity, boundedness and interior; the vertex is
        numerators / denominator.

        The offsets are scaled to the integers b = D c, D the lcm of their
        denominators, and solved by `_vertex_sets`.
        """
        n = self.dim
        D = math.lcm(*(c.denominator for c in self.offsets))
        b = [c.numerator * (D // c.denominator) for c in self.offsets]
        found = {active: (num, D * det) for active, (num, det) in self._vertex_sets(b).items()}
        if not found:
            raise UnboundedOrEmpty("no feasible vertex; polytope is empty or contains a line")
        for active, (num, den) in found.items():
            if len(active) > n:
                coords = tuple(Fraction(x, den) for x in num)
                raise NonSimple(f"vertex {coords} lies on facets {active}")
        # At a simple vertex every n-1 of its n facets span an edge, and the
        # edge is bounded iff a second vertex has the same n-1 facets active;
        # a pointed polyhedron whose edges are all bounded is a polytope.
        ends = Counter(e for active in found for e in itertools.combinations(active, n - 1))
        if any(count != 2 for count in ends.values()):
            raise UnboundedOrEmpty("an edge has only one vertex; polytope is unbounded")
        # No check for an empty interior is needed: the facets that vanish on
        # such a polyhedron have positively dependent normals, spanning fewer
        # dimensions than their number, so each vertex lies on at least n + 1
        # facets and NonSimple is raised above.
        return found

    def _vertex_sets(self, b: Sequence[int]) -> dict:
        """{active set: (numerators, det)} of the feasible n-subset solutions
        of {<nu_i, x> + b_i / D >= 0} for integer offsets b and any scale D,
        unchecked for simplicity or boundedness; the vertex is numerators /
        (D det).  An active set determines its vertex, so it is the key, in
        the order of the first n-subset that reaches the vertex.

        On a subset S with adjugate A_S and det_S > 0 (both sign-flipped if
        needed), Cramer's rule gives x = num_S / (D det_S), num_S = -A_S b_S,
        and D det_S L_i(x) = <nu_i, num_S> + det_S b_i.  The subsets, A_S and
        det_S are tabulated once, and every S is solved in two products.  They
        run in int64 when `reach` times max |b| is below 2**63, and in Python
        ints otherwise.
        """
        n = self.dim
        if self._cramer is None:
            subsets, adjs, dets = [], [], []
            for subset in itertools.combinations(range(self.num_facets), n):
                rows = [self.normals[i] for i in subset]
                det = _det(rows)
                if det == 0:
                    continue
                sign = 1 if det > 0 else -1
                minors = [rows[:i] + rows[i + 1 :] for i in range(n)]
                # entry (j, i) of A_S: the signed cofactor of row i, column j
                adjs.append([
                    [
                        sign * (-1) ** (i + j) * _det([r[:j] + r[j + 1 :] for r in minor])
                        for i, minor in enumerate(minors)
                    ]
                    for j in range(n)
                ])
                subsets.append(subset)
                dets.append(sign * det)
            # |num_S| <= (max row sum of |A_S|) max |b|, so each value, and each
            # partial sum of it, is at most reach * max |b|
            width = max(sum(map(abs, nu)) for nu in self.normals)
            reach = max(
                (width * max(sum(map(abs, row)) for row in adj) + det for adj, det in zip(adjs, dets)),
                default=1,
            )
            dtype = np.int64 if reach < 2**63 else object
            self._cramer = (
                np.array(subsets, dtype=np.intp).reshape(-1, n),
                np.array(adjs, dtype=dtype).reshape(-1, n, n),
                np.array(dets, dtype=dtype),
                np.array(self.normals, dtype=dtype).T,
                reach,
            )
        subsets, adjs, dets, normals, reach = self._cramer
        dtype = np.int64 if adjs.dtype == np.int64 and reach * max(map(abs, b)) < 2**63 else object
        adjs, dets, normals = (a.astype(dtype, copy=False) for a in (adjs, dets, normals))
        b = np.array(b, dtype=dtype)
        num = -(adjs @ b[subsets][:, :, None])[:, :, 0]
        vals = num @ normals + dets[:, None] * b
        feasible = (vals >= 0).all(axis=1)
        found: dict = {}
        for row, x, det in zip(vals[feasible].tolist(), num[feasible].tolist(), dets[feasible].tolist()):
            found.setdefault(tuple(i for i, v in enumerate(row) if v == 0), (x, det))
        return found

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
        """Exact per-axis (min, max) over the vertices, built on first use."""
        if self._box is None:
            axes = list(zip(*(v.coords for v in self.vertices())))
            self._box = (tuple(map(min, axes)), tuple(map(max, axes)))
        return self._box

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

    def _scan(self, k: int) -> tuple:
        """The column scan of P intersect Z^n/k: (count, j0, size, prefix,
        first, lengths).  Column c of the box j0 + [0, size) holds the points
        j0 + (prefix[:, c], first[c] + t) for 0 <= t < lengths[c]."""
        if k < 1:
            raise ValueError("k must be a positive integer")
        n = self.dim
        lo, hi = self.bounding_box()
        j0 = [-(-k * v.numerator // v.denominator) for v in lo]
        size = [k * h.numerator // h.denominator - j + 1 for h, j in zip(hi, j0)]
        # j/k lies in P iff <nu_i, j> >= ceil(-k c_i).  With j = j0 + i and i
        # in the box [0, size), that is <nu_i, i> >= t_i.  Over each prefix of
        # the first n-1 coordinates, in lexicographic order, facet i bounds
        # the last coordinate from below (a > 0), from above (a < 0) or not
        # at all.  t_i is clamped to the range of <nu_i, i> over the box.  That
        # range, the box and the normals are bounded by sum |nu_i| max(m, 1),
        # so below 2**63 every value of the scan is an int64.
        shift = [sum(v * j for v, j in zip(nu, j0)) for nu in self.normals]
        columns = math.prod(size[:-1])
        # a column holds its prefix (n - 1), facet sums (d), first, last and
        # length, one temporary, and an eighth each of two boolean masks
        _check_lattice_size(k, "columns", columns, n + self.num_facets + 3)
        box = [max(m, 1) for m in size]
        reach = max(sum(map(mul, map(abs, nu), box)) for nu in self.normals)
        if reach >= 2**63:
            raise LatticeTooLarge(f"k={k}: the lattice scan reaches {reach}, past the int64 range")
        prefix = np.indices(size[:-1]).reshape(n - 1, columns)
        normals = np.array(self.normals, dtype=np.int64)
        sums = normals[:, :-1] @ prefix
        first = np.zeros(prefix.shape[1], dtype=np.int64)
        last = np.full(prefix.shape[1], size[-1] - 1)
        for nu, c, s, row in zip(self.normals, self.offsets, shift, sums):
            low = sum(v * (m - 1) for v, m in zip(nu, size) if v < 0)
            high = sum(v * (m - 1) for v, m in zip(nu, size) if v > 0)
            t = min(max(-(k * c.numerator // c.denominator) - s, low), high + 1)
            a = nu[-1]
            if a > 0:
                np.maximum(first, -((row - t) // a), out=first)
            elif a < 0:
                np.minimum(last, (t - row) // a, out=last)
            else:
                last[row < t] = -1
        keep = first <= last
        if not keep.any():
            raise EmptyLattice(f"P contains no point of Z^{n}/{k}")
        # L_min: <nu_i, i> is least at the end of each row that facet i bounds.
        # The ends are added into sums in place and each minimum is taken over
        # the columns with a point; values in the others may wrap, unread.
        for nu, row in zip(self.normals, sums):
            row += nu[-1] * (first if nu[-1] > 0 else last)
        low_sums = tuple(int(r.min(where=keep, initial=2**63 - 1)) + s for r, s in zip(sums, shift))
        # an empty column has length 0, so a listing skips it
        lengths = last - first + 1
        lengths[~keep] = 0
        # each length is at most size[-1]; past 2**63 the int64 sum may wrap
        total = int(lengths.sum()) if len(lengths) * size[-1] < 2**63 else sum(lengths.tolist())
        return LatticeCount(k, total - 1, low_sums), j0, size, prefix, first, lengths

    def lattice_count(self, k: int) -> LatticeCount:
        """N_k and the facet minima of P intersect Z^n/k, counted without
        listing a point."""
        return self._scan(k)[0]

    def lattice_points(self, k: int) -> LatticeData:
        """Enumerate P intersect Z^n/k."""
        count, j0, size, prefix, first, lengths = self._scan(k)
        n, total = self.dim, count.n_k + 1
        _check_lattice_size(k, "points", total, n)
        # Row p of column c is (prefix[:, c], first[c] - starts[c] + p), built
        # in place as the running sum of its jumps at column starts; an int64
        # sum that wraps on the way wraps back, as each point fits.  Past
        # int64 the rows start at 0 and j0 is added in Python ints.
        fits = all(-(2**63) <= j and j + m <= 2**63 for j, m in zip(j0, size))
        base = j0 if fits else [0] * n
        rows = np.empty((total, n), dtype=np.int64)
        kept = lengths > 0
        starts = np.cumsum(lengths[kept]) - lengths[kept]
        for i, col in enumerate(rows.T):
            heads = prefix[i][kept] if i < n - 1 else first[kept] - starts
            col.fill(i == n - 1)
            col[starts[1:]] = np.diff(heads) + (i == n - 1)
            col[0] = heads[0] + base[i]
            np.cumsum(col, out=col)
        points = rows if fits else rows.astype(object) + np.array(j0, dtype=object)
        points.flags.writeable = False
        return LatticeData(k=k, points=points, n_k=count.n_k)

    def k0(self, k_max: int = 64) -> int:
        """Smallest k <= k_max whose shrunk polytope P_k matches P combinatorially."""
        return self.k0_count(k_max).k

    def k0_count(self, k_max: int = 64) -> LatticeCount:
        """The k0 search: the `LatticeCount` at the smallest k <= k_max whose
        P_k matches P combinatorially.  P_k has the type of kP_k =
        {<nu_i, y> >= low_sums[i]}, whose vertex active sets are solved on
        its integer offsets."""
        if not self.is_delzant():
            raise InvalidPolytope("k0 is defined for Delzant polytopes")
        family = {v.active for v in self.vertices()}
        for k in range(1, k_max + 1):
            try:
                count = self.lattice_count(k)
            except EmptyLattice:
                continue
            if self._vertex_sets([-m for m in count.low_sums]).keys() == family:
                return count
        raise K0NotFound(f"no k <= {k_max} reproduces the combinatorial type; raise k_max")

    def check_kpk_integral(self, k: int, k_max: int = 64) -> dict:
        """Build kP_k and report integrality, the Delzant test and the count match."""
        count = self.k0_count(k_max)
        if k < count.k:
            raise PrematureK(f"k={k} is below k0={count.k}")
        if k > count.k:
            count = self.lattice_count(k)
        kpk = LabelledPolytope(self.dim, [(nu, -m) for nu, m in zip(self.normals, count.low_sums)])
        return {
            "k": k,
            "is_integral": kpk.is_integral(),
            "is_delzant": kpk.is_delzant(),
            "lattice_count_matches": kpk.lattice_count(1).n_k == count.n_k,
            "n_k": count.n_k,
        }

    def bly_bound(self, k: Optional[int] = None, k_max: int = 64) -> BlyBound:
        """The exact rational eigenvalue bound 2nk(N_k+1)/N_k.

        With no k the integral case uses k=1 and the non-integral case k=k0(P).
        """
        count = None if self.is_integral() else self.k0_count(k_max)
        threshold = 1 if count is None else count.k
        if k is None:
            k = threshold
        elif k < threshold:
            raise PrematureK(f"k={k} is below k0={threshold}")
        if count is None or k > count.k:
            count = self.lattice_count(k)
        return BlyBound.from_lattice(self.dim, count)

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


def polytope_from_dict(data: dict) -> LabelledPolytope:
    """Parse {"dim": n, "facets": [{"normal": [...], "offset": ...}, ...]}."""
    try:
        dim = data["dim"]
        raw_facets = data["facets"]
    except (KeyError, TypeError) as exc:
        raise InvalidPolytope("polytope JSON needs 'dim' and 'facets'") from exc
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise InvalidPolytope("'dim' must be an integer")
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
            {"normal": list(nu), "offset": int(c) if c.denominator == 1 else str(c)}
            for nu, c in zip(P.normals, P.offsets)
        ],
    }


def load_polytope(path) -> LabelledPolytope:
    with open(path, "r", encoding="utf-8") as fh:
        return polytope_from_dict(json.load(fh))
