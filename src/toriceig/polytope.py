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
Lectures on Polytopes, ch. 3).  The lattice scan is one numpy pass over a
window of consecutive k: the box of each k P, its facet shifts and targets
are integer arrays over the window, and the columns of every k form one
table.  It decides membership of j/k from <nu_i, j> >= ceil(-k c_i) and
keeps each column's first and last point, and gives each k its N_k and the
integer offsets of kP_k = {<nu_i, y> >= min_j <nu_i, j>}.  The k0 search
walks windows that double in length and decides the type of every kP_k of
a window in one stacked solve, with no point or Fraction made; the bound
rows after k0 come from the same windows.  The bound at k needs a Delzant P
and kP_k of P's type, and a k whose kP_k has P's type is >= k0 and needs no
search; a bound row without it is dropped, and `bly_bound(k)` raises
WrongTypeK.  A k's error (a scan past MAX_LATTICE or int64, or an empty
lattice, which the search skips) is kept with that k and raised only when
the walk reaches it.  A window holds at most WINDOW_ENTRIES column entries,
and one k at least; a single k, as `lattice_count` and `lattice_points`
scan, is capped by MAX_LATTICE.  Listing is the scan followed by the
integer array of numerators j, each written once, and returns only those
and N_k.  Before allocating, the scan checks that its values fit int64 and
each k's column table fits MAX_LATTICE entries, and a listing that its
points do too.

The Cramer solve alone refuses a vertex on more than n facets, and
`check_kpk_integral` solves kP_k there with no second scan, as kP_k and kP
hold the same lattice points.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

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
    "WrongTypeK",
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


class WrongTypeK(PolytopeError):
    """At refinement k, kP_k does not have the combinatorial type of P, so
    the bound at k is not the paper's."""


# the most int64 entries a lattice scan puts in its column table, or a
# listing in its point array: 256 MiB
MAX_LATTICE = 2**25
# the most column-table entries one scan window of several k holds (512 KiB
# of int64); a window holds at least one k, which MAX_LATTICE alone caps
WINDOW_ENTRIES = 2**16


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


@dataclass(frozen=True, eq=False)
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
        """The bound at data.k from its lattice count N_k.  Every caller
        passes a k whose kP_k has P's type: a full-dimensional lattice
        polytope with n + 1 vertices or more, so N_k >= n >= 1."""
        bound = Fraction(2 * dim * data.k * (data.n_k + 1), data.n_k)
        return cls(
            k_used=data.k,
            n_k=data.n_k,
            bound=bound,
            is_integer_bound=bound.denominator == 1,
        )


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
            if math.gcd(*nvec) != 1:
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
        self._table: Optional[tuple] = None
        self._family: Optional[tuple] = None
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
        denominators, and solved by `_vertex_dict`.
        """
        n = self.dim
        D = math.lcm(*(c.denominator for c in self.offsets))
        b = [c.numerator * (D // c.denominator) for c in self.offsets]
        found = self._vertex_dict(b, D)
        if not found:
            raise UnboundedOrEmpty("no feasible vertex; polytope is empty or contains a line")
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

    def _vertex_sets(self, bs: Sequence[Sequence[int]]) -> tuple:
        """The n-subset solutions of {<nu_i, x> + b_i / D >= 0} for each
        integer offset vector b of the stack bs and any scale D: (num, dets,
        feasible, codes).  Subset S of row r solves to num[r, S] / (D
        dets[S]); feasible[r, S] says whether it lies in the polyhedron, and
        codes[r, S] is the bit mask sum 2**i of the facets i active there.

        On a subset S with adjugate A_S and det_S > 0 (both sign-flipped if
        needed), Cramer's rule gives x = num_S / (D det_S), num_S = -A_S b_S,
        and D det_S L_i(x) = <nu_i, num_S> + det_S b_i.  The subsets, A_S,
        det_S and the facet bits are tabulated once, and every S of every b
        is solved in two products.  They run in int64 when `reach` times
        max |b| is below 2**63, and in Python ints otherwise.
        """
        n, d = self.dim, self.num_facets
        if self._cramer is None:
            subsets, adjs, dets = [], [], []
            for subset in itertools.combinations(range(d), n):
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
                np.array([1 << i for i in range(d)], dtype=np.int64 if d < 63 else object),
                reach,
            )
        subsets, adjs, dets, normals, bits, reach = self._cramer
        if adjs.dtype != object and reach * max(map(abs, itertools.chain(*bs))) >= 2**63:
            adjs, dets, normals = (a.astype(object) for a in (adjs, dets, normals))
        b = np.array(bs, dtype=adjs.dtype)
        num = -(adjs @ b[:, subsets, None])[..., 0]
        vals = num @ normals + dets[:, None] * b[:, None, :]
        return num, dets, (vals >= 0).all(axis=2), (vals == 0) @ bits

    def _vertex_dict(self, b: Sequence[int], D: int) -> dict:
        """{active set: (numerators, denominator)} of the feasible n-subset
        solutions of {<nu_i, x> + b_i / D >= 0}, unchecked for boundedness;
        the vertex is numerators / denominator, the denominator D det.  An
        active set determines its vertex, so it is the key, in the order of
        the first n-subset that reaches the vertex.  The first vertex in that
        order on more than n facets raises NonSimple."""
        num, dets, feasible, codes = self._vertex_sets([b])
        keep = feasible[0]
        found: dict = {}
        for code, x, det in zip(codes[0, keep].tolist(), num[0, keep].tolist(), dets[keep].tolist()):
            found.setdefault(code, (x, D * det))
        facets = range(self.num_facets)
        found = {tuple(i for i in facets if code >> i & 1): v for code, v in found.items()}
        for active, (x, den) in found.items():
            if len(active) > self.dim:
                coords = tuple(Fraction(v, den) for v in x)
                raise NonSimple(f"vertex {coords} lies on facets {active}")
        return found

    def _has_type(self, bs: Sequence[Sequence[int]]) -> list:
        """For each integer offset vector b of the stack bs, whether
        Q = {<nu_i, y> + b_i >= 0} has the vertex active sets of P.

        P is simple, so this holds iff the feasible n-subsets of Q are
        exactly those that are active sets of P, and each has no facet
        active beyond its own n: its code is its own bits."""
        _, _, feasible, codes = self._vertex_sets(bs)
        if self._family is None:
            subsets, bits = self._cramer[0], self._cramer[4]
            own = bits[subsets].sum(axis=1)
            family = {sum(1 << i for i in v.active) for v in self.vertices()}
            self._family = own, np.array([code in family for code in own.tolist()])
        own, vertex = self._family
        return np.where(vertex, feasible & (codes == own), ~feasible).all(axis=1).tolist()

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

    def _scan(self, ks: range) -> tuple:
        """The column scan of P intersect Z^n/k for each k of the window ks:
        (results, j0, size, prefix, first, lengths).

        results[w] is (N_k, low_sums) of k = ks[w], as in `LatticeCount`, or
        the PolytopeError that k raises, for the caller to raise when it
        reaches that k.  They cover the leading ks whose column tables fit
        WINDOW_ENTRIES together, and one k at least.  The scanned k own runs
        of columns, in order; column c of k holds the points j0[w] +
        (prefix[:, c], first[c] + t) for 0 <= t < lengths[c].
        """
        if ks[0] < 1:
            raise ValueError("k must be a positive integer")
        n, d = self.dim, self.num_facets
        if self._table is None:
            # What every k reads, built once: k ratios[0] // ratios[1] is
            # (floor(-k lo), floor(k hi), floor(k c)) over the bounding box,
            # and normals is (n, d); both are int64 when spread, the largest
            # numerator or denominator, and norm, the largest sum |nu_i|, fit.
            # head is the int64 (d, n - 1) normals without their last
            # entries, None where no k can be scanned.
            lo, hi = self.bounding_box()
            values = (*(-v for v in lo), *hi, *self.offsets)
            spread = max(max(abs(v.numerator), v.denominator) for v in values)
            norm = max(sum(map(abs, nu)) for nu in self.normals)
            dtype = np.int64 if max(spread, norm) < 2**63 else object
            ratios = np.array([[v.numerator for v in values], [v.denominator for v in values]], dtype)
            head = np.array(self.normals, dtype=np.int64)[:, :-1] if norm < 2**63 else None
            self._table = spread, norm, ratios, np.array(self.normals, dtype=dtype).T, head
        spread, norm, ratios, normals, head = self._table
        # The box j0 + [0, size), the facet shifts <nu_i, j0> and the targets
        # t of every k are integer arrays over the window: j/k lies in P iff
        # <nu_i, j> >= ceil(-k c_i), iff <nu_i, i> >= t_i with i = j - j0 in
        # the box.  These, and <nu_i, i> - t_i over the box, are at most
        # 4 (norm + 1) (k spread + 1): below 2**63 the window is int64, and
        # so is every value of a column with a point.
        wide = 4 * (norm + 1) * (ks[-1] * spread + 1) >= 2**63
        if wide:
            ratios, normals = ratios.astype(object), normals.astype(object)
        floors = np.array(ks, dtype=ratios.dtype)[:, None] * ratios[0] // ratios[1]
        j0 = -floors[:, :n]
        size = floors[:, n : 2 * n] - j0 + 1
        shift = j0 @ normals
        t = -floors[:, 2 * n :] - shift
        reach = [0] * len(ks)
        if wide:
            # t_i is clamped to the range of <nu_i, i> over the box, and a k
            # is scanned if that range, the box and the normals, all bounded
            # by reach, are int64
            t = np.minimum(
                np.maximum(t, (size - 1) @ np.minimum(normals, 0)),
                (size - 1) @ np.maximum(normals, 0) + 1,
            )
            reach = (np.maximum(size, 1) @ abs(normals)).max(axis=1).tolist()
        # a column holds its prefix (n - 1), facet sums (d), first, last and
        # length, one temporary, and an eighth each of two boolean masks
        width = n + d + 3
        results, scanned, columns, long_sums, held = [], [], [], [], 0
        for w, extent in enumerate(size.tolist()):
            count = math.prod(extent[:-1])
            if w and held + count * width > WINDOW_ENTRIES:
                break
            try:
                _check_lattice_size(ks[w], "columns", count, width)
                if reach[w] >= 2**63:
                    raise LatticeTooLarge(
                        f"k={ks[w]}: the lattice scan reaches {reach[w]}, past the int64 range"
                    )
                if count == 0:
                    raise EmptyLattice(f"P contains no point of Z^{n}/{ks[w]}")
            except PolytopeError as exc:
                # kept without its traceback, which would hold this frame
                results.append(exc.with_traceback(None))
                continue
            results.append(None)
            # each length is at most size[-1]; past 2**63 the int64 sum of a
            # k may wrap, and it is summed in Python ints
            if count * extent[-1] >= 2**63:
                long_sums.append((len(scanned), held // width, count))
            scanned.append(w)
            columns.append(count)
            held += count * width
        if not scanned:
            return results, j0, size, None, None, None
        sel = slice(0, len(results)) if len(scanned) == len(results) else scanned
        counts = np.array(columns)
        starts = np.cumsum(counts) - counts
        sizes = size[sel].astype(np.int64, copy=False)
        # Column c of a k is its lexicographic index in the box of the first
        # n - 1 coordinates, decoded mixed-radix from the last one.
        index = np.arange(held // width)
        index -= np.repeat(starts, counts)
        prefix = np.empty((n - 1, len(index)), dtype=np.int64)
        for axis in range(n - 2, 0, -1):
            np.divmod(index, np.repeat(sizes[:, axis], counts), out=(index, prefix[axis]))
        prefix[:1] = index
        del index
        # sums[i] holds <nu_i, prefix> - t_i; three facets' targets at a time
        # fit the column budget while first, last and length are not made.
        # Over each prefix facet i bounds the last coordinate from below
        # (a > 0), from above (a < 0) or not at all.
        sums = head @ prefix
        t = t[sel]
        targets = t.T.astype(np.int64, copy=False)
        for i in range(0, d, 3):
            sums[i : i + 3] -= np.repeat(targets[i : i + 3], counts, axis=1)
        first = np.zeros(prefix.shape[1], dtype=np.int64)
        last = np.repeat(sizes[:, -1] - 1, counts)
        # the one temporary: ceil(-row / a) = -(row // a) and floor(-row / a)
        # = row // -a are made in it
        scratch = np.empty_like(first)
        for nu, row in zip(self.normals, sums):
            a = nu[-1]
            if a > 0:
                np.negative(np.floor_divide(row, a, out=scratch), out=scratch)
                np.maximum(first, scratch, out=first)
            elif a < 0:
                np.minimum(last, np.floor_divide(row, -a, out=scratch), out=last)
            else:
                last[row < 0] = -1
        drop = first > last
        # L_min: <nu_i, i> is least at the end of each row that facet i
        # bounds.  The ends are added into sums in place, and each k's
        # minimum is taken over its columns with a point.
        for nu, row in zip(self.normals, sums):
            if nu[-1]:
                row += np.multiply(first if nu[-1] > 0 else last, nu[-1], out=scratch)
        del scratch
        np.copyto(sums, 2**63 - 1, where=drop)
        low = np.minimum.reduceat(sums, starts, axis=1).T + (t + shift[sel])
        # an empty column has length 0, so a listing skips it
        lengths = np.subtract(last, first, out=last)
        lengths += 1
        lengths[drop] = 0
        totals = np.add.reduceat(lengths, starts).tolist()
        for s, start, count in long_sums:
            totals[s] = sum(lengths[start : start + count].tolist())
        for w, total, low_sums in zip(scanned, totals, low.tolist()):
            if total:
                results[w] = (total - 1, tuple(low_sums))
            else:
                results[w] = EmptyLattice(f"P contains no point of Z^{n}/{ks[w]}")
        return results, j0, size, prefix, first, lengths

    def _typed_scan(self, ks: range) -> tuple:
        """The window scan of ks: each k's LatticeCount or error, and whether
        its kP_k has P's type, solved in one `_has_type` stack."""
        results = self._scan(ks)[0]
        counted = [w for w, r in enumerate(results) if type(r) is tuple]
        typed = [False] * len(results)
        if counted:
            bs = [[-m for m in results[w][1]] for w in counted]
            for w, ok in zip(counted, self._has_type(bs)):
                results[w], typed[w] = LatticeCount(ks[w], *results[w]), ok
        return results, typed

    def lattice_count(self, k: int) -> LatticeCount:
        """N_k and the facet minima of P intersect Z^n/k, counted without
        listing a point."""
        return self._scan_one(k)[0]

    def _scan_one(self, k: int) -> tuple:
        """The scan of k alone, its result a LatticeCount, raising what k
        raises."""
        (result,), *scan = self._scan(range(k, k + 1))
        if isinstance(result, PolytopeError):
            raise result
        return (LatticeCount(k, *result), *scan)

    def lattice_points(self, k: int) -> LatticeData:
        """Enumerate P intersect Z^n/k."""
        count, j0, size, prefix, first, lengths = self._scan_one(k)
        n, total = self.dim, count.n_k + 1
        j0, size = j0[0].tolist(), size[0].tolist()
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
        return self.k0_rows(k_max)[0].k

    def k0_rows(self, k_max: int = 64, rows: int = 1) -> tuple:
        """The k0 search and the bound rows after it: the `LatticeCount`s of
        k0, k0 + 1, ..., k0 + rows - 1 whose kP_k has P's type.

        P_k has the type of kP_k = {<nu_i, y> >= low_sums[i]}, solved on its
        integer offsets.  The k are scanned and type-checked in windows that
        double in length from 8, which cost about what one k does; a k's
        error is raised when the walk reaches it, and the search skips
        EmptyLattice.
        """
        if not self.is_delzant():
            raise InvalidPolytope("bounds require a Delzant polytope")
        found: list = []
        k, length, stop = 1, 8, k_max + 1
        while k < stop:
            results, typed = self._typed_scan(range(k, min(k + length, stop)))
            for result, ok in zip(results, typed):
                if k >= stop:
                    break
                skipped = not found and type(result) is EmptyLattice
                if isinstance(result, PolytopeError) and not skipped:
                    raise result
                if ok:
                    if not found:
                        stop = k + rows
                    found.append(result)
                k += 1
            length *= 2
        if not found:
            raise K0NotFound(f"no k <= {k_max} reproduces the combinatorial type; raise k_max")
        return tuple(found)

    def check_kpk_integral(self, k: int, k_max: int = 64) -> dict:
        """Report on kP_k: integrality, the Delzant test and the count match.

        kP_k = {<nu_i, y> >= low_sums[i]} is P's table solved at the integer
        offsets b = -low_sums: a vertex is numerators / det, so kP_k is
        integral iff every det divides its numerators and Delzant iff every
        det is 1.  Its lattice points are those of kP, so the count always
        matches: every lattice point j of kP has <nu_i, j> >= low_sums[i], so
        it lies in kP_k, and low_sums[i] >= ceil(-k c_i), so kP_k lies in
        kP."""
        count, _ = self._count_at(k, k_max)
        found = self._vertex_dict([-m for m in count.low_sums], 1)
        return {
            "k": k,
            "is_integral": all(x % det == 0 for num, det in found.values() for x in num),
            "is_delzant": all(det == 1 for _, det in found.values()),
            "lattice_count_matches": True,
            "n_k": count.n_k,
        }

    def _count_at(self, k: int, k_max: int) -> tuple:
        """The `LatticeCount` at k and whether kP_k has P's type.  Such a k
        is >= k0 and needs no search, so the k0 walk runs only for an untyped
        k, k <= 0, k > k_max or a P that is not Delzant, and raises first
        what it raises (InvalidPolytope, a scan error, K0NotFound); then
        come PrematureK below k0 and the scan's own error at k."""
        count, typed = None, False
        if k >= 1 and self.is_delzant():
            (count,), (typed,) = self._typed_scan(range(k, k + 1))
        if not typed or k > k_max:
            k0 = self.k0_rows(k_max)[0].k
            if k < k0:
                raise PrematureK(f"k={k} is below k0={k0}")
        if isinstance(count, PolytopeError):
            raise count
        return count, typed

    def bly_bound(self, k: Optional[int] = None, k_max: int = 64) -> BlyBound:
        """The exact rational eigenvalue bound 2nk(N_k+1)/N_k, at k0(P) when
        no k is given.  A k whose kP_k has not P's type raises WrongTypeK."""
        if k is None:
            count = self.k0_rows(k_max)[0]
        else:
            count, typed = self._count_at(k, k_max)
            if not typed:
                raise WrongTypeK(f"k={k}: kP_k does not have the combinatorial type of P")
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
