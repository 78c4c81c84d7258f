"""Exact polytope combinatorics: vertices, Delzant/integrality, lattice data,
combinatorial type, k0 and the rational bound."""

import itertools
import json
import math
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    MISTYPED_POLYGONS,
    _recession_ray,
    brute_force_lattice,
    ehrhart_fit,
    listed_l_min,
    reference_polytope,
    reference_same_combinatorial_type,
)

from toriceig import (
    LabelledPolytope,
    bound_report,
    build_quadrature,
    example_polytope,
    load_polytope,
    polytope_from_dict,
    polytope_to_dict,
)
from toriceig import polytope as polytope_module
from toriceig.data import EXAMPLES
from toriceig.polytope import (
    BlyBound,
    EmptyLattice,
    InvalidPolytope,
    K0NotFound,
    LatticeTooLarge,
    NonSimple,
    PolytopeError,
    PrematureK,
    UnboundedOrEmpty,
    WrongTypeK,
)

F = Fraction


def interval(lo, hi):
    return LabelledPolytope(1, [((1,), -F(lo)), ((-1,), F(hi))])


def fractions(data):
    """The points of `data` as `Fraction` tuples, after checking that they
    are a read-only (N_k + 1, n) array of integer numerators."""
    points = data.points
    assert not points.flags.writeable
    assert points.ndim == 2 and len(points) == data.n_k + 1
    assert np.issubdtype(points.dtype, np.integer) or all(type(j) is int for j in points.flat)
    return tuple(tuple(F(j, data.k) for j in row) for row in points.tolist())


def counted_l_min(P, k):
    """L_min(i, k) = low_sums[i] / k + c_i from the count scan."""
    return tuple(F(m, k) + c for m, c in zip(P.lattice_count(k).low_sums, P.offsets))


def shrunk_offsets(P, data):
    """The offsets c_i - L_min(i, k) of P_k = {L_i >= L_min(i, k)}, from the
    listed points."""
    return tuple(c - m for c, m in zip(P.offsets, listed_l_min(P, data)))


def integer_type(P, offsets):
    """The type check of the k0 search on Q = {<x, nu_i> + offsets[i] >= 0}:
    Q's vertex active sets, solved on its offsets scaled to integers, are P's."""
    D = math.lcm(*(F(c).denominator for c in offsets))
    b = [int(F(c) * D) for c in offsets]
    return P._has_type([b]) == [True]


@pytest.fixture
def simplex2():
    return example_polytope("simplex2")


@pytest.fixture
def square():
    return example_polytope("square")


class TestVertices:
    def test_simplex_vertices_and_active_sets(self, simplex2):
        verts = simplex2.vertices()
        assert [tuple(map(int, v.coords)) for v in verts] == [(0, 0), (0, 1), (1, 0)]
        assert {v.active for v in verts} == {(0, 1), (0, 2), (1, 2)}

    def test_interval(self):
        verts = interval(0, 1).vertices()
        assert [v.coords[0] for v in verts] == [0, 1]

    def test_square(self, square):
        coords = {tuple(map(int, v.coords)) for v in square.vertices()}
        assert coords == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_empty_raises(self):
        with pytest.raises(UnboundedOrEmpty):
            LabelledPolytope(1, [((1,), -1), ((-1,), 0)])  # x >= 1 and x <= 0

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedOrEmpty):
            LabelledPolytope(1, [((1,), 0), ((1,), 1)])  # both point the same way

    def test_unbounded_2d_raises(self):
        # the quadrant cut by x + y >= 1: the edges on x = 0 and y = 0 end once
        with pytest.raises(UnboundedOrEmpty, match="unbounded"):
            LabelledPolytope(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), -1)])

    def test_strip_raises(self):
        # 0 <= x <= 1 and x <= 2: no two normals span the plane
        with pytest.raises(UnboundedOrEmpty, match="contains a line"):
            LabelledPolytope(2, [((1, 0), 0), ((-1, 0), 1), ((-1, 0), 2)])

    @pytest.mark.parametrize("dim,facets", [
        (1, [((1,), 0), ((-1,), 0)]),  # the point x = 0
        (2, [((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 0)]),  # a segment in the plane
    ])
    def test_empty_interior_is_nonsimple(self, dim, facets):
        # the facets that vanish on the set put each vertex on n + 1 facets
        with pytest.raises(NonSimple):
            LabelledPolytope(dim, facets)

    def test_nonsimple_pyramid(self):
        facets = [
            ((0, 0, 1), 0),
            ((-1, 0, -1), 1),
            ((1, 0, -1), 1),
            ((0, -1, -1), 1),
            ((0, 1, -1), 1),
        ]
        with pytest.raises(NonSimple):
            LabelledPolytope(3, facets)

    def test_nonprimitive_normal_rejected(self):
        with pytest.raises(InvalidPolytope, match="facet 0"):
            LabelledPolytope(1, [((2,), 0), ((-1,), 1)])

    def test_non_integer_normal_rejected(self):
        # the constructor's own check; the JSON reader refuses a float first
        with pytest.raises(InvalidPolytope, match="facet 0: normal entries must be integers"):
            LabelledPolytope(2, [((1.5, 0), 0), ((0, 1), 0), ((-1, -1), 1)])

    def test_redundant_facet_rejected(self, square):
        facets = [(n, c) for n, c in zip(square.normals, square.offsets)]
        facets.append(((-1, 0), 2))  # x <= 2 never binds on [0,1]^2
        with pytest.raises(InvalidPolytope, match="redundant"):
            LabelledPolytope(2, facets)
        with pytest.raises(InvalidPolytope, match="facet 2 is redundant"):
            LabelledPolytope(1, [((1,), 0), ((-1,), 1), ((-1,), 3)])  # x <= 3 on [0, 1]


class TestDelzantIntegral:
    def test_simplex_is_delzant(self, simplex2):
        assert simplex2.is_delzant()

    def test_orbifold_triangle_is_not(self):
        orb = LabelledPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), 2)])
        assert not orb.is_delzant()

    def test_square_is_delzant(self, square):
        assert square.is_delzant()

    @pytest.mark.parametrize(
        "poly,expected",
        [
            ("simplex", True),
            ("three_halves", False),
            ("third", False),
        ],
    )
    def test_is_integral(self, poly, expected, simplex2):
        P = {
            "simplex": simplex2,
            "three_halves": interval(0, F(3, 2)),
            "third": interval(0, F(1, 3)),
        }[poly]
        assert P.is_integral() is expected


class TestLattice:
    def test_simplex_k1(self, simplex2):
        data = simplex2.lattice_points(1)
        assert fractions(data) == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))
        assert data.n_k == 2
        assert listed_l_min(simplex2, data) == (0, 0, 0)
        assert integer_type(simplex2, shrunk_offsets(simplex2, data))
        assert reference_same_combinatorial_type(simplex2, shrunk_offsets(simplex2, data))

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_not_positive_refused(self, simplex2, k):
        with pytest.raises(ValueError, match="^k must be a positive integer$"):
            simplex2.lattice_points(k)
        with pytest.raises(ValueError, match="^k must be a positive integer$"):
            simplex2.lattice_count(k)

    def test_three_halves_k1(self):
        P = interval(0, F(3, 2))
        data = P.lattice_points(1)
        assert fractions(data) == ((0,), (1,))
        assert data.n_k == 1
        assert listed_l_min(P, data) == (0, F(1, 2))
        assert shrunk_offsets(P, data) == (0, 1)  # P_1 = [0, 1]

    def test_third_k3(self):
        P = interval(0, F(1, 3))
        data = P.lattice_points(3)
        assert fractions(data) == ((0,), (F(1, 3),))
        assert data.n_k == 1
        assert listed_l_min(P, data) == (0, 0)

    def test_empty_lattice(self):
        with pytest.raises(EmptyLattice):
            example_polytope("perturbed-simplex").lattice_points(1)

    def test_size_cap(self, monkeypatch):
        # the unit square at k = 5 scans 6 columns, each 1 + 4 + 3 + 1
        # entries wide (prefix, facet sums, first, last and length, one
        # temporary), and finds 36 points of 2 entries: each count is
        # checked before its arrays are built
        square = example_polytope("square")
        monkeypatch.setattr(polytope_module, "MAX_LATTICE", 72)
        assert square.lattice_points(5).n_k == 35
        monkeypatch.setattr(polytope_module, "MAX_LATTICE", 71)
        with pytest.raises(LatticeTooLarge, match="k=5 needs 36 lattice points of 2 entries"):
            square.lattice_points(5)
        monkeypatch.setattr(polytope_module, "MAX_LATTICE", 53)
        with pytest.raises(LatticeTooLarge, match="k=5 needs 6 lattice columns of 9 entries"):
            square.lattice_points(5)

    @staticmethod
    def counted_peak(monkeypatch, call):
        """The tracemalloc peak of call() and the entries each
        `_check_lattice_size` call on the way counted."""
        counted = []
        check = polytope_module._check_lattice_size

        def recorded(k, what, count, width):
            counted.append(count * width)
            check(k, what, count, width)

        monkeypatch.setattr(polytope_module, "_check_lattice_size", recorded)
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak, counted

    @pytest.mark.parametrize("name,k", [("simplex2", 200_000), ("square", 100_000), ("cube", 300)])
    def test_scan_memory_within_cap(self, monkeypatch, name, k):
        # the scan holds at most the int64 entries its column check counts
        P = cube() if name == "cube" else example_polytope(name)
        P.bounding_box()
        _, peak, counted = self.counted_peak(monkeypatch, lambda: P.lattice_count(k))
        assert peak <= 8 * sum(counted)

    @pytest.mark.parametrize("name,k", [("simplex2", 1000), ("square", 1000), ("cube", 60)])
    def test_listing_memory_within_cap(self, monkeypatch, name, k):
        # a listing holds at most the int64 entries its column and points
        # checks count: the points are built in place, with no point-sized
        # temporary
        P = cube() if name == "cube" else example_polytope(name)
        P.bounding_box()
        data, peak, counted = self.counted_peak(monkeypatch, lambda: P.lattice_points(k))
        assert len(counted) == 2 and counted[1] == data.points.size
        assert peak <= 8 * sum(counted)

    def test_large_k_refused(self):
        # 5,000,150,001 points, 74.5 GiB as an int64 array
        with pytest.raises(LatticeTooLarge, match="k=100000 needs 5000150001 lattice points"):
            example_polytope("simplex2").lattice_points(100000)

    def test_int64_scan_refused(self):
        # interval01 at k = 10**19: the last column index passes int64
        with pytest.raises(LatticeTooLarge, match="k=10000000000000000000: .* int64 range"):
            example_polytope("interval01").lattice_points(10**19)

    @pytest.mark.parametrize("slope", [2**61, 2**63])
    def test_int64_scan_slanted(self, slope):
        # 0 <= x <= 1, slope x <= y <= slope x + 1/2 holds only (0, 0) and
        # (1, slope); at slope 2**63 a normal entry and the column pass int64
        P = LabelledPolytope(
            2, [((1, 0), 0), ((-1, 0), 1), ((-slope, 1), 0), ((slope, -1), F(1, 2))]
        )
        if slope < 2**63:
            assert P.lattice_points(1).points.tolist() == [[0, 0], [1, slope]]
        else:
            with pytest.raises(LatticeTooLarge, match="k=1: .* int64 range"):
                P.lattice_points(1)

    def test_point_count_past_int64_refused(self):
        # 1024 columns of 2**62 + 1 points each: their int64 sum wraps to 1024
        P = LabelledPolytope(2, [((1, 0), 0), ((-1, 0), 1023), ((0, 1), 0), ((0, -1), 2**62)])
        with pytest.raises(LatticeTooLarge, match=f"k=1 needs {1024 * (2**62 + 1)} lattice points"):
            P.lattice_points(1)
        # counted, the exact sum gives the bound
        assert P.bly_bound().n_k == 1024 * (2**62 + 1) - 1

    @pytest.mark.parametrize("k,kp", [(1, 2), (2, 4), (1, 3)])
    def test_monotone_refinement(self, simplex2, k, kp):
        assert kp % k == 0
        coarse = simplex2.lattice_points(k)
        fine = simplex2.lattice_points(kp)
        assert set(fractions(coarse)) <= set(fractions(fine))
        assert all(
            f <= c for c, f in zip(listed_l_min(simplex2, coarse), listed_l_min(simplex2, fine))
        )

    def test_shrunk_contained_and_exact(self):
        # P_k = {L_i >= L_min(i, k)} lies in P and is kP_k / k, whose offsets
        # the count scan gives as integers
        P = interval(0, F(3, 2))
        offsets = shrunk_offsets(P, P.lattice_points(1))
        for v in LabelledPolytope(1, list(zip(P.normals, offsets))).vertices():
            assert min(P.defining_values(v.coords)) >= 0
        assert offsets == tuple(F(-m) for m in P.lattice_count(1).low_sums)

    def test_rerun_bit_identical(self, simplex2):
        a = simplex2.lattice_points(3)
        b = simplex2.lattice_points(3)
        assert fractions(a) == fractions(b)
        assert simplex2.lattice_count(3) == simplex2.lattice_count(3)


def far_translated():
    """A box 10**18 from the origin: at k = 12 its numerators leave int64."""
    lo = (10**18 + F(1, 3), -(10**18) - F(1, 2))
    return LabelledPolytope(
        2,
        [((1, 0), -lo[0]), ((0, 1), -lo[1]), ((-1, 0), lo[0] + 2), ((0, -1), lo[1] + F(3, 2))],
    )


def cube(top=1):
    return LabelledPolytope(
        3, [(nu, 0) for nu in np.eye(3, dtype=int).tolist()]
        + [(nu, top) for nu in (-np.eye(3, dtype=int)).tolist()],
    )


def cut_cube():
    """[0,2]^3 intersect {x + y + z <= 5}: a Delzant polytope with 7 facets."""
    return LabelledPolytope(3, list(zip(cube(2).normals, cube(2).offsets)) + [((-1, -1, -1), 5)])


class TestCountPath:
    """The count-only scan against the listing and against Ehrhart theory."""

    @pytest.mark.parametrize("P", [*map(example_polytope, EXAMPLES), far_translated()])
    def test_count_equals_listing(self, P):
        listed_k0 = None
        for k in range(1, 13):
            try:
                data = P.lattice_points(k)
            except EmptyLattice:
                with pytest.raises(EmptyLattice):
                    P.lattice_count(k)
                continue
            count = P.lattice_count(k)
            assert (count.k, count.n_k) == (k, data.n_k)
            assert counted_l_min(P, k) == listed_l_min(P, data)
            # the type check of the k0 search, on the integer offsets of kP_k,
            # against the reference on P_k from the listed points
            integer = integer_type(P, [-m for m in count.low_sums])
            assert integer == reference_same_combinatorial_type(P, shrunk_offsets(P, data))
            if integer and listed_k0 is None:
                listed_k0 = k
        assert P.k0() == listed_k0
        assert P.k0_rows()[0] == P.lattice_count(listed_k0)

    def test_far_translated_listing_is_object(self):
        assert far_translated().lattice_points(12).points.dtype == object

    @pytest.mark.parametrize(
        "P",
        [*(example_polytope(name) for name in EXAMPLES if example_polytope(name).is_integral()),
         cube(), cut_cube()],
    )
    def test_ehrhart_polynomial(self, P):
        # N_k + 1 is a polynomial of degree n in k with constant term 1: fit
        # on k = 0..n, it predicts every later count, and its leading
        # coefficient is the volume, from the exact quadrature layer
        n = P.dim
        coeffs = ehrhart_fit([1] + [P.lattice_count(k).n_k + 1 for k in range(1, n + 1)])
        for k in range(n + 1, 13):
            assert P.lattice_count(k).n_k + 1 == sum(c * k**t for t, c in enumerate(coeffs))
        assert coeffs[-1] == build_quadrature(P, 1, 0).exact_volume

    def test_cut_cube_coefficients(self):
        assert ehrhart_fit([1] + [cut_cube().lattice_count(k).n_k + 1 for k in (1, 2, 3)]) == [
            1, F(17, 3), F(23, 2), F(47, 6)
        ]

    def test_large_k_counted(self):
        # 212,536,701 points: 4.75 GiB as one int64 array, so listing them is
        # refused; the 601**2 scan columns are counted
        P = cut_cube()
        assert P.lattice_count(300).n_k + 1 == 212_536_701
        with pytest.raises(LatticeTooLarge, match="k=300 needs 212536701 lattice points"):
            P.lattice_points(300)
        assert example_polytope("simplex2").lattice_count(100000).n_k == 5_000_150_000


def benchmark_inputs():
    """The inputs of the benchmark's lattice workload at seeds 1-5."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    try:
        from perfbench.workloads import Inputs
    finally:
        sys.path.pop(0)
    import toriceig

    names = ("perturbed-simplex", "hirzebruch17", "box", "square", "cube")
    return [Inputs(toriceig, seed).get(name) for seed in range(1, 6) for name in names]


def outcome(call):
    """(N_k, low_sums) of a count, or the type and message of its error."""
    try:
        count = call()
    except PolytopeError as exc:
        return type(exc), str(exc)
    return count.n_k, count.low_sums


def window_outcomes(P, stop):
    """The outcome of each k = 1..stop - 1 from the window scans, walked as
    the k0 search walks them."""
    outcomes, k, length = [], 1, 8
    while k < stop:
        results = P._scan(range(k, min(k + length, stop)))[0]
        for result in results:
            outcomes.append(
                (type(result), str(result)) if isinstance(result, PolytopeError) else result
            )
        k += len(results)
        length *= 2
    return outcomes


class TestScanWindows:
    """A window of k scans as its k one at a time, and the k0 search and the
    bound rows walk the windows."""

    @pytest.mark.parametrize(
        "P",
        [*map(example_polytope, EXAMPLES), far_translated(),
         *(polytope_from_dict(data) for data, _, _ in MISTYPED_POLYGONS)],
    )
    def test_window_equals_one_k(self, P):
        assert window_outcomes(P, 41) == [outcome(lambda: P.lattice_count(k)) for k in range(1, 41)]

    def test_benchmark_inputs_window_equals_one_k(self):
        for P in benchmark_inputs():
            assert window_outcomes(P, 41) == [
                outcome(lambda: P.lattice_count(k)) for k in range(1, 41)
            ]

    def test_window_cap(self, monkeypatch):
        # each k of the square scans k + 1 columns of 9 entries; a cap of 40
        # entries holds k = 1 and 2 (18 + 27 > 40 holds only k = 1), and a
        # k past the cap still comes alone
        square = example_polytope("square")
        monkeypatch.setattr(polytope_module, "WINDOW_ENTRIES", 40)
        assert len(square._scan(range(1, 9))[0]) == 1
        monkeypatch.setattr(polytope_module, "WINDOW_ENTRIES", 45)
        assert len(square._scan(range(1, 9))[0]) == 2
        assert len(square._scan(range(9, 17))[0]) == 1

    def test_refusal_deferred_past_k0(self, monkeypatch):
        # perturbed-simplex scans k - 1 columns of 8 entries at k >= 2, so a
        # cap of 47 refuses k = 7 and 8, inside the first window with k0 = 3
        P = example_polytope("perturbed-simplex")
        monkeypatch.setattr(polytope_module, "MAX_LATTICE", 47)
        assert P.k0_rows()[0].k == 3 and P.check_kpk_integral(3)["n_k"] == 2
        assert len(P.k0_rows(rows=4)) == 4
        message = "k=7 needs 6 lattice columns of 8 entries each, more than the MAX_LATTICE = 47"
        with pytest.raises(LatticeTooLarge, match=message):
            P.lattice_count(7)
        with pytest.raises(LatticeTooLarge, match=message):
            P.k0_rows(rows=5)

    @pytest.mark.parametrize(
        "P,rows",
        [
            (cube(10), 4),  # one window, k = 1..4
            (cube(10), 5),  # k = 5 passes the window cap and is scanned alone
            # 0 <= y <= 1/17, x + y <= 2000/17: k0 = 17, over six windows
            (LabelledPolytope(
                2, [((1, 0), 0), ((0, 1), 0), ((0, -1), F(1, 17)), ((-1, -1), F(2000, 17))]
            ), 5),
        ],
    )
    def test_k0_search_memory_within_cap(self, monkeypatch, P, rows):
        # the search and its rows hold at most the int64 entries its column
        # checks count
        P.k0()
        found, peak, counted = TestLattice.counted_peak(monkeypatch, lambda: P.k0_rows(rows=rows))
        assert len(found) == rows and peak <= 8 * sum(counted)

    @pytest.mark.parametrize("data,k0,mistyped", MISTYPED_POLYGONS)
    def test_mistyped_rows_dropped(self, data, k0, mistyped):
        P = polytope_from_dict(data)
        rows = P.k0_rows(rows=5)
        assert [row.k for row in rows] == [k for k in range(k0, k0 + 5) if k not in mistyped]
        for k in range(k0, k0 + 5):
            count = P.lattice_count(k)
            offsets = [-m for m in count.low_sums]
            assert reference_same_combinatorial_type(P, offsets) == (k not in mistyped)
            if k in mistyped:
                with pytest.raises(WrongTypeK, match=f"k={k}: kP_k does not have"):
                    P.bly_bound(k)
                with pytest.raises(NonSimple, match="lies on facets"):
                    P.check_kpk_integral(k)
            else:
                assert P.bly_bound(k) == BlyBound.from_lattice(P.dim, count)

    def test_kpk_nonsimple_message(self):
        # the message names kP_k's first degenerate vertex, as building kP_k
        # as a polytope did
        P = polytope_from_dict(MISTYPED_POLYGONS[2][0])
        message = r"^vertex \(Fraction\(28, 1\), Fraction\(-29, 1\)\) lies on facets \(1, 2, 3\)$"
        with pytest.raises(NonSimple, match=message):
            P.check_kpk_integral(5)


# Normals of the 2-D families whose GL(2, Z) images the scan is checked on, and
# their offsets at scale s (a polygon in the positive quadrant).
FAMILIES_2D = {
    "simplex2": (((1, 0), (0, 1), (-1, -1)), lambda s: (0, 0, s)),
    "square": (((1, 0), (0, 1), (-1, 0), (0, -1)), lambda s: (0, 0, s, s)),
    "hirzebruch": (((1, 0), (0, 1), (0, -1), (-1, -1)), lambda s: (0, 0, s, 2 * s)),
}
UNIMODULAR_STEPS = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((1, -1), (0, 1)),
                    ((1, 0), (-1, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1)))

rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 6))
shifts = st.one_of(
    st.just(0), st.sampled_from((10**15, -10**15)), st.integers(-10**15, 10**15)
)


def _translated_facets(normals, offsets, shift):
    """Facets of P + shift."""
    return [(nu, c - sum(v * t for v, t in zip(nu, shift))) for nu, c in zip(normals, offsets)]


@st.composite
def boxes(draw):
    dim = draw(st.integers(1, 3))
    facets = []
    for axis in range(dim):
        e = tuple(int(a == axis) for a in range(dim))
        lo = draw(rationals) + draw(shifts)
        width = F(draw(st.integers(1, 6 // dim)), draw(st.integers(1, 12)))
        facets += [(e, -lo), (tuple(-v for v in e), lo + width)]
    return LabelledPolytope(dim, facets)


@st.composite
def unimodular_polygons(draw):
    normals, offsets = FAMILIES_2D[draw(st.sampled_from(sorted(FAMILIES_2D)))]
    M = ((1, 0), (0, 1))
    for step in draw(st.lists(st.sampled_from(UNIMODULAR_STEPS), max_size=3)):
        M = tuple(tuple(sum(a[t] * M[t][j] for t in range(2)) for j in range(2)) for a in step)
    image = [tuple(sum(M[i][j] * nu[j] for j in range(2)) for i in range(2)) for nu in normals]
    scale = F(draw(st.integers(1, 4)), draw(st.integers(1, 8)))
    shift = tuple(draw(rationals) + draw(shifts) for _ in range(2))
    return LabelledPolytope(2, _translated_facets(image, offsets(scale), shift))


@st.composite
def prisms(draw):
    """A unimodular polygon times an interval: a 3-D polytope whose facets
    with a zero last normal component are not implied by the bounding box."""
    base = draw(unimodular_polygons())
    lo = draw(rationals) + draw(shifts)
    height = F(1, draw(st.integers(1, 4)))
    facets = [(nu + (0,), c) for nu, c in zip(base.normals, base.offsets)]
    facets += [((0, 0, 1), -lo), ((0, 0, -1), lo + height)]
    return LabelledPolytope(3, facets)


class TestIntegerScan:
    """`lattice_points` against the Fraction enumeration of the bounding box."""

    @staticmethod
    def check(P, k):
        try:
            ref_points, ref_l_min = brute_force_lattice(P, k)
        except EmptyLattice:
            with pytest.raises(EmptyLattice):
                P.lattice_points(k)
            return
        data = P.lattice_points(k)
        assert fractions(data) == ref_points
        assert data.n_k == len(ref_points) - 1
        assert counted_l_min(P, k) == ref_l_min

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(P=boxes(), k=st.integers(1, 12))
    def test_boxes(self, P, k):
        self.check(P, k)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(P=unimodular_polygons(), k=st.integers(1, 12))
    def test_unimodular_polygons(self, P, k):
        self.check(P, k)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(P=prisms(), k=st.integers(1, 12))
    def test_prisms(self, P, k):
        self.check(P, k)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_beyond_int64(self, sign):
        # k j leaves int64 at 10**18: the numerators come back as Python ints
        lo = (sign * 10**18 + F(1, 3), -sign * 10**18 - F(1, 2))
        P = LabelledPolytope(
            2,
            [((1, 0), -lo[0]), ((0, 1), -lo[1]), ((-1, 0), lo[0] + 2), ((0, -1), lo[1] + F(3, 2))],
        )
        self.check(P, 12)
        assert P.lattice_points(12).points.dtype == object


def _outcome(build):
    """What `build` returns, or the class of the `PolytopeError` it raises."""
    try:
        return build()
    except PolytopeError as exc:
        return type(exc)


def _image(P, S, t):
    """S P + t for S in GL(n, Z) and t in Z^n: the normals become S^-T nu and
    the offsets c - <S^-T nu, t>, in the same facet order."""
    W = np.rint(np.linalg.inv(S)).astype(int).T
    facets = []
    for nu, c in zip(P.normals, P.offsets):
        mu = tuple(int(v) for v in W @ np.array(nu))
        facets.append((mu, c - sum(m * s for m, s in zip(mu, t))))
    return LabelledPolytope(P.dim, facets)


@st.composite
def lattice_maps(draw, dim):
    """(S, t): S a product of `UNIMODULAR_STEPS` in 2-D and a signed
    permutation otherwise, and t in Z^dim."""
    if dim == 2:
        S = np.eye(2, dtype=int)
        for step in draw(st.lists(st.sampled_from(UNIMODULAR_STEPS), max_size=3)):
            S = np.array(step) @ S
    else:
        S = np.zeros((dim, dim), dtype=int)
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=dim, max_size=dim))
        S[range(dim), draw(st.permutations(range(dim)))] = signs
    t = [draw(st.integers(-3, 3) | shifts) for _ in range(dim)]
    return S.tolist(), t


class TestLatticeInvariance:
    """x -> Sx + t with S in GL(n, Z) and t in Z^n maps Z^n/k onto itself and
    keeps L_i, so it keeps N_k, L_min, k0 and the bound, and maps the
    numerators by j -> Sj + kt."""

    @staticmethod
    def check(P, k, S, t):
        Q = _image(P, S, t)
        got = _outcome(lambda: Q.lattice_points(k))
        want = _outcome(lambda: P.lattice_points(k))
        if isinstance(want, type):
            assert got is want
        else:
            assert (got.n_k, counted_l_min(Q, k)) == (want.n_k, counted_l_min(P, k))
            mapped = sorted(
                tuple(sum(a * b for a, b in zip(row, j)) + k * s for row, s in zip(S, t))
                for j in want.points.tolist()
            )
            assert mapped == sorted(map(tuple, got.points.tolist()))
        assert _outcome(Q.k0) == _outcome(P.k0)
        assert _outcome(lambda: Q.bly_bound().bound) == _outcome(lambda: P.bly_bound().bound)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), P=boxes(), k=st.integers(1, 12))
    def test_boxes(self, data, P, k):
        self.check(P, k, *data.draw(lattice_maps(P.dim)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), P=unimodular_polygons(), k=st.integers(1, 12))
    def test_unimodular_polygons(self, data, P, k):
        self.check(P, k, *data.draw(lattice_maps(2)))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data(), P=prisms(), k=st.integers(1, 12))
    def test_prisms(self, data, P, k):
        self.check(P, k, *data.draw(lattice_maps(3)))


PRIMITIVE = {
    n: [v for v in itertools.product(range(-2, 3), repeat=n) if math.gcd(*v) == 1]
    for n in (1, 2, 3)
}


@st.composite
def facet_sets(draw):
    """(n, facets) with n in 1..3, n to n + 4 primitive normals in
    {-2..2}^n and offsets p/q with -2 <= p <= 6 and q in {1, 2, 3}."""
    n = draw(st.integers(1, 3))
    count = draw(st.integers(n, n + 4))
    facet = st.tuples(
        st.sampled_from(PRIMITIVE[n]),
        st.builds(F, st.integers(-2, 6), st.sampled_from((1, 2, 3))),
    )
    return n, draw(st.lists(facet, min_size=count, max_size=count))


@st.composite
def cut_simplices(draw):
    """(n, facets): the simplex {x_i >= -a_i, sum x_i <= b} cut by up to three
    more facets of the same kind, all with positive offsets, in any order."""
    n = draw(st.integers(1, 3))
    normals = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    normals += draw(st.lists(st.sampled_from(PRIMITIVE[n]), max_size=3))
    offsets = st.builds(F, st.integers(1, 4), st.sampled_from((1, 2, 3)))
    facets = [(nu, draw(offsets)) for nu in normals]
    return n, draw(st.permutations(facets))


class TestReferenceOracle:
    """Boundedness, redundancy and the combinatorial type read from the vertex
    active sets, against the Gauss-Jordan reference in `oracles`."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(data=st.one_of(facet_sets(), cut_simplices()))
    def test_vertices_match_reference(self, data):
        n, facets = data
        got = _outcome(
            lambda: tuple((v.coords, v.active) for v in LabelledPolytope(n, facets).vertices())
        )
        want = _outcome(lambda: reference_polytope(n, facets))
        if isinstance(got, tuple):
            assert all(type(c) is F for coords, _ in got for c in coords)
        if got is NonSimple and want is UnboundedOrEmpty:
            # unbounded and non-simple: the simplicity check now comes first
            assert _recession_ray([nu for nu, _ in facets], n) is not None
        elif got is InvalidPolytope and isinstance(want, tuple):
            # a 1-D facet that carries no vertex is now redundant
            assert n == 1
            assert any(all(i not in active for _, active in want) for i in range(len(facets)))
        else:
            assert got == want

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        data=cut_simplices(),
        shrink=st.lists(st.builds(F, st.integers(0, 4), st.sampled_from((1, 2, 3, 6))),
                        min_size=7, max_size=7),
    )
    def test_combinatorial_type_matches_reference(self, data, shrink):
        n, facets = data
        P = _outcome(lambda: LabelledPolytope(n, facets))
        assume(isinstance(P, LabelledPolytope))
        offsets = [c - t for (_, c), t in zip(facets, shrink)]
        assert integer_type(P, offsets) == reference_same_combinatorial_type(P, offsets)

    def test_many_facets(self):
        # The edges are the 96 primitive vectors of [-6, 6]^2 in order of
        # angle, from the vertex (1/3, 2/7): vertex i lies on facets i - 1, i.
        edges = sorted(
            (e for e in itertools.product(range(-6, 7), repeat=2) if math.gcd(*e) == 1),
            key=lambda e: math.atan2(e[1], e[0]),
        )
        facets, x = [], (F(1, 3), F(2, 7))
        for a, b in edges:
            facets.append(((-b, a), b * x[0] - a * x[1]))
            x = (x[0] + a, x[1] + b)
        tracemalloc.start()
        try:
            P = LabelledPolytope(2, facets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the solve holds O(C(d, n) (n^2 + d)) entries: 4,560 x 100 here
        assert peak < 32 * 2**20
        got = tuple((v.coords, v.active) for v in P.vertices())
        assert len(got) == 96
        assert got == reference_polytope(2, facets)


class TestCombinatorialType:
    """The integer type check against the reference, on Q given by offsets."""

    def test_parallel_intervals(self):
        P = interval(0, F(3, 2))
        assert integer_type(P, (0, 1)) and reference_same_combinatorial_type(P, (0, 1))

    def test_degenerate_point(self):
        P = interval(0, F(1, 3))
        # Q = {0}: its one vertex lies on both facets
        assert not integer_type(P, (0, 0))
        assert not reference_same_combinatorial_type(P, (0, 0))

    def test_shifted_simplex(self, simplex2):
        Q = example_polytope("perturbed-simplex")
        assert Q.normals == simplex2.normals
        assert integer_type(simplex2, Q.offsets)
        assert reference_same_combinatorial_type(simplex2, Q.offsets)


class TestK0AndBound:
    def test_k0_values(self, simplex2):
        assert simplex2.k0() == 1
        assert interval(0, F(3, 2)).k0() == 1
        assert interval(0, F(1, 3)).k0() == 3
        assert example_polytope("perturbed-simplex").k0() == 3

    def test_k0_not_found(self):
        with pytest.raises(K0NotFound):
            interval(0, F(1, 3)).k0(k_max=2)

    def test_kpk_three_halves(self):
        report = interval(0, F(3, 2)).check_kpk_integral(1)
        assert report["is_integral"] and report["is_delzant"]
        assert report["lattice_count_matches"] and report["n_k"] == 1

    def test_kpk_simplex_k2(self, simplex2):
        report = simplex2.check_kpk_integral(2)
        assert report["n_k"] == 5  # enumeration of Z^2/2 in the simplex
        assert report["is_integral"] and report["is_delzant"]
        assert report["lattice_count_matches"]

    def test_kpk_third_k3(self):
        report = interval(0, F(1, 3)).check_kpk_integral(3)
        assert report == {
            "k": 3,
            "is_integral": True,
            "is_delzant": True,
            "lattice_count_matches": True,
            "n_k": 1,
        }

    def test_premature_k(self):
        with pytest.raises(PrematureK):
            interval(0, F(1, 3)).check_kpk_integral(2)
        with pytest.raises(PrematureK):
            interval(0, F(1, 3)).bly_bound(k=1)

    def test_bounds(self, simplex2):
        assert simplex2.bly_bound().bound == 6
        assert simplex2.bly_bound().is_integer_bound
        assert interval(0, 1).bly_bound().bound == 4
        b = interval(0, F(1, 3)).bly_bound()
        assert (b.k_used, b.n_k, b.bound) == (3, 1, 12)

    def test_scaling_covariance(self, simplex2):
        # the lattice count of P at refinement k equals the count of kP_k at
        # k = 1, kP_k rebuilt through the constructor
        for P in (simplex2, interval(0, F(3, 2)), example_polytope("perturbed-simplex")):
            k0 = P.k0()
            for k in (k0, k0 + 1, k0 + 2):
                count = P.lattice_count(k)
                kpk = LabelledPolytope(P.dim, [(nu, -m) for nu, m in zip(P.normals, count.low_sums)])
                assert kpk.lattice_count(1).n_k == count.n_k


def counted_calls(monkeypatch, *names):
    """A dict of the calls made to each named LabelledPolytope method."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(LabelledPolytope, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(LabelledPolytope, name, counted)
    return calls


# x, y >= 0, x + 2y <= 2: the normals at (0, 1) have determinant 2
ORBIFOLD_TRIANGLE = LabelledPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), 2)])


class TestBoundRule:
    """One rule for which k has a bound: a Delzant P, and a k whose kP_k has
    P's type, which is >= k0 and needs no search."""

    @pytest.mark.parametrize("name,k0", [("simplex2", 1), ("interval-third", 3),
                                         ("perturbed-simplex", 3)])
    @pytest.mark.parametrize("k", [0, -1])
    def test_k_not_positive_is_premature(self, name, k0, k):
        P = example_polytope(name)
        with pytest.raises(PrematureK, match=f"^k={k} is below k0={k0}$"):
            P.bly_bound(k)
        with pytest.raises(PrematureK, match=f"^k={k} is below k0={k0}$"):
            P.check_kpk_integral(k)

    @pytest.mark.parametrize("call", [
        lambda P: P.bly_bound(),
        lambda P: P.bly_bound(1),
        lambda P: P.bly_bound(2),
        lambda P: P.k0(),
        lambda P: P.check_kpk_integral(2),
        bound_report,
    ])
    def test_non_delzant_refused(self, call):
        # integral, so only the Delzant check refuses it
        P = ORBIFOLD_TRIANGLE
        assert P.is_integral() and not P.is_delzant()
        with pytest.raises(InvalidPolytope, match="^bounds require a Delzant polytope$"):
            call(P)

    def test_typed_k_needs_no_walk(self, monkeypatch):
        # perturbed-simplex has k0 = 3; check_kpk_integral scans k alone
        P = example_polytope("perturbed-simplex")
        calls = counted_calls(monkeypatch, "k0_rows", "_scan")
        assert P.bly_bound(5).k_used == 5
        assert calls == {"k0_rows": 0, "_scan": 1}
        calls.update(k0_rows=0, _scan=0)
        assert P.check_kpk_integral(3)["lattice_count_matches"]
        assert calls == {"k0_rows": 0, "_scan": 1}

    @pytest.mark.parametrize("data,k0,mistyped", MISTYPED_POLYGONS)
    def test_mistyped_k_walks_once(self, monkeypatch, data, k0, mistyped):
        P = polytope_from_dict(data)
        calls = counted_calls(monkeypatch, "k0_rows")
        for k in mistyped:
            calls["k0_rows"] = 0
            with pytest.raises(WrongTypeK, match=f"^k={k}: kP_k does not have"):
                P.bly_bound(k)
            assert calls["k0_rows"] == 1

    def test_k_past_k_max_walks(self):
        # k = 3 has a bound, but no k <= k_max = 2 reaches P's type
        with pytest.raises(K0NotFound):
            interval(0, F(1, 3)).bly_bound(3, k_max=2)


class TestHigherDimensions:
    def test_4d_box_bound_without_quadrature(self):
        box4 = LabelledPolytope(
            4,
            [((1, 0, 0, 0), 0), ((0, 1, 0, 0), 0), ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0),
             ((-1, 0, 0, 0), 1), ((0, -1, 0, 0), 1), ((0, 0, -1, 0), 1), ((0, 0, 0, -1), 1)],
        )
        assert box4.is_delzant() and box4.is_integral()
        b = box4.bly_bound()
        assert (b.n_k, b.bound) == (15, Fraction(2 * 4 * 16, 15))

    def test_thread_count_does_not_change_output(self):
        P = example_polytope("simplex2")
        one = P.lattice_points(5)
        three = P.lattice_points(5)
        assert np.array_equal(one.points, three.points)


class TestLminTrend:
    @pytest.mark.parametrize(
        "P",
        [
            interval(0, 1),
            interval(0, F(3, 2)),
            interval(F(-2, 3), F(7, 5)),
            LabelledPolytope(
                2,
                [((1, 0), F(1, 4)), ((0, 1), F(2, 7)), ((-1, 0), F(5, 3)), ((0, -1), F(3, 2))],
            ),
            example_polytope("simplex2"),
            example_polytope("perturbed-simplex"),
        ],
    )
    def test_max_lmin_nonincreasing(self, P):
        maxima = []
        for k in (1, 2, 4, 8, 16):
            try:
                data = P.lattice_points(k)
            except EmptyLattice:
                continue
            maxima.append(max(listed_l_min(P, data)))
        assert all(b <= a for a, b in zip(maxima, maxima[1:]))
        if P.is_integral():
            assert max(listed_l_min(P, P.lattice_points(1))) == 0


class TestJson:
    def test_round_trip_normalizes(self):
        raw = {
            "dim": 1,
            "facets": [
                {"normal": [1], "offset": "0.5"},
                {"normal": [-1], "offset": "6/4"},
            ],
        }
        P = polytope_from_dict(raw)
        assert P.offsets == (F(1, 2), F(3, 2))
        out = polytope_to_dict(P)
        assert out["facets"][0]["offset"] == "1/2"
        assert out["facets"][1]["offset"] == "3/2"
        assert polytope_from_dict(out) == P

    def test_bundled_files_parse(self, tmp_path):
        for name in ("interval01", "intervalC", "simplex2", "square",
                     "interval-third", "perturbed-simplex"):
            P = example_polytope(name)
            path = tmp_path / "copy.json"
            path.write_text(json.dumps(polytope_to_dict(P)))
            assert load_polytope(path) == P

    def test_bad_offsets_rejected(self):
        with pytest.raises(InvalidPolytope, match="facet 1"):
            polytope_from_dict(
                {"dim": 1, "facets": [{"normal": [1], "offset": 0}, {"normal": [-1], "offset": 1.5}]}
            )

    def test_float_normal_rejected(self):
        with pytest.raises(InvalidPolytope, match="facet 0"):
            polytope_from_dict(
                {"dim": 1, "facets": [{"normal": [1.0], "offset": 0}, {"normal": [-1], "offset": 1}]}
            )
