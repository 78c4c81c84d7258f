"""Quadrature: exact volumes, rule-degree exactness against rational
integrals, interior nodes, refinement counts and determinism."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import roots_jacobi

from oracles import (
    exact_monomial_integral,
    exact_monomial_integral_simplex,
    fraction_quadrature,
)
from toriceig import LabelledPolytope, build_quadrature, example_polytope
from toriceig.quadrature import (
    MAX_NODES,
    MAX_ORDER,
    DimUnsupported,
    _gauss_jacobi,
    triangulate,
)
from toriceig.sampling import facet_values

interval01 = example_polytope("interval01")
simplex2 = example_polytope("simplex2")
square = example_polytope("square")

cube = LabelledPolytope(
    3,
    [
        ((1, 0, 0), 0),
        ((0, 1, 0), 0),
        ((0, 0, 1), 0),
        ((-1, 0, 0), 1),
        ((0, -1, 0), 1),
        ((0, 0, -1), 1),
    ],
)
simplex3 = LabelledPolytope(
    3,
    [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), 1)],
)
# The hexagon |x|, |y|, |x + y| <= 1 times [0, 1], and [0, 2]^3 cut by
# x + y + z <= 5: hexagon, square and pentagon facets.
hexprism = LabelledPolytope(
    3,
    [((1, 0, 0), 1), ((-1, 0, 0), 1), ((0, 1, 0), 1), ((0, -1, 0), 1),
     ((1, 1, 0), 1), ((-1, -1, 0), 1), ((0, 0, 1), 0), ((0, 0, -1), 1)],
)
cutcube = LabelledPolytope(
    3,
    [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
     ((-1, 0, 0), 2), ((0, -1, 0), 2), ((0, 0, -1), 2), ((-1, -1, -1), 5)],
)

VOLUMES = {
    "interval01": Fraction(1),
    "intervalC": Fraction(2),
    "simplex2": Fraction(1, 2),
    "square": Fraction(1),
    "interval-third": Fraction(1, 3),
    "perturbed-simplex": Fraction(16, 25) / 2,
    "cube": Fraction(1),
    "simplex3": Fraction(1, 6),
    "hexprism": Fraction(3),
    "cutcube": Fraction(47, 6),
}


def _box_monomial(lo, hi, e) -> Fraction:
    return math.prod(Fraction(b ** (p + 1) - a ** (p + 1), p + 1) for a, b, p in zip(lo, hi, e))


def cut_monomial_integral(name, e) -> Fraction:
    """Exact integral of x^e over `hexprism` or `cutcube` without their
    triangulation: the bounding box minus the corners cut off."""
    if name == "cutcube":
        corner = ((2, 2, 2), (1, 2, 2), (2, 1, 2), (2, 2, 1))
        return _box_monomial((0, 0, 0), (2, 2, 2), e) - exact_monomial_integral_simplex(corner, e)
    corners = (((1, 1), (0, 1), (1, 0)), ((-1, -1), (0, -1), (-1, 0)))
    cut = sum(exact_monomial_integral_simplex(c, e[:2]) for c in corners)
    return _box_monomial((-1, -1, 0), (1, 1, 1), e) - cut * Fraction(1, e[2] + 1)


# Rational offsets, and intervals whose scaled integer coordinates exceed
# 2**53, so that a float conversion that is not correctly rounded shows: the
# offset 121030708615038487/446673754019253275 was searched for so that
# float(d) / float(D) differs from d / D in the weights.
EXACT_BUILD_CASES = [
    *((name, example_polytope(name)) for name in (
        "interval01", "intervalC", "simplex2", "square", "interval-third", "perturbed-simplex")),
    ("hirzebruch17", LabelledPolytope(
        2, [((1, 0), 0), ((0, 1), 0), ((0, -1), Fraction(1, 17)), ((-1, -1), Fraction(20, 17))])),
    ("box", LabelledPolytope(
        3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
            ((-1, 0, 0), Fraction(1, 3)), ((0, -1, 0), Fraction(1, 2)), ((0, 0, -1), 1)])),
    ("tiny-offset", LabelledPolytope(1, [((1,), Fraction(1, 2**55 + 1)), ((-1,), 1)])),
    ("far", LabelledPolytope(1, [((1,), -(10**17)), ((-1,), 10**17 + 1)])),
    ("wide-denominator", LabelledPolytope(
        1, [((1,), Fraction(121030708615038487, 446673754019253275)), ((-1,), 1)])),
    # object dtype in 2-D and 3-D: the square moved by 10**7 crosses the
    # int64 bound at depth 1; moved by 10**17 / 3 its scaled corners pass
    # 2**53 on a scale that is not a power of two; the box's scale passes
    # int64 itself
    ("square-1e7", LabelledPolytope(
        2, [((1, 0), -(10**7)), ((0, 1), -(10**7)), ((-1, 0), 10**7 + 1), ((0, -1), 10**7 + 1)])),
    ("square-1e17/3", LabelledPolytope(2, [
        ((1, 0), -Fraction(10**17, 3)), ((0, 1), -Fraction(10**17, 3)),
        ((-1, 0), Fraction(10**17, 3) + 1), ((0, -1), Fraction(10**17, 3) + 1)])),
    ("box-wide-denominator", LabelledPolytope(
        3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
            ((-1, 0, 0), Fraction(121030708615038487, 446673754019253275)),
            ((0, -1, 0), Fraction(10**18 + 9, 10**18 + 7)), ((0, 0, -1), Fraction(5, 7))])),
]


def polytopes():
    for name in ("interval01", "intervalC", "simplex2", "square",
                 "interval-third", "perturbed-simplex"):
        yield name, example_polytope(name)
    yield "cube", cube
    yield "simplex3", simplex3
    yield "hexprism", hexprism
    yield "cutcube", cutcube


class TestVolume:
    @pytest.mark.parametrize("name,P", list(polytopes()))
    @pytest.mark.parametrize("order,depth", [(1, 0), (2, 1), (3, 2), (4, 0)])
    def test_total_weight_is_exact_volume(self, name, P, order, depth):
        Q = build_quadrature(P, order, depth)
        assert Q.exact_volume == VOLUMES[name]
        total = float(np.sum(Q.weights))
        assert total == pytest.approx(float(Q.exact_volume), rel=1e-10)

    def test_3d_refinement_preserves_volume(self):
        # exercises the eight-child tetrahedron split
        Q = build_quadrature(cube, 1, 2)
        assert Q.exact_volume == 1
        assert len(Q) == 12 * 64  # one node per refined tetrahedron


class TestNodes:
    def test_interval_counts(self):
        Q = build_quadrature(interval01, 2, 0)
        assert len(Q) == 2 * 2  # two cone segments, two Gauss nodes each
        assert np.sum(Q.weights) == pytest.approx(1.0, rel=1e-12)

    def test_square_depth1_counts(self):
        Q = build_quadrature(square, 2, 1)
        # 4 fan triangles x 4 children x order^2 nodes
        assert len(triangulate(square)) == 4
        assert len(Q) == 16 * 4

    @pytest.mark.parametrize("P", [simplex2, square, cube, simplex3])
    def test_nodes_strictly_interior(self, P):
        Q = build_quadrature(P, 3, 1)
        assert np.min(facet_values(P, Q.nodes)) > 0

    def test_weights_positive(self):
        for order in (1, 2, 3, 4):
            Q = build_quadrature(simplex2, order, 1)
            assert np.all(Q.weights > 0)


class TestExactness:
    @pytest.mark.parametrize("P", [interval01, simplex2, square, simplex3])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_monomials_up_to_rule_degree(self, P, order):
        Q = build_quadrature(P, order, 0)
        degree = 2 * order - 1
        n = P.dim
        exps = [
            e
            for e in np.ndindex(*(degree + 1,) * n)
            if sum(e) <= degree
        ]
        for e in exps:
            exact = exact_monomial_integral(triangulate(P), tuple(e))
            vals = np.prod(Q.nodes ** np.array(e, dtype=float), axis=1)
            approx = float(Q.weights @ vals)
            scale = max(abs(float(exact)), 1e-30)
            assert abs(approx - float(exact)) / scale < 1e-12

    @pytest.mark.parametrize("name,P", [("hexprism", hexprism), ("cutcube", cutcube)])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_monomials_on_non_simplex_facets(self, name, P, order):
        # the fans of hexagon and pentagon facets against integrals that do
        # not use the triangulation
        Q = build_quadrature(P, order, 0)
        degree = 2 * order - 1
        for e in np.ndindex(*(degree + 1,) * 3):
            if sum(e) > degree:
                continue
            exact = float(cut_monomial_integral(name, e))
            approx = float(Q.weights @ np.prod(Q.nodes ** np.array(e, dtype=float), axis=1))
            assert abs(approx - exact) <= 1e-12 * max(abs(exact), 1.0)

    def test_refined_3d_still_exact(self):
        # exercises the eight-child split as an actual partition, not just
        # a volume identity
        Q = build_quadrature(simplex3, 2, 1)
        for e in ((2, 0, 0), (1, 1, 0), (0, 1, 2)):
            exact = exact_monomial_integral(triangulate(simplex3), e)
            vals = np.prod(Q.nodes ** np.array(e, dtype=float), axis=1)
            assert float(Q.weights @ vals) == pytest.approx(float(exact), rel=1e-12)

    def test_degree_plus_one_not_exact(self):
        # order 1 (midpoint-like) must fail on quadratics: guards against
        # accidentally testing the trivial zero polynomial
        Q = build_quadrature(interval01, 1, 0)
        exact = exact_monomial_integral(triangulate(interval01), (2,))
        approx = float(Q.weights @ (Q.nodes[:, 0] ** 2))
        assert abs(approx - float(exact)) > 1e-4


class TestGaussJacobi:
    """The Golub-Welsch rule against scipy's, over every order that
    `build_quadrature` accepts and the three weights (1 - t)^alpha that a
    simplex of dimension <= 3 needs."""

    @pytest.mark.parametrize("alpha", [0, 1, 2])
    def test_matches_roots_jacobi(self, alpha):
        for q in range(1, MAX_ORDER + 1):
            t, w = _gauss_jacobi(q, alpha)
            t_ref, w_ref = roots_jacobi(q, alpha, 0)
            assert np.max(np.abs(t - t_ref)) <= 1e-12
            assert np.max(np.abs(w / w_ref - 1.0)) <= 1e-12

    @pytest.mark.parametrize(
        "P,order", [(simplex2, MAX_ORDER), (simplex3, 8)], ids=["simplex2", "simplex3"]
    )
    def test_high_order_top_degree_exact(self, P, order):
        degree = 2 * order - 1
        Q = build_quadrature(P, order, 0)
        for e in ((degree,) + (0,) * (P.dim - 1), (1,) * (P.dim - 1) + (degree - P.dim + 1,)):
            exact = float(exact_monomial_integral(triangulate(P), e))
            approx = float(Q.weights @ np.prod(Q.nodes ** np.array(e, dtype=float), axis=1))
            assert approx == pytest.approx(exact, rel=1e-12)


class TestStructure:
    def test_triangulation_is_canonical(self):
        t1 = triangulate(square)
        t2 = triangulate(square)
        assert t1 == t2
        assert list(t1) == sorted(t1)

    def test_triangulation_cached_per_polytope(self):
        # equal polytopes share one cached triangulation; the cache is bounded
        again = LabelledPolytope(square.dim, list(zip(square.normals, square.offsets)))
        assert again is not square and triangulate(again) is triangulate(square)
        assert triangulate.cache_info().maxsize is not None

    def test_build_deterministic(self):
        Q1 = build_quadrature(simplex2, 3, 2)
        Q2 = build_quadrature(simplex2, 3, 2)
        assert Q1.nodes.tobytes() == Q2.nodes.tobytes()
        assert Q1.weights.tobytes() == Q2.weights.tobytes()

    def test_dim_unsupported(self):
        box4 = LabelledPolytope(
            4,
            [((1, 0, 0, 0), 0), ((0, 1, 0, 0), 0), ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0),
             ((-1, 0, 0, 0), 1), ((0, -1, 0, 0), 1), ((0, 0, -1, 0), 1), ((0, 0, 0, -1), 1)],
        )
        with pytest.raises(DimUnsupported):
            build_quadrature(box4, 2, 0)

    def test_triangulate_dim_unsupported(self):
        simplex4 = LabelledPolytope(
            4, [(tuple(int(i == j) for j in range(4)), 0) for i in range(4)] + [((-1,) * 4, 1)]
        )
        with pytest.raises(DimUnsupported, match="dimension 4 > 3"):
            triangulate(simplex4)

    def test_bad_order(self):
        for order in (0, MAX_ORDER + 1):
            with pytest.raises(ValueError):
                build_quadrature(simplex2, order, 0)

    @pytest.mark.parametrize("P,order,depth", [(simplex2, 3, 2), (square, 4, 1), (cube, 2, 1)])
    def test_node_count_prediction(self, P, order, depth):
        # the count checked against MAX_NODES before refining is the built one
        Q = build_quadrature(P, order, depth)
        assert len(Q) == len(triangulate(P)) * 2 ** (P.dim * depth) * order**P.dim

    def test_node_cap(self):
        # the 165,888-node cube rule is admitted; refining first would not return
        assert len(triangulate(cube)) * 2 ** (3 * 2) * 6**3 == 165_888 <= MAX_NODES
        for P, depth in ((simplex2, 40), (cube, 7)):
            with pytest.raises(ValueError, match="nodes"):
                build_quadrature(P, 3, depth)


class TestIntegerBuild:
    @pytest.mark.parametrize("name,P", EXACT_BUILD_CASES, ids=[c[0] for c in EXACT_BUILD_CASES])
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_bitwise_equal_to_fraction_build(self, name, P, depth):
        Q = build_quadrature(P, 3, depth)
        nodes, weights, volume = fraction_quadrature(P, 3, depth)
        assert Q.nodes.shape == nodes.shape and Q.nodes.tobytes() == nodes.tobytes()
        assert Q.weights.shape == weights.shape and Q.weights.tobytes() == weights.tobytes()
        assert Q.exact_volume == volume
