"""Deterministic point sets: Halton digits, the interior margin and the typed
failure on polytopes too thin to sample."""

from fractions import Fraction

import numpy as np
import pytest

from toriceig import LabelledPolytope, example_polytope
from toriceig.polytope import PolytopeError
from toriceig.sampling import SamplingError, facet_values, halton, interior_points


def radical_inverse(index: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while index > 0:
        inv += f * (index % base)
        index //= base
        f /= base
    return inv


def rectangle(height) -> LabelledPolytope:
    return LabelledPolytope(2, [((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), height)])


class TestHalton:
    def test_first_points(self):
        pts = halton(4, 2, skip=1)
        assert np.allclose(pts, [[1 / 2, 1 / 3], [1 / 4, 2 / 3], [3 / 4, 1 / 9], [1 / 8, 4 / 9]])

    @pytest.mark.parametrize("skip", [0, 20, 199_700])
    def test_digit_by_digit_reference(self, skip):
        pts = halton(300, 5, skip=skip)
        for j, base in enumerate((2, 3, 5, 7, 11)):
            expected = [radical_inverse(i + skip, base) for i in range(300)]
            assert pts[:, j].tobytes() == np.array(expected).tobytes()


class TestInteriorPoints:
    def test_margin(self):
        P = example_polytope("simplex2")
        X = interior_points(P, 400, min_facet=0.05)
        assert X.shape == (400, 2) and facet_values(P, X).min() >= 0.05

    def test_thin_polytope_lowers_the_margin(self):
        # the default margin 1e-2 exceeds half the height 1e-3
        X = interior_points(rectangle(Fraction(1, 1000)), 40)
        assert len(X) == 40 and facet_values(rectangle(Fraction(1, 1000)), X).min() > 0

    def test_too_thin_raises_typed_error(self):
        with pytest.raises(SamplingError, match="could not place 40 interior points"):
            interior_points(rectangle(Fraction(1, 10**9)), 40)
        assert issubclass(SamplingError, PolytopeError)


class TestFacetValues:
    P = example_polytope("perturbed-simplex")

    def test_float_facets_built_once_read_only(self):
        A, c = self.P.float_facets()
        assert self.P.float_facets()[0] is A and self.P.float_facets()[1] is c
        assert not A.flags.writeable and not c.flags.writeable
        with pytest.raises(ValueError):
            A[0, 0] = 1.0

    def test_rows_equal_one_point_calls(self):
        # a normal with three nonzero entries: the per-axis sums of a batch
        # round as those of a single point do
        P = LabelledPolytope(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -3), 1)])
        X = halton(60, 3).reshape(3, 20, 3) / 4.0
        L = facet_values(P, X)
        for idx in np.ndindex(X.shape[:-1]):
            assert L[idx].tobytes() == facet_values(P, X[idx]).tobytes()
        A = np.array(P.normals, dtype=float)
        c = np.array([float(v) for v in P.offsets])
        np.testing.assert_allclose(L, X @ A.T + c, rtol=1e-15, atol=1e-15)

    def test_bitwise_equal_to_fresh_arrays(self):
        A = np.array(self.P.normals, dtype=float)
        c = np.array([float(v) for v in self.P.offsets])
        X = halton(200, 2).reshape(4, 50, 2)
        assert facet_values(self.P, X).tobytes() == ((X[..., None, :] @ A.T)[..., 0, :] + c).tobytes()
        assert facet_values(self.P, X[1, 7]).tobytes() == (X[1, 7] @ A.T + c).tobytes()
