"""Newton polygons, exact hulls, and the similarity test."""

import random
from fractions import Fraction

import pytest

from kellerkit import (
    BiPoly,
    HypothesisViolated,
    NonPositiveFactor,
    Polygon,
    compose_map,
    factorization_to_map,
    newton_polygon,
    scale_polygon,
    similarity_check,
)

from conftest import draw_tame_word


def bp(*terms):
    """Terse BiPoly builder from (i, j, c) triples."""
    return BiPoly({(i, j): c for i, j, c in terms})


class TestHull:
    def test_triangle(self):
        p = bp((1, 0, 1), (0, 2, 1))  # x + y^2
        poly = newton_polygon(p)
        assert poly.vertices == ((0, 0), (1, 0), (0, 2))
        assert poly.render() == "(0, 0) (1, 0) (0, 2)"

    def test_zero_and_constants_are_points(self):
        assert newton_polygon(BiPoly.zero()).is_point()
        assert newton_polygon(BiPoly.constant(7)).vertices == ((0, 0),)

    def test_monomials_are_segments(self):
        poly = newton_polygon(bp((3, 0, 2)))
        assert poly.is_segment()
        assert poly.vertices == ((0, 0), (3, 0))
        assert newton_polygon(bp((0, 2, -1))).vertices == ((0, 0), (0, 2))

    def test_collinear_points_dropped(self):
        p = bp((0, 0, 1), (1, 0, 1), (2, 0, 1), (1, 1, 1))
        assert newton_polygon(p).vertices == ((0, 0), (2, 0), (1, 1))

    def test_interior_and_edge_points_dropped(self):
        # Full quadratic: (1, 1) sits on the edge from (2, 0) to (0, 2).
        p = bp((2, 0, 1), (1, 1, 1), (0, 2, 1), (1, 0, 1), (0, 1, 1), (0, 0, 1))
        assert newton_polygon(p).vertices == ((0, 0), (2, 0), (0, 2))

    def test_cusp(self):
        p = bp((0, 2, 1), (3, 0, -1))  # y^2 - x^3
        assert newton_polygon(p).vertices == ((0, 0), (3, 0), (0, 2))

    def test_support(self):
        assert bp((2, 1, 5), (0, 0, -1)).support() == {(2, 1), (0, 0)}
        assert BiPoly.zero().support() == set()

    def test_hull_properties_random(self):
        rng = random.Random(7)
        for _ in range(40):
            pts = {
                (rng.randint(0, 6), rng.randint(0, 6))
                for _ in range(rng.randint(1, 10))
            }
            p = BiPoly({k: 1 for k in pts})
            poly = newton_polygon(p)
            vs = poly.vertices
            # Every vertex comes from the support or the origin.
            assert set(vs) <= {(Fraction(i), Fraction(j)) for i, j in pts} | {(0, 0)}
            # Every support point (and the origin) lies inside.
            for q in pts:
                assert poly.contains(q)
            assert poly.contains((0, 0))
            # Midpoints of support points stay inside (convexity).
            pl = sorted(pts)
            for a in pl[:4]:
                for b in pl[:4]:
                    mid = (Fraction(a[0] + b[0], 2), Fraction(a[1] + b[1], 2))
                    assert poly.contains(mid)
            # Strict convexity: consecutive turns are strictly left.
            if len(vs) >= 3:
                for i in range(len(vs)):
                    o, a, b = vs[i], vs[(i + 1) % len(vs)], vs[(i + 2) % len(vs)]
                    cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
                    assert cross > 0
            # Canonical form is a fixed point.
            assert Polygon.from_points(vs) == poly
            # The integer hull equals the hull of the rational support, and
            # its vertices are rationals.
            rational = {(Fraction(i), Fraction(j)) for i, j in pts | {(0, 0)}}
            assert poly == Polygon.from_points(rational)
            assert all(type(c) is Fraction for v in vs for c in v)


class TestPolygon:
    def test_constructor_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            Polygon([(2, 0), (0, 0), (0, 2)])
        with pytest.raises(ValueError):
            Polygon([(0, 0), (0, 2), (2, 0)])  # clockwise
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 0), (2, 0)])  # collinear triple
        with pytest.raises(ValueError):
            Polygon([])

    def test_constructor_rejects_origin_free(self):
        with pytest.raises(ValueError):
            Polygon([(1, 0), (2, 0)])

    def test_contains_triangle(self):
        poly = Polygon([(0, 0), (2, 0), (0, 2)])
        assert poly.contains((Fraction(1, 2), Fraction(1, 2)))
        assert poly.contains((1, 1))  # on the hypotenuse
        assert poly.contains((2, 0))  # vertex
        assert not poly.contains((2, 1))
        assert not poly.contains((-1, 0))

    def test_contains_segment(self):
        poly = Polygon([(0, 0), (4, 2)])
        assert poly.contains((2, 1))
        assert poly.contains((Fraction(1), Fraction(1, 2)))
        assert not poly.contains((6, 3))  # beyond the far end
        assert not poly.contains((2, 2))  # off the line

    def test_contains_point(self):
        poly = Polygon([(0, 0)])
        assert poly.is_point()
        assert poly.contains((0, 0))
        assert not poly.contains((0, 1))

    def test_equality_and_hash(self):
        a = Polygon([(0, 0), (2, 0), (0, 2)])
        b = Polygon.from_points([(0, 0), (1, 0), (2, 0), (0, 2), (1, 1)])
        assert a.vertices == b.vertices
        assert a == b
        assert len({a, b}) == 1

    def test_json(self):
        poly = Polygon([(0, 0), (Fraction(3, 2), 0), (0, 3)])
        assert poly.to_json_dict() == {
            "vertices": [[0, 1, 0, 1], [3, 2, 0, 1], [0, 1, 3, 1]]
        }


class TestScale:
    def test_known(self):
        tri = Polygon([(0, 0), (1, 0), (0, 2)])
        assert scale_polygon(tri, 3).vertices == ((0, 0), (3, 0), (0, 6))
        assert scale_polygon(tri, 1) == tri

    def test_fractional(self):
        tri = Polygon([(0, 0), (1, 0), (0, 2)])
        scaled = scale_polygon(tri, Fraction(3, 2))
        assert scaled.vertices == ((0, 0), (Fraction(3, 2), 0), (0, 3))
        assert scaled.render() == "(0, 0) (3/2, 0) (0, 3)"

    def test_segment(self):
        seg = Polygon([(0, 0), (2, 0)])
        assert scale_polygon(seg, Fraction(1, 2)).vertices == ((0, 0), (1, 0))

    def test_dilation_maps_vertices(self):
        poly = Polygon.from_points([(0, 0), (3, 1), (1, 3), (2, 2)])
        f = Fraction(5, 3)
        assert scale_polygon(poly, f).vertices == tuple(
            (f * x, f * y) for x, y in poly.vertices
        )

    def test_rejects_non_positive(self):
        tri = Polygon([(0, 0), (1, 0), (0, 2)])
        with pytest.raises(NonPositiveFactor):
            scale_polygon(tri, 0)
        with pytest.raises(NonPositiveFactor):
            scale_polygon(tri, -2)


class TestSimilarity:
    def test_shear_cube_pair(self):
        # f = x + y^2, g = y + f^3: a Jacobian pair of degrees 2 and 6.
        f = bp((1, 0, 1), (0, 2, 1))
        g = BiPoly.y() + f**3
        report = similarity_check(f, g)
        assert report.similar
        assert report.factor == 3
        assert report.n_f.render() == "(0, 0) (1, 0) (0, 2)"
        assert report.n_g.render() == "(0, 0) (3, 0) (0, 6)"
        assert report.jacobian == BiPoly.one()

    def test_degree_checked_before_jacobian(self):
        # f has degree 1 and the Jacobian is not constant; the degree
        # violation must win because hypotheses are checked in order.
        f = BiPoly.x()
        g = bp((0, 3, 1))
        with pytest.raises(HypothesisViolated) as exc:
            similarity_check(f, g)
        assert exc.value.reason == "DegreeTooLow"
        assert "deg f" in str(exc.value)

    def test_second_degree_checked_next(self):
        f = bp((2, 0, 1), (0, 1, 1))
        g = BiPoly.y()
        with pytest.raises(HypothesisViolated) as exc:
            similarity_check(f, g)
        assert exc.value.reason == "DegreeTooLow"
        assert "deg g" in str(exc.value)

    def test_jacobian_hypothesis(self):
        f = bp((2, 0, 1))
        g = bp((0, 2, 1))
        with pytest.raises(HypothesisViolated) as exc:
            similarity_check(f, g)
        assert exc.value.reason == "JacobianNotConstant"

    def test_json_shape(self):
        f = bp((1, 0, 1), (0, 2, 1))
        report = similarity_check(f, BiPoly.y() + f**2)
        data = report.to_json_dict()
        assert data["similar"] is True
        assert data["factor"] == [2, 1]
        assert data["n_f"] == {"vertices": [[0, 1, 0, 1], [1, 1, 0, 1], [0, 1, 2, 1]]}

    def test_random_tame_pairs_are_similar(self):
        rng = random.Random(11)
        checked = 0
        while checked < 12:
            word = draw_tame_word(rng, 4, 3, 3, 16)
            H = factorization_to_map(word)
            f, g = H.first, H.second
            df, dg = f.total_degree(), g.total_degree()
            if df <= 1 or dg <= 1:
                continue
            report = similarity_check(f, g)
            assert report.similar
            assert report.factor == Fraction(dg, df)
            checked += 1

    def test_swapped_pair_scales_inversely(self):
        f = bp((1, 0, 1), (0, 2, 1))
        g = BiPoly.y() + f**3
        fwd = similarity_check(f, g)
        back = similarity_check(g, f)
        assert back.similar
        assert back.factor == Fraction(1, 3)
        assert fwd.factor * back.factor == 1
