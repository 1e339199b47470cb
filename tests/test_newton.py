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
from test_acceptance import _criterion_1_maps


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
        assert newton_polygon(BiPoly.zero()).vertices == ((0, 0),)
        assert newton_polygon(BiPoly.constant(7)).vertices == ((0, 0),)

    def test_monomials_are_segments(self):
        poly = newton_polygon(bp((3, 0, 2)))
        assert len(poly.vertices) == 2
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

    @pytest.mark.parametrize("polys", [
        pytest.param(lambda: _random_supports(random.Random(31), 80), id="random"),
        pytest.param(lambda: _criterion_1_polys(random.Random(101), 20), id="criterion_1"),
        pytest.param(lambda: [bp(*((3, j, 1) for j in (1, 4, 6))),
                              bp(*((0, j, -1) for j in (2, 3, 5))), bp((2, 5, 1))],
                     id="single_column"),
        pytest.param(lambda: [bp(*((i, 2, 1) for i in (1, 3, 4))), bp(*((i, 0, 2) for i in (0, 2, 7)))],
                     id="single_row"),
        pytest.param(lambda: [bp((0, 0, 1), (4, 0, -1), (2, 0, 1), (0, 3, 2), (0, 1, 1)),
                              bp((5, 0, 1), (0, 2, 1))],
                     id="axes"),
        pytest.param(lambda: [BiPoly.zero()], id="zero"),
    ])
    def test_matches_the_full_support_hull(self, polys):
        """newton_polygon hulls only the lowest and highest y of each x
        column, plus the origin; the hull of the whole support is the same
        polygon."""
        for p in polys():
            assert newton_polygon(p) == _full_support_hull(p)


def _full_support_hull(p):
    """The reference: the hull of p's whole support and the origin."""
    return Polygon.from_points(p.support() | {(0, 0)})


def _criterion_1_polys(rng, count):
    """The components of criterion 1's maps, and of H(x, y^2)."""
    for H in _criterion_1_maps(rng, count):
        for p in (H.first, H.second):
            yield p
            yield BiPoly({(i, 2 * j): c for (i, j), c in p.terms()})


def _random_supports(rng, count):
    for _ in range(count):
        yield BiPoly({(rng.randint(0, 8), rng.randint(0, 8)): rng.choice((-2, 1, 3))
                      for _ in range(rng.randint(1, 16))})


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
        assert len(poly.vertices) == 1
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


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def contains_by_cases(vs, point) -> bool:
    """Membership of point in the canonical hull vs by cases of cross and
    dot products: a point, a segment, or a polygon with every edge turning
    left.  The oracle for Polygon.contains."""
    p = (Fraction(point[0]), Fraction(point[1]))
    if len(vs) == 1:
        return p == vs[0]
    if len(vs) == 2:
        a, b = vs
        if _cross(a, b, p) != 0:
            return False
        dot = (p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1])
        return 0 <= dot <= (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    return all(_cross(a, vs[(i + 1) % len(vs)], p) >= 0 for i, a in enumerate(vs))


def _random_polygons(rng, count):
    """Newton polygons of random supports (points, segments and polygons),
    hulls of random rational points around the origin, and dilations of
    both by random positive rationals."""
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            support = set()  # the origin alone
        elif kind == 1:
            step = (rng.randint(0, 3), rng.randint(0, 3))
            support = {(k * step[0], k * step[1]) for k in rng.sample(range(1, 5), rng.randint(1, 3))}
        else:
            support = {(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(1, 8))}
        poly = newton_polygon(BiPoly({k: 1 for k in support}))
        if kind == 3:
            poly = Polygon.from_points(
                [(0, 0)] + [(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                            for _ in range(rng.randint(1, 6))]
            )
        if rng.random() < 0.4:
            poly = scale_polygon(poly, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        yield poly


def _probe_points(rng, vs):
    """Vertices, edge midpoints, interior points and exterior points of vs."""
    n = len(vs)
    centroid = (sum(v[0] for v in vs) / n, sum(v[1] for v in vs) / n)
    points = list(vs) + [centroid]
    for i, a in enumerate(vs):
        b = vs[(i + 1) % n]
        points.append(((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
        # Just outside a vertex, and a point between the vertex and the centroid.
        t = Fraction(1, rng.randint(2, 50))
        points.append((a[0] + t * (a[0] - centroid[0]) + t, a[1] + t * (a[1] - centroid[1])))
        points.append((a[0] + t * (centroid[0] - a[0]), a[1] + t * (centroid[1] - a[1])))
    for _ in range(6):
        points.append((Fraction(rng.randint(-40, 40), rng.randint(1, 6)),
                       Fraction(rng.randint(-40, 40), rng.randint(1, 6))))
    return points


class TestHullMembership:
    """Polygon.contains (the hull is unchanged by the point) against the
    case analysis of contains_by_cases."""

    def test_contains_matches_the_case_analysis(self):
        rng = random.Random(15)
        seen = {True: 0, False: 0}
        for poly in _random_polygons(rng, 300):
            for p in _probe_points(rng, poly.vertices):
                want = contains_by_cases(poly.vertices, p)
                assert poly.contains(p) is want, (poly, p)
                seen[want] += 1
        assert min(seen.values()) > 1000

    def test_constructor_matches_the_case_analysis(self):
        rng = random.Random(16)
        for poly in _random_polygons(rng, 300):
            vs = poly.vertices
            assert Polygon(vs) == poly
            if len(vs) >= 2:
                with pytest.raises(ValueError):
                    Polygon(vs[1:] + vs[:1])  # not from the smallest vertex
                a, b = vs[0], vs[1]
                with pytest.raises(ValueError):
                    Polygon((a, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)) + vs[1:])
            if len(vs) >= 3:
                with pytest.raises(ValueError):
                    Polygon(vs[:1] + vs[:0:-1])  # clockwise
            # A translate stays canonical; it is a Polygon exactly when it
            # still contains the origin.
            dx, dy = Fraction(rng.randint(-6, 6), rng.randint(1, 3)), rng.randint(-6, 6)
            shifted = tuple((x + dx, y + dy) for x, y in vs)
            if contains_by_cases(shifted, (0, 0)):
                assert Polygon(shifted).vertices == shifted
            else:
                with pytest.raises(ValueError):
                    Polygon(shifted)


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


@pytest.mark.parametrize("value", [0.1, 0.5, "1/2"], ids=["float", "binary_float", "str"])
@pytest.mark.parametrize("make", [
    lambda v: Polygon([(0, 0), (v, 0)]),
    lambda v: Polygon([(0, 0), (0, v)]),
    lambda v: Polygon.from_points([(v, 1)]),
    lambda v: Polygon([(0, 0), (1, 0)]).contains((v, 0)),
    lambda v: Polygon([(0, 0), (0, 1)]).contains((0, v)),
    lambda v: scale_polygon(Polygon([(0, 0), (1, 0)]), v),
], ids=["vertex_x", "vertex_y", "from_points", "contains_x", "contains_y", "scale"])
def test_inexact_numbers_rejected(make, value):
    """Points and factors pass the coefficient rule: int or Fraction only."""
    with pytest.raises(TypeError, match=type(value).__name__):
        make(value)


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
