"""Newton polygons of bivariate polynomials and the similarity test.

The Newton polygon of p is the convex hull of the exponent support of p
together with the origin.  Hulls are computed by the monotone chain with
exact cross products, so no epsilon appears anywhere.  A support's hull
runs on its integer exponents, and only its vertices become exact
rational points.  Degenerate hulls (a single point, a segment) are
first-class polygons.

Canonical vertex order: counterclockwise, starting at the lexicographically
smallest vertex, with collinear intermediate points dropped.  Two polygons
are equal exactly when their canonical vertex tuples are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import BiPoly, PolyMap, is_keller
from .errors import HypothesisViolated, NonPositiveFactor

Point = tuple[Fraction, Fraction]


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points) -> tuple[Point, ...]:
    """Strict convex hull, counterclockwise from the smallest vertex; exact
    on int and Fraction points alike."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


class Polygon:
    """Convex lattice-or-rational polygon containing the origin.

    Vertices are stored in canonical order; the constructor re-derives the
    hull of what it is given and rejects vertex lists that are not already
    canonical, which keeps every Polygon in the system comparable by
    straight tuple equality.
    """

    __slots__ = ("_v",)

    def __init__(self, vertices):
        vs = tuple((Fraction(x), Fraction(y)) for x, y in vertices)
        if not vs:
            raise ValueError("a polygon needs at least one vertex")
        if _hull(vs) != vs:
            raise ValueError("vertices are not in canonical convex position")
        self._v = vs
        if not self.contains((0, 0)):
            raise ValueError("polygon does not contain the origin")

    @classmethod
    def from_points(cls, points) -> "Polygon":
        return cls(_hull((Fraction(x), Fraction(y)) for x, y in points))

    @property
    def vertices(self) -> tuple[Point, ...]:
        return self._v

    def is_point(self) -> bool:
        return len(self._v) == 1

    def is_segment(self) -> bool:
        return len(self._v) == 2

    def contains(self, point) -> bool:
        """Membership including the boundary."""
        p = (Fraction(point[0]), Fraction(point[1]))
        vs = self._v
        if len(vs) == 1:
            return p == vs[0]
        if len(vs) == 2:
            a, b = vs
            if _cross(a, b, p) != 0:
                return False
            dot = (p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1])
            length2 = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
            return 0 <= dot <= length2
        for i, a in enumerate(vs):
            b = vs[(i + 1) % len(vs)]
            if _cross(a, b, p) < 0:
                return False
        return True

    def __eq__(self, other):
        if isinstance(other, Polygon):
            return self._v == other._v
        return NotImplemented

    def __hash__(self):
        return hash(self._v)

    def render(self) -> str:
        def fmt(f: Fraction) -> str:
            return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)

        return " ".join("(%s, %s)" % (fmt(x), fmt(y)) for x, y in self._v)

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                [x.numerator, x.denominator, y.numerator, y.denominator]
                for x, y in self._v
            ]
        }

    def __repr__(self):
        return "Polygon(%s)" % self.render()


def newton_polygon(p: BiPoly) -> Polygon:
    """Convex hull of the support of p together with the origin."""
    return Polygon(_hull(p.support() | {(0, 0)}))


def scale_polygon(p: Polygon, factor) -> Polygon:
    """Dilation by a positive rational factor about the origin.  A positive
    dilation keeps the canonical vertex order, so the scaled vertices are
    already canonical."""
    f = Fraction(factor)
    if f <= 0:
        raise NonPositiveFactor("scale factor must be positive, got %s" % f)
    return Polygon((f * x, f * y) for x, y in p.vertices)


@dataclass(frozen=True)
class SimilarityReport:
    """Outcome of the polygon similarity test for a Jacobian pair."""

    similar: bool
    factor: Fraction
    n_f: Polygon
    n_g: Polygon
    jacobian: BiPoly

    def to_json_dict(self) -> dict:
        return {
            "similar": self.similar,
            "factor": [self.factor.numerator, self.factor.denominator],
            "n_f": self.n_f.to_json_dict(),
            "n_g": self.n_g.to_json_dict(),
        }


def similarity_check(f: BiPoly, g: BiPoly) -> SimilarityReport:
    """Test whether N_g equals (deg g / deg f) * N_f.

    Hypotheses, checked in this order: deg f > 1, deg g > 1, and the
    Jacobian determinant of (f, g) is a nonzero constant.  Violations
    raise HypothesisViolated with reason DegreeTooLow or
    JacobianNotConstant.
    """
    df, dg = f.total_degree(), g.total_degree()
    if df <= 1:
        raise HypothesisViolated("DegreeTooLow", "deg f = %s, need > 1" % df)
    if dg <= 1:
        raise HypothesisViolated("DegreeTooLow", "deg g = %s, need > 1" % dg)
    gate = is_keller(PolyMap(f, g))
    jac = gate.jacobian
    if not gate.is_keller:
        raise HypothesisViolated(
            "JacobianNotConstant", "jacobian is %s" % jac.render()
        )
    n_f = newton_polygon(f)
    n_g = newton_polygon(g)
    factor = Fraction(dg, df)
    similar = n_g == scale_polygon(n_f, factor)
    return SimilarityReport(similar=similar, factor=factor, n_f=n_f, n_g=n_g, jacobian=jac)
