"""Newton polygons of bivariate polynomials and the similarity test.

The Newton polygon of p is the convex hull of the exponent support of p
together with the origin.  Hulls are computed by the monotone chain with
exact cross products, so no epsilon appears anywhere.  A support's hull
runs on its integer exponents, and only its vertices become exact
rational points.  newton_polygon takes the hull on column extremes: the
lowest and the highest exponent of y for each exponent of x, plus the
origin; a point strictly between them lies on their segment, so the
polygon is the hull of the whole support.  Degenerate hulls (a single
point, a segment) are first-class polygons.

Canonical vertex order: counterclockwise, starting at the lexicographically
smallest vertex, with collinear intermediate points dropped.  Two polygons
are equal exactly when their canonical vertex tuples are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import BiPoly, PolyMap, _norm_coeff, frac_pair, is_keller
from .errors import HypothesisViolated, NonPositiveFactor

Point = tuple[Fraction, Fraction]


def _point(x, y) -> Point:
    """An exact point: int or Fraction coordinates, as Fractions; a float
    or a str raises TypeError."""
    return Fraction(_norm_coeff(x)), Fraction(_norm_coeff(y))


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
        vs = tuple(_point(x, y) for x, y in vertices)
        if _hull(vs + ((0, 0),)) != vs:
            raise ValueError("vertices are not a canonical convex hull around the origin")
        self._v = vs

    @classmethod
    def _canonical(cls, vertices) -> "Polygon":
        """Wrap Fraction vertices already in canonical convex position
        around the origin, without re-deriving the hull."""
        out = cls.__new__(cls)
        out._v = tuple(vertices)
        return out

    @classmethod
    def from_points(cls, points) -> "Polygon":
        return cls(_hull(_point(x, y) for x, y in points))

    @property
    def vertices(self) -> tuple[Point, ...]:
        return self._v

    def contains(self, point) -> bool:
        """Membership including the boundary: adding the point leaves the
        hull unchanged."""
        return _hull(self._v + (_point(*point),)) == self._v

    def __eq__(self, other):
        if isinstance(other, Polygon):
            return self._v == other._v
        return NotImplemented

    def __hash__(self):
        return hash(self._v)

    def render(self) -> str:
        return " ".join("(%s, %s)" % (x, y) for x, y in self._v)

    def to_json_dict(self) -> dict:
        return {"vertices": [frac_pair(x) + frac_pair(y) for x, y in self._v]}

    def __repr__(self):
        return "Polygon(%s)" % self.render()


def newton_polygon(p: BiPoly) -> Polygon:
    """Convex hull of the support of p together with the origin, taken on
    the integer exponents of the lowest and the highest y in each x
    column: a point strictly between them lies on that segment, so it is
    never a strict vertex."""
    keys = sorted(p._t)
    top, bottom = dict(keys), dict(reversed(keys))  # x -> highest, lowest y
    points = {(0, 0), *top.items(), *bottom.items()}
    return Polygon._canonical((Fraction(i), Fraction(j)) for i, j in _hull(points))


def scale_polygon(p: Polygon, factor) -> Polygon:
    """Dilation by a positive rational factor about the origin.  A positive
    dilation keeps the canonical vertex order, so the scaled vertices are
    already canonical."""
    f = Fraction(_norm_coeff(factor))
    if f <= 0:
        raise NonPositiveFactor("scale factor must be positive, got %s" % f)
    return Polygon._canonical((f * x, f * y) for x, y in p.vertices)


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
            "factor": frac_pair(self.factor),
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
    for name, p, d in (("f", f, df), ("g", g, dg)):
        if p.is_zero():
            raise HypothesisViolated("DegreeTooLow", "%s is the zero polynomial, need deg %s > 1"
                                     % (name, name))
        if d <= 1:
            raise HypothesisViolated("DegreeTooLow", "deg %s = %d, need > 1" % (name, d))
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
