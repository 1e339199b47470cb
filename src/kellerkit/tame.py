"""Tame automorphisms of the plane: factor words, recognition, inversion.

A tame automorphism is presented as a word of factors, each either affine
(an invertible 2x2 matrix plus a translation) or elementary (adds a
univariate shift of one coordinate to the other).  A Factorization holds
the word with factors applied right to left, matching function
composition: Factorization((A, B, C)) is the map A o B o C.

Recognition (decide_automorphism) is the Keller gate, then the
leading-form reduction _peel: while both components have degree above 1,
the higher-degree leading form must be a scalar multiple of a power of
the other component's leading form, and subtracting that multiple
strictly drops the degree.  Once one component is affine, inversion is
direct (invert_low_degree).  _peel works on pairs of UniPoly as well, and
embedding.rectify runs it on a curve's components.  Failure at any step
returns a NotAutomorphism value carrying the residual map; it is a
result, not an exception, because "not an automorphism" is a legitimate
answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Union

from .arith import (
    BiPoly,
    Coeff,
    PolyMap,
    Substitution,
    UniPoly,
    _cdiv,
    _horner,
    frac_pair,
    is_keller,
)
from .errors import PreconditionViolated

_AXES = ("first", "second")


class _FactorMap:
    """The map and the text of a factor, from its apply; a factor kind
    sets _KIND, the word that starts its text."""

    def to_map(self) -> PolyMap:
        return PolyMap(*self.apply((BiPoly.x(), BiPoly.y())))

    def render(self) -> str:
        return self._KIND + " " + self.to_map().render()


@dataclass(frozen=True)
class AffineFactor(_FactorMap):
    """The affine map (x, y) |-> (a11 x + a12 y + b1, a21 x + a22 y + b2)."""

    _KIND = "affine"

    a11: Coeff
    a12: Coeff
    a21: Coeff
    a22: Coeff
    b1: Coeff = 0
    b2: Coeff = 0

    def __post_init__(self):
        if self.det() == 0:
            raise ValueError("affine factor is singular")

    def det(self) -> Coeff:
        return self.a11 * self.a22 - self.a12 * self.a21

    def is_identity(self) -> bool:
        return (
            self.a11 == 1
            and self.a22 == 1
            and not self.a12
            and not self.a21
            and not self.b1
            and not self.b2
        )

    def inverse(self) -> "AffineFactor":
        d = self.det()
        i11 = _cdiv(self.a22, d)
        i12 = _cdiv(-self.a12, d)
        i21 = _cdiv(-self.a21, d)
        i22 = _cdiv(self.a11, d)
        return AffineFactor(
            i11,
            i12,
            i21,
            i22,
            -(i11 * self.b1 + i12 * self.b2),
            -(i21 * self.b1 + i22 * self.b2),
        )

    def apply(self, pair):
        """Compose with a pair of ring elements: self o (P, Q)."""
        p, q = pair
        return (
            self.a11 * p + self.a12 * q + self.b1,
            self.a21 * p + self.a22 * q + self.b2,
        )

    def to_json_dict(self) -> dict:
        return {
            "kind": self._KIND,
            "matrix": [
                [frac_pair(self.a11), frac_pair(self.a12)],
                [frac_pair(self.a21), frac_pair(self.a22)],
            ],
            "translation": [frac_pair(self.b1), frac_pair(self.b2)],
        }


@dataclass(frozen=True)
class ElementaryFactor(_FactorMap):
    """For axis "first": (x, y) |-> (x + shift(y), y); for "second" the
    shift of the first coordinate is added to the second."""

    _KIND = "elementary"

    axis: str
    shift: UniPoly

    def __post_init__(self):
        if self.axis not in _AXES:
            raise ValueError("axis must be 'first' or 'second'")

    def is_identity(self) -> bool:
        return self.shift.is_zero()

    def inverse(self) -> "ElementaryFactor":
        return ElementaryFactor(self.axis, -self.shift)

    def apply(self, pair):
        p, q = pair
        if self.axis == "first":
            return (p + _horner(self.shift.terms(), q, 0), q)
        return (p, q + _horner(self.shift.terms(), p, 0))

    def to_json_dict(self) -> dict:
        return {"kind": self._KIND, "axis": self.axis, "shift": self.shift.render()}


Factor = Union[AffineFactor, ElementaryFactor]


@dataclass(frozen=True)
class Factorization:
    """A word of tame factors, applied right to left."""

    factors: tuple[Factor, ...] = ()

    @classmethod
    def identity(cls) -> "Factorization":
        return cls(())

    def __len__(self):
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def render(self) -> str:
        if not self.factors:
            return "identity"
        return "\n".join(f.render() for f in self.factors)

    def to_json_list(self) -> list:
        return [f.to_json_dict() for f in self.factors]


def apply_factors(factors, pair):
    """Apply a factor word right to left to a pair of ring elements."""
    for f in reversed(tuple(factors)):
        pair = f.apply(pair)
    return pair


def factorization_to_map(word: Factorization) -> PolyMap:
    f, g = apply_factors(word.factors, (BiPoly.x(), BiPoly.y()))
    return PolyMap(f, g)


def factorization_inverse(word: Factorization) -> Factorization:
    return Factorization(tuple(f.inverse() for f in reversed(word.factors)))


@dataclass(frozen=True)
class NotAutomorphism:
    """Recognition failure: why, and the map left when reduction stopped."""

    reason: str
    residual: PolyMap
    jacobian: BiPoly | None = None

    def render(self) -> str:
        return "not an automorphism: %s (residual %s)" % (
            self.reason,
            self.residual.render(),
        )

    def to_json_dict(self) -> dict:
        out = {
            "automorphism": False,
            "reason": self.reason,
            "residual": self.residual.to_json_dict(),
        }
        if self.jacobian is not None:
            out["jacobian"] = self.jacobian.render()
        return out


def _require_keller(H: PolyMap) -> BiPoly:
    """The constant Jacobian of H, as a precondition: PreconditionViolated
    with condition JacobianNotConstant when H is not Keller."""
    gate = is_keller(H)
    if not gate.is_keller:
        raise PreconditionViolated(
            "JacobianNotConstant", "jacobian is %s" % gate.jacobian.render()
        )
    return gate.jacobian


def invert_low_degree(H: PolyMap) -> Factorization:
    """Factor an automorphism with min(deg f, deg g) <= 1.

    Preconditions: the Jacobian determinant is a nonzero constant and one
    component has total degree at most 1.  Under those, the map is a
    composition of at most two affine factors and one elementary factor,
    which this returns (identity factors dropped).
    """
    _require_keller(H)
    f, g = H.first, H.second
    df, dg = f.total_degree(), g.total_degree()
    if min(df, dg) > 1:
        raise PreconditionViolated(
            "DegreeTooHigh", "both components have degree > 1"
        )
    # A constant component would force a zero Jacobian, caught above.
    assert df >= 1 and dg >= 1

    if df <= 1 and dg <= 1:
        fac = AffineFactor(
            f.coeff(1, 0), f.coeff(0, 1), g.coeff(1, 0), g.coeff(0, 1),
            f.coeff(0, 0), g.coeff(0, 0),
        )
        return Factorization(() if fac.is_identity() else (fac,))

    return _split_mixed(H, low_is_second=(dg == 1))


def _split_mixed(H: PolyMap, low_is_second: bool) -> Factorization:
    """Split H = A2 o E o A1^{-1} when exactly one component is affine.

    A1 is chosen so the low-degree component of H o A1 becomes the matching
    coordinate; the Jacobian hypothesis then forces the other component of
    H o A1 to be coordinate-affine plus a univariate shift, which is A2 o E.
    """
    f, g = H.first, H.second
    if low_is_second:
        c, d_, e = g.coeff(1, 0), g.coeff(0, 1), g.coeff(0, 0)
        if c:
            a1 = AffineFactor(_cdiv(-d_, c), _cdiv(1, c), 1, 0, _cdiv(-e, c), 0)
        else:
            a1 = AffineFactor(1, 0, 0, _cdiv(1, d_), 0, _cdiv(-e, d_))
    else:
        a, b, e = f.coeff(1, 0), f.coeff(0, 1), f.coeff(0, 0)
        if a:
            a1 = AffineFactor(_cdiv(1, a), _cdiv(-b, a), 0, 1, _cdiv(-e, a), 0)
        else:
            a1 = AffineFactor(0, 1, _cdiv(1, b), 0, 0, _cdiv(-e, b))
    p1, q1 = a1.apply((BiPoly.x(), BiPoly.y()))
    sub = Substitution(p1, q1)
    k1, k2 = sub.apply(f), sub.apply(g)
    if low_is_second:
        assert k2 == BiPoly.y(), "normalization failed to fix the second coordinate"
        main, keep_axis = k1, "first"
        alpha = main.coeff(1, 0)
        shift_terms = {j: main.coeff(0, j) for j in range(main.degree_y() + 1)} \
            if main.degree_y() >= 0 else {}
        allowed = {(1, 0)} | {(0, j) for j in shift_terms}
    else:
        assert k1 == BiPoly.x(), "normalization failed to fix the first coordinate"
        main, keep_axis = k2, "second"
        alpha = main.coeff(0, 1)
        shift_terms = {i: main.coeff(i, 0) for i in range(main.degree_x() + 1)} \
            if main.degree_x() >= 0 else {}
        allowed = {(0, 1)} | {(i, 0) for i in shift_terms}
    assert alpha and main.support() <= frozenset(allowed), (
        "constant Jacobian must force a triangular normalized map"
    )
    shift = UniPoly({k: _cdiv(v, alpha) for k, v in shift_terms.items() if v})
    if low_is_second:
        a2 = AffineFactor(alpha, 0, 0, 1)
    else:
        a2 = AffineFactor(1, 0, 0, alpha)
    word = []
    if not a2.is_identity():
        word.append(a2)
    if not shift.is_zero():
        word.append(ElementaryFactor(keep_axis, shift))
    a1_inv = a1.inverse()
    if not a1_inv.is_identity():
        word.append(a1_inv)
    return Factorization(tuple(word))


def _peel(a, b):
    """Degree reduction of a pair of UniPoly or of BiPoly (Jung, van der Kulk).

    While both total degrees exceed 1, the higher degree (on ties, the
    second's) must be d times the lower, and the higher component's
    leading form lam times that of lo^d; then lam * lo^d comes off it, a
    strict drop in degree.  Returns (factors, (a', b'), ok) with
    apply_factors(factors, (a', b')) == (a, b), one elementary factor per
    step; ok is False when the reduction stopped with both degrees above 1.
    """
    peeled: list[Factor] = []
    while True:
        da, db = a.total_degree(), b.total_degree()
        if min(da, db) <= 1:
            return tuple(peeled), (a, b), True
        first = da > db
        hi, lo, dh, dl = (a, b, da, db) if first else (b, a, db, da)
        if dh % dl:
            return tuple(peeled), (a, b), False
        d = dh // dl
        power = lo**d
        lam = _cdiv(hi.leading_term()[1], power.leading_term()[1])
        if hi.leading_form() != power.leading_form() * lam:
            return tuple(peeled), (a, b), False
        reduced = hi - power * lam
        assert reduced.total_degree() < dh, "elementary step failed to reduce the degree"
        peeled.append(ElementaryFactor("first" if first else "second", UniPoly({d: lam})))
        a, b = (reduced, b) if first else (a, reduced)


def decide_automorphism(H: PolyMap):
    """Recognize H as a tame automorphism.

    Returns a Factorization whose composition equals H, or a
    NotAutomorphism value explaining where recognition stopped.
    """
    gate = is_keller(H)
    if not gate.is_keller:
        return NotAutomorphism("JacobianNotConstant", H, gate.jacobian)
    peeled, (f, g), ok = _peel(H.first, H.second)
    if not ok:
        return NotAutomorphism("ReductionFailed", PolyMap(f, g), gate.jacobian)
    word = Factorization(peeled + invert_low_degree(PolyMap(f, g)).factors)
    assert factorization_to_map(word) == H, "recognized word fails to recompose"
    return word


def random_tame(
    seed: int,
    num_factors: int,
    max_shift_degree: int,
    coeff_bound: int,
    *,
    affine_probability: float = 0.25,
) -> Factorization:
    """Deterministic random word of tame factors.

    num_factors counts all factors; each slot is affine with probability
    affine_probability (0 disables affine slots), otherwise elementary
    with a nonzero shift of degree between 1 and max_shift_degree and
    integer coefficients bounded by coeff_bound.  Consecutive elementary
    factors alternate axes so words never collapse by merging.
    """
    if num_factors < 0:
        raise ValueError("num_factors must be >= 0")
    if max_shift_degree < 1:
        raise ValueError("max_shift_degree must be >= 1")
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    if not 0 <= affine_probability <= 1:
        raise ValueError("affine_probability must be between 0 and 1")
    rng = random.Random(seed)
    word: list[Factor] = []
    axis = rng.choice(_AXES)
    for _ in range(num_factors):
        if rng.random() < affine_probability:
            word.append(_random_affine(rng, coeff_bound))
            continue
        deg = rng.randint(1, max_shift_degree)
        coeffs = {k: rng.randint(-coeff_bound, coeff_bound) for k in range(deg)}
        lead = 0
        while not lead:
            lead = rng.randint(-coeff_bound, coeff_bound)
        coeffs[deg] = lead
        word.append(ElementaryFactor(axis, UniPoly(coeffs)))
        axis = "second" if axis == "first" else "first"
    return Factorization(tuple(word))


def _random_affine(rng: random.Random, coeff_bound: int) -> AffineFactor:
    while True:
        a11 = rng.randint(-coeff_bound, coeff_bound)
        a12 = rng.randint(-coeff_bound, coeff_bound)
        a21 = rng.randint(-coeff_bound, coeff_bound)
        a22 = rng.randint(-coeff_bound, coeff_bound)
        if a11 * a22 - a12 * a21:
            b1 = rng.randint(-coeff_bound, coeff_bound)
            b2 = rng.randint(-coeff_bound, coeff_bound)
            return AffineFactor(a11, a12, a21, a22, b1, b2)
