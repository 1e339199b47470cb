"""Tame automorphisms of the plane: factor words, recognition, inversion.

A tame automorphism is presented as a word of factors, each either affine
(an invertible 2x2 matrix plus a translation) or elementary (adds a
univariate shift of one coordinate to the other).  A Factorization holds
the word with factors applied right to left, matching function
composition: Factorization((A, B, C)) is the map A o B o C.

Recognition (decide_automorphism) is the Keller gate, then the degree
reduction _peel: while both components have degree above 1, subtracting
a scalar multiple of a power of the lower component from the higher one
must strictly drop its degree.  Once one component is affine, inversion
is direct (invert_low_degree): that component, completed with y (with x
when it has no x term), is an affine map A1^{-1}, and H o A1 is one
elementary factor and one scaling.  _peel works on pairs of UniPoly as
well, and embedding.rectify runs it on a curve's components.  Failure at
any step returns a NotAutomorphism value carrying the residual map; it is
a result, not an exception, because "not an automorphism" is a
legitimate answer.  A state that a constant Jacobian rules out (in
invert_low_degree, or a word that does not recompose) raises
TheoremViolationWitness instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, lcm
from typing import Union

from .arith import (
    BiPoly,
    Coeff,
    PolyMap,
    Substitution,
    UniPoly,
    _affine_image,
    _cdiv,
    _norm_fields,
    _rat,
    _shift_image,
    frac_pair,
    is_keller,
)
from .errors import PreconditionViolated, TheoremViolationWitness

_AXES = ("first", "second")
_IDENTITY = (1, 1, 0, 0, 1, 0, 0)  # the integer form of the identity map


class _FactorMap:
    """The map and the text of a factor, from its apply; a factor kind
    sets _KIND, the word that starts its text."""

    def to_map(self) -> PolyMap:
        return PolyMap(*self.apply((BiPoly.x(), BiPoly.y())))

    def render(self) -> str:
        return self._KIND + " " + self.to_map().render()


@dataclass(frozen=True)
class AffineFactor(_FactorMap):
    """The affine map (x, y) |-> (a11 x + a12 y + b1, a21 x + a22 y + b2).

    _form, its integer form computed once, is (D, m11, m12, m21, m22, c1,
    c2): the matrix M and translation c over D > 0, with no common factor,
    so equal factors store equal forms.  It is not a field: equality,
    hash, repr and JSON see the fields alone."""

    _KIND = "affine"

    a11: Coeff
    a12: Coeff
    a21: Coeff
    a22: Coeff
    b1: Coeff = 0
    b2: Coeff = 0

    def __post_init__(self):
        _norm_fields(self)
        fields = (self.a11, self.a12, self.a21, self.a22, self.b1, self.b2)
        D = lcm(*[v.denominator for v in fields])  # canonical, as in _SparsePoly.__init__
        object.__setattr__(self, "_form", (D, *[v.numerator * D // v.denominator for v in fields]))
        if self.det() == 0:
            raise ValueError("affine factor is singular")

    def det(self) -> Coeff:
        D, m11, m12, m21, m22 = self._form[:5]
        return _rat(m11 * m22 - m12 * m21, D * D)

    def is_identity(self) -> bool:
        return self._form == _IDENTITY

    def inverse(self) -> "AffineFactor":
        """D*adj(M) with translation -adj(M)*c, over det(M).  Its form is
        canonical: the sign of det(M) goes into the numerators and one gcd
        reduces it, so repeated inversion never grows the integers.  Its
        fields are normalized already, so it skips __post_init__."""
        D, m11, m12, m21, m22, c1, c2 = self._form
        det = m11 * m22 - m12 * m21
        nums = (D * m22, -D * m12, -D * m21, D * m11, m12 * c2 - m22 * c1, m21 * c1 - m11 * c2)
        g = gcd(det, *nums) if det > 0 else -gcd(det, *nums)
        form = (det // g, *[n // g for n in nums])
        out = object.__new__(AffineFactor)
        out.__dict__.update(zip(self.__dataclass_fields__, [_rat(n, form[0]) for n in form[1:]]),
                            _form=form)
        return out

    def apply(self, pair):
        """Compose with a pair of ring elements: self o (P, Q), summed on
        the integer numerators of P and Q."""
        return _form_image(pair, self._form)

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
            return (_shift_image(p, self.shift, q), q)
        return (p, _shift_image(q, self.shift, p))

    def to_json_dict(self) -> dict:
        return {"kind": self._KIND, "axis": self.axis, "shift": self.shift.render()}


Factor = Union[AffineFactor, ElementaryFactor]


@dataclass(frozen=True)
class Factorization:
    """A word of tame factors, applied right to left."""

    factors: tuple[Factor, ...] = ()

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


def _form_image(pair, form):
    """The image of pair under the affine map of an integer form."""
    D, m11, m12, m21, m22, c1, c2 = form
    return _affine_image(pair, ((m11, m12, c1), (m21, m22, c2)), D)


def _affine_form(f):
    """f's integer form in AffineFactor._form's layout when f is affine:
    an AffineFactor, or an ElementaryFactor whose shift s0 + s1*t has
    degree at most 1 (a shear plus a translation); None otherwise.  The
    shift's form (d, {0: n0, 1: n1}) is canonical, so this one is too."""
    if isinstance(f, AffineFactor):
        return f._form
    if f.shift.degree() > 1:
        return None
    d, n0, n1 = f.shift._d, f.shift._t.get(0, 0), f.shift._t.get(1, 0)
    return (d, d, n1, 0, d, n0, 0) if f.axis == "first" else (d, d, 0, n1, d, 0, n0)


def _compose_forms(a, b):
    """The integer form of a o b: the product of the 3x3 matrices
    [[M, c], [0, D]], reduced by one gcd, so it stays canonical."""
    Da, a11, a12, a21, a22, a1, a2 = a
    Db, b11, b12, b21, b22, b1, b2 = b
    out = (Da * Db, a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
           a21 * b11 + a22 * b21, a21 * b12 + a22 * b22,
           a11 * b1 + a12 * b2 + a1 * Db, a21 * b1 + a22 * b2 + a2 * Db)
    g = gcd(*out)
    return tuple(v // g for v in out)


def apply_factors(factors, pair):
    """Apply a factor word right to left to a pair of ring elements.

    A run of adjacent affine factors (see _affine_form) is one affine map,
    as in van der Kulk's amalgamated product structure of Aut(k^2): the
    product of their integer forms is applied once, through
    _affine_image, and a run whose product is the identity is skipped.
    Elementary factors of shift degree >= 2 apply one at a time."""
    form = _IDENTITY  # the product of the pending run, applied first
    for f in reversed(tuple(factors)):
        own = _affine_form(f)
        if own is not None:
            form = own if form == _IDENTITY else _compose_forms(own, form)
            continue
        if form != _IDENTITY:
            pair, form = _form_image(pair, form), _IDENTITY
        pair = f.apply(pair)
    return pair if form == _IDENTITY else _form_image(pair, form)


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


def _affine(f: BiPoly, g: BiPoly) -> AffineFactor:
    """The affine factor (f, g), for f and g of degree at most 1."""
    return AffineFactor(
        f.coeff(1, 0), f.coeff(0, 1), g.coeff(1, 0), g.coeff(0, 1),
        f.coeff(0, 0), g.coeff(0, 0),
    )


def invert_low_degree(H: PolyMap) -> Factorization:
    """Factor an automorphism with min(deg f, deg g) <= 1.

    Preconditions: the Jacobian determinant is a nonzero constant and one
    component has total degree at most 1.  Under those, the map is a
    composition of at most two affine factors and one elementary factor,
    which this returns (identity factors dropped).

    When only the component of index low is affine, H = A2 o E o A1^{-1}:
    A1^{-1} completes that component with y (with x when it has no x term),
    so component low of H o A1 is coordinate low, and the constant Jacobian
    makes the other alpha times its own coordinate plus a shift in
    coordinate low.  A2 scales that slot by alpha; E adds shift/alpha.
    """
    _require_keller(H)
    pair = (H.first, H.second)
    df, dg = (p.total_degree() for p in pair)
    if min(df, dg) > 1:
        raise PreconditionViolated("DegreeTooHigh", "both components have degree > 1")
    if min(df, dg) < 1:  # a constant component forces a zero Jacobian
        raise TheoremViolationWitness("Keller map with a constant component")
    if max(df, dg) == 1:
        fac = _affine(*pair)
        return Factorization(() if fac.is_identity() else (fac,))

    low = 0 if df == 1 else 1
    hi = 1 - low
    lin, xy = pair[low], (BiPoly.x(), BiPoly.y())
    completion = xy[1] if lin.coeff(1, 0) else xy[0]
    a1_inv = _affine(lin, completion) if low == 0 else _affine(completion, lin)
    sub = Substitution(*a1_inv.inverse().apply(xy))
    normal = [sub.apply(p) for p in pair]
    if normal[low] != xy[low]:
        raise TheoremViolationWitness(
            "normalization failed to fix the %s coordinate" % _AXES[low]
        )
    main = normal[hi]
    unit = (1, 0) if hi == 0 else (0, 1)
    alpha = main.coeff(*unit)
    if not alpha or any(e != unit and e[hi] for e in main.support()):
        raise TheoremViolationWitness("constant Jacobian must force a triangular normalized map")
    shift = UniPoly({e[low]: _cdiv(c, alpha) for e, c in main.terms() if not e[hi]})
    a2 = AffineFactor(alpha, 0, 0, 1) if hi == 0 else AffineFactor(1, 0, 0, alpha)
    word = (a2, ElementaryFactor(_AXES[hi], shift), a1_inv)
    return Factorization(tuple(f for f in word if not f.is_identity()))


def _peel(a, b):
    """Degree reduction of a pair of UniPoly or of BiPoly (Jung, van der Kulk).

    While both total degrees exceed 1, the higher degree dh (on ties, the
    second's) must be d times the lower, and lam * lo^d, with lam matching
    the leading terms, comes off the higher component; the step is valid
    exactly when that drops its degree below dh.  Both have degree dh, so
    the drop is the agreement of their leading forms.  Returns (factors,
    (a', b'), ok) with apply_factors(factors, (a', b')) == (a, b), one
    elementary factor per step; ok is False when the reduction stopped
    with both degrees above 1.
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
        reduced = hi - power * lam
        if reduced.total_degree() >= dh:
            return tuple(peeled), (a, b), False
        peeled.append(ElementaryFactor("first" if first else "second", UniPoly({d: lam})))
        a, b = (reduced, b) if first else (a, reduced)


def decide_automorphism(H: PolyMap):
    """Recognize H as a tame automorphism.

    Returns a Factorization whose composition equals H, or a
    NotAutomorphism value explaining where recognition stopped.  A word
    that fails to recompose to H raises TheoremViolationWitness.
    """
    gate = is_keller(H)
    if not gate.is_keller:
        return NotAutomorphism("JacobianNotConstant", H, gate.jacobian)
    peeled, (f, g), ok = _peel(H.first, H.second)
    if not ok:
        return NotAutomorphism("ReductionFailed", PolyMap(f, g), gate.jacobian)
    word = Factorization(peeled + invert_low_degree(PolyMap(f, g)).factors)
    if factorization_to_map(word) != H:
        raise TheoremViolationWitness("recognized word fails to recompose")
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
