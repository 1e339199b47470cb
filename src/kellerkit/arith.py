"""Exact sparse polynomial arithmetic over the rationals.

Univariate polynomials map exponents to coefficients, bivariate
polynomials map exponent pairs (i, j) (for x^i * y^j) to coefficients.
Coefficients are Python ints or fractions.Fraction values; every
operation stores a Fraction with denominator 1 as an int, so the common
integer-only paths stay on machine arithmetic.  Zero coefficients are
never stored.  All values are immutable after construction and every
operation returns a fresh object.

BiPoly products and substitutions run on Python ints, through one
integer product kernel, _convolve.  Each operand is read once as integer
numerators over the lcm of its denominators (an all-int operand as it is
stored); the work is done on the numerators alone, and the result is
divided once, at the end, by the product of the denominators, giving an
int where it divides and a reduced Fraction otherwise.  A product
convolves the two operands' numerators.  Substitution of (u, v) into p,
which also evaluates a BiPoly at a point, sums p's rows over cached
powers of u's numerators into one accumulator and runs Horner's rule in
v's numerators, all on int dicts (see Substitution).  The subresultant
sequence behind resultant_y and gcd_bivariate runs on integer coefficient
rows: each input is read once as integer numerators, laid out as rows in
y of dense int lists in x, and a resultant is divided once, at the end,
by the powers of the two denominators that scale it.  An affine image
a*p + b*q + e sums p's and q's numerators over one shared denominator.
UniPoly products, small and mostly integral, multiply the stored
coefficients directly and then store integral Fractions as ints.

jacobian_det, the Keller gate, is one integer kernel with no
intermediate BiPoly: it reads the numerators of f and g once, computes
f_x*g_y - f_y*g_x into one int dict and divides once.  With W and R the
sums of the x-degrees and of the y-degrees of f and g, every term of the
result lies in a W by R grid.  If W*R is 0 (f_x = g_x = 0 or f_y = g_y =
0) the result is 0.  Otherwise an exact count of the work items of each
strategy picks one:
- W*R + 2*(m + n) <= m*n, for m and n terms in f and g: the grid cells
  and the derivative terms the packing writes are no more than the term
  pairs of the other strategy.  Kronecker substitution, x^i*y^j ->
  2^(B*(i + j*W)).  The four derivatives are packed into Python ints,
  their positive and negative parts written into bytearrays, and the
  cross product is two C bigint multiplications.  B is a whole number
  of bytes holding |f_x|*|g_y| + |f_y|*|g_x| (|.| the sum of absolute
  values, a bound on every coefficient of the result), every packed
  coefficient, and a sign bit.  The result's balanced base-2^B digits
  are read up to its top digit only, so a Keller map's constant
  Jacobian unpacks in O(1).
- otherwise: one pass over the term pairs, adding (i1*j2 - j1*i2)*a*b at
  (i1 + i2 - 1, j1 + j2 - 1).  It bounds the work on sparse input of
  high degree, whose grid would be too large to pack, and wins on small
  maps, where packing four lists costs more than a few pairs.
Only the Jacobian packs: there the product cancels to a few terms, so
unpacking is cheap.  The general product kernel _convolve stays a term
pair loop; a packed _convolve lost on the small products of line proofs,
which do not cancel.

UniPoly calls and compositions and elementary factors evaluate by one
generic Horner loop, _horner, over their own ring.

The canonical term order is graded lexicographic with x heavier than y:
higher total degree first, ties broken by the exponent of x.  One render
loop in _SparsePoly walks that order (sign, magnitude, monomial, joins),
so the textual form of any polynomial is canonical and round-trips
through the parser; each class only names its monomials.

The degree of the zero polynomial is NEG_INF, a sentinel that compares
below every integer and refuses arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from .errors import DegenerateResultant, InvalidLine

Coeff = Union[int, Fraction]


def _norm_coeff(c) -> Coeff:
    """Coerce to int when the denominator is 1, keep Fraction otherwise."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError("coefficients must be int or Fraction, got %r" % type(c).__name__)


def _norm_fields(obj) -> None:
    """Pass every field of a frozen dataclass of coefficients through
    _norm_coeff, in place: a float raises TypeError, an integral Fraction
    is stored as its int."""
    for name in obj.__dataclass_fields__:
        v = getattr(obj, name)
        if type(v) is not int:
            object.__setattr__(obj, name, _norm_coeff(v))


def _cdiv(a: Coeff, b: Coeff) -> Coeff:
    """Exact division of coefficients; never uses float division."""
    return _norm_coeff(Fraction(a) / Fraction(b))


def _var_power(var: str, e: int) -> str:
    """var^e as rendered: "" for e == 0, the bare variable for e == 1."""
    return "" if e == 0 else var if e == 1 else "%s^%d" % (var, e)


def frac_pair(c: Coeff) -> list[int]:
    """JSON encoding of a rational: [numerator, denominator]."""
    f = Fraction(c)
    return [f.numerator, f.denominator]


class _NegInf:
    """Degree of the zero polynomial.

    Compares below every number and equal only to itself; arithmetic is
    deliberately unsupported so accidental use in exponent math fails
    loudly instead of silently.
    """

    __slots__ = ()

    def __lt__(self, other):
        return other is not NEG_INF

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is NEG_INF

    def _refuse(self, *args):
        raise TypeError("NEG_INF does not support arithmetic")

    __add__ = __radd__ = __sub__ = __rsub__ = _refuse
    __mul__ = __rmul__ = __neg__ = _refuse

    def __repr__(self):
        return "NEG_INF"


NEG_INF = _NegInf()


def _horner(sorted_terms, value, zero):
    """Evaluate sum(c * value^k) given terms sorted by descending k.

    Works over any ring with +, * and ** for non-negative ints:
    coefficients, univariate or bivariate polynomials.  Each c is added to
    the accumulator as it is, so a scalar c is lifted by the polynomial's
    own addition and c may also be an element of value's ring.
    """
    acc = zero
    prev = None
    for k, c in sorted_terms:
        if prev is not None:
            gap = prev - k
            acc = acc * (value if gap == 1 else value**gap)
        acc = acc + c
        prev = k
    if prev is not None and prev > 0:
        acc = acc * (value if prev == 1 else value**prev)
    return acc


class _SparsePoly:
    """Ring operations shared by UniPoly and BiPoly, on a dict from exponent
    key to nonzero coefficient.  A subclass sets _CONST, the key of the
    constant term; _key, which validates one key; _deg, the total degree
    of a key; and _order, its rank in the canonical term order."""

    __slots__ = ("_t",)

    def __init__(self, terms: dict | Iterable = ()):
        items = terms.items() if isinstance(terms, dict) else terms
        data = {}
        for key, v in items:
            k = self._key(key)
            if k is None:
                raise ValueError("exponents must be non-negative ints, got %r" % (key,))
            v = _norm_coeff(v)
            if v:
                data[k] = v
        self._t = data

    @classmethod
    def _new(cls, data: dict):
        """Wrap a dict already free of zero coefficients, without copying."""
        out = cls.__new__(cls)
        out._t = data
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({cls._CONST: 1})

    @classmethod
    def constant(cls, c: Coeff):
        return cls({cls._CONST: c})

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def is_constant(self) -> bool:
        return self._t.keys() <= {self._CONST}

    def constant_value(self) -> Coeff:
        if not self.is_constant():
            raise ValueError("polynomial is not constant: %s" % self.render())
        return self._t.get(self._CONST, 0)

    def total_degree(self):
        return max(map(self._deg, self._t)) if self._t else NEG_INF

    def terms(self) -> list:
        """Terms in canonical order, highest first."""
        return [(k, self._t[k]) for k in sorted(self._t, key=self._order, reverse=True)]

    def leading_term(self) -> tuple:
        if not self._t:
            raise ValueError("the zero polynomial has no leading term")
        key = max(self._t, key=self._order)
        return key, self._t[key]

    def leading_form(self):
        """Homogeneous part of top total degree."""
        d = self.total_degree()
        return self._new({k: v for k, v in self._t.items() if self._deg(k) == d})

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self._t == other._t
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._t.items()))

    def __neg__(self):
        return self._new({k: -v for k, v in self._t.items()})

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return self.constant(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        data = dict(self._t)
        for k, v in o._t.items():
            s = data.get(k, 0) + v
            if s:
                data[k] = _norm_coeff(s)
            else:
                data.pop(k, None)
        return self._new(data)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def _scale(self, c: Coeff):
        """Product with a scalar."""
        if not c:
            return self.zero()
        return self._new({k: _norm_coeff(v * c) for k, v in self._t.items()})

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative int")
        result = self.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.render())

    def _render(self, monomial) -> str:
        """The terms in canonical order, joined by " + " and " - ", each one
        a magnitude, a monomial, or magnitude*monomial; monomial(key) names
        the monomial, "" for the constant term."""
        text = ""
        for key, c in self.terms():
            mag, mono = str(abs(c)), monomial(key)
            body = mag if not mono else mono if mag == "1" else mag + "*" + mono
            text += (" - " if c < 0 else " + ") + body
        if not text:
            return "0"
        return "-" + text[3:] if text[1] == "-" else text[3:]


def _ints(data: dict) -> dict:
    """data with each Fraction of denominator 1 stored as its int; all-int
    data as it is."""
    for v in data.values():
        if type(v) is not int:
            return {k: _norm_coeff(v) for k, v in data.items()}
    return data


class UniPoly(_SparsePoly):
    """Sparse univariate polynomial with exact rational coefficients."""

    __slots__ = ()
    _CONST = 0

    @staticmethod
    def _key(k):
        return k if isinstance(k, int) and k >= 0 else None

    _deg = _order = int  # an exponent is its own degree and rank

    @classmethod
    def x(cls) -> "UniPoly":
        return cls({1: 1})

    degree = _SparsePoly.total_degree

    def lc(self) -> Coeff:
        """Leading coefficient; 0 for the zero polynomial."""
        return self._t[max(self._t)] if self._t else 0

    def coeff(self, k: int) -> Coeff:
        return self._t.get(k, 0)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            if isinstance(other, (int, Fraction)):
                return self._scale(other)
            return NotImplemented
        out: dict[int, Coeff] = {}
        get = out.get
        for k1, v1 in self._t.items():
            for k2, v2 in other._t.items():
                k = k1 + k2
                s = get(k, 0) + v1 * v2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return UniPoly._new(_ints(out))

    __rmul__ = __mul__

    def __divmod__(self, other: "UniPoly"):
        if not isinstance(other, UniPoly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q: dict[int, Coeff] = {}
        r = dict(self._t)
        do = other.degree()
        lo = other.lc()
        while r:
            dr = max(r)
            if dr < do:
                break
            c = _cdiv(r[dr], lo)
            k = dr - do
            q[k] = c
            for ko, vo in other._t.items():
                kk = ko + k
                s = r.get(kk, 0) - c * vo
                if s:
                    r[kk] = s
                else:
                    r.pop(kk, None)
        return UniPoly._new(q), UniPoly._new(_ints(r))

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def derivative(self) -> "UniPoly":
        return UniPoly({k - 1: k * v for k, v in self._t.items() if k > 0})

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        lead = self.lc()
        if lead == 1:
            return self
        return UniPoly({k: _cdiv(v, lead) for k, v in self._t.items()})

    def compose(self, other: "UniPoly") -> "UniPoly":
        return _horner(self.terms(), other, UniPoly.zero())

    def __call__(self, value: Coeff) -> Coeff:
        return _norm_coeff(
            Fraction(_horner(self.terms(), Fraction(value), 0))
        )

    def to_bipoly(self, axis: str = "x") -> "BiPoly":
        if axis == "x":
            return BiPoly({(k, 0): v for k, v in self._t.items()})
        if axis == "y":
            return BiPoly({(0, k): v for k, v in self._t.items()})
        raise ValueError("axis must be 'x' or 'y'")

    def render(self, var: str = "x") -> str:
        return self._render(lambda k: _var_power(var, k))


def gcd_univariate(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic greatest common divisor over the rationals; gcd(0, 0) = 0."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def _numerators(terms: dict):
    """Bivariate terms as ((i, j), n) over d, with n / d the coefficient and
    d the lcm of the coefficients' denominators.  Terms that are all plain
    ints are returned as they are, over 1."""
    for v in terms.values():
        if type(v) is not int:
            break
    else:
        return terms.items(), 1
    d = lcm(*[v.denominator for v in terms.values()])
    return [(k, v.numerator * (d // v.denominator)) for k, v in terms.items()], d


def _over(numerators: dict, d: int) -> dict:
    """Divide each nonzero integer numerator by d > 0 once: an int where d
    divides it, a reduced Fraction otherwise."""
    if d == 1:
        return numerators
    out = {}
    for k, n in numerators.items():
        q, r = divmod(n, d)
        out[k] = Fraction(n, d) if r else q
    return out


def _convolve(a, b) -> dict:
    """The integer product kernel: the product of two bivariate term lists
    ((i, j), n) with int n, as a dict free of zero coefficients."""
    out: dict[tuple[int, int], int] = {}
    get = out.get
    for (i1, j1), v1 in a:
        for (i2, j2), v2 in b:
            k = (i1 + i2, j1 + j2)
            s = get(k, 0) + v1 * v2
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _axpy(acc: dict, c: int, terms) -> None:
    """acc += c * terms in place, for a nonzero int c and int terms;
    sums that cancel are dropped."""
    get = acc.get
    for k, v in terms:
        s = get(k, 0) + c * v
        if s:
            acc[k] = s
        else:
            del acc[k]


class BiPoly(_SparsePoly):
    """Sparse bivariate polynomial in x and y with exact rational coefficients."""

    __slots__ = ()
    _CONST = (0, 0)

    @staticmethod
    def _key(key):
        i, j = key
        if isinstance(i, int) and isinstance(j, int) and i >= 0 and j >= 0:
            return (i, j)
        return None

    _deg = staticmethod(lambda key: key[0] + key[1])
    _order = staticmethod(lambda key: (key[0] + key[1], key[0]))

    @classmethod
    def x(cls) -> "BiPoly":
        return cls({(1, 0): 1})

    @classmethod
    def y(cls) -> "BiPoly":
        return cls({(0, 1): 1})

    def degree_x(self):
        return max(i for i, _ in self._t) if self._t else NEG_INF

    def degree_y(self):
        return max(j for _, j in self._t) if self._t else NEG_INF

    def coeff(self, i: int, j: int) -> Coeff:
        return self._t.get((i, j), 0)

    def support(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._t)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        a, da = _numerators(self._t)
        b, db = _numerators(other._t)
        return BiPoly._new(_over(_convolve(a, b), da * db))

    __rmul__ = __mul__

    def diff(self, var: str) -> "BiPoly":
        if var == "x":
            return BiPoly({(i - 1, j): i * v for (i, j), v in self._t.items() if i > 0})
        if var == "y":
            return BiPoly({(i, j - 1): j * v for (i, j), v in self._t.items() if j > 0})
        raise ValueError("var must be 'x' or 'y'")

    def on_x_axis(self) -> UniPoly:
        """Restrict to y = 0, as a univariate polynomial in x."""
        return UniPoly({i: v for (i, j), v in self._t.items() if j == 0})

    def as_unipoly_in_x(self) -> UniPoly:
        """Reinterpret a y-free polynomial as univariate."""
        if self.degree_y() > 0:
            raise ValueError("polynomial involves y: %s" % self.render())
        return self.on_x_axis()

    def substitute(self, u, v):
        """Substitute u for x and v for y; u and v share one polynomial type."""
        return Substitution(u, v).apply(self)

    def evaluate(self, a: Coeff, b: Coeff) -> Coeff:
        return Substitution(Fraction(a), Fraction(b)).apply(self)

    def render(self) -> str:
        return self._render(
            lambda ij: "*".join(m for m in (_var_power("x", ij[0]), _var_power("y", ij[1])) if m)
        )


def _bivariate(w) -> dict:
    """The terms of a BiPoly; of a UniPoly or a scalar, as a polynomial in
    x alone, under keys (k, 0)."""
    if isinstance(w, BiPoly):
        return w._t
    if isinstance(w, UniPoly):
        return {(k, 0): c for k, c in w._t.items()}
    c = _norm_coeff(w)
    return {(0, 0): c} if c else {}


def _ring(u, v) -> type:
    """The ring u and v share: BiPoly, UniPoly or a scalar type."""
    return type(u) if isinstance(u, _SparsePoly) else type(v)


def _in_ring(ring: type, terms: dict):
    """Terms free of zero coefficients, as read by _bivariate, back in
    ring: a BiPoly, a UniPoly in x, or the constant term as a scalar."""
    if ring is BiPoly:
        return BiPoly._new(terms)
    if ring is UniPoly:
        return UniPoly._new({i: c for (i, _), c in terms.items()})
    return terms.get((0, 0), 0)


def _affine_image(pair, rows) -> tuple:
    """a*P + b*Q + e for each row (a, b, e) of scalars, with P and Q the
    pair's elements, which share a ring (BiPoly, UniPoly or scalars), and
    each component returned in that ring.  P and Q are read once as
    integer numerators over dP and dQ; a component is summed on them over
    the lcm of the denominators of a/dP, b/dQ and e, and divided once."""
    ring = _ring(*pair)
    (p, dp), (q, dq) = (_numerators(_bivariate(w)) for w in pair)
    out = []
    for a, b, e in rows:
        parts = [(c, n, d) for c, n, d in ((a, p, dp), (b, q, dq)) if c]
        den = lcm(e.denominator, *[c.denominator * d for c, _, d in parts])
        acc: dict[tuple[int, int], int] = {}
        for c, n, d in parts:
            _axpy(acc, c.numerator * (den // (c.denominator * d)), n)
        if e:
            _axpy(acc, e.numerator * (den // e.denominator), (((0, 0), 1),))
        out.append(_in_ring(ring, _over(acc, den)))
    return tuple(out)


def _power(powers: list, base, e: int) -> dict:
    """base^e as int numerators, from the cached powers of base, which are
    extended one product at a time."""
    while len(powers) <= e:
        powers.append(_convolve(powers[-1].items(), base))
    return powers[e]


class Substitution:
    """Substitution of a fixed pair (u, v) for (x, y), on integer numerators.

    u and v are read once as integer numerators U and V over the lcm of
    their denominators, du and dv.  For p with numerators n_ij over dp,
    x-degree dx and y-degree dy, apply() sums

        row_j * dv^(dy-j) * V^j,  row_j = sum_i n_ij * du^(dx-i) * U^i,

    by Horner's rule in V, adding each row into the accumulator in place,
    and divides once by dp * du^dx * dv^dy: an int where that divides, a
    reduced Fraction otherwise.  Every product is the integer kernel
    _convolve.  The powers of U and V are cached across apply() calls, so
    substituting the same pair into several polynomials (both components
    of a map, say) shares the multiplications.

    u and v share one ring, BiPoly, UniPoly or the rationals, and apply()
    returns an element of it; a UniPoly or a scalar is read as a
    polynomial in x alone, so every ring takes the same path.
    """

    def __init__(self, u, v):
        self._ring = _ring(u, v)
        self._u, self._du = _numerators(_bivariate(u))
        self._v, self._dv = _numerators(_bivariate(v))
        self._upow = [{(0, 0): 1}]
        self._vpow = [{(0, 0): 1}]

    def apply(self, p: BiPoly):
        """p(u, v), in the ring of u and v."""
        terms, dp = _numerators(p._t)
        rows: dict[int, list] = {}
        dx = 0
        for (i, j), n in terms:
            rows.setdefault(j, []).append((i, n))
            dx = max(dx, i)
        _power(self._upow, self._u, dx)
        ys = sorted(rows, reverse=True)
        dy = ys[0] if ys else 0
        du, dv = self._du, self._dv
        acc: dict[tuple[int, int], int] = {}
        for j, below in zip(ys, ys[1:] + [0]):
            scale = dv ** (dy - j)
            for i, n in rows[j]:
                _axpy(acc, n * du ** (dx - i) * scale, self._upow[i].items())
            if j > below and acc:
                acc = _convolve(acc.items(), _power(self._vpow, self._v, j - below).items())
        return _in_ring(self._ring, _over(acc, dp * du**dx * dv**dy))


@dataclass(frozen=True)
class PolyMap:
    """A polynomial map of the plane, (x, y) |-> (first, second)."""

    first: BiPoly
    second: BiPoly

    @classmethod
    def identity(cls) -> "PolyMap":
        return cls(BiPoly.x(), BiPoly.y())

    def is_identity(self) -> bool:
        return self.first == BiPoly.x() and self.second == BiPoly.y()

    def evaluate(self, a: Coeff, b: Coeff) -> tuple[Coeff, Coeff]:
        return self.first.evaluate(a, b), self.second.evaluate(a, b)

    def render(self) -> str:
        return "(%s, %s)" % (self.first.render(), self.second.render())

    def to_json_dict(self) -> dict:
        return {"first": self.first.render(), "second": self.second.render()}


def compose_map(outer: PolyMap, inner: PolyMap) -> PolyMap:
    """outer after inner: (outer o inner)(x, y) = outer(inner(x, y))."""
    sub = Substitution(inner.first, inner.second)
    return PolyMap(sub.apply(outer.first), sub.apply(outer.second))


def _cross_sparse(a, b) -> dict:
    """f_x*g_y - f_y*g_x for integer term lists a of f and b of g, term
    pair by term pair: terms n1*x^i1*y^j1 and n2*x^i2*y^j2 add
    (i1*j2 - j1*i2)*n1*n2 at (i1 + i2 - 1, j1 + j2 - 1)."""
    out: dict[tuple[int, int], int] = {}
    get = out.get
    for (i1, j1), n1 in a:
        for (i2, j2), n2 in b:
            w = i1 * j2 - j1 * i2
            if w:
                k = (i1 + i2 - 1, j1 + j2 - 1)
                s = get(k, 0) + w * n1 * n2
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


def _cross_packed(a, b, width: int) -> dict:
    """The same f_x*g_y - f_y*g_x by Kronecker substitution: x^i*y^j ->
    2^(B*(i + j*width)), where width exceeds the x-degree of every term
    of the result.

    A term of f_y (g_y) can reach x-degree width only when g (f) has no
    x, so its product with g_x (f_x) is zero whatever it packs to.
    """
    fx = [((i - 1, j), i * n) for (i, j), n in a if i]
    fy = [((i, j - 1), j * n) for (i, j), n in a if j]
    gx = [((i - 1, j), i * n) for (i, j), n in b if i]
    gy = [((i, j - 1), j * n) for (i, j), n in b if j]

    # With |.| the sum of absolute values, every coefficient of the
    # result is at most |fx|*|gy| + |fy|*|gx| in magnitude, and every
    # packed one at most the |.| of its list: B holds the largest of
    # these, plus a sign bit, in whole bytes.
    nx, ny, mx, my = (sum(abs(n) for _, n in t) for t in (fx, fy, gx, gy))
    top = max(nx * my + ny * mx, nx, ny, mx, my)
    nb = (top.bit_length() + 8) // 8
    bits = 8 * nb

    def pack(terms):
        size = nb * (max((i + j * width for (i, j), _ in terms), default=-1) + 1)
        pos, neg = bytearray(size), bytearray(size)
        for (i, j), n in terms:
            at = nb * (i + j * width)
            if n > 0:
                pos[at : at + nb] = n.to_bytes(nb, "little")
            else:
                neg[at : at + nb] = (-n).to_bytes(nb, "little")
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    packed = pack(fx) * pack(gy) - pack(fy) * pack(gx)
    # Balanced digits lie in [-2^(B-1), 2^(B-1)): adding 2^(B-1) to each
    # of the first ndig digits makes them the plain base-2^B digits.
    ndig = abs(packed).bit_length() // bits + 1
    half = 1 << (bits - 1)
    bias = half * ((1 << (bits * ndig)) - 1) // ((1 << bits) - 1)
    raw = (packed + bias).to_bytes(nb * ndig, "little")
    out: dict[tuple[int, int], int] = {}
    for k in range(ndig):
        d = int.from_bytes(raw[nb * k : nb * (k + 1)], "little") - half
        if d:
            j, i = divmod(k, width)
            out[(i, j)] = d
    return out


def jacobian_det(H: PolyMap) -> BiPoly:
    """Determinant of the Jacobian matrix of H, f_x*g_y - f_y*g_x for
    H = (f, g), on integer numerators (see the module docstring)."""
    f, g = H.first._t, H.second._t
    a, da = _numerators(f)
    b, db = _numerators(g)
    width = max((i for i, _ in f), default=0) + max((i for i, _ in g), default=0)
    rows = max((j for _, j in f), default=0) + max((j for _, j in g), default=0)
    if not width * rows:  # f_x = g_x = 0 or f_y = g_y = 0
        return BiPoly.zero()
    if width * rows + 2 * (len(f) + len(g)) <= len(f) * len(g):
        out = _cross_packed(a, b, width)
    else:
        out = _cross_sparse(a, b)
    return BiPoly._new(_over(out, da * db))


@dataclass(frozen=True)
class KellerReport:
    jacobian: BiPoly
    is_keller: bool

    def to_json_dict(self) -> dict:
        return {"jacobian": self.jacobian.render(), "is_keller": self.is_keller}


def is_keller(H: PolyMap) -> KellerReport:
    """Is the Jacobian determinant of H a nonzero constant?  The one Keller
    gate: every operation that needs the hypothesis asks it here."""
    jac = jacobian_det(H)
    return KellerReport(jacobian=jac, is_keller=jac.is_constant() and not jac.is_zero())


@dataclass(frozen=True)
class Parametrization:
    """A polynomial curve t |-> (first(t), second(t))."""

    first: UniPoly
    second: UniPoly

    def degree(self):
        return max(self.first.degree(), self.second.degree())

    def evaluate(self, t: Coeff) -> tuple[Coeff, Coeff]:
        return self.first(t), self.second(t)

    def render(self, var: str = "t") -> str:
        return "(%s, %s)" % (self.first.render(var), self.second.render(var))

    def to_json_dict(self) -> dict:
        return {"first": self.first.render(), "second": self.second.render()}


def polymap_on_param(H: PolyMap, gamma: Parametrization) -> Parametrization:
    """The curve H o gamma."""
    sub = Substitution(gamma.first, gamma.second)
    return Parametrization(sub.apply(H.first), sub.apply(H.second))


@dataclass(frozen=True)
class Line:
    """The affine line a*x + b*y + c = 0; a and b must not both vanish."""

    a: Coeff
    b: Coeff
    c: Coeff

    def __post_init__(self):
        _norm_fields(self)
        if not self.a and not self.b:
            raise InvalidLine("a and b are both zero: not a line")

    def as_bipoly(self) -> BiPoly:
        return BiPoly({(1, 0): self.a, (0, 1): self.b, (0, 0): self.c})

    def render(self) -> str:
        return self.as_bipoly().render() + " = 0"

    def to_json_dict(self) -> dict:
        return {"a": frac_pair(self.a), "b": frac_pair(self.b), "c": frac_pair(self.c)}


def line_parametrization(line: Line):
    """The canonical affine change L with L({y = 0}) = the line.

    Returns an affine factor L such that t |-> L(t, 0) parametrizes the
    line: for b != 0, L = (x, y - (a*x + c)/b); for b = 0,
    L = (y - c/a, x).
    """
    from .tame import AffineFactor

    a, b, c = line.a, line.b, line.c
    if b:
        return AffineFactor(1, 0, _cdiv(-a, b), 1, 0, _cdiv(-c, b))
    return AffineFactor(0, 1, 1, 0, _cdiv(-c, a), 0)


def restrict_to_line(H: PolyMap, line: Line):
    """Restriction of H to a line.

    Returns (gamma, L) where L is the canonical affine factor carrying
    {y = 0} onto the line and gamma(t) = H(L(t, 0)).
    """
    L = line_parametrization(line)
    return polymap_on_param(H, Parametrization(*L.apply((UniPoly.x(), UniPoly.zero())))), L


# ---------------------------------------------------------------------------
# Resultants.  A bivariate polynomial p is read once as integer numerators
# over D, the lcm of its denominators, and laid out as rows in y, highest
# power first; each row is a polynomial in x, a dense list of ints, lowest
# power first, with no trailing zeros (the zero row is []).  One
# subresultant remainder sequence (Collins) runs on these rows with plain
# int arithmetic: its pseudo-remainders stay in Z[x][y] and every quotient
# by the recurrence scalars is exact in Z[x].  The resultant undoes the
# scaling once at the end, from
#
#     res_y(Dp*p, Dq*q) = Dp^deg_y(q) * Dq^deg_y(p) * res_y(p, q),
#
# dividing through _over, so its coefficients are ints where integral.
# ---------------------------------------------------------------------------


def _rows(p: BiPoly) -> tuple[list[list[int]], int]:
    """(rows, D): p's integer numerators over D as rows in y, highest
    first; no rows for p = 0."""
    terms, d = _numerators(p._t)
    dy = max((j for _, j in p._t), default=-1)
    rows: list[list[int]] = [[] for _ in range(dy + 1)]
    for (i, j), n in terms:
        row = rows[dy - j]
        if len(row) <= i:
            row += [0] * (i + 1 - len(row))
        row[i] = n
    return rows, d


def _from_rows(rows: list[list[int]]) -> BiPoly:
    d = len(rows) - 1
    return BiPoly._new(
        {(i, d - idx): c for idx, row in enumerate(rows) for i, c in enumerate(row) if c}
    )


def _zmul(a: list[int], b: list[int]) -> list[int]:
    """Product in Z[x]; the leading coefficient never cancels."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b, i):
                out[j] += u * v
    return out


def _zpow(a: list[int], e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = _zmul(out, a)
    return out


def _zneg(a: list[int]) -> list[int]:
    return [-u for u in a]


def _zcross(a: list[int], c: list[int], b: list[int], e: list[int]) -> list[int]:
    """a*c - b*e in Z[x], with trailing zeros stripped."""
    out = _zmul(a, c)
    be = _zmul(b, e)
    if len(out) < len(be):
        out += [0] * (len(be) - len(out))
    for k, v in enumerate(be):
        out[k] -= v
    while out and not out[-1]:
        out.pop()
    return out


def _zquo(a: list[int], b: list[int]) -> list[int]:
    """a / b in Z[x] for nonzero b; raises ValueError unless b divides a
    exactly, so a quotient is never truncated."""
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c, m = divmod(r[k + db], lb)
        if m:
            raise ValueError("inexact polynomial division")
        if c:
            q[k] = c
            for i in range(db):
                r[k + i] -= c * b[i]
    if any(r[:db]):
        raise ValueError("inexact polynomial division")
    return q


def _prem(f: list[list[int]], g: list[list[int]]) -> list[list[int]]:
    """Pseudo-remainder of rows: lc(g)^(deg f - deg g + 1) * f modulo g."""
    dg = len(g) - 1
    lc_g = g[0]
    r = f
    n = len(f) - dg
    while len(r) > dg:
        lc_r = r[0]
        n -= 1
        r = [_zcross(r[k], lc_g, g[k] if k <= dg else [], lc_r) for k in range(1, len(r))]
        while r and not r[0]:
            r = r[1:]
    if n:
        scale = _zpow(lc_g, n)
        r = [_zmul(row, scale) for row in r]
    return r


def _subresultants(f: list[list[int]], g: list[list[int]]):
    """Subresultant remainder sequence of rows f and g, deg f >= deg g >= 0,
    both nonzero.

    Returns (h, s): the last nonzero remainder and its scalar
    subresultant, which is the resultant when h has degree 0.
    """
    m = len(g) - 1
    d = len(f) - 1 - m
    h = _prem(f, g)
    if d % 2 == 0:
        h = [_zneg(row) for row in h]
    lc = g[0]
    s = _zpow(lc, d)
    c = _zneg(s)
    while h:
        k = len(h) - 1
        f, g, m, d = g, h, k, m - k
        b = _zneg(_zmul(lc, _zpow(c, d)))
        h = [_zquo(row, b) for row in _prem(f, g)]
        lc = g[0]
        c = _zquo(_zpow(_zneg(lc), d), _zpow(c, d - 1)) if d > 1 else _zneg(lc)
        s = _zneg(c)
    return g, s


def resultant_y(p: BiPoly, q: BiPoly) -> UniPoly:
    """Resultant of p and q with respect to y, a polynomial in x.

    Both arguments must have positive y-degree.  The sign convention is
    that of the Sylvester matrix with the rows of p on top.
    """
    dp, dq = p.degree_y(), q.degree_y()
    if dp < 1 or dq < 1:
        raise DegenerateResultant("resultant_y needs positive y-degree in both arguments")
    (f, Dp), (g, Dq) = _rows(p), _rows(q)
    if dp >= dq:
        h, s = _subresultants(f, g)
    else:
        h, s = _subresultants(g, f)
        if (dp * dq) % 2:
            s = _zneg(s)
    if len(h) > 1:
        return UniPoly.zero()
    return UniPoly._new(_over({i: c for i, c in enumerate(s) if c}, Dp**dq * Dq**dp))


# ---------------------------------------------------------------------------
# Bivariate gcd from the same subresultant sequence, used to extract
# witnesses when a resultant vanishes identically.  The last nonzero
# remainder of any remainder sequence is an associate of the gcd over
# Q(x), so its primitive part times the gcd of the contents is the gcd.
# Contents are taken over Q[x] by gcd_univariate and scaled to primitive
# integer polynomials, which by Gauss's lemma divide the rows in Z[x].
# ---------------------------------------------------------------------------


def _zprimitive(u: UniPoly) -> list[int]:
    """The primitive integer polynomial that is a positive multiple of u."""
    terms, _ = _numerators(u._t)
    row = [0] * (u.degree() + 1)
    for i, n in terms:
        row[i] = n
    g = gcd(*row)
    return [n // g for n in row]


def _primitive(f: list[list[int]]) -> tuple[UniPoly, list[list[int]]]:
    """The monic x-content of nonzero rows f over Q[x], and f divided by it."""
    c = UniPoly.zero()
    for row in f:
        c = gcd_univariate(c, UniPoly._new({i: n for i, n in enumerate(row) if n}))
        if c.is_constant() and not c.is_zero():
            return c, f
    z = _zprimitive(c)
    return c, [_zquo(row, z) for row in f]


def normalize_leading(p: BiPoly) -> BiPoly:
    """Scale so the graded-lex leading coefficient is 1."""
    if p.is_zero():
        return p
    _, c = p.leading_term()
    if c == 1:
        return p
    return p * _cdiv(1, c)


def gcd_bivariate(a: BiPoly, b: BiPoly) -> BiPoly:
    """Greatest common divisor in Q[x, y], graded-lex leading coefficient 1."""
    if a.is_zero():
        return normalize_leading(b)
    if b.is_zero():
        return normalize_leading(a)
    ca, pa = _primitive(_rows(a)[0])
    cb, pb = _primitive(_rows(b)[0])
    cg = _zprimitive(gcd_univariate(ca, cb))
    h, _ = _subresultants(*((pa, pb) if len(pa) >= len(pb) else (pb, pa)))
    _, h = _primitive(h)
    return normalize_leading(_from_rows([_zmul(row, cg) for row in h]))
