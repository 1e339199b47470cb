"""Exact sparse polynomial arithmetic over the rationals.

Univariate polynomials map exponents to coefficients, bivariate
polynomials map exponent pairs (i, j) (for x^i * y^j) to coefficients.
Coefficients are Python ints or fractions.Fraction values; constructors
normalize Fractions with denominator 1 down to int so the common
integer-only paths stay on machine arithmetic.  Zero coefficients are
never stored.  All values are immutable after construction and every
operation returns a fresh object.

The canonical term order is graded lexicographic with x heavier than y:
higher total degree first, ties broken by the exponent of x.  Rendering
walks that order, so the textual form of any polynomial is canonical and
round-trips through the parser.

The degree of the zero polynomial is NEG_INF, a sentinel that compares
below every integer and refuses arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def _cdiv(a: Coeff, b: Coeff) -> Coeff:
    """Exact division of coefficients; never uses float division."""
    return _norm_coeff(Fraction(a) / Fraction(b))


def _fmt_magnitude(c: Coeff) -> str:
    """Render a positive coefficient: 3, or 3/4 for proper fractions."""
    if isinstance(c, Fraction) and c.denominator != 1:
        return "%d/%d" % (c.numerator, c.denominator)
    return str(int(c))


def _join_terms(rendered: list[tuple[bool, str]]) -> str:
    """Assemble (is_negative, body) pieces into a canonical sum string."""
    parts = []
    for idx, (neg, body) in enumerate(rendered):
        if idx == 0:
            parts.append("-" + body if neg else body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)


def _term_body(mag: Coeff, mono: str) -> str:
    if not mono:
        return _fmt_magnitude(mag)
    if mag == 1:
        return mono
    return _fmt_magnitude(mag) + "*" + mono


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


def _horner(sorted_terms, value, one, zero):
    """Evaluate sum(c * value^k) given terms sorted by descending k.

    Works over any ring with +, *, scalar multiplication, and ** for
    non-negative ints: coefficients, univariate or bivariate polynomials.
    """
    acc = zero
    prev = None
    for k, c in sorted_terms:
        if prev is not None:
            gap = prev - k
            acc = acc * (value if gap == 1 else value**gap)
        acc = acc + c * one
        prev = k
    if prev is not None and prev > 0:
        acc = acc * (value if prev == 1 else value**prev)
    return acc


class _SparsePoly:
    """Ring operations shared by UniPoly and BiPoly, on a dict from exponent
    key to nonzero coefficient.  A subclass sets _CONST, the key of the
    constant term, and _key, which validates one key."""

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
                data[k] = s
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
        return type(self)({k: v * c for k, v in self._t.items()})

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


class UniPoly(_SparsePoly):
    """Sparse univariate polynomial with exact rational coefficients."""

    __slots__ = ()
    _CONST = 0

    @staticmethod
    def _key(k):
        return k if isinstance(k, int) and k >= 0 else None

    @classmethod
    def x(cls) -> "UniPoly":
        return cls({1: 1})

    def degree(self):
        return max(self._t) if self._t else NEG_INF

    def lc(self) -> Coeff:
        """Leading coefficient; 0 for the zero polynomial."""
        return self._t[max(self._t)] if self._t else 0

    def coeff(self, k: int) -> Coeff:
        return self._t.get(k, 0)

    def terms(self) -> list[tuple[int, Coeff]]:
        """Terms sorted by descending exponent."""
        return sorted(self._t.items(), reverse=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        out: dict[int, Coeff] = {}
        for k1, v1 in self._t.items():
            for k2, v2 in other._t.items():
                k = k1 + k2
                s = out.get(k, 0) + v1 * v2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return UniPoly._new(out)

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
        return UniPoly._new(q), UniPoly._new(r)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[0]

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
        return _horner(self.terms(), other, UniPoly.one(), UniPoly.zero())

    def __call__(self, value: Coeff) -> Coeff:
        return _norm_coeff(
            Fraction(_horner(self.terms(), Fraction(value), 1, 0))
        )

    def to_bipoly(self, axis: str = "x") -> "BiPoly":
        if axis == "x":
            return BiPoly({(k, 0): v for k, v in self._t.items()})
        if axis == "y":
            return BiPoly({(0, k): v for k, v in self._t.items()})
        raise ValueError("axis must be 'x' or 'y'")

    def render(self, var: str = "x") -> str:
        if not self._t:
            return "0"
        rendered = []
        for k, c in self.terms():
            neg = c < 0
            mag = -c if neg else c
            mono = "" if k == 0 else (var if k == 1 else "%s^%d" % (var, k))
            rendered.append((neg, _term_body(mag, mono)))
        return _join_terms(rendered)


def gcd_univariate(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic greatest common divisor over the rationals; gcd(0, 0) = 0."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


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

    @classmethod
    def x(cls) -> "BiPoly":
        return cls({(1, 0): 1})

    @classmethod
    def y(cls) -> "BiPoly":
        return cls({(0, 1): 1})

    def total_degree(self):
        return max(i + j for i, j in self._t) if self._t else NEG_INF

    def degree_x(self):
        return max(i for i, _ in self._t) if self._t else NEG_INF

    def degree_y(self):
        return max(j for _, j in self._t) if self._t else NEG_INF

    def coeff(self, i: int, j: int) -> Coeff:
        return self._t.get((i, j), 0)

    def support(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._t)

    def terms(self) -> list[tuple[tuple[int, int], Coeff]]:
        """Terms in canonical order: graded lexicographic, x heavier, descending."""
        return sorted(
            self._t.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]), reverse=True
        )

    def leading_term(self) -> tuple[tuple[int, int], Coeff]:
        if not self._t:
            raise ValueError("the zero polynomial has no leading term")
        key = max(self._t, key=lambda ij: (ij[0] + ij[1], ij[0]))
        return key, self._t[key]

    def leading_form(self) -> "BiPoly":
        """Homogeneous part of top total degree."""
        if not self._t:
            return self
        d = self.total_degree()
        return BiPoly({k: v for k, v in self._t.items() if k[0] + k[1] == d})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        out: dict[tuple[int, int], Coeff] = {}
        for (i1, j1), v1 in self._t.items():
            for (i2, j2), v2 in other._t.items():
                k = (i1 + i2, j1 + j2)
                s = out.get(k, 0) + v1 * v2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return BiPoly._new(out)

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
        return _norm_coeff(
            Fraction(Substitution(Fraction(a), Fraction(b)).apply(self))
        )

    def render(self) -> str:
        if not self._t:
            return "0"
        rendered = []
        for (i, j), c in self.terms():
            neg = c < 0
            mag = -c if neg else c
            pieces = []
            if i:
                pieces.append("x" if i == 1 else "x^%d" % i)
            if j:
                pieces.append("y" if j == 1 else "y^%d" % j)
            rendered.append((neg, _term_body(mag, "*".join(pieces))))
        return _join_terms(rendered)


class Substitution:
    """Substitution of a fixed pair (u, v) for (x, y), with power caching.

    Powers of u and v are cached across apply() calls, so substituting the
    same pair into several polynomials (both components of a map, say)
    shares the expensive multiplications.  u and v share one ring
    (Fraction, UniPoly or BiPoly), whose one and zero are taken from u.
    """

    def __init__(self, u, v):
        self._u = u
        self._v = v
        self._one = u**0
        # Not u * 0: traces would count it as a polynomial product.
        self._zero = self._one - self._one
        self._upow = [self._one]
        self._vpow = [self._one]

    def _power(self, cache, base, k):
        while len(cache) <= k:
            cache.append(cache[-1] * base)
        return cache[k]

    def apply(self, p: BiPoly):
        rows: dict[int, list[tuple[int, Coeff]]] = {}
        for (i, j), c in p._t.items():
            rows.setdefault(j, []).append((i, c))
        acc = self._zero
        prev_j = None
        for j in sorted(rows, reverse=True):
            if prev_j is not None:
                acc = acc * self._power(self._vpow, self._v, prev_j - j)
            row = self._zero
            for i, c in rows[j]:
                row = row + c * self._power(self._upow, self._u, i)
            acc = acc + row
            prev_j = j
        if prev_j is not None and prev_j > 0:
            acc = acc * self._power(self._vpow, self._v, prev_j)
        return acc


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


def jacobian_det(H: PolyMap) -> BiPoly:
    """Determinant of the Jacobian matrix of H."""
    return H.first.diff("x") * H.second.diff("y") - H.first.diff("y") * H.second.diff("x")


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
# Resultants.  Bivariate polynomials are handled as dense lists of UniPoly
# coefficients in y, leading coefficient first; the resultant in y follows
# the subresultant polynomial remainder sequence, which keeps intermediate
# growth polynomial instead of exponential.
# ---------------------------------------------------------------------------


def _y_coeff_list(p: BiPoly) -> list[UniPoly]:
    """Dense coefficient list of p in y, highest power first."""
    d = p.degree_y()
    if d is NEG_INF:
        return []
    rows: list[dict[int, Coeff]] = [{} for _ in range(d + 1)]
    for (i, j), c in p._t.items():
        rows[d - j][i] = c
    return [UniPoly._new(row) for row in rows]


def _lstrip(f: list[UniPoly]) -> list[UniPoly]:
    k = 0
    while k < len(f) and f[k].is_zero():
        k += 1
    return f[k:]


def _ldeg(f: list[UniPoly]) -> int:
    return len(f) - 1


def _lmul_ground(f: list[UniPoly], c: UniPoly) -> list[UniPoly]:
    return [a * c for a in f]


def _lquo_ground(f: list[UniPoly], c: UniPoly) -> list[UniPoly]:
    return [a.exact_div(c) for a in f]


def _lsub(f: list[UniPoly], g: list[UniPoly]) -> list[UniPoly]:
    if len(f) < len(g):
        f = [UniPoly.zero()] * (len(g) - len(f)) + f
    elif len(g) < len(f):
        g = [UniPoly.zero()] * (len(f) - len(g)) + g
    return _lstrip([a - b for a, b in zip(f, g)])


def _lprem(f: list[UniPoly], g: list[UniPoly]) -> list[UniPoly]:
    """Pseudo-remainder: lc(g)^(deg f - deg g + 1) * f modulo g."""
    df, dg = _ldeg(f), _ldeg(g)
    lc_g = g[0]
    r = f
    n = df - dg + 1
    while r and _ldeg(r) >= dg:
        lc_r = r[0]
        j = _ldeg(r) - dg
        n -= 1
        r = _lsub(_lmul_ground(r, lc_g), _lmul_ground(g, lc_r) + [UniPoly.zero()] * j)
    if n:
        r = _lmul_ground(r, lc_g**n)
    return r


def _inner_subresultants(f: list[UniPoly], g: list[UniPoly]):
    """Subresultant PRS of f and g (deg f >= deg g >= 0, both nonzero).

    Returns (R, S): the remainder sequence and the scalar subresultants;
    S[-1] is the resultant when the sequence bottoms out at degree 0.
    """
    n, m = _ldeg(f), _ldeg(g)
    one = UniPoly.one()
    R = [f, g]
    d = n - m
    b = one if (d + 1) % 2 == 0 else -one
    h = _lprem(f, g)
    h = _lmul_ground(h, b)
    lc = g[0]
    c = lc**d
    S = [one, c]
    c = -c
    while h:
        k = _ldeg(h)
        R.append(h)
        f, g, m, d = g, h, k, m - k
        b = -lc * c**d
        h = _lprem(f, g)
        h = _lquo_ground(h, b)
        lc = g[0]
        if d > 1:
            c = ((-lc) ** d).exact_div(c ** (d - 1))
        else:
            c = -lc
        S.append(-c)
    return R, S


def resultant_y(p: BiPoly, q: BiPoly) -> UniPoly:
    """Resultant of p and q with respect to y, a polynomial in x.

    Both arguments must have positive y-degree.  The sign convention is
    that of the Sylvester matrix with the rows of p on top.
    """
    dp, dq = p.degree_y(), q.degree_y()
    if dp < 1 or dq < 1:
        raise DegenerateResultant("resultant_y needs positive y-degree in both arguments")
    fl = _y_coeff_list(p)
    gl = _y_coeff_list(q)
    if dp >= dq:
        R, S = _inner_subresultants(fl, gl)
        sign = 1
    else:
        R, S = _inner_subresultants(gl, fl)
        sign = -1 if (dp * dq) % 2 else 1
    if _ldeg(R[-1]) > 0:
        return UniPoly.zero()
    res = S[-1]
    return -res if sign < 0 else res


# ---------------------------------------------------------------------------
# Bivariate gcd from the same subresultant sequence, used to extract
# witnesses when a resultant vanishes identically.  The last nonzero
# remainder of any remainder sequence is an associate of the gcd over
# Q(x), so its primitive part times the gcd of the contents is the gcd.
# ---------------------------------------------------------------------------


def _content(f: list[UniPoly]) -> UniPoly:
    g = UniPoly.zero()
    for u in f:
        g = gcd_univariate(g, u)
        if g.is_constant() and not g.is_zero():
            break
    return g


def _primitive(f: list[UniPoly]) -> tuple[UniPoly, list[UniPoly]]:
    if not f:
        return UniPoly.zero(), f
    c = _content(f)
    if c == UniPoly.one():
        return c, f
    return c, _lquo_ground(f, c)


def _from_y_coeff_list(f: list[UniPoly]) -> BiPoly:
    d = _ldeg(f)
    terms: dict[tuple[int, int], Coeff] = {}
    for idx, u in enumerate(f):
        j = d - idx
        for i, c in u._t.items():
            terms[(i, j)] = c
    return BiPoly._new(terms)


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
    fa, fb = _y_coeff_list(a), _y_coeff_list(b)
    ca, pa = _primitive(fa)
    cb, pb = _primitive(fb)
    cg = gcd_univariate(ca, cb)
    f, g = (pa, pb) if _ldeg(pa) >= _ldeg(pb) else (pb, pa)
    R, _ = _inner_subresultants(f, g)
    _, f = _primitive(R[-1])
    return normalize_leading(_from_y_coeff_list(_lmul_ground(f, cg)))
