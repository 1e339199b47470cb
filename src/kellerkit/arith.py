"""Exact sparse polynomial arithmetic over the rationals.

Univariate polynomials map exponents to coefficients, bivariate
polynomials map exponent pairs (i, j) (for x^i * y^j) to coefficients.
Every polynomial is stored in one integer form: a dict _t from exponent
key to nonzero int numerator, over one positive int denominator _d, so
the coefficient at key k is _t[k] / _d.  The form is canonical: _d and
the numerators have no common factor, and the zero polynomial has _d = 1,
so equal polynomials store equal (_d, _t).  The public view (coeff,
terms, leading_term, lc, constant_value, render) gives each coefficient
as an int where _d divides its numerator and a reduced Fraction
otherwise.  All values are immutable after construction and every
operation returns a fresh object.

Every kernel reads _t and _d directly, works on int numerators alone and
normalizes once, at the end, by one gcd of the new denominator and the
new numerators (_SparsePoly._reduce; no gcd at all over 1, the common
all-integer case).  A sum works over the lcm of the two denominators, a
product over their product.  BiPoly products run through one integer
product kernel, _convolve, packed or on term pairs by the size rule
below.  Substitution of (u, v) into p, which also composes maps and
evaluates a BiPoly at a point, sums p's rows over cached powers of u's
numerators and runs Horner's rule in v's numerators, on term pairs
through _convolve or packed (see Substitution).  The subresultant
sequence behind resultant_y, gcd_bivariate and gcd_univariate runs on
Python ints, each row in y packed at x = 2^B (see subresultant.py).  An
affine factor's image (a*p + b*q + e)/D reads its integer form, int rows
(a, b, e) over D computed once, and sums p's and q's numerators over
D*lcm(d_p, d_q) (_affine_image).
An elementary factor's image p + s(q) is one kernel, _shift_image: the
powers of q come from BiPoly.__mul__, so they pack by the size rule, and
p's numerators and every s_k*d_q^(e-k)*Q^k (s_k the shift's numerators,
Q the numerators of q over d_q, e the shift's degree) are summed in one
accumulator and reduced once.  A UniPoly or a scalar is read as a
polynomial in x alone, so every ring takes the same path: a UniPoly
composition is a Substitution of a pair of UniPoly, and a UniPoly
product is the BiPoly product on the x axis.

jacobian_det, the Keller gate, is one integer kernel with no
intermediate BiPoly: it computes f_x*g_y - f_y*g_x on the numerators of
f and g into one int dict.  With W and R the sums of the x-degrees and
of the y-degrees of f and g, every term of the result lies in a W by R
grid.  If W*R is 0 (f_x = g_x = 0 or f_y = g_y = 0) the result is 0,
and no grid is built.  Otherwise the one size rule of every packed
kernel, kronecker.packs(W*R, m, n) for m and n terms in f and g, picks
one of two strategies:
- packed: the sum of two products, f_x*g_y + g_x*(-f_y), through the
  packed product kernel, kronecker._mul_packed, with one unpack.  Its
  cells hold |f_x|*|g_y| + |f_y|*|g_x| (|.| the sum of absolute values,
  a bound on every coefficient of the result), and only the digits up
  to the top one are read, so a Keller map's constant Jacobian unpacks
  in O(1);
- otherwise, one pass over the term pairs with the cross weight,
  adding (i1*j2 - j1*i2)*a*b at (i1 + i2 - 1, j1 + j2 - 1).  It bounds
  the work on sparse input of high degree, whose grid would be too
  large to pack, and wins on small maps.
_convolve picks its strategy by the same rule, with W and R one more
than the sums of the operands' x-degrees and y-degrees: the same packed
kernel on its one pair, the operand with fewer rows in y going by rows,
or one pass over the term pairs.  The rule with a grid of one cell,
1 + 2*(m + n) <= m*n, is tested first, before any per-term work, so the
small products of line proofs leave at once.  The powers of elementary
factors at high degree are dense, and pack.  The Jacobian, products and
Substitution share one codec, kronecker.py.

jacobian_det keeps the determinants of the last 4 (f, g) pairs it
computed, keyed by the identity of f and g: one tuple of (f, g, det)
triples, newest first, replaced as a whole on each miss, so a lookup is
a few identity tests and hashes nothing.  Callers ask about one map more
than once: decide_automorphism asks the gate on H, invert_low_degree on
the pair the peel leaves (H's own when it peels nothing), then
similarity_check on H's components again; in prove_line,
fixed_axis_invert and invert_low_degree both ask on G.  No path puts
more than one other pair between two questions on the same pair, so 2
entries would do.  Identity is a sound key: the tuple holds strong
references, so no id in it is reused while its entry lives, and a
polynomial never changes after construction.  Equal but distinct objects
are computed afresh.  Threads racing on a miss can only drop an entry.

The canonical term order is graded lexicographic with x heavier than y:
higher total degree first, ties broken by the exponent of x.  One render
loop in _SparsePoly walks that order (sign, magnitude, monomial, joins)
on the numerators, each magnitude written as str() writes the int or
the reduced Fraction, so the textual form of any polynomial is canonical
and round-trips through the parser; each class only names its
monomials.

The degree of the zero polynomial is NEG_INF, a sentinel that compares
below every integer and refuses arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Union

from .errors import DegenerateResultant, InvalidLine
from .kronecker import _mul_packed, cell_bytes, digits, pack, packs, unpack
from .subresultant import _pack_rows, _subresultants

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


def _rat(n: int, d: int) -> Coeff:
    """n / d for ints n and d != 0: an int where d divides n, a reduced
    Fraction otherwise."""
    if d == 1:
        return n
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _var_power(var: str, e: int) -> str:
    """var^e as rendered: "" for e == 0, the bare variable for e == 1."""
    return "" if e == 0 else var if e == 1 else "%s^%d" % (var, e)


def frac_pair(c: Coeff) -> list[int]:
    """JSON encoding of a rational: [numerator, denominator]."""
    return [c.numerator, c.denominator]


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


class _SparsePoly:
    """Ring operations shared by UniPoly and BiPoly, on the integer form of
    the module docstring: nonzero int numerators _t by exponent key, over
    the denominator _d.  A subclass sets _CONST, the key of the constant
    term; _key, which validates one key; _order, its rank in the canonical
    term order; and total_degree."""

    __slots__ = ("_t", "_d")

    def __init__(self, terms: dict):
        data = {}
        for key, v in terms.items():
            k = self._key(key)
            if k is None:
                raise ValueError("exponents must be non-negative ints, got %r" % (key,))
            v = _norm_coeff(v)
            if v:
                data[k] = v
        # Over d, the lcm of reduced denominators, the form is canonical:
        # each prime power of d divides some denominator, whose scaled
        # numerator is then prime to it.
        d = lcm(*[v.denominator for v in data.values()])
        if d != 1:
            data = {k: v.numerator * (d // v.denominator) for k, v in data.items()}
        self._t, self._d = data, d

    @classmethod
    def _new(cls, data: dict, d: int = 1):
        """Wrap int numerators over d already in canonical form, without
        copying."""
        out = cls.__new__(cls)
        out._t, out._d = data, d
        return out

    @classmethod
    def _reduce(cls, data: dict, d: int):
        """Wrap nonzero int numerators over d > 0, divided by their gcd
        with d: the one normalization every kernel ends with."""
        if d != 1:
            g = gcd(d, *data.values())
            if g != 1:
                d //= g
                data = {k: v // g for k, v in data.items()}
        return cls._new(data, d)

    @classmethod
    def zero(cls):
        return cls._new({})

    @classmethod
    def one(cls):
        return cls._new({cls._CONST: 1})

    @classmethod
    def constant(cls, c: Coeff):
        c = _norm_coeff(c)
        return cls._new({cls._CONST: c.numerator} if c else {}, c.denominator)

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def is_constant(self) -> bool:
        return self._t.keys() <= {self._CONST}

    def constant_value(self) -> Coeff:
        if not self.is_constant():
            raise ValueError("polynomial is not constant: %s" % self.render())
        return _rat(self._t.get(self._CONST, 0), self._d)

    def terms(self) -> list:
        """Terms in canonical order, highest first."""
        t, d = self._t, self._d
        return [(k, _rat(t[k], d)) for k in sorted(t, key=self._order, reverse=True)]

    def leading_term(self) -> tuple:
        if not self._t:
            raise ValueError("the zero polynomial has no leading term")
        key = max(self._t, key=self._order)
        return key, _rat(self._t[key], self._d)

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self._d == other._d and self._t == other._t
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms()))

    def __neg__(self):
        return self._new({k: -v for k, v in self._t.items()}, self._d)

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return self.constant(other)
        return None

    def _sum(self, other, sign: int):
        """self + sign*other, for sign 1 or -1, over the lcm of the two
        denominators."""
        d = lcm(self._d, other._d)
        a, b = d // self._d, sign * (d // other._d)
        data = dict(self._t) if a == 1 else {k: a * v for k, v in self._t.items()}
        _axpy(data, b, other._t.items())
        return self._reduce(data, d)

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._sum(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._sum(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o._sum(self, -1)

    def _scale(self, c: Coeff):
        """Product with a scalar."""
        if not c:
            return self.zero()
        n = c.numerator
        return self._reduce({k: v * n for k, v in self._t.items()}, self._d * c.denominator)

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative int")
        return _power({0: self.one(), 1: self}, e, type(self).__mul__)

    def monic(self):
        """self over its leading coefficient in the canonical term order:
        the numerators over the leading numerator, whatever _d."""
        if not self:
            return self
        lc = self._t[max(self._t, key=self._order)]
        return self._reduce(self._t if lc > 0 else {k: -v for k, v in self._t.items()}, abs(lc))

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.render())

    def _render(self, monomial) -> str:
        """The terms in canonical order, joined by " + " and " - ", each one
        a magnitude, a monomial, or magnitude*monomial; monomial(key) names
        the monomial, "" for the constant term."""
        t, d = self._t, self._d
        text = ""
        for key in sorted(t, key=self._order, reverse=True):
            n = t[key]
            if d == 1:
                mag = str(abs(n))
            else:  # as str() of the reduced Fraction n/d
                g = gcd(n, d)
                mag = str(abs(n) // g) if g == d else "%d/%d" % (abs(n) // g, d // g)
            mono = monomial(key)
            body = mag if not mono else mono if mag == "1" else mag + "*" + mono
            text += (" - " if n < 0 else " + ") + body
        if not text:
            return "0"
        return "-" + text[3:] if text[1] == "-" else text[3:]


class UniPoly(_SparsePoly):
    """Sparse univariate polynomial with exact rational coefficients."""

    __slots__ = ()
    _CONST = 0

    @staticmethod
    def _key(k):
        return k if isinstance(k, int) and k >= 0 else None

    _order = int  # an exponent is its own rank

    @classmethod
    def x(cls) -> "UniPoly":
        return cls._new({1: 1})

    def degree(self):
        return max(self._t) if self._t else NEG_INF

    total_degree = degree

    def lc(self) -> Coeff:
        """Leading coefficient; 0 for the zero polynomial."""
        return self.leading_term()[1] if self._t else 0

    def coeff(self, k: int) -> Coeff:
        return _rat(self._t.get(k, 0), self._d)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            if isinstance(other, (int, Fraction)):
                return self._scale(other)
            return NotImplemented
        return (self.to_bipoly() * other.to_bipoly()).on_x_axis()

    __rmul__ = __mul__

    def __divmod__(self, other: "UniPoly"):
        """(q, r) with self = q*other + r and deg r < deg other, by
        pseudo-division of the numerators A by B: with s = |lc(B)|^(e + 1),
        e the difference of the degrees, each step's quotient term is an
        exact int and s*A = Q*B + R, so q = Q*d_B / (s*d_A) and
        r = R / (s*d_A)."""
        if not isinstance(other, UniPoly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        b = other._t
        n = max(b)
        delta = self.degree() - n if self else -1
        if delta < 0:
            return UniPoly.zero(), self
        lc = b[n]
        s = abs(lc) ** (delta + 1)
        r = {k: v * s for k, v in self._t.items()}
        q = {}
        for e in range(delta, -1, -1):
            c = r.get(e + n)
            if c is not None:
                q[e] = c // lc
                _axpy(r, -q[e], [(k + e, v) for k, v in b.items()])
        d = s * self._d
        return UniPoly._reduce({k: v * other._d for k, v in q.items()}, d), UniPoly._reduce(r, d)

    def derivative(self) -> "UniPoly":
        return UniPoly._reduce({k - 1: k * v for k, v in self._t.items() if k > 0}, self._d)

    def __call__(self, value: Coeff) -> Coeff:
        return self.to_bipoly().evaluate(value, 0)

    def to_bipoly(self) -> "BiPoly":
        return BiPoly._new({(k, 0): v for k, v in self._t.items()}, self._d)

    def render(self, var: str = "x") -> str:
        return self._render(lambda k: _var_power(var, k))


def gcd_univariate(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic greatest common divisor over the rationals; gcd(0, 0) = 0.

    p's and q's numerators, read as polynomials in y, are rows of
    constants, ints already, for the subresultant sequence of
    resultant_y; its last nonzero remainder is an associate of the gcd."""
    if not (p and q):
        return (p or q).monic()
    f, g = ([w._t.get(k, 0) for k in range(w.degree(), -1, -1)] for w in (p, q))
    h, _ = _subresultants(f, g, (0, 0))
    return UniPoly._new({len(h) - 1 - i: c for i, c in enumerate(h) if c}).monic()


def _convolve(a, b) -> dict:
    """The integer product kernel: the product of two sized bivariate term
    lists ((i, j), n) with int n, as a dict free of zero coefficients.
    Packed (_mul_packed) when the size rule holds for the product's W by R
    grid, after the test with a grid of one cell; else term pairs."""
    m, n = len(a), len(b)
    if packs(1, m, n):
        (ax, ay), (bx, by) = (_degrees([k for k, _ in w]) for w in (a, b))
        if packs((ax + bx + 1) * (ay + by + 1), m, n):  # the operand with fewer rows goes by rows
            return _mul_packed(((a, b) if by <= ay else (b, a),), ax + bx + 1)
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

    _order = staticmethod(lambda key: (key[0] + key[1], key[0]))

    @classmethod
    def x(cls) -> "BiPoly":
        return cls._new({(1, 0): 1})

    @classmethod
    def y(cls) -> "BiPoly":
        return cls._new({(0, 1): 1})

    def total_degree(self):
        return max([i + j for i, j in self._t]) if self._t else NEG_INF

    def degree_x(self):
        return max(i for i, _ in self._t) if self._t else NEG_INF

    def degree_y(self):
        return max(j for _, j in self._t) if self._t else NEG_INF

    def coeff(self, i: int, j: int) -> Coeff:
        return _rat(self._t.get((i, j), 0), self._d)

    def support(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._t)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return BiPoly._reduce(_convolve(self._t.items(), other._t.items()), self._d * other._d)

    __rmul__ = __mul__

    def diff(self, var: str) -> "BiPoly":
        t, d = self._t, self._d
        if var == "x":
            return BiPoly._reduce({(i - 1, j): i * v for (i, j), v in t.items() if i > 0}, d)
        if var == "y":
            return BiPoly._reduce({(i, j - 1): j * v for (i, j), v in t.items() if j > 0}, d)
        raise ValueError("var must be 'x' or 'y'")

    def on_x_axis(self) -> UniPoly:
        """Restrict to y = 0, as a univariate polynomial in x."""
        return UniPoly._reduce({i: v for (i, j), v in self._t.items() if j == 0}, self._d)

    def evaluate(self, a: Coeff, b: Coeff) -> Coeff:
        return Substitution(_norm_coeff(a), _norm_coeff(b)).apply(self)

    def render(self) -> str:
        return self._render(
            lambda ij: "*".join(m for m in (_var_power("x", ij[0]), _var_power("y", ij[1])) if m)
        )


def _bivariate(w) -> tuple[dict, int]:
    """The numerators and denominator of a BiPoly; of a UniPoly or a
    scalar, as a polynomial in x alone, under keys (k, 0)."""
    if isinstance(w, UniPoly):
        w = w.to_bipoly()
    if isinstance(w, BiPoly):
        return w._t, w._d
    c = _norm_coeff(w)
    return {(0, 0): c.numerator} if c else {}, c.denominator


def _ring(u, v) -> type:
    """The ring u and v share: BiPoly, UniPoly or a scalar type."""
    return type(u) if isinstance(u, _SparsePoly) else type(v)


def _in_ring(ring: type, terms: dict, d: int):
    """Nonzero int numerators over d > 0, keyed as _bivariate reads them,
    back in ring: a BiPoly, a UniPoly in x, or the constant term as a
    scalar."""
    if ring is BiPoly:
        return BiPoly._reduce(terms, d)
    if ring is UniPoly:
        return UniPoly._reduce({i: c for (i, _), c in terms.items()}, d)
    return _rat(terms.get((0, 0), 0), d)


def _affine_image(pair, rows, D: int) -> tuple:
    """The image of the pair (P, Q) under an affine factor's integer form:
    (a*P + b*Q + e)/D for each int row (a, b, e), in the ring P and Q
    share (BiPoly, UniPoly or scalars).  With P and Q numerators over dP
    and dQ, each component is summed on them over D*lcm(dP, dQ), with no
    per-coefficient denominator, and reduced once."""
    ring = _ring(*pair)
    (p, dp), (q, dq) = (_bivariate(w) for w in pair)
    L = lcm(dp, dq)
    sp, sq = L // dp, L // dq
    out = []
    for a, b, e in rows:
        acc: dict[tuple[int, int], int] = {}
        for c, terms in ((a * sp, p.items()), (b * sq, q.items()), (e * L, (((0, 0), 1),))):
            if c:
                _axpy(acc, c, terms)
        out.append(_in_ring(ring, acc, D * L))
    return tuple(out)


def _shift_image(p, shift: UniPoly, q):
    """p + shift(q), for p and q of one ring (BiPoly, UniPoly or scalars),
    in that ring: the shift kernel of elementary factors.  Each power of
    q, read as a BiPoly, comes from BiPoly.__mul__ through _power, so it
    packs by the size rule; with shift = S/ds and q^k = Q_k/d_k, the
    terms S_k*Q_k and p's numerators are summed in one accumulator over
    the lcm of p's denominator and every ds*d_k, and reduced once."""
    (P, dp), (Q, dq) = _bivariate(p), _bivariate(q)
    powers = {0: BiPoly.one(), 1: BiPoly._new(Q, dq)}
    ks = sorted(shift._t)  # rising, so each power costs one product
    for k in ks:
        _power(powers, k, BiPoly.__mul__)
    ds = shift._d
    den = lcm(dp, *[ds * powers[k]._d for k in ks])
    acc = {k: v * (den // dp) for k, v in P.items()}
    for k in ks:
        _axpy(acc, shift._t[k] * (den // (ds * powers[k]._d)), powers[k]._t.items())
    return _in_ring(_ring(p, q), acc, den)


def _power(powers: dict, e: int, mul):
    """powers[e], from a cache of powers of powers[1] holding powers[0] = 1:
    one product mul(a, b) from powers[e - 1] when cached, so exponents in
    rising order cost one each; else by squaring, caching O(log e) powers."""
    if e not in powers:
        if e - 1 in powers:
            powers[e] = mul(powers[e - 1], powers[1])
        else:
            half = _power(powers, e // 2, mul)
            powers[e] = mul(half, half) if e % 2 == 0 else mul(mul(half, half), powers[1])
    return powers[e]


def _dict_mul(a: dict, b: dict) -> dict:
    return _convolve(a.items(), b.items())


def _degrees(w: dict) -> tuple[int, int]:
    """The x-degree and the y-degree of the keys of w, a dict of terms or
    a list of keys; 0 for w empty."""
    return max((i for i, _ in w), default=0), max((j for _, j in w), default=0)


class Substitution:
    """Substitution of a fixed pair (u, v) for (x, y), on integer numerators.

    u and v are numerators U and V over du and dv.  For p with numerators
    n_ij over dp, x-degree dx and y-degree dy, apply() sums

        row_j * V^j,  row_j = sum_i c_ij * U^i,  c_ij = n_ij * du^(dx-i) * dv^(dy-j),

    by Horner's rule in V, over dp * du^dx * dv^dy.  The powers of U and V
    are cached across apply() calls, so substituting the same pair into
    several polynomials (both components of a map, say) shares the
    multiplications.  An exact count of work items picks one of two
    strategies for the sum by kronecker.packs, as in jacobian_det.  With
    m terms in p, n in U and V together, and a W by R grid that holds
    every term of the result:

    - W*R + 2*(m + n) <= m*n, for p of total degree 2 or more: packed
      (kronecker.py).  U and V are packed into ints once, and their
      powers are cached packed, so every product is a CPython bigint
      product; the sum's int unpacks up to its top digit only, so a
      composition that cancels to (x, y) reads few digits.  W and R
      exceed every i*deg_x(U) + j*deg_x(V) and i*deg_y(U) + j*deg_y(V)
      over p's keys (i, j); W also exceeds deg_x of U and V, so each
      packs.  The digits are whole bytes holding, plus a sign bit, the
      bound sum |c_ij|*|U|^i*|V|^j (|.| the sum of absolute values) on
      every coefficient of the result, and |U| and |V|.  A later
      call reuses the packed powers when their cells are large enough,
      and repacks them at the larger of each size otherwise.
    - otherwise: term pairs.  Each row is added into one accumulator in
      place, and each step of Horner's rule is the product kernel
      _convolve, itself packed where the size rule says.  It bounds the
      work on sparse input of high degree, whose grid would be too large
      to pack, and wins on small input, where packing costs more than a
      few pairs.  The rule with a grid of one cell, 1 + 2*(m + n) <= m*n,
      is tested first, before any per-term work.

    u and v share one ring, BiPoly, UniPoly or the rationals, and apply()
    returns an element of it; a UniPoly or a scalar is read as a
    polynomial in x alone, so every ring takes the same path.
    """

    def __init__(self, u, v):
        self._ring = _ring(u, v)
        (u, self._du), (v, self._dv) = _bivariate(u), _bivariate(v)
        self._u, self._v = u, v
        self._upow = {0: {(0, 0): 1}, 1: u}
        self._vpow = {0: {(0, 0): 1}, 1: v}
        self._uv_degrees = None  # of U and of V, once the size rule needs them
        self._cells = (0, 0)  # nb and W of the packed powers _pu and _pv

    def apply(self, p: BiPoly):
        """p(u, v), in the ring of u and v."""
        rows: dict[int, list] = {}
        for (i, j), n in p._t.items():
            rows.setdefault(j, []).append((i, n))
        xs = sorted({i for i, _ in p._t})  # the powers of U that p uses
        ys = sorted(rows, reverse=True)
        dx, dy = (xs[-1], ys[0]) if ys else (0, 0)
        width = self._packs(p)
        if width:
            acc = self._packed(rows, xs, ys, dx, dy, width)
        else:
            acc = self._pairs(rows, xs, ys, dx, dy)
        return _in_ring(self._ring, acc, p._d * self._du**dx * self._dv**dy)

    def _packs(self, p: BiPoly):
        """W when the size rule packs p, else None."""
        t = p._t
        m, n = len(t), len(self._u) + len(self._v)
        if not packs(1, m, n) or max(map(sum, t)) < 2:  # a grid has 1 cell or more
            return None
        if not self._uv_degrees:
            self._uv_degrees = _degrees(self._u) + _degrees(self._v)
        ux, uy, vx, vy = self._uv_degrees
        w = 1 + max(ux, vx, *[i * ux + j * vx for i, j in t])
        r = 1 + max(i * uy + j * vy for i, j in t)
        return w if packs(w * r, m, n) else None

    def _pairs(self, rows, xs, ys, dx, dy) -> dict:
        for i in xs:
            _power(self._upow, i, _dict_mul)
        du, dv = self._du, self._dv
        acc: dict[tuple[int, int], int] = {}
        for j, below in zip(ys, ys[1:] + [0]):
            scale = dv ** (dy - j)
            for i, n in rows[j]:
                _axpy(acc, n * du ** (dx - i) * scale, self._upow[i].items())
            if j > below and acc:
                acc = _convolve(acc.items(), _power(self._vpow, j - below, _dict_mul).items())
        return acc

    def _packed(self, rows, xs, ys, dx, dy, width) -> dict:
        du, dv = self._du, self._dv
        nu, nv = (sum(map(abs, w.values())) for w in (self._u, self._v))
        bound = sum(abs(n) * (du ** (dx - i) * nu**i) * (dv ** (dy - j) * nv**j)
                    for j in ys for i, n in rows[j])
        cells = (max(cell_bytes(max(bound, nu, nv)), self._cells[0]), max(width, self._cells[1]))
        if cells != self._cells:
            self._cells = cells
            self._pu, self._pv = ({0: 1, 1: pack(w.items(), *cells)} for w in (self._u, self._v))
        pu = self._pu
        for i in xs:
            _power(pu, i, int.__mul__)
        acc = 0
        for j, below in zip(ys, ys[1:] + [0]):
            scale = dv ** (dy - j)
            for i, n in rows[j]:
                acc += n * du ** (dx - i) * scale * pu[i]
            if j > below:
                acc *= _power(self._pv, j - below, int.__mul__)
        return unpack(acc, *cells)


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


# (f, g, det) for the last pairs jacobian_det computed, newest first.
_JACOBIANS: tuple = ()
_JACOBIANS_KEPT = 4


def jacobian_det(H: PolyMap) -> BiPoly:
    """Determinant of the Jacobian matrix of H, f_x*g_y - f_y*g_x for
    H = (f, g), on integer numerators.  When f and g are the very objects
    of one of the last 4 pairs computed, that pair's BiPoly comes back
    without running the kernel (see the module docstring)."""
    global _JACOBIANS
    f, g = H.first, H.second
    for f0, g0, det in _JACOBIANS:
        if f0 is f and g0 is g:
            return det
    det = _jacobian(f, g)
    _JACOBIANS = ((f, g, det),) + _JACOBIANS[:_JACOBIANS_KEPT - 1]
    return det


def _jacobian(p: BiPoly, q: BiPoly) -> BiPoly:
    """jacobian_det's kernel, on p's and q's numerators f and g."""
    f, g = p._t, q._t
    (px, py), (qx, qy) = _degrees(f), _degrees(g)
    width, rows = px + qx, py + qy
    if not width * rows:  # f_x = g_x = 0 or f_y = g_y = 0
        return BiPoly.zero()
    if packs(width * rows, len(f), len(g)):
        fx, gx = ([((i - 1, j), i * n) for (i, j), n in t.items() if i] for t in (f, g))
        gy = [((i, j - 1), j * n) for (i, j), n in g.items() if j]
        minus_fy = [((i, j - 1), -j * n) for (i, j), n in f.items() if j]
        out = _mul_packed(((fx, gy), (gx, minus_fy)), width)
    else:
        out = _cross_sparse(f.items(), g.items())
    return BiPoly._reduce(out, p._d * q._d)


@dataclass(frozen=True)
class KellerReport:
    jacobian: BiPoly
    is_keller: bool

    def to_json_dict(self) -> dict:
        return {"jacobian": self.jacobian.render(), "is_keller": self.is_keller}


def is_keller(H: PolyMap) -> KellerReport:
    """Is the Jacobian determinant of H a nonzero constant?  The one Keller
    gate: every operation that needs the hypothesis asks it here, and a
    second question on the same component objects reuses jacobian_det's
    last answer."""
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
# Resultants and gcds from one subresultant sequence.  A bivariate
# polynomial p, integer numerators over D, is laid out as rows in y,
# highest power first, each a {i: n} term dict in x, free of zeros.
# _pack_rows packs them into ints for subresultant._subresultants, and one
# run gives both answers.  When the last remainder has degree 0 in y the
# other output is the resultant; resultant_y unpacks it and undoes the
# scaling once, from
#
#     res_y(Dp*p, Dq*q) = Dp^deg_y(q) * Dq^deg_y(p) * res_y(p, q).
#
# Otherwise the resultant is 0 and the last remainder is an associate of
# the gcd over Q(x), so its primitive part (_primitive_part) times the gcd
# of the contents is the gcd.  Contents are taken over Q[x] by
# gcd_univariate, monic, so their numerators are primitive (their gcd
# divides the leading one, the denominator) and by Gauss's lemma divide
# the rows in Z[x]: _primitive_part divides each row by them with
# UniPoly.__divmod__ and checks for a zero remainder and an integer
# quotient.  embedding.is_injective_param packs rows straight off the
# curve and never clears a denominator: vanishing, degree, monic form and
# primitive part do not change under a positive scaling.
# ---------------------------------------------------------------------------


def _rows(p: BiPoly) -> tuple[list[dict[int, int]], int]:
    """(rows, D): p's integer numerators over D as rows in y, highest
    first; no rows for p = 0."""
    dy = max((j for _, j in p._t), default=-1)
    rows: list[dict[int, int]] = [{} for _ in range(dy + 1)]
    for (i, j), n in p._t.items():
        rows[dy - j][i] = n
    return rows, p._d


def _content(rows: list[dict[int, int]]) -> UniPoly:
    """The monic gcd over Q[x] of rows in Z[x], not all zero."""
    c = UniPoly.zero()
    for row in rows:
        c = gcd_univariate(c, UniPoly._new(row))
        if not c.degree():
            break
    return c


def _primitive_part(h: list[int], nb: int) -> BiPoly:
    """The rows h, packed at nb, over their content, as a BiPoly; raises
    ValueError unless the content divides every row in Z[x], so a row is
    never truncated."""
    rows = [digits(v, nb) for v in h]
    c = _content(rows)
    if c.degree():
        c = UniPoly._new(c._t)
        quotients = [divmod(UniPoly._new(row), c) for row in rows]
        if any(r or q._d != 1 for q, r in quotients):
            raise ValueError("inexact polynomial division")
        rows = [q._t for q, _ in quotients]
    k = len(rows) - 1
    return BiPoly._new({(i, k - j): n for j, row in enumerate(rows) for i, n in row.items()})


def resultant_y(p: BiPoly, q: BiPoly) -> UniPoly:
    """Resultant of p and q with respect to y, a polynomial in x.

    Both arguments must have positive y-degree.  The sign convention is
    that of the Sylvester matrix with the rows of p on top.
    """
    dp, dq = p.degree_y(), q.degree_y()
    if dp < 1 or dq < 1:
        raise DegenerateResultant("resultant_y needs positive y-degree in both arguments")
    (f, Dp), (g, Dq) = _rows(p), _rows(q)
    F, G, cells = _pack_rows(f, g)
    h, s = _subresultants(F, G, cells)
    return UniPoly._reduce(digits(s, cells[1]) if len(h) == 1 else {}, Dp**dq * Dq**dp)


def gcd_bivariate(a: BiPoly, b: BiPoly) -> BiPoly:
    """Greatest common divisor in Q[x, y], graded-lex leading coefficient 1."""
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    f, g = _rows(a)[0], _rows(b)[0]
    F, G, cells = _pack_rows(f, g)
    h = _primitive_part(_subresultants(F, G, cells)[0], cells[1])
    c = _content(f + g)
    return (h * c.to_bipoly() if c.degree() else h).monic()
