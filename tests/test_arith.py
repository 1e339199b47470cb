"""Exact arithmetic kernel: polynomials, maps, resultants."""

import contextlib
import random
import time
from fractions import Fraction
from math import gcd, isqrt
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kellerkit import (
    NEG_INF,
    BiPoly,
    DegenerateResultant,
    InvalidLine,
    Line,
    Parametrization,
    PolyMap,
    Substitution,
    UniPoly,
    compose_map,
    decide_automorphism,
    factorization_inverse,
    factorization_to_map,
    gcd_bivariate,
    gcd_univariate,
    jacobian_det,
    polymap_on_param,
    prove_line,
    random_tame,
    restrict_to_line,
    resultant_y,
    similarity_check,
)
from kellerkit import arith, subresultant
from kellerkit.arith import (
    _primitive_part,
    frac_pair,
    line_parametrization,
)
from kellerkit.cli import parse_bipoly
from kellerkit.kronecker import _mul_packed, cell_bytes, digits
from kellerkit.subresultant import _cells, _pack, _pack_rows

from conftest import (
    DEG4_F,
    DEG4_G,
    assert_bipoly_equal_by_eval,
    compose_uni,
    det_cofactor,
    eval_bipoly_naive,
    eval_unipoly_naive,
    random_bipoly,
    random_fraction,
    random_unipoly,
    resultant_oracle,
    sylvester_matrix,
)

coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)

unipolys = st.dictionaries(
    st.integers(min_value=0, max_value=6), coeffs, max_size=5
).map(UniPoly)

bipolys = st.dictionaries(
    st.tuples(
        st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)
    ),
    coeffs,
    max_size=6,
).map(BiPoly)


def _with_unit_fractions(p: BiPoly) -> BiPoly:
    """p built from its coefficients given as Fractions, each integer one
    with denominator 1."""
    return BiPoly({k: Fraction(v) for k, v in p.terms()})


def _fraction_convolution(p: BiPoly, q: BiPoly) -> dict:
    """Reference product: every term pair multiplied as Fractions."""
    out = {}
    for (i1, j1), v1 in p.terms():
        for (i2, j2), v2 in q.terms():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, Fraction(0)) + Fraction(v1) * Fraction(v2)
    return {k: v for k, v in out.items() if v}


def _assert_stored_reduced(p: BiPoly) -> None:
    for _, v in p.terms():
        assert v != 0
        assert type(v) is int or (type(v) is Fraction and v.denominator > 1), v


# ---------------------------------------------------------------------------
# NEG_INF and degrees
# ---------------------------------------------------------------------------


class TestNegInf:
    def test_zero_degree(self):
        assert UniPoly.zero().degree() is NEG_INF
        assert BiPoly.zero().total_degree() is NEG_INF
        assert BiPoly.zero().degree_x() is NEG_INF
        assert BiPoly.zero().degree_y() is NEG_INF

    def test_ordering(self):
        assert NEG_INF < 0
        assert NEG_INF < -(10**9)
        assert not (NEG_INF < NEG_INF)
        assert NEG_INF <= NEG_INF
        assert NEG_INF >= NEG_INF
        assert 0 > NEG_INF
        assert not (NEG_INF > 5)

    def test_arithmetic_refused(self):
        with pytest.raises(TypeError):
            NEG_INF + 1
        with pytest.raises(TypeError):
            1 - NEG_INF
        with pytest.raises(TypeError):
            -NEG_INF

    def test_repr(self):
        assert repr(NEG_INF) == "NEG_INF"


class TestInputChecks:
    """The polynomial API refuses what it cannot represent: a bad exponent
    with ValueError, an inexact number with TypeError."""

    @pytest.mark.parametrize("make", [
        lambda: UniPoly({-1: 1}),
        lambda: UniPoly({Fraction(1, 2): 1}),
        lambda: UniPoly({"2": 1}),
        lambda: BiPoly({(1, -1): 1}),
        lambda: BiPoly({(1.0, 0): 1}),
    ], ids=["uni_negative", "uni_fraction", "uni_str", "bi_negative", "bi_float"])
    def test_bad_exponent_key(self, make):
        with pytest.raises(ValueError, match="non-negative ints"):
            make()

    @pytest.mark.parametrize("p", [UniPoly.x(), BiPoly.y() + 1], ids=["uni", "bi"])
    def test_constant_value_of_nonconstant(self, p):
        with pytest.raises(ValueError, match="not constant"):
            p.constant_value()

    @pytest.mark.parametrize("zero", [UniPoly.zero(), BiPoly.zero()], ids=["uni", "bi"])
    def test_leading_term_of_zero(self, zero):
        with pytest.raises(ValueError, match="no leading term"):
            zero.leading_term()

    @pytest.mark.parametrize("p", [UniPoly.x(), BiPoly.x()], ids=["uni", "bi"])
    @pytest.mark.parametrize("e", [-1, Fraction(1, 2)], ids=["negative", "fraction"])
    def test_bad_power(self, p, e):
        with pytest.raises(ValueError, match="non-negative int"):
            p**e

    @pytest.mark.parametrize("value", [0.1, 0.5, "1/2"], ids=["float", "binary_float", "str"])
    @pytest.mark.parametrize("evaluate", [
        lambda v: BiPoly.x().evaluate(v, 0),
        lambda v: BiPoly.x().evaluate(0, v),
        lambda v: PolyMap.identity().evaluate(v, 1),
        lambda v: UniPoly.x()(v),
        lambda v: Parametrization(UniPoly.x(), UniPoly.one()).evaluate(v),
    ], ids=["bipoly_x", "bipoly_y", "polymap", "unipoly_call", "parametrization"])
    def test_evaluation_point_is_exact(self, evaluate, value):
        with pytest.raises(TypeError, match=type(value).__name__):
            evaluate(value)


# ---------------------------------------------------------------------------
# UniPoly
# ---------------------------------------------------------------------------


class TestUniPoly:
    def test_zero_terms_dropped(self):
        assert UniPoly({3: 0, 1: 2}) == UniPoly({1: 2})
        assert UniPoly({0: Fraction(0)}).is_zero()

    def test_fraction_normalized_to_int(self):
        p = UniPoly({1: Fraction(4, 2)})
        assert p.coeff(1) == 2
        assert isinstance(p.coeff(1), int)

    def test_degree_and_lc(self):
        p = UniPoly({5: -3, 0: 1})
        assert p.degree() == 5
        assert p.lc() == -3

    def test_render(self):
        assert UniPoly.zero().render() == "0"
        assert UniPoly.one().render() == "1"
        assert UniPoly({2: 1, 0: -1}).render() == "x^2 - 1"
        assert UniPoly({3: -2, 1: 1}).render() == "-2*x^3 + x"
        assert UniPoly({1: Fraction(1, 2)}).render() == "1/2*x"
        assert UniPoly({4: Fraction(-3, 7), 0: 2}).render() == "-3/7*x^4 + 2"
        assert UniPoly({0: 5}).render("t") == "5"
        assert UniPoly({2: 1, 1: 1}).render("t") == "t^2 + t"

    @given(unipolys, unipolys, unipolys)
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + UniPoly.zero() == p
        assert p * UniPoly.one() == p
        assert p - p == UniPoly.zero()

    @given(unipolys, unipolys)
    def test_degree_of_product(self, p, q):
        if p.is_zero() or q.is_zero():
            assert (p * q).is_zero()
        else:
            assert (p * q).degree() == p.degree() + q.degree()
            assert (p * q).lc() == p.lc() * q.lc()

    @given(unipolys)
    def test_power_matches_repeated_product(self, p):
        acc = UniPoly.one()
        for k in range(4):
            assert p**k == acc
            acc = acc * p

    @pytest.mark.parametrize("p", [UniPoly({2: 1, 0: -1}), BiPoly({(1, 0): 1, (0, 2): 1})])
    def test_power_products(self, p):
        """p**e takes no product for e <= 1 and one for e = 2, and matches
        the repeated product up to e = 8."""
        cls, calls = type(p), []
        plain = cls.__mul__

        def mul(a, b):
            calls.append(1)
            return plain(a, b)

        acc = cls.one()
        for e in range(9):
            calls.clear()
            with mock.patch.object(cls, "__mul__", mul):
                got = p**e
            assert got == acc
            if e <= 2:
                assert len(calls) == max(e - 1, 0)
            acc = acc * p

    @given(unipolys, unipolys)
    def test_divmod_identity(self, p, q):
        if q.is_zero():
            with pytest.raises(ZeroDivisionError):
                divmod(p, q)
            return
        quo, rem = divmod(p, q)
        assert quo * q + rem == p
        assert rem.is_zero() or rem.degree() < q.degree()

    def test_divmod_identity_on_seeded_inputs(self, rng):
        """q*b + r = a with deg r < deg b, on int and Fraction operands of
        up to degree 12, leading coefficients far from 1 among them, and
        both results stored reduced."""
        for _ in range(300):
            a, b = random_unipoly(rng, 12, 2**40), random_unipoly(rng, 6, 9, nonzero=True)
            if rng.random() < 0.5:
                a = UniPoly({k: c * random_fraction(rng) for k, c in a.terms()})
            if rng.random() < 0.5:
                b = b * Fraction(rng.randint(1, 2**33), rng.randint(1, 50))
            quo, rem = divmod(a, b)
            assert quo * b + rem == a
            assert rem.is_zero() or rem.degree() < b.degree()
            for p in (quo, rem):
                _assert_stored_reduced(p.to_bipoly())

    def test_divmod_known(self):
        p = UniPoly({3: 1, 0: -1})
        q = UniPoly({1: 1, 0: -1})
        quo, rem = divmod(p, q)
        assert quo == UniPoly({2: 1, 1: 1, 0: 1})
        assert rem.is_zero()

    def test_derivative(self):
        p = UniPoly({3: 2, 1: -5, 0: 7})
        assert p.derivative() == UniPoly({2: 6, 0: -5})
        assert UniPoly.constant(3).derivative().is_zero()

    @given(unipolys, unipolys)
    def test_derivative_is_linear_and_leibniz(self, p, q):
        assert (p + q).derivative() == p.derivative() + q.derivative()
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()

    def test_gcd_known(self):
        p = UniPoly({2: 1, 0: -1})
        q = UniPoly({2: 1, 1: -2, 0: 1})
        assert gcd_univariate(p, q) == UniPoly({1: 1, 0: -1})

    def test_gcd_zero_cases(self):
        z = UniPoly.zero()
        p = UniPoly({1: 3})
        assert gcd_univariate(z, z) == z
        assert gcd_univariate(p, z) == UniPoly({1: 1})
        assert gcd_univariate(z, p) == UniPoly({1: 1})

    @given(unipolys, unipolys, unipolys)
    def test_gcd_matches_euclid(self, a, b, c):
        """The subresultant gcd against the Euclid sequence of UniPoly.__divmod__,
        on zero, constants and planted common factors c."""
        third = UniPoly.constant(Fraction(-1, 3))
        pairs = [(a, b), (a * c, b * c), (b * c, a * c), (a, UniPoly.zero()),
                 (UniPoly.zero(), b), (third, b * c), (a * c * c, c), (c, c * Fraction(2, 7))]
        for p, q in pairs:
            got = gcd_univariate(p, q)
            assert got == _euclid_gcd(p, q)
            _assert_integer_form(got)

    def test_gcd_of_seeded_planted_factors(self, rng):
        for _ in range(40):
            p, q, g = (random_unipoly(rng, 4, 9) * random_fraction(rng) for _ in range(3))
            got = gcd_univariate(p * g, q * g)
            assert got == _euclid_gcd(p * g, q * g)
            if g:
                assert not divmod(got, g.monic())[1]

    @given(unipolys, unipolys)
    def test_gcd_divides_both(self, p, q):
        g = gcd_univariate(p, q)
        if g.is_zero():
            assert p.is_zero() and q.is_zero()
            return
        assert g.lc() == 1
        assert not divmod(p, g)[1]
        assert not divmod(q, g)[1]

    def test_compose_matches_evaluation(self, rng):
        for _ in range(15):
            p = random_unipoly(rng, 4, 5)
            q = random_unipoly(rng, 3, 5)
            c = compose_uni(p, q)
            t = random_fraction(rng)
            assert eval_unipoly_naive(c, t) == eval_unipoly_naive(
                p, eval_unipoly_naive(q, t)
            )

    def test_call_matches_naive(self, rng):
        for _ in range(20):
            p = random_unipoly(rng, 5, 6)
            t = random_fraction(rng)
            assert p(t) == eval_unipoly_naive(p, t)

    def test_call_and_compose_on_zero_and_constants(self):
        q = UniPoly({2: 1, 0: Fraction(1, 3)})
        for p in (UniPoly.zero(), UniPoly.constant(7), UniPoly.constant(Fraction(-2, 5))):
            c = p.constant_value()
            assert p(Fraction(3, 2)) == c and type(p(5)) is type(c)
            composed = compose_uni(p, q)
            assert type(composed) is UniPoly and composed == p
        assert compose_uni(UniPoly.x(), UniPoly.zero()).is_zero()

    def test_monic(self):
        p = UniPoly({2: 3, 0: 6})
        assert p.monic() == UniPoly({2: 1, 0: 2})
        assert UniPoly.zero().monic().is_zero()

    def test_hashable(self):
        assert hash(UniPoly({1: 2})) == hash(UniPoly({1: Fraction(2)}))
        assert len({UniPoly.zero(), UniPoly({0: 0})}) == 1


# ---------------------------------------------------------------------------
# BiPoly
# ---------------------------------------------------------------------------


class TestBiPoly:
    def test_render_graded_lex(self):
        p = BiPoly({(2, 0): 1, (1, 1): 1, (0, 2): 1, (0, 0): -3})
        assert p.render() == "x^2 + x*y + y^2 - 3"
        assert BiPoly({(0, 2): -1, (1, 0): 1}).render() == "-y^2 + x"
        assert BiPoly.zero().render() == "0"
        assert BiPoly({(1, 1): Fraction(2, 3)}).render() == "2/3*x*y"

    def test_terms_order(self):
        p = BiPoly({(0, 0): 1, (1, 0): 2, (0, 1): 3, (2, 1): 4, (1, 2): 5})
        keys = [k for k, _ in p.terms()]
        assert keys == [(2, 1), (1, 2), (1, 0), (0, 1), (0, 0)]
        assert BiPoly({(2, 0): 1, (1, 1): 2, (0, 1): 7}).leading_term() == ((2, 0), 1)

    def test_degrees(self):
        p = BiPoly({(2, 3): 1, (4, 0): 1})
        assert p.total_degree() == 5
        assert p.degree_x() == 4
        assert p.degree_y() == 3

    @given(bipolys, bipolys, bipolys)
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * BiPoly.one() == p
        assert p - p == BiPoly.zero()

    @given(bipolys, bipolys, st.booleans(), st.booleans())
    def test_product_matches_fraction_convolution(self, p, q, unit_p, unit_q):
        if unit_p:
            p = _with_unit_fractions(p)
        if unit_q:
            q = _with_unit_fractions(q)
        pairs = [
            (p, q),
            (p + q, p - q),  # the cross terms cancel exactly
            (p * Fraction(1, 6), q * 6),  # the denominators often cancel
        ]
        for a, b in pairs:
            product = a * b
            assert dict(product.terms()) == _fraction_convolution(a, b)
            _assert_stored_reduced(product)

    def test_product_of_unit_fractions(self):
        half = BiPoly({(1, 0): Fraction(1, 2)})
        total = half + half
        assert total.terms() == [((1, 0), 1)] and type(total.coeff(1, 0)) is int
        p = _with_unit_fractions(BiPoly.x())  # given x as Fraction(1, 1)
        assert p.terms() == [((1, 0), 1)] and type(p.coeff(1, 0)) is int
        product = p * (p + BiPoly.y())
        assert dict(product.terms()) == {(2, 0): 1, (1, 1): 1}
        _assert_stored_reduced(product)

    @pytest.mark.parametrize("cls", [UniPoly, BiPoly])
    def test_integral_sums_store_int(self, cls):
        third = cls.x() * Fraction(1, 3)
        sums = [
            third + third * 2,
            third * 2 - (-third),
            Fraction(4, 3) - cls.constant(Fraction(1, 3)),
        ]
        assert sums == [cls.x(), cls.x(), cls.one()]
        half = (cls.x() + 1) * Fraction(1, 2)
        products = [half * cls.constant(2), half * (cls.x() * 2 - 2)]
        assert products == [cls.x() + 1, cls.x() ** 2 - 1]
        for total in sums + products:
            _assert_stored_reduced(total)
        if cls is UniPoly:
            dividend = UniPoly({2: 1, 1: Fraction(3, 2), 0: Fraction(5, 2)})
            q, r = divmod(dividend, UniPoly({1: 1, 0: Fraction(1, 2)}))
            assert (q, r) == (cls.x() + 1, cls.constant(2))
            _assert_stored_reduced(q)
            _assert_stored_reduced(r)

    def test_product_denominators_cancel(self):
        a = BiPoly({(1, 0): Fraction(1, 2), (0, 0): Fraction(1, 2)})
        b = BiPoly({(1, 0): 2, (0, 0): -2})
        product = a * b  # x^2 - 1: the x terms cancel, the rest is integral
        assert dict(product.terms()) == {(2, 0): 1, (0, 0): -1}
        _assert_stored_reduced(product)
        c = BiPoly({(0, 1): Fraction(2, 3), (0, 0): Fraction(5, 4)})
        product = c * BiPoly({(0, 1): Fraction(3, 4)})
        assert dict(product.terms()) == {(0, 2): Fraction(1, 2), (0, 1): Fraction(15, 16)}
        _assert_stored_reduced(product)

    def test_diff(self):
        p = BiPoly({(2, 1): 3, (0, 2): 1})
        assert p.diff("x") == BiPoly({(1, 1): 6})
        assert p.diff("y") == BiPoly({(2, 0): 3, (0, 1): 2})
        with pytest.raises(ValueError):
            p.diff("z")

    def test_on_x_axis(self):
        p = BiPoly({(2, 0): 1, (1, 1): 5, (0, 0): -2})
        assert p.on_x_axis() == UniPoly({2: 1, 0: -2})

    def test_substitute_matches_naive_eval(self, rng):
        for _ in range(12):
            p = random_bipoly(rng, 3, 4)
            u = random_bipoly(rng, 2, 3)
            v = random_bipoly(rng, 2, 3)
            s = Substitution(u, v).apply(p)
            a, b = random_fraction(rng), random_fraction(rng)
            ua, vb = eval_bipoly_naive(u, a, b), eval_bipoly_naive(v, a, b)
            assert eval_bipoly_naive(s, a, b) == eval_bipoly_naive(p, ua, vb)

    def test_evaluate_matches_naive(self, rng):
        for _ in range(20):
            p = random_bipoly(rng, 4, 5)
            a, b = random_fraction(rng), random_fraction(rng)
            assert p.evaluate(a, b) == eval_bipoly_naive(p, a, b)

    def test_substitution_matches_power_sum(self, rng):
        """Substitution.apply against sum(c * u**i * v**j), on sparse p with
        gaps between the powers of y and no constant row."""
        fixed = BiPoly({(1, 5): 1, (0, 2): 3})  # x*y^5 + 3*y^2
        for _ in range(6):
            ys = (1, 2, 4, 7)
            terms = {(rng.randint(0, 3), rng.choice(ys)): random_fraction(rng) for _ in range(4)}
            for p in (fixed, BiPoly(terms)):
                for u, v in (
                    (random_bipoly(rng, 2, 3), random_bipoly(rng, 2, 3)),
                    (random_unipoly(rng, 2, 3), random_unipoly(rng, 2, 3)),
                    (random_fraction(rng), random_fraction(rng)),
                ):
                    expected = sum((c * u**i * v**j for (i, j), c in p.terms()), u**0 - u**0)
                    assert Substitution(u, v).apply(p) == expected

    def test_substitution_object_matches_substitute(self, rng):
        """One Substitution, its power caches shared across calls, against a
        fresh one per polynomial."""
        u = random_bipoly(rng, 2, 3)
        v = random_bipoly(rng, 2, 3)
        sub = Substitution(u, v)
        for _ in range(8):
            p = random_bipoly(rng, 3, 4)
            assert sub.apply(p) == Substitution(u, v).apply(p)

    def test_monic(self, rng):
        p = BiPoly({(2, 0): 3, (0, 0): 6})
        assert p.monic() == BiPoly({(2, 0): 1, (0, 0): 2})
        assert BiPoly.zero().monic().is_zero()
        # The graded-lex leading term: y^3 leads x^2, though x is heavier.
        assert BiPoly({(2, 0): 4, (0, 3): -2}).monic() == BiPoly({(2, 0): -2, (0, 3): 1})
        for _ in range(50):
            p = random_bipoly(rng, 3, 3)
            if p:
                assert p.monic() == p * (1 / Fraction(p.leading_term()[1]))


def _euclid_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd by the Euclid sequence of UniPoly.__divmod__."""
    while q:
        p, q = q, divmod(p, q)[1]
    return p.monic()


def _assert_integer_form(p) -> None:
    """The stored form: nonzero int numerators over a positive int
    denominator that shares no factor with them, 1 for the zero
    polynomial."""
    assert type(p._d) is int and p._d > 0
    assert all(type(n) is int and n for n in p._t.values())
    assert gcd(p._d, *p._t.values()) == 1


small_bipolys = st.dictionaries(
    st.tuples(
        st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)
    ),
    coeffs,
    max_size=4,
).map(BiPoly)

nonzero_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)


class TestIntegerForm:
    @given(bipolys, bipolys, small_bipolys, small_bipolys, coeffs)
    def test_every_kernel_returns_the_canonical_form(self, p, q, u, v, c):
        u1, v1 = u.on_x_axis(), v.on_x_axis()
        results = [
            p + q, p - q, q - p, p + c, c - p, -p, p * q, p * c, c * p, p ** 2,
            p.diff("x"), p.diff("y"), p.on_x_axis(),
            Substitution(u, v).apply(p), Substitution(u1, v1).apply(p),
            jacobian_det(PolyMap(p, q)), jacobian_det(PolyMap(u, v)),
            u1 + v1, u1 - v1, u1 * v1, u1 * c, u1.derivative(), u1.monic(),
        ]
        if p.degree_y() >= 1 and q.degree_y() >= 1:
            results.append(resultant_y(p, q))
        for r in results:
            _assert_integer_form(r)

    @given(bipolys, bipolys, nonzero_fractions)
    def test_equal_by_different_routes(self, p, q, c):
        """Equal polynomials built by different routes compare equal, hash
        equal and show the same terms."""
        routes = [
            (p + q) - q, q + (p - q), (p * c) * (1 / c), p * (q + 1) - p * q,
            BiPoly(dict(p.terms())), BiPoly({k: Fraction(v) for k, v in p.terms()}),
            Substitution(BiPoly.x(), BiPoly.y()).apply(p), -(-p), p * BiPoly.one(),
        ]
        for r in routes:
            assert r == p and hash(r) == hash(p) and r.terms() == p.terms()
        u = p.on_x_axis()
        for r in ((u + u) * Fraction(1, 2), u.to_bipoly().on_x_axis(), UniPoly(dict(u.terms())),
                  compose_uni(u, UniPoly.x())):
            assert r == u and hash(r) == hash(u) and r.terms() == u.terms()


def _power_sum(p, u, v):
    """p(u, v) as sum(c * u**i * v**j), by the ring operations alone."""
    return sum((c * u**i * v**j for (i, j), c in p.terms()), u**0 - u**0)


def _assert_canonical(value):
    """A polynomial as _assert_stored_reduced asks; a scalar is an int, or a
    Fraction that is not integral."""
    if isinstance(value, (BiPoly, UniPoly)):
        _assert_stored_reduced(value)
    else:
        assert type(value) is int or value.denominator > 1, repr(value)


# Pairs whose two members have different denominators, in each ring.
X, Y, T = BiPoly.x(), BiPoly.y(), UniPoly.x()
PAIRS = {
    "bipoly": (X * Fraction(1, 2) + Y * Fraction(1, 3), Y * Fraction(1, 5) - X**2 * Fraction(1, 7)),
    "unipoly": (T * Fraction(1, 2) + Fraction(1, 3), Fraction(1, 5) - T**2 * Fraction(1, 7)),
    "fraction": (Fraction(3, 2), Fraction(-2, 5)),
}


class TestSubstitution:
    """Substitution.apply, on integer numerators with one division at the
    end, against the power sum over the ring operations."""

    POLYS = (
        BiPoly.zero(),
        BiPoly.constant(Fraction(5, 3)),
        BiPoly.constant(4),
        # gaps in x (0, 3) and in y (1, 4), and no row free of y
        BiPoly({(3, 4): 1, (0, 4): Fraction(-2, 3), (3, 1): 5, (0, 1): Fraction(1, 7)}),
        BiPoly({(2, 0): Fraction(7, 4), (0, 3): 6, (1, 1): Fraction(-1, 6)}),
    )

    @pytest.mark.parametrize("ring", sorted(PAIRS))
    def test_different_denominators(self, ring):
        u, v = PAIRS[ring]
        sub = Substitution(u, v)
        for p in self.POLYS:
            got = sub.apply(p)
            assert got == _power_sum(p, u, v)
            assert isinstance(got, (type(u), int))
            _assert_canonical(got)

    def test_scalar_results_are_canonical(self):
        p = BiPoly({(2, 0): 4, (0, 1): Fraction(1, 3)})
        assert Substitution(Fraction(1, 2), Fraction(3)).apply(p) == 2
        assert type(Substitution(Fraction(1, 2), Fraction(3)).apply(p)) is int
        assert Substitution(Fraction(1, 2), Fraction(1)).apply(p) == Fraction(4, 3)
        assert type(p.evaluate(Fraction(1, 2), 3)) is int
        assert p.evaluate(1, 3) == 5 and type(p.evaluate(1, 3)) is int  # ints alone
        assert type(Substitution(Fraction(1, 2), 3).apply(BiPoly.constant(4))) is int

    @pytest.mark.parametrize("ring", sorted(PAIRS))
    def test_reused_on_rising_degrees(self, ring, rng):
        """One Substitution, its power caches grown by each larger p and
        read again by smaller ones."""
        u, v = PAIRS[ring]
        sub = Substitution(u, v)
        polys = []
        for d in range(7):
            terms = {(i, d - i): random_fraction(rng) for i in range(d + 1)}
            terms[(rng.randint(0, d), 0)] = rng.randint(-5, 5)
            polys.append(BiPoly(terms))
        for p in polys + polys[::-1]:
            got = sub.apply(p)
            assert got == _power_sum(p, u, v)
            _assert_canonical(got)

    def test_random_fractional_pairs(self, rng):
        for _ in range(10):
            u = BiPoly({k: random_fraction(rng) for k in random_bipoly(rng, 2, 3).support()})
            v = BiPoly({k: random_fraction(rng) for k in random_bipoly(rng, 2, 3).support()})
            p = BiPoly({k: random_fraction(rng) for k in random_bipoly(rng, 3, 3).support()})
            got = Substitution(u, v).apply(p)
            assert got == _power_sum(p, u, v)
            _assert_canonical(got)

    def test_power_cache_squares_toward_a_large_exponent(self):
        calls = []

        def mul(a, b):
            calls.append(1)
            return a * b

        powers = {0: 1, 1: 3}
        assert arith._power(powers, 100000, mul) == 3**100000
        assert len(calls) <= 34 and len(powers) <= 20
        calls.clear()
        powers = {0: 1, 1: 3}
        assert [arith._power(powers, e, mul) for e in range(10)] == [3**e for e in range(10)]
        assert len(calls) == 8  # rising exponents: one product each

    def test_sparse_power_takes_few_products(self):
        """The V side (Horner's gap in y) and the U side of the two
        substitutions behind is-auto on x + y^100000 and x^100000 + y."""
        big_y, big_x = BiPoly({(0, 100000): 1}), BiPoly({(100000, 0): 1})
        cases = [((X + big_y, Y), X - big_y, X), ((X, Y), big_x + Y, big_x + Y)]
        for (u, v), p, want in cases:
            with mock.patch.object(arith, "_dict_mul", wraps=arith._dict_mul) as mul:
                assert Substitution(u, v).apply(p) == want
            assert mul.call_count <= 40

    def test_dense_powers_take_one_product_each(self):
        # p uses U^0..U^6 and every gap in y is 1: five products, U^2..U^6.
        p = BiPoly({(i, 6 - i): i + 1 for i in range(7)})
        u, v = X + Y, X - 2 * Y
        with mock.patch.object(Substitution, "_packs", return_value=None), \
                mock.patch.object(arith, "_dict_mul", wraps=arith._dict_mul) as mul:
            assert Substitution(u, v).apply(p) == _power_sum(p, u, v)
        assert mul.call_count == 5

    def test_composition_cancels_to_identity(self):
        """A fractional map composed with its inverse, both ways: every
        coefficient cancels but x and y, stored as the int 1."""
        F = PolyMap(X + Y**2 * Fraction(1, 3), Y)
        F_inv = PolyMap(X - Y**2 * Fraction(1, 3), Y)
        G = PolyMap(X * Fraction(2, 3), Y - X**3 * Fraction(1, 2) + X * Fraction(1, 5))
        G_inv = PolyMap(X * Fraction(3, 2), Y + (X * Fraction(3, 2)) ** 3 * Fraction(1, 2)
                        - X * Fraction(3, 10))
        H, H_inv = compose_map(G, F), compose_map(F_inv, G_inv)
        for K in (compose_map(H_inv, H), compose_map(H, H_inv)):
            assert K.is_identity()
            assert [type(c) for p in (K.first, K.second) for _, c in p.terms()] == [int, int]


def _x_degree(w) -> int:
    if isinstance(w, BiPoly):
        return w.degree_x() if w else 0
    return w.degree() if isinstance(w, UniPoly) and w else 0


def _least_width(u, v, p) -> int:
    """The least W that packs p(u, v): one more than the x-degrees of u, v
    and the bound on the result's."""
    ux, vx = _x_degree(u), _x_degree(v)
    return 1 + max(ux, vx, *[i * ux + j * vx for i, j in p.support()])


def _strategies(u, v, p) -> list:
    """p(u, v) on term pairs and then packed, whatever Substitution's size
    rule says, at the least W."""
    width = _least_width(u, v, p)
    out = []
    for rule in (lambda self, q: None, lambda self, q: width):
        with mock.patch.object(Substitution, "_packs", rule):
            out.append(Substitution(u, v).apply(p))
    return out


def _assert_identical(a, b) -> None:
    """Same ring element, same terms, same stored coefficient types."""
    assert type(a) is type(b)
    if isinstance(a, (BiPoly, UniPoly)):
        assert a.terms() == b.terms()
        assert [type(c) for _, c in a.terms()] == [type(c) for _, c in b.terms()]
    else:
        assert a == b


def _assert_strategies_agree(u, v, p):
    pairs, packed = _strategies(u, v, p)
    _assert_identical(pairs, packed)
    return packed


class TestPackedSubstitution:
    """Substitution's packed strategy against its term-pair strategy: the
    same terms and the same stored types, on both sides of the size rule
    and at the edges of the digit cells."""

    @given(bipolys, bipolys, bipolys)
    def test_bipolys(self, u, v, p):
        _assert_strategies_agree(u, v, p)

    @given(bipolys, bipolys, bipolys, bipolys)
    def test_maps(self, f, g, u, v):
        """Both components of a map through one Substitution, so the
        second reuses or regrows the packed powers of the first."""
        with mock.patch.object(Substitution, "_packs", lambda self, q: None):
            want = compose_map(PolyMap(f, g), PolyMap(u, v))
        sub = Substitution(u, v)
        for p, expected in ((f, want.first), (g, want.second)):
            width = _least_width(u, v, p)
            with mock.patch.object(Substitution, "_packs", lambda self, q: width):
                _assert_identical(sub.apply(p), expected)

    @given(unipolys, unipolys, bipolys)
    def test_unipolys(self, u, v, p):
        _assert_strategies_agree(u, v, p)

    @given(coeffs, coeffs, bipolys)
    def test_scalars(self, a, b, p):
        _assert_strategies_agree(a, b, p)

    @pytest.mark.parametrize("u,v", [
        (BiPoly.zero(), X + Y),
        (X * Y - 3, BiPoly.zero()),
        (BiPoly.constant(Fraction(5, 3)), Y**2 - X),
        (X - Y**2, BiPoly.constant(-7)),
        (BiPoly.zero(), BiPoly.zero()),
    ])
    def test_zero_and_constant_components(self, u, v):
        for p in TestSubstitution.POLYS + (X**2 * Y - Y**3 * Fraction(2, 3),):
            _assert_strategies_agree(u, v, p)

    @pytest.mark.parametrize("p", [
        -(X**3) * Y**2,
        X - X**2 * Y**4 * Fraction(7, 2),
        Y**5 * Fraction(-1, 3) + X**4 + 1,
    ])
    def test_negative_top_digits(self, p):
        """The result's top term is negative, so its balanced top digit
        borrows from nothing above it."""
        for u, v in ((X, Y), (Y, X), (X + 2, Y * Fraction(1, 2)), (X * Y, Y**2 - X)):
            got = _assert_strategies_agree(u, v, p)
            assert got.leading_term()[1] < 0

    @pytest.mark.parametrize("k", [1, 2, 3, 9])
    def test_coefficients_at_cell_edges(self, k):
        """c*x^a*y^b into itself and swapped: the bound is |c|, so c =
        2^(8k-1) - 1 fills k bytes with the sign bit, and c = 2^(8k-1)
        needs one byte more."""
        for c in (2 ** (8 * k - 1) - 1, 2 ** (8 * k - 1)):
            for sign in (1, -1):
                for a, b in ((0, 0), (1, 0), (2, 3), (0, 4)):
                    p = BiPoly({(a, b): sign * c})
                    for u, v in ((X, Y), (Y, X)):
                        got = _assert_strategies_agree(u, v, p)
                        assert got == sign * c * u**a * v**b

    def test_golden_map_final_check_packs(self):
        H = PolyMap(parse_bipoly(DEG4_F), parse_bipoly(DEG4_G))
        inv, _, _ = prove_line(H, Line(1, -1, 2))
        for outer, inner in ((inv, H), (H, inv)):
            sub = Substitution(inner.first, inner.second)
            assert sub._packs(outer.first) and sub._packs(outer.second)
            assert compose_map(outer, inner).is_identity()

    def test_seeded_words_fall_on_both_sides(self):
        """Final checks of seeded tame words of degree up to 4: the rule
        packs some compositions and not others, and each agrees with the
        other strategy."""
        sides = set()
        for seed in range(40):
            word = random_tame(seed, 3, 2, 3)
            H = factorization_to_map(word)
            inv = factorization_to_map(factorization_inverse(word))
            for outer, inner in ((inv, H), (H, inv)):
                for p in (outer.first, outer.second):
                    sides.add(bool(Substitution(inner.first, inner.second)._packs(p)))
                    got = _assert_strategies_agree(inner.first, inner.second, p)
                    assert got == Substitution(inner.first, inner.second).apply(p)
        assert sides == {False, True}

    def test_rule_refuses_affine_and_small_input(self):
        """An affine p stays on term pairs even when the count would pack
        it (dense u and v of degree 5, 6 by 6 cells, 3 * 42 term pairs),
        though a quadratic p of six terms packs; so do evaluation and the
        shear's own check."""
        dense = BiPoly({(i, j): 1 + i + 2 * j for i in range(6) for j in range(6 - i)})
        sub = Substitution(dense, dense * 3 - X)
        assert sub._packs(X + 2 * Y - 1) is None
        assert sub._packs(X**2 + X * Y + Y**2 + X + 2 * Y - 1)
        assert Substitution(Fraction(1, 2), Fraction(3))._packs(dense) is None
        assert Substitution(X + Y**2, Y)._packs(X - Y**2) is None

    def test_sparse_high_degree_stays_on_term_pairs(self):
        """A grid of about 10^12 cells is never packed: the rule says no
        before the substitution does any work, and the term pairs finish
        within the budget."""
        u, v = X**1000000, Y**1000000
        dense_p = X**2 * Y + X * Y**2 + X**2 + Y**2 + X * Y
        cases = ((u, v, X + Y), (u + Y + 1, v + X + 1, dense_p))
        for u, v, p in cases:
            assert Substitution(u, v)._packs(p) is None
        start = time.perf_counter()
        for u, v, p in cases:
            assert Substitution(u, v).apply(p) == _power_sum(p, u, v)
        assert time.perf_counter() - start < 2.0


def _both_products(a: BiPoly, b: BiPoly) -> list:
    """a*b on term pairs and then packed, with the size rule patched to
    refuse and then to accept every product."""
    out = []
    for on in (False, True):
        with mock.patch.object(arith, "packs", lambda cells, m, n: on), \
                mock.patch.object(arith, "_mul_packed", wraps=arith._mul_packed) as packed:
            out.append(a * b)
        assert packed.called is on
    return out


def _assert_products_agree(a: BiPoly, b: BiPoly) -> BiPoly:
    """Both paths give one value, stored in one canonical (_d, _t) form."""
    pairs, packed = _both_products(a, b)
    assert (packed._d, packed._t) == (pairs._d, pairs._t)
    _assert_integer_form(packed)
    assert dict(packed.terms()) == _fraction_convolution(a, b)
    return packed


def _abs_sum(p: BiPoly) -> int:
    return sum(map(abs, p._t.values()))


class TestPackedProduct:
    """BiPoly products on _convolve's packed path (_mul_packed) against its
    term pairs, each path forced by patching arith.packs: equal values,
    stored in the same canonical form, on seeded input and at the edges
    of the digit cells."""

    def test_seeded_products_with_negative_coefficients(self, rng):
        for _ in range(150):
            a = random_bipoly(rng, rng.randint(0, 5), rng.choice((1, 9, 10**6, 10**40)))
            b = random_bipoly(rng, rng.randint(0, 5), rng.choice((1, 9, 10**6)))
            if rng.random() < 0.3:
                a = a * random_fraction(rng)
            _assert_products_agree(a, b)
            _assert_products_agree(b, a)
            _assert_products_agree(a, a)

    @given(bipolys, bipolys)
    def test_hypothesis_products(self, a, b):
        _assert_products_agree(a, b)

    def test_zero_operand(self, rng):
        zero = BiPoly.zero()
        for p in (zero, BiPoly.one(), X - Y * Fraction(1, 3), X * 10**30 - Y,
                  random_bipoly(rng, 4, 5)):
            assert _assert_products_agree(zero, p) == zero
            assert _assert_products_agree(p, zero) == zero

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_cells_that_cancel(self, k):
        """(x - y)(x^(k-1) + ... + y^(k-1)) = x^k - y^k: every cell but two
        sums to zero; (p + q)(p - q) cancels the cross terms."""
        geometric = sum((X**i * Y**(k - 1 - i) for i in range(k)), BiPoly.zero())
        assert _assert_products_agree(X - Y, geometric) == X**k - Y**k
        p, q = X**2 * 3 - Y + 1, X * Y * 2 + Y**3 - 5
        assert _assert_products_agree(p + q, p - q) == p * p - q * q

    @pytest.mark.parametrize("k", [1, 2, 3, 9])
    def test_norm_product_at_cell_edges(self, k):
        """The cells hold the product of the operands' sums of absolute
        values, c: 2^(8k-1) - 1 fills k bytes with the sign bit, and
        2^(8k-1) needs one byte more.  Single terms reach c itself, with
        either sign; split terms reach it in their sum of absolute
        values."""
        for c in (2 ** (8 * k - 1) - 1, 2 ** (8 * k - 1)):
            assert cell_bytes(c) == k + (c % 2 == 0)
            for sign in (1, -1):
                for a, b in ((X**2 * Y, Y**3), (BiPoly.one(), X), (Y**4, X**3 * Y)):
                    got = _assert_products_agree(a * sign, b * c)
                    assert got == a * b * (sign * c)
                split = [(-(X**2) * Y * sign, X**3 * (c - 1) - Y**2)]
                if c % 2 == 0:
                    split.append((X * sign - Y, X * Y * (c // 2 - 1) + X * sign))
                for a, b in split:
                    assert _abs_sum(a) * _abs_sum(b) == c
                    _assert_products_agree(a, b)

    def test_term_at_the_last_column(self, rng):
        """The product's x-degree is W - 1 by construction; with a negative
        coefficient there the balanced digit borrows from the next row's
        first cell."""
        got = _assert_products_agree(Y - X**3, X**2 - 1)  # -x^5 + x^3 + x^2*y - y
        assert got.coeff(5, 0) == -1 and got.coeff(0, 1) == -1
        for _ in range(60):
            a, b = random_bipoly(rng, 4, 7), random_bipoly(rng, 4, 7)
            if not (a and b):
                continue
            top = max(i for i, _ in a.support()) + max(i for i, _ in b.support())
            got = _assert_products_agree(a, b)
            assert max(i for i, _ in got.support()) == top

    def test_rule_packs_dense_and_refuses_sparse(self):
        """The real rule: a dense square packs; eleven sparse terms of
        degree up to 900,000 pass the test with one cell but not the
        grid's, and stay on term pairs within the budget."""
        dense = (X + Y + 1) ** 6
        sparse = sum((X ** (10**5 * i) * Y ** (10**5 * (9 - i)) for i in range(10)), BiPoly.one())
        for a, b, packs in ((dense, dense, True), (sparse, sparse + X, False)):
            with mock.patch.object(arith, "_mul_packed", wraps=arith._mul_packed) as packed:
                start = time.perf_counter()
                got = a * b
                assert time.perf_counter() - start < 2.0
            assert packed.called is packs
            assert dict(got.terms()) == _fraction_convolution(a, b)


def _pair_sum(pairs) -> dict:
    """The sum of a*b over pairs of integer term lists, term pair by term
    pair, free of zeros."""
    out: dict = {}
    for a, b in pairs:
        for (i1, j1), n1 in a:
            for (i2, j2), n2 in b:
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + n1 * n2
    return {k: n for k, n in out.items() if n}


def _assert_sum_packs(pairs) -> dict:
    """_mul_packed on pairs, at the least width above every x-degree of
    the sum, against term pairs."""
    width = 1 + sum(max((i for t in side for (i, _), _ in t), default=0) for side in zip(*pairs))
    got = _mul_packed(pairs, width)
    assert got == _pair_sum(pairs)
    return got


def _random_terms(rng, rows: int, cols: int, bound: int) -> list:
    """A random term list with nonzero coefficients in [-bound, bound]."""
    return [((i, j), rng.choice((-1, 1)) * rng.randint(1, bound))
            for i in range(cols) for j in range(rows) if rng.random() < 0.7]


class TestPackedSum:
    """_mul_packed on two pairs, the Jacobian's f_x*g_y + g_x*(-f_y),
    against term pairs: the cells must hold the sum of the products'
    bounds, and each b, which goes in by rows, must land on its rows."""

    @pytest.mark.parametrize("k", [1, 2, 3, 9])
    def test_summed_bound_at_cell_edges(self, k):
        """Two single-term products meet at x*y with |a|*|b| of p and q,
        p + q = c: 2^(8k-1) - 1 fills k bytes with the sign bit, and
        2^(8k-1) needs one byte more, though each product alone fits one
        byte less."""
        for c in (2 ** (8 * k - 1) - 1, 2 ** (8 * k - 1)):
            p, q = c - c // 2, c // 2
            assert cell_bytes(c) == k + (c % 2 == 0)
            if c % 2 == 0:
                assert cell_bytes(p) == cell_bytes(q) == k
            for s, t in ((1, 1), (-1, -1), (1, -1)):
                pairs = (([((1, 0), s)], [((0, 1), p)]), ([((0, 1), t)], [((1, 0), q)]))
                assert _assert_sum_packs(pairs) == ({(1, 1): s * p + t * q} if s * p + t * q else {})
            # Split terms reach the bound in their sums of absolute values.
            _assert_sum_packs((([((2, 0), 1), ((0, 1), -1)], [((0, 1), -p)]),
                               ([((1, 1), -1)], [((1, 0), q)])))

    def test_negative_coefficients_at_row_borders(self, rng):
        """Each b, the operand that goes by rows, has negative terms at
        x^0 and at its top x-degree in every row, so balanced digits borrow
        across row borders, and the sum's top x-degree is width - 1."""
        b = [((0, 0), -1), ((2, 0), -3), ((0, 1), -2), ((2, 1), -1), ((1, 2), 4), ((0, 2), -5), ((2, 2), -7)]
        a = [((0, 0), 1), ((1, 0), -2)]
        got = _assert_sum_packs(((a, b), (b, a)))
        assert got[(3, 2)] == 28 and got[(0, 1)] == -4
        got = _assert_sum_packs(((a, b), ([((1, 1), 3)], b)))
        assert got[(3, 0)] == 6 and got[(3, 3)] == -21
        for _ in range(200):
            pairs = []
            for _ in range(2):
                cols, rows = rng.randint(1, 4), rng.randint(1, 4)
                b = _random_terms(rng, rows, cols, rng.choice((1, 9, 10**6)))
                b += [((i, j), -rng.randint(1, 9)) for j in range(rows) for i in (0, cols)]
                pairs.append((_random_terms(rng, rng.randint(1, 3), rng.randint(1, 4), 9), list(dict(b).items())))
            _assert_sum_packs(pairs)

    def test_pair_with_an_empty_operand(self, rng):
        """An empty a or b adds nothing; a b term at x-degree width, as a
        derivative of a component with no x packs when the other has no
        x, adds nothing beside an empty a."""
        a, b = _random_terms(rng, 3, 3, 9), _random_terms(rng, 3, 3, 9)
        want = _pair_sum(((a, b),))
        for empty in (([], b), (a, [])):
            assert _assert_sum_packs(((a, b), empty)) == want
            assert _assert_sum_packs((empty, (a, b))) == want
        assert _assert_sum_packs((([], []), ([], b))) == {}
        width = 1 + max(i for (i, _), _ in a) + max(i for (i, _), _ in b)
        assert _mul_packed(((a, b), ([], [((width, 0), -5), ((width, 2), 7)])), width) == want


# ---------------------------------------------------------------------------
# Maps, parametrizations, lines
# ---------------------------------------------------------------------------


class TestPolyMap:
    def test_identity(self):
        assert PolyMap.identity().is_identity()
        assert PolyMap.identity().render() == "(x, y)"

    def test_compose_with_identity(self, rng):
        H = PolyMap(random_bipoly(rng, 3, 4), random_bipoly(rng, 3, 4))
        assert compose_map(H, PolyMap.identity()) == H
        assert compose_map(PolyMap.identity(), H) == H

    def test_compose_associative(self, rng):
        maps = [
            PolyMap(random_bipoly(rng, 2, 2), random_bipoly(rng, 2, 2))
            for _ in range(3)
        ]
        F, G, K = maps
        assert compose_map(compose_map(F, G), K) == compose_map(F, compose_map(G, K))

    def test_compose_is_evaluation(self, rng):
        F = PolyMap(random_bipoly(rng, 2, 3), random_bipoly(rng, 2, 3))
        G = PolyMap(random_bipoly(rng, 2, 3), random_bipoly(rng, 2, 3))
        C = compose_map(F, G)
        for _ in range(6):
            a, b = random_fraction(rng), random_fraction(rng)
            assert C.evaluate(a, b) == F.evaluate(*G.evaluate(a, b))

    def test_jacobian_known(self):
        # (x + y^2, y): unipotent shear, Jacobian 1.
        H = PolyMap(BiPoly({(1, 0): 1, (0, 2): 1}), BiPoly.y())
        assert jacobian_det(H) == BiPoly.one()
        # (x^2, y): Jacobian 2x.
        H2 = PolyMap(BiPoly({(2, 0): 1}), BiPoly.y())
        assert jacobian_det(H2) == BiPoly({(1, 0): 2})

    def test_jacobian_chain_rule(self, rng):
        for _ in range(6):
            F = PolyMap(random_bipoly(rng, 2, 3), random_bipoly(rng, 2, 3))
            G = PolyMap(random_bipoly(rng, 2, 3), random_bipoly(rng, 2, 3))
            lhs = jacobian_det(compose_map(F, G))
            rhs = Substitution(G.first, G.second).apply(jacobian_det(F)) * jacobian_det(G)
            assert_bipoly_equal_by_eval(lhs, rhs, rng)
            assert lhs == rhs


def _jacobian_oracle(H: PolyMap) -> BiPoly:
    """f_x*g_y - f_y*g_x through the ring operations."""
    f, g = H.first, H.second
    return f.diff("x") * g.diff("y") - f.diff("y") * g.diff("x")


def _assert_jacobian(H: PolyMap) -> BiPoly:
    """jacobian_det against the oracle, terms and stored types, and its
    kernel with each strategy forced by patching arith.packs: packed
    (_mul_packed, wherever the grid is not empty) and term pairs store
    the same (_d, _t)."""
    got, want = jacobian_det(H), _jacobian_oracle(H)
    assert got == want
    assert [type(c) for _, c in got.terms()] == [type(c) for _, c in want.terms()]
    _assert_stored_reduced(got)
    f, g = H.first, H.second
    grid = (max(f.degree_x(), 0) + max(g.degree_x(), 0)) * (max(f.degree_y(), 0) + max(g.degree_y(), 0))
    for on in (True, False):
        with mock.patch.object(arith, "packs", lambda cells, m, n: on), \
                mock.patch.object(arith, "_mul_packed", wraps=arith._mul_packed) as packed:
            forced = arith._jacobian(f, g)
        assert packed.called is (on and grid > 0)
        assert (forced._d, forced._t) == (got._d, got._t)
    return got


# f and g of TestJacobian.test_sparse_degree_5000: few terms, a dense
# grid of 5,000 x 5,000 digits.
SPARSE_F = "x^3000*y^2000 + y"
SPARSE_G = "x + 3*x^2000*y^3000"
SPARSE_JACOBIAN = "15000000*x^4999*y^4999 - 2000*x^3000*y^1999 - 6000*x^1999*y^3000 - 1"


class TestJacobian:
    @given(bipolys, bipolys)
    def test_matches_oracle(self, f, g):
        _assert_jacobian(PolyMap(f, g))

    def test_seeded_maps_hit_both_strategies(self, rng):
        packed = set()
        for _ in range(200):
            deg, bound = rng.randint(1, 6), rng.choice((3, 2**70))
            f, g = random_bipoly(rng, deg, bound), random_bipoly(rng, deg, bound)
            if rng.random() < 0.3:  # sparse: a few high-degree terms
                f = f + BiPoly({(rng.randint(0, 40), rng.randint(0, 40)): rng.randint(-bound, bound)})
            _assert_jacobian(PolyMap(f, g))
            if f and g:
                grid = (f.degree_x() + g.degree_x()) * (f.degree_y() + g.degree_y())
                nf, ng = len(f.support()), len(g.support())
                packed.add(grid > 0 and grid + 2 * (nf + ng) <= nf * ng)
        assert packed == {True, False}

    def test_zero_and_constant_components(self, rng):
        for _ in range(10):
            f = random_bipoly(rng, 3, 9)
            for c in (BiPoly.zero(), BiPoly.constant(7), BiPoly.constant(Fraction(-2, 3))):
                assert _assert_jacobian(PolyMap(f, c)).is_zero()
                assert _assert_jacobian(PolyMap(c, f)).is_zero()
        assert _assert_jacobian(PolyMap(BiPoly.x(), BiPoly.zero())).is_zero()
        assert _assert_jacobian(PolyMap(BiPoly.y() * 5, BiPoly.x())) == BiPoly.constant(-5)

    def test_coefficients_past_64_bits_with_negative_top_digits(self):
        big = 2**64 + 12345
        X, Y = BiPoly.x(), BiPoly.y()
        H = PolyMap(X * -big + Y**2 * (3 * big), X**3 * big + X * Y * (big + 1) - Y)
        jac = _assert_jacobian(H)
        # y^2 is the top packed digit, x^2*y the one below it.
        assert jac == BiPoly({
            (0, 2): -6 * big * (big + 1), (2, 1): -18 * big**2, (1, 0): -big * (big + 1), (0, 0): big,
        })
        # One nonconstant component more, still a single negative digit.
        H2 = PolyMap(X * -big + Y**3 * big, Y * big)
        assert _assert_jacobian(H2) == BiPoly.constant(-(big**2))

    def test_digit_at_the_sign_bit(self):
        """A coefficient of 2^(8k - 1) needs the sign bit above its own
        bits: in a digit of 8k bits it would read back negative."""
        for e in (7, 8, 15, 63, 64, 127):
            for c in (2**e, -(2**e), 2**e - 1):
                H = PolyMap(BiPoly.x(), BiPoly({(0, 1): c}))
                assert _assert_jacobian(H) == BiPoly.constant(c)

    def test_fractional_map_with_integral_jacobian_stores_ints(self, rng):
        for _ in range(20):
            f, g = random_bipoly(rng, 3, 5), random_bipoly(rng, 3, 5)
            H = PolyMap(f * Fraction(2, 3), g * Fraction(3, 2))
            jac = _assert_jacobian(H)
            assert jac == jacobian_det(PolyMap(f, g))
            assert all(type(c) is int for _, c in jac.terms())
        half = PolyMap(BiPoly({(1, 0): Fraction(1, 2), (0, 2): Fraction(1, 3)}), BiPoly({(0, 1): 2}))
        assert jacobian_det(half).terms() == [((0, 0), 1)]
        assert type(jacobian_det(half).constant_value()) is int

    def test_fractional_jacobian_is_reduced(self):
        H = PolyMap(BiPoly({(1, 0): Fraction(1, 6), (1, 1): 1}), BiPoly({(0, 1): Fraction(3, 4)}))
        assert _assert_jacobian(H) == BiPoly({(0, 0): Fraction(1, 8), (0, 1): Fraction(3, 4)})

    def test_sparse_degree_5000(self):
        """A Jacobian checked by hand, on a map whose dense grid has 25
        million cells: f_x*g_y = 27,000,000*x^4999*y^4999 and f_y*g_x =
        (2000*x^3000*y^1999 + 1)*(1 + 6000*x^1999*y^3000)."""
        H = PolyMap(parse_bipoly(SPARSE_F), parse_bipoly(SPARSE_G))
        start = time.perf_counter()
        jac = jacobian_det(H)
        assert time.perf_counter() - start < 2.0
        assert jac.render() == SPARSE_JACOBIAN
        assert jac == _jacobian_oracle(H)

    def test_huge_degree_in_one_variable_only(self):
        """With no y (or no x) in either component, or one component
        zero, the Jacobian is 0 however high the degree: no grid is
        built."""
        X, Y = BiPoly.x(), BiPoly.y()
        big = BiPoly({(10**9, 0): 1})
        # Ten terms each: the term pairs outweigh the packing's work, so
        # only the empty-grid check keeps 10^9 digits from being packed.
        many = BiPoly({(10**9 - k, 0): k + 1 for k in range(10)})
        many_y = BiPoly({(0, 10**9 - k): k - 5 for k in range(10)})
        maps = [
            PolyMap(big, X), PolyMap(X, big), PolyMap(BiPoly.zero(), big), PolyMap(big, BiPoly.zero()),
            PolyMap(BiPoly({(0, 10**9): 3}), Y * 2 + 1), PolyMap(big + 1, BiPoly.constant(5)),
            PolyMap(many, many + X), PolyMap(many_y * 2, many_y + 7),
        ]
        start = time.perf_counter()
        for H in maps:
            assert jacobian_det(H).is_zero()
            assert _jacobian_oracle(H).is_zero()
        # The empty-grid check comes before the size rule: forced to pack,
        # the kernel still builds no grid.
        with mock.patch.object(arith, "packs", lambda cells, m, n: True):
            for H in maps:
                assert arith._jacobian(H.first, H.second).is_zero()
        assert time.perf_counter() - start < 2.0


@pytest.fixture
def kernel_runs(monkeypatch):
    """The (f, g) numerator dicts of every run of jacobian_det's kernel,
    arith._jacobian."""
    runs = []
    kernel = arith._jacobian

    def counted(p, q):
        runs.append((dict(p._t), dict(q._t)))
        return kernel(p, q)

    monkeypatch.setattr(arith, "_jacobian", counted)
    return runs


class TestJacobianMemo:
    """jacobian_det answers a pair of component objects it computed in one
    of its last arith._JACOBIANS_KEPT calls without running a kernel."""

    def test_same_objects_reuse_the_determinant(self, kernel_runs, rng):
        f, g = random_bipoly(rng, 4, 9) + BiPoly.x(), random_bipoly(rng, 4, 9) + BiPoly.y()
        first = jacobian_det(PolyMap(f, g))
        assert len(kernel_runs) == 1
        again = jacobian_det(PolyMap(f, g))
        assert again is first and len(kernel_runs) == 1
        assert again == _jacobian_oracle(PolyMap(f, g))

    def test_equal_but_distinct_objects_recompute(self, kernel_runs):
        f, g = parse_bipoly("x + y^2"), parse_bipoly("y")
        first = jacobian_det(PolyMap(f, g))
        for H in (PolyMap(parse_bipoly("x + y^2"), g), PolyMap(f, parse_bipoly("y"))):
            assert jacobian_det(H) == first
        assert len(kernel_runs) == 3
        # (g, f) is another pair of the same objects, with the opposite sign.
        assert jacobian_det(PolyMap(g, f)) == -first
        assert len(kernel_runs) == 4

    def test_oldest_pair_recomputed_past_the_bound(self, kernel_runs):
        kept = arith._JACOBIANS_KEPT
        maps = [PolyMap(BiPoly.x() + BiPoly.y() ** (k + 2), BiPoly.y()) for k in range(kept + 1)]
        for H in maps[:-1]:
            jacobian_det(H)
        for H in maps[:-1]:  # all kept
            jacobian_det(H)
        assert len(kernel_runs) == kept
        jacobian_det(maps[-1])  # one pair more drops the oldest
        jacobian_det(maps[0])
        assert len(kernel_runs) == kept + 2
        assert kernel_runs[-1] == (maps[0].first._t, maps[0].second._t)

    def test_recognition_then_similarity_runs_the_kernel_once_per_map(self, kernel_runs):
        """decide_automorphism asks the gate on H and on the map its peel
        leaves; similarity_check on H's components asks about H again."""
        H = PolyMap(parse_bipoly("x + 2*y^2"), parse_bipoly("y + 3*x^2 + 12*x*y^2 + 12*y^4"))
        word = decide_automorphism(H)
        report = similarity_check(H.first, H.second)
        assert factorization_to_map(word) == H and report.jacobian == BiPoly.one()
        assert len(kernel_runs) == 2
        assert kernel_runs[0] == (H.first._t, H.second._t)
        assert kernel_runs[1] != kernel_runs[0]
        # A peel that does nothing leaves H itself to invert_low_degree.
        decide_automorphism(PolyMap(parse_bipoly("x + y^2"), parse_bipoly("y")))
        assert len(kernel_runs) == 3


class TestParametrization:
    def test_degree(self):
        gamma = Parametrization(UniPoly({2: 1}), UniPoly({3: 1}))
        assert gamma.degree() == 3
        assert Parametrization(UniPoly.zero(), UniPoly.zero()).degree() is NEG_INF

    def test_render_uses_t(self):
        gamma = Parametrization(UniPoly({2: 1}), UniPoly({1: -1, 0: 4}))
        assert gamma.render() == "(t^2, -t + 4)"

    def test_polymap_on_param(self, rng):
        H = PolyMap(random_bipoly(rng, 2, 3), random_bipoly(rng, 2, 3))
        gamma = Parametrization(random_unipoly(rng, 3, 3), random_unipoly(rng, 3, 3))
        image = polymap_on_param(H, gamma)
        for _ in range(6):
            t = random_fraction(rng)
            assert image.evaluate(t) == H.evaluate(*gamma.evaluate(t))


class TestLine:
    def test_invalid(self):
        with pytest.raises(InvalidLine):
            Line(0, 0, 5)

    def test_float_rejected(self):
        for coeffs in ((0.1, 1, 0), (1, 0.5, 0), (1, 1, 2.0)):
            with pytest.raises(TypeError, match="float"):
                Line(*coeffs)

    def test_integral_fractions_stored_as_int(self):
        line = Line(Fraction(4, 2), Fraction(1, 3), Fraction(-3, 1))
        assert (type(line.a), type(line.b), type(line.c)) == (int, Fraction, int)
        assert line == Line(2, Fraction(1, 3), -3)
        assert line.to_json_dict() == {"a": [2, 1], "b": [1, 3], "c": [-3, 1]}

    def test_render(self):
        assert Line(2, 3, Fraction(1, 2)).render() == "2*x + 3*y + 1/2 = 0"
        assert Line(1, 0, 0).render() == "x = 0"

    def test_parametrization_lies_on_line(self, rng):
        for _ in range(12):
            a = random_fraction(rng)
            b = random_fraction(rng)
            c = random_fraction(rng)
            if not a and not b:
                a = Fraction(1)
            line = Line(a, b, c)
            L = line_parametrization(line)
            s1, s2 = L.apply((UniPoly.x(), UniPoly.zero()))
            assert (a * s1 + b * s2 + UniPoly.constant(c)).is_zero()
            # The parametrization is degree 1, so it covers the whole line.
            assert max(s1.degree(), s2.degree()) == 1

    def test_restrict_to_line_is_composition(self, rng):
        H = PolyMap(random_bipoly(rng, 3, 3), random_bipoly(rng, 3, 3))
        line = Line(2, 3, Fraction(1, 2))
        gamma, L = restrict_to_line(H, line)
        s1, s2 = L.apply((UniPoly.x(), UniPoly.zero()))
        for _ in range(6):
            t = random_fraction(rng)
            pt = (s1(t), s2(t))
            assert line.a * pt[0] + line.b * pt[1] + line.c == 0
            assert gamma.evaluate(t) == H.evaluate(*pt)

    def test_vertical_line(self):
        # b = 0: the canonical parametrization walks the line x = -c/a.
        line = Line(2, 0, -6)
        L = line_parametrization(line)
        s1, s2 = L.apply((UniPoly.x(), UniPoly.zero()))
        assert s1 == UniPoly.constant(3)
        assert s2 == UniPoly.x()

    def test_json(self):
        assert Line(1, Fraction(1, 2), 0).to_json_dict() == {
            "a": [1, 1],
            "b": [1, 2],
            "c": [0, 1],
        }

    def test_frac_pair(self):
        assert frac_pair(3) == [3, 1]
        assert frac_pair(Fraction(-2, 4)) == [-1, 2]


# ---------------------------------------------------------------------------
# Resultants and bivariate gcd
# ---------------------------------------------------------------------------


class TestResultant:
    def test_known_linear_pair(self):
        # Res_y(y - x^2, y - x^3) = x^2 - x^3 by the 2x2 Sylvester matrix.
        p = BiPoly({(0, 1): 1, (2, 0): -1})
        q = BiPoly({(0, 1): 1, (3, 0): -1})
        assert resultant_y(p, q) == UniPoly({2: 1, 3: -1})

    def test_degenerate_inputs_rejected(self):
        p = BiPoly({(0, 1): 1})
        with pytest.raises(DegenerateResultant):
            resultant_y(p, BiPoly({(2, 0): 1}))
        with pytest.raises(DegenerateResultant):
            resultant_y(BiPoly.zero(), p)

    def test_matches_sylvester_oracle(self, rng):
        checked = 0
        while checked < 25:
            p = random_bipoly(rng, 3, 3)
            q = random_bipoly(rng, 3, 3)
            dp, dq = p.degree_y(), q.degree_y()
            if not (isinstance(dp, int) and dp > 0 and isinstance(dq, int) and dq > 0):
                continue
            assert resultant_y(p, q) == resultant_oracle(p, q)
            checked += 1

    def test_swap_sign(self, rng):
        checked = 0
        while checked < 10:
            p = random_bipoly(rng, 3, 3)
            q = random_bipoly(rng, 3, 3)
            dp, dq = p.degree_y(), q.degree_y()
            if not (isinstance(dp, int) and dp > 0 and isinstance(dq, int) and dq > 0):
                continue
            sign = (-1) ** (dp * dq)
            assert resultant_y(p, q) == sign * resultant_y(q, p)
            checked += 1

    @staticmethod
    def _fractional_pair(rng, dp, dq):
        """Random p, q with y-degrees exactly dp and dq, x-degree <= 2 and
        Fraction coefficients with denominators up to 7."""

        def draw(dy):
            terms = {
                (i, j): Fraction(rng.randint(-6, 6), rng.randint(1, 7))
                for i in range(3)
                for j in range(dy + 1)
                if rng.random() < 0.6
            }
            terms[(rng.randint(0, 2), dy)] = Fraction(rng.randint(1, 6), rng.randint(2, 7))
            return BiPoly(terms)

        return draw(dp), draw(dq)

    @pytest.mark.parametrize("dp, dq", [(3, 1), (2, 2), (1, 3), (3, 3), (1, 2)])
    def test_fractional_matches_sylvester_oracle(self, rng, dp, dq):
        # (1, 3) and (3, 3) have dp < dq or dp = dq with an odd product of
        # degrees, so the sign of the swapped sequence is exercised too.
        for _ in range(6):
            p, q = self._fractional_pair(rng, dp, dq)
            got = resultant_y(p, q)
            assert got == resultant_oracle(p, q)
            _assert_stored_reduced(got)

    def test_scaling_property(self, rng):
        # res(c*p, d*q) = c^deg_y(q) * d^deg_y(p) * res(p, q).
        for _ in range(12):
            p, q = self._fractional_pair(rng, rng.randint(1, 3), rng.randint(1, 3))
            c = Fraction(rng.randint(1, 9), rng.randint(1, 7)) * rng.choice((-1, 1))
            d = Fraction(rng.randint(1, 9), rng.randint(1, 7)) * rng.choice((-1, 1))
            scale = c ** q.degree_y() * d ** p.degree_y()
            assert resultant_y(p * c, q * d) == resultant_y(p, q) * scale

    def test_integral_resultant_of_fractional_inputs_is_int(self):
        # Res_y(y/2 - x/3, 2y/3 + x^2) = det [[1/2, -x/3], [2/3, x^2]]
        # = x^2/2 + 2x/9; scaled by 18 the coefficients are ints.
        p = BiPoly({(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 3)})
        q = BiPoly({(0, 1): Fraction(2, 3), (2, 0): 1})
        assert resultant_y(p, q) == UniPoly({2: Fraction(1, 2), 1: Fraction(2, 9)})
        got = resultant_y(p * 6, q * 9)
        assert got == UniPoly({2: 27, 1: 12})
        assert all(type(v) is int for _, v in got.terms())

    def test_integer_quotient_is_exact_or_raises(self, monkeypatch):
        """_primitive_part divides each row by the content in Z[x], and an
        inexact division raises rather than truncates."""
        # (x^2 - 1)*y + (x + 1) over its content x + 1 is (x - 1)*y + 1.
        h = [_pack(_terms(row).items(), 2) for row in ([-1, 0, 1], [1, 1])]
        assert _primitive_part(h, 2) == BiPoly({(1, 1): 1, (0, 1): -1, (0, 0): 1})
        # A content patched to one that does not divide the row: a nonzero
        # remainder, or a zero one under a quotient outside Z[x].
        for row, c in (([1, 0, 1], [1, 1]), ([1], [0, 1]), ([3, 6], [0, 3]), ([0, 1], [0, 2])):
            monkeypatch.setattr(arith, "_content", lambda rows, c=c: UniPoly(_terms(c)))
            with pytest.raises(ValueError):
                _primitive_part([_pack(_terms(row).items(), 2)], 2)

    def test_common_factor_forces_zero(self, rng):
        g = BiPoly({(0, 1): 1, (1, 0): -1})  # y - x
        for _ in range(5):
            u = random_bipoly(rng, 2, 2)
            v = random_bipoly(rng, 2, 2)
            p, q = g * u + g, g * v + g  # both multiples of g, never zero as factors
            if p.degree_y() is NEG_INF or q.degree_y() is NEG_INF:
                continue
            if not (p.degree_y() and q.degree_y()):
                continue
            assert resultant_y(p, q).is_zero()


def _random_row(rng, max_len=6, bound=9):
    """A Z[x] row: lowest power first, no trailing zero, zeros inside."""
    row = [rng.choice((0, rng.randint(-bound, bound))) for _ in range(rng.randint(0, max_len))]
    if row:
        row[-1] = rng.choice((-1, 1)) * rng.randint(1, bound)
    return row


def _naive_product(a, b):
    """a*b in Z[x], coefficient by coefficient from the Cauchy sum."""
    n = len(a) + len(b) - 1
    return _strip([sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
                   for k in range(n)])


def _naive_sum(a, b):
    n = max(len(a), len(b))
    return _strip([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)])


def _strip(row):
    while row and not row[-1]:
        row.pop()
    return row


def _terms(row):
    """A dense Z[x] row as the {i: n} term dict the sequence's rows use."""
    return {i: n for i, n in enumerate(row) if n}


class TestIntegerRowKernels:
    """UniPoly.__divmod__, the division of _primitive_part's content step,
    against a naive dense product, with [] and length-1 operands on either
    side."""

    def _pairs(self, rng):
        edge = [[], [5], [-1], [0, 3], [2, 0, -7]]
        for a in edge:
            for b in edge:
                yield a, b
        for _ in range(300):
            a, b = _random_row(rng), _random_row(rng)
            yield a, b
            yield [rng.choice((-1, 1)) * rng.randint(1, 2**70)], b
            yield a, [rng.choice((-1, 1)) * rng.randint(1, 9)]

    def test_quotient(self, rng):
        for q, b in self._pairs(rng):
            if not b:
                continue
            a, quotient, divisor = _naive_product(q, b), UniPoly(_terms(q)), UniPoly(_terms(b))
            assert divmod(UniPoly(_terms(a)), divisor) == (quotient, UniPoly.zero())
            r = _random_row(rng, len(b) - 1)
            if r:  # deg r < deg b, so r is the remainder of a + r
                got = divmod(UniPoly(_terms(_naive_sum(a, r))), divisor)
                assert got == (quotient, UniPoly(_terms(r)))


def _integer_pair_poly(rng, dy, bound=9, dx=3):
    """A BiPoly of y-degree exactly dy with int coefficients of both signs,
    whose y-leading coefficient is a polynomial in x (of degree >= 1 when
    dx >= 1)."""
    terms = {(i, j): rng.randint(-bound, bound) for i in range(dx + 1) for j in range(dy)
             if rng.random() < 0.7}
    for i in range(dx + 1):
        terms[(i, dy)] = rng.choice((-1, 1)) * rng.randint(1, bound)
    return BiPoly(terms)


def _sylvester_bound_bits(p: BiPoly, q: BiPoly) -> int:
    """Bit length of isqrt(M^2) + 1, M the Goldstein-Graham bound
    prod over Sylvester rows of the 2-norm of its entries' 1-norms."""
    def sum_of_squares(w):
        return sum(sum(abs(c) for (_, j), c in w.terms() if j == k) ** 2
                   for k in range(w.degree_y() + 1))

    m2 = sum_of_squares(p) ** q.degree_y() * sum_of_squares(q) ** p.degree_y()
    return (isqrt(m2) + 1).bit_length()


def _prem_full_pass(f, g):
    """lc(g)^(d + 1) * f modulo g in d + 1 passes that each rebuild every
    remaining row, d = len(f) - len(g): the reference for the windowed
    subresultant._prem."""
    lc, n = g[0], len(f) - len(g)
    tail = g[1:] + [0] * n
    r = f
    for _ in range(n + 1):
        a = r[0]
        r = [lc * u - a * v for u, v in zip(r[1:], tail)]
    return r


@contextlib.contextmanager
def _prem_spy():
    """Patches subresultant._prem to count its calls in the list it yields."""
    prem, calls = subresultant._prem, []

    def counted(f, g):
        calls.append(1)
        return prem(f, g)

    with mock.patch.object(subresultant, "_prem", counted):
        yield calls


class TestPackedSequence:
    """The subresultant sequence on rows packed into ints, through
    resultant_y, gcd_bivariate and gcd_univariate, against the Sylvester
    cofactor oracle and planted gcds."""

    # Sylvester matrices of size at most 6 keep the cofactor oracle fast;
    # (4, 1), (5, 1), (1, 5) and (4, 2) have a long first pseudo-division.
    DEGREES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (3, 3), (4, 1), (5, 1), (1, 5), (4, 2)]

    @pytest.mark.parametrize("dp, dq", DEGREES)
    def test_resultant_matches_oracle(self, rng, dp, dq):
        for _ in range(5):
            p, q = _integer_pair_poly(rng, dp), _integer_pair_poly(rng, dq)
            assert resultant_y(p, q) == resultant_oracle(p, q)

    def test_long_first_division_uses_two_cell_sizes(self, rng):
        # The first remainder of y-degrees 4 and 2 is bounded by
        # M_1^2 = sf * sg^3, below M^2 = sf^2 * sg^4, so it runs at smaller
        # cells and moves to the larger ones after.
        for p, q in [(_integer_pair_poly(rng, 4, bound=2**30), _integer_pair_poly(rng, 2))
                     for _ in range(4)]:
            for a, b in ((p, q), (q, p)):
                first, last = _pack_rows(arith._rows(a)[0], arith._rows(b)[0])[2]
                assert first < last
                assert resultant_y(a, b) == resultant_oracle(a, b)

    def test_degree_gap_in_the_sequence(self, rng):
        # f = u*g + r with deg_y r <= deg_y g - 2: the first remainder drops
        # two degrees, so the sequence is defective.
        for _ in range(8):
            g = _integer_pair_poly(rng, 3, dx=2)
            f = _integer_pair_poly(rng, 1, dx=1) * g + _integer_pair_poly(rng, rng.randint(0, 1))
            assert resultant_y(f, g) == resultant_oracle(f, g)

    def test_common_factor_gives_zero_and_its_gcd(self, rng):
        for _ in range(10):
            g = _integer_pair_poly(rng, rng.randint(1, 2), dx=2)
            a = g * _integer_pair_poly(rng, rng.randint(1, 3), dx=2)
            b = g * _integer_pair_poly(rng, rng.randint(0, 2), dx=2)
            assert resultant_y(a, b).is_zero()
            assert gcd_bivariate(a, b) == g.monic()
            assert gcd_bivariate(b, a) == g.monic()

    def test_univariate_gcd_of_planted_factors(self, rng):
        for _ in range(30):
            p, q, g = (random_unipoly(rng, 5, 2**40) for _ in range(3))
            if not (p and q and g):
                continue
            got = gcd_univariate(p * g, q * g)
            assert got == _euclid_gcd(p * g, q * g)
            assert not divmod(got, g.monic())[1]

    @pytest.mark.parametrize("residue", [7, 0])
    def test_bound_at_a_byte_edge(self, rng, residue):
        """A bound of 8k - 1 bits fills k bytes with its sign bit; one of 8k
        bits needs a new byte.  Both give the oracle's resultant."""
        found = 0
        while found < 3:
            p = _integer_pair_poly(rng, 2, bound=rng.randint(2, 2**20), dx=2)
            q = _integer_pair_poly(rng, 1, bound=rng.randint(2, 2**20), dx=2)
            bits = _sylvester_bound_bits(p, q)
            if bits % 8 != residue or bits < 16:
                continue
            assert _pack_rows(arith._rows(p)[0], arith._rows(q)[0])[2] == ((bits + 8) // 8,) * 2
            assert resultant_y(p, q) == resultant_oracle(p, q)
            found += 1

    @pytest.mark.parametrize("k", [1, 2, 3, 9])
    def test_digits_at_the_cell_edge(self, k):
        top = 2 ** (8 * k - 1)
        assert cell_bytes(top - 1) == k and cell_bytes(top) == k + 1
        X = 2 ** (8 * k)
        for n in (top - 1, 1 - top, -top):
            assert digits(n + n * X**3, k) == {0: n, 3: n}
        assert digits(top - 1 - top * X + (1 - top) * X**2, k) == {0: top - 1, 1: -top, 2: 1 - top}

    def test_cells_are_symmetric(self):
        # The order of f and g does not change the bound: rows of 1-norms
        # 3, 5, 7, 2 and a row of 1-norm 4.
        assert _cells(3, 87, 0, 16) == _cells(0, 16, 3, 87)

    def test_windowed_prem_matches_full_pass(self, rng):
        """The window against d + 1 passes over every remaining row, on
        rows with zero and negative entries; f = u*g + r has remainder
        lc^(d + 1)*r, leading zero rows of r kept."""
        def row():
            return rng.choice((0, 0, 1, -1, rng.randint(-2**70, 2**70)))

        for d in range(41):
            for k in range(2, 7):
                g = [rng.choice((1, -1)) * rng.randint(1, 2**70)] + [row() for _ in range(k - 1)]
                f = [row() for _ in range(d + k)]
                assert subresultant._prem(f, g) == _prem_full_pass(f, g)
                u, r = [row() for _ in range(d + 1)], [0] * rng.randint(1, k - 1)
                r += [row() for _ in range(k - 1 - len(r))]
                f = [sum(u[i] * g[s - i] for i in range(max(0, s - k + 1), min(s, d) + 1))
                     for s in range(d + k)]
                f[d + 1 :] = [a + b for a, b in zip(f[d + 1 :], r)]
                copy = list(f)
                got = subresultant._prem(f, g)
                assert got == _prem_full_pass(f, g) == [g[0] ** (d + 1) * c for c in r]
                assert f == copy

    def test_short_divisor_is_not_quadratic(self):
        # A two-row divisor under a 2001-row dividend: full passes rebuilt
        # every remaining row at each of 2000 steps and took about 30
        # times as long as the window, which updates one row per step.
        x = UniPoly.x()
        f, g = x**2000 + 1, 2 * x + 1
        start = time.perf_counter()
        for _ in range(10):
            assert gcd_univariate(f, g) == UniPoly.one()
        assert time.perf_counter() - start < 0.5

    def test_inexact_division_raises(self):
        # A remainder off by one is no longer divisible by beta = -lc*c^d.
        p = BiPoly({(0, 3): 2, (1, 2): 3, (0, 1): 5, (2, 0): 7})
        q = BiPoly({(0, 2): 2, (1, 1): -3, (0, 0): 4})
        resultant_y(p, q)
        prem, calls = subresultant._prem, []

        def off_by_one(f, g):
            calls.append(1)
            r = prem(f, g)
            return r if len(calls) == 1 else [u + 1 for u in r]

        with mock.patch.object(subresultant, "_prem", off_by_one):
            with pytest.raises(ValueError, match="inexact"):
                resultant_y(p, q)

    # Sylvester matrices up to 4 by 4, rows of lengths 2 and 3, take
    # subresultant._sylvester's closed forms: the cofactor determinant in
    # value and sign, no pseudo-division when it is nonzero, and the
    # sequence's gcd when it is zero.
    SMALL = [(1, 1), (2, 1), (1, 2), (2, 2)]

    @staticmethod
    def _cofactor(f, g, nb):
        """The cofactor Sylvester determinant of rows f and g, f on top,
        packed at nb (plain ints for nb = 0), as a UniPoly."""
        def row(v):
            return UniPoly(digits(v, nb) if nb else {0: v})

        return det_cofactor(sylvester_matrix([row(v) for v in f], [row(v) for v in g]))

    @pytest.mark.parametrize("lf, lg", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_closed_form_on_ints_matches_cofactors(self, rng, lf, lg):
        def rows(k):
            return [rng.choice((1, -1)) * rng.randint(1, 2**40)] + [
                rng.choice((0, 1, -1, rng.randint(-2**40, 2**40))) for _ in range(k - 1)]

        nonzero = 0
        for _ in range(200):
            f, g = rows(lf), rows(lg)
            for a, b in ((f, g), (g, f)):
                want = self._cofactor(a, b, 0).coeff(0)
                h, s = subresultant._subresultants(a, b, (0, 0))
                if want:
                    nonzero += 1
                    assert (h, s) == ([want], want)
                else:  # a shared root: the sequence's gcd, of degree >= 1
                    assert len(h) > 1
        assert nonzero > 300

    @pytest.mark.parametrize("dp, dq", SMALL)
    def test_closed_form_on_packed_rows_matches_cofactors(self, rng, dp, dq):
        for _ in range(20):
            p, q = _integer_pair_poly(rng, dp, bound=2**20), _integer_pair_poly(rng, dq)
            for a, b in ((p, q), (q, p)):
                F, G, cells = _pack_rows(arith._rows(a)[0], arith._rows(b)[0])
                assert cells[0] == cells[1]
                h, s = subresultant._subresultants(F, G, cells)
                want = self._cofactor(F, G, cells[0])
                assert want and want == resultant_oracle(a, b)
                assert h == [s] and UniPoly(digits(s, cells[1])) == want

    @pytest.mark.parametrize("dp, dq", SMALL)
    def test_nonzero_small_determinant_runs_no_pseudo_division(self, rng, dp, dq):
        pairs = [(_integer_pair_poly(rng, dp), _integer_pair_poly(rng, dq)) for _ in range(10)]
        plain = [(random_unipoly(rng, 0, 9, nonzero=True) + UniPoly({dp: 2, 0: 1}),
                  UniPoly({dq: 3, 1: -1, 0: 5})) for _ in range(10)]
        with _prem_spy() as calls:
            for p, q in pairs:
                assert resultant_y(p, q) == resultant_oracle(p, q) != UniPoly.zero()
            for u, v in plain:
                assert gcd_univariate(u, v) == _euclid_gcd(u, v) == UniPoly.one()
        assert calls == []

    def test_zero_and_six_by_six_determinants_run_the_sequence(self, rng):
        g = BiPoly({(0, 1): 2, (1, 0): -3, (0, 0): 1})  # 2y - 3x + 1
        p, q = g * _integer_pair_poly(rng, 1, dx=1), g * BiPoly({(2, 0): 1, (0, 0): 5})
        with _prem_spy() as calls:
            assert resultant_y(p, q).is_zero()
        assert calls
        p, q = _integer_pair_poly(rng, 3), _integer_pair_poly(rng, 3)
        with _prem_spy() as calls:
            assert resultant_y(p, q) == resultant_oracle(p, q)
        assert calls

    def test_planted_common_factors_in_small_matrices(self, rng):
        for _ in range(20):
            g = _integer_pair_poly(rng, 1, dx=2)
            a = g * _integer_pair_poly(rng, rng.randint(0, 1), dx=1)
            b = g * _integer_pair_poly(rng, rng.randint(0, 1), dx=1)
            F, G, _ = _pack_rows(arith._rows(a)[0], arith._rows(b)[0])
            assert subresultant._sylvester(*sorted((F, G), key=len, reverse=True)) == 0
            assert resultant_y(a, b).is_zero()
            assert gcd_bivariate(a, b) == gcd_bivariate(b, a) == g.monic()
            w = UniPoly({1: rng.choice((1, -1)) * rng.randint(1, 99), 0: rng.randint(-99, 99)})
            p = w * random_unipoly(rng, 1, 2**30, nonzero=True)
            q = w * UniPoly({1: rng.randint(1, 99), 0: rng.randint(-99, 99)})
            assert gcd_univariate(p, q) == gcd_univariate(q, p) == w.monic()


class TestGcdBivariate:
    def test_known_products(self):
        g = BiPoly({(1, 1): 2, (0, 0): 4})  # 2xy + 4
        u = BiPoly({(1, 0): 1, (0, 0): 1})  # x + 1
        v = BiPoly({(0, 1): 1, (0, 0): 3})  # y + 3
        got = gcd_bivariate(g * u, g * v)
        assert got == g.monic()

    def test_random_products_with_coprime_cofactors(self, rng):
        u = BiPoly({(1, 0): 1, (0, 0): 1})
        v = BiPoly({(0, 1): 1, (0, 0): -2})
        for _ in range(8):
            g = random_bipoly(rng, 2, 3)
            if g.is_zero() or g.is_constant():
                continue
            assert gcd_bivariate(g * u, g * v) == g.monic()

    def test_x_content_times_y_factor(self):
        # Common factor (x + 1)*(y - x^2): the x-content of the gcd comes
        # from the contents, its y-factor from the remainder sequence.
        common = BiPoly({(1, 0): 1, (0, 0): 1}) * BiPoly({(0, 1): 1, (2, 0): -1})
        a = common * BiPoly({(1, 0): 1, (0, 0): -2}) * BiPoly({(0, 1): 1, (0, 0): 1})
        b = common * BiPoly({(1, 0): 1}) * BiPoly({(0, 2): 1, (0, 0): 3})
        assert gcd_bivariate(a, b) == common.monic()
        assert gcd_bivariate(b, a) == common.monic()

    def test_remainder_degree_drops_by_two(self):
        # prem(y^4 + 2y + x, y^3 + x) = (2 - x)*y + x: y-degree 3 -> 1.
        common = BiPoly({(0, 1): 1, (1, 0): 1})  # y + x
        a = BiPoly({(0, 4): 1, (0, 1): 2, (1, 0): 1})
        b = BiPoly({(0, 3): 1, (1, 0): 1})
        assert resultant_y(a, b) == resultant_oracle(a, b)
        assert gcd_bivariate(a, b) == BiPoly.one()
        assert gcd_bivariate(common * a, common * b) == common

    def test_fractional_common_factor(self):
        g = BiPoly({(1, 0): Fraction(1, 2), (0, 1): Fraction(3, 5), (0, 0): 1})
        u = BiPoly({(0, 1): Fraction(2, 7), (2, 0): Fraction(-1, 3), (0, 0): Fraction(5, 4)})
        v = BiPoly({(0, 2): Fraction(3, 2), (1, 1): Fraction(1, 6), (1, 0): Fraction(-2, 9)})
        assert gcd_bivariate(g * u, g * v) == g.monic()
        assert gcd_bivariate(g * v, g * u) == g.monic()
        # An x-content in the common factor comes through the contents.
        h = g * BiPoly({(1, 0): Fraction(3, 4), (0, 0): Fraction(-1, 2)})
        assert gcd_bivariate(h * u, h * v) == h.monic()
        assert gcd_bivariate(h * v, h * u) == h.monic()

    def test_coprime_gives_one(self):
        p = BiPoly({(1, 0): 1, (0, 1): 1})  # x + y
        q = BiPoly({(1, 0): 1, (0, 1): -1, (0, 0): 1})  # x - y + 1
        assert gcd_bivariate(p, q) == BiPoly.one()

    def test_with_zero(self):
        p = BiPoly({(2, 0): 3})
        assert gcd_bivariate(p, BiPoly.zero()) == p.monic()
        assert gcd_bivariate(BiPoly.zero(), BiPoly.zero()).is_zero()

    def test_gcd_divides_inputs_by_evaluation(self, rng):
        # Spot check: the reported gcd vanishes wherever both inputs vanish
        # along a shared factor; verified on constructed examples above, and
        # here the gcd of p with itself is its normalization.
        p = random_bipoly(rng, 3, 3)
        if not p.is_zero():
            assert gcd_bivariate(p, p) == p.monic()
