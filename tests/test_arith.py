"""Exact arithmetic kernel: polynomials, maps, resultants."""

import random
from fractions import Fraction

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
    gcd_bivariate,
    gcd_univariate,
    jacobian_det,
    polymap_on_param,
    restrict_to_line,
    resultant_y,
)
from kellerkit.arith import frac_pair, line_parametrization, normalize_leading

from conftest import (
    assert_bipoly_equal_by_eval,
    eval_bipoly_naive,
    eval_unipoly_naive,
    random_bipoly,
    random_fraction,
    random_unipoly,
    resultant_oracle,
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

    @given(unipolys, unipolys)
    def test_divmod_identity(self, p, q):
        if q.is_zero():
            with pytest.raises(ZeroDivisionError):
                divmod(p, q)
            return
        quo, rem = divmod(p, q)
        assert quo * q + rem == p
        assert rem.is_zero() or rem.degree() < q.degree()

    def test_divmod_known(self):
        p = UniPoly({3: 1, 0: -1})
        q = UniPoly({1: 1, 0: -1})
        quo, rem = divmod(p, q)
        assert quo == UniPoly({2: 1, 1: 1, 0: 1})
        assert rem.is_zero()

    def test_exact_div_rejects_remainder(self):
        with pytest.raises(ValueError):
            UniPoly({1: 1, 0: 1}).exact_div(UniPoly({1: 2}))

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

    @given(unipolys, unipolys)
    def test_gcd_divides_both(self, p, q):
        g = gcd_univariate(p, q)
        if g.is_zero():
            assert p.is_zero() and q.is_zero()
            return
        assert g.lc() == 1
        assert (p % g).is_zero()
        assert (q % g).is_zero()

    def test_compose_matches_evaluation(self, rng):
        for _ in range(15):
            p = random_unipoly(rng, 4, 5)
            q = random_unipoly(rng, 3, 5)
            c = p.compose(q)
            t = random_fraction(rng)
            assert eval_unipoly_naive(c, t) == eval_unipoly_naive(
                p, eval_unipoly_naive(q, t)
            )

    def test_call_matches_naive(self, rng):
        for _ in range(20):
            p = random_unipoly(rng, 5, 6)
            t = random_fraction(rng)
            assert p(t) == eval_unipoly_naive(p, t)

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

    def test_degrees(self):
        p = BiPoly({(2, 3): 1, (4, 0): 1})
        assert p.total_degree() == 5
        assert p.degree_x() == 4
        assert p.degree_y() == 3

    def test_leading_form(self):
        p = BiPoly({(2, 0): 1, (1, 1): 2, (0, 1): 7})
        assert p.leading_form() == BiPoly({(2, 0): 1, (1, 1): 2})
        assert p.leading_term() == ((2, 0), 1)

    @given(bipolys, bipolys, bipolys)
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * BiPoly.one() == p
        assert p - p == BiPoly.zero()

    def test_diff(self):
        p = BiPoly({(2, 1): 3, (0, 2): 1})
        assert p.diff("x") == BiPoly({(1, 1): 6})
        assert p.diff("y") == BiPoly({(2, 0): 3, (0, 1): 2})
        with pytest.raises(ValueError):
            p.diff("z")

    def test_on_x_axis(self):
        p = BiPoly({(2, 0): 1, (1, 1): 5, (0, 0): -2})
        assert p.on_x_axis() == UniPoly({2: 1, 0: -2})

    def test_as_unipoly_in_x(self):
        p = BiPoly({(3, 0): 2, (0, 0): 1})
        assert p.as_unipoly_in_x() == UniPoly({3: 2, 0: 1})
        with pytest.raises(ValueError):
            BiPoly({(1, 1): 1}).as_unipoly_in_x()

    def test_substitute_matches_naive_eval(self, rng):
        for _ in range(12):
            p = random_bipoly(rng, 3, 4)
            u = random_bipoly(rng, 2, 3)
            v = random_bipoly(rng, 2, 3)
            s = p.substitute(u, v)
            a, b = random_fraction(rng), random_fraction(rng)
            ua, vb = eval_bipoly_naive(u, a, b), eval_bipoly_naive(v, a, b)
            assert eval_bipoly_naive(s, a, b) == eval_bipoly_naive(p, ua, vb)

    def test_evaluate_matches_naive(self, rng):
        for _ in range(20):
            p = random_bipoly(rng, 4, 5)
            a, b = random_fraction(rng), random_fraction(rng)
            assert p.evaluate(a, b) == eval_bipoly_naive(p, a, b)

    def test_substitution_object_matches_substitute(self, rng):
        u = random_bipoly(rng, 2, 3)
        v = random_bipoly(rng, 2, 3)
        sub = Substitution(u, v)
        for _ in range(8):
            p = random_bipoly(rng, 3, 4)
            assert sub.apply(p) == p.substitute(u, v)

    def test_normalize_leading(self):
        p = BiPoly({(2, 0): 3, (0, 0): 6})
        assert normalize_leading(p) == BiPoly({(2, 0): 1, (0, 0): 2})
        assert normalize_leading(BiPoly.zero()).is_zero()


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
            rhs = jacobian_det(F).substitute(G.first, G.second) * jacobian_det(G)
            assert_bipoly_equal_by_eval(lhs, rhs, rng)
            assert lhs == rhs


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


class TestGcdBivariate:
    def test_known_products(self):
        g = BiPoly({(1, 1): 2, (0, 0): 4})  # 2xy + 4
        u = BiPoly({(1, 0): 1, (0, 0): 1})  # x + 1
        v = BiPoly({(0, 1): 1, (0, 0): 3})  # y + 3
        got = gcd_bivariate(g * u, g * v)
        assert got == normalize_leading(g)

    def test_random_products_with_coprime_cofactors(self, rng):
        u = BiPoly({(1, 0): 1, (0, 0): 1})
        v = BiPoly({(0, 1): 1, (0, 0): -2})
        for _ in range(8):
            g = random_bipoly(rng, 2, 3)
            if g.is_zero() or g.is_constant():
                continue
            assert gcd_bivariate(g * u, g * v) == normalize_leading(g)

    def test_x_content_times_y_factor(self):
        # Common factor (x + 1)*(y - x^2): the x-content of the gcd comes
        # from the contents, its y-factor from the remainder sequence.
        common = BiPoly({(1, 0): 1, (0, 0): 1}) * BiPoly({(0, 1): 1, (2, 0): -1})
        a = common * BiPoly({(1, 0): 1, (0, 0): -2}) * BiPoly({(0, 1): 1, (0, 0): 1})
        b = common * BiPoly({(1, 0): 1}) * BiPoly({(0, 2): 1, (0, 0): 3})
        assert gcd_bivariate(a, b) == normalize_leading(common)
        assert gcd_bivariate(b, a) == normalize_leading(common)

    def test_remainder_degree_drops_by_two(self):
        # prem(y^4 + 2y + x, y^3 + x) = (2 - x)*y + x: y-degree 3 -> 1.
        common = BiPoly({(0, 1): 1, (1, 0): 1})  # y + x
        a = BiPoly({(0, 4): 1, (0, 1): 2, (1, 0): 1})
        b = BiPoly({(0, 3): 1, (1, 0): 1})
        assert resultant_y(a, b) == resultant_oracle(a, b)
        assert gcd_bivariate(a, b) == BiPoly.one()
        assert gcd_bivariate(common * a, common * b) == common

    def test_coprime_gives_one(self):
        p = BiPoly({(1, 0): 1, (0, 1): 1})  # x + y
        q = BiPoly({(1, 0): 1, (0, 1): -1, (0, 0): 1})  # x - y + 1
        assert gcd_bivariate(p, q) == BiPoly.one()

    def test_with_zero(self):
        p = BiPoly({(2, 0): 3})
        assert gcd_bivariate(p, BiPoly.zero()) == normalize_leading(p)
        assert gcd_bivariate(BiPoly.zero(), BiPoly.zero()).is_zero()

    def test_gcd_divides_inputs_by_evaluation(self, rng):
        # Spot check: the reported gcd vanishes wherever both inputs vanish
        # along a shared factor; verified on constructed examples above, and
        # here the gcd of p with itself is its normalization.
        p = random_bipoly(rng, 3, 3)
        if not p.is_zero():
            assert gcd_bivariate(p, p) == normalize_leading(p)
