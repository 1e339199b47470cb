"""Tame factor words: algebra, recognition, low-degree inversion."""

import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest

from kellerkit import (
    AffineFactor,
    BiPoly,
    ElementaryFactor,
    Factorization,
    KellerReport,
    NotAutomorphism,
    PolyMap,
    PreconditionViolated,
    TheoremViolationWitness,
    UniPoly,
    compose_map,
    decide_automorphism,
    factorization_inverse,
    factorization_to_map,
    invert_low_degree,
    random_tame,
)
from kellerkit import arith, tame
from kellerkit.tame import _peel, apply_factors

from conftest import (
    compose_uni,
    draw_tame_word,
    eval_bipoly_naive,
    eval_unipoly_naive,
    random_bipoly,
    random_fraction,
    random_unipoly,
    shift_image_naive,
)


def x():
    return BiPoly.x()


def y():
    return BiPoly.y()


class TestAffineFactor:
    def test_semantics(self):
        A = AffineFactor(1, 2, 3, 4, 5, 6)
        assert A.to_map() == PolyMap(
            BiPoly({(1, 0): 1, (0, 1): 2, (0, 0): 5}),
            BiPoly({(1, 0): 3, (0, 1): 4, (0, 0): 6}),
        )
        assert A.det() == -2

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            AffineFactor(1, 2, 2, 4)
        with pytest.raises(ValueError):
            AffineFactor(0, 0, 0, 1)

    def test_float_rejected(self):
        with pytest.raises(TypeError, match="float"):
            AffineFactor(0.5, 0, 0, 1)
        with pytest.raises(TypeError, match="float"):
            AffineFactor(1, 0, 0, 1, 0, 0.25)

    def test_integral_fractions_stored_as_int(self):
        A = AffineFactor(Fraction(4, 2), 0, Fraction(1, 3), Fraction(3, 1), Fraction(-6, 3), 0)
        assert [type(v) for v in (A.a11, A.a22, A.b1)] == [int, int, int]
        assert (A.a11, A.a22, A.b1) == (2, 3, -2)
        assert A.a21 == Fraction(1, 3)
        assert A == AffineFactor(2, 0, Fraction(1, 3), 3, -2, 0)

    def test_identity(self):
        assert AffineFactor(1, 0, 0, 1).is_identity()
        assert AffineFactor(Fraction(2, 2), 0, 0, Fraction(3, 3)).is_identity()
        assert AffineFactor(1, 0, 0, 1).inverse().is_identity()
        assert not AffineFactor(1, 0, 0, 1, 1, 0).is_identity()
        half = AffineFactor(1, 0, 0, 1, Fraction(1, 2), 0)
        assert half._form == (2, 2, 0, 0, 2, 1, 0)
        assert not half.is_identity() and not half.inverse().is_identity()

    def test_inverse_random(self, rng):
        for _ in range(15):
            entries = [rng.randint(-5, 5) for _ in range(6)]
            if entries[0] * entries[3] - entries[1] * entries[2] == 0:
                continue
            A = AffineFactor(*entries)
            left = compose_map(A.inverse().to_map(), A.to_map())
            right = compose_map(A.to_map(), A.inverse().to_map())
            assert left.is_identity() and right.is_identity()

    def test_inverse_of_fractional_factors(self, rng):
        """Random fractional factors, half with negative determinants: the
        inverse composes to the identity both ways, inverts back to A, and
        stores its integral entries as int.  The inverse and the double
        inverse store the canonical integer form, the one __post_init__
        builds from their fields (positive D, no common factor), and det()
        and is_identity() agree with the formulas on the fields."""
        signs = set()
        for _ in range(60):
            entries = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5))) for _ in range(6)]
            if entries[0] * entries[3] == entries[1] * entries[2]:
                continue
            A = AffineFactor(*entries)
            inv = A.inverse()
            signs.add(A.det() < 0)
            assert compose_map(inv.to_map(), A.to_map()).is_identity()
            assert compose_map(A.to_map(), inv.to_map()).is_identity()
            assert inv.inverse() == A
            fields = (inv.a11, inv.a12, inv.a21, inv.a22, inv.b1, inv.b2)
            assert all(type(v) is int if v.denominator == 1 else type(v) is Fraction for v in fields)
            for B in (A, inv, inv.inverse()):
                a11, a12, a21, a22, b1, b2 = fields = (B.a11, B.a12, B.a21, B.a22, B.b1, B.b2)
                assert B._form == AffineFactor(*fields)._form
                assert B._form[0] > 0 and gcd(*B._form) == 1
                assert B.det() == a11 * a22 - a12 * a21
                assert B.is_identity() == (fields == (1, 0, 0, 1, 0, 0))
        assert signs == {True, False}
        B = AffineFactor(Fraction(1, 2), 0, 0, -1, Fraction(3, 2), 4).inverse()
        assert (B.a11, B.a22, B.b1, B.b2) == (2, -1, -3, 4)
        assert [type(v) for v in (B.a11, B.a12, B.a21, B.a22, B.b1, B.b2)] == [int] * 6

    def test_inverse_keeps_exact_fractions(self):
        A = AffineFactor(2, 0, 0, 3, 1, -1)
        B = A.inverse()
        assert B.a11 == Fraction(1, 2)
        assert B.b1 == Fraction(-1, 2)

    def test_apply_matches_ring_operations(self, rng):
        """apply sums integer numerators; a*p + b*q + e through the ring's
        own operations gives the same terms and stored types, in the
        pair's ring: BiPoly, UniPoly or scalars, an int where integral."""
        def frac():
            return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4)))

        for _ in range(150):
            entries = [frac() for _ in range(6)]
            if entries[0] * entries[3] == entries[1] * entries[2]:
                continue
            A = AffineFactor(*entries)
            for ring in (BiPoly, UniPoly, Fraction):
                if ring is BiPoly:
                    p, q = (random_bipoly(rng, 3, 5) * frac() for _ in range(2))
                elif ring is UniPoly:
                    p, q = (random_unipoly(rng, 4, 5) * frac() for _ in range(2))
                else:
                    p, q = frac(), frac()
                got = A.apply((p, q))
                want = (A.a11 * p + A.a12 * q + A.b1, A.a21 * p + A.a22 * q + A.b2)
                assert got == want
                for g, v in zip(got, want):
                    if ring is Fraction:
                        assert type(g) is (int if Fraction(v).denominator == 1 else Fraction)
                    else:
                        assert type(g) is ring
                        assert [type(c) for _, c in g.terms()] == [type(c) for _, c in v.terms()]

    def test_render(self):
        assert AffineFactor(2, 0, 0, 3).render() == "affine (2*x, 3*y)"

    def test_json(self):
        A = AffineFactor(1, 2, 3, 4, 5, Fraction(1, 2))
        assert A.to_json_dict() == {
            "kind": "affine",
            "matrix": [[[1, 1], [2, 1]], [[3, 1], [4, 1]]],
            "translation": [[5, 1], [1, 2]],
        }


class TestElementaryFactor:
    def test_semantics_first(self):
        E = ElementaryFactor("first", UniPoly({2: 1}))
        assert E.to_map() == PolyMap(x() + y() ** 2, y())

    def test_semantics_second(self):
        E = ElementaryFactor("second", UniPoly({3: -2, 0: 1}))
        assert E.to_map() == PolyMap(x(), y() - 2 * x() ** 3 + 1)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            ElementaryFactor("third", UniPoly.x())

    def test_inverse(self):
        E = ElementaryFactor("first", UniPoly({4: 3, 1: -1}))
        both = compose_map(E.inverse().to_map(), E.to_map())
        assert both.is_identity()
        assert E.inverse().shift == -E.shift

    def test_identity(self):
        assert ElementaryFactor("first", UniPoly.zero()).is_identity()
        assert not ElementaryFactor("first", UniPoly.constant(1)).is_identity()

    def test_apply_on_univariate_pair(self):
        # Applying to a parametrized pair composes the shift with the
        # other component.
        E = ElementaryFactor("first", UniPoly({2: 1, 0: -3}))
        p, q = UniPoly({1: 1}), UniPoly({3: 2})
        ep, eq = E.apply((p, q))
        assert eq == q
        assert ep == p + compose_uni(E.shift, q)

    def test_render_and_json(self):
        E = ElementaryFactor("second", UniPoly({2: 1}))
        assert E.render() == "elementary (x, x^2 + y)"
        assert E.to_json_dict() == {
            "kind": "elementary",
            "axis": "second",
            "shift": "x^2",
        }


def _shift(rng) -> UniPoly:
    """A zero, constant, integer or rational shift."""
    kind = rng.randrange(4)
    if kind == 0:
        return UniPoly.zero()
    if kind == 1:
        return UniPoly.constant(random_fraction(rng) or 1)
    shift = random_unipoly(rng, 6, 5, nonzero=True)
    return shift * random_fraction(rng, 4) if kind == 3 and shift else shift


def _pair(rng, ring):
    """Two elements of ring, with rational coefficients about half the
    time."""
    def one():
        if ring is BiPoly:
            w = random_bipoly(rng, 3, 5)
        elif ring is UniPoly:
            w = random_unipoly(rng, 4, 5)
        else:
            return random_fraction(rng)
        return w * random_fraction(rng, 3) if rng.random() < 0.5 else w
    return one(), one()


def _at(w, point):
    """w at point, term by term; a UniPoly at the point's first value."""
    if isinstance(w, BiPoly):
        return eval_bipoly_naive(w, *point)
    return eval_unipoly_naive(w, point[0])


class TestElementaryKernel:
    """apply sums p's numerators and each s_k*d_q^(e-k)*Q^k in one
    accumulator over one denominator.  Against the ring's own operations,
    term by term of the shift, it gives the same ring element in the same
    canonical storage, in every ring: BiPoly, UniPoly and scalars; against
    term-by-term evaluation at rational points, the same values."""

    @pytest.mark.parametrize("ring", [BiPoly, UniPoly, Fraction])
    def test_matches_the_naive_image(self, ring, rng):
        for _ in range(120):
            shift = _shift(rng)
            p, q = _pair(rng, ring)
            for axis in ("first", "second"):
                got = ElementaryFactor(axis, shift).apply((p, q))
                a, b = (p, q) if axis == "first" else (q, p)
                value, kept = got if axis == "first" else got[::-1]
                assert kept is b
                want = shift_image_naive(a, shift, b)
                if ring is Fraction:
                    assert value == want
                    assert type(value) is (int if want.denominator == 1 else Fraction)
                    continue
                assert type(value) is ring
                assert (value._d, value._t) == (want._d, want._t)
                for _ in range(3):
                    point = random_fraction(rng), random_fraction(rng)
                    assert _at(value, point) == _at(a, point) + sum(
                        Fraction(c) * _at(b, point) ** k for k, c in shift.terms())

    def test_zero_and_constant_shifts(self):
        p, q = x() * Fraction(1, 2) + y(), y() * 3 - 1
        assert ElementaryFactor("first", UniPoly.zero()).apply((p, q)) == (p, q)
        third = UniPoly.constant(Fraction(1, 3))
        got = ElementaryFactor("second", third).apply((p, q))[1]
        assert got == q + Fraction(1, 3) and (got._d, got._t) == (3, {(0, 1): 9, (0, 0): -2})

    def test_rational_q_gives_integer_image(self):
        """q = y/2 and shift 4t^2 - 2t: every denominator cancels, and the
        image stores ints over 1."""
        q = y() * Fraction(1, 2)
        got = ElementaryFactor("first", UniPoly({2: 4, 1: -2})).apply((x(), q))[0]
        assert got == x() + y() ** 2 - y()
        assert got._d == 1 and all(type(v) is int for v in got._t.values())

    def test_powers_take_the_packed_product(self):
        """A dense q and a shift of degree 6: the powers of q come from
        BiPoly.__mul__, which packs them."""
        q = (x() + y() + 1) ** 3
        shift = UniPoly({k: k + 1 for k in range(7)})
        with mock.patch.object(arith, "_mul_packed", wraps=arith._mul_packed) as packed:
            got = ElementaryFactor("first", shift).apply((x(), q))
        assert packed.called
        assert got[0] == shift_image_naive(x(), shift, q)


class TestFactorization:
    def test_identity_word(self):
        w = Factorization()
        assert len(w) == 0
        assert factorization_to_map(w).is_identity()
        assert w.render() == "identity"

    def test_right_to_left_order(self):
        A = AffineFactor(2, 0, 0, 1)
        E = ElementaryFactor("first", UniPoly({2: 1}))
        word = Factorization((A, E))
        assert factorization_to_map(word) == compose_map(A.to_map(), E.to_map())
        # A o E doubles x + y^2; E o A shifts 2x by y^2.
        assert factorization_to_map(word) == PolyMap(2 * x() + 2 * y() ** 2, y())
        swapped = Factorization((E, A))
        assert factorization_to_map(swapped) == PolyMap(2 * x() + y() ** 2, y())

    def test_apply_factors_matches_composition(self, rng):
        word = draw_tame_word(rng, 4, 3, 3, 16)
        H = factorization_to_map(word)
        f, g = apply_factors(word.factors, (BiPoly.x(), BiPoly.y()))
        assert PolyMap(f, g) == H

    def test_inverse_word(self, rng):
        for _ in range(6):
            word = draw_tame_word(rng, 4, 3, 3, 16)
            H = factorization_to_map(word)
            inv = factorization_to_map(factorization_inverse(word))
            assert compose_map(inv, H).is_identity()
            assert compose_map(H, inv).is_identity()

    def test_render_lists_factors(self):
        word = Factorization(
            (AffineFactor(2, 0, 0, 3), ElementaryFactor("first", UniPoly.x()))
        )
        assert word.render() == "affine (2*x, 3*y)\nelementary (x + y, y)"


def _random_fold_word(rng):
    """A word mixing affine factors with rational coefficients, rational
    shears of degree <= 1 on both axes, shifts of degree >= 2, and A, A^-1
    pairs, whose runs fold to the identity."""
    word = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.randrange(4)
        if kind == 0:
            word.append(_random_affine_factor(rng))
        elif kind == 1:
            shift = UniPoly({1: random_fraction(rng, 5), 0: random_fraction(rng, 5)})
            word.append(ElementaryFactor(rng.choice(("first", "second")), shift))
        elif kind == 2:
            shift = UniPoly({rng.randint(2, 3): rng.randint(1, 3), 1: random_fraction(rng, 3)})
            word.append(ElementaryFactor(rng.choice(("first", "second")), shift))
        else:
            A = _random_affine_factor(rng)
            word += [A, A.inverse()]
    return word


def _random_affine_factor(rng):
    while True:
        a = [random_fraction(rng, 4) for _ in range(6)]
        if a[0] * a[3] - a[1] * a[2]:
            return AffineFactor(*a)


def _one_at_a_time(factors, pair):
    for f in reversed(factors):
        pair = f.apply(pair)
    return pair


class TestAffineRunFold:
    """apply_factors applies each run of affine factors and degree-<= 1
    shears as one integer form: the same answer as factor by factor."""

    def test_fold_matches_factor_by_factor(self, rng):
        t = UniPoly.x()
        for _ in range(60):
            word = _random_fold_word(rng)
            pairs = [
                (random_bipoly(rng, 2, 4), random_bipoly(rng, 2, 4)),
                (random_unipoly(rng, 3, 4), t),
                (random_fraction(rng), random_fraction(rng)),
            ]
            for pair in pairs:
                assert apply_factors(word, pair) == _one_at_a_time(word, pair)

    def test_inverse_pairs_fold_away(self, rng):
        A = _random_affine_factor(rng)
        shear = ElementaryFactor("second", UniPoly({1: Fraction(2, 3), 0: 5}))
        pair = (x() + y() ** 2, y())
        with mock.patch.object(tame, "_affine_image", wraps=tame._affine_image) as spy:
            assert apply_factors((A, shear, shear.inverse(), A.inverse()), pair) == pair
        assert spy.call_count == 0

    def test_one_image_per_run(self):
        """e A A E4 A A: the first three factors are one run, the last two
        another, so _affine_image runs twice."""
        e = ElementaryFactor("first", UniPoly({1: Fraction(1, 3), 0: -2}))
        A, B = AffineFactor(2, 1, 1, 1, 3, 0), AffineFactor(0, 1, 1, Fraction(1, 2), 0, -1)
        E4 = ElementaryFactor("second", UniPoly({4: 1, 0: 1}))
        word = (e, A, B, E4, A, B)
        with mock.patch.object(tame, "_affine_image", wraps=tame._affine_image) as spy:
            got = apply_factors(word, (x(), y()))
        assert spy.call_count == 2
        assert got == _one_at_a_time(word, (x(), y()))


class TestInvertLowDegree:
    def test_affine_only(self):
        H = PolyMap(2 * x() + 1, 3 * y())
        word = invert_low_degree(H)
        assert len(word) == 1
        assert word.factors[0] == AffineFactor(2, 0, 0, 3, 1, 0)

    def test_elementary_only(self):
        H = PolyMap(x() + y() ** 5, y())
        word = invert_low_degree(H)
        assert len(word) == 1
        assert word.factors[0] == ElementaryFactor("first", UniPoly({5: 1}))

    def test_identity(self):
        assert len(invert_low_degree(PolyMap.identity())) == 0

    def test_swapped_triangular(self):
        # (y, x - y^3): the affine part is a swap, the shift lives on the
        # second slot after normalization.  The inverse is (y + x^3, x).
        H = PolyMap(y(), x() - y() ** 3)
        word = invert_low_degree(H)
        assert factorization_to_map(word) == H
        inv = factorization_to_map(factorization_inverse(word))
        assert inv == PolyMap(y() + x() ** 3, x())
        assert compose_map(inv, H).is_identity()
        assert compose_map(H, inv).is_identity()

    def test_low_first_component(self):
        # First component affine, second carries the shift.
        H = PolyMap(2 * y() + 1, x() + (2 * y() + 1) ** 2)
        word = invert_low_degree(H)
        assert factorization_to_map(word) == H
        inv = factorization_to_map(factorization_inverse(word))
        assert compose_map(inv, H).is_identity()

    # Certificates record these words.  One map per way to complete the
    # affine component: it is second or first, with or without an x term;
    # then a map with both components affine.
    @pytest.mark.parametrize("H,rendered", [
        (
            PolyMap(x() + (x() + y()) ** 2, x() + y()),
            "affine (-x, y)\nelementary (-y^2 + x - y, y)\naffine (y, x + y)",
        ),
        (PolyMap(x() + y() ** 2, y()), "elementary (y^2 + x, y)"),
        (
            PolyMap(x() + 2 * y() + 1, y() + (x() + 2 * y() + 1) ** 2),
            "elementary (x, x^2 + y)\naffine (x + 2*y + 1, y)",
        ),
        (PolyMap(y(), x() - y() ** 3), "elementary (x, -x^3 + y)\naffine (y, x)"),
        (PolyMap(2 * x() + 1, 3 * y()), "affine (2*x + 1, 3*y)"),
    ])
    def test_exact_words(self, H, rendered):
        word = invert_low_degree(H)
        assert word.render() == rendered
        _assert_integer_forms(H, word)

    @pytest.mark.parametrize("H", [
        # A linear component with fractional coefficients.
        factorization_to_map(Factorization((
            ElementaryFactor("first", UniPoly({3: Fraction(-5, 6), 1: 2, 0: Fraction(1, 4)})),
            AffineFactor(Fraction(2, 3), Fraction(-5, 4), Fraction(1, 6), Fraction(3, 7),
                         Fraction(1, 2), Fraction(-2, 5)),
        ))),
        # Negative alpha: -3, and -2/3 in the second slot.
        PolyMap(-3 * x() + y() ** 2 - 1, y()),
        PolyMap(x(), Fraction(-2, 3) * y() + x() ** 3 - x()),
        # Linear components with no x term: completion by x.
        PolyMap(x() + Fraction(1, 2) * y() ** 3, Fraction(-4, 3) * y() + 1),
        PolyMap(Fraction(-3, 2) * y() + Fraction(1, 2), 5 * x() + y() ** 2),
    ], ids=["fractional_linear", "negative_alpha", "negative_alpha_second",
            "no_x_second", "no_x_first"])
    def test_integer_forms_match_the_fraction_path(self, H):
        word = invert_low_degree(H)
        assert factorization_to_map(word) == H
        _assert_integer_forms(H, word)

    def test_rejects_non_keller(self):
        with pytest.raises(PreconditionViolated) as exc:
            invert_low_degree(PolyMap(x(), y() + y() ** 2))
        assert exc.value.condition == "JacobianNotConstant"

    def test_rejects_high_degree(self):
        f = x() + y() ** 2
        H = PolyMap(f, y() + f**2)
        with pytest.raises(PreconditionViolated) as exc:
            invert_low_degree(H)
        assert exc.value.condition == "DegreeTooHigh"

    @pytest.mark.parametrize("attr,fake,H,match", [
        ("is_keller", lambda H: KellerReport(BiPoly.one(), True),
         PolyMap(x(), BiPoly.one()), "constant component"),
        ("_affine", lambda f, g: AffineFactor(1, 0, 0, 2),
         PolyMap(x() + y() ** 2, y()), "failed to fix the second coordinate"),
        ("is_keller", lambda H: KellerReport(BiPoly.one(), True),
         PolyMap(x() * y(), y()), "triangular"),
    ], ids=["constant_component", "normalization", "triangular"])
    def test_failed_check_is_a_theorem_violation(self, monkeypatch, attr, fake, H, match):
        # Each check patched to fail: the gate opened for a map that is not
        # Keller, or the completion A1 replaced by a wrong one.
        monkeypatch.setattr(tame, attr, fake)
        with pytest.raises(TheoremViolationWitness, match=match):
            invert_low_degree(H)

    def test_random_elementary_after_affine(self, rng):
        # E o A keeps the second component affine.
        for _ in range(8):
            A = _random_affine_factor(rng)
            E = _random_elementary(rng, "first")
            H = factorization_to_map(Factorization((E, A)))
            word = invert_low_degree(H)
            _assert_integer_forms(H, word)
            assert factorization_to_map(word) == H
            inv = factorization_to_map(factorization_inverse(word))
            assert compose_map(inv, H).is_identity()
            assert compose_map(H, inv).is_identity()

    def test_random_affine_after_elementary_triangular(self, rng):
        # A o E with lower-triangular A keeps the second component affine.
        for _ in range(8):
            a11, a22 = _nonzero(rng), _nonzero(rng)
            A = AffineFactor(a11, rng.randint(-4, 4), 0, a22,
                             rng.randint(-4, 4), rng.randint(-4, 4))
            E = _random_elementary(rng, "first")
            H = factorization_to_map(Factorization((A, E)))
            word = invert_low_degree(H)
            _assert_integer_forms(H, word)
            assert factorization_to_map(word) == H
            inv = factorization_to_map(factorization_inverse(word))
            assert compose_map(inv, H).is_identity()


def _assert_integer_forms(H, word):
    """invert_low_degree's word, built from integer forms, is the word of
    the Fraction path factor by factor: each affine _form is the one
    __post_init__ derives from the fields, and each shift's (_d, _t) that
    of the UniPoly the public constructor builds from main.terms()."""
    want = _invert_by_fractions(H)
    assert word == want
    for f, w in zip(word, want):
        if isinstance(f, AffineFactor):
            fields = [getattr(f, name) for name in f.__dataclass_fields__]
            assert f._form == AffineFactor(*fields)._form == w._form
        else:
            assert (f.shift._d, f.shift._t) == (w.shift._d, w.shift._t)


def _invert_by_fractions(H):
    """invert_low_degree's word through coeff(), Fractions, terms() and the
    public constructors, with A1 inverted over Fractions: the path the
    integer forms replaced."""
    pair = (H.first, H.second)
    df, dg = (p.total_degree() for p in pair)
    if max(df, dg) == 1:
        word = (_affine_by_coeffs(*pair),)
    else:
        low = 0 if df == 1 else 1
        hi = 1 - low
        lin, xy = pair[low], (x(), y())
        completion = xy[1] if lin.coeff(1, 0) else xy[0]
        a1_inv = _affine_by_coeffs(*((lin, completion) if low == 0 else (completion, lin)))
        main = compose_map(H, _inverse_by_fractions(a1_inv).to_map())
        main = (main.first, main.second)[hi]
        alpha = Fraction(main.coeff(*((1, 0) if hi == 0 else (0, 1))))
        shift = UniPoly({e[low]: c / alpha for e, c in main.terms() if not e[hi]})
        a2 = AffineFactor(alpha, 0, 0, 1) if hi == 0 else AffineFactor(1, 0, 0, alpha)
        word = (a2, ElementaryFactor(("first", "second")[hi], shift), a1_inv)
    return Factorization(tuple(f for f in word if not f.is_identity()))


def _affine_by_coeffs(f, g):
    return AffineFactor(f.coeff(1, 0), f.coeff(0, 1), g.coeff(1, 0), g.coeff(0, 1),
                        f.coeff(0, 0), g.coeff(0, 0))


def _inverse_by_fractions(A):
    a, b, c, d, e, f = (Fraction(v) for v in (A.a11, A.a12, A.a21, A.a22, A.b1, A.b2))
    det = a * d - b * c
    m = (d / det, -b / det, -c / det, a / det)
    return AffineFactor(*m, -(m[0] * e + m[1] * f), -(m[2] * e + m[3] * f))


def _nonzero(rng):
    v = 0
    while not v:
        v = rng.randint(-4, 4)
    return v


def _random_affine_factor(rng):
    while True:
        entries = [rng.randint(-4, 4) for _ in range(4)]
        if entries[0] * entries[3] - entries[1] * entries[2]:
            return AffineFactor(*entries, rng.randint(-4, 4), rng.randint(-4, 4))


def _random_elementary(rng, axis):
    deg = rng.randint(2, 4)
    coeffs = {k: rng.randint(-4, 4) for k in range(deg)}
    coeffs[deg] = _nonzero(rng)
    return ElementaryFactor(axis, UniPoly(coeffs))


class TestDecideAutomorphism:
    def test_identity(self):
        word = decide_automorphism(PolyMap.identity())
        assert isinstance(word, Factorization)
        assert len(word) == 0

    def test_shear(self):
        H = PolyMap(x() + y() ** 2, y())
        word = decide_automorphism(H)
        assert factorization_to_map(word) == H

    def test_two_step_reduction(self):
        f = x() + y() ** 2
        g = y() + f**3
        H = PolyMap(f, g)
        word = decide_automorphism(H)
        assert isinstance(word, Factorization)
        assert factorization_to_map(word) == H
        inv = factorization_to_map(factorization_inverse(word))
        assert compose_map(inv, H).is_identity()
        assert compose_map(H, inv).is_identity()

    def test_non_keller_rejected(self):
        H = PolyMap(x() ** 2, y())
        result = decide_automorphism(H)
        assert isinstance(result, NotAutomorphism)
        assert result.reason == "JacobianNotConstant"
        assert result.jacobian == BiPoly({(1, 0): 2})
        assert result.residual == H
        data = result.to_json_dict()
        assert data["automorphism"] is False
        assert data["jacobian"] == "2*x"

    def test_zero_jacobian_rejected(self):
        f = x() + y() ** 2
        result = decide_automorphism(PolyMap(f, f + 1))
        assert isinstance(result, NotAutomorphism)
        assert result.reason == "JacobianNotConstant"

    def test_random_words_recognized(self, rng):
        for _ in range(10):
            word = draw_tame_word(rng, 4, 3, 3, 16)
            H = factorization_to_map(word)
            got = decide_automorphism(H)
            assert isinstance(got, Factorization), "tame word not recognized"
            assert factorization_to_map(got) == H
            inv = factorization_to_map(factorization_inverse(got))
            assert compose_map(inv, H).is_identity()
            assert compose_map(H, inv).is_identity()

    def test_render(self):
        result = decide_automorphism(PolyMap(x() ** 2, y()))
        assert "JacobianNotConstant" in result.render()

    def test_reduction_failed(self, monkeypatch):
        # Not reachable on a Keller map of degree <= 100 (Moh); patched to
        # pin today's negative answer.
        monkeypatch.setattr(tame, "_peel", lambda a, b: ((), (a, b), False))
        H = PolyMap(x() + y() ** 2, y())
        result = decide_automorphism(H)
        assert isinstance(result, NotAutomorphism)
        assert result.reason == "ReductionFailed"
        assert result.residual == H
        assert result.jacobian == BiPoly.one()

    def test_word_that_fails_to_recompose(self, monkeypatch):
        monkeypatch.setattr(tame, "factorization_to_map", lambda word: PolyMap.identity())
        with pytest.raises(TheoremViolationWitness, match="fails to recompose"):
            decide_automorphism(PolyMap(x() + y() ** 2, y()))


class TestPeel:
    """The degree reduction shared by decide_automorphism and rectify."""

    @pytest.mark.parametrize("cls", [UniPoly, BiPoly])
    def test_factors_rebuild_the_input(self, rng, cls):
        stops = set()
        for seed in range(40):
            if cls is UniPoly:
                low = (random_unipoly(rng, 1, 4), random_unipoly(rng, 3, 4))
            else:
                low = (random_bipoly(rng, 1, 4), random_bipoly(rng, 2, 4))
            word = random_tame(seed, rng.randint(0, 3), 3, 3, affine_probability=0)
            pair = apply_factors(word, low)
            factors, residual, ok = _peel(*pair)
            assert apply_factors(factors, residual) == pair
            degrees = [p.total_degree() for p in residual]
            assert ok == (min(degrees) <= 1)
            for f in factors:
                assert isinstance(f, ElementaryFactor) and len(f.shift.terms()) == 1
            stops.add((ok, len(factors) > 0))
        assert (True, True) in stops

    def test_curve_with_coprime_degrees_stops(self):
        t = UniPoly.x()
        assert _peel(t**2, t**3) == ((), (t**2, t**3), False)
        factors, residual, ok = _peel(t**2, t**4 + t**3)
        assert not ok and residual == (t**2, t**3)
        assert factors == (ElementaryFactor("second", UniPoly({2: 1})),)
        assert apply_factors(factors, residual) == (t**2, t**4 + t**3)

    def test_map_with_unlike_leading_forms_stops(self):
        assert _peel(x() ** 2, y() ** 2) == ((), (x() ** 2, y() ** 2), False)

    @pytest.mark.parametrize("cls", [UniPoly, BiPoly])
    def test_degree_drop_matches_the_leading_form_rule(self, rng, cls):
        """_peel decides each step by the degree drop and computes lam on
        numerators; the same factors, residual and verdict as comparing
        leading forms first, on tame pairs, random pairs, pairs whose low
        components are scaled by rationals with negative and non-unit
        leading coefficients, and pairs whose leading terms agree but whose
        leading forms differ.  Each shift's integer form (_d, _t) is the
        reference's, so lam's sign sits in its numerator."""
        seen, lams = set(), set()
        for seed in range(150):
            if cls is UniPoly:
                low = (random_unipoly(rng, 1, 4), random_unipoly(rng, 3, 4))
            else:
                low = (random_bipoly(rng, 1, 4), random_bipoly(rng, 2, 4))
            word = random_tame(seed, rng.randint(0, 3), 3, 3, affine_probability=0)
            scaled = tuple(p * rng.choice(_SCALES) for p in low)
            pairs = [apply_factors(word, low), (low[1], low[1] ** 2 + low[0]),
                     apply_factors(word, scaled), (scaled[1], scaled[1] ** 3 + scaled[0])]
            if cls is BiPoly:
                pairs += [_unlike_leading_forms(rng), _unlike_leading_forms(rng)[::-1]]
            for a, b in pairs:
                got, want = _peel(a, b), _peel_by_leading_forms(a, b)
                assert got == want
                for f, w in zip(got[0], want[0]):
                    assert (f.shift._d, f.shift._t) == (w.shift._d, w.shift._t)
                    lams.add(f.shift.lc())
                seen.add((got[2], len(got[0]) > 0))
        assert (True, True) in seen
        assert any(lam < 0 and type(lam) is Fraction for lam in lams)
        if cls is BiPoly:
            assert (False, True) in seen and (False, False) in seen


_SCALES = (Fraction(-2, 3), Fraction(5, 7), Fraction(-7, 4), Fraction(3, 5), -3)


def _leading_form(p):
    """The homogeneous part of p of top total degree."""
    d = p.total_degree()
    deg = (lambda k: k) if isinstance(p, UniPoly) else sum
    return type(p)({k: c for k, c in p.terms() if deg(k) == d})


def _peel_by_leading_forms(a, b):
    """Degree reduction that compares leading forms before it subtracts,
    and asserts the drop afterwards: the rule _peel replaced."""
    peeled = []
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
        lam = Fraction(hi.leading_term()[1]) / power.leading_term()[1]
        if _leading_form(hi) != _leading_form(power) * lam:
            return tuple(peeled), (a, b), False
        reduced = hi - power * lam
        assert reduced.total_degree() < dh
        peeled.append(ElementaryFactor("first" if first else "second", UniPoly({d: lam})))
        a, b = (reduced, b) if first else (a, reduced)


def _unlike_leading_forms(rng):
    """(lo, hi) with hi = c*lo^d plus a term of degree deg(lo)*d below
    lo^d's leading term, and lower terms: the leading terms agree and the
    leading forms do not, after an optional reducible step on top."""
    while True:
        lo = random_bipoly(rng, rng.randint(2, 3), 4)
        if lo.total_degree() >= 2 and lo.leading_term()[0][0]:
            break
    d = rng.randint(1, 2)
    power = lo**d
    (i, j), _ = power.leading_term()
    hi = power * _nonzero_fraction(rng) + BiPoly({(i - 1, j + 1): rng.choice((-2, 1, 3))})
    hi = hi + random_bipoly(rng, i + j - 1, 3)
    if rng.random() < 0.5:  # one valid step before the stop
        lo = lo + hi**2
    return lo, hi


def _nonzero_fraction(rng):
    return Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))


class TestRandomTame:
    def test_deterministic(self):
        assert random_tame(7, 5, 3, 4) == random_tame(7, 5, 3, 4)
        assert random_tame(7, 5, 3, 4) != random_tame(8, 5, 3, 4)

    def test_zero_factors(self):
        assert len(random_tame(1, 0, 3, 4)) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            random_tame(1, -1, 3, 4)
        with pytest.raises(ValueError):
            random_tame(1, 2, 0, 4)
        with pytest.raises(ValueError):
            random_tame(1, 2, 3, 0)

    def test_affine_probability_range(self):
        for bad in (2, -0.1, float("nan")):
            with pytest.raises(ValueError):
                random_tame(1, 2, 3, 4, affine_probability=bad)
        assert len(random_tame(1, 2, 3, 4, affine_probability=0)) == 2
        assert len(random_tame(1, 2, 3, 4, affine_probability=1)) == 2

    def test_elementary_only_alternates_axes(self):
        for seed in range(10):
            word = random_tame(seed, 6, 3, 4, affine_probability=0.0)
            assert all(isinstance(f, ElementaryFactor) for f in word)
            axes = [f.axis for f in word]
            for prev, nxt in zip(axes, axes[1:]):
                assert prev != nxt

    def test_shift_bounds(self):
        for seed in range(10):
            word = random_tame(seed, 6, 3, 4, affine_probability=0.25)
            for f in word:
                if isinstance(f, ElementaryFactor):
                    assert 1 <= f.shift.degree() <= 3
                    assert all(abs(c) <= 4 for _, c in f.shift.terms())
                else:
                    assert f.det() != 0

    def test_all_affine(self):
        word = random_tame(3, 5, 3, 4, affine_probability=1.0)
        assert all(isinstance(f, AffineFactor) for f in word)
