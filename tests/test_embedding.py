"""Line embeddings: difference quotients, the two tests, rectification."""

import random
import time
from fractions import Fraction

import pytest

from kellerkit import (
    AbhyankarMohViolation,
    AffineFactor,
    BiPoly,
    ElementaryFactor,
    Factorization,
    Line,
    NotAnEmbedding,
    Parametrization,
    PolyMap,
    UniPoly,
    compose_map,
    difference_quotient,
    factorization_inverse,
    factorization_to_map,
    gcd_bivariate,
    is_embedding,
    is_immersion,
    is_injective_param,
    prove_line,
    rectify,
    resultant_y,
)
from kellerkit import arith, embedding, subresultant
from kellerkit.arith import _rows
from kellerkit.embedding import Check, _quotient_rows, _row_squares
from kellerkit.kronecker import cell_bytes, digits
from kellerkit.tame import apply_factors

from conftest import (
    compose_uni,
    draw_tame_word,
    injective_oracle,
    random_fraction,
    random_unipoly,
)


def curve(p_coeffs, q_coeffs):
    return Parametrization(UniPoly(p_coeffs), UniPoly(q_coeffs))


class TestDifferenceQuotient:
    def test_known(self):
        # D of t^2 is x + y; D of t^3 is x^2 + x*y + y^2.
        assert difference_quotient(UniPoly({2: 1})) == BiPoly(
            {(1, 0): 1, (0, 1): 1}
        )
        assert difference_quotient(UniPoly({3: 1})) == BiPoly(
            {(2, 0): 1, (1, 1): 1, (0, 2): 1}
        )
        assert difference_quotient(UniPoly({1: 1})) == BiPoly.one()
        assert difference_quotient(UniPoly.constant(9)).is_zero()
        assert difference_quotient(UniPoly.zero()).is_zero()

    def test_linearity_example(self):
        p = UniPoly({3: 2, 1: -1, 0: 5})
        assert difference_quotient(p) == BiPoly(
            {(2, 0): 2, (1, 1): 2, (0, 2): 2, (0, 0): -1}
        )

    def test_defining_identity(self, rng):
        x_minus_y = BiPoly({(1, 0): 1, (0, 1): -1})
        for _ in range(15):
            p = random_unipoly(rng, 6, 5)
            lhs = x_minus_y * difference_quotient(p)
            rhs = p.to_bipoly() - BiPoly({(0, k): c for k, c in p.terms()})
            assert lhs == rhs

    def test_leading_structure(self, rng):
        for _ in range(10):
            p = random_unipoly(rng, 6, 5)
            d = p.degree()
            if p.is_constant():
                continue
            q = difference_quotient(p)
            assert q.degree_y() == d - 1
            assert q.coeff(0, d - 1) == p.lc()


class TestInjectivity:
    def test_plain_power_collides_over_closure(self):
        # t^2 identifies t and -t over the closure; the resultant of the
        # quotients x + y and x^2 + x*y + y^2 is x^2.
        check = is_injective_param(curve({2: 1}, {3: 1}))
        assert not check.ok
        assert check.witness == UniPoly({2: 1})

    def test_nodal_collision(self):
        # (t^3 + t, t^2) glues t = i and t = -i; witness x^2 + 1.
        check = is_injective_param(curve({3: 1, 1: 1}, {2: 1}))
        assert not check.ok
        assert check.witness == UniPoly({2: 1, 0: 1})

    def test_isolated_pair_collision(self):
        # (t^2, t^3 - t) glues t = 1 and t = -1 only; witness x^2 - 1.
        check = is_injective_param(curve({2: 1}, {3: 1, 1: -1}))
        assert not check.ok
        assert check.witness == UniPoly({2: 1, 0: -1})

    def test_injective_graph(self):
        assert is_injective_param(curve({2: 1}, {1: 1})).ok
        assert is_injective_param(curve({1: 1}, {5: 1, 0: -7})).ok

    def test_one_component_constant(self):
        # (t^2, 0): collisions are the zeros of D_p = x + y.
        check = is_injective_param(curve({2: 1}, {}))
        assert not check.ok
        assert check.witness == BiPoly({(1, 0): 1, (0, 1): 1})
        # (5, t) is injective: the moving component has degree 1.
        assert is_injective_param(curve({0: 5}, {1: 1})).ok

    def test_both_constant(self):
        check = is_injective_param(curve({0: 3}, {0: 4}))
        assert not check.ok
        assert check.witness == BiPoly.zero()

    def test_shared_component_witness(self):
        # (t^2, t^4): D_q = (x + y)(x^2 + y^2), so the quotients share the
        # whole component x + y and the resultant vanishes identically.
        check = is_injective_param(curve({2: 1}, {4: 1}))
        assert not check.ok
        assert check.witness == BiPoly({(1, 0): 1, (0, 1): 1})

    def test_tie_degrees(self):
        # (t^2, t^2 + t) is injective: colliding parameters would need
        # both s + t = 0 and s + t + 1 = 0.
        assert is_injective_param(curve({2: 1}, {2: 1, 1: 1})).ok

    def test_short_divisor_under_a_long_quotient(self):
        # (t^500, t^2 + t): D_q = y + (x + 1) has two rows in y and D_p
        # 500, so the resultant is D_p(x, -1 - x) up to sign.  A
        # pseudo-division that rebuilt every row at each of its 499 steps
        # took about 20 times as long as the window, past the budget.
        x = UniPoly.x()
        start = time.perf_counter()
        check = is_injective_param(Parametrization(x**500, x**2 + x))
        assert time.perf_counter() - start < 1.2
        quotient, remainder = divmod(x**500 - (x + 1) ** 500, 2 * x + 1)
        assert not check.ok and not remainder
        assert check.witness == quotient.monic()

    def test_affine_images_of_axis(self, rng):
        for _ in range(10):
            a = random_unipoly(rng, 1, 4, nonzero=True)
            if a.degree() != 1:
                continue
            b = random_unipoly(rng, 1, 4)
            assert is_injective_param(Parametrization(a, b)).ok

    def test_fractional_curves_match_sylvester_oracle(self, rng):
        # Curves of degree <= 4 with Fraction coefficients, as restricting
        # a map to a rational line gives: generic pairs (nearly all
        # colliding), graphs (p, c*t + s(p)), which are injective, and
        # pairs (p, s(p)), whose quotients share the component of D_p.
        def frac_poly(deg):
            return UniPoly({k: random_fraction(rng) for k in range(deg + 1)})

        verdicts = []
        for k in range(60):
            p = frac_poly(2 if k % 3 else rng.randint(1, 4))
            if k % 3 == 0:
                q = frac_poly(rng.randint(1, 4))
            else:
                s = frac_poly(rng.randint(0, 2))
                c = random_fraction(rng) if k % 3 == 1 else 0
                q = compose_uni(s, p) + UniPoly({1: c})
            got = is_injective_param(Parametrization(p, q)).ok
            assert got == injective_oracle(difference_quotient(p), difference_quotient(q))
            verdicts.append(got)
        assert True in verdicts and False in verdicts


def _bipoly_route(gamma):
    """is_injective_param on BiPoly difference quotients: resultant_y, then
    gcd_bivariate or BiPoly.monic for the witness."""
    dp, dq = difference_quotient(gamma.first), difference_quotient(gamma.second)
    if dp.is_zero() and dq.is_zero():
        return Check(False, BiPoly.zero())
    if dp.is_zero() or dq.is_zero():
        other = dq if dp.is_zero() else dp
        return Check(True, None) if other.is_constant() else Check(False, other.monic())
    if dp.is_constant() or dq.is_constant():
        return Check(True, None)
    res = resultant_y(dp, dq)
    if res.is_zero():
        return Check(False, gcd_bivariate(dp, dq))
    if res.is_constant():
        return Check(True, None)
    return Check(False, res.monic())


class TestRowsFromTheCurve:
    """The injectivity test on rows sliced off the curve against the same
    test on BiPoly difference quotients."""

    def _curves(self, rng):
        def poly(deg):
            return UniPoly({k: random_fraction(rng) for k in range(deg + 1)})

        for k in range(400):
            p = poly(rng.randint(0, 6))
            if k % 4 == 0:  # a shared component: q = s(p) + c*t
                q = compose_uni(poly(rng.randint(0, 2)), p) + UniPoly({1: rng.choice((0, 0, 1))})
            elif k % 4 == 1:  # constant or linear components
                q = poly(rng.randint(0, 1))
            else:
                q = poly(rng.randint(0, 6))
            yield Parametrization(p, q) if k % 2 else Parametrization(q, p)
        yield Parametrization(UniPoly.zero(), UniPoly.zero())
        yield Parametrization(UniPoly({3: 1}), UniPoly.zero())

    def test_same_verdict_and_witness(self, rng):
        kinds = set()
        for gamma in self._curves(rng):
            got, want = is_injective_param(gamma), _bipoly_route(gamma)
            assert got.ok == want.ok
            assert type(got.witness) is type(want.witness)
            assert got.witness == want.witness  # the same stored (_d, _t)
            kinds.add((got.ok, type(got.witness).__name__))
        assert kinds == {(True, "NoneType"), (False, "UniPoly"), (False, "BiPoly")}

    def test_rows_are_the_quotient_up_to_its_denominator(self, rng):
        for gamma in self._curves(rng):
            for p in gamma.first, gamma.second:
                if p.degree() < 2:
                    continue
                rows, d = _rows(difference_quotient(p))
                n = [p._t.get(k, 0) for k in range(p.degree() + 1)]
                nb = cell_bytes(max(map(abs, n)))
                sliced = [digits(v, nb) for v in _quotient_rows(n, 8 * nb)]
                assert _row_squares(n) == sum(sum(map(abs, row.values())) ** 2 for row in sliced)
                assert [{i: c * d for i, c in row.items()} for row in sliced] == [
                    {i: c * p._d for i, c in row.items()} for row in rows
                ]


class TestSharedComponent:
    """gamma = (phi, r(phi)) with deg phi >= 2: D_phi divides D_(r(phi)),
    whose rows are D_r(phi(x), phi(y)) * D_phi, so the witness is D_phi
    itself.  This oracle needs no gcd code, which is_injective_param and
    _bipoly_route's gcd_bivariate share."""

    @staticmethod
    def _poly(rng, deg):
        lead = rng.choice((-1, 1)) * Fraction(rng.randint(1, 6), rng.randint(1, 6))
        return UniPoly({**{k: random_fraction(rng) for k in range(deg)}, deg: lead})

    def test_witness_is_the_inner_quotient(self, rng):
        for _ in range(300):
            phi = self._poly(rng, rng.randint(2, 5))
            r = self._poly(rng, rng.randint(1, 3))
            gamma = Parametrization(phi, compose_uni(r, phi))
            want = Check(False, difference_quotient(phi).monic())
            assert is_injective_param(gamma) == want

    def test_one_sequence_and_no_gcd(self, monkeypatch):
        runs, sequence = [], embedding._subresultants

        def spy(*args):
            runs.append(args)
            return sequence(*args)

        def refuse(*args):
            raise AssertionError("a second route to the witness")

        monkeypatch.setattr(embedding, "_subresultants", spy)
        monkeypatch.setattr(embedding, "difference_quotient", refuse)
        monkeypatch.setattr(arith, "gcd_bivariate", refuse)
        check = is_injective_param(curve({2: 1, 1: 1}, {4: 1, 3: 2, 2: 1}))  # (p, p^2)
        assert len(runs) == 1
        assert check == Check(False, BiPoly({(1, 0): 1, (0, 1): 1, (0, 0): 1}))


class TestImmersion:
    def test_cusp(self):
        check = is_immersion(curve({2: 1}, {3: 1}))
        assert not check.ok
        assert check.witness == UniPoly.x()

    def test_smooth(self):
        assert is_immersion(curve({3: 1, 1: 1}, {2: 1})).ok
        assert is_immersion(curve({1: 1}, {7: 1})).ok

    def test_constant_curve(self):
        check = is_immersion(curve({0: 3}, {0: 4}))
        assert not check.ok
        assert check.witness == UniPoly.zero()

    def test_halted_component(self):
        # (t^2, 0): both derivatives share the root t = 0.
        check = is_immersion(curve({2: 1}, {}))
        assert not check.ok
        assert check.witness == UniPoly.x()

    @pytest.fixture
    def prem_calls(self, monkeypatch):
        """The calls of subresultant._prem, one list entry each."""
        calls, prem = [], subresultant._prem
        monkeypatch.setattr(subresultant, "_prem", lambda f, g: calls.append(1) or prem(f, g))
        return calls

    def test_cubic_with_coprime_derivatives(self, prem_calls):
        # p' = 3t^2 + 1 and q' = 3t^2 + 4t: two rows of 3, a nonzero 4 by 4
        # Sylvester determinant in closed form and no pseudo-division.
        assert is_immersion(curve({3: 1, 1: 1}, {3: 1, 2: 2})).ok
        assert prem_calls == []

    def test_cubic_with_derivatives_sharing_a_root(self, prem_calls):
        # p' = 3t^2 - 3 and q' = 6t^2 - 6t share t = 1: a zero determinant,
        # and the sequence gives the gcd witness.
        check = is_immersion(curve({3: 1, 1: -3}, {3: 2, 2: -3}))
        assert not check.ok
        assert check.witness == UniPoly({1: 1, 0: -1})
        assert prem_calls


class TestEmbeddingReport:
    CASES = [
        # (p, q, injective, immersion, witness render)
        ({2: 1}, {3: 1}, False, False, "x"),
        ({3: 1, 1: 1}, {2: 1}, False, True, "x^2 + 1"),
        ({2: 1}, {1: 1}, True, True, None),
        ({1: 1}, {5: 1, 0: -7}, True, True, None),
        ({2: 1}, {}, False, False, "x"),
        ({0: 3}, {0: 4}, False, False, "0"),
        ({2: 1}, {3: 1, 1: -1}, False, True, "x^2 - 1"),
    ]

    @pytest.mark.parametrize("p,q,injective,immersion,witness", CASES)
    def test_verdicts(self, p, q, injective, immersion, witness):
        report = is_embedding(curve(p, q))
        assert report.injective == injective
        assert report.immersion == immersion
        if witness is None:
            assert report.witness is None
        else:
            assert report.witness.render() == witness

    def test_immersion_witness_preferred(self):
        # Both tests fail for (t^2, t^3); the immersion gcd wins.
        report = is_embedding(curve({2: 1}, {3: 1}))
        assert report.witness == UniPoly.x()

    def test_json(self):
        report = is_embedding(curve({2: 1}, {3: 1, 1: -1}))
        assert report.to_json_dict() == {
            "injective": False,
            "immersion": True,
            "witness": "x^2 - 1",
        }
        assert is_embedding(curve({1: 1}, {2: 1})).to_json_dict() == {
            "injective": True,
            "immersion": True,
            "witness": None,
        }

    def test_last_curve_is_remembered(self, monkeypatch):
        """is_embedding keeps its last answer by the identity of the curve:
        the same object gets the identical report without a second test, an
        equal but distinct curve is decided afresh, and a line proof, where
        prove_line and rectify both ask, runs is_injective_param once."""
        calls = []
        inner = embedding.is_injective_param
        monkeypatch.setattr(embedding, "is_injective_param",
                            lambda gamma: calls.append(gamma) or inner(gamma))
        gamma = curve({2: 1}, {1: 1})
        report = is_embedding(gamma)
        assert is_embedding(gamma) is report
        assert len(calls) == 1
        twin = is_embedding(curve({2: 1}, {1: 1}))
        assert twin == report and twin is not report
        assert len(calls) == 2
        calls.clear()
        H = PolyMap(BiPoly.x() + BiPoly.y() ** 2, BiPoly.y())
        prove_line(H, Line(1, -1, 2))
        assert len(calls) == 1

    def test_tame_images_of_axis_are_embeddings(self, rng):
        for _ in range(8):
            word = draw_tame_word(rng, 4, 3, 3, 12)
            p, q = apply_factors(word.factors, (UniPoly.x(), UniPoly.zero()))
            report = is_embedding(Parametrization(p, q))
            assert report.injective and report.immersion
            assert report.witness is None


class TestRectify:
    def test_axis_itself(self):
        word = rectify(curve({1: 1}, {}))
        assert len(word) == 0

    def test_swapped_parabola(self):
        gamma = curve({2: 1}, {1: 1})
        word = rectify(gamma)
        # Phi = (y, x - y^2) sends (t^2, t) to (t, 0).
        assert factorization_to_map(word) == PolyMap(
            BiPoly.y(), BiPoly.x() - BiPoly.y() ** 2
        )
        assert apply_factors(word.factors, (gamma.first, gamma.second)) == (
            UniPoly.x(),
            UniPoly.zero(),
        )

    def test_affine_line(self):
        gamma = curve({1: 2, 0: 1}, {1: 3, 0: -4})
        self._check_straightens(gamma)

    def test_vertical_degree_one(self):
        self._check_straightens(curve({0: 5}, {1: 1}))
        self._check_straightens(curve({1: 1}, {0: -2}))

    def test_high_degree_pure(self):
        self._check_straightens(curve({3: 1}, {1: 1}))

    def test_tied_degrees(self):
        self._check_straightens(curve({2: 1}, {2: 1, 1: 1}))

    def test_multi_step(self):
        # gamma = W(t, 0) for the word (x + y^2, y) then (x, y + x^3).
        word = Factorization(
            (
                ElementaryFactor("first", UniPoly({2: 1})),
                ElementaryFactor("second", UniPoly({3: 1})),
            )
        )
        p, q = apply_factors(word.factors, (UniPoly.x(), UniPoly.zero()))
        self._check_straightens(Parametrization(p, q))

    def test_random_embedded_lines(self, rng):
        for _ in range(8):
            word = draw_tame_word(rng, 4, 3, 3, 12)
            p, q = apply_factors(word.factors, (UniPoly.x(), UniPoly.zero()))
            self._check_straightens(Parametrization(p, q))

    def test_factor_types(self, rng):
        word = draw_tame_word(rng, 3, 3, 3, 12)
        p, q = apply_factors(word.factors, (UniPoly.x(), UniPoly.zero()))
        phi = rectify(Parametrization(p, q))
        for f in phi:
            assert isinstance(f, (AffineFactor, ElementaryFactor))
            assert not f.is_identity()

    def test_rejects_non_embedding(self):
        with pytest.raises(NotAnEmbedding) as exc:
            rectify(curve({2: 1}, {3: 1}))
        assert exc.value.report.witness == UniPoly.x()
        with pytest.raises(NotAnEmbedding):
            rectify(curve({2: 1}, {4: 1}))
        with pytest.raises(NotAnEmbedding):
            rectify(curve({0: 1}, {0: 2}))

    def test_rectified_word_is_invertible(self):
        gamma = curve({2: 1}, {1: 1})
        phi = rectify(gamma)
        M = factorization_to_map(phi)
        Minv = factorization_to_map(factorization_inverse(phi))
        assert compose_map(M, Minv).is_identity()

    @pytest.mark.parametrize("peeled,match", [
        (lambda p, q: ((), (p, q), False), "not a multiple"),
        (lambda p, q: ((), (UniPoly.one(), UniPoly.one()), True), "both components constant"),
        (lambda p, q: ((), (p * p, UniPoly.one()), True), "the other of degree >= 2"),
    ], ids=["reduction_stopped", "both_constant", "one_constant"])
    def test_abhyankar_moh_violation(self, monkeypatch, peeled, match):
        # The degree reduction patched to end where the theorem says an
        # embedding cannot: the violation carries the state it reached.
        monkeypatch.setattr(embedding, "_peel", peeled)
        gamma = curve({2: 1}, {1: 1})
        with pytest.raises(AbhyankarMohViolation, match=match) as exc:
            rectify(gamma)
        assert exc.value.state == peeled(gamma.first, gamma.second)[1]

    def _check_straightens(self, gamma):
        phi = rectify(gamma)
        got = apply_factors(phi.factors, (gamma.first, gamma.second))
        assert got == (UniPoly.x(), UniPoly.zero())
