"""Acceptance gate: eight end-to-end criteria, all exact.

Every assertion is exact symbolic equality of rationals or polynomials;
there are no tolerances anywhere.  Each criterion is one test, enforces
its own wall-clock budget, and prints a one-line summary (visible with
``pytest -s``; under ``pytest -v`` the test names give the per-criterion
pass/fail lines).  Two differential tests ride along with criterion 5:
the same proofs with the packed kernels switched off, and the paper's
inversion route against Jung-van der Kulk degree reduction.
"""

import json
import random
import time
from fractions import Fraction

from conftest import (
    draw_tame_word,
    injective_oracle,
    random_axis_fixing_word,
    random_axis_preserving_affine,
    random_bipoly,
    random_fraction,
    random_unipoly,
)
from test_cli import GOLDEN_CASES, GOLDEN_DIR, run_module

from kellerkit import (
    BiPoly,
    Certificate,
    ElementaryFactor,
    Factorization,
    HypothesisViolated,
    JacobianNotConstant,
    Line,
    Parametrization,
    PolyMap,
    UniPoly,
    compose_map,
    decide_automorphism,
    difference_quotient,
    factorization_inverse,
    factorization_to_map,
    fixed_axis_invert,
    invert_low_degree,
    is_embedding,
    is_immersion,
    is_injective_param,
    is_keller,
    NotAutomorphism,
    polymap_on_param,
    prove_line,
    rectify,
    restrict_to_line,
    similarity_check,
    verify_certificate,
)
from kellerkit import arith
from kellerkit.cli import parse_bipoly, parse_unipoly
from kellerkit.keller import Inverted, LineRestriction
from kellerkit.tame import AffineFactor

import pytest


def _finish(label, detail, start, limit):
    elapsed = time.perf_counter() - start
    assert elapsed < limit, "%s took %.1fs, budget %ss" % (label, elapsed, limit)
    print("%s: PASS (%s, %.1fs < %ss)" % (label, detail, elapsed, limit))


def _nonzero_int(rng, bound):
    v = 0
    while v == 0:
        v = rng.randint(-bound, bound)
    return v


def test_criterion_1_similarity_of_tame_automorphisms():
    """200 seeded tame automorphisms (<= 5 factors, shift degree <= 4,
    integer coefficients <= 5), filtered to deg f > 1 and deg g > 1: the
    polygons are similar with ratio exactly deg g / deg f."""
    start = time.perf_counter()
    rng = random.Random(101)
    checked = 0
    while checked < 200:
        word = draw_tame_word(
            rng, max_factors=5, max_shift_degree=4, coeff_bound=5, degree_cap=16
        )
        H = factorization_to_map(word)
        f, g = H.first, H.second
        if f.total_degree() <= 1 or g.total_degree() <= 1:
            continue
        report = similarity_check(f, g)
        assert report.similar is True
        assert report.factor == Fraction(g.total_degree(), f.total_degree())
        checked += 1
    _finish("criterion 1", "200/200 similarity ratios exact", start, 30)


def test_criterion_2_low_degree_inversion():
    """100 Keller maps built from one affine and one elementary factor
    invert exactly; the inverse cancels the map on both sides."""
    start = time.perf_counter()
    rng = random.Random(202)
    for trial in range(100):
        shift_deg = rng.randint(2, 4)
        coeffs = {k: rng.randint(-5, 5) for k in range(shift_deg)}
        coeffs[shift_deg] = _nonzero_int(rng, 5)
        E = ElementaryFactor("first", UniPoly(coeffs))
        if trial % 2 == 0:
            # Elementary after a generic invertible affine.
            while True:
                entries = [rng.randint(-5, 5) for _ in range(4)]
                if entries[0] * entries[3] - entries[1] * entries[2] != 0:
                    break
            A = AffineFactor(*entries, rng.randint(-5, 5), rng.randint(-5, 5))
            H = factorization_to_map(Factorization((E, A)))
        else:
            # Affine after the elementary; a triangular matrix keeps one
            # component of degree one.
            A = AffineFactor(
                _nonzero_int(rng, 5), rng.randint(-5, 5), 0, _nonzero_int(rng, 5),
                rng.randint(-5, 5), rng.randint(-5, 5),
            )
            H = factorization_to_map(Factorization((A, E)))
        word = invert_low_degree(H)
        assert factorization_to_map(word) == H
        inv = factorization_to_map(factorization_inverse(word))
        assert compose_map(inv, H).is_identity()
        assert compose_map(H, inv).is_identity()
    _finish("criterion 2", "100/100 exact round trips", start, 10)


def test_criterion_3_fixed_axis_inversion():
    """100 conjugated words fixing {y = 0} pointwise: the degree collapse
    min(deg f, deg g) <= 1 holds every time, inversion succeeds, and the
    impossible-configuration witness never fires."""
    start = time.perf_counter()
    rng = random.Random(303)
    min_degrees = []
    for _ in range(100):
        inner = random_axis_fixing_word(rng, 3)
        A = random_axis_preserving_affine(rng)
        word = Factorization((A.inverse(),) + inner.factors + (A,))
        H = factorization_to_map(word)
        assert H.first.on_x_axis() == UniPoly.x()
        assert H.second.on_x_axis().is_zero()
        min_degrees.append(min(H.first.total_degree(), H.second.total_degree()))
        assert min_degrees[-1] <= 1
        got, cert = fixed_axis_invert(H)
        assert factorization_to_map(got) == H
        inv = factorization_to_map(factorization_inverse(got))
        assert compose_map(inv, H).is_identity()
        assert compose_map(H, inv).is_identity()
        assert verify_certificate(cert, H)
    assert max(min_degrees) <= 1
    _finish("criterion 3", "100/100 collapse and invert", start, 30)


def test_criterion_4_axis_images_rectify():
    """200 tame automorphisms applied to the axis (t, 0): the image curve
    is an embedding and rectifies back to the axis exactly, in both
    directions."""
    start = time.perf_counter()
    rng = random.Random(404)
    axis = Parametrization(UniPoly.x(), UniPoly.zero())
    for _ in range(200):
        word = draw_tame_word(
            rng, max_factors=5, max_shift_degree=4, coeff_bound=5, degree_cap=12
        )
        H = factorization_to_map(word)
        gamma = polymap_on_param(H, axis)
        report = is_embedding(gamma)
        assert report.injective and report.immersion
        phi = rectify(gamma)
        straight = polymap_on_param(factorization_to_map(phi), gamma)
        assert straight == axis
        back = polymap_on_param(
            factorization_to_map(factorization_inverse(phi)), axis
        )
        assert back == gamma
    _finish("criterion 4", "200/200 curves rectified exactly", start, 60)


def _random_line(rng):
    while True:
        a = random_fraction(rng, 4)
        b = random_fraction(rng, 4)
        if a != 0 or b != 0:
            return Line(a, b, random_fraction(rng, 4))


def _criterion_5_draws(rng, count):
    """count (automorphism, line) pairs, drawn as criterion 5 draws them."""
    for _ in range(count):
        word = draw_tame_word(
            rng, max_factors=5, max_shift_degree=4, coeff_bound=5, degree_cap=8
        )
        yield factorization_to_map(word), _random_line(rng)


def test_criterion_5_end_to_end_line_proofs():
    """200 (automorphism, line) pairs through the full pipeline: the
    produced inverse cancels the map exactly on both sides, and the
    recorded gamma, read off H o L, is restrict_to_line's substitution.
    For one fixed map, twenty different lines all yield the same
    inverse."""
    start = time.perf_counter()
    rng = random.Random(505)
    for H, line in _criterion_5_draws(rng, 200):
        inv, got_word, cert = prove_line(H, line)
        assert cert.find(LineRestriction).gamma == restrict_to_line(H, line)[0]
        assert compose_map(inv, H).is_identity()
        assert compose_map(H, inv).is_identity()
        assert factorization_to_map(got_word) == H
        assert verify_certificate(cert, H)

    fixed = None
    while fixed is None:
        word = draw_tame_word(
            rng, max_factors=4, max_shift_degree=3, coeff_bound=4, degree_cap=8
        )
        candidate = factorization_to_map(word)
        if not candidate.is_identity():
            fixed = candidate
    inverses = [prove_line(fixed, _random_line(rng))[0] for _ in range(20)]
    assert all(inv == inverses[0] for inv in inverses)
    _finish("criterion 5", "200/200 proofs, 20 lines agree", start, 120)


def _tampered(cert):
    """cert with one shift coefficient of its inverted word changed by 1."""
    inverted = cert.find(Inverted)
    factors = list(inverted.word)
    k, f = next((k, f) for k, f in enumerate(factors) if isinstance(f, ElementaryFactor))
    factors[k] = ElementaryFactor(f.axis, f.shift + 1)
    changed = Inverted(Factorization(tuple(factors)))
    return Certificate(tuple(changed if s is inverted else s for s in cert.steps))


def test_line_proofs_agree_with_packing_off(monkeypatch):
    """The checker is not the only witness for the packed kernels it relies
    on.  With the size rule patched to never pack, jacobian_det and
    Substitution run on term pairs, and criterion 5's first 50 draws give
    the same inverse, word JSON and certificate JSON, and verify_certificate
    the same verdict on each certificate and on a tampered copy.  The
    first pass reaches the packed product from the Jacobian, whose packed
    path is the one caller of _mul_packed with two pairs.  The second pass
    runs the term-pair Jacobian at least once for every determinant the
    first computed, so no answer jacobian_det kept from the first pass
    stands in for it."""
    calls = dict.fromkeys(("pack", "_mul_packed", "_cross_sparse"), 0)
    crosses = []  # the packed Jacobian's calls of _mul_packed

    def spy(name):
        kernel = getattr(arith, name)

        def counted(*args):
            calls[name] += 1
            if name == "_mul_packed" and len(args[0]) == 2:
                crosses.append(1)
            return kernel(*args)
        return counted

    def run():
        out = []
        for H, line in _criterion_5_draws(random.Random(505), 50):
            inv, word, cert = prove_line(H, line)
            out.append((
                inv, word.to_json_list(), cert.to_json_list(),
                verify_certificate(cert, H), verify_certificate(_tampered(cert), H),
            ))
        return out

    for name in calls:
        monkeypatch.setattr(arith, name, spy(name))
    packed = run()
    assert calls["pack"] > 0 and crosses
    assert all(ok and not tampered_ok for *_, ok, tampered_ok in packed)
    determinants = len(crosses) + calls["_cross_sparse"]
    calls.update(dict.fromkeys(calls, 0))
    monkeypatch.setattr(arith, "packs", lambda cells, m, n: False)
    assert run() == packed
    assert calls["pack"] == calls["_mul_packed"] == 0
    assert calls["_cross_sparse"] >= determinants


def _criterion_1_maps(rng, count):
    """Criterion 1's draws: tame maps of degree <= 16 with both components
    of degree above 1."""
    while count:
        H = factorization_to_map(draw_tame_word(
            rng, max_factors=5, max_shift_degree=4, coeff_bound=5, degree_cap=16
        ))
        if H.first.total_degree() > 1 and H.second.total_degree() > 1:
            count -= 1
            yield H


def test_recognition_agrees_with_packing_off(monkeypatch):
    """Line proofs rarely pack a product; recognition of criterion 1's
    maps does.  With the size rule patched to never pack, criterion 1's
    200 draws, built by their words and each paired with its non-Keller
    H(x, y^2), give the same maps, decide_automorphism the same answer,
    and similarity_check the same report or refusal, all down to the
    JSON.  A spy on the packed kernel shows that the packed product (its
    calls with one pair, from _convolve; the Jacobian passes two) ran in
    the first pass, and that the kernel never ran in the second."""
    calls = []  # the number of pairs of each call of _mul_packed
    kernel = arith._mul_packed

    def spy(pairs, width):
        calls.append(len(pairs))
        return kernel(pairs, width)

    def run():
        out = []
        for H in _criterion_1_maps(random.Random(101), 200):
            squared = PolyMap(*(BiPoly({(i, 2 * j): c for (i, j), c in w.terms()})
                                for w in (H.first, H.second)))
            for K in (H, squared):
                word = decide_automorphism(K)
                try:
                    report = similarity_check(K.first, K.second).to_json_dict()
                except HypothesisViolated as exc:
                    report = str(exc)
                answer = (word.to_json_list() if isinstance(word, Factorization)
                          else word.to_json_dict())
                out.append((K, json.dumps(answer), json.dumps(report)))
        return out

    monkeypatch.setattr(arith, "_mul_packed", spy)
    packed = run()
    assert calls.count(1) > 0
    calls.clear()
    monkeypatch.setattr(arith, "packs", lambda cells, m, n: False)
    assert run() == packed
    assert not calls


def test_inversion_routes_agree():
    """A plane automorphism has exactly one inverse.  So on criterion 5's
    draws, with a seed of their own and random rational lines, the paper's
    route (prove_line: the line, the embedding test, rectification and the
    fixed-axis inverse) and degree reduction (decide_automorphism) give the
    same inverse map, and every certificate verifies."""
    start = time.perf_counter()
    count = 120
    for H, line in _criterion_5_draws(random.Random(1212), count):
        inv, _, cert = prove_line(H, line)
        word = decide_automorphism(H)
        assert isinstance(word, Factorization)
        assert inv == factorization_to_map(factorization_inverse(word))
        assert verify_certificate(cert, H)
    _finish("inversion routes", "%d/%d inverses agree" % (count, count), start, 20)


def test_criterion_6_negative_battery():
    """The canonical rejections, with their exact witnesses."""
    start = time.perf_counter()

    bad = PolyMap(BiPoly.x(), BiPoly.y() ** 2)
    report = is_keller(bad)
    assert report.is_keller is False
    assert report.jacobian == BiPoly({(0, 1): 2})
    with pytest.raises(JacobianNotConstant) as exc:
        prove_line(bad, Line(0, 1, 0))
    assert exc.value.jacobian == BiPoly({(0, 1): 2})

    node = Parametrization(UniPoly({3: 1, 1: 1}), UniPoly({2: 1}))
    check = is_injective_param(node)
    assert check.ok is False
    assert check.witness == UniPoly({2: 1, 0: 1})

    cusp = Parametrization(UniPoly({2: 1}), UniPoly({3: 1}))
    check = is_immersion(cusp)
    assert check.ok is False
    assert check.witness == UniPoly.x()

    result = decide_automorphism(PolyMap(BiPoly.x(), BiPoly.y() + BiPoly.y() ** 2))
    assert isinstance(result, NotAutomorphism)
    assert result.reason == "JacobianNotConstant"
    assert result.jacobian == BiPoly({(0, 1): 2, (0, 0): 1})

    _finish("criterion 6", "4/4 exact rejections", start, 5)


def test_criterion_7_oracle_equivalence():
    """is_injective_param agrees with the independent oracle on the full
    grid of parametrizations with degree <= 3 and coefficients in
    {-2, ..., 2}.

    Adding a constant to a component never changes a difference quotient
    (asserted below for every component in the grid), and both deciders
    read only the quotients, so the constant-free core grid decides every
    case; random constant-laden pairs are then replayed in full.
    """
    start = time.perf_counter()
    values = range(-2, 3)
    core = [
        UniPoly({1: c1, 2: c2, 3: c3})
        for c1 in values
        for c2 in values
        for c3 in values
    ]
    assert len(core) == 125
    quotients = [difference_quotient(p) for p in core]
    for p, dp in zip(core, quotients):
        for c in values:
            assert difference_quotient(p + UniPoly.constant(c)) == dp

    decisions = {}
    for i, dp in enumerate(quotients):
        for j, dq in enumerate(quotients):
            got = is_injective_param(Parametrization(core[i], core[j]))
            assert got.ok == injective_oracle(dp, dq)
            decisions[i, j] = got

    rng = random.Random(707)
    for _ in range(300):
        i, j = rng.randrange(125), rng.randrange(125)
        shifted = Parametrization(
            core[i] + UniPoly.constant(rng.randint(-2, 2)),
            core[j] + UniPoly.constant(rng.randint(-2, 2)),
        )
        assert is_injective_param(shifted) == decisions[i, j]

    _finish(
        "criterion 7",
        "15625/15625 grid decisions agree, 300 constant replays",
        start,
        120,
    )


def test_criterion_8_parser_and_goldens():
    """500 seeded parse/render round trips are exact and the pinned
    command-line outputs are byte-identical."""
    start = time.perf_counter()
    rng = random.Random(808)
    for _ in range(300):
        p = random_bipoly(rng, 6, 9)
        assert parse_bipoly(p.render()) == p
    for _ in range(200):
        p = random_unipoly(rng, 9, 9)
        assert parse_unipoly(p.render()) == p

    for name, args in GOLDEN_CASES:
        proc = run_module(args)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == (GOLDEN_DIR / (name + ".txt")).read_bytes()

    _finish("criterion 8", "500 round trips, %d goldens byte-identical" % len(GOLDEN_CASES),
            start, 10)
