"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: polynomial
equality is probed by exact evaluation at random rational points, the
resultant oracle expands the Sylvester determinant by cofactors, and the
hull oracle verifies the defining properties of a convex hull instead of
re-running the production algorithm.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import Phase, settings

from kellerkit import (
    AffineFactor,
    BiPoly,
    ElementaryFactor,
    Factorization,
    Substitution,
    UniPoly,
    random_tame,
)

# No explain phase: on a failing property it can re-read source for
# minutes, so a failure would stall the suite instead of failing at once.
settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    phases=[p for p in Phase if p.name != "explain"],
)
settings.load_profile("suite")

# A degree-4 tame map whose final check substitutes packed, both ways and
# in both components; tests/golden/prove_line_deg4_json.txt proves it on
# the line x - y + 2 = 0.
DEG4_F = "y^4 - 2*x*y^2 - 4*y^3 + x^2 + 4*x*y - 7*y^2 + 11*x + 21*y + 26"
DEG4_G = "-y^2 + x + 2*y + 4"

# Two dense degree-6 polynomials with mixed signs (28 terms each, drawn
# with random.Random(24)): not a Keller map, and its Jacobian, 65 terms
# of degree up to 10, takes the packed path (arith._mul_packed on the sum
# of two products); tests/golden/jac_dense_deg6.txt computes it.
DENSE6_F = (
    "-9*x^6 + 9*x^5*y - 3*x^4*y^2 - 8*x^3*y^3 - 3*x^2*y^4 - 9*x*y^5 - y^6 + 9*x^5"
    " + 8*x^4*y + 4*x^3*y^2 + 2*x^2*y^3 + 5*x*y^4 + 8*y^5 - 3*x^4 + 9*x^3*y"
    " + 2*x^2*y^2 + 3*x*y^3 + y^4 + 5*x^3 - 6*x^2*y + 2*x*y^2 - 3*y^3 + x^2 + 5*x*y"
    " - 3*y^2 - 8*x - 3*y + 3"
)
DENSE6_G = (
    "7*x^6 + 5*x^5*y - 7*x^4*y^2 + 3*x^3*y^3 + 9*x^2*y^4 + 8*x*y^5 + 6*y^6 + 7*x^5"
    " - 5*x^4*y + 6*x^3*y^2 + 9*x^2*y^3 - 8*x*y^4 + 2*y^5 + 2*x^4 - 5*x^3*y"
    " + 7*x^2*y^2 + x*y^3 - 5*y^4 + 7*x^3 - 2*x^2*y + 4*x*y^2 - 7*y^3 + 2*x^2 - 7*x*y"
    " + 9*y^2 + 5*x - 5*y - 2"
)

# A degree-16 tame map, the 67th word criterion 1 draws (seed 101), whose
# inversion takes the packed product path (arith._mul_packed);
# tests/golden/invert_deg16.txt inverts it.
DEG16_F = "y^4 - 3*y^3 + 4*y^2 + x - 2*y - 2"
DEG16_G = (
    "2*y^16 - 24*y^15 + 140*y^14 + 8*x*y^12 - 520*y^13 - 72*x*y^11 + 1347*y^12"
    " + 312*x*y^10 - 2505*y^11 + 12*x^2*y^8 - 840*x*y^9 + 3287*y^10 - 72*x^2*y^7"
    " + 1491*x*y^8 - 2745*y^9 + 204*x^2*y^6 - 1698*x*y^7 + 790*y^8 + 8*x^3*y^4"
    " - 336*x^2*y^5 + 995*x*y^6 + 1222*y^7 - 24*x^3*y^3 + 291*x^2*y^4 + 204*x*y^5"
    " - 1694*y^6 + 32*x^3*y^2 - 57*x^2*y^3 - 800*x*y^4 + 660*y^5 + 2*x^4 - 16*x^3*y"
    " - 132*x^2*y^2 + 428*x*y^3 + 344*y^4 - 15*x^3 + 90*x^2*y + 124*x*y^2 - 392*y^3"
    " + 38*x^2 - 152*x*y + 24*y^2 - 32*x + 65*y - 1"
)


# ---------------------------------------------------------------------------
# Random object generators (plain random.Random; hypothesis is used only
# for small structural properties, seeded suites use these).
# ---------------------------------------------------------------------------


def random_unipoly(rng: random.Random, max_deg: int, bound: int, nonzero=False) -> UniPoly:
    deg = rng.randint(0, max_deg)
    coeffs = {k: rng.randint(-bound, bound) for k in range(deg + 1)}
    p = UniPoly(coeffs)
    if nonzero and p.is_zero():
        return UniPoly.constant(1)
    return p


def random_bipoly(rng: random.Random, max_deg: int, bound: int) -> BiPoly:
    terms = {}
    for i in range(max_deg + 1):
        for j in range(max_deg + 1 - i):
            if rng.random() < 0.6:
                terms[(i, j)] = rng.randint(-bound, bound)
    return BiPoly(terms)


def random_fraction(rng: random.Random, bound: int = 6) -> Fraction:
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def shift_degree_product(word: Factorization) -> int:
    """Upper bound for the composed degree: product of elementary degrees."""
    product = 1
    for factor in word:
        if isinstance(factor, ElementaryFactor):
            d = factor.shift.degree()
            product *= max(1, d if isinstance(d, int) else 1)
    return product


def draw_tame_word(
    rng: random.Random,
    max_factors: int,
    max_shift_degree: int,
    coeff_bound: int,
    degree_cap: int,
    affine_probability: float = 0.25,
) -> Factorization:
    """Redraw until the elementary degree product fits under the cap.

    All draws stay inside the given parameter bounds; the cap only rejects
    words whose composed degree would be too large to handle exactly in
    the suite budgets.
    """
    while True:
        word = random_tame(
            rng.getrandbits(48),
            rng.randint(1, max_factors),
            max_shift_degree,
            coeff_bound,
            affine_probability=affine_probability,
        )
        if shift_degree_product(word) <= degree_cap:
            return word


def random_axis_fixing_word(rng: random.Random, max_factors: int) -> Factorization:
    """Word of factors each fixing {y = 0} pointwise."""
    word = []
    for _ in range(rng.randint(1, max_factors)):
        if rng.random() < 0.5:
            d = 0
            while d == 0:
                d = rng.randint(-3, 3)
            word.append(AffineFactor(1, rng.randint(-3, 3), 0, d))
        else:
            deg = rng.randint(1, 3)
            coeffs = {k: rng.randint(-3, 3) for k in range(1, deg + 1)}
            if not coeffs.get(deg):
                coeffs[deg] = 1
            # No constant term: the shift vanishes at y = 0.
            word.append(ElementaryFactor("first", UniPoly(coeffs)))
    return Factorization(tuple(word))


def random_axis_preserving_affine(rng: random.Random) -> AffineFactor:
    """Affine map carrying the line {y = 0} onto itself as a set."""
    a = 0
    while a == 0:
        a = rng.randint(-3, 3)
    d = 0
    while d == 0:
        d = rng.randint(-3, 3)
    return AffineFactor(a, rng.randint(-3, 3), 0, d, rng.randint(-3, 3), 0)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def compose_uni(p: UniPoly, q: UniPoly) -> UniPoly:
    """p(q), as the library composes univariate polynomials: a
    Substitution of the pair (q, q) into p read as a polynomial in x."""
    return Substitution(q, q).apply(p.to_bipoly())


def eval_bipoly_naive(p: BiPoly, a: Fraction, b: Fraction) -> Fraction:
    """Direct term-by-term evaluation, no Horner, no Substitution."""
    total = Fraction(0)
    for (i, j), c in p.terms():
        total += Fraction(c) * a**i * b**j
    return total


def eval_unipoly_naive(p: UniPoly, a: Fraction) -> Fraction:
    total = Fraction(0)
    for k, c in p.terms():
        total += Fraction(c) * a**k
    return total


def shift_image_naive(p, shift: UniPoly, q):
    """p + shift(q) by the ring's own +, * and **, one term of the shift
    at a time: no Horner, no Substitution.  Scalars are summed as
    Fractions."""
    total = p if isinstance(p, (BiPoly, UniPoly)) else Fraction(p)
    for k, c in shift.terms():
        total = total + c * q**k
    return total


def assert_bipoly_equal_by_eval(p: BiPoly, q: BiPoly, rng: random.Random, samples=8):
    for _ in range(samples):
        a, b = random_fraction(rng), random_fraction(rng)
        assert eval_bipoly_naive(p, a, b) == eval_bipoly_naive(q, a, b)


def sylvester_matrix(plist: list[UniPoly], qlist: list[UniPoly]) -> list[list[UniPoly]]:
    """Sylvester matrix of two y-coefficient lists (leading first), rows of
    the first argument on top, entries univariate in x."""
    m = len(plist) - 1
    n = len(qlist) - 1
    size = m + n
    zero = UniPoly.zero()
    rows = []
    for shift in range(n):
        rows.append([zero] * shift + plist + [zero] * (n - 1 - shift))
    for shift in range(m):
        rows.append([zero] * shift + qlist + [zero] * (m - 1 - shift))
    assert all(len(r) == size for r in rows)
    return rows


def det_cofactor(matrix: list[list[UniPoly]]) -> UniPoly:
    """Cofactor-expansion determinant over the polynomial ring."""
    size = len(matrix)
    if size == 0:
        return UniPoly.one()
    if size == 1:
        return matrix[0][0]
    total = UniPoly.zero()
    for col in range(size):
        entry = matrix[0][col]
        if entry.is_zero():
            continue
        minor = [row[:col] + row[col + 1 :] for row in matrix[1:]]
        term = entry * det_cofactor(minor)
        total = total + (term if col % 2 == 0 else -term)
    return total


def ydense(p: BiPoly) -> list[UniPoly]:
    """y-coefficient list, leading coefficient first (test-local copy)."""
    d = p.degree_y()
    assert isinstance(d, int) and d >= 0
    rows = [dict() for _ in range(d + 1)]
    for (i, j), c in p.terms():
        rows[d - j][i] = c
    return [UniPoly(r) for r in rows]


def resultant_oracle(p: BiPoly, q: BiPoly) -> UniPoly:
    """Resultant in y via the Sylvester determinant, rows of p first."""
    return det_cofactor(sylvester_matrix(ydense(p), ydense(q)))


def injective_oracle(dp: BiPoly, dq: BiPoly) -> bool:
    """Independent injectivity decision on two difference quotients, from
    the Sylvester determinant.

    The quotients' y-leading coefficients are nonzero constants, so the
    determinant vanishes at x0 exactly when a genuine common root sits
    above x0: a nonzero constant determinant means no collision anywhere.
    """
    if dp.is_zero() and dq.is_zero():
        return False
    if dp.is_zero() or dq.is_zero():
        other = dq if dp.is_zero() else dp
        return other.is_constant()
    if dp.is_constant() or dq.is_constant():
        return True
    res = resultant_oracle(dp, dq)
    return (not res.is_zero()) and res.is_constant()


def fraction_matrix_det(rows: list[list[Fraction]]) -> Fraction:
    """Exact Gaussian elimination determinant over the rationals."""
    n = len(rows)
    m = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


@pytest.fixture
def rng():
    return random.Random(20260822)
