"""Independent correctness checks, run outside the timed region.

Maps are evaluated exactly over ``Fraction``: a polynomial term by term
from its exponent/coefficient pairs, a factor word factor by factor from
the factors' own coefficients.  Neither ``Substitution`` nor
``compose_map`` nor any other library arithmetic is used, so a fault in
the code under test cannot hide itself here.

The injectivity oracle is criterion 7's: the Sylvester determinant of the
two difference quotients, expanded by cofactors, over plain integer
coefficient lists.  It runs once, offline, to write ``grid_verdicts.txt``
(``python3 perfbench/check.py`` regenerates and compares it).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

VERDICTS_FILE = Path(__file__).with_name("grid_verdicts.txt")
# Verdict classes of the frozen table.
INJECTIVE = "1"
SHARED = "2"  # rejected: the difference quotients share a component
REJECTED = "0"  # rejected otherwise
GRID_VALUES = range(-2, 3)
# Core components c1 t + c2 t^2 + c3 t^3, in criterion 7's order.
GRID_CORE = [
    (c1, c2, c3) for c1 in GRID_VALUES for c2 in GRID_VALUES for c3 in GRID_VALUES
]


# ---------------------------------------------------------------------------
# Exact evaluation
# ---------------------------------------------------------------------------


def eval_poly(p, a, b) -> Fraction:
    """A BiPoly at (a, b), term by term."""
    return sum((Fraction(c) * a**i * b**j for (i, j), c in p.terms()), Fraction(0))


def eval_map(H, point):
    a, b = point
    return eval_poly(H.first, a, b), eval_poly(H.second, a, b)


def _eval_shift(shift, t) -> Fraction:
    return sum((Fraction(c) * t**k for k, c in shift.terms()), Fraction(0))


def _apply_factor(factor, point):
    x, y = point
    if hasattr(factor, "shift"):
        if factor.axis == "first":
            return x + _eval_shift(factor.shift, y), y
        return x, y + _eval_shift(factor.shift, x)
    return (
        factor.a11 * x + factor.a12 * y + factor.b1,
        factor.a21 * x + factor.a22 * y + factor.b2,
    )


def _unapply_factor(factor, point):
    """The inverse of one factor at a point, solved by hand."""
    x, y = point
    if hasattr(factor, "shift"):
        if factor.axis == "first":
            return x - _eval_shift(factor.shift, y), y
        return x, y - _eval_shift(factor.shift, x)
    u, v = x - factor.b1, y - factor.b2
    det = Fraction(factor.a11 * factor.a22 - factor.a12 * factor.a21)
    return (
        (factor.a22 * u - factor.a12 * v) / det,
        (factor.a11 * v - factor.a21 * u) / det,
    )


def eval_word(word, point):
    """A word applied right to left: the last factor acts first."""
    for factor in reversed(word.factors):
        point = _apply_factor(factor, point)
    return point


def eval_word_inverse(word, point):
    for factor in word.factors:
        point = _unapply_factor(factor, point)
    return point


def word_jacobian(word) -> Fraction:
    """Product of the affine determinants; elementary factors have 1."""
    det = Fraction(1)
    for factor in word.factors:
        if not hasattr(factor, "shift"):
            det *= factor.a11 * factor.a22 - factor.a12 * factor.a21
    return det


def poly_degree(p) -> int:
    return max((i + j for (i, j), _ in p.terms()), default=-1)


def check_line_proof(case, H, inv, word, verified, points) -> bool:
    """The parsed map, the inverse and the returned word agree with the
    generating word at every point, and the certificate verified."""
    if verified is not True:
        return False
    for p in points:
        hp = eval_word(case.word, p)
        if eval_map(H, p) != hp or eval_word(word, p) != hp:
            return False
        if eval_map(inv, hp) != p:
            return False
        if eval_word(case.word, eval_map(inv, p)) != p:
            return False
    return True


def check_recognized(case, word, report, points) -> bool:
    """decide_automorphism's word recomposes H and inverts it pointwise;
    the similarity ratio is exactly deg g / deg f."""
    for p in points:
        hp = eval_word(case.word, p)
        if eval_word(word, p) != hp:
            return False
        if eval_word_inverse(word, hp) != p:
            return False
        if eval_word(case.word, eval_word_inverse(word, p)) != p:
            return False
    ratio = Fraction(poly_degree(case.H.second), poly_degree(case.H.first))
    return report.similar is True and report.factor == ratio


def check_rejected(case, result, error, points) -> bool:
    """H o (x, y^2) is refused by both calls with reason
    JacobianNotConstant, and the reported Jacobian is 2 c y."""
    if getattr(result, "reason", None) != "JacobianNotConstant":
        return False
    if getattr(error, "reason", None) != "JacobianNotConstant":
        return False
    c = word_jacobian(case.word)
    return all(eval_poly(result.jacobian, *p) == 2 * c * p[1] for p in points)


# ---------------------------------------------------------------------------
# Criterion 7 oracle over integer coefficient lists
# ---------------------------------------------------------------------------


def _padd(p, q):
    out = [0] * max(len(p), len(q))
    for k, c in enumerate(p):
        out[k] += c
    for k, c in enumerate(q):
        out[k] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _pmul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    while out and out[-1] == 0:
        out.pop()
    return out


def _det(matrix):
    """Cofactor expansion along the first row, entries polynomials in x."""
    if len(matrix) == 1:
        return matrix[0][0]
    total = []
    for col, entry in enumerate(matrix[0]):
        if not entry:
            continue
        minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
        term = _pmul(entry, _det(minor))
        total = _padd(total, term if col % 2 == 0 else [-c for c in term])
    return total


def _quotient_rows(core):
    """(p(x) - p(y)) / (x - y) for p = c1 t + c2 t^2 + c3 t^3, as its
    y-coefficients (leading first), each a coefficient list in x."""
    terms = {}
    for k, c in enumerate(core, start=1):
        for i in range(k):
            terms[i, k - 1 - i] = terms.get((i, k - 1 - i), 0) + c
    terms = {key: c for key, c in terms.items() if c}
    if not terms:
        return None
    dy = max(j for _, j in terms)
    rows = []
    for j in range(dy, -1, -1):
        row = [0] * (1 + max((i for i, jj in terms if jj == j), default=-1))
        for (i, jj), c in terms.items():
            if jj == j:
                row[i] = c
        while row and row[-1] == 0:
            row.pop()
        rows.append(row)
    return rows


def _is_constant(rows):
    return len(rows) == 1 and len(rows[0]) <= 1


def oracle_verdict(core_p, core_q) -> str:
    """Criterion 7's decision from the Sylvester determinant: INJECTIVE
    when it is a nonzero constant, SHARED when it vanishes identically."""
    dp, dq = _quotient_rows(core_p), _quotient_rows(core_q)
    if dp is None and dq is None:
        return REJECTED
    if dp is None or dq is None:
        return INJECTIVE if _is_constant(dq if dp is None else dp) else REJECTED
    if _is_constant(dp) or _is_constant(dq):
        return INJECTIVE
    m, n = len(dp) - 1, len(dq) - 1
    rows = [[[]] * s + dp + [[]] * (n - 1 - s) for s in range(n)]
    rows += [[[]] * s + dq + [[]] * (m - 1 - s) for s in range(m)]
    res = _det(rows)
    if not res:
        return SHARED
    return INJECTIVE if len(res) == 1 else REJECTED


def grid_verdicts(core) -> str:
    return "".join(oracle_verdict(p, q) for p in core for q in core)


def main() -> int:
    fresh = grid_verdicts(GRID_CORE)
    lines = [fresh[k:k + len(GRID_CORE)] for k in range(0, len(fresh), len(GRID_CORE))]
    text = "\n".join(lines) + "\n"
    if "--write" in sys.argv[1:]:
        VERDICTS_FILE.write_text(text, encoding="ascii")
        print("wrote %s: %d injective of %d" % (VERDICTS_FILE, fresh.count(INJECTIVE), len(fresh)))
        return 0
    same = VERDICTS_FILE.read_text(encoding="ascii") == text
    print("%s: %s (%d injective of %d)" % (
        VERDICTS_FILE, "matches the oracle" if same else "DIFFERS from the oracle",
        fresh.count(INJECTIVE), len(fresh)))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
