"""Polynomial line embeddings: injectivity, immersion, rectification.

A parametrized curve t |-> (p(t), q(t)) is an embedding of the line when
it is injective and an immersion.  Both tests here are algebraic and
valid over any extension field, not just the rationals:

* injectivity fails exactly when the difference quotients
  D_p(s, t) = (p(s) - p(t)) / (s - t) and D_q share a zero over the
  algebraic closure, decided by the resultant of rows in y packed into
  ints straight off p's and q's numerators, whose suffix sums also give
  the cell bound (subresultant.py).  For p and q of degree at most 3 it
  is a closed-form determinant; otherwise, or when that determinant is 0,
  one subresultant sequence runs.
  Its output is unpacked once: the resultant, or for a shared component
  the last remainder, whose primitive part is the gcd witness.
  Degenerate components are decided from degrees, and a BiPoly quotient
  is built only as the witness next to a constant component;
* immersion fails exactly when p' and q' share a root, detected through
  a univariate gcd.

rectify straightens an embedded line: it returns a word of tame factors
Phi with Phi(p(t), q(t)) = (t, 0).  The degree reduction is the one
tame.decide_automorphism runs on maps (tame._peel), here on the pair of
univariate components; rectify adds the degree-1 finish.  States the
Abhyankar-Moh theorem rules out raise AbhyankarMohViolation rather than
being silently assumed away.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import (
    BiPoly,
    Parametrization,
    UniPoly,
    _cdiv,
    _primitive_part,
    gcd_univariate,
)
from .errors import AbhyankarMohViolation, NotAnEmbedding
from .kronecker import digits
from .subresultant import _cells, _subresultants
from .tame import (
    AffineFactor,
    ElementaryFactor,
    Factor,
    Factorization,
    _peel,
    factorization_inverse,
)


def difference_quotient(p: UniPoly) -> BiPoly:
    """The bivariate polynomial (p(x) - p(y)) / (x - y).

    Expanded directly from x^k - y^k = (x - y) * sum_{i+j=k-1} x^i y^j,
    so no polynomial division is involved.  Constant terms of p drop out;
    the y-leading coefficient of the result is the leading coefficient of
    p, so for nonconstant p the quotient is nonzero with y-degree
    deg(p) - 1.

    Each key (i, k - 1 - i) gets exactly one numerator, that of x^k in
    p, over p's denominator.
    """
    return BiPoly._reduce({(i, k - 1 - i): c for k, c in p._t.items() for i in range(k)}, p._d)


def _quotient_rows(n: list[int], bits: int) -> list[int]:
    """Rows in y of difference_quotient(p) times p's denominator, d >= 2,
    packed at x = 2^bits, highest first, from p's numerators n_0, ..., n_d.
    The y^j row is the suffix n_(j+1), ..., n_d (its 1-norm a suffix sum of
    |n_k|), so P_(d-1) = n_d and P_(j-1) = P_j * 2^bits + n_j."""
    rows = [n[-1]]
    for c in n[-2:0:-1]:
        rows.append((rows[-1] << bits) + c)
    return rows


def _row_squares(n: list[int]) -> int:
    """The sum of the squared 1-norms of _quotient_rows(n, bits)'s rows,
    suffix sums of |n_k|: all that subresultant._cells reads of them."""
    s = total = 0
    for c in n[:0:-1]:
        s += abs(c)
        total += s * s
    return total


@dataclass(frozen=True)
class Check:
    """Boolean verdict plus a witness polynomial when the answer is no."""

    ok: bool
    witness: BiPoly | UniPoly | None = None


def is_injective_param(gamma: Parametrization) -> Check:
    """Is t |-> (p(t), q(t)) injective over the algebraic closure?

    True exactly when the difference quotients D_p and D_q have no common
    zero over the closure.  Because each quotient's y-leading coefficient
    is a nonzero constant, every root of their resultant in y lifts to a
    genuine common zero, so: resultant a nonzero constant means injective;
    a nonconstant resultant is itself the witness (its roots carry the
    collisions); an identically zero resultant means a shared component,
    and the bivariate gcd is the witness.  The sequence that finds the zero
    resultant ends in a Q(x)-associate of that gcd, and the quotients'
    x-contents are 1 (their y-leading rows are constants), so the gcd is
    its primitive part.  The rows are the quotients times positive
    constants (_quotient_rows), which change none of these answers.
    """
    p, q = gamma.first, gamma.second
    dp, dq = p.degree(), q.degree()
    if dp <= 0 and dq <= 0:
        # Both components constant: every parameter pair collides and
        # gcd(0, 0) = 0 is the (degenerate) shared locus.
        return Check(False, BiPoly.zero())
    if dp <= 0 or dq <= 0:
        # One component constant: collisions are exactly the zeros of the
        # other quotient, so injectivity needs that quotient zero-free,
        # i.e. a nonzero constant (the component has degree 1).
        other = q if dp <= 0 else p
        if other.degree() == 1:
            return Check(True, None)
        return Check(False, difference_quotient(other).monic())
    if dp == 1 or dq == 1:
        # A nonzero constant quotient has no zeros at all, shared or not.
        return Check(True, None)
    a = [p._t.get(k, 0) for k in range(dp + 1)]
    b = [q._t.get(k, 0) for k in range(dq + 1)]
    cells = _cells(dp - 1, _row_squares(a), dq - 1, _row_squares(b))
    bits = 8 * cells[0]
    h, res = _subresultants(_quotient_rows(a, bits), _quotient_rows(b, bits), cells)
    if len(h) > 1:
        return Check(False, _primitive_part(h, cells[1]).monic())
    res = digits(res, cells[1])
    if len(res) == 1 and 0 in res:
        return Check(True, None)
    return Check(False, UniPoly._new(res).monic())


def is_immersion(gamma: Parametrization) -> Check:
    """Does the derivative of the curve ever vanish?

    Fails exactly when gcd(p', q') is nonconstant -- or when both
    derivatives are identically zero, i.e. the curve is a point.
    """
    dp = gamma.first.derivative()
    dq = gamma.second.derivative()
    g = gcd_univariate(dp, dq)
    if g.is_zero() or not g.is_constant():
        return Check(False, g)
    return Check(True, None)


@dataclass(frozen=True)
class EmbeddingReport:
    """Joint injectivity/immersion verdict with a single witness.

    When immersion fails its gcd witness is reported even if injectivity
    failed too; the injectivity witness is used only when immersion holds.
    """

    injective: bool
    immersion: bool
    witness: BiPoly | UniPoly | None

    def to_json_dict(self) -> dict:
        return {
            "injective": self.injective,
            "immersion": self.immersion,
            "witness": None if self.witness is None else self.witness.render(),
        }


# (gamma, report) for the last curve is_embedding decided.
_LAST_EMBEDDING: tuple = (None, None)


def is_embedding(gamma: Parametrization) -> EmbeddingReport:
    """Injectivity and immersion of gamma, with one witness.  The last
    answer is kept by the identity of gamma, so rectify's check on the
    curve prove_line has just tested reruns neither test.  Identity is a
    sound key, as for jacobian_det's memo (arith's docstring): the entry
    holds gamma, so its id is not reused, and a Parametrization never
    changes.  An equal but distinct curve is decided afresh."""
    global _LAST_EMBEDDING
    last, report = _LAST_EMBEDDING  # one read: another thread may replace it
    if last is gamma:
        return report
    inj = is_injective_param(gamma)
    imm = is_immersion(gamma)
    if not imm.ok:
        witness = imm.witness
    elif not inj.ok:
        witness = inj.witness
    else:
        witness = None
    report = EmbeddingReport(injective=inj.ok, immersion=imm.ok, witness=witness)
    _LAST_EMBEDDING = (gamma, report)
    return report


def rectify(gamma: Parametrization) -> Factorization:
    """Tame word Phi with Phi(gamma(t)) = (t, 0).

    Precondition: gamma is an embedding (checked; NotAnEmbedding raised
    otherwise).  tame's degree reduction peels elementary factors off the
    curve until a component has degree at most 1; the finish then makes
    that component t and clears the other.  Phi is the finish after the
    inverse of the peeled word.  A reduction that stops early, or a
    component left constant, would contradict the Abhyankar-Moh theorem.
    """
    report = is_embedding(gamma)
    if not (report.injective and report.immersion):
        raise NotAnEmbedding(report)
    peeled, (p, q), ok = _peel(gamma.first, gamma.second)
    if not ok:
        raise AbhyankarMohViolation(
            "degree of the higher component is not a multiple of the lower", (p, q)
        )
    if 1 not in (p.degree(), q.degree()):
        raise AbhyankarMohViolation(
            "both components constant on an embedded line"
            if max(p.degree(), q.degree()) < 1
            else "one component constant, the other of degree >= 2",
            (p, q),
        )
    finish: list[Factor] = []
    if p.degree() != 1:
        finish.append(AffineFactor(0, 1, 1, 0))
        p, q = q, p
    a, b = p.coeff(1), p.coeff(0)
    finish += [AffineFactor(_cdiv(1, a), 0, 0, 1, _cdiv(-b, a), 0), ElementaryFactor("second", -q)]
    finish = [f for f in reversed(finish) if not f.is_identity()]
    return Factorization(tuple(finish) + factorization_inverse(Factorization(peeled)).factors)
