"""Polynomial line embeddings: injectivity, immersion, rectification.

A parametrized curve t |-> (p(t), q(t)) is an embedding of the line when
it is injective and an immersion.  Both tests here are algebraic and
valid over any extension field, not just the rationals:

* injectivity fails exactly when the difference quotients
  D_p(s, t) = (p(s) - p(t)) / (s - t) and D_q share a zero over the
  algebraic closure, detected through a resultant (and a bivariate gcd
  when a witness is needed);
* immersion fails exactly when p' and q' share a root, detected through
  a univariate gcd.

rectify straightens an embedded line: it returns a word of tame factors
Phi with Phi(p(t), q(t)) = (t, 0), by the classical degree-reduction
argument.  The loop's impossible states (which would contradict the
Abhyankar-Moh theorem) raise AbhyankarMohViolation rather than being
silently assumed away.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import (
    BiPoly,
    Coeff,
    Parametrization,
    UniPoly,
    _cdiv,
    gcd_bivariate,
    gcd_univariate,
    normalize_leading,
    resultant_y,
)
from .errors import AbhyankarMohViolation, NotAnEmbedding
from .tame import AffineFactor, ElementaryFactor, Factor, Factorization


def difference_quotient(p: UniPoly) -> BiPoly:
    """The bivariate polynomial (p(x) - p(y)) / (x - y).

    Expanded directly from x^k - y^k = (x - y) * sum_{i+j=k-1} x^i y^j,
    so no polynomial division is involved.  Constant terms of p drop out;
    the y-leading coefficient of the result is the leading coefficient of
    p, so for nonconstant p the quotient is nonzero with y-degree
    deg(p) - 1.
    """
    terms: dict[tuple[int, int], Coeff] = {}
    for k, c in p.terms():
        for i in range(k):
            key = (i, k - 1 - i)
            s = terms.get(key, 0) + c
            if s:
                terms[key] = s
            else:
                del terms[key]
    return BiPoly(terms)


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
    and the bivariate gcd is the witness.
    """
    dp = difference_quotient(gamma.first)
    dq = difference_quotient(gamma.second)
    if dp.is_zero() and dq.is_zero():
        # Both components constant: every parameter pair collides and
        # gcd(0, 0) = 0 is the (degenerate) shared locus.
        return Check(False, BiPoly.zero())
    if dp.is_zero() or dq.is_zero():
        # One component constant: collisions are exactly the zeros of the
        # other quotient, so injectivity needs that quotient zero-free,
        # i.e. a nonzero constant (the component has degree 1).
        other = dq if dp.is_zero() else dp
        if other.is_constant():
            return Check(True, None)
        return Check(False, normalize_leading(other))
    if dp.is_constant() or dq.is_constant():
        # A nonzero constant quotient has no zeros at all, shared or not.
        return Check(True, None)
    # Put the quotient of the higher-degree component first so its
    # constant y-leading coefficient guards the resultant.
    if dp.degree_y() >= dq.degree_y():
        res = resultant_y(dp, dq)
    else:
        res = resultant_y(dq, dp)
    if res.is_zero():
        return Check(False, gcd_bivariate(dp, dq))
    if res.is_constant():
        return Check(True, None)
    return Check(False, res.monic())


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


def is_embedding(gamma: Parametrization) -> EmbeddingReport:
    inj = is_injective_param(gamma)
    imm = is_immersion(gamma)
    if not imm.ok:
        witness = imm.witness
    elif not inj.ok:
        witness = inj.witness
    else:
        witness = None
    return EmbeddingReport(injective=inj.ok, immersion=imm.ok, witness=witness)


def _eff_deg(p: UniPoly) -> int:
    return max(p.degree(), 0)


def rectify(gamma: Parametrization) -> Factorization:
    """Tame word Phi with Phi(gamma(t)) = (t, 0).

    Precondition: gamma is an embedding (checked; NotAnEmbedding raised
    otherwise).  The loop reduces the degree of the higher component by
    an elementary factor while both degrees exceed 1; the degree of the
    higher component must be a multiple of the lower one or the input
    would contradict the Abhyankar-Moh theorem.
    """
    report = is_embedding(gamma)
    if not (report.injective and report.immersion):
        raise NotAnEmbedding(report)
    p, q = gamma.first, gamma.second
    applied: list[Factor] = []

    def push(fac: Factor):
        nonlocal p, q
        if not fac.is_identity():
            applied.append(fac)
            p, q = fac.apply((p, q))

    while True:
        mp, mq = _eff_deg(p), _eff_deg(q)
        if mp == 0 and mq == 0:
            raise AbhyankarMohViolation(
                "both components constant on an embedded line", (p, q)
            )
        if mq == 1 and mp != 1:
            push(AffineFactor(0, 1, 1, 0))
            mp, mq = mq, mp
        if mp == 1:
            a, b = p.coeff(1), p.coeff(0)
            push(AffineFactor(_cdiv(1, a), 0, 0, 1, _cdiv(-b, a), 0))
            assert p == UniPoly.x()
            push(ElementaryFactor("second", -q))
            assert q.is_zero()
            break
        if mp == 0 or mq == 0:
            raise AbhyankarMohViolation(
                "one component constant, the other of degree >= 2", (p, q)
            )
        # Both degrees >= 2: peel the higher component (ties: the second).
        hi_is_first = mp > mq
        dh, dl = (mp, mq) if hi_is_first else (mq, mp)
        if dh % dl:
            raise AbhyankarMohViolation(
                "degree of the higher component is not a multiple of the lower",
                (p, q),
            )
        d = dh // dl
        hi, lo = (p, q) if hi_is_first else (q, p)
        lam = _cdiv(hi.lc(), lo.lc() ** d)
        shift = UniPoly({d: -lam})
        before = dh
        push(ElementaryFactor("first" if hi_is_first else "second", shift))
        after = _eff_deg(p if hi_is_first else q)
        assert after < before, "elementary step failed to reduce the degree"
    return Factorization(tuple(reversed(applied)))
