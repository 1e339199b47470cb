"""Keller maps and certified inversion along an embedded line.

A Keller map is a polynomial map of the plane whose Jacobian determinant
is a nonzero constant.  The central routine, prove_line, takes a Keller
map H together with a line and produces an explicit inverse of H as a
word of tame factors, plus a replayable Certificate recording every step
of the argument:

1. the Jacobian determinant is a nonzero constant;
2. H restricted to the line is a parametrized curve gamma, read off
   H o L on the first axis, where the affine factor L carries that axis
   onto the line; H o L is composed once, for gamma and for G in step 5;
3. gamma is injective (hypothesis) and an immersion (automatic), tested
   once: rectify's own precondition check on the same gamma object gets
   the remembered answer (embedding.is_embedding);
4. a tame word Phi rectifies gamma onto the first axis;
5. G = Phi o H o L fixes the first axis pointwise;
6. a map fixing the axis pointwise collapses to min degree <= 1 -- the
   alternative would contradict the polygon similarity theorem, and that
   contradiction is raised as TheoremViolationWitness with the polygons
   attached rather than assumed impossible;
7. the low-degree map inverts directly, giving a factor word for H;
8. the final check: the assembled word recomposes to H, and both
   compositions of H with its inverse are the identity, symbolically.
   G's word has already passed the same cancellation test inside
   fixed_axis_invert.

Every check is exact; no step trusts a previous session's output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    Coeff,
    KellerReport,
    Line,
    Parametrization,
    PolyMap,
    UniPoly,
    compose_map,
    frac_pair,
    is_keller,
    line_parametrization,
)
from .embedding import EmbeddingReport, is_embedding, rectify
from .errors import (
    JacobianNotConstant,
    NotInjectiveOnLine,
    PreconditionViolated,
    TheoremViolationWitness,
)
from .newton import newton_polygon, similarity_check
from .tame import (
    AffineFactor,
    Factorization,
    _require_keller,
    apply_factors,
    factorization_inverse,
    factorization_to_map,
    invert_low_degree,
)


# ---------------------------------------------------------------------------
# Certificate steps.  A Certificate is an ordered tuple of these records;
# each serializes with a stable "step" tag and enough data to replay the
# claim it certifies.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JacobianConstant:
    value: Coeff

    step = "jacobian_constant"

    def to_json_dict(self) -> dict:
        return {"step": self.step, "value": frac_pair(self.value)}

    def render(self) -> str:
        return "jacobian_constant: %s" % Fraction(self.value)


@dataclass(frozen=True)
class LineRestriction:
    gamma: Parametrization
    affine: AffineFactor

    step = "line_restriction"

    def to_json_dict(self) -> dict:
        return {
            "step": self.step,
            "gamma": self.gamma.to_json_dict(),
            "affine": self.affine.to_json_dict(),
        }

    def render(self) -> str:
        return "line_restriction: gamma(t) = %s" % self.gamma.render()


@dataclass(frozen=True)
class EmbeddingVerified:
    report: EmbeddingReport

    step = "embedding_verified"

    def to_json_dict(self) -> dict:
        return {"step": self.step, "report": self.report.to_json_dict()}

    def render(self) -> str:
        return "embedding_verified: injective=%s immersion=%s" % (
            "true" if self.report.injective else "false",
            "true" if self.report.immersion else "false",
        )


@dataclass(frozen=True)
class _WordStep:
    """A step that records a factor word."""

    word: Factorization

    def to_json_dict(self) -> dict:
        return {"step": self.step, "factorization": self.word.to_json_list()}

    def render(self) -> str:
        return "%s: %d factors" % (self.step, len(self.word))


class Rectified(_WordStep):
    step = "rectified"


@dataclass(frozen=True)
class AxisFixed:
    map: PolyMap

    step = "axis_fixed"

    def to_json_dict(self) -> dict:
        return {"step": self.step, "map": self.map.to_json_dict()}

    def render(self) -> str:
        return "axis_fixed: G = %s" % self.map.render()


@dataclass(frozen=True)
class DegreeCollapse:
    min_degree: int

    step = "degree_collapse"

    def to_json_dict(self) -> dict:
        return {"step": self.step, "min_degree": self.min_degree}

    def render(self) -> str:
        return "degree_collapse: min degree %d" % self.min_degree


class Inverted(_WordStep):
    step = "inverted"


@dataclass(frozen=True)
class FinalCheck:
    verified: bool

    step = "final_check"

    def to_json_dict(self) -> dict:
        return {"step": self.step, "verified": self.verified}

    def render(self) -> str:
        return "final_check: %s" % ("true" if self.verified else "false")


@dataclass(frozen=True)
class Certificate:
    steps: tuple

    def find(self, cls):
        for s in self.steps:
            if isinstance(s, cls):
                return s
        return None

    def to_json_list(self) -> list:
        return [s.to_json_dict() for s in self.steps]


def _cancelling_inverse(word: Factorization, H: PolyMap) -> PolyMap | None:
    """The map of word's inverse when it cancels H symbolically on both
    sides, None otherwise."""
    inv = factorization_to_map(factorization_inverse(word))
    if compose_map(inv, H).is_identity() and compose_map(H, inv).is_identity():
        return inv
    return None


def verified_inverse(word: Factorization, H: PolyMap) -> PolyMap | None:
    """The final check: H's inverse map when word recomposes to H and its
    inverse cancels H on both sides, None otherwise.  Recomposing first
    rejects a wrong word before the two compositions."""
    if factorization_to_map(word) != H:
        return None
    return _cancelling_inverse(word, H)


def verify_certificate(cert: Certificate, H: PolyMap) -> bool:
    """Replay a certificate against H: its final check must be recorded as
    passed, and its inverse word must pass verified_inverse."""
    final = cert.find(FinalCheck)
    inverted = cert.find(Inverted)
    if final is None or inverted is None or not final.verified:
        return False
    return verified_inverse(inverted.word, H) is not None


def fixed_axis_invert(H: PolyMap) -> tuple[Factorization, Certificate]:
    """Invert a Keller map that fixes the first axis pointwise.

    Preconditions: the Jacobian determinant is a nonzero constant,
    H(x, 0) = (x, 0) identically.  Such a map must have a component of
    degree at most 1: both components of degree above 1 would make the
    Newton polygons of the components similar with a positive ratio r,
    forcing the point (r, 0) into the polygon of the second component,
    whose support meets the x-axis only at the origin.  If that
    impossible configuration is ever observed it is raised as
    TheoremViolationWitness carrying both polygons.
    """
    jac = _require_keller(H)
    axis_images = (("first", H.first, UniPoly.x()), ("second", H.second, UniPoly.zero()))
    for name, comp, image in axis_images:
        if comp.on_x_axis() != image:
            raise PreconditionViolated(
                "AxisNotFixed",
                "H(x, 0) has %s component %s" % (name, comp.on_x_axis().render("x")),
            )
    f, g = H.first, H.second
    df, dg = f.total_degree(), g.total_degree()
    if min(df, dg) > 1:
        report = similarity_check(f, g)
        r = Fraction(dg, df)
        n_g = newton_polygon(g)
        raise TheoremViolationWitness(
            "axis-fixing Keller map with both degrees above 1",
            details={
                "degrees": [df, dg],
                "similarity": report.to_json_dict(),
                "scaled_axis_point": [frac_pair(r), frac_pair(0)],
                "axis_point_in_n_g": n_g.contains((r, 0)),
            },
        )
    word = invert_low_degree(H)
    if _cancelling_inverse(word, H) is None:
        raise TheoremViolationWitness("inverse word failed the symbolic final check")
    cert = Certificate(
        (
            JacobianConstant(jac.constant_value()),
            DegreeCollapse(min(df, dg)),
            Inverted(word),
            FinalCheck(True),
        )
    )
    return word, cert


def prove_line(H: PolyMap, line: Line) -> tuple[PolyMap, Factorization, Certificate]:
    """Certified inversion of a Keller map injective on one line.

    Returns (inverse map, factor word for H, certificate).  Raises
    JacobianNotConstant when H is not Keller, NotInjectiveOnLine when the
    restriction to the line collides, and propagates
    TheoremViolationWitness from the impossible branches.
    """
    gate = is_keller(H)
    if not gate.is_keller:
        raise JacobianNotConstant(gate.jacobian)
    steps = [JacobianConstant(gate.jacobian.constant_value())]

    L = line_parametrization(line)
    hl = compose_map(H, L.to_map())
    gamma = Parametrization(hl.first.on_x_axis(), hl.second.on_x_axis())
    steps.append(LineRestriction(gamma, L))

    report = is_embedding(gamma)
    if not report.injective:
        raise NotInjectiveOnLine(report.witness)
    if not report.immersion:
        # For a Keller map the restriction is automatically an immersion:
        # the chain rule gives gamma'(t) = dH(sigma(t)) * sigma'(t) with
        # dH everywhere invertible and sigma' a nonzero constant vector.
        raise TheoremViolationWitness(
            "restriction of a Keller map failed the immersion test",
            details={
                "witness": report.witness.render() if report.witness is not None else None,
                "gamma": gamma.to_json_dict(),
            },
        )
    steps.append(EmbeddingVerified(report))

    phi = rectify(gamma)
    steps.append(Rectified(phi))

    g1, g2 = apply_factors(phi.factors, (hl.first, hl.second))
    G = PolyMap(g1, g2)
    if G.first.on_x_axis() != UniPoly.x() or G.second.on_x_axis():
        raise TheoremViolationWitness("rectified composition failed to fix the first axis")
    steps.append(AxisFixed(G))

    word_g, inner = fixed_axis_invert(G)
    steps.append(inner.find(DegreeCollapse))

    l_inv = L.inverse()
    tail = () if l_inv.is_identity() else (l_inv,)
    word_h = Factorization(
        factorization_inverse(phi).factors + word_g.factors + tail
    )
    steps.append(Inverted(word_h))

    inv_map = verified_inverse(word_h, H)
    if inv_map is None:
        raise TheoremViolationWitness("assembled inverse failed the symbolic final check")
    steps.append(FinalCheck(True))
    return inv_map, word_h, Certificate(tuple(steps))
