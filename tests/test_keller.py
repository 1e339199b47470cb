"""Keller maps: the inversion lemma and the certified line pipeline."""

import random
from fractions import Fraction

import pytest
from jsonschema import validate

from kellerkit import (
    AffineFactor,
    BiPoly,
    Certificate,
    ElementaryFactor,
    Factorization,
    JacobianNotConstant,
    Line,
    PolyMap,
    PreconditionViolated,
    UniPoly,
    compose_map,
    factorization_inverse,
    factorization_to_map,
    fixed_axis_invert,
    is_keller,
    prove_line,
    verify_certificate,
)
from kellerkit.keller import (
    AxisFixed,
    DegreeCollapse,
    EmbeddingVerified,
    FinalCheck,
    Inverted,
    JacobianConstant,
    LineRestriction,
    Rectified,
)

from conftest import (
    draw_tame_word,
    random_axis_fixing_word,
    random_axis_preserving_affine,
)

x = BiPoly.x
y = BiPoly.y

STEP_ORDER = [
    "jacobian_constant",
    "line_restriction",
    "embedding_verified",
    "rectified",
    "axis_fixed",
    "degree_collapse",
    "inverted",
    "final_check",
]

RATIONAL = {
    "type": "array",
    "minItems": 2,
    "maxItems": 2,
    "items": {"type": "integer"},
}
AFFINE_JSON = {
    "type": "object",
    "properties": {
        "kind": {"const": "affine"},
        "matrix": {
            "type": "array",
            "minItems": 2,
            "maxItems": 2,
            "items": {
                "type": "array",
                "minItems": 2,
                "maxItems": 2,
                "items": RATIONAL,
            },
        },
        "translation": {
            "type": "array",
            "minItems": 2,
            "maxItems": 2,
            "items": RATIONAL,
        },
    },
    "required": ["kind", "matrix", "translation"],
    "additionalProperties": False,
}
ELEMENTARY_JSON = {
    "type": "object",
    "properties": {
        "kind": {"const": "elementary"},
        "axis": {"enum": ["first", "second"]},
        "shift": {"type": "string"},
    },
    "required": ["kind", "axis", "shift"],
    "additionalProperties": False,
}
WORD_JSON = {"type": "array", "items": {"oneOf": [AFFINE_JSON, ELEMENTARY_JSON]}}
PAIR_JSON = {
    "type": "object",
    "properties": {"first": {"type": "string"}, "second": {"type": "string"}},
    "required": ["first", "second"],
    "additionalProperties": False,
}
CERTIFICATE_SCHEMA = {
    "type": "array",
    "items": {
        "oneOf": [
            {
                "type": "object",
                "properties": {
                    "step": {"const": "jacobian_constant"},
                    "value": RATIONAL,
                },
                "required": ["step", "value"],
                "additionalProperties": False,
            },
            {
                "type": "object",
                "properties": {
                    "step": {"const": "line_restriction"},
                    "gamma": PAIR_JSON,
                    "affine": AFFINE_JSON,
                },
                "required": ["step", "gamma", "affine"],
                "additionalProperties": False,
            },
            {
                "type": "object",
                "properties": {
                    "step": {"const": "embedding_verified"},
                    "report": {
                        "type": "object",
                        "properties": {
                            "injective": {"type": "boolean"},
                            "immersion": {"type": "boolean"},
                            "witness": {"type": ["string", "null"]},
                        },
                        "required": ["injective", "immersion", "witness"],
                        "additionalProperties": False,
                    },
                },
                "required": ["step", "report"],
                "additionalProperties": False,
            },
            {
                "type": "object",
                "properties": {
                    "step": {"enum": ["rectified", "inverted"]},
                    "factorization": WORD_JSON,
                },
                "required": ["step", "factorization"],
                "additionalProperties": False,
            },
            {
                "type": "object",
                "properties": {"step": {"const": "axis_fixed"}, "map": PAIR_JSON},
                "required": ["step", "map"],
                "additionalProperties": False,
            },
            {
                "type": "object",
                "properties": {
                    "step": {"const": "degree_collapse"},
                    "min_degree": {"type": "integer"},
                },
                "required": ["step", "min_degree"],
                "additionalProperties": False,
            },
            {
                "type": "object",
                "properties": {
                    "step": {"const": "final_check"},
                    "verified": {"type": "boolean"},
                },
                "required": ["step", "verified"],
                "additionalProperties": False,
            },
        ]
    },
}

LINES = [Line(0, 1, 0), Line(1, 1, 0), Line(2, 3, Fraction(1, 2)), Line(1, 0, -1)]


def shear():
    return PolyMap(x() + y() ** 2, y())


class TestIsKeller:
    def test_positive(self):
        report = is_keller(PolyMap(x() + y() ** 3, y()))
        assert report.is_keller
        assert report.jacobian == BiPoly.one()
        scaled = is_keller(PolyMap(3 * x(), y()))
        assert scaled.is_keller and scaled.jacobian == BiPoly.constant(3)

    def test_negative(self):
        report = is_keller(PolyMap(x() ** 2, y()))
        assert not report.is_keller
        assert report.jacobian == BiPoly({(1, 0): 2})
        assert not is_keller(PolyMap(BiPoly.zero(), BiPoly.zero())).is_keller

    def test_json(self):
        assert is_keller(PolyMap(x() ** 2, y())).to_json_dict() == {
            "jacobian": "2*x",
            "is_keller": False,
        }


class TestCertificateBasics:
    def test_step_renders(self):
        assert JacobianConstant(2).render() == "jacobian_constant: 2"
        assert DegreeCollapse(1).render() == "degree_collapse: min degree 1"
        assert FinalCheck(True).render() == "final_check: true"
        assert FinalCheck(False).render() == "final_check: false"

    def test_find(self):
        cert = Certificate((JacobianConstant(1), FinalCheck(True)))
        assert cert.find(FinalCheck) == FinalCheck(True)
        assert cert.find(Inverted) is None


class TestFixedAxisInvert:
    def test_known(self):
        H = PolyMap(x() + y() ** 3, 2 * y())
        word, cert = fixed_axis_invert(H)
        assert factorization_to_map(word) == H
        inv = factorization_to_map(factorization_inverse(word))
        assert compose_map(inv, H).is_identity()
        assert compose_map(H, inv).is_identity()
        assert cert.find(JacobianConstant).value == 2
        assert cert.find(DegreeCollapse).min_degree == 1
        assert cert.find(FinalCheck).verified
        assert verify_certificate(cert, H)

    def test_identity(self):
        word, cert = fixed_axis_invert(PolyMap.identity())
        assert len(word) == 0
        assert verify_certificate(cert, PolyMap.identity())

    def test_rejects_non_keller(self):
        # Fixes the axis pointwise, but the Jacobian is y + 1.
        H = PolyMap(x() + x() * y(), y())
        with pytest.raises(PreconditionViolated) as exc:
            fixed_axis_invert(H)
        assert exc.value.condition == "JacobianNotConstant"

    def test_rejects_moved_axis(self):
        with pytest.raises(PreconditionViolated) as exc:
            fixed_axis_invert(PolyMap(x() + 1, y()))
        assert exc.value.condition == "AxisNotFixed"
        with pytest.raises(PreconditionViolated) as exc:
            fixed_axis_invert(PolyMap(x(), y() + x()))
        assert exc.value.condition == "AxisNotFixed"

    def test_random_axis_fixing_words(self, rng):
        for _ in range(10):
            inner = random_axis_fixing_word(rng, 3)
            A = random_axis_preserving_affine(rng)
            word = Factorization((A.inverse(),) + inner.factors + (A,))
            H = factorization_to_map(word)
            assert H.first.on_x_axis() == UniPoly.x()
            assert H.second.on_x_axis().is_zero()
            # The inversion lemma: such a map always collapses.
            assert min(H.first.total_degree(), H.second.total_degree()) <= 1
            got, cert = fixed_axis_invert(H)
            assert factorization_to_map(got) == H
            inv = factorization_to_map(factorization_inverse(got))
            assert compose_map(inv, H).is_identity()
            assert compose_map(H, inv).is_identity()
            assert verify_certificate(cert, H)


class TestVerifyCertificate:
    def _cert(self):
        H = shear()
        _, word, cert = prove_line(H, Line(0, 1, 0))
        return H, word, cert

    def test_genuine(self):
        H, _, cert = self._cert()
        assert verify_certificate(cert, H)

    def test_flipped_final_check(self):
        H, _, cert = self._cert()
        tampered = Certificate(
            tuple(
                FinalCheck(False) if isinstance(s, FinalCheck) else s
                for s in cert.steps
            )
        )
        assert not verify_certificate(tampered, H)

    def test_wrong_word(self):
        H, _, cert = self._cert()
        bogus = Factorization((AffineFactor(2, 0, 0, 1),))
        tampered = Certificate(
            tuple(
                Inverted(bogus) if isinstance(s, Inverted) else s for s in cert.steps
            )
        )
        assert not verify_certificate(tampered, H)

    def test_missing_steps(self):
        H, _, cert = self._cert()
        stripped = Certificate(
            tuple(s for s in cert.steps if not isinstance(s, Inverted))
        )
        assert not verify_certificate(stripped, H)
        assert not verify_certificate(Certificate(()), H)

    def test_wrong_map(self):
        _, _, cert = self._cert()
        other = PolyMap(x() + y() ** 3, y())
        assert not verify_certificate(cert, other)


class TestProveLine:
    def test_shear_on_axis(self):
        H = shear()
        inv_map, word, cert = prove_line(H, Line(0, 1, 0))
        assert inv_map == PolyMap(x() - y() ** 2, y())
        assert factorization_to_map(word) == H
        assert [s.step for s in cert.steps] == STEP_ORDER
        assert verify_certificate(cert, H)

    def test_certificate_schema(self):
        H = shear()
        _, _, cert = prove_line(H, Line(2, 3, Fraction(1, 2)))
        validate(cert.to_json_list(), CERTIFICATE_SCHEMA)

    def test_identity_map(self):
        inv_map, word, cert = prove_line(PolyMap.identity(), Line(0, 1, 0))
        assert inv_map.is_identity()
        assert len(word) == 0
        assert verify_certificate(cert, PolyMap.identity())

    def test_vertical_line(self):
        H = shear()
        inv_map, word, cert = prove_line(H, Line(1, 0, -1))
        assert compose_map(inv_map, H).is_identity()
        assert verify_certificate(cert, H)

    def test_fractional_coefficients(self):
        A = AffineFactor(Fraction(1, 2), 0, 0, 2, Fraction(1, 3), 0)
        E = ElementaryFactor("first", UniPoly({2: Fraction(3, 4)}))
        H = factorization_to_map(Factorization((E, A)))
        inv_map, word, cert = prove_line(H, Line(1, 2, Fraction(-1, 5)))
        assert compose_map(inv_map, H).is_identity()
        assert compose_map(H, inv_map).is_identity()
        assert factorization_to_map(word) == H

    def test_random_words_and_lines(self, rng):
        for _ in range(6):
            word = draw_tame_word(rng, 4, 3, 3, 8)
            H = factorization_to_map(word)
            line = LINES[rng.randrange(len(LINES))]
            inv_map, word_h, cert = prove_line(H, line)
            assert compose_map(inv_map, H).is_identity()
            assert compose_map(H, inv_map).is_identity()
            assert factorization_to_map(word_h) == H
            assert [s.step for s in cert.steps] == STEP_ORDER
            assert verify_certificate(cert, H)
            validate(cert.to_json_list(), CERTIFICATE_SCHEMA)

    def test_inverse_independent_of_line(self, rng):
        word = draw_tame_word(rng, 3, 3, 3, 8)
        H = factorization_to_map(word)
        inverses = [prove_line(H, line)[0] for line in LINES]
        assert all(inv == inverses[0] for inv in inverses)

    def test_non_keller_rejected(self):
        with pytest.raises(JacobianNotConstant) as exc:
            prove_line(PolyMap(x() ** 2, y()), Line(0, 1, 0))
        assert exc.value.jacobian == BiPoly({(1, 0): 2})

    def test_word_inverse_structure(self):
        # The returned word composes to H, so its reversal of inverses is
        # an explicit inverse word.
        H = shear()
        _, word, _ = prove_line(H, Line(1, 1, 1))
        inv_word = factorization_inverse(word)
        assert compose_map(
            factorization_to_map(inv_word), factorization_to_map(word)
        ).is_identity()
