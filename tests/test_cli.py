"""Polynomial text format and the command line interface.

Behavioral tests drive main() in-process; the golden tests run the real
interpreter via ``python -m kellerkit`` and compare bytes, so the files
pin the exact serialized output across releases.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellerkit import (
    AbhyankarMohViolation,
    BiPoly,
    DenominatorZero,
    ElementaryFactor,
    EmbeddingReport,
    Factorization,
    KellerKitError,
    KellerReport,
    ParseError,
    PolyMap,
    TheoremViolationWitness,
    UniPoly,
    compose_map,
    factorization_to_map,
)
from kellerkit import arith, cli
from kellerkit.cli import (
    factorization_from_json,
    main,
    parse_bipoly,
    parse_unipoly,
)
from kellerkit.tame import AffineFactor

from conftest import DEG16_F, DEG16_G, DEG4_F, DEG4_G, DENSE6_F, DENSE6_G, PEEL_F, PEEL_G

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_CASES = [
    ("jac_shear_json", ["jac", "x + y^2", "y", "--json"]),
    ("polygon_quadratic", ["polygon", "x^2 + x*y + y^2 - 3"]),
    ("similar_pair", ["similar", "x + y^2", "y + x^3 + 3*x^2*y^2 + 3*x*y^4 + y^6"]),
    ("is_auto_shear_json", ["is-auto", "x + y^2", "y", "--json"]),
    ("invert_swap_cubic", ["invert", "y", "x - y^3"]),
    ("embed_check_cusp_json", ["embed-check", "x^2", "x^3", "--json"]),
    ("embed_check_node_json", ["embed-check", "x^2 - 1", "x^3 - x", "--json"]),
    # Not injective: the witness is a degree-26 resultant with multi-byte cells.
    ("embed_check_deg12_json",
     ["embed-check", "x^12 + 3*x^9 + 3*x^6 + x^3 + x", "x^4 - x^2", "--json"]),
    # D_q = 2*D_p and q' = 2*p': zero closed-form determinants, so the
    # sequence runs on to the shared component and the gcd witness.
    ("embed_check_shared_cubic_json", ["embed-check", "x^3 + x", "2*x^3 + 2*x", "--json"]),
    ("rectify_parabola", ["rectify", "x^2", "x"]),
    ("prove_line_shear_json", ["prove-line", "x + y^2", "y", "--line", "0,1,0", "--json"]),
    ("prove_line_deg4_json", ["prove-line", DEG4_F, DEG4_G, "--line", "1,-1,2", "--json"]),
    # An affine map: its inverted word A e A A, with a rational shear e,
    # is one affine run, which tame.apply_factors applies as one form.
    ("prove_line_affine_json",
     ["prove-line", "54*x - 12*y + 16", "-43*x + 10*y - 31", "--line", "4/3,3,-4/3", "--json"]),
    ("gen_auto_seed42_json", ["gen-auto", "--seed", "42", "--factors", "4", "--json"]),
    # The inverse's powers take the packed product path.
    ("invert_deg16", ["invert", DEG16_F, DEG16_G]),
    # A dense non-Keller pair: the Jacobian takes the packed path.
    ("jac_dense_deg6", ["jac", DENSE6_F, DENSE6_G]),
    # A four-step degree reduction with rational, negative leading coefficients.
    ("is_auto_peel_rational_json", ["is-auto", PEEL_F, PEEL_G, "--json"]),
]


def run_module(args):
    return subprocess.run(
        [sys.executable, "-m", "kellerkit", *args],
        capture_output=True,
        timeout=120,
    )


# A certified check patched to fail: (module, attribute, replacement source,
# a command that reaches the check).
FAILED_CHECKS = [
    pytest.param("keller", "_cancelling_inverse", "lambda word, H: None",
                 ["prove-line", "x + y^2", "y", "--line", "0,1,0"], id="fixed_axis_final_check"),
    pytest.param("keller", "apply_factors", "lambda factors, pair: (BiPoly.zero(), BiPoly.zero())",
                 ["prove-line", "x + y^2", "y", "--line", "0,1,0"], id="axis_fixed"),
    pytest.param("keller", "verified_inverse", "lambda word, H: None",
                 ["prove-line", "x + y^2", "y", "--line", "0,1,0", "--json"],
                 id="prove_line_final_check"),
    pytest.param("tame", "factorization_to_map", "lambda word: PolyMap.identity()",
                 ["is-auto", "x + y^2", "y"], id="recompose"),
    # invert_low_degree's three checks, each reached past a gate patched open
    # or with a completion patched wrong.
    pytest.param("tame", "is_keller", "lambda H: KellerReport(BiPoly.one(), True)",
                 ["is-auto", "x", "1"], id="low_degree_constant_component"),
    pytest.param("tame", "_affine", "lambda f, g: AffineFactor(1, 0, 0, 2)",
                 ["invert", "x + y^2", "y"], id="low_degree_normalization"),
    pytest.param("tame", "is_keller", "lambda H: KellerReport(BiPoly.one(), True)",
                 ["is-auto", "x*y", "y"], id="low_degree_triangular"),
    # The Keller gate patched open for every caller: a map that fixes the
    # axis with both degrees 2 reaches fixed_axis_invert's witness.
    pytest.param("arith", "jacobian_det", "lambda H: BiPoly.one()",
                 ["prove-line", "x + y^2", "y + y^2", "--line", "0,1,0"],
                 id="fixed_axis_both_degrees_above_one"),
    pytest.param("keller", "is_embedding",
                 "lambda gamma: EmbeddingReport(True, False, UniPoly.x())",
                 ["prove-line", "x + y^2", "y", "--line", "0,1,0"], id="prove_line_immersion"),
    # rectify's two AbhyankarMohViolations, past a degree reduction patched
    # to stop where the theorem says an embedding cannot.
    pytest.param("embedding", "_peel", "lambda p, q: ((), (p, q), False)",
                 ["rectify", "x^2", "x"], id="rectify_reduction_stopped"),
    pytest.param("embedding", "_peel", "lambda p, q: ((), (p * p, UniPoly.one()), True)",
                 ["rectify", "x^2", "x"], id="rectify_constant_component"),
]

# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class TestParseBipoly:
    def test_basic(self):
        assert parse_bipoly("x + y^2") == BiPoly({(1, 0): 1, (0, 2): 1})
        assert parse_bipoly("2*x^3*y - 7") == BiPoly({(3, 1): 2, (0, 0): -7})
        assert parse_bipoly("1/2") == BiPoly.constant(Fraction(1, 2))
        assert parse_bipoly("3/4*x*y^2") == BiPoly({(1, 2): Fraction(3, 4)})

    def test_whitespace_insignificant(self):
        assert parse_bipoly(" x+y ") == parse_bipoly("x + y")
        assert parse_bipoly("2 * x ^ 2") == parse_bipoly("2*x^2")
        assert parse_bipoly("x\n+\ny") == parse_bipoly("x + y")
        assert parse_bipoly("x^ 2") == BiPoly({(2, 0): 1})
        assert parse_bipoly("1 / 2 * x") == BiPoly({(1, 0): Fraction(1, 2)})

    def test_repeated_variables_accumulate(self):
        assert parse_bipoly("x*x") == BiPoly({(2, 0): 1})
        assert parse_bipoly("x*y*x") == BiPoly({(2, 1): 1})
        assert parse_bipoly("x^2*x^3") == BiPoly({(5, 0): 1})

    def test_leading_minus(self):
        assert parse_bipoly("-x^2 + 1") == BiPoly({(2, 0): -1, (0, 0): 1})
        assert parse_bipoly("- 2*x") == BiPoly({(1, 0): -2})
        assert parse_bipoly("-1/2") == BiPoly.constant(Fraction(-1, 2))

    def test_subtraction_chain(self):
        assert parse_bipoly("x - y - 1") == BiPoly(
            {(1, 0): 1, (0, 1): -1, (0, 0): -1}
        )

    def test_empty(self):
        with pytest.raises(ParseError) as exc:
            parse_bipoly("")
        assert exc.value.line == 1 and exc.value.column == 1

    def test_garbage_character(self):
        with pytest.raises(ParseError) as exc:
            parse_bipoly("x + @")
        assert exc.value.line == 1
        assert exc.value.column == 5
        assert exc.value.expected == "a coefficient or a variable"

    def test_dangling_caret(self):
        with pytest.raises(ParseError) as exc:
            parse_bipoly("x^")
        assert exc.value.column == 3
        assert exc.value.expected == "a digit"

    def test_dangling_star(self):
        with pytest.raises(ParseError):
            parse_bipoly("2*")

    def test_adjacent_terms(self):
        with pytest.raises(ParseError) as exc:
            parse_bipoly("x x")
        assert "unexpected character" in str(exc.value)

    def test_double_minus(self):
        with pytest.raises(ParseError):
            parse_bipoly("--x")

    def test_unknown_variable(self):
        with pytest.raises(ParseError) as exc:
            parse_bipoly("x + z")
        assert "unknown variable" in str(exc.value)
        assert exc.value.expected == "'x' or 'y'"

    def test_multiline_location(self):
        with pytest.raises(ParseError) as exc:
            parse_bipoly("x +\n@")
        assert exc.value.line == 2
        assert exc.value.column == 1

    def test_denominator_zero(self):
        with pytest.raises(DenominatorZero) as exc:
            parse_bipoly("1/0*x")
        assert exc.value.line == 1
        assert exc.value.column == 3

    def test_negative_exponent_literal(self):
        with pytest.raises(ParseError):
            parse_bipoly("x^-2")

    @pytest.mark.parametrize("text,error,message,line,column,expected", [
        ("2 x", ParseError, "unexpected character 'x'", 1, 3, "'+', '-', or end of input"),
        ("x2", ParseError, "unexpected character '2'", 1, 2, "'+', '-', or end of input"),
        ("x 23", ParseError, "unexpected character '2'", 1, 3, "'+', '-', or end of input"),
        ("1/2/3", ParseError, "unexpected character '/'", 1, 4, "'+', '-', or end of input"),
        ("2*3", ParseError, "expected a variable", 1, 3, "'x' or 'y'"),
        ("x*", ParseError, "unexpected end of input", 1, 3, "'x' or 'y'"),
        ("x +\n", ParseError, "unexpected end of input", 2, 1, "a coefficient or a variable"),
        ("x\x0c", ParseError, "unexpected character '\\x0c'", 1, 2, "'+', '-', or end of input"),
        ("1/ 0", DenominatorZero, "denominator is zero", 1, 4, None),
        ("x + \u00e9", ParseError, "unknown variable '\u00e9'", 1, 5, "'x' or 'y'"),
        ("--x", ParseError, "expected a term", 1, 2, "a coefficient or a variable"),
        ("x^-2", ParseError, "expected a number", 1, 3, "a digit"),
        ("- ", ParseError, "unexpected end of input", 1, 3, "a coefficient or a variable"),
    ])
    def test_error_position(self, text, error, message, line, column, expected):
        with pytest.raises(KellerKitError) as exc:
            parse_bipoly(text)
        assert type(exc.value) is error
        assert str(exc.value) == "%s (line %d, column %d)" % (message, line, column)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert getattr(exc.value, "expected", None) == expected

    @pytest.mark.parametrize(
        "text,column",
        [("x^\u00b2", 3), ("x^\u0663", 3), ("x^\uff11", 3), ("\u0663*x", 1), ("x + 2\u0663", 6)],
    )
    def test_only_ascii_digits(self, text, column):
        with pytest.raises(ParseError) as exc:
            parse_bipoly(text)
        assert exc.value.line == 1
        assert exc.value.column == column


class TestParseUnipoly:
    def test_basic(self):
        assert parse_unipoly("x^2 - 1") == UniPoly({2: 1, 0: -1})
        assert parse_unipoly("5") == UniPoly.constant(5)

    def test_rejects_y(self):
        with pytest.raises(ParseError) as exc:
            parse_unipoly("y")
        assert exc.value.expected == "'x'"
        with pytest.raises(ParseError) as exc:
            parse_unipoly("x*y")
        assert str(exc.value) == "unknown variable 'y' (line 1, column 3)"
        assert exc.value.expected == "'x'"


coeffs = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.fractions(min_value=-20, max_value=20, max_denominator=9),
)


class TestRoundTrip:
    @given(
        st.dictionaries(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=7),
            ),
            coeffs,
            max_size=8,
        )
    )
    def test_bipoly(self, terms):
        p = BiPoly(terms)
        assert parse_bipoly(p.render()) == p

    @given(st.dictionaries(st.integers(min_value=0, max_value=9), coeffs, max_size=6))
    def test_unipoly(self, coeff_dict):
        p = UniPoly(coeff_dict)
        assert parse_unipoly(p.render()) == p


class TestFactorizationJson:
    def test_round_trip(self):
        word = Factorization(
            (
                AffineFactor(Fraction(1, 2), 0, 3, 4, -1, Fraction(2, 7)),
                ElementaryFactor("first", UniPoly({3: -2, 1: Fraction(1, 5)})),
                ElementaryFactor("second", UniPoly({2: 1})),
            )
        )
        again = factorization_from_json(json.loads(json.dumps(word.to_json_list())))
        assert again == word

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            factorization_from_json([{"kind": "mystery"}])


# ---------------------------------------------------------------------------
# Commands, in process
# ---------------------------------------------------------------------------


class TestCommands:
    def test_jac_text(self, capsys):
        assert main(["jac", "x + y^2", "y"]) == 0
        out = capsys.readouterr().out
        assert "jacobian: 1" in out
        assert "keller: true" in out

    def test_jac_negative_is_still_a_query(self, capsys):
        assert main(["jac", "x^2", "y"]) == 0
        out = capsys.readouterr().out
        assert "jacobian: 2*x" in out
        assert "keller: false" in out

    def test_jac_sparse_degree_5000(self, capsys):
        """The sparse map of test_arith's TestJacobian, whose dense grid
        would hold 25 million cells."""
        assert main(["jac", "x^3000*y^2000 + y", "x + 3*x^2000*y^3000"]) == 0
        out = capsys.readouterr().out
        assert "jacobian: 15000000*x^4999*y^4999 - 2000*x^3000*y^1999 - 6000*x^1999*y^3000 - 1" in out
        assert "keller: false" in out

    @pytest.mark.parametrize("f, g", [
        ("x^1000000000", "x"),
        (" + ".join("x^%d" % (10**9 - k) for k in range(10)), " + ".join("%d*x^%d" % (k, 10**9 - k) for k in range(1, 11))),
    ], ids=["one_term", "ten_terms"])
    def test_jac_huge_y_free_map(self, capsys, f, g):
        assert main(["jac", f, g]) == 0
        out = capsys.readouterr().out
        assert "jacobian: 0" in out
        assert "keller: false" in out

    def test_polygon(self, capsys):
        assert main(["polygon", "y^2 - x^3"]) == 0
        assert "vertices: (0, 0) (3, 0) (0, 2)" in capsys.readouterr().out

    def test_similar_hypothesis_exit(self, capsys):
        assert main(["similar", "x", "y^3"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("DegreeTooLow:")
        assert main(["similar", "x^2", "y^2"]) == 2
        assert capsys.readouterr().out.startswith("JacobianNotConstant:")

    @pytest.mark.parametrize("f, g, message", [
        ("0", "x^2", "f is the zero polynomial, need deg f > 1"),
        ("x^2", "0", "g is the zero polynomial, need deg g > 1"),
    ], ids=["zero_f", "zero_g"])
    def test_similar_degree_too_low(self, capsys, f, g, message):
        # The zero polynomial is named, not its degree sentinel.
        assert main(["similar", f, g]) == 2
        assert capsys.readouterr().out == "DegreeTooLow: %s\n" % message
        assert main(["similar", f, g, "--json"]) == 2
        assert json.loads(capsys.readouterr().out) == {"error": "DegreeTooLow", "message": message}

    def test_similar_json_error_payload(self, capsys):
        assert main(["similar", "x", "y^3", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "DegreeTooLow"

    def test_is_auto_positive(self, capsys):
        assert main(["is-auto", "x + y^2", "y"]) == 0
        out = capsys.readouterr().out
        assert "automorphism: true" in out
        assert "elementary (y^2 + x, y)" in out

    def test_is_auto_negative(self, capsys):
        assert main(["is-auto", "x^2", "y"]) == 2
        out = capsys.readouterr().out
        assert "automorphism: false" in out
        assert "reason: JacobianNotConstant" in out

    def test_invert(self, capsys):
        assert main(["invert", "y", "x - y^3"]) == 0
        out = capsys.readouterr().out
        assert "inverse: (x^3 + y, x)" in out

    def test_invert_json_composes(self, capsys):
        assert main(["invert", "y", "x - y^3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        inv = PolyMap(
            parse_bipoly(payload["inverse"]["first"]),
            parse_bipoly(payload["inverse"]["second"]),
        )
        H = PolyMap(BiPoly.y(), BiPoly.x() - BiPoly.y() ** 3)
        assert compose_map(inv, H).is_identity()
        word = factorization_from_json(payload["factorization"])
        assert factorization_to_map(word) == inv

    def test_embed_check_negative_exit_zero(self, capsys):
        assert main(["embed-check", "x^2", "x^3"]) == 0
        out = capsys.readouterr().out
        assert "injective: false" in out
        assert "immersion: false" in out
        assert "witness: x" in out

    def test_embed_check_json(self, capsys):
        assert main(["embed-check", "x^2", "x^3 - x", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"injective": False, "immersion": True, "witness": "x^2 - 1"}

    def test_rectify_positive(self, capsys):
        assert main(["rectify", "x^2", "x", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        word = factorization_from_json(payload["factorization"])
        assert factorization_to_map(word) == PolyMap(
            BiPoly.y(), BiPoly.x() - BiPoly.y() ** 2
        )

    def test_rectify_non_embedding(self, capsys):
        assert main(["rectify", "x^2", "x^3", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "NotAnEmbedding"
        assert payload["injective"] is False
        assert payload["immersion"] is False
        assert payload["witness"] == "x"

    def test_prove_line_text(self, capsys):
        assert main(["prove-line", "x + y^2", "y", "--line", "0,1,0"]) == 0
        out = capsys.readouterr().out
        assert "inverse: (-y^2 + x, y)" in out
        assert "jacobian_constant: 1" in out
        assert "final_check: true" in out

    def test_prove_line_non_keller(self, capsys):
        assert main(["prove-line", "x^2", "y", "--line", "0,1,0", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "JacobianNotConstant"
        assert payload["jacobian"] == "2*x"

    def test_prove_line_bad_line_values(self, capsys):
        # Non-ASCII digits, '_', spaces and exponents inside a coefficient
        # are refused on every Python, though Fraction() reads some of them.
        for bad in ["1,2", "a,b,c", "1,2,3,4", "1/0,1,0",
                    "\u0663,1,0", "\uff11,1,0", "1_0,1,0", "1 /2,1,0",
                    "1e5,1,0", "1e4000000,1,0", "1.5/2,1,0"]:
            assert main(["prove-line", "x + y^2", "y", "--line", bad]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: invalid --line value: ")

    def test_prove_line_zero_denominator_in_line(self, capsys):
        assert main(["prove-line", "x + y^2", "y", "--line", "1,3/0,0"]) == 3
        err = capsys.readouterr().err
        assert err == "error: invalid --line value: denominator is zero in '3/0'\n"

    @pytest.mark.parametrize("line", ["-3,1,0", "-3/4,1,0"])
    def test_prove_line_negative_line_as_separate_word(self, capsys, line):
        assert main(["prove-line", "x + y^2", "y", "--line=" + line]) == 0
        expected = capsys.readouterr().out
        assert "final_check: true" in expected
        for argv in (
            ["prove-line", "--line", line, "x + y^2", "y"],
            ["prove-line", "x + y^2", "y", "--line", line],
        ):
            assert main(argv) == 0
            assert capsys.readouterr().out == expected

    def test_prove_line_polynomial_starting_with_minus(self, capsys):
        assert main(["prove-line", "--line", "-3,1,0", "--", "-x", "y"]) == 0
        assert "inverse: (-x, y)" in capsys.readouterr().out
        assert main(["prove-line", "--line", "--json", "x + y^2", "y"]) == 3

    def test_prove_line_degenerate_line(self, capsys):
        assert main(["prove-line", "x + y^2", "y", "--line", "0,0,1"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_prove_line_certificate_file(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        rc = main(
            [
                "prove-line",
                "x + y^2",
                "y",
                "--line",
                "2,3,1/2",
                "--certificate",
                str(path),
                "--json",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        stored = json.loads(path.read_text(encoding="utf-8"))
        steps = [item["step"] for item in stored]
        assert steps == [
            "jacobian_constant",
            "line_restriction",
            "embedding_verified",
            "rectified",
            "axis_fixed",
            "degree_collapse",
            "inverted",
            "final_check",
        ]
        inverted = next(item for item in stored if item["step"] == "inverted")
        word = factorization_from_json(inverted["factorization"])
        H = PolyMap(parse_bipoly("x + y^2"), parse_bipoly("y"))
        assert factorization_to_map(word) == H

    def test_prove_line_certificate_that_fails_replay(self, tmp_path, capsys, monkeypatch):
        # The written file is re-read and replayed; a replay that finds no
        # inverse refuses the proof with exit 4.
        monkeypatch.setattr(cli, "verify_certificate", lambda cert, H: False)
        path = tmp_path / "cert.json"
        args = ["prove-line", "x + y^2", "y", "--line", "0,1,0", "--certificate", str(path)]
        assert main(args) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: certificate failed replay"]

    def test_prove_line_unwritable_certificate(self, tmp_path, capsys):
        path = tmp_path / "missing" / "cert.json"
        args = ["prove-line", "x + y^2", "y", "--line", "0,1,0", "--certificate", str(path)]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert not path.exists()

    def test_gen_auto_deterministic(self, capsys):
        assert main(["gen-auto", "--seed", "9", "--factors", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["gen-auto", "--seed", "9", "--factors", "3"]) == 0
        assert capsys.readouterr().out == first

    def test_gen_auto_word_is_valid(self, capsys):
        assert main(["gen-auto", "--seed", "5", "--factors", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        word = factorization_from_json(payload["factorization"])
        assert len(word) == 4

    def test_gen_auto_bad_arguments(self, capsys):
        assert main(["gen-auto", "--seed", "1", "--factors", "-2"]) == 3
        assert "error" in capsys.readouterr().err
        assert main(["gen-auto", "--seed", "1", "--factors", "2", "--max-deg", "0"]) == 3
        capsys.readouterr()

    def test_gen_auto_affine_probability_range(self, capsys):
        base = ["gen-auto", "--seed", "1", "--factors", "3", "--affine-probability"]
        for bad in ["2", "-0.1", "nan"]:
            assert main(base + [bad]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:")
        for good in ["0", "1"]:
            assert main(base + [good]) == 0
            capsys.readouterr()


class TestExitCodes:
    def test_parse_error_is_three(self, capsys):
        assert main(["jac", "x +", "y"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "column" in err

    def test_denominator_zero_is_three(self, capsys):
        assert main(["polygon", "1/0*x"]) == 3
        assert "denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["jac", "x", "--", "--"], ["embed-check", "--", "x", "--"]])
    def test_second_double_dash_is_a_polynomial(self, capsys, argv):
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: expected a term (line 1, column 2)\n"

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit"
    )
    def test_number_over_the_digit_limit_is_three(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(ParseError) as exc:
                parse_bipoly("x + " + "9" * 5000 + "*x")
            assert (exc.value.line, exc.value.column) == (1, 5)
            assert main(["jac", "9" * 5000 + "*x", "y"]) == 3
        finally:
            sys.set_int_max_str_digits(limit)
        assert capsys.readouterr().err.startswith("error: number longer than")

    def test_usage_error_is_three(self, capsys):
        assert main([]) == 3
        capsys.readouterr()
        assert main(["frobnicate"]) == 3
        capsys.readouterr()

    def test_every_command_has_a_parser(self):
        actions = cli.build_parser()._actions
        sub = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(cli._COMMANDS)

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_every_positional_has_help_text(self, command):
        actions = cli.build_parser()._actions
        sub = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
        positionals = [a for a in sub.choices[command]._actions if not a.option_strings]
        assert [a.dest for a in positionals] == list(cli._COMMANDS[command][2])
        assert all(a.help for a in positionals)

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "kellerkit" in capsys.readouterr().out

    def test_internal_contradiction_is_four(self, capsys, monkeypatch):
        def boom(args):
            raise TheoremViolationWitness("forced for the exit-code test")

        monkeypatch.setitem(cli._COMMANDS, "jac", (boom, *cli._COMMANDS["jac"][1:]))
        assert main(["jac", "x", "y"]) == 4
        assert "internal contradiction" in capsys.readouterr().err

    @pytest.mark.parametrize("module,attr,fake,argv", FAILED_CHECKS)
    def test_failed_certified_check_is_four(self, capsys, monkeypatch, module, attr, fake, argv):
        monkeypatch.setattr("kellerkit.%s.%s" % (module, attr), eval(fake))
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("internal contradiction: ")

    # The two negative answers that can follow a passed Keller gate, reached
    # by patching the check in front of them.  These pin today's answers.
    def test_not_injective_on_line_is_two(self, capsys, monkeypatch):
        report = EmbeddingReport(False, True, BiPoly.x())
        monkeypatch.setattr("kellerkit.keller.is_embedding", lambda gamma: report)
        argv = ["prove-line", "x + y^2", "y", "--line", "0,1,0"]
        assert main(argv + ["--json"]) == 2
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out) == {
            "error": "NotInjectiveOnLine",
            "message": "restriction to the line is not injective",
            "witness": "x",
        }
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out == "NotInjectiveOnLine: restriction to the line is not injective\n"

    @pytest.mark.parametrize("command", ["is-auto", "invert"])
    def test_reduction_failed_is_two(self, capsys, monkeypatch, command):
        monkeypatch.setattr("kellerkit.tame._peel", lambda a, b: ((), (a, b), False))
        assert main([command, "x + y^2", "y", "--json"]) == 2
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out) == {
            "automorphism": False,
            "reason": "ReductionFailed",
            "residual": {"first": "y^2 + x", "second": "y"},
            "jacobian": "1",
        }

    def test_abhyankar_moh_is_four(self, capsys, monkeypatch):
        def boom(args):
            raise AbhyankarMohViolation("forced for the exit-code test")

        monkeypatch.setitem(cli._COMMANDS, "rectify", (boom, *cli._COMMANDS["rectify"][1:]))
        assert main(["rectify", "x", "0"]) == 4
        assert "internal contradiction" in capsys.readouterr().err


# Small exponents keep every command quick; prove-line is left out, where a
# two-digit exponent makes one proof take seconds.
@st.composite
def _random_grammar_polys(draw):
    text = draw(st.sampled_from(["", "-", "- "]))
    for k in range(draw(st.integers(1, 4))):
        if k:
            text += draw(st.sampled_from([" + ", " - ", "+", "-"]))
        coeff = draw(st.sampled_from(["", "0", "1", "2", "3/2", "4/1", "0/5"]))
        powers = draw(st.lists(st.sampled_from(["x", "y", "x^2", "y^3", "x^0", "x ^ 1"]), max_size=3))
        text += "*".join(([coeff] if coeff else []) + powers) or "1"
    return text


FUZZ_ARGUMENTS = st.one_of(
    # Components of automorphisms and embeddings, so positive answers occur.
    st.sampled_from(["x", "y", "x + y^2", "y - x^3", "-1/2*x^2 + y", "x^2", "x^3 + x"]),
    _random_grammar_polys(),
    st.text(alphabet="xy0123+-*/^ \u00e9\u00b2\u0663\x0c@", max_size=12),
)
FUZZ_ARITY = {
    "jac": 2, "polygon": 1, "similar": 2, "is-auto": 2, "invert": 2, "embed-check": 2, "rectify": 2,
}


class TestFuzzedArguments:
    @settings(max_examples=400)
    @given(st.sampled_from(sorted(FUZZ_ARITY)), st.booleans(), st.data())
    def test_exit_code_and_output(self, command, as_json, data):
        args = data.draw(st.lists(FUZZ_ARGUMENTS, min_size=FUZZ_ARITY[command],
                                  max_size=FUZZ_ARITY[command]))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, *(["--json"] if as_json else []), "--", *args])
        assert code in (0, 2, 3), err.getvalue()
        if code == 3:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")


# ---------------------------------------------------------------------------
# Real interpreter
# ---------------------------------------------------------------------------


class TestSubprocess:
    def test_help(self):
        proc = run_module(["--help"])
        assert proc.returncode == 0
        assert b"prove-line" in proc.stdout

    def test_no_arguments(self):
        proc = run_module([])
        assert proc.returncode == 3

    def test_error_goes_to_stderr(self):
        proc = run_module(["jac", "x~", "y"])
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert b"error:" in proc.stderr

    def test_unicode_digit_is_a_parse_error(self):
        proc = run_module(["jac", "x^\u00b2", "y"])
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert proc.stderr == b"error: expected a number (line 1, column 3)\n"

    # Longer than the interpreter's default limit on int/str conversion
    # (4,300 digits on Python 3.11, and 3.10.7 and later), which the console
    # script lifts.
    def test_big_coefficient(self):
        nines = "9" * 5000
        proc = run_module(["jac", nines + "*x", "y"])
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == ("jacobian: %s\nkeller: true\n" % nines).encode()

    def test_big_jacobian_as_json(self):
        power = "1" + "0" * 3000
        proc = run_module(["jac", power + "*x^2", power + "*y", "--json"])
        assert proc.returncode == 0, proc.stderr.decode()
        assert json.loads(proc.stdout)["jacobian"] == "2" + "0" * 6000 + "*x"

    def test_big_coefficient_certificate_replays(self, tmp_path):
        digits = "7" * 5000
        path = tmp_path / "cert.json"
        proc = run_module([
            "prove-line", digits + "*x + y^2", "y", "--line", "0,1,0", "--certificate", str(path),
        ])
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.endswith(b"final_check: true\n")
        assert digits in path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("args", [
        ["jac", "x + y^2", "y"],
        ["prove-line", "x + y^2", "y", "--line", "0,1,0", "--json"],
        ["is-auto", "x^2", "y"],
        ["similar", "x", "y", "--json"],
    ])
    def test_closed_stdout_is_an_error(self, args):
        # Positive and negative answers alike: the reader has gone away.
        # Without PYTHONUNBUFFERED stdout to a pipe is block-buffered, as for
        # most users: the write fails at the flush, not in print.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "kellerkit", *args],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 3
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("args,stdout_too", [
        (["jac", "x~", "y"], False),
        (["jac", "x", "y"], True),
    ])
    def test_closed_stderr_keeps_the_exit_code(self, args, stdout_too):
        # A failure whose message cannot be written: a parse error with a
        # closed stderr, and a closed stdout sharing that pipe, as in
        # `kellerkit ... 2>&1 | head -1` once head has exited.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "kellerkit", *args],
                stdout=write_end if stdout_too else subprocess.PIPE,
                stderr=write_end,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 3
        assert proc.stdout in (None, b"")

    def test_constant_divisor_at_degree_one_million(self):
        # Each run takes the gcd, or the resultant, of a degree-999,999 row
        # against a constant one; a pseudo-division by a constant that
        # walked the dividend once per degree took minutes.
        proc = run_module(["embed-check", "x^1000000", "x"])
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == b"injective: true\nimmersion: true\n"
        proc = run_module(["prove-line", "x + y^1000000", "y", "--line", "1,0,0"])
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.startswith(b"inverse: (-y^1000000 + x, y)\n")
        assert b"embedding_verified: injective=true immersion=true\n" in proc.stdout

    def test_short_divisor_at_degree_one_thousand(self):
        # The resultant of a 1000-row quotient and a two-row one.  A
        # pseudo-division that rebuilt every row at each of its 999 steps
        # took about 30 times as long as the window, well past the
        # timeout.  Most of the output is the degree-998 witness.
        proc = subprocess.run(
            [sys.executable, "-m", "kellerkit", "embed-check", "x^1000", "x^2 + x"],
            capture_output=True,
            timeout=15,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.startswith(b"injective: false\nimmersion: true\nwitness: x^998 + ")

    @pytest.mark.parametrize("module,attr,fake,argv", FAILED_CHECKS)
    def test_failed_certified_check_under_optimize(self, module, attr, fake, argv):
        # python -O strips assert statements; the checks must still refuse.
        script = "\n".join([
            "import importlib, sys",
            "from kellerkit import (AffineFactor, BiPoly, EmbeddingReport, KellerReport, PolyMap,",
            "                       UniPoly, cli)",
            "setattr(importlib.import_module('kellerkit.%s'), %r, %s)" % (module, attr, fake),
            "sys.exit(cli.main(%r))" % (argv,),
        ])
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, timeout=120)
        assert proc.returncode == 4, proc.stderr.decode()
        assert proc.stdout == b""
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("internal contradiction: ")

    @pytest.mark.parametrize("name,args", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
    def test_golden(self, name, args):
        proc = run_module(args)
        assert proc.returncode == 0, proc.stderr.decode()
        golden = (GOLDEN_DIR / (name + ".txt")).read_bytes()
        assert proc.stdout == golden

    def test_a_golden_takes_the_packed_product(self, monkeypatch):
        """invert_deg16 reaches arith._mul_packed with one pair, from
        _convolve (the Jacobian passes two), so the goldens, and the
        console-script check that runs them, cover the packed product."""
        calls = []  # the number of pairs of each call
        kernel = arith._mul_packed
        monkeypatch.setattr(arith, "_mul_packed",
                            lambda pairs, width: calls.append(len(pairs)) or kernel(pairs, width))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(dict(GOLDEN_CASES)["invert_deg16"]) == 0
        assert calls.count(1) > 0
        assert out.getvalue() == (GOLDEN_DIR / "invert_deg16.txt").read_text()

    def test_a_golden_takes_the_packed_jacobian(self, monkeypatch):
        """jac_dense_deg6 reaches arith._mul_packed through the Jacobian's
        kernel, arith._jacobian, so the goldens cover the packed sum of
        two products."""
        calls, inside = [], []
        jacobian, kernel = arith._jacobian, arith._mul_packed

        def entered(p, q):
            inside.append(1)
            det = jacobian(p, q)
            inside.pop()
            return det

        monkeypatch.setattr(arith, "_jacobian", entered)
        monkeypatch.setattr(arith, "_mul_packed", lambda *args: calls.append(bool(inside)) or kernel(*args))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(dict(GOLDEN_CASES)["jac_dense_deg6"]) == 0
        assert calls == [True]
        assert out.getvalue() == (GOLDEN_DIR / "jac_dense_deg6.txt").read_text()
