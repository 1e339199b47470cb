"""Command line interface and the polynomial text format.

Grammar for polynomial arguments, whose tokens may be separated by space,
tab, CR and LF and by nothing else; digits are ASCII '0' to '9':

    poly  := ['-'] term (('+' | '-') term)*
    term  := coeff ('*' monom)? | monom
    coeff := nat ('/' nat)?
    monom := var ('^' nat)? ('*' var ('^' nat)?)*
    var   := 'x' | 'y'

The optional leading '-' is a conservative extension so that canonical
renderings of polynomials with a negative leading coefficient parse back.
Univariate arguments (parametrization components, elementary shifts) use
the same grammar restricted to the variable x.

Exit codes: 0 success, 2 hypothesis violated (non-Keller input, failed
embedding, not an automorphism, non-injective restriction), 3 malformed
input or usage, 4 internal contradiction (a state mathematics rules out,
reported rather than assumed away).

Every command returns its answer, negative ones included, as (exit code,
JSON payload, text lines), and main prints it in one place.  Failures,
an answer that cannot be written (a closed stdout) among them, are one
line on stderr, and keep their exit code when stderr is closed too.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from fractions import Fraction

from .arith import BiPoly, Line, PolyMap, UniPoly
from .embedding import Parametrization, is_embedding, rectify
from .errors import (
    AbhyankarMohViolation,
    DenominatorZero,
    HypothesisViolated,
    InvalidLine,
    JacobianNotConstant,
    NotAnEmbedding,
    NotInjectiveOnLine,
    ParseError,
    PreconditionViolated,
    TheoremViolationWitness,
)
from .keller import Certificate, FinalCheck, Inverted, is_keller, prove_line, verify_certificate
from .newton import newton_polygon, similarity_check
from .tame import (
    AffineFactor,
    ElementaryFactor,
    Factorization,
    NotAutomorphism,
    decide_automorphism,
    factorization_inverse,
    factorization_to_map,
    random_tame,
)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class _Parser:
    """Recursive descent over tokens: runs of ASCII digits and single
    characters other than whitespace, each with its index in the text, and
    an end token '' at the end of the text."""

    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.vars = variables
        self.toks = [(m.group(), m.start()) for m in re.finditer(r"[0-9]+|[^ \t\r\n]", text)]
        self.toks.append(("", len(text)))
        self.k = 0

    def _where(self) -> tuple[int, int]:
        """Line and column of the current token, both from 1."""
        idx = self.toks[self.k][1]
        return self.text.count("\n", 0, idx) + 1, idx - self.text.rfind("\n", 0, idx)

    def _fail(self, message: str, expected: str):
        raise ParseError(message, *self._where(), expected)

    def _peek(self) -> str:
        return self.toks[self.k][0]

    def _take(self, tok: str) -> bool:
        if self._peek() != tok:
            return False
        self.k += 1
        return True

    def parse(self) -> BiPoly:
        if not self._peek():
            self._fail("empty input", "a term")
        terms = {}
        sign = -1 if self._take("-") else 1
        while True:
            c, key = self._term()
            terms[key] = terms.get(key, 0) + sign * c
            if self._take("+"):
                sign = 1
            elif self._take("-"):
                sign = -1
            elif self._peek():
                self._fail("unexpected character %r" % self._peek()[0], "'+', '-', or end of input")
            else:
                return BiPoly(terms)

    def _term(self) -> tuple:
        """The coefficient and the exponents (i, j) of one term."""
        tok = self._peek()
        if "0" <= tok[:1] <= "9":
            c = self._coeff()
            return c, self._monom() if self._take("*") else (0, 0)
        if tok.isalpha():
            return 1, self._monom()
        self._fail(
            "expected a term" if tok else "unexpected end of input",
            "a coefficient or a variable",
        )

    def _nat(self) -> int:
        tok = self._peek()
        if not "0" <= tok[:1] <= "9":
            self._fail("expected a number", "a digit")
        try:
            value = int(tok)
        except ValueError:
            # Over the interpreter's int/str digit limit (3.11, 3.10.7 and later).
            self._fail("number longer than the interpreter allows", "a shorter number")
        self.k += 1
        return value

    def _coeff(self):
        num = self._nat()
        if not self._take("/"):
            return num
        where = self._where()
        den = self._nat()
        if den == 0:
            raise DenominatorZero(*where)
        return Fraction(num, den)

    def _monom(self) -> tuple[int, int]:
        exps = dict.fromkeys(self.vars, 0)
        self._var_power(exps)
        while self._take("*"):
            self._var_power(exps)
        return exps["x"], exps.get("y", 0)

    def _var_power(self, exps: dict):
        var = self._peek()
        if var not in exps:
            self._fail(
                "unknown variable %r" % var if var.isalpha()
                else "expected a variable" if var else "unexpected end of input",
                " or ".join("'%s'" % v for v in self.vars),
            )
        self.k += 1
        exps[var] += self._nat() if self._take("^") else 1


def parse_bipoly(text: str) -> BiPoly:
    """Parse a polynomial in x and y."""
    return _Parser(text, ("x", "y")).parse()


def parse_unipoly(text: str) -> UniPoly:
    """Parse a univariate polynomial in x."""
    return _Parser(text, ("x",)).parse().on_x_axis()


def factorization_from_json(data: list) -> Factorization:
    """Rebuild a factor word from its JSON form."""
    word = []
    for item in data:
        kind = item["kind"]
        if kind == "affine":
            (m11, m12), (m21, m22) = item["matrix"]
            t1, t2 = item["translation"]
            word.append(
                AffineFactor(
                    Fraction(*m11), Fraction(*m12), Fraction(*m21), Fraction(*m22),
                    Fraction(*t1), Fraction(*t2),
                )
            )
        elif kind == "elementary":
            word.append(ElementaryFactor(item["axis"], parse_unipoly(item["shift"])))
        else:
            raise ValueError("unknown factor kind %r" % kind)
    return Factorization(tuple(word))


# ---------------------------------------------------------------------------
# Commands.  Each returns (exit code, JSON payload, text lines); main
# prints the payload under --json, else the lines.
# ---------------------------------------------------------------------------


class _Refused(Exception):
    """A command-line value the command cannot use (exit 3)."""


class _ReplayFailed(Exception):
    """The certificate just written did not replay (exit 4)."""


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _map(args) -> PolyMap:
    return PolyMap(parse_bipoly(args.first), parse_bipoly(args.second))


def _curve(args) -> Parametrization:
    return Parametrization(parse_unipoly(args.first), parse_unipoly(args.second))


def _parse_line_arg(text: str) -> Line:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("expected three comma-separated coefficients")
    coeffs = []
    for part in map(str.strip, parts):
        # Fraction() alone also reads non-ASCII digits, '_' (Python 3.11
        # and later), spaces around '/' (3.12 and later) and exponents,
        # whose 10**exp it computes with no bound.
        if not re.fullmatch(r"[-+]?([0-9]+/[0-9]+|[0-9]+\.?[0-9]*|\.[0-9]+)", part):
            raise ValueError("Invalid literal for Fraction: %r" % part)
        try:
            coeffs.append(Fraction(part))
        except ZeroDivisionError:
            raise ValueError("denominator is zero in %r" % part) from None
    return Line(*coeffs)


def _cmd_jac(args):
    report = is_keller(_map(args))
    return 0, report.to_json_dict(), [
        "jacobian: %s" % report.jacobian.render(),
        "keller: %s" % _flag(report.is_keller),
    ]


def _cmd_polygon(args):
    poly = newton_polygon(parse_bipoly(args.poly))
    return 0, poly.to_json_dict(), ["vertices: %s" % poly.render()]


def _cmd_similar(args):
    report = similarity_check(parse_bipoly(args.first), parse_bipoly(args.second))
    return 0, report.to_json_dict(), [
        "similar: %s" % _flag(report.similar),
        "factor: %s" % report.factor,
        "n_f: %s" % report.n_f.render(),
        "n_g: %s" % report.n_g.render(),
    ]


def _not_automorphism(result: NotAutomorphism):
    return 2, result.to_json_dict(), [
        "automorphism: false",
        "reason: %s" % result.reason,
        "residual: %s" % result.residual.render(),
    ]


def _cmd_is_auto(args):
    word = decide_automorphism(_map(args))
    if isinstance(word, NotAutomorphism):
        return _not_automorphism(word)
    return 0, {"automorphism": True, "factorization": word.to_json_list()}, [
        "automorphism: true",
        "factors: %d" % len(word),
        *(factor.render() for factor in word),
    ]


def _cmd_invert(args):
    word = decide_automorphism(_map(args))
    if isinstance(word, NotAutomorphism):
        return _not_automorphism(word)
    inverse_word = factorization_inverse(word)
    inverse_map = factorization_to_map(inverse_word)
    payload = {"inverse": inverse_map.to_json_dict(), "factorization": inverse_word.to_json_list()}
    return 0, payload, [
        "inverse: %s" % inverse_map.render(),
        "factors: %d" % len(inverse_word),
        *(factor.render() for factor in inverse_word),
    ]


def _cmd_embed_check(args):
    report = is_embedding(_curve(args))
    lines = ["injective: %s" % _flag(report.injective), "immersion: %s" % _flag(report.immersion)]
    if report.witness is not None:
        lines.append("witness: %s" % report.witness.render())
    return 0, report.to_json_dict(), lines


def _cmd_rectify(args):
    word = rectify(_curve(args))
    return 0, {"factorization": word.to_json_list()}, [word.render()]


def _cmd_prove_line(args):
    H = _map(args)
    try:
        line = _parse_line_arg(args.line)
    except ValueError as exc:
        raise _Refused("invalid --line value: %s" % exc) from None
    inverse_map, word, cert = prove_line(H, line)
    if args.certificate:
        payload = json.dumps(cert.to_json_list(), indent=2)
        with open(args.certificate, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        # Re-read the file and replay its inverse word and final check with
        # verify_certificate, so it is known to be consumable, not just written.
        with open(args.certificate, "r", encoding="utf-8") as handle:
            stored = {s["step"]: s for s in json.load(handle)}
        reread = Certificate((
            Inverted(factorization_from_json(stored["inverted"]["factorization"])),
            FinalCheck(stored["final_check"]["verified"]),
        ))
        if not verify_certificate(reread, H):
            raise _ReplayFailed("certificate failed replay")
    payload = {
        "inverse": inverse_map.to_json_dict(),
        "factorization": word.to_json_list(),
        "certificate": cert.to_json_list(),
    }
    return 0, payload, [
        "inverse: %s" % inverse_map.render(),
        "factors: %d" % len(word),
        "certificate:",
        *("  " + step.render() for step in cert.steps),
    ]


def _cmd_gen_auto(args):
    try:
        word = random_tame(
            args.seed,
            args.factors,
            args.max_deg,
            args.coeff_bound,
            affine_probability=args.affine_probability,
        )
    except ValueError as exc:
        raise _Refused(str(exc)) from None
    return 0, {"factorization": word.to_json_list()}, [word.render()]


# Each command's handler, its help and its positionals, name -> help.
_MAP_ARGS = {
    "first": "first component, a polynomial in x and y",
    "second": "second component",
}
_CURVE_ARGS = {
    "first": "first component, a polynomial in x (the parameter)",
    "second": "second component",
}
_COMMANDS = {
    "jac": (_cmd_jac, "Jacobian determinant and Keller test", _MAP_ARGS),
    "polygon": (_cmd_polygon, "Newton polygon of a polynomial", {
        "poly": "a polynomial in x and y",
    }),
    "similar": (_cmd_similar, "Newton polygon similarity test", {
        "first": "first component, degree > 1", "second": "second component, degree > 1",
    }),
    "is-auto": (_cmd_is_auto, "recognize a tame automorphism", _MAP_ARGS),
    "invert": (_cmd_invert, "invert a tame automorphism", _MAP_ARGS),
    "embed-check": (_cmd_embed_check, "injectivity/immersion of a curve", _CURVE_ARGS),
    "rectify": (_cmd_rectify, "straighten an embedded line", _CURVE_ARGS),
    "prove-line": (
        _cmd_prove_line, "certified inverse of a Keller map injective on a line", _MAP_ARGS,
    ),
    "gen-auto": (_cmd_gen_auto, "generate a random tame word", {}),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kellerkit",
        description="Exact tools for planar Keller maps: Newton polygons, "
        "tame automorphisms, line embeddings, certified inversion.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, text, positionals) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        for arg, arg_help in positionals.items():
            p.add_argument(arg, help=arg_help)

    p = sub.choices["prove-line"]
    p.add_argument(
        "--line",
        required=True,
        metavar="a,b,c",
        help="line a*x + b*y + c = 0 as three comma-separated rationals",
    )
    p.add_argument(
        "--certificate",
        metavar="PATH",
        help="write the JSON certificate to PATH and replay it",
    )

    p = sub.choices["gen-auto"]
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--factors", type=int, required=True)
    p.add_argument("--max-deg", type=int, default=3, help="max elementary shift degree")
    p.add_argument("--coeff-bound", type=int, default=5)
    p.add_argument(
        "--affine-probability",
        type=float,
        default=0.25,
        help="chance of an affine factor per slot, from 0 (none) to 1",
    )
    return ap


# Exceptions a command may raise, in the order they are matched, with the
# exit code and the payload.  _ANSWERS are negative answers, printed on
# stdout like any other: the function gives their (error code, extra JSON
# fields).  _ERRORS are failures: the string prefixes a message on stderr.
_ANSWERS = (
    ((HypothesisViolated,), 2, lambda exc: (exc.reason, {})),
    ((PreconditionViolated,), 2, lambda exc: (exc.condition, {})),
    (
        (JacobianNotConstant,), 2,
        lambda exc: ("JacobianNotConstant", {"jacobian": exc.jacobian.render()}),
    ),
    (
        (NotInjectiveOnLine,), 2,
        lambda exc: ("NotInjectiveOnLine", {
            "witness": exc.witness.render() if exc.witness is not None else None
        }),
    ),
    ((NotAnEmbedding,), 2, lambda exc: ("NotAnEmbedding", exc.report.to_json_dict())),
)
_ERRORS = (
    ((ParseError, DenominatorZero, InvalidLine, OSError, _Refused), 3, "error"),
    ((AbhyankarMohViolation, TheoremViolationWitness), 4, "internal contradiction"),
    ((_ReplayFailed,), 4, "error"),
)


def _types(table) -> tuple:
    return tuple(t for types, _, _ in table for t in types)


def _row(table, exc):
    """The exit code and payload of the first row that matches exc."""
    return next(row[1:] for row in table if isinstance(exc, row[0]))


def _answer(args):
    """The command's answer, a negative one when it raises one of _ANSWERS."""
    try:
        return _COMMANDS[args.command][0](args)
    except _types(_ANSWERS) as exc:
        code, payload = _row(_ANSWERS, exc)
        error_code, extra = payload(exc)
        answer = {"error": error_code, "message": str(exc), **extra}
        return code, answer, ["%s: %s" % (error_code, exc)]


def _join_line_values(argv: list[str]) -> list[str]:
    """Rewrite `--line -3,1,0` as `--line=-3,1,0`, up to a `--`.

    argparse takes a separate value that starts with '-' for an option,
    and a line's first coefficient may be negative.
    """
    out = []
    for idx, arg in enumerate(argv):
        if arg == "--":
            return out + argv[idx:]
        if out and out[-1] == "--line" and re.match(r"-[\d.]", arg):
            out[-1] = "--line=" + arg
        else:
            out.append(arg)
    return out


def _print(text: str, stream) -> None:
    """Print text and flush.  On an OSError (a closed stream) point its descriptor
    at devnull, so the flush at exit cannot fail again, and re-raise."""
    try:
        print(text, file=stream)
        stream.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        raise


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_join_line_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 3
    # argparse gives a positional that is a '--' after the first '--' as [].
    vars(args).update({k: "--" for k, v in vars(args).items() if v == []})
    # Printing stays inside the try: a closed stdout is an OSError, exit 3.
    try:
        code, payload, lines = _answer(args)
        _print(json.dumps(payload, indent=2) if args.json else "\n".join(lines), sys.stdout)
        return code
    except _types(_ERRORS) as exc:
        code, prefix = _row(_ERRORS, exc)
        with contextlib.suppress(OSError):
            _print("%s: %s" % (prefix, exc), sys.stderr)
        return code


def entry() -> None:
    # Lift the interpreter's limit on int/str conversion (Python 3.11, and
    # 3.10.7 and later) for the process: coefficients are as long as the
    # arguments.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    raise SystemExit(main())
