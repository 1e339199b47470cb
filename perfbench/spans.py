"""Per-layer spans recorded from outside the library.

``Tracer.install()`` wraps the public functions and methods listed in
LAYERS.  A module-level function is rebound in every ``kellerkit``
module that holds it (the package, ``keller``, ``tame``, ``embedding``,
``newton`` and ``cli`` import names directly, so patching only the
defining module would miss their calls); a method is replaced on its
class under every attribute name bound to it (``__rmul__`` is
``__mul__``).  ``uninstall()`` puts every original object back.

Each call becomes a span: name, start, end, parent span and the
operation it belongs to.  Calls, inclusive seconds (outermost call of a
name only, so recursion is not counted twice) and self seconds (duration
minus the time covered by child spans) are summed as spans close.  Spans
are timed in CPU seconds of the process, not scaled as the untraced
run's times are (see calibrate.py).  Size probes on products and
resultants run with the span clock paused.
"""

from __future__ import annotations

import importlib
import sys
import time

import kellerkit

# name -> (module, class or None, attribute)
LAYERS = {
    "arith.bipoly_mul": ("arith", "BiPoly", "__mul__"),
    "arith.unipoly_mul": ("arith", "UniPoly", "__mul__"),
    "arith.unipoly_divmod": ("arith", "UniPoly", "__divmod__"),
    "arith.substitution_apply": ("arith", "Substitution", "apply"),
    "arith.compose_map": ("arith", None, "compose_map"),
    "arith.jacobian_det": ("arith", None, "jacobian_det"),
    "arith.restrict_to_line": ("arith", None, "restrict_to_line"),
    "arith.resultant_y": ("arith", None, "resultant_y"),
    "arith.gcd_univariate": ("arith", None, "gcd_univariate"),
    "arith.gcd_bivariate": ("arith", None, "gcd_bivariate"),
    "newton.newton_polygon": ("newton", None, "newton_polygon"),
    "newton.similarity_check": ("newton", None, "similarity_check"),
    "tame.factorization_to_map": ("tame", None, "factorization_to_map"),
    "tame.invert_low_degree": ("tame", None, "invert_low_degree"),
    "tame.decide_automorphism": ("tame", None, "decide_automorphism"),
    "embedding.difference_quotient": ("embedding", None, "difference_quotient"),
    "embedding.is_injective_param": ("embedding", None, "is_injective_param"),
    "embedding.is_immersion": ("embedding", None, "is_immersion"),
    "embedding.is_embedding": ("embedding", None, "is_embedding"),
    "embedding.rectify": ("embedding", None, "rectify"),
    "keller.prove_line": ("keller", None, "prove_line"),
    "keller.fixed_axis_invert": ("keller", None, "fixed_axis_invert"),
    "keller.verify_certificate": ("keller", None, "verify_certificate"),
    "cli.parse_bipoly": ("cli", None, "parse_bipoly"),
}

SPAN_CAP = 200_000  # spans kept for the trace file; counters see all


def _coeff_bits(c) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _kellerkit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "kellerkit" or name.startswith("kellerkit."))]


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        n = len(self.names)
        self.calls = [0] * n
        self.incl = [0.0] * n
        self.self_s = [0.0] * n
        self._active = [0] * n
        self.spans = []  # (span id, name index, start, end, parent id, op id)
        self.dropped = 0
        self.op = -1
        self.mul_out_terms = 0
        self.mul_max_out_deg = 0
        self.mul_max_coeff_bits = 0
        self.res_max_in_deg_y = 0
        self._stack = []  # [span id, child seconds] per open span
        self._next_id = 0
        self._paused = 0.0
        self._restore = []  # (owner, attribute, original)

    def _now(self):
        return time.process_time() - self._paused

    def _wrap(self, idx, fn, probe):
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            tracer._active[idx] += 1
            start = tracer._now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer._now()
                tracer._stack.pop()
                tracer._active[idx] -= 1
                dur = end - start
                tracer.calls[idx] += 1
                if not tracer._active[idx]:
                    tracer.incl[idx] += dur
                tracer.self_s[idx] += dur - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((span_id, idx, start, end, parent, tracer.op))
                else:
                    tracer.dropped += 1
            if probe is not None:
                t0 = time.process_time()
                probe(args, result)
                tracer._paused += time.process_time() - t0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _probe_mul(self, args, result):
        if not isinstance(result, kellerkit.BiPoly):
            return
        terms = result.terms()
        self.mul_out_terms += len(terms)
        if terms:
            self.mul_max_out_deg = max(self.mul_max_out_deg, result.total_degree())
            self.mul_max_coeff_bits = max(
                self.mul_max_coeff_bits, max(_coeff_bits(c) for _, c in terms)
            )

    def _probe_resultant(self, args, result):
        self.res_max_in_deg_y = max(
            [self.res_max_in_deg_y] + [p.degree_y() for p in args[:2]]
        )

    def install(self):
        modules = _kellerkit_modules()
        probes = {"arith.bipoly_mul": self._probe_mul,
                  "arith.resultant_y": self._probe_resultant}
        for idx, name in enumerate(self.names):
            mod_name, cls_name, attr = LAYERS[name]
            home = importlib.import_module("kellerkit." + mod_name)
            probe = probes.get(name)
            if cls_name is not None:
                cls = getattr(home, cls_name)
                orig = cls.__dict__[attr]
                wrapper = self._wrap(idx, orig, probe)
                for key, value in list(cls.__dict__.items()):
                    if value is orig:
                        self._rebind(cls, key, orig, wrapper)
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(idx, orig, probe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._rebind(module, key, orig, wrapper)

    def _rebind(self, owner, key, orig, wrapper):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, orig))

    def uninstall(self):
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    def bindings(self):
        """Every (owner, attribute, original) the tracer replaced."""
        return list(self._restore)

    def count(self, name) -> int:
        return self.calls[self.names.index(name)]

    def metrics(self) -> dict:
        """Counters by name.  The waste ratios are per ``prove_line`` call
        and read 0 without one."""
        out = {}
        for idx, name in enumerate(self.names):
            out[name + ".calls"] = (self.calls[idx], "count")
            out[name + ".s"] = (self.incl[idx], "s")
            out[name + ".self_s"] = (self.self_s[idx], "s")
        out["arith.bipoly_mul.out_terms"] = (self.mul_out_terms, "count")
        out["arith.bipoly_mul.max_out_deg"] = (self.mul_max_out_deg, "count")
        out["arith.bipoly_mul.max_coeff_bits"] = (self.mul_max_coeff_bits, "bits")
        out["arith.resultant_y.max_in_deg_y"] = (self.res_max_in_deg_y, "count")
        proofs = self.count("keller.prove_line")
        for metric, name in (
            ("keller.compose_per_proof", "arith.compose_map"),
            ("arith.jacobian_det_per_proof", "arith.jacobian_det"),
            ("embedding.is_embedding_per_proof", "embedding.is_embedding"),
        ):
            out[metric] = (self.count(name) / proofs if proofs else 0.0, "ratio")
        return out

    def write_spans(self, path):
        """One line per kept span, tab-separated, parent -1 at the root."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tstart_s\tend_s\tparent\top\n")
            for span_id, idx, start, end, parent, op in self.spans:
                handle.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n"
                             % (span_id, self.names[idx], start, end, parent, op))
