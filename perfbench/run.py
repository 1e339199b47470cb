"""kellerkit benchmark: one workload per process, one closed-loop client.

Usage, from the repository root:

    python3 perfbench/run.py --workload line_proofs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --workload recognize --seed 1 --setup-only

Workloads: line_proofs, degree_ladder, injectivity_grid, recognize (see
perfbench/README.md).  The library is imported from ``src/`` next to
this directory; without it the run fails before printing a result.

``--trace 0`` measures with tracing off and prints the end-to-end
metrics; ``--trace 1`` runs the same inputs untraced and then traced and
prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
line before it carries details (input digest, set-up samples, fail
share, phase and rung timings).  ``--workload all`` runs every workload in its
own process and prints a table instead.  ``--setup-only`` sets up, prints
the set-up time and input digest as JSON, and exits.

Times are CPU seconds of this process (``time.process_time``), not wall
time: the client is one thread, so its CPU time is the time the library
spends, while wall time also counts the host running other processes.
Each is then scaled to reference seconds by a kernel timed right after
it (calibrate.py), which takes out the host's own changes of speed.
Span times of a traced run are not scaled.  The run itself lasts
``--seconds`` of wall time.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("line_proofs", "degree_ladder", "injectivity_grid", "recognize")
SETUP_PROBES = 4  # fresh-process set-ups spread over the run; setup_s is the median of 5
CHECK_POINTS = 2  # rational points per checked operation
SPANS_DIR = HERE / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time and input digest, and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# Set-up: import the library and draw the first inputs
# ---------------------------------------------------------------------------


class SetUp:
    """Import the library and draw the set-up inputs, a fixed amount of
    work whatever the seed (see gen.stream); ``seconds`` is scaled."""

    def __init__(self, workload, seed):
        start = time.process_time()
        sys.path.insert(0, str(SRC))
        import gen
        import workloads

        self.op, self.check = workloads.OPS[workload]
        self.verdicts = (gen.load_verdicts()
                         if workload == "injectivity_grid" else None)
        self.rungs = tuple(gen.LADDER_RUNGS)
        self.stream = gen.stream(workload, seed)
        cases = self.stream.setup()
        raw = time.process_time() - start
        self.seconds = raw * calibrate.host_scale(raw)
        digest = hashlib.sha256()
        for case in cases:
            digest.update(case.rendered().encode() + b"\n")
        self.digest = digest.hexdigest()[:16]


class SetUpProbes:
    """Set-up seconds of this process and of SETUP_PROBES fresh ones.

    One process's set-up takes a fraction of a second, and the host's
    speed drifts over seconds, so set-ups repeated back to back
    share one host state.  The probes are spread over the run instead:
    ``due(fraction)`` runs those whose share of the run has passed.
    """

    def __init__(self, args, own):
        self.args, self.own = args, own
        self.samples = [own.seconds]

    def due(self, fraction):
        while (len(self.samples) <= SETUP_PROBES
               and fraction >= len(self.samples) / (SETUP_PROBES + 1)):
            self.samples.append(self._probe())

    def _probe(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only",
             "--workload", self.args.workload, "--seed", str(self.args.seed)],
            capture_output=True, text=True, timeout=150, cwd=ROOT, check=True,
        )
        probe = json.loads(proc.stdout.splitlines()[-1])
        if probe["digest"] != self.own.digest:
            raise RuntimeError("set-up probe drew different inputs")
        return probe["setup_s"]


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Record:
    __slots__ = ("case", "outcome", "error", "latency", "prove", "verify", "rungs")

    def __init__(self, case, outcome, error, latency, prove=None, verify=None, rungs=()):
        self.case, self.outcome, self.error = case, outcome, error
        self.latency, self.prove, self.verify, self.rungs = latency, prove, verify, rungs


def run_case(op, case):
    start = time.process_time()
    try:
        outcome, latency, prove, verify, rungs = op(case)
    except Exception as exc:  # a failed operation is counted, not fatal
        raw = time.process_time() - start
        return Record(case, None, exc, raw * calibrate.host_scale(raw))
    return Record(case, outcome, None, latency, prove, verify, rungs)


class Checker:
    """Counts operations that raised or whose output is wrong.

    Outputs are checked as soon as their block ends, outside the timed
    region, and then dropped, so the process never holds more than a
    block of them and ``peak_rss_mib`` stays the library's own.
    """

    def __init__(self, setup, workload, seed):
        self.setup = setup
        self.rng = random.Random("points/%s/%d" % (workload, seed))
        self.failed = 0
        self.first = None

    def __call__(self, records, keep_cases=False):
        rng = self.rng
        for rec in records:
            points = [(Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
                       Fraction(rng.randint(-5, 5), rng.randint(1, 5)))
                      for _ in range(CHECK_POINTS)]
            ok = False
            if rec.error is None:
                try:
                    ok = self.setup.check(rec.case, rec.outcome, points, self.setup.verdicts)
                except Exception as exc:  # a check that cannot read the output fails it
                    rec.error = exc
            if not ok:
                self.failed += 1
                if self.first is None:
                    self.first = "%s: %r" % (rec.case.rendered()[:200], rec.error)
            rec.outcome = None
            if not keep_cases:
                rec.case = None


class Samples:
    """The times of checked operations, kept as arrays of floats, so that
    the process's memory does not grow with the number of operations a
    run completes.  ``cases`` keeps the inputs when asked to."""

    def __init__(self, keep_cases=False):
        self.attempted = 0
        self.busy = 0.0
        self.latency, self.failed_latency = array.array("d"), array.array("d")
        self.prove, self.verify = array.array("d"), array.array("d")
        self.rungs = []
        self.cases = [] if keep_cases else None

    def add(self, records):
        for rec in records:
            self.attempted += 1
            self.busy += rec.latency
            if self.cases is not None:
                self.cases.append(rec.case)
            if rec.error is not None:
                self.failed_latency.append(rec.latency)
                continue
            self.latency.append(rec.latency)
            if rec.prove is not None:
                self.prove.append(rec.prove)
            if rec.verify is not None:
                self.verify.append(rec.verify)
            self.rungs.extend(rec.rungs)


def measure(setup, seconds, checker, keep_cases=False, probes=None):
    """Closed loop: start whole blocks until ``seconds`` of wall time have
    passed, running the set-up probes that fall due between blocks."""
    samples = Samples(keep_cases)
    start = time.perf_counter()
    for block in setup.stream:
        elapsed = time.perf_counter() - start
        if probes is not None:
            probes.due(elapsed / seconds)
        if elapsed >= seconds:
            break
        records = [run_case(setup.op, case) for case in block]
        checker(records, keep_cases)
        samples.add(records)
    if probes is not None:
        probes.due(1.0)
    return samples


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values, q):
    """The q-th percentile (inclusive interpolation) and samples above it."""
    if len(values) == 1:
        return values[0], 0
    cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return cut, sum(1 for v in values if v > cut)


def phase_timings(samples, rungs):
    """prove/verify percentiles and per-rung medians of prove + verify, in
    ms, over completed operations; 0 where a workload has no such phase."""
    out = {}
    for phase in ("prove", "verify"):
        values = [1000.0 * s for s in getattr(samples, phase)]
        for q in (50, 95):
            out["%s_ms_p%d" % (phase, q)] = percentile(values, q)[0] if values else 0.0
    for degree in rungs:
        values = [1000.0 * s for d, s in samples.rungs if d == degree]
        out["rung_ms_deg%d" % degree] = statistics.median(values) if values else 0.0
    return out


def end_to_end(samples, setup_runs):
    """Throughput is operations completed per busy second, busy time being
    the sum of operation latencies.  Latencies are those of completed
    operations, or of all when none completed."""
    latencies = [1000.0 * s for s in samples.latency or samples.failed_latency]
    p95, beyond = percentile(latencies, 95)
    metrics = {
        "setup_s": (statistics.median(setup_runs), "s"),
        "throughput_ops_s": (len(samples.latency) / samples.busy, "1/s"),
        "latency_ms_p50": (statistics.median(latencies), "ms"),
        "latency_ms_p95": (p95, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    return metrics, {"samples": len(latencies), "latency_p95_samples_beyond": beyond}


def _emit(detail, correct, attempted, failed, metrics):
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def run_untraced(args, setup):
    checker = Checker(setup, args.workload, args.seed)
    probes = SetUpProbes(args, setup)
    samples = measure(setup, args.seconds, checker, probes=probes)
    metrics, extra = end_to_end(samples, probes.samples)
    detail = {
        "workload": args.workload, "seed": args.seed, "input_digest": setup.digest,
        "setup_runs_s": probes.samples, "fail_share": checker.failed / samples.attempted,
        "first_failure": checker.first, **extra, **phase_timings(samples, setup.rungs),
    }
    _emit(detail, checker.failed == 0, samples.attempted, checker.failed, metrics)


def run_traced(args, setup):
    """An untraced pass, then the same inputs again with tracing on."""
    from spans import Tracer

    checker = Checker(setup, args.workload, args.seed)
    plain = measure(setup, args.seconds / 2, checker, keep_cases=True)
    cases = plain.cases
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for op_id, case in enumerate(cases):
            tracer.op = op_id
            traced.append(run_case(setup.op, case))
    finally:
        tracer.uninstall()
    checker(traced)
    metrics = tracer.metrics()
    metrics["trace_overhead"] = (sum(r.latency for r in traced) / plain.busy, "ratio")
    metrics.update((k, (v, "ms")) for k, v in phase_timings(plain, setup.rungs).items())
    spans = SPANS_DIR / ("spans-%s-%d.tsv" % (args.workload, args.seed))
    tracer.write_spans(spans)
    attempted = plain.attempted + len(traced)
    detail = {
        "workload": args.workload, "seed": args.seed, "input_digest": setup.digest,
        "ops_per_pass": len(cases),
        "fail_share": checker.failed / attempted, "first_failure": checker.first,
        "spans_file": str(spans.relative_to(ROOT)),
        "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
    }
    _emit(detail, checker.failed == 0, attempted, checker.failed, metrics)


def run_all(args):
    """Every workload in its own process; a table of every metric."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            print("%s: failed (exit %d)\n%s" % (workload, proc.returncode, proc.stderr))
            status = 1
            continue
        detail_line, result_line = proc.stdout.splitlines()[-2:]
        detail, result = json.loads(detail_line), json.loads(result_line)
        print("== %s  (attempted %d, failed %d, inputs %s)" % (
            workload, result["attempted"], result["failed"], detail["input_digest"]))
        for name, m in result["metrics"].items():
            print("  %-22s %14.4f %s" % (name, m["value"], m["unit"]))
        print("  %-22s %14.4f %s" % ("fail_share", detail["fail_share"], "ratio"))
        for name in sorted(detail):
            if name.startswith(("prove_", "verify_", "rung_")) and detail[name]:
                print("  %-22s %14.4f %s" % (name, detail[name], "ms"))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kellerkit" / "__init__.py").is_file():
        print("error: %s/kellerkit not found; run from a kellerkit checkout" % SRC,
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    setup = SetUp(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup.seconds, "digest": setup.digest}))
    elif args.trace:
        run_traced(args, setup)
    else:
        run_untraced(args, setup)
    return 0


if __name__ == "__main__":
    sys.exit(main())
