"""One timed operation per workload, and its untimed correctness check.

Each ``op_*`` function runs one case through the library and returns
``(outcome, latency_s, prove_s, verify_s, rungs)``; ``verify_s`` is None
where a workload has no verifying call, and ``rungs`` holds (degree,
prove + verify seconds) for each proof of a ladder sweep.  Times are the
process's CPU seconds: the client is one thread, so CPU time is its busy
time, and it leaves out the time the host gives other processes.  The
entries of OPS return them scaled to reference seconds (``scaled``,
calibrate.py); a sweep scales each of its proofs on its own.  The library
is reached through module attributes at call time (``kk.prove_line``,
``kk.cli.parse_bipoly``) so that the tracer's rebinding is seen.  Each
``check_*`` function compares an outcome with an answer the library did
not compute.
"""

from __future__ import annotations

import json
from time import process_time

import kellerkit as kk
import kellerkit.cli  # binds kk.cli

import calibrate
import check


def op_line(case):
    """Parse, prove, serialize the certificate, verify it."""
    t0 = process_time()
    H = kk.PolyMap(kk.cli.parse_bipoly(case.f_text), kk.cli.parse_bipoly(case.g_text))
    t1 = process_time()
    inv, word, cert = kk.prove_line(H, kk.Line(*case.line))
    t2 = process_time()
    json.dumps({
        "inverse": inv.to_json_dict(),
        "factorization": word.to_json_list(),
        "certificate": cert.to_json_list(),
    })
    t3 = process_time()
    verified = kk.verify_certificate(cert, H)
    t4 = process_time()
    return (H, inv, word, verified), t4 - t0, t2 - t1, t4 - t3, ()


def scaled(result):
    """An op's result with its times in reference seconds, the host's
    speed being measured right after the op."""
    outcome, latency, prove, verify, rungs = result
    factor = calibrate.host_scale(latency)
    return (outcome, latency * factor, prove * factor,
            None if verify is None else verify * factor,
            tuple((degree, s * factor) for degree, s in rungs))


def op_sweep(case):
    """One line proof at every rung of the degree ladder; times already
    scaled."""
    outcomes, latency, prove, verify, rungs = [], 0.0, 0.0, 0.0, []
    for part in case.parts:
        outcome, part_latency, part_prove, part_verify, _ = scaled(op_line(part))
        outcomes.append(outcome)
        latency += part_latency
        prove += part_prove
        verify += part_verify
        rungs.append((part.degree, part_prove + part_verify))
    return outcomes, latency, prove, verify, tuple(rungs)


def op_grid(case):
    t0 = process_time()
    verdict = kk.is_injective_param(case.gamma)
    t1 = process_time()
    return verdict, t1 - t0, t1 - t0, None, ()


def _recognize_one(H):
    """decide_automorphism, then similarity_check; a HypothesisViolated
    from the latter is an answer (the expected one for non-Keller maps)."""
    t0 = process_time()
    result = kk.decide_automorphism(H)
    t1 = process_time()
    try:
        report, error = kk.similarity_check(H.first, H.second), None
    except kk.HypothesisViolated as exc:
        # Without its traceback: the traceback's frames would hold this
        # frame, and so the exception, in a cycle that only the garbage
        # collector frees, which made peak memory vary from run to run.
        report, error = None, exc.with_traceback(None)
    t2 = process_time()
    return (result, report, error), t1 - t0, t2 - t1


def op_recognize(case):
    """The automorphism, then its non-Keller companion, through the same
    two calls: one acceptance and one rejection per operation."""
    accepted, decide1, similar1 = _recognize_one(case.H)
    rejected, decide2, similar2 = _recognize_one(case.squared)
    prove, verify = decide1 + decide2, similar1 + similar2
    return (accepted, rejected), prove + verify, prove, verify, ()


def check_line(case, outcome, points, verdicts) -> bool:
    return check.check_line_proof(case, *outcome, points)


def check_sweep(case, outcome, points, verdicts) -> bool:
    return all(check.check_line_proof(part, *got, points)
               for part, got in zip(case.parts, outcome))


def check_grid(case, outcome, points, verdicts) -> bool:
    """The verdict is the oracle's; a shared component's witness is a
    nonconstant polynomial."""
    expected = verdicts[case.index]
    if outcome.ok != (expected == check.INJECTIVE):
        return False
    return expected != check.SHARED or check.poly_degree(outcome.witness) > 0


def check_recognize(case, outcome, points, verdicts) -> bool:
    (result, report, error), (refusal, no_report, hypothesis) = outcome
    return (
        error is None and isinstance(result, kk.Factorization)
        and check.check_recognized(case, result, report, points)
        and no_report is None
        and check.check_rejected(case, refusal, hypothesis, points)
    )


OPS = {
    "line_proofs": (lambda case: scaled(op_line(case)), check_line),
    "degree_ladder": (op_sweep, check_sweep),
    "injectivity_grid": (lambda case: scaled(op_grid(case)), check_grid),
    "recognize": (lambda case: scaled(op_recognize(case)), check_recognize),
}
