"""A fixed reference computation that measures the host's speed.

The benchmark runs on a few cores of a shared host, where the same code
runs up to a third slower in one stretch of seconds than in the next:
neighbours contend for caches, memory and the cores' sibling threads.
CPU time leaves out descheduling but not that.  So right after each
timed piece of work the runner times passes of this kernel, and scales
the work's CPU seconds by

    REFERENCE_S / (median seconds of one kernel pass)

(``host_scale``).  A scaled time reads as seconds on a host that runs
the kernel in REFERENCE_S.  The passes take at least DUTY of the work's
own time, and at least one pass; they are never part of a reported time.

The kernel does the kind of work the library does: sparse products of
bivariate polynomials held as dicts of exponent pairs to int
coefficients, the result's terms sorted in graded order, and exact
evaluation over Fraction.  It uses no library code, so a change to the
library cannot change the scale.  Its inputs are fixed, so the same
work is done in every run.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import process_time

# Seconds of one kernel pass on the host the baseline was measured on
# (2-core shared Linux container, Python 3.11.7), rounded; it fixes the
# unit of every scaled time.
REFERENCE_S = 0.0004
# Kernel time after a piece of work, as a share of the work's own time.
DUTY = 0.25

_rng = random.Random("perfbench-calibrate")


def _poly(degree, density):
    return {
        (i, j): _rng.randint(-5, 5) or 1
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
        if _rng.random() < density
    }


_P = _poly(4, 0.7)
_Q = _poly(3, 0.8)
_POINT = (Fraction(-3, 4), Fraction(5, 3))


def _mul(p, q):
    out = {}
    for (i1, j1), v1 in p.items():
        for (i2, j2), v2 in q.items():
            k = (i1 + i2, j1 + j2)
            s = out.get(k, 0) + v1 * v2
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _evaluate(p, a, b):
    return sum((c * a**i * b**j for (i, j), c in p.items()), Fraction(0))


def kernel():
    """One pass of the reference work; returns a value that depends on
    all of it."""
    product = _mul(_P, _Q)
    order = sorted(product, key=lambda k: (-(k[0] + k[1]), -k[0]))
    return _evaluate(product, *_POINT) + len(order)


def time_pass() -> float:
    """CPU seconds of one kernel pass."""
    start = process_time()
    kernel()
    return process_time() - start


def host_scale(busy_s: float) -> float:
    """Time kernel passes for DUTY of ``busy_s``, at least one pass, and
    return the factor that turns CPU seconds just measured into
    reference seconds."""
    passes = [time_pass()]
    spent = passes[0]
    while spent < DUTY * busy_s:
        passes.append(time_pass())
        spent += passes[-1]
    return REFERENCE_S / statistics.median(passes)
