"""Seeded input streams for the benchmark workloads.

Every stream is drawn from one ``random.Random`` seeded by ``--seed``, so
the same seed always yields the same inputs in the same order.  A stream
is an iterator of blocks (lists of cases); the runner starts a block only
while measuring time remains and always finishes it, which keeps the mix
of each workload fixed.  No case repeats within a stream.

Library entry points used here: the public ``random_tame`` to draw tame
words, ``factorization_to_map`` and ``render`` to turn a word into the
polynomial text a line proof parses, and the ``UniPoly``/``BiPoly``
constructors.  Nothing is imported from the test suite.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from kellerkit import (
    AffineFactor,
    BiPoly,
    ElementaryFactor,
    Factorization,
    Parametrization,
    PolyMap,
    UniPoly,
    factorization_to_map,
    random_tame,
)

from check import GRID_CORE, GRID_VALUES, VERDICTS_FILE


@dataclass(frozen=True)
class LineCase:
    """One line proof: the map as text, the word it came from, a line."""

    f_text: str
    g_text: str
    word: Factorization
    line: tuple
    degree: int

    def rendered(self) -> str:
        return "%s;%s;%s,%s,%s" % ((self.f_text, self.g_text) + self.line)


@dataclass(frozen=True)
class SweepCase:
    """One word and line per rung of the degree ladder."""

    parts: tuple

    def rendered(self) -> str:
        return "\n".join(case.rendered() for case in self.parts)


@dataclass(frozen=True)
class GridCase:
    """Criterion 7 input: core pair (i, j) shifted by constants."""

    gamma: Parametrization
    index: int  # i * 125 + j, the row of the frozen verdict table

    def rendered(self) -> str:
        return "%s;%s" % (self.gamma.first.render(), self.gamma.second.render())


@dataclass(frozen=True)
class RecognizeCase:
    """A tame automorphism H and its non-Keller companion H o (x, y^2)."""

    H: PolyMap
    word: Factorization  # generating word of H
    squared: PolyMap

    def rendered(self) -> str:
        return self.H.render()


# ---------------------------------------------------------------------------
# Tame words under the acceptance criteria's rejection rules
# ---------------------------------------------------------------------------


def shift_degree_product(word: Factorization) -> int:
    """Upper bound for the composed degree: product of elementary degrees."""
    product = 1
    for factor in word:
        if isinstance(factor, ElementaryFactor):
            product *= max(1, factor.shift.degree())
    return product


def draw_tame_word(rng, max_factors, max_shift_degree, coeff_bound, degree_cap):
    """Redraw until the elementary degree product fits under the cap."""
    while True:
        word = random_tame(
            rng.getrandbits(48),
            rng.randint(1, max_factors),
            max_shift_degree,
            coeff_bound,
        )
        if shift_degree_product(word) <= degree_cap:
            return word


def random_fraction(rng, bound):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_line(rng):
    while True:
        a, b = random_fraction(rng, 4), random_fraction(rng, 4)
        if a or b:
            return (a, b, random_fraction(rng, 4))


def _line_case(word, line, H=None) -> LineCase:
    if H is None:
        H = factorization_to_map(word)
    degree = max(H.first.total_degree(), H.second.total_degree())
    return LineCase(H.first.render(), H.second.render(), word, line, degree)


def _terms(H) -> int:
    return len(H.first.terms()) + len(H.second.terms())


class Blocks:
    """A seeded iterator of blocks whose set-up draws ``setup_blocks``."""

    def __init__(self, blocks, setup_blocks):
        self._blocks = blocks
        self._setup_blocks = setup_blocks
        self._ahead = []

    def setup(self):
        """Draw the set-up blocks now; returns their cases."""
        self._ahead = [next(self._blocks) for _ in range(self._setup_blocks)]
        return [case for block in self._ahead for case in block]

    def __iter__(self):
        return self

    def __next__(self):
        return self._ahead.pop(0) if self._ahead else next(self._blocks)


class Stratified:
    """Blocks holding exactly ``quotas[k]`` draws from stratum k.

    ``draw()`` returns (case, terms); the stratum is the interval of
    ``cuts`` that the map's term count falls in.  Draws wait in one pool
    per stratum until a block takes them.  A draw for a full pool is
    dropped, so within a stratum the criterion's own distribution is
    kept, while every block has the same mix.  The quotas are the strata's
    natural frequencies, estimated from 20,000 draws of the criterion's
    generator.  This matters because cost grows steeply with term count:
    a few dense maps would otherwise decide a run's throughput.

    Set-up makes a fixed number of draws, whatever the seed.  Filling the
    rare strata takes a number of draws that varies with the seed, so it
    happens while blocks are taken, between timed operations.
    """

    def __init__(self, rng, draw, cuts, quotas, setup_draws):
        self._rng, self._draw, self._cuts = rng, draw, cuts
        self._quotas = quotas
        self._setup_draws = setup_draws
        self._pools = [[] for _ in quotas]

    def _fill(self, draws):
        for _ in range(draws):
            case, terms = self._draw()
            k = bisect.bisect_right(self._cuts, terms)
            if len(self._pools[k]) < self._quotas[k]:
                self._pools[k].append(case)

    def setup(self):
        """Make the set-up draws now; returns the cases they kept."""
        self._fill(self._setup_draws)
        return [case for pool in self._pools for case in pool]

    def __iter__(self):
        return self

    def __next__(self):
        while any(len(pool) < want for pool, want in zip(self._pools, self._quotas)):
            self._fill(1)
        block = [case for pool in self._pools for case in pool]
        self._pools = [[] for _ in self._quotas]
        self._rng.shuffle(block)
        return block


# Criterion 5 caps the composed degree at 8; here the cap is 4 (see
# README.md: degrees 6 and 8 move to the degree ladder, whose fixed
# shape keeps their cost steady).
LINE_DEGREE_CAP = 4
LINE_CUTS = (10, 20, 30)  # term-count strata [0,10) [10,20) [20,30) [30,...)
LINE_QUOTAS = (66, 26, 4, 3)  # 66.2%, 26.2%, 4.3%, 3.2% of draws


def line_proofs(rng):
    """Criterion 5's words (<= 5 factors, shift degree <= 4, coefficients
    <= 5) under LINE_DEGREE_CAP, each with a random rational line."""
    def draw():
        word = draw_tame_word(rng, 5, 4, 5, LINE_DEGREE_CAP)
        H = factorization_to_map(word)
        return _line_case(word, random_line(rng), H), _terms(H)

    return Stratified(rng, draw, LINE_CUTS, LINE_QUOTAS, setup_draws=300)


# ---------------------------------------------------------------------------
# Degree ladder: elementary o elementary o affine at fixed shape
# ---------------------------------------------------------------------------

# Map degree -> shift degrees (outer, inner) of the two elementary factors.
LADDER_RUNGS = {4: (2, 2), 6: (3, 2), 8: (4, 2), 9: (3, 3), 12: (4, 3)}


def _unit_shift(rng, degree):
    """Dense shift with every coefficient +1 or -1."""
    return UniPoly({k: rng.choice((-1, 1)) for k in range(degree + 1)})


def _generic_affine(rng):
    """Affine factor with all four matrix entries nonzero and determinant
    +-3, so the inverse has denominators 3.  Left free, the determinant
    made proofs of one degree differ up to ninefold in cost: +-1 and +-2
    keep the inverse's coefficients small."""
    while True:
        m = [rng.choice((-2, -1, 1, 2)) for _ in range(4)]
        if abs(m[0] * m[3] - m[1] * m[2]) == 3:
            return AffineFactor(*m, rng.choice((-1, 1)), rng.choice((-1, 1)))


def ladder_case(rng, degree) -> LineCase:
    """A rung word with a line on which the curve keeps the full degree.

    The shape is held fixed within a rung: a dense unit-coefficient shift
    of the second coordinate after one of the first, after a generic
    affine map of determinant +-3.  A line along which the inner shift
    reads a constant would drop the curve's degree, so such lines are
    redrawn.
    """
    d_outer, d_inner = LADDER_RUNGS[degree]
    affine = _generic_affine(rng)
    word = Factorization((
        ElementaryFactor("second", _unit_shift(rng, d_outer)),
        ElementaryFactor("first", _unit_shift(rng, d_inner)),
        affine,
    ))
    # The inner shift adds s(y) to x, so it reads the second coordinate.
    row = (affine.a21, affine.a22)
    while True:
        line = random_line(rng)
        a, b, _ = line
        if row[0] * b - row[1] * a:  # row . (b, -a), the line's direction
            return _line_case(word, line)


def degree_ladder(rng):
    """One sweep per block: a fresh word and line for every rung."""
    def sweeps():
        while True:
            yield [SweepCase(tuple(ladder_case(rng, degree) for degree in LADDER_RUNGS))]

    return Blocks(sweeps(), setup_blocks=1)


# ---------------------------------------------------------------------------
# Injectivity grid (criterion 7)
# ---------------------------------------------------------------------------

GRID_PAIRS = len(GRID_CORE) ** 2
GRID_SHIFTS = [(s, t) for s in GRID_VALUES for t in GRID_VALUES]
GRID_BLOCK = 125


def load_verdicts() -> str:
    """The frozen oracle verdicts, one character per core pair (see
    check.oracle_verdict)."""
    text = "".join(VERDICTS_FILE.read_text(encoding="ascii").split())
    if len(text) != GRID_PAIRS:
        raise ValueError("%s holds %d verdicts, expected %d"
                         % (VERDICTS_FILE, len(text), GRID_PAIRS))
    return text


def _component(core, shift):
    c1, c2, c3 = core
    return UniPoly({0: shift, 1: c1, 2: c2, 3: c3})


def _grid_walk(rng, pairs):
    """Passes over the core pairs ``pairs``, each in a fresh seeded order.

    Adding a constant to a component leaves both difference quotients, and
    so the verdict, unchanged.  Pass k gives pair n the constant shifts
    number (base[n] + k) mod 25, so no parametrization repeats within 25
    passes; the walk ends after that.
    """
    base = {n: rng.randrange(len(GRID_SHIFTS)) for n in pairs}
    for k in range(len(GRID_SHIFTS)):
        order = list(pairs)
        rng.shuffle(order)
        for n in order:
            i, j = divmod(n, len(GRID_CORE))
            s, t = GRID_SHIFTS[(base[n] + k) % len(GRID_SHIFTS)]
            gamma = Parametrization(
                _component(GRID_CORE[i], s), _component(GRID_CORE[j], t)
            )
            yield GridCase(gamma, n)


def injectivity_grid(rng):
    """Passes over all 15,625 core pairs, GRID_BLOCK pairs a block."""
    walk = _grid_walk(rng, range(GRID_PAIRS))

    def blocks():
        while True:
            block = list(itertools.islice(walk, GRID_BLOCK))
            if not block:
                return
            yield block

    return Blocks(blocks(), setup_blocks=1)


# ---------------------------------------------------------------------------
# Recognition (criterion 1) with non-Keller companions
# ---------------------------------------------------------------------------


def _criterion_1_word(rng):
    """<= 5 factors, shift degree <= 4, coefficients <= 5, cap 16, and
    both components of degree above 1."""
    while True:
        word = draw_tame_word(rng, 5, 4, 5, 16)
        H = factorization_to_map(word)
        if H.first.total_degree() > 1 and H.second.total_degree() > 1:
            return word, H


def _square_y(p: BiPoly) -> BiPoly:
    return BiPoly({(i, 2 * j): c for (i, j), c in p.terms()})


# Term-count strata, finest where the 95th percentile of cost falls.
RECOGNIZE_CUTS = (20, 40, 60, 80, 100, 115, 140, 180, 200)
# 31.6, 32.0, 14.7, 6.9, 4.3, 5.0, 1.1, 2.0, 1.7, 0.7% of draws
RECOGNIZE_QUOTAS = (32, 32, 15, 7, 4, 5, 1, 2, 2, 1)


def recognize(rng):
    """Criterion 1's automorphisms, each paired with H o (x, y^2)."""
    def draw():
        word, H = _criterion_1_word(rng)
        squared = PolyMap(_square_y(H.first), _square_y(H.second))
        return RecognizeCase(H, word, squared), _terms(H)

    return Stratified(rng, draw, RECOGNIZE_CUTS, RECOGNIZE_QUOTAS, setup_draws=200)


STREAMS = {
    "line_proofs": line_proofs,
    "degree_ladder": degree_ladder,
    "injectivity_grid": injectivity_grid,
    "recognize": recognize,
}


def stream(workload: str, seed: int):
    """A Blocks or Stratified iterator; its ``setup()`` draws the set-up
    inputs, a fixed amount of work whatever the seed."""
    return STREAMS[workload](random.Random("%s/%d" % (workload, seed)))
