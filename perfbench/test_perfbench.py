"""Tests of the benchmark's own machinery.

Run from the repository root (the suite under tests/ does not collect
this directory):

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import check  # noqa: E402
import gen  # noqa: E402
import kellerkit  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

SHEAR = gen.LineCase("x + y^2", "y", None, (0, 1, 0), 2)


def _shear_calls(step):
    """Counts recorded while ``step`` runs the golden shear proof."""
    H = kellerkit.PolyMap(kellerkit.BiPoly({(1, 0): 1, (0, 2): 1}), kellerkit.BiPoly.y())
    _, _, cert = kellerkit.prove_line(H, kellerkit.Line(0, 1, 0))
    tracer = Tracer()
    tracer.install()
    try:
        step(H, cert)
    finally:
        tracer.uninstall()
    return tracer


def test_prove_line_counts_on_the_shear():
    tracer = _shear_calls(lambda H, cert: kellerkit.prove_line(H, kellerkit.Line(0, 1, 0)))
    assert tracer.count("arith.compose_map") == 5
    assert tracer.count("arith.jacobian_det") == 3
    assert tracer.count("embedding.is_embedding") == 2
    assert tracer.count("tame.factorization_to_map") == 3


def test_verify_certificate_counts_on_the_shear():
    tracer = _shear_calls(lambda H, cert: kellerkit.verify_certificate(cert, H))
    assert tracer.count("arith.compose_map") == 2
    assert tracer.count("tame.factorization_to_map") == 2


def test_uninstall_restores_every_binding():
    modules = [m for name, m in sys.modules.items()
               if name == "kellerkit" or name.startswith("kellerkit.")]
    before = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    classes = (kellerkit.BiPoly, kellerkit.UniPoly, kellerkit.arith.Substitution)
    methods = {(cls, k): v for cls in classes for k, v in vars(cls).items()}
    tracer = Tracer()
    tracer.install()
    replaced = tracer.bindings()
    assert {key for _, key, _ in replaced} >= {attr for _, _, attr in LAYERS.values()}
    assert kellerkit.BiPoly.__rmul__ is kellerkit.BiPoly.__mul__
    workloads.op_line(SHEAR)
    tracer.uninstall()
    for owner, key, orig in replaced:
        assert getattr(owner, key) is orig
    assert {(id(m), k): v for m in modules for k, v in vars(m).items()} == before
    assert {(cls, k): v for cls in classes for k, v in vars(cls).items()} == methods


def test_every_layer_sees_calls_from_other_modules():
    """A call made inside keller reaches the wrapper of an arith name."""
    tracer = Tracer()
    tracer.install()
    try:
        workloads.op_line(SHEAR)
    finally:
        tracer.uninstall()
    assert tracer.count("keller.prove_line") == 1
    assert tracer.count("cli.parse_bipoly") == 2
    assert tracer.count("arith.compose_map") == 7
    assert tracer.count("arith.substitution_apply") > 0
    assert tracer.count("arith.bipoly_mul") > 0


def test_frozen_verdicts_match_the_oracle():
    assert check.grid_verdicts(check.GRID_CORE) == gen.load_verdicts()
    assert gen.load_verdicts().count(check.INJECTIVE) == 2648
    assert gen.load_verdicts().count(check.SHARED) == 336


def test_streams_are_seeded_and_never_repeat():
    for workload in gen.STREAMS:
        first = [c.rendered() for b in _take(gen.stream(workload, 7), 6) for c in b]
        again = [c.rendered() for b in _take(gen.stream(workload, 7), 6) for c in b]
        other = [c.rendered() for b in _take(gen.stream(workload, 8), 6) for c in b]
        assert first == again
        assert first != other
        assert len(set(first)) == len(first)


def test_checks_reject_a_wrong_answer():
    H = kellerkit.PolyMap(kellerkit.BiPoly({(1, 0): 1, (0, 2): 1}), kellerkit.BiPoly.y())
    word = gen.draw_tame_word(random.Random(3), 3, 2, 3, 4)
    case = gen.LineCase("x + y^2", "y", word, (0, 1, 0), 2)
    inv, got, _ = kellerkit.prove_line(H, kellerkit.Line(0, 1, 0))
    points = [(Fraction(1, 2), Fraction(-3))]
    assert not check.check_line_proof(case, H, inv, got, True, points)
    shear = gen.LineCase("x + y^2", "y", got, (0, 1, 0), 2)
    assert check.check_line_proof(shear, H, inv, got, True, points)
    assert not check.check_line_proof(shear, H, inv, got, False, points)


def test_setup_draws_a_fixed_amount_whatever_the_seed():
    """Set-up cost must not hang on how soon a seed fills the rare strata."""
    for seed in range(5):
        rng = random.Random(seed)
        draws = []

        def draw():
            draws.append(1)
            return None, rng.randrange(100)

        stream = gen.Stratified(rng, draw, (50, 98), (10, 5, 1), setup_draws=40)
        stream.setup()
        assert len(draws) == 40
        assert [len(block) for block in _take(stream, 3)] == [16, 16, 16]


def test_grid_check_rejects_a_wrong_verdict():
    verdicts = gen.load_verdicts()
    block = next(gen.stream("injectivity_grid", 3))
    shared = [g for g in block if verdicts[g.index] == check.SHARED]
    assert {verdicts[g.index] for g in block} == {check.INJECTIVE, check.SHARED, check.REJECTED}
    for gamma in block:
        got = kellerkit.is_injective_param(gamma.gamma)
        assert workloads.check_grid(gamma, got, [], verdicts)
        assert not workloads.check_grid(gamma, type(got)(not got.ok, got.witness), [], verdicts)
    got = kellerkit.is_injective_param(shared[0].gamma)
    assert not workloads.check_grid(shared[0], type(got)(False, kellerkit.BiPoly.one()),
                                    [], verdicts)


def test_run_refuses_without_the_library():
    """A tree holding only the benchmark files fails without a result."""
    bare = HERE / "out" / "bare"
    bench = bare / "perfbench"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "recognize",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_scaled_times_share_one_factor():
    """Every time of an op is scaled by the one factor measured after it."""
    rungs = ((4, 0.004), (6, 0.008))
    _, latency, prove, verify, scaled_rungs = workloads.scaled(("out", 0.02, 0.01, None, rungs))
    factor = latency / 0.02
    assert factor > 0
    assert abs(prove - 0.01 * factor) < 1e-12
    assert verify is None
    assert [d for d, _ in scaled_rungs] == [4, 6]
    assert all(abs(s - raw * factor) < 1e-12 for (_, s), (_, raw) in zip(scaled_rungs, rungs))


def test_calibration_kernel_is_fixed_work():
    assert calibrate.kernel() == calibrate.kernel()
    assert calibrate.host_scale(0.0) > 0


def _take(iterator, n):
    return [next(iterator) for _ in range(n)]
