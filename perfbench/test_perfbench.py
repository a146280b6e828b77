"""Self-tests of the benchmark: its checks reject perturbed outputs, a wrong
output makes a run exit nonzero, and a checkout without sources gives no
result.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from friezelab.cc import CCValue  # noqa: E402
from friezelab.laurent import LaurentPoly  # noqa: E402
from friezelab.seeds import Seed  # noqa: E402


@pytest.fixture(scope="module")
def ctx():
    return workloads.Context(spans.NullTracer())


def run_and_check(op, ctx, perturb):
    run, check, _, _ = workloads.KINDS[op["kind"]]
    out = run(op, ctx)
    assert check(op, out, ctx) == []
    return check(op, perturb(out), ctx)


def _bump_first_term(poly):
    terms = dict(poly.terms)
    exp = next(iter(terms))
    terms[exp] += 1
    return LaurentPoly(poly.vars, terms)


SEARCH = workloads.WARMUP["mutation-search"][0]
KRONECKER = {"kind": "kronecker", "length": 6, "start": 1}
MODULAR = {"kind": "modular", "n": 6, "perm": [3, 1, 0, 2, 6, 5, 4], "word": ["tb", "tc"]}
COUNT = {"kind": "count", "p": 3, "centers": [0], "duality_seed": 7,
         "maps": [[[1, 0], [0, 1], [1, 1]], [[1], [0]], [[0, 1], [1, 0], [1, 1]],
                  [[1], [1]], [[1, 1], [0, 1], [1, 0]], [[0], [1]]]}
FRIEZE = {"kind": "frieze", "quiddity": [7, 7, 7], "depth": 60, "k": 20}


def test_search_rejects_wrong_theta(ctx):
    def perturb(out):
        theta = out["theta"]
        return dict(out, theta=dataclasses.replace(theta, integer=theta.integer + 1))
    problems = run_and_check(SEARCH, ctx, perturb)
    assert [layer for layer, _ in problems] == ["theta"]


def test_search_rejects_wrong_cluster_variable(ctx):
    def perturb(out):
        seed = out["seed"]
        bumped = [_bump_first_term(seed.vars[0])] + list(seed.vars[1:])
        return dict(out, seed=Seed(seed.quiver, bumped))
    problems = run_and_check(SEARCH, ctx, perturb)
    assert [layer for layer, _ in problems] == ["seeds"]


def test_kronecker_rejects_broken_exchange_relation(ctx):
    def perturb(out):
        chain = list(out["chain"])
        k = KRONECKER["start"]  # the variable the first step replaces
        variables = list(chain[1].vars)
        variables[k] = _bump_first_term(variables[k])
        chain[1] = Seed(chain[1].quiver, variables)
        return dict(out, chain=chain)
    messages = [m for _, m in run_and_check(KRONECKER, ctx, perturb)]
    assert any("x_k * x'_k" in m for m in messages)
    assert any("F_3" in m for m in messages)


def test_modular_rejects_theta_that_is_not_invariant(ctx):
    def perturb(out):
        theta = out["theta"]
        return dict(out, theta=dataclasses.replace(theta, laurent=_bump_first_term(theta.laurent)))
    problems = run_and_check(MODULAR, ctx, perturb)
    assert [layer for layer, _ in problems] == ["theta"]


def test_cc_rejects_character_off_the_golden(ctx):
    op = {"kind": "cc", "lambda": 23}
    problems = run_and_check(op, ctx, lambda out: CCValue(_bump_first_term(out.laurent),
                                                          out.at_ones))
    assert [layer for layer, _ in problems] == ["cc"]


def test_count_rejects_a_count_its_dual_disagrees_with(ctx):
    sample = checks.duality_sample(workloads.E6_DELTA, COUNT["centers"], COUNT["duality_seed"],
                                   workloads.DUALITY_SAMPLE)
    target = next(e for e in sample if any(e))

    def perturb(out):
        return {**out, target: out[target] + 1}
    problems = run_and_check(COUNT, ctx, perturb)
    assert problems and all(layer == "rep" for layer, _ in problems)


def test_frieze_rejects_wrong_growth(ctx):
    problems = run_and_check(FRIEZE, ctx, lambda out: dict(out, measured=out["measured"] + 1))
    assert [layer for layer, _ in problems] == ["frieze"]


def test_repeated_input_pools_timings_and_must_repeat_its_outputs(ctx, monkeypatch):
    run = worker.Run(workloads, ctx)
    op = {"kind": "cc", "lambda": 23}
    per_op, passes = worker.run_passes(run, [op, dict(op)], 2, float("inf"), hashlib.sha256())
    assert passes == 2 and run.failed == 0
    assert per_op[0] is per_op[1] and len(per_op[0]) == 4

    _, digest = run.op(op)
    real = workloads.cc_map
    monkeypatch.setattr(workloads, "cc_map",
                        lambda rep: CCValue(real(rep).laurent, real(rep).at_ones + 1))
    run.op(op, want=digest)
    assert run.failed == 1
    assert "first run" in run.errors[-1]


def test_independent_arithmetic():
    assert checks.odd_fibonacci(6) == [1, 2, 5, 13, 34, 89]
    assert [checks.chebyshev_t(k, 14) for k in range(4)] == [2, 14, 194, 2702]
    assert checks.gaussian_binomial(3, 1, 5) == 31
    assert checks.gaussian_binomial(4, 2, 2) == 35


def test_wrong_output_makes_the_run_exit_nonzero(monkeypatch, capsys):
    real = workloads.count_points
    monkeypatch.setattr(workloads, "count_points", lambda rep, e, p: real(rep, e, p) + 1)
    status = worker.main(["--workload", "tube", "--seed", "3", "--seconds", "0", "--trace", "0"])
    report = capsys.readouterr().out.strip().splitlines()[-1]
    assert status == 1
    assert '"rep: count op' in report


def test_checkout_without_sources_gives_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tube",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
