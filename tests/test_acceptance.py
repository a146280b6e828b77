"""Acceptance suite: every worked example in the check registry
(friezelab.reproduce.ALL_CHECKS) is an exact integer or polynomial
equality, checked end to end and timed against its budget there.

Run with `pytest tests/test_acceptance.py -v -s` to see one ACCEPT line per
check.
"""

import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from friezelab import catalog
from friezelab.errors import NonPositiveEntry
from friezelab.frieze import generate
from friezelab.quivers import has_double_arrow, mutation_class_search
from friezelab.rep import grassmannian_table
from friezelab.reproduce import ALL_CHECKS
from friezelab.seeds import Seed


@contextmanager
def budget(name: str, seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, "%s took %.2fs (budget %.0fs)" % (name, elapsed, seconds)
    print("ACCEPT %-28s PASS (%.2fs)" % (name, elapsed))


@pytest.mark.parametrize("name, seconds, check", ALL_CHECKS,
                         ids=[name for name, _, _ in ALL_CHECKS])
def test_worked_example(name, seconds, check):
    with budget(name, seconds):
        check()


def test_worked_examples_hold_under_optimize():
    # python -O strips assert statements, so the checks must raise on their own
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-O", "-m", "friezelab.cli", "reproduce-paper",
                           "--json"], capture_output=True, text=True, env=env, timeout=300)
    payload = json.loads(done.stdout)
    assert done.returncode == 0
    assert len(payload["checks"]) == 17 and all(c["ok"] for c in payload["checks"])
    assert payload["failed"] == 0


def test_criterion_11_property_suites():
    with budget("11 property-suites", 300.0):
        rng = random.Random(1729)

        # diamond relation on 100 random surviving quiddities: generate()
        # checks every stored diamond and raises on failure
        survivors = 0
        while survivors < 100:
            n = rng.randint(1, 5)
            quiddity = [rng.randint(1, 7) for _ in range(n)]
            try:
                pattern = generate(quiddity, depth=2 * n + 2)
            except NonPositiveEntry:
                continue
            survivors += 1
            for i in range(n):
                for t in range(1, pattern.depth + 1):
                    lhs = (pattern.entry(i, i + t) * pattern.entry(i + 1, i + 1 + t)
                           - pattern.entry(i, i + 1 + t) * pattern.entry(i + 1, i + t))
                    assert lhs == 1

        # mutation involutivity on 500 random (seed, vertex) pairs
        pool = [catalog.kronecker(), catalog.d4_star(), catalog.affine_a(2, 1),
                catalog.d_double_arrow(4), catalog.e6_affine(),
                catalog.e_double_arrow(6)]
        seeds = [Seed.initial(q) for q in pool]
        for _ in range(500):
            idx = rng.randrange(len(seeds))
            seed = seeds[idx]
            k = rng.randrange(seed.quiver.m)
            assert seed.mutate(k).mutate(k) == seed
            if rng.random() < 0.25:
                seeds[idx] = seed.mutate(k)

        # Laurent-phenomenon exactness on 200 random words of length <= 10:
        # every exchange division inside mutate() is exact or raises
        affine_pool = [catalog.kronecker(), catalog.d4_star(),
                       catalog.affine_a(2, 2), catalog.e6_affine()]
        for _ in range(200):
            quiver = rng.choice(affine_pool)
            seed = Seed.initial(quiver)
            for _ in range(rng.randint(1, 10)):
                seed = seed.mutate(rng.randrange(quiver.m))
            assert all(v.terms for v in seed.vars)

        # held-out-prime agreement on every fixture Grassmannian
        fixtures = [catalog.d4_m_lambda(2), catalog.d4_m_lambda(0),
                    catalog.kronecker_regular()]
        for pair in catalog.d4_tubes():
            fixtures.extend(pair)
        for M in fixtures:
            grassmannian_table(M)


def test_bfs_budget_for_affine_starts():
    # supporting check for the search invariants used by the theta and E6
    # growth pipelines
    with budget("search-budgets", 120.0):
        for quiver, cap in ((catalog.d4_star(), 1000), (catalog.e6_affine(), 1000),
                            (catalog.affine_d(5), 1000), (catalog.affine_a(3, 2), 1000)):
            found, _ = mutation_class_search(quiver, has_double_arrow, cap)
            assert found.double_arrows()
