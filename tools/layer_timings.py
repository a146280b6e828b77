#!/usr/bin/env python3
"""Time fixed in-process workloads of the library's layers; print one JSON object.

    python3 tools/layer_timings.py [-r R] [--tree DIR] [ROW ...]
    python3 tools/layer_timings.py --compare A B [-r R] [ROW ...]

Each row is one named workload on one layer: the growth route, the growth
element, the Laurent layer under Kronecker mutations, Grassmannian tables,
whole counting traversals, reads of kept counting tables, the modular
relations, the canonical form, the catalog E8 double-arrow search,
reproduce-paper and the integer frieze, shallow and deep.
ROW names select rows (default: all, in the order of ROWS).  Each run of a
row is timed with time.perf_counter around the workload alone; building its
inputs is not timed.  A run that passes the row's wall-clock cap is stopped
by SIGALRM and records TimeoutError.  A row that raises records the name of
the exception and the seconds until then, and runs no more.  Process-wide
caches of the library stay warm after a row's first run.

The output gives the Python version, the CPU count, per row the best and
the median of R runs in seconds, and maxrss_mb: the peak resident set size
of the process in MB, read after the rows have run, so one row per call
gives that row's memory.  --tree times the source tree rooted at DIR (its
src/, fixtures/ and perfbench/; default: this checkout).

--compare A B times two source trees alternately, as perfbench pairs are
run: in each of R rounds each tree runs every row once in a fresh process,
A first in even rounds and B first in odd ones, so every sample is a first
run.  Per row it gives each tree's best and median and the ratio B / A of the
medians when both are positive, and per tree the best and median maxrss_mb
of its processes.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _growth(name, *args):
    def setup(root):
        from friezelab import catalog
        from friezelab.theta import growth_from_affine_quiver
        quiver = getattr(catalog, name)(*args)
        return lambda: growth_from_affine_quiver(quiver)
    return setup


def _cli(*argv):
    """A CLI run in process, its files read from the timed tree."""
    def setup(root):
        from friezelab import cli
        args = [str(root / a) if a.startswith("fixtures/") else a for a in argv]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(args) != 0:
                    raise RuntimeError("%s exited nonzero" % " ".join(argv))
        return run
    return setup


def _kronecker_mutations(root):
    from friezelab import catalog
    from friezelab.seeds import Seed

    def run():
        seed = Seed.initial(catalog.kronecker())
        for i in range(40):
            seed = seed.mutate(i % 2)
    return run


def _theta_kronecker(root):
    """theta of the Kronecker seed after 14 alternating mutations."""
    from friezelab import catalog
    from friezelab.seeds import Seed
    from friezelab.theta import theta
    seed = Seed.initial(catalog.kronecker())
    for i in range(14):
        seed = seed.mutate(i % 2)
    return lambda: theta(seed)


def _theta_modular_e7(root):
    """theta of the E7 double-arrow base seed after a fixed modular word."""
    from friezelab import catalog
    from friezelab.modular import apply_generator_word
    from friezelab.seeds import Seed
    from friezelab.theta import theta
    seed = apply_generator_word(Seed.initial(catalog.e_double_arrow(7)),
                                "tc tb ta tc ta ta ta ta".split())
    return lambda: theta(seed)


def _table(make):
    def setup(root):
        from friezelab.rep import grassmannian_table
        return lambda: grassmannian_table(make())  # a fresh rep keeps no table
    return setup


def _lone_e(make, e, p):
    """count_points of one e on a fresh rep: a whole traversal at p."""
    def setup(root):
        from friezelab.rep import count_points
        return lambda: count_points(make(), e, p)
    return setup


def _kronecker_exceptional(a, b):
    """The exceptional Kronecker module of dimension vector (a, b) = (b + 1, b)."""
    def make():
        from friezelab import catalog
        from friezelab.rep import QuiverRep
        shift = [[[int(j == i + s) for j in range(a)] for i in range(b)] for s in (0, 1)]
        return QuiverRep(catalog.kronecker(), (a, b), shift)
    return make


def _d4_golden():
    from friezelab import catalog
    return catalog.d4_m_lambda(2)


def _relations(n):
    def setup(root):
        from friezelab import catalog
        from friezelab.modular import check_relations
        from friezelab.seeds import Seed
        seed = Seed.initial(catalog.e_double_arrow(n))
        return lambda: check_relations(seed)
    return setup


def _search_e8(root):
    """The double-arrow search from the catalog E8 quiver."""
    from friezelab import catalog
    from friezelab.quivers import has_double_arrow, mutation_class_search
    quiver = catalog.e8_affine()
    return lambda: mutation_class_search(quiver, has_double_arrow)


def _canonical_key_triangles(root):
    from friezelab.quivers import Quiver
    c = 4
    b = [[0] * (3 * c) for _ in range(3 * c)]
    for k in range(c):
        for i in range(3):
            t, h = 3 * k + i, 3 * k + (i + 1) % 3
            b[t][h], b[h][t] = 1, -1
    labels = [str(i) for i in range(3 * c)]
    return lambda: Quiver(labels, b).canonical_key()  # a fresh quiver per run


def _reproduce_paper(root):
    from friezelab.reproduce import run_checks

    def run():
        if failed := [r.name for r in run_checks() if not r.ok]:
            raise RuntimeError("checks failed: %s" % ", ".join(failed))
    return run


def _perfbench_inputs(root):
    """perfbench/inputs.py of the timed tree, read by path."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  root / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def _tube_counts(root, p):
    """perfbench/inputs.py of the timed tree and the count operations at p of
    its seed-0 tube workload."""
    inputs = _perfbench_inputs(root)
    ops = [op for op in inputs.generate("tube", 0) if op["kind"] == "count" and op["p"] == p]
    return inputs, ops


def _tube_tables(p):
    """Whole counting traversals of the distinct E6 delta-representations that
    the seed-0 perfbench tube workload counts at p, each on a fresh rep."""
    def setup(root):
        from friezelab import catalog
        from friezelab import rep as rep_module
        inputs, ops = _tube_counts(root, p)
        maps = []
        for op in ops:
            if op["maps"] not in maps:
                maps.append(op["maps"])
        quiver = catalog.e6_affine()

        def run():
            for m in maps:
                rep_module._count_by_dimvector(rep_module.QuiverRep(quiver, inputs.E6_DELTA, m), p)
        return run
    return setup


def _tube_reads(p):
    """Every count_points read that the count operations at p of the seed-0
    perfbench tube workload make, each e a tuple as perfbench builds it.  The
    set-up keeps the table at p of each distinct representation, so no
    traversal is timed: only the reads."""
    def setup(root):
        from friezelab import catalog
        from friezelab.rep import QuiverRep, count_points
        inputs, ops = _tube_counts(root, p)
        quiver, delta = catalog.e6_affine(), inputs.E6_DELTA
        rests = list(itertools.product(*(range(d + 1) for d in delta[1:])))
        reps: dict = {}
        reads = []
        for op in ops:
            if (key := repr(op["maps"])) not in reps:
                reps[key] = QuiverRep(quiver, delta, op["maps"])
                count_points(reps[key], delta, p)  # keeps the table at p
            reads += [(reps[key], (c,) + rest) for c in op["centers"] for rest in rests]

        def run():
            for rep, e in reads:
                count_points(rep, e, p)
        return run
    return setup


def _frieze_tube(root):
    """The frieze operations of the seed-0 perfbench tube workload, each run as
    perfbench's run_frieze runs it: generate, then growth and measured_growth."""
    from friezelab.frieze import generate, growth, measured_growth
    ops = [op for op in _perfbench_inputs(root).generate("tube", 0) if op["kind"] == "frieze"]

    def run():
        for op in ops:
            pattern = generate(op["quiddity"], op["depth"])
            growth(pattern, op["k"])
            measured_growth(pattern, op["k"])
    return run


def _frieze_e8_deep(root):
    """A deep frieze of entries tens of thousands of bits long: quiddity
    (98, 252) to depth 4000, then growth and measured_growth at k = 2000."""
    from friezelab.frieze import generate, growth, measured_growth

    def run():
        pattern = generate((98, 252), 4000)
        growth(pattern, 2000)
        measured_growth(pattern, 2000)
    return run


# name -> (wall-clock cap per run in seconds, set-up returning the timed callable)
ROWS = {
    "growth-d8": (30, _growth("affine_d", 8)),
    "growth-d10": (60, _growth("affine_d", 10)),
    "growth-d11": (60, _growth("affine_d", 11)),
    "growth-a5-4": (30, _growth("affine_a", 5, 4)),
    "growth-a6-5": (30, _growth("affine_a", 6, 5)),
    "theta-e8-at-ones": (30, _cli("theta", "--quiver", "fixtures/e8/quiver.json", "--at-ones")),
    "theta-kronecker-14": (10, _theta_kronecker),
    "theta-modular-e7": (10, _theta_modular_e7),
    "kronecker-40-mutations": (30, _kronecker_mutations),
    "table-d4-golden": (10, _table(_d4_golden)),
    "table-kronecker-4-3": (120, _table(_kronecker_exceptional(4, 3))),
    "count-kronecker-4-3-p7": (60, _lone_e(_kronecker_exceptional(4, 3), (1, 0), 7)),
    "count-kronecker-5-4-p5": (60, _lone_e(_kronecker_exceptional(5, 4), (1, 0), 5)),
    "dimvec-d4": (10, _cli("grassmannian", "--rep", "fixtures/d4/m_lambda.json",
                           "--dimvec", "1,1,1,0,0")),
    "check-relations-e6": (10, _relations(6)),
    "check-relations-e7": (10, _relations(7)),
    "check-relations-e8": (10, _relations(8)),
    "canonical-key-4-triangles": (10, _canonical_key_triangles),
    "search-e8": (30, _search_e8),
    "reproduce-paper": (30, _reproduce_paper),
    "tube-tables-p3": (30, _tube_tables(3)),
    "tube-tables-p5": (30, _tube_tables(5)),
    "tube-reads-p3": (10, _tube_reads(3)),
    "frieze-tube": (30, _frieze_tube),
    "frieze-8-2": (10, _cli("frieze", "--quiddity", "8,2", "--depth", "40", "--growth", "20",
                            "--json")),
    "frieze-e8-deep": (30, _frieze_e8_deep),
}


def _on_alarm(signum, frame):
    raise TimeoutError("row passed its wall-clock cap")


def time_row(name: str, root: Path, runs: int) -> dict:
    cap, setup = ROWS[name]
    try:
        fn = setup(root)
    except Exception as exc:  # noqa: BLE001 - a tree without the row's code records why
        return {"error": type(exc).__name__, "after_s": 0.0, "cap_s": cap}
    times = []
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for _ in range(runs):
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                fn()
            except Exception as exc:  # noqa: BLE001 - a failing row is recorded, not fatal
                return {"error": type(exc).__name__, "after_s": time.perf_counter() - start,
                        "cap_s": cap}
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            times.append(time.perf_counter() - start)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return summary(times, cap)


def summary(times: list[float], cap: float) -> dict:
    return {"best_s": min(times), "median_s": statistics.median(times), "runs": len(times),
            "cap_s": cap}


def header() -> dict:
    return {"python": platform.python_version(), "cpu_count": os.cpu_count()}


def compare(trees: list[Path], rows: list[str], rounds: int) -> dict:
    samples = {tree: {name: [] for name in rows} for tree in trees}
    errors: dict = {tree: {} for tree in trees}
    rss: dict = {tree: [] for tree in trees}
    for i in range(rounds):
        for tree in trees if i % 2 == 0 else trees[::-1]:
            proc = subprocess.run([sys.executable, __file__, "--tree", str(tree), "-r", "1"]
                                  + rows, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout)
            rss[tree].append(result["maxrss_mb"])
            for name, row in result["rows"].items():
                if "error" in row:
                    errors[tree].setdefault(name, row)
                else:
                    samples[tree][name].append(row["best_s"])
    out = {}
    for name in rows:
        cap = ROWS[name][0]
        a, b = (errors[t].get(name) or summary(samples[t][name], cap) for t in trees)
        medians = [side.get("median_s", 0) for side in (a, b)]
        out[name] = {"a": a, "b": b,
                     "ratio": medians[1] / medians[0] if min(medians) > 0 else None}
    return {**header(), "rounds": rounds, "trees": [str(t) for t in trees], "rows": out,
            "maxrss_mb": {side: {"best": min(rss[t]), "median": statistics.median(rss[t])}
                          for side, t in zip("ab", trees)}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rows", nargs="*", metavar="ROW", help="rows to run (default: all)")
    parser.add_argument("-r", "--runs", type=int, default=5, help="runs (rounds) per row")
    parser.add_argument("--tree", type=Path, default=ROOT, help="source tree to time")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if unknown := [name for name in args.rows if name not in ROWS]:
        parser.error("unknown rows %s; known: %s" % (", ".join(unknown), ", ".join(ROWS)))
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    rows = args.rows or list(ROWS)
    if args.compare:
        result = compare([tree.resolve() for tree in args.compare], rows, args.runs)
    else:
        root = args.tree.resolve()
        sys.path.insert(0, str(root / "src"))
        result = {**header(), "tree": str(root),
                  "rows": {name: time_row(name, root, args.runs) for name in rows}}
        result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
