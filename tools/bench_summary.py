#!/usr/bin/env python3
"""Summarize alternating parent/change runs of perfbench into one JSON file.

    python3 tools/bench_summary.py --parent ID --change ID [--out BENCH_N.json] \
        [RESULTS_DIR ...]

Every run of `perfbench/run.py` writes its report to `perfbench/results/`
of the checkout it ran in, named by workload, seed and trace, so the parent
and the change are run in two checkouts and both results directories are
given here (the default is this checkout's `perfbench/results`).  ID is a
prefix of the `source_sha256` or of the `commit` that a report records; all
reports that an ID selects must come from one source tree.  A pair is one
parent report and one change report of the same workload, seed, trace and
run length.

For each workload and trace setting the summary gives, per metric, each
side's median and quartiles (statistics.quantiles, inclusive method), the
[parent, change] values of every pair in the order of the seeds, the ratio
of the medians (None unless both are positive), the pairs the change wins
(ties count for neither), and whether the gain rule holds: the change
wins at least nine tenths of the pairs and the medians differ by more than
the parent's interquartile range.  Metric directions come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_reports(dirs: list[Path]) -> list[dict]:
    reports = []
    for directory in dirs:
        for path in sorted(directory.glob("*-seed*-trace*.json")):
            reports.append(json.loads(path.read_text()))
    return reports


def select(reports: list[dict], ident: str, side: str) -> dict:
    """The reports of one side, keyed by (workload, trace, seconds, seed)."""
    chosen = [r for r in reports
              if r["source_sha256"].startswith(ident) or r["commit"].startswith(ident)]
    trees = {r["source_sha256"] for r in chosen}
    if len(trees) != 1:
        raise SystemExit("%s %r selects %d source trees; give a longer prefix"
                         % (side, ident, len(trees)))
    return {(r["workload"], r["trace"], r["seconds"], r["seed"]): r for r in chosen}


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3}


def compare(pairs: list[tuple[dict, dict]], name: str, better: str) -> dict:
    parent = [p["metrics"][name]["value"] for p, _ in pairs]
    change = [c["metrics"][name]["value"] for _, c in pairs]
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    base, new = spread(parent), spread(change)
    return {
        "unit": pairs[0][0]["metrics"][name]["unit"],
        "better": better,
        "parent": base,
        "change": new,
        "per_pair": [[p, c] for p, c in zip(parent, change)],
        "ratio": (new["median"] / base["median"]
                  if base["median"] > 0 and new["median"] > 0 else None),
        "change_wins": wins,
        "gain_rule_met": (wins >= 0.9 * len(pairs)
                          and sign * (new["median"] - base["median"]) > base["q3"] - base["q1"]),
    }


def summarize(parent: dict, change: dict, directions: dict) -> dict:
    groups: dict = {}
    for key in sorted(parent.keys() & change.keys()):
        groups.setdefault(key[:3], []).append((parent[key], change[key]))
    workloads = {}
    for (workload, trace, seconds), pairs in groups.items():
        names = sorted(pairs[0][0]["metrics"].keys() & pairs[0][1]["metrics"].keys())
        workloads["%s-trace%d" % (workload, trace)] = {
            "workload": workload,
            "trace": trace,
            "seconds": seconds,
            "seeds": [p["seed"] for p, _ in pairs],
            "pairs": len(pairs),
            "failed": {"parent": sum(p["failed"] for p, _ in pairs),
                       "change": sum(c["failed"] for _, c in pairs)},
            "attempted": {"parent": sum(p["attempted"] for p, _ in pairs),
                          "change": sum(c["attempted"] for _, c in pairs)},
            "metrics": {name: compare(pairs, name, directions.get(name, "lower"))
                        for name in names},
        }
    any_parent, any_change = next(iter(parent.values())), next(iter(change.values()))
    return {
        "parent": {k: any_parent[k] for k in ("commit", "source_sha256")},
        "change": {k: any_change[k] for k in ("commit", "source_sha256")},
        "python": sorted({r["python"] for r in [*parent.values(), *change.values()]}),
        "nproc": sorted({r["nproc"] for r in [*parent.values(), *change.values()]}),
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dirs", nargs="*", type=Path, default=[ROOT / "perfbench" / "results"])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    reports = load_reports(args.dirs)
    summary = summarize(select(reports, args.parent, "--parent"),
                        select(reports, args.change, "--change"), directions)
    text = json.dumps(summary, indent=1, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
