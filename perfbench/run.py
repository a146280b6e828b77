"""friezelab benchmark: one seeded workload, checked outputs, one JSON line.

    python3 perfbench/run.py --workload {mutation-search,exchange,tube} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The benchmark imports friezelab from the
checkout's src/ and fails with status 2, printing no result, when it is
missing.  Set-up (import, fixture loading, input generation, warm-up) is
timed in SETUP_RUNS fresh processes and reported as their median; the last
of them goes on to run the workload.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics
under --trace 1.  The full report (versions, digests, sample counts,
per-kind latencies) is the line before it and is also written to
perfbench/results/.  The exit status is 1 when any output is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("mutation-search", "exchange", "tube")
SETUP_RUNS = 5
TIME_LIMIT_S = 170  # every run must end within 180 s


class WorkerFailed(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def run_worker(argv, deadline: float) -> tuple[int, dict]:
    """Run worker.py to completion; returns its status and its last line."""
    # a fixed hash seed keeps set and dict orders, and so the work, the same in every run
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py")] + argv,
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise WorkerFailed("worker exceeded the time limit") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise WorkerFailed("worker exited with status %d" % proc.returncode)
    return proc.returncode, json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "friezelab" / "__init__.py").is_file():
        print("perfbench: no friezelab sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [run_worker(common + ["--setup-only"], deadline)[1]["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        status, report = run_worker(common + ["--seconds", str(args.seconds),
                                              "--trace", str(args.trace)], deadline)
    except WorkerFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    setups.append(report["setup_s"])
    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        report["samples"]["setup_s"] = len(setups)
    report["setup_runs_s"] = setups

    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (out_dir / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps({"correct": status == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return status


if __name__ == "__main__":
    sys.exit(main())
