"""One benchmark process: set up a workload, run it in a closed loop, check
every output, and print one JSON object on the last line of stdout.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --seed N --setup-only

Set-up is import, fixture loading, input generation and warm-up.  Tracing
off: the run makes as many passes over the operation list as take
--seconds at nominal speed, and times every operation once per pass.  An
operation's latency is the fastest timing of its input in the run, over
all passes and all copies of the input in the list.  Tracing on: the
passes that take half of --seconds run untraced and then as many again
traced, and the ratio of the two gives the tracing overhead.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Nominal wall seconds per pass over each workload's operation list,
# operations and checks together (2-core x86-64 VM under load from other
# tenants).  An untraced run makes round(seconds / nominal) passes, and a
# traced run the passes that fit in half of that twice, once untraced and
# once traced.  The work of a run thus depends on --seconds and the seed
# only, never on the speed of the code or the machine.
#
# Other tenants of the host slow a process down by up to 1.7x, for seconds
# to minutes at a time, so one timing of an operation says as much about
# the host as about the code.  The fastest of several timings spread over
# the whole run is the operation's own cost (the rule timeit follows).
NOMINAL_PASS_S = 7.0

# No pass but the first of each half of a traced run, or the first of an
# untraced run, starts after 1.15 x --seconds of wall time.
WALL_LIMIT = 1.15
DEFAULT_SEED = 0
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


class Run:
    """Executes operations, checks them, and keeps the run's tallies."""

    def __init__(self, workloads, ctx):
        self.w = workloads
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0
        self.layer_failed = {layer: 0 for layer in workloads.LAYERS + ("bench",)}
        self.errors: list[str] = []
        self.op_id = 0
        self.by_kind: dict[str, list[float]] = {}

    def _fail(self, layer: str, message: str) -> None:
        self.layer_failed[layer.split(".")[0]] += 1
        if len(self.errors) < 20:
            self.errors.append("%s: %s" % (layer, message))

    def op(self, op, exact=None, want=None) -> tuple[float, str]:
        """Run and time one operation; returns its latency in s and the
        sha256 of its exact outputs.  The outputs are checked, or, when an
        earlier run of the same input gave the digest `want`, compared with
        that digest."""
        run, check, account, exact_fn = self.w.KINDS[op["kind"]]
        ctx, tracer = self.ctx, self.ctx.tracer
        self.op_id += 1
        tracer.begin_op(self.op_id)
        ctx.layer = "bench"
        self.attempted += 1
        error = None
        start = time.perf_counter()
        try:
            with tracer.span("op"):
                out = run(op, ctx)
        except Exception as exc:  # an operation failure is a result, not a crash
            error = exc
        latency = time.perf_counter() - start
        self.by_kind.setdefault(self.w.label(op), []).append(latency)
        if error is not None:
            self.failed += 1
            self._fail(ctx.layer, repr(error))
            return latency, ""
        own = hashlib.sha256()
        for item in exact_fn(out):
            own.update(item.encode("utf-8"))
            own.update(b"\n")
            if exact is not None:
                exact.update(item.encode("utf-8"))
                exact.update(b"\n")
        if want is not None:
            problems = [] if own.hexdigest() == want else [
                ("bench", "outputs differ from this input's first run")]
        else:
            try:
                with tracer.span("bench.check"):
                    problems = check(op, out, ctx)
            except Exception as exc:
                problems = [("bench", "checker raised %r" % exc)]
        if problems:
            self.failed += 1
            for layer, message in problems:
                self._fail(layer, "%s op: %s" % (op["kind"], message))
        if tracer.enabled and account is not None:
            account(op, out, ctx)
        return latency, own.hexdigest()


def setup(args):
    """Import, load fixtures, generate inputs, warm up; returns the pieces."""
    sys.path.insert(0, str(BENCH_DIR))
    sys.path.insert(0, str(SRC))
    import inputs
    import spans
    import workloads
    import friezelab
    if Path(friezelab.__file__).resolve().parent != (SRC / "friezelab").resolve():
        raise ImportError("friezelab was imported from %s, not from this checkout"
                          % friezelab.__file__)
    ops = inputs.generate(args.workload, args.seed)
    warm = Run(workloads, workloads.Context(spans.NullTracer()))
    for op in workloads.WARMUP[args.workload]:
        warm.op(op)
    if warm.failed:
        raise RuntimeError("warm-up failed: %s" % warm.errors)
    return inputs, spans, workloads, ops


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond
    it, with that percentile and the number of samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(0, n - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def source_identity() -> dict:
    """Commit (when the checkout has git metadata) and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "friezelab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else ref[5:]
        else:
            commit = ref
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def run_passes(run, ops, passes, deadline, exact) -> tuple[list[list[float]], int]:
    """Time every operation in `passes` passes over `ops`, or in fewer when
    the wall-clock deadline passes.  Returns the timings of each
    operation's input, pooled over its copies in `ops`, in the order of
    `ops`, and the number of passes begun.  The first timing of each input
    checks its outputs; the others must give the same outputs.  The first
    pass puts its exact outputs into the `exact` digest."""
    keys = [json.dumps(op, sort_keys=True) for op in ops]
    timings = {key: [] for key in keys}
    digests = {}
    for i in range(passes):
        for op, key in zip(ops, keys):
            if i and time.perf_counter() > deadline:
                return [timings[key] for key in keys], i
            latency, digest = run.op(op, exact if i == 0 else None, digests.get(key))
            timings[key].append(latency)
            digests.setdefault(key, digest)
    return [timings[key] for key in keys], passes


def measure(args, spans, workloads, ops):
    exact = hashlib.sha256()
    result = {}
    start = time.perf_counter()
    # a machine slower than nominal runs fewer passes, never longer than this
    deadline = start + WALL_LIMIT * args.seconds
    if not args.trace:
        run = Run(workloads, workloads.Context(spans.NullTracer()))
        passes = max(1, round(args.seconds / NOMINAL_PASS_S))
        result["per_op"], result["passes"] = run_passes(run, ops, passes, deadline, exact)
    else:
        plain = Run(workloads, workloads.Context(spans.NullTracer()))
        passes = max(1, int(args.seconds / (2 * NOMINAL_PASS_S)))
        result["per_op"], result["passes"] = run_passes(plain, ops, passes, deadline, exact)
        ctx = workloads.Context(spans.Tracer())
        run = Run(workloads, ctx)
        result["traced_per_op"], result["traced_passes"] = run_passes(
            run, ops, result["passes"], deadline, None)
        result["traced_timings"] = run.attempted
        run.attempted += plain.attempted
        run.failed += plain.failed
        for layer, n in plain.layer_failed.items():
            run.layer_failed[layer] += n
        run.errors = plain.errors + run.errors
        run.by_kind = plain.by_kind
        result["ctx"] = ctx
    result["run"] = run
    result["wall_s"] = time.perf_counter() - start
    result["exact"] = exact.hexdigest()
    return result


def _fastest(per_op) -> list[float]:
    return [min(timings) for timings in per_op]


def end_to_end(result) -> tuple[dict, dict]:
    per_op = result["per_op"]
    best = _fastest(per_op)
    tail_s, tail_pct, beyond = tail(best)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(best), "ms"),
        "op_tail_ms": (1000.0 * tail_s, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    timings = {"operations": len(best), "inputs": len(set(map(id, per_op))),
               "passes": result["passes"], "timings": result["run"].attempted,
               "fewest_timings_per_input": min(map(len, per_op))}
    samples = {
        "ops_per_s": timings,
        "op_p50_ms": timings,
        "op_tail_ms": dict(timings, percentile=tail_pct, operations_beyond=beyond),
        "peak_rss_mb": 1,
    }
    return metrics, samples


def per_layer(result, workloads) -> tuple[dict, dict]:
    ctx, run, tracer = result["ctx"], result["run"], result["ctx"].tracer
    self_s = tracer.self_times()
    counts = ctx.counts
    plain = sum(_fastest(result["per_op"]))
    traced = sum(_fastest(result["traced_per_op"]))
    op_total = sum(end - start for name, start, end, _, _ in tracer.spans if name == "op")
    metrics = {}
    for span in workloads.SPANS:
        metrics[span + "_s"] = (self_s.get(span, 0.0), "s")
        metrics[span + "_calls"] = (counts[span + "_calls"], "count")
    metrics["quivers.word_len"] = (counts["quivers.word_len"], "count")
    metrics["seeds.terms_out"] = (counts["seeds.terms_out"], "count")
    metrics["theta.terms_out"] = (counts["theta.terms_out"], "count")
    metrics["laurent.mul_pairs"] = (counts["laurent.mul_pairs"], "count")
    metrics["rep.candidates"] = (counts["rep.candidates"], "count")
    metrics["rep.hit_ratio"] = (counts["rep.hits"] / counts["rep.candidates"]
                                if counts["rep.candidates"] else 0.0, "ratio")
    metrics["frieze.entries"] = (counts["frieze.entries"], "count")
    metrics["frieze.max_bits"] = (counts["frieze.max_bits"], "bits")
    for layer in workloads.LAYERS:
        metrics[layer + ".failed"] = (run.layer_failed[layer], "count")
    metrics["bench.check_s"] = (self_s.get("bench.check", 0.0), "s")
    metrics["bench.glue_s"] = (self_s.get("op", 0.0), "s")
    metrics["bench.error_rate"] = (run.failed / run.attempted, "ratio")
    metrics["trace.overhead"] = (traced / plain - 1.0, "ratio")
    metrics["trace.coverage"] = (1.0 - self_s.get("op", 0.0) / op_total if op_total else 0.0,
                                 "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    samples = {name: result["traced_timings"] for name in metrics}
    samples["trace.overhead"] = {"passes": result["passes"],
                                 "traced_passes": result["traced_passes"]}
    return metrics, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        inputs, spans, workloads, ops = setup(args)
    except ImportError as exc:
        print("perfbench: cannot import friezelab from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = measure(args, spans, workloads, ops)
    run = result["run"]
    input_digest = inputs.digest(ops)
    if args.seed == DEFAULT_SEED:
        want = json.loads((BENCH_DIR / "expected.json").read_text()).get(args.workload, {})
        for key, got in (("inputs", input_digest), ("outputs", result["exact"])):
            if want.get(key) != got:
                run.failed += 1
                run.errors.append("%s digest %s differs from expected.json %s"
                                  % (key, got, want.get(key)))
    if args.trace:
        metrics, samples = per_layer(result, workloads)
    else:
        metrics, samples = end_to_end(result)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "setup_s": setup_s,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        **source_identity(),
        "input_digest": input_digest, "output_digest": result["exact"],
        "operations": len(ops), "passes": result["passes"], "wall_s": result["wall_s"],
        "attempted": run.attempted, "failed": run.failed,
        "error_rate": run.failed / run.attempted,
        "errors": run.errors,
        "load": "closed loop, 1 process, 1 thread",
        "wait_s": "not reported: no layer queues work in a single-threaded closed loop",
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "samples": samples,
        "kinds": {kind: {"timings": len(lat), "median_ms": 1000.0 * statistics.median(lat),
                         "fastest_ms": 1000.0 * min(lat)}
                  for kind, lat in sorted(result["run"].by_kind.items())},
    }
    if args.trace:
        out_dir = BENCH_DIR / "results"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        result["ctx"].tracer.write(spans_path)
        report["spans_file"] = spans_path.relative_to(ROOT).as_posix()
    print(json.dumps(report))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
