import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)


def _report(directory, seed, sha, ops, tail, failed=0):
    report = {"workload": "tube", "seed": seed, "trace": 0, "seconds": 36.0,
              "commit": "c" + sha, "source_sha256": sha, "python": "3.11.7", "nproc": 2,
              "attempted": 72, "failed": failed,
              "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                          "op_tail_ms": {"value": tail, "unit": "ms"}}}
    directory.mkdir(exist_ok=True)
    (directory / ("tube-seed%d-trace0.json" % seed)).write_text(json.dumps(report))


def test_pairs_medians_and_gain_rule(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (ops, tail) in enumerate([(10, 100), (12, 110), (14, 90), (11, 120)], 1):
        _report(parent, seed, "aaaa", ops, tail)
        _report(change, seed, "bbbb", 4 * ops, tail + (-50 if seed > 1 else 5), failed=seed == 4)
    _report(change, 9, "bbbb", 1, 1)  # no parent run of seed 9: not a pair
    out = tmp_path / "BENCH.json"
    assert bench_summary.main([str(parent), str(change), "--parent", "aaa", "--change", "cbbbb",
                               "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    tube = summary["workloads"]["tube-trace0"]
    assert tube["seeds"] == [1, 2, 3, 4] and tube["pairs"] == 4
    assert tube["failed"] == {"parent": 0, "change": 1}
    ops = tube["metrics"]["ops_per_s"]
    assert ops["better"] == "higher" and ops["parent"]["median"] == 11.5
    assert ops["change"]["median"] == 46 and ops["ratio"] == 4
    assert ops["change_wins"] == 4 and ops["gain_rule_met"]
    tail = tube["metrics"]["op_tail_ms"]
    assert tail["better"] == "lower" and tail["change_wins"] == 3 and not tail["gain_rule_met"]
    assert tail["per_pair"] == [[100, 105], [110, 60], [90, 40], [120, 70]]
    assert summary["parent"]["source_sha256"] == "aaaa"


def test_prefix_must_select_one_source_tree(tmp_path):
    _report(tmp_path, 1, "aaaa", 1, 1)
    _report(tmp_path / "other", 1, "aabb", 1, 1)
    with pytest.raises(SystemExit, match="2 source trees"):
        bench_summary.main([str(tmp_path), str(tmp_path / "other"),
                            "--parent", "aa", "--change", "aabb"])


@pytest.mark.parametrize("parent, change", [(-0.011, -0.067), (0.5, -0.2), (0.0, 0.3)])
def test_ratio_needs_positive_medians(parent, change):
    # a negative trace overhead once read -0.011 -> -0.067 as a ratio of 5.88
    pairs = [({"metrics": {"trace.overhead": {"value": parent, "unit": "ratio"}}},
              {"metrics": {"trace.overhead": {"value": change, "unit": "ratio"}}})]
    assert bench_summary.compare(pairs, "trace.overhead", "lower")["ratio"] is None
