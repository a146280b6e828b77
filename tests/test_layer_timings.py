import importlib.util
import json
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("layer_timings", ROOT / "tools" / "layer_timings.py")
layer_timings = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layer_timings)


def test_the_two_cheapest_rows_run_once(capsys):
    assert layer_timings.main(["-r", "1", "table-d4-golden", "check-relations-e6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["python"] and out["cpu_count"] >= 1 and out["maxrss_mb"] > 0
    assert list(out["rows"]) == ["table-d4-golden", "check-relations-e6"]
    for row in out["rows"].values():
        assert row["runs"] == 1 and 0 < row["best_s"] == row["median_s"] < row["cap_s"]


def test_a_row_that_raises_or_passes_its_cap_records_the_error_name(monkeypatch):
    def fails(root):
        return lambda: {}["missing"]

    monkeypatch.setitem(layer_timings.ROWS, "fails", (10, fails))
    monkeypatch.setitem(layer_timings.ROWS, "sleeps", (0.05, lambda root: lambda: time.sleep(2)))
    assert layer_timings.time_row("fails", ROOT, 3)["error"] == "KeyError"
    slow = layer_timings.time_row("sleeps", ROOT, 3)
    assert slow["error"] == "TimeoutError" and slow["after_s"] < 1


def test_the_frieze_rows_run_once(capsys):
    assert layer_timings.main(["-r", "1", "frieze-tube", "frieze-8-2", "frieze-e8-deep"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert list(rows) == ["frieze-tube", "frieze-8-2", "frieze-e8-deep"]
    for row in rows.values():
        assert row["runs"] == 1 and 0 < row["best_s"] < row["cap_s"]


def test_the_tube_reads_row_runs_once(capsys):
    assert layer_timings.main(["-r", "1", "tube-reads-p3"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"]["tube-reads-p3"]
    assert row["runs"] == 1 and 0 < row["best_s"] < row["cap_s"]
