"""The layered timing record: its quick mode runs and writes a file that
parses, and a second run appends to it."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_layers.py"
LAYERS = ["scan", "threshold_greedy", "saturate_robust", "bench_cell", "bench_full"]


def test_quick_mode_appends_a_record_that_parses(tmp_path):
    out = tmp_path / "BENCH.json"
    for label in ("first", "second"):
        command = [sys.executable, str(SCRIPT), "--quick", "--out", str(out), "--label", label]
        subprocess.run(command, check=True, capture_output=True)
    records = json.loads(out.read_text(encoding="utf-8"))["records"]
    assert [r["label"] for r in records] == ["first", "second"]
    for record in records:
        assert record["quick"] is True
        assert record["kernel_ms"] > 0
        assert {"commit", "python", "numpy", "cpu"} <= set(record["environment"])
        assert [row["layer"] for row in record["layers"]] == LAYERS
        for row in record["layers"]:
            assert row["wall_ms"] > 0 and row["repeats"] >= 1 and row["seeds"]
        assert record["layers"][0]["evaluations"] == 1.0
    # The same seeds charge the same evaluations on every run.
    assert [row["evaluations"] for row in records[0]["layers"]] == [row["evaluations"] for row in records[1]["layers"]]
