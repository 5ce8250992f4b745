"""The benchmark-record script on small synthetic perfbench result files."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MACHINE = {"nproc": 2, "cpu_model": "test cpu", "python": "3", "numpy": "2"}


def result_file(path, model_s, peak_rss_mb, recovery, failed=0):
    """A perfbench result record of one untraced dense-60s run."""
    run = {"workload": "dense-60s", "seed": 1, "seconds": 30, "trace": 0,
           "machine": MACHINE,
           "end_to_end": {"model_s": model_s, "peak_rss_mb": peak_rss_mb,
                          "recovery": recovery},
           "per_layer": {},
           "reps": [{"problems": ["bad"] if i < failed else []} for i in range(3)]}
    path.write_text(json.dumps(run))
    return path


def test_bench_record_summarizes_both_sides(tmp_path):
    parent = [result_file(tmp_path / "p1.json", 1.2, 128.0, 0.95),
              result_file(tmp_path / "p2.json", 1.4, 130.0, 0.95, failed=1)]
    change = [result_file(tmp_path / "c1.json", 0.7, 129.0, 0.95),
              result_file(tmp_path / "c2.json", 1.5, 128.0, 0.95)]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_record.py"),
                           "--label", "test", "--out-dir", str(tmp_path),
                           "--parent", *map(str, parent), "--change", *map(str, change)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "BENCH_test.json").read_text())
    assert record["label"] == "test"
    assert record["machines"] == [MACHINE]
    group = record["groups"]["dense-60s-seed1-trace0"]
    assert (group["parent_runs"], group["change_runs"]) == (2, 2)
    assert (group["parent_failed_sorts"], group["change_failed_sorts"]) == (1, 0)
    model = group["metrics"]["model_s"]
    assert model["better"] == "lower"
    assert model["parent"]["values"] == [1.2, 1.4]
    assert model["parent"]["median"] == pytest.approx(1.3)
    assert model["parent"]["q1"] == pytest.approx(1.25)
    assert model["parent"]["q3"] == pytest.approx(1.35)
    assert model["change"]["median"] == pytest.approx(1.1)
    assert model["change_over_parent"] == pytest.approx(1.1 / 1.3)
    # the change won the first pair and lost the second
    assert (model["change_better_pairs"], model["pairs"]) == (1, 2)
    rss = group["metrics"]["peak_rss_mb"]
    assert rss["change_better_pairs"] == 1
    recovery = group["metrics"]["recovery"]
    assert recovery["better"] == "higher"
    assert recovery["change_better_pairs"] == 0  # equal is not better


def test_bench_record_refuses_unmatched_sides(tmp_path):
    parent = result_file(tmp_path / "p.json", 1.0, 128.0, 0.95)
    other = json.loads(parent.read_text())
    other["workload"] = "locust-300s"
    change = tmp_path / "c.json"
    change.write_text(json.dumps(other))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_record.py"),
                           "--label", "test", "--out-dir", str(tmp_path),
                           "--parent", str(parent), "--change", str(change)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert not (tmp_path / "BENCH_test.json").exists()
