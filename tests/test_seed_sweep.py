"""Smoke test: the seed-sweep script sorts and scores one seed."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sweep(tmp_path, *args):
    """The JSON lines of the sweep run on ``args``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "seed_sweep.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_seed_sweep_scores_seed_42(tmp_path):
    row, _ = _sweep(tmp_path, "--seeds", "42")
    assert row["seed"] == 42 and row["exit"] == 0
    assert row["recovery"] >= 0.90
    assert 0.0 <= row["false_positive_frac"] <= 0.05


def test_seed_sweep_simulates_at_the_duration_and_rate_given(tmp_path):
    # 24 s at 12 kHz is 288000 samples, half of them the estimation window
    row, _ = _sweep(tmp_path, "--seeds", "42", "--", "--synth-duration-s", "24",
                    "--data-rate-hz", "12000")
    assert row["model_counts"]["window_samples"] == 144000
