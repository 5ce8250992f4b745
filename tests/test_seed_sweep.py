"""Smoke test: the seed-sweep script sorts and scores one seed."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_seed_sweep_scores_seed_42(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "seed_sweep.py"),
                           "--seeds", "42"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    row, _ = [json.loads(line) for line in proc.stdout.splitlines()]
    assert row["seed"] == 42 and row["exit"] == 0
    assert row["recovery"] >= 0.90
    assert 0.0 <= row["false_positive_frac"] <= 0.05
