"""Self-check of the benchmark's scorer.

    python3 perfbench/check_scorer.py

Checks the matching and label mapping on small constructed cases, then
sorts the ten-neuron scorecard recording (20 s, seed 42) through the CLI
with default settings and requires the ACCEPTANCE 06 figures: 346 spikes
reported for 345 true, recovery 343/345 (99.4%), misassignment 0.  Exits 1
on any mismatch.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from peelsort.synth import load_truth_csv  # noqa: E402

from score import read_spikes_csv, score  # noqa: E402
from workloads import Workload, prepare_recording  # noqa: E402

# the canned scenario at its own rates, sorted with default settings
SCORECARD = Workload("scorecard-20s", 20.0, 1.0, True, 1)


def check(cond, what, failures):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def main() -> int:
    failures = []
    t_ids, t_times = [0, 0, 1, 1, 2], [10.0, 50.0, 20.0, 60.0, 30.0]
    order = np.argsort(t_times)
    t_ids, t_times = np.array(t_ids)[order], np.array(t_times)[order]
    s = score([7, 7, 3, 3, 5], [10.2, 50.9, 19.5, 60.0, 30.4], t_ids, t_times)
    check(s["recovery"] == 1.0 and s["misassignment"] == 0.0,
          "renamed labels map back: recovery 1, misassignment 0", failures)
    s = score([0, 0, 1, 1, 2, 2], [10.0, 51.5, 20.0, 60.0, 30.0, 30.5], t_ids, t_times)
    check(s["matched"] == 4 and s["false_positive_frac"] == 2 / 6
          and s["recovery"] == 4 / 5,
          "1.5-sample miss and a double report are false positives", failures)
    s = score([0, 0, 1, 0, 2], [10.0, 50.0, 20.0, 60.0, 30.0], t_ids, t_times)
    check(s["misassignment"] == 1 / 5 and s["recovery"] == 4 / 5,
          "one wrong label is one misassignment", failures)

    inputs = prepare_recording(SCORECARD, 42, ROOT / ".perfbench" / "inputs" / "scorecard-seed42")
    out = ROOT / ".perfbench" / "check_scorer"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "peelsort.cli", "sort", "--data-files",
         ",".join(map(str, inputs.channel_files)), "--run-output-dir", str(out)],
        env=env, capture_output=True, text=True)
    check(proc.returncode == 0, "scorecard sort exits 0", failures)
    if proc.returncode == 0:
        spikes = read_spikes_csv(out / "spikes.csv")
        truth = load_truth_csv(inputs.truth_csv)
        s = score(spikes["neuron"], spikes["corrected_time_samples"],
                  [n for n, _ in truth], [t for _, t in truth])
        print("     scorecard: " + ", ".join(f"{k}={v:.4g}" for k, v in s.items()
                                               if k != "errors"))
        check(s["reported"] == 346 and s["true"] == 345, "346 reported for 345 true", failures)
        check(s["correct"] == 343 and round(s["recovery"], 4) == 0.9942,
              "recovery 0.9942 (343 of 345)", failures)
        check(s["misassignment"] == 0.0, "misassignment 0.0000", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
