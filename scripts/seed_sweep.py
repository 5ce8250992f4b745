"""Sort the canned scenario over many seeds and score each run.

For each seed this runs ``peelsort simulate --seed N`` and then
``peelsort sort`` (through ``peelsort.cli.main``, in a temporary
directory), scores ``spikes.csv`` against ``truth.csv`` with
``peelsort.synth.score_sorting`` and prints one JSON line:

    {"seed", "exit", "recovery", "label_accuracy", "false_positive_frac",
     "model_counts"}

where label accuracy is 1 - misassignment, ``false_positive_frac`` is
the share of reported spikes matched to no true spike, and
``model_counts`` are the counts of ``report_model.json`` (null where the
sort failed before writing them).  A last line gives the number of bad
seeds: exit code not 0, label accuracy below 0.97 (a sort that reports
no spike has label accuracy 1.0, so read recovery too), or a
false-positive fraction above 0.05.
The commands' own output goes to stderr, so stdout is JSON lines only.

    PYTHONPATH=src python3 scripts/seed_sweep.py --seeds 0-39
    PYTHONPATH=src python3 scripts/seed_sweep.py --seeds 0-39 -- --cluster-restarts 50

Everything after ``--`` is passed to ``sort`` unchanged.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
from pathlib import Path

from peelsort.cli import main
from peelsort.ingest import read_csv
from peelsort.peel import SPIKES_HEADER
from peelsort.synth import load_truth_csv, score_sorting

MIN_LABEL_ACCURACY = 0.97
MAX_FALSE_POSITIVE_FRAC = 0.05


def parse_seeds(text: str) -> list[int]:
    """``"0-39"``, ``"3,7,42"`` or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_seed(seed: int, sort_flags: list[str]) -> dict:
    with tempfile.TemporaryDirectory(prefix="peelsort-sweep-") as tmp:
        sim, out = Path(tmp) / "sim", Path(tmp) / "sorted"
        with contextlib.redirect_stdout(sys.stderr):
            rc = main(["simulate", "--out", str(sim), "--seed", str(seed)])
            if rc == 0:
                files = ",".join(str(p) for p in sorted(sim.glob("channel_*.f64.gz")))
                rc = main(["sort", "--run-output-dir", str(out), "--data-files", files,
                           *sort_flags])
        row = {"seed": seed, "exit": rc, "recovery": None, "label_accuracy": None,
               "false_positive_frac": None, "model_counts": None}
        report = out / "report_model.json"
        if report.exists():
            row["model_counts"] = json.loads(report.read_text())["counts"]
        if rc == 0:
            spikes = read_csv(out / "spikes.csv", SPIKES_HEADER)
            neuron, time = map(SPIKES_HEADER.index, ("neuron", "corrected_time_samples"))
            score = score_sorting(((int(cells[neuron]), float(cells[time])) for cells in spikes),
                                  load_truth_csv(sim / "truth.csv"))
            row["recovery"] = score["recovery"]
            row["label_accuracy"] = 1.0 - score["misassignment"]
            row["false_positive_frac"] = score["false_positive_frac"]
    return row


def main_sweep(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-39", help="seeds, e.g. 0-39 or 3,7,42")
    parser.add_argument("sort_flags", nargs="*", help="extra flags for sort, after --")
    args = parser.parse_args(argv)
    seeds, bad = parse_seeds(args.seeds), []
    for seed in seeds:
        row = run_seed(seed, args.sort_flags)
        print(json.dumps(row), flush=True)
        if (row["exit"] != 0 or row["label_accuracy"] < MIN_LABEL_ACCURACY
                or row["false_positive_frac"] > MAX_FALSE_POSITIVE_FRAC):
            bad.append(seed)
    print(json.dumps({"seeds": len(seeds), "bad": len(bad),
                      "bad_seeds": bad, "sort_flags": args.sort_flags}))
    return 0


if __name__ == "__main__":
    sys.exit(main_sweep())
