"""Summarize perfbench runs of a parent and a changed tree into one record.

perfbench (``perfbench/run.py``) writes one result file per run to
``.perfbench/results/<workload>-seed<S>-trace<T>.json`` and overwrites it
on the next run of the same kind, so copy each file away after its run.
Given the files of the parent side and of the change side, in the order
they ran (run i of one side pairs with run i of the other), this writes
``BENCH_<label>.json`` at the root of the repository:

    python3 scripts/bench_record.py --label pr17_model_stats \\
        --parent runs/parent/*.json --change runs/change/*.json

Runs are grouped by ``<workload>-seed<S>-trace<T>``.  For every group the
record holds the run count and failed sorts of each side and, for every
metric perfbench reported (the end-to-end metrics, including
``peak_rss_mb`` and the quality metrics, and the per-layer ones of traced
runs), each side's values, median and quartiles (numpy's default linear
interpolation), the ratio of the medians, and in how many pairs the change
was better, by the direction ``BENCHMARK.json`` gives the metric.  The
distinct machine facts of all runs head the record.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load_runs(paths: list[Path]) -> dict[str, list[dict]]:
    """Result records grouped by workload, seed and trace, in given order."""
    groups: dict[str, list[dict]] = {}
    for path in paths:
        run = json.loads(Path(path).read_text())
        key = f"{run['workload']}-seed{run['seed']}-trace{run['trace']}"
        groups.setdefault(key, []).append(run)
    return groups


def metric_values(run: dict) -> dict[str, float]:
    return {**run["end_to_end"], **run.get("per_layer", {})}


def spread(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"values": values, "median": float(med), "q1": float(q1), "q3": float(q3)}


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """One group's runs of both sides, metric by metric."""
    sides = {"parent": parent, "change": change}
    out = {f"{side}_runs": len(runs) for side, runs in sides.items()}
    out.update({f"{side}_failed_sorts": sum(bool(r["problems"]) for run in runs
                                            for r in run["reps"])
                for side, runs in sides.items()})
    metrics = {}
    for name in metric_values(parent[0]):
        a = [metric_values(run)[name] for run in parent]
        b = [metric_values(run)[name] for run in change]
        entry = {"better": better.get(name), "parent": spread(a), "change": spread(b)}
        if entry["parent"]["median"]:
            entry["change_over_parent"] = entry["change"]["median"] / entry["parent"]["median"]
        if entry["better"]:
            sign = 1.0 if entry["better"] == "lower" else -1.0
            entry["change_better_pairs"] = sum(sign * (y - x) < 0 for x, y in zip(a, b))
            entry["pairs"] = min(len(a), len(b))
        metrics[name] = entry
    out["metrics"] = metrics
    return out


def main_record(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--parent", nargs="+", type=Path, required=True,
                        help="result files of the parent tree, in run order")
    parser.add_argument("--change", nargs="+", type=Path, required=True,
                        help="result files of the changed tree, in run order")
    parser.add_argument("--out-dir", type=Path, default=ROOT,
                        help="where to write the record (default: the repository root)")
    args = parser.parse_args(argv)
    parent, change = load_runs(args.parent), load_runs(args.change)
    if parent.keys() != change.keys():
        print(f"the sides ran different groups: {sorted(parent)} and {sorted(change)}",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in contract["end_to_end"] + contract["per_layer"]}
    machines = []
    for run in (run for side in (parent, change) for runs in side.values() for run in runs):
        if run["machine"] not in machines:
            machines.append(run["machine"])
    record = {"label": args.label, "machines": machines,
              "groups": {key: summarize(parent[key], change[key], better)
                         for key in sorted(parent)}}
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main_record())
