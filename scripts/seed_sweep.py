"""Sort the canned scenario over many seeds and score each run.

For each seed this simulates the scenario in memory, as ``peelsort
simulate --seed N`` does, normalizes it as ``peelsort sort`` normalizes
its files and sorts it with the functions ``sort`` calls,
``peelsort.cli.model`` and ``peelsort.cli.classify``, writing no file.
It scores the spike train with ``peelsort.synth.score_sorting`` and
prints one JSON line:

    {"seed", "exit", "recovery", "label_accuracy", "false_positive_frac",
     "model_counts"}

where ``exit`` is ``sort``'s exit code, label accuracy is 1 -
misassignment, ``false_positive_frac`` is the share of reported spikes
matched to no true spike, and ``model_counts`` are the counts of
``report_model.json`` (null where the model failed).  A last line gives
the number of bad seeds: exit code not 0, label accuracy below 0.97 (a
sort that reports no spike has label accuracy 1.0, so read recovery
too), or a false-positive fraction above 0.05.  Error messages go to
stderr, so stdout is JSON lines only.

    PYTHONPATH=src python3 scripts/seed_sweep.py --seeds 0-39
    PYTHONPATH=src python3 scripts/seed_sweep.py --seeds 0-39 -- --cluster-restarts 50

Everything after ``--`` is parsed as ``sort``'s flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from peelsort.cli import (FAILURES, _fail, _normalization, _resolve_config, build_parser,
                          classify, model)
from peelsort.preprocess import highpass, normalize
from peelsort.synth import locust_like_scenario, score_sorting

MIN_LABEL_ACCURACY = 0.97
MAX_FALSE_POSITIVE_FRAC = 0.05


def parse_seeds(text: str) -> list[int]:
    """``"0-39"``, ``"3,7,42"`` or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_seed(seed: int, sort_args: argparse.Namespace) -> dict:
    row = {"seed": seed, "exit": 0, "recovery": None, "label_accuracy": None,
           "false_positive_frac": None, "model_counts": None}
    try:
        cfg = _resolve_config(sort_args)
        truth = locust_like_scenario(seed, cfg.get("synth.duration_s"), cfg.get("data.rate_hz"))
        window, spec = _normalization(cfg)
        raw = truth.recording
        rec = normalize(raw if spec is None else highpass(raw, spec), window(raw.samples))
        catalogue, found, counts, _ = model(rec, cfg)
        # the report's JSON has its keys sorted
        row["model_counts"] = dict(sorted(counts.items()))
        train = classify(rec, catalogue, cfg, found["first_pass"])[0]
    except tuple(FAILURES) as exc:
        row["exit"] = _fail(exc)
        return row
    score = score_sorting(zip(train.neuron, train.corrected_time), truth.spikes)
    row.update(recovery=score["recovery"], label_accuracy=1.0 - score["misassignment"],
               false_positive_frac=score["false_positive_frac"])
    return row


def main_sweep(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-39", help="seeds, e.g. 0-39 or 3,7,42")
    parser.add_argument("sort_flags", nargs="*", help="extra flags for sort, after --")
    args = parser.parse_args(argv)
    sort_args = build_parser().parse_args(["sort", *args.sort_flags])
    seeds, bad = parse_seeds(args.seeds), []
    for seed in seeds:
        row = run_seed(seed, sort_args)
        print(json.dumps(row), flush=True)
        if (row["exit"] != 0 or row["label_accuracy"] < MIN_LABEL_ACCURACY
                or row["false_positive_frac"] > MAX_FALSE_POSITIVE_FRAC):
            bad.append(seed)
    print(json.dumps({"seeds": len(seeds), "bad": len(bad),
                      "bad_seeds": bad, "sort_flags": args.sort_flags}))
    return 0


if __name__ == "__main__":
    sys.exit(main_sweep())
