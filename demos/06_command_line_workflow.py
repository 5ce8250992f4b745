"""
The full workflow from the command line
=======================================

Everything the library does is also reachable through the `peelsort`
executable.  This script drives a complete run in a scratch directory:
simulate a recording, build the model on its first half, classify the
whole thing, and read the run reports back.  The directory is removed
at the end.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from peelsort.cli import main
from peelsort.synth import load_truth_csv, score_sorting

# the scratch directory and everything in it are removed when the block ends
with tempfile.TemporaryDirectory(prefix="peelsort-demo-") as tmp:
    workdir = Path(tmp)
    sim = workdir / "sim"
    out = workdir / "sorted"

    # peelsort simulate --out sim --seed 42
    assert main(["simulate", "--out", str(sim), "--seed", "42"]) == 0
    files = ",".join(str(sim / f"channel_{i}.f64.gz") for i in range(4))

    # peelsort sort --run-output-dir sorted --data-files ...
    # (equivalent to `model` followed by `classify`)
    assert main(["sort", "--run-output-dir", str(out),
                 "--data-files", files]) == 0

    model_report = json.loads((out / "report_model.json").read_text())
    classify_report = json.loads((out / "report_classify.json").read_text())

    print("\nmodel stage:")
    counts = model_report["counts"]
    print(f"  {counts['detected']} peaks in the estimation window, "
          f"{counts['clean']} clean events, cluster sizes "
          f"{counts['cluster_sizes']}")

    print("classify stage:")
    counts = classify_report["counts"]
    print(f"  {counts['examined']} events examined, {counts['accepted']} "
          f"accepted over {counts['rounds']} rounds, "
          f"{counts['unclassified']} left unclassified")
    print(f"  acceptances per round: {counts['accepted_per_round']}")

    # The simulation wrote ground truth, so the run can be scored.  Cluster
    # labels are ordered by waveform size, not by the generator's ids, so
    # score_sorting maps them to cells (best assignment over matched pairs).
    truth = load_truth_csv(sim / "truth.csv")
    spikes = np.genfromtxt(out / "spikes.csv", delimiter=",", names=True)
    score = score_sorting(zip(spikes["neuron"].astype(int),
                              spikes["corrected_time_samples"]), truth)
    print(f"\nlabel -> cell mapping: {score['mapping']}")
    print(f"against ground truth (1-sample window): recovery {score['recovery']:.1%}, "
          f"misassignment {score['misassignment']:.1%}, false positives "
          f"{score['false_positive_frac']:.1%}, median timing error "
          f"{score['timing_err_p50']:.3f} samples")
