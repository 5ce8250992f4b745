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
from scipy.optimize import linear_sum_assignment

from peelsort.cli import main
from peelsort.synth import load_truth_csv, match_to_truth

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
    # map labels to cells first (best assignment over time-matched pairs).
    truth = load_truth_csv(sim / "truth.csv")
    reported = []
    for line in (out / "spikes.csv").read_text().splitlines()[1:]:
        cells = line.split(",")
        reported.append((int(cells[1]), float(cells[4])))

    truth_times = np.array([t for _, t in truth])
    truth_ids = np.array([i for i, _ in truth])
    confusion = np.zeros((10, 10), dtype=int)
    taken = np.zeros(truth_times.size, dtype=bool)
    for label, t in reported:
        dist = np.abs(truth_times - t)
        dist[taken] = np.inf
        j = int(np.argmin(dist))
        if dist[j] <= 1.0:
            taken[j] = True
            confusion[label, truth_ids[j]] += 1
    rows, cols = linear_sum_assignment(-confusion)
    mapping = {int(r): int(c) for r, c in zip(rows, cols)}
    print(f"\nlabel -> cell mapping: {mapping}")

    remapped = [(mapping[label], t) for label, t in reported]
    score = match_to_truth(remapped, truth, tolerance=1.0)
    print(f"against ground truth (1-sample window): {score['matched']} "
          f"matched, {score['misassigned']} misassigned, "
          f"{score['missed_truth']} missed of {len(truth)} true spikes")
