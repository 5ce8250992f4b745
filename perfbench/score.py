"""Score a sort against ground truth.

Reported spikes are taken in time order; each is matched to the nearest
still-untaken true spike within ``tolerance`` samples (ties go to the
earlier true spike).  Reported labels are then mapped to true neurons by
the Hungarian method on the confusion matrix of matched pairs, as in
SpikeInterface's ``comparison`` module (Buccino et al., eLife 2020).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment


def match(reported_times: np.ndarray, truth_times: np.ndarray,
          tolerance: float) -> np.ndarray:
    """Index of the true spike each reported spike matched, or -1.

    A scan over every untaken true spike; ties go to the lower index, the
    earlier spike when ``truth_times`` is sorted.
    """
    taken = np.zeros(truth_times.size, dtype=bool)
    out = np.full(reported_times.size, -1, dtype=np.int64)
    for r in np.argsort(reported_times, kind="stable"):
        gaps = np.abs(truth_times - reported_times[r])
        gaps[taken] = np.inf
        j = int(np.argmin(gaps))
        if gaps[j] <= tolerance:
            taken[j] = True
            out[r] = j
    return out


def score(reported_ids, reported_times, truth_ids, truth_times,
          tolerance: float = 1.0) -> dict:
    """Recovery, misassignment, false positives and timing error of a sort.

    - recovery: true spikes matched in time to a spike whose label maps
      to the right neuron, over all true spikes;
    - misassignment: time-matched spikes whose label maps elsewhere, over
      time-matched spikes;
    - false_positive_frac: reported spikes with no true spike within
      ``tolerance``, over reported spikes;
    - timing_err_p50 / p90: |reported - true| in samples over correctly
      labelled matches, which are also returned as ``errors``.
    """
    reported_ids = np.asarray(reported_ids, dtype=np.int64)
    reported_times = np.asarray(reported_times, dtype=np.float64)
    truth_ids = np.asarray(truth_ids, dtype=np.int64)
    truth_times = np.asarray(truth_times, dtype=np.float64)
    if np.any(np.diff(truth_times) < 0):
        raise ValueError("truth times must be sorted")
    hit = match(reported_times, truth_times, tolerance)
    matched = hit >= 0
    rep = reported_ids[matched]
    tru = truth_ids[hit[matched]]
    n_rep_labels = int(reported_ids.max()) + 1 if reported_ids.size else 0
    n_true_labels = int(truth_ids.max()) + 1 if truth_ids.size else 0
    conf = np.zeros((n_rep_labels, n_true_labels), dtype=np.int64)
    np.add.at(conf, (rep, tru), 1)
    rows, cols = linear_sum_assignment(-conf)
    mapping = np.full(n_rep_labels, -1, dtype=np.int64)
    mapping[rows] = cols
    right = mapping[rep] == tru
    errors = np.abs(reported_times[matched][right] - truth_times[hit[matched]][right])
    return rates(reported=int(reported_ids.size), true=int(truth_ids.size),
                 matched=int(matched.sum()), correct=int(right.sum()), errors=errors)


def rates(reported: int, true: int, matched: int, correct: int,
          errors: np.ndarray) -> dict:
    """The quality figures from match counts; sums over several recordings
    and their concatenated errors give the pooled figures."""
    return {
        "reported": reported, "true": true, "matched": matched, "correct": correct,
        "recovery": correct / true if true else 0.0,
        "misassignment": (matched - correct) / matched if matched else 0.0,
        "false_positive_frac": (reported - matched) / reported if reported else 0.0,
        "timing_err_p50": float(np.quantile(errors, 0.5)) if errors.size else float("nan"),
        "timing_err_p90": float(np.quantile(errors, 0.9)) if errors.size else float("nan"),
        "errors": errors,
    }


def read_spikes_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a ``spikes.csv`` written by ``peelsort classify``."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:] if ln]
    cols = {name: [r[i] for r in rows] for i, name in enumerate(header)}
    return {name: np.array(values, dtype=np.float64) for name, values in cols.items()}

