"""
Simulating a recording and detecting spikes
===========================================

Generate a 20 s four-channel recording from ten known cells, bring it to
a common scale with median/MAD normalization, and run the box-filtered
threshold detector.  Ground truth lets us count how many real spikes the
detector sees before any sorting happens.
"""

import numpy as np

from peelsort.detect import DetectionParams, detect
from peelsort.preprocess import mad, normalize
from peelsort.synth import locust_like_scenario, score_sorting

truth = locust_like_scenario(seed=42)
raw = truth.recording
print(f"recording: {raw.channels} channels x {raw.samples} samples "
      f"at {raw.rate_hz:.0f} Hz, {len(truth.spikes)} true spikes")

# Robust scaling: medians to 0, MAD to 1, so one threshold works on every
# channel no matter the electrode gain.
normed = normalize(raw)
for c in range(normed.channels):
    row = normed.data[c]
    print(f"  channel {c}: median {np.median(row):+.2e}, MAD {mad(row):.6f}")

# The detector box-filters each channel (width 5), renormalizes the
# filtered trace, keeps rectified excursions above 4 MAD, sums them
# across channels, and thins local maxima to one peak per 15 samples.
params = DetectionParams()
peaks = detect(normed, params)
print(f"detected {len(peaks)} peaks "
      f"(threshold {params.threshold} MAD, box width {params.box_width})")

# Score against ground truth: a detection is a hit if an untaken true spike
# lies within 3 samples.  Misses here are mostly small-amplitude cells and
# overlapping pairs merged by the minimum-separation rule.
score = score_sorting([(0, p) for p in peaks], truth.spikes, tolerance=3.0)
print(f"{score['matched']} of {len(peaks)} peaks sit within 3 samples of a true spike")
print(f"{score['true'] - score['matched']} true spikes not matched at this stage")
