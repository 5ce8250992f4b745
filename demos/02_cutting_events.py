"""
Cutting events and choosing the window length
=============================================

Each detected peak becomes an event: a fixed window of samples around the
peak on every channel.  The window length is not guessed; it is read off
the data.  Where events carry signal, their point-wise MAD rises above
the noise floor of 1, and the cut keeps exactly that stretch.
"""

import numpy as np

from peelsort.detect import DetectionParams, detect
from peelsort.events import (CutSpec, flag_superpositions, make_cuts,
                             non_superposed, optimal_cut_bounds,
                             pointwise_mad)
from peelsort.preprocess import normalize
from peelsort.synth import locust_like_scenario

truth = locust_like_scenario(seed=42)
normed = normalize(truth.recording)
peaks = detect(normed, DetectionParams())

# Start deliberately wide: 80 samples on either side of the peak.
wide = make_cuts(normed, peaks, CutSpec(before=80, after=80))
print(f"{len(wide)} wide cuts of {wide.spec.width} samples "
      f"({wide.n_dropped_edge} peaks too close to an edge)")

# Point-wise MAD across events, maximized over channels: flat at 1 where
# windows contain only noise, above 1 where the waveforms live.
profile = np.max(pointwise_mad(wide), axis=0)
center = wide.spec.before
print(f"MAD profile: {profile[center]:.2f} at the peak, "
      f"{profile[0]:.2f} at the left edge, {profile[-1]:.2f} at the right")

# Walk outward from the peak until the profile falls back to the noise
# floor; that stretch is the window worth keeping.
spec = optimal_cut_bounds(wide, noise_level=1.0)
print(f"chosen window: {spec.before} before + {spec.after} after "
      f"(width {spec.width} of the {wide.spec.width} examined)")

sample = make_cuts(normed, peaks, spec)

# Events with a second large peak away from the center are superimposed
# spikes; they would smear the clustering, so they are set aside and
# handled later by peeling.
sample = flag_superpositions(sample, side_threshold=4.0)
clean, keep = non_superposed(sample)
n_flagged = int(sample.superposed.sum())
print(f"{n_flagged} of {len(sample)} events flagged as superimposed; "
      f"{len(clean)} clean events go on to clustering")
