"""
Reducing events to a few components and clustering them
=======================================================

Clean events are long vectors (channels x window samples); most of that
is noise.  A principal-component basis fit on the events concentrates
the shape differences into a few coordinates, and three clustering
routines then carve the cloud into putative cells.
"""

import numpy as np

from peelsort.cluster import bagged_cluster, gmm_em, kmeans, order_clusters
from peelsort.detect import DetectionParams, detect
from peelsort.events import (CutSpec, flag_superpositions, make_cuts,
                             non_superposed, optimal_cut_bounds)
from peelsort.ingest import Recording
from peelsort.preprocess import normalize
from peelsort.reduce import fit_pca, project
from peelsort.synth import locust_like_scenario

truth = locust_like_scenario(seed=42)
raw = truth.recording

# Model building uses the first half of the recording; the second half
# stays untouched for classification, mimicking a real workflow where
# the model must generalize forward in time.
half = normalize(Recording(data=raw.data[:, :raw.samples // 2],
                           rate_hz=raw.rate_hz, stage=raw.stage))
peaks = detect(half, DetectionParams())
wide = make_cuts(half, peaks, CutSpec(before=80, after=80))
spec = optimal_cut_bounds(wide, noise_level=1.0)
sample = flag_superpositions(make_cuts(half, peaks, spec), side_threshold=4.0)
clean, _ = non_superposed(sample)
print(f"{len(clean)} clean events, {clean.spec.width} samples x "
      f"{clean.channels} channels = {clean.spec.width * clean.channels} dims")

model = fit_pca(clean)
for k in (1, 2, 4, 8):
    print(f"  first {k} components explain {model.explained_fraction(k):.1%}")

coords = project(clean, model, 4)  # one row per clean event

# Three routes to K=10 labels. k-means is the workhorse; the Gaussian
# mixture softens the boundaries; bagged clustering pools bootstrap
# k-means runs and is the most stable on small samples.
km = order_clusters(kmeans(coords, 10, seed=0, restarts=10), clean)
_, gm = gmm_em(coords, 10, seed=0, restarts=10)
gm = order_clusters(gm, clean)
bg = order_clusters(bagged_cluster(coords, 10, B=10, seed=0), clean)

for name, result in (("k-means", km), ("gmm", gm), ("bagged", bg)):
    sizes = [int(c) for c in result.counts()]
    print(f"{name:8s} K={result.K} sizes={sizes}")

# Clusters are ordered by the size of their median waveform, so label 0
# is always the biggest cell; that makes runs comparable.
medians = []
for j in range(km.K):
    members = clean.cuts[km.labels == j]
    medians.append(float(np.abs(np.median(members, axis=0)).sum()))
print("median-waveform size by k-means label:",
      [f"{m:.0f}" for m in medians])
