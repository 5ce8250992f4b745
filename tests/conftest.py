"""Shared fixtures and independent reference computations.

The reference helpers here deliberately avoid the code paths they check:
the shift reference below interpolates with numpy's sinc directly, the
principal-component reference solves the 2x2 characteristic polynomial by
hand, and the thinning check verifies the selection property rather than
re-running the selection.  The loop references (thinning, jitter fit,
classification, detection, peeling) keep the one-item-at-a-time or
whole-trace form that the package's array or span code replaced, so that
code is held to them exactly.
"""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from peelsort.cluster import KMEANS_MAX_ITER, kmeans, order_clusters
from peelsort.detect import DetectionParams, detect
from peelsort.errors import ParameterError
from peelsort.events import (CutSpec, EventSample, flag_superpositions,
                             make_cuts, non_superposed, optimal_cut_bounds)
from peelsort.ingest import Recording, STAGE_NORMALIZED
from peelsort.jitter import build_templates
from peelsort.peel import (Catalogue, Decision, DecisionTable, classify_event,
                           classify_events, peel)
from peelsort.preprocess import MAD_SCALE, normalize
from peelsort.reduce import fit_pca, project
from peelsort.synth import locust_like_scenario


# --- reference computations (independent of the implementation under test) ---

def windowed_sinc_kernels(n, deltas, half_width=32):
    """Stack of (n, n) interpolation matrices, one per shift in `deltas`.

    Entry [i, j, m] is the weight of sample m in the value at j + deltas[i]:
    sinc(u) under a Hann window of half-width `half_width`, with
    u = (j + deltas[i]) - m and zero weight where |u| > half_width.
    """
    j = np.arange(n)
    t = j[None, :, None] + np.asarray(deltas, dtype=float)[:, None, None]
    u = t - j[None, None, :]
    w = 0.5 * (1.0 + np.cos(np.pi * u / half_width))
    w[np.abs(u) > half_width] = 0.0
    return np.sinc(u) * w


def bandlimited_shift(row, delta, half_width=32):
    """Evaluate the band-limited interpolation of `row` at grid + delta.

    The windowed-sinc sum of every output sample at once, as one product
    with the (n, n) matrix of windowed_sinc_kernels; a 2-D block shifts
    each of its rows. Written against numpy.sinc only so it shares no code
    with the package's placement or estimation routines.
    """
    row = np.asarray(row, dtype=float)
    return row @ windowed_sinc_kernels(row.shape[-1], [delta], half_width)[0].T


shift_rows = bandlimited_shift


def grid_delta_reference(g, f, half=0.75, step=1e-3):
    """Brute-force offset estimate: scan a dense grid of band-limited
    shifts of f and return the shift minimizing the squared residual.

    All shifts come from one (grid, n, n) stack of windowed_sinc_kernels,
    the squared residuals of the whole grid are summed in one pass, and
    ties go to the first grid point.
    """
    f = np.asarray(f, dtype=float)
    grid = np.arange(-half, half + step / 2, step)
    kernels = windowed_sinc_kernels(f.shape[-1], grid)
    shifted = f @ kernels.transpose(0, 2, 1)
    rss = np.sum((g - shifted) ** 2, axis=(1, 2))
    return grid[int(np.argmin(rss))]


def principal_axis_2x2(xy):
    """Dominant eigenvector of the 2x2 sample covariance, solved by hand
    from the characteristic polynomial (divisor n-1, largest root)."""
    xy = np.asarray(xy, dtype=float)
    d = xy - xy.mean(axis=0)
    n = xy.shape[0]
    a = np.sum(d[:, 0] ** 2) / (n - 1)
    b = np.sum(d[:, 0] * d[:, 1]) / (n - 1)
    c = np.sum(d[:, 1] ** 2) / (n - 1)
    lam = 0.5 * (a + c + np.sqrt((a - c) ** 2 + 4 * b ** 2))
    v = np.array([b, lam - a]) if abs(b) > 1e-15 else np.array([1.0, 0.0])
    v = v / np.linalg.norm(v)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return lam, v


def hungarian_agreement(labels_a, labels_b):
    """Best label-permutation agreement count between two partitions."""
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    ka, kb = labels_a.max() + 1, labels_b.max() + 1
    conf = np.zeros((ka, kb), dtype=int)
    np.add.at(conf, (labels_a, labels_b), 1)
    rows, cols = linear_sum_assignment(-conf)
    return int(conf[rows, cols].sum())


def kmeans_reference(points, K, seed, restarts):
    """k-means one point and one center at a time: (labels, centers, n_pruned).

    The contract of cluster.kmeans, written as plain loops: k-means++
    seeding with the same generator calls, a squared distance summed
    coordinate by coordinate in index order, the lowest label on a tie,
    each center the running sum of its members in index order divided by
    their count (an emptied cluster keeps its center), the restart of least
    within-cluster sum of squares, the first on a tie, and emptied clusters
    dropped with relabeling.
    """
    pts = np.asarray(points, dtype=float)
    rows = pts.tolist()
    n, d = pts.shape

    def sq_dist(p, c):
        total = 0.0
        for a, b in zip(p, c):
            total += (a - b) * (a - b)
        return total

    def nearest(p, centers):
        dists = [sq_dist(p, c) for c in centers]
        return dists.index(min(dists))

    best = None
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        centers = [rows[rng.integers(n)]]
        d2 = np.array([sq_dist(p, centers[0]) for p in rows])
        for _ in range(1, K):
            total = d2.sum()
            pick = rng.integers(n) if total <= 0 else rng.choice(n, p=d2 / total)
            centers.append(rows[pick])
            d2 = np.minimum(d2, [sq_dist(p, centers[-1]) for p in rows])
        labels = [nearest(p, centers) for p in rows]
        for _ in range(KMEANS_MAX_ITER):
            for k in range(K):
                members = [p for p, label in zip(rows, labels) if label == k]
                if members:
                    sums = [0.0] * d
                    for p in members:
                        sums = [s + x for s, x in zip(sums, p)]
                    centers[k] = [s / len(members) for s in sums]
            new_labels = [nearest(p, centers) for p in rows]
            if new_labels == labels:
                break
            labels = new_labels
        wcss = float(np.sum((pts - np.array(centers)[labels]) ** 2))
        if best is None or wcss < best[2]:
            best = (labels, centers, wcss)
    labels, centers, _ = best
    present = sorted(set(labels))
    return (np.array([present.index(label) for label in labels]),
            np.array([centers[k] for k in present]), K - len(present))


def side_peak_flags(cuts, center, side_threshold, exclude_radius):
    """Superposition flag of each (channels, width) event, one sample at a
    time: a side peak is an interior sample >= its left neighbour, > its
    right neighbour and > side_threshold, more than exclude_radius samples
    from center."""
    flags = []
    for event in cuts:
        hit = False
        for row in event:
            for pos in range(1, len(row) - 1):
                if (row[pos] >= row[pos - 1] and row[pos] > row[pos + 1]
                        and row[pos] > side_threshold
                        and abs(pos - center) > exclude_radius):
                    hit = True
        flags.append(hit)
    return np.array(flags, dtype=bool)


def thin_reference(candidates, aggregate, min_separation):
    """Greedy non-maximum suppression as a quadratic loop: visit candidates
    by descending aggregate (ties to the smaller index) and keep one when
    it lies at least min_separation from every index kept so far."""
    order = np.lexsort((candidates, -aggregate[candidates]))
    kept = []
    for idx in candidates[order]:
        if all(abs(int(idx) - k) >= min_separation for k in kept):
            kept.append(int(idx))
    return np.array(sorted(kept), dtype=np.int64)


def detection_scale_reference(data, box_width):
    """(location, scale) per channel as detection took them before the
    aggregate was computed by span: the median of the box-smoothed trace
    and MAD_SCALE times the median absolute deviation from it."""
    box = np.full(box_width, 1.0 / box_width)
    location, scale = [], []
    for chan in data:
        smooth = np.convolve(chan, box, mode="same")
        location.append(np.median(smooth))
        smooth -= location[-1]
        scale.append(MAD_SCALE * np.median(np.abs(smooth), overwrite_input=True))
    return location, scale


def aggregate_reference(data, p, location=None, scale=None):
    """Full-trace detection aggregate, one channel at a time: smooth the
    whole channel, subtract its location, divide by its scale (the
    channel's own unless given), zero what is below threshold, sum."""
    if location is None:
        location, scale = detection_scale_reference(data, p.box_width)
    box = np.full(p.box_width, 1.0 / p.box_width)
    aggregate = np.zeros(data.shape[1])
    for chan, loc, sc in zip(data, location, scale):
        if sc == 0.0:
            continue
        smooth = np.convolve(chan, box, mode="same")
        smooth -= loc
        smooth /= sc
        if p.polarity in ("max", "both"):
            aggregate += np.where(smooth >= p.threshold, smooth, 0.0)
        if p.polarity in ("min", "both"):
            aggregate += np.where(-smooth >= p.threshold, -smooth, 0.0)
    return aggregate


def peaks_reference(aggregate, p):
    """Local maxima in [guard, n - guard), one sample at a time (positive,
    >= the left neighbour, > the right one), thinned by thin_reference."""
    n = aggregate.size
    candidates = np.array([i for i in range(max(p.guard, 1), min(n - p.guard, n - 1))
                           if aggregate[i] > 0 and aggregate[i] >= aggregate[i - 1]
                           and aggregate[i] > aggregate[i + 1]], dtype=np.int64)
    if candidates.size == 0:
        return candidates
    return thin_reference(candidates, aggregate, p.min_separation)


def peel_reference(rec, cat, p, max_rounds=10, acceptance_factor=1.0):
    """(decisions, residual data) of the classify-and-subtract loop with a
    full-trace detection every round, at the location and scale of the
    input, on one writable copy of the input: each event is decided, and
    its template subtracted, before the next is looked at."""
    work = rec.data.copy()
    location, scale = detection_scale_reference(work, p.box_width)
    # a table of no rows, so that a run examining no event still has one
    decisions = [classify_events(np.empty((0, cat.channels, cat.spec.width)), cat, 1.0, [])]
    for rnd in range(max_rounds):
        accepted = 0
        for idx in peaks_reference(aggregate_reference(work, p, location, scale), p):
            start, stop = idx - cat.spec.before, idx + cat.spec.after + 1
            if start < 0 or stop > rec.samples:
                continue
            dec = classify_event(work[:, start:stop], cat, acceptance_factor,
                                 peak_index=int(idx))
            dec.round[0] = rnd
            decisions.append(dec)
            if dec.classified[0]:
                work[:, start:stop] -= aligned_reference(cat, dec.neuron[0], dec.delta[0])
                accepted += 1
        if accepted == 0:
            break
    return DecisionTable.concat(decisions), work


def assert_same_decisions(got, want):
    """Two decision tables equal column by column, bit for bit: the same
    dtype and bytes, so NaN equals NaN."""
    for name in Decision._fields:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def aligned_reference(cat, neuron_id, delta):
    """The template of one neuron at one offset, f + delta*f1 +
    delta^2/2*f2, from its (f, f1, f2) rows of cat.waves."""
    f, f1, f2 = cat.waves[:, cat.neuron_ids.tolist().index(neuron_id)]
    return f + delta * f1 + 0.5 * delta * delta * f2


def jitter_reference(g, f, f1, f2):
    """(delta, rss_after) of one template's (f, f1, f2), one scalar step at
    a time: the linear offset sum((g - f)*f1)/sum(f1^2), then one Newton
    step on sum(g - f - d*f1 - d^2/2*f2)^2, kept only where the curvature
    is positive and the step stays within half the width."""
    denom = float(np.sum(f1 * f1))
    delta0 = float(np.sum((g - f) * f1) / denom)

    def residual(delta):
        return g - f - delta * f1 - 0.5 * delta * delta * f2

    r0 = residual(delta0)
    slope = f1 + delta0 * f2
    h1 = -2.0 * float(np.sum(r0 * slope))
    h2 = 2.0 * float(np.sum(slope * slope) - np.sum(r0 * f2))
    delta = delta0
    if h2 > 0.0 and abs(delta0 - h1 / h2) <= f.shape[1] / 2.0:
        delta = delta0 - h1 / h2
    r_hat = residual(delta)
    return delta, float(np.sum(r_hat * r_hat))


def classify_reference(g, cat, acceptance_factor=1.0):
    """(neuron_id, delta, rss_best, accepted) of the template loop over the
    rows of cat.waves: the first template with the strictly smallest
    jitter_reference residual, and whether that residual is below
    acceptance_factor * sum(g^2)."""
    best = None
    for neuron_id, rows in zip(cat.neuron_ids.tolist(), np.moveaxis(cat.waves, 1, 0)):
        delta, rss = jitter_reference(g, *rows)
        if best is None or rss < best[2]:
            best = (neuron_id, delta, rss)
    return (*best, best[2] < acceptance_factor * float(np.sum(g * g)))


def assert_valid_thinning(kept, candidates, aggregate, min_separation):
    """Check the selection property: kept indices are separated, and every
    rejected candidate loses to a kept neighbor (larger value, or equal
    value at a smaller index)."""
    kept = np.asarray(kept)
    assert np.all(np.diff(kept) >= min_separation)
    kept_set = set(int(i) for i in kept)
    for c in candidates:
        if int(c) in kept_set:
            continue
        near = kept[np.abs(kept - c) < min_separation]
        assert near.size, f"candidate {c} rejected with no kept neighbor"
        beats = [k for k in near
                 if aggregate[k] > aggregate[c]
                 or (aggregate[k] == aggregate[c] and k < c)]
        assert beats, f"candidate {c} rejected by no better neighbor"


# --- construction helpers ---

def gauss_rows(gains, amplitude, sigma, width):
    """Multi-channel Gaussian bump peaking at the center sample."""
    gains = np.asarray(gains, dtype=float)
    gains = gains / np.abs(gains).max()
    u = np.arange(width) - width // 2
    bump = amplitude * np.exp(-0.5 * (u / sigma) ** 2)
    return gains[:, None] * bump[None, :]


def gauss_rows_derivative(gains, amplitude, sigma, width):
    """Analytic first derivative of gauss_rows with respect to position."""
    gains = np.asarray(gains, dtype=float)
    gains = gains / np.abs(gains).max()
    u = np.arange(width) - width // 2
    d = -amplitude * (u / sigma ** 2) * np.exp(-0.5 * (u / sigma) ** 2)
    return gains[:, None] * d[None, :]


def gauss_rows_second_derivative(gains, amplitude, sigma, width):
    """Analytic second derivative of gauss_rows with respect to position."""
    gains = np.asarray(gains, dtype=float)
    gains = gains / np.abs(gains).max()
    u = np.arange(width) - width // 2
    d = amplitude * (u ** 2 / sigma ** 4 - 1.0 / sigma ** 2) * np.exp(
        -0.5 * (u / sigma) ** 2)
    return gains[:, None] * d[None, :]


def analytic_gauss_template(gains, amplitude, sigma, width):
    """(3, 1, C, W) waves of one template whose f1/f2 are exact derivatives
    rather than differences."""
    return np.stack([gauss_rows(gains, amplitude, sigma, width),
                     gauss_rows_derivative(gains, amplitude, sigma, width),
                     gauss_rows_second_derivative(gains, amplitude, sigma, width)])[:, None]


def derivative_recording(rec):
    """Discrete time derivative of every channel of the whole trace
    (centdiff_rows): the reference the windowed derivative cuts of the
    templates are held to."""
    if rec.samples < 3:
        raise ParameterError(f"derivative needs >= 3 samples, got {rec.samples}")
    return rec.with_data(centdiff_rows(rec.data), rec.stage)


def centdiff_rows(rows):
    """Row-wise central difference, one-sided at the ends."""
    rows = np.asarray(rows, dtype=float)
    out = np.empty_like(rows)
    out[:, 1:-1] = (rows[:, 2:] - rows[:, :-2]) / 2.0
    out[:, 0] = rows[:, 1] - rows[:, 0]
    out[:, -1] = rows[:, -1] - rows[:, -2]
    return out


def template_waves(*blocks):
    """(3, K, C, W) waves of one template per (C, W) block of rows: the
    block, its central difference and the difference of that."""
    waves = []
    for rows in blocks:
        f = np.asarray(rows, dtype=float)
        f1 = centdiff_rows(f)
        waves.append([f, f1, centdiff_rows(f1)])
    return np.array(waves).transpose(1, 0, 2, 3)


def sample_from_matrix(rows, channels=1):
    """Wrap an n x d matrix as an EventSample (d = channels * width)."""
    rows = np.asarray(rows, dtype=float)
    n, d = rows.shape
    width = d // channels
    spec = CutSpec(before=1, after=width - 2)
    return EventSample(cuts=rows.reshape(n, channels, width),
                       peaks=1000 * np.arange(1, n + 1), spec=spec,
                       n_dropped_edge=0)


def normalized_recording(data, rate_hz=15000.0):
    """Wrap already-unit-scale data as a normalized-stage Recording."""
    return Recording(data=np.asarray(data, dtype=float), rate_hz=rate_hz,
                     stage=STAGE_NORMALIZED)


def ar1_noise(channels, n, sigma=1.0, ar=0.4, seed=0):
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((channels, n))
    out = np.empty_like(eps)
    out[:, 0] = eps[:, 0] * sigma
    scale = sigma * np.sqrt(1.0 - ar * ar)
    for i in range(1, n):
        out[:, i] = ar * out[:, i - 1] + scale * eps[:, i]
    return out


# --- session fixtures: one full pipeline run shared by the heavier tests ---

ACCEPTANCE_SEED = 42


@pytest.fixture(scope="session")
def locust_truth():
    return locust_like_scenario(seed=ACCEPTANCE_SEED)


@pytest.fixture(scope="session")
def locust_run(locust_truth):
    """Catalogue from the first half, peel over the whole recording."""
    import time

    raw = locust_truth.recording
    t_start = time.perf_counter()
    whole = normalize(raw)
    half = normalize(Recording(data=raw.data[:, :raw.samples // 2],
                               rate_hz=raw.rate_hz, stage=raw.stage))
    params = DetectionParams()
    peaks = detect(half, params)
    wide = make_cuts(half, peaks, CutSpec(before=80, after=80))
    spec = optimal_cut_bounds(wide, noise_level=1.0)
    sample = flag_superpositions(make_cuts(half, peaks, spec), side_threshold=4.0)
    clean, keep = non_superposed(sample)
    pca = fit_pca(clean)
    projected = project(clean, pca, 4)
    result = order_clusters(kmeans(projected.coords, 10, seed=0, restarts=10), clean)
    catalogue = Catalogue(neuron_ids=np.arange(result.K),
                          waves=build_templates(half, clean, result),
                          spec=clean.spec, rate_hz=raw.rate_hz)
    train, decisions, residual = peel(whole, catalogue, params)
    wall_s = time.perf_counter() - t_start
    return {
        "wall_s": wall_s,
        "truth": locust_truth,
        "whole": whole,
        "half": half,
        "peaks": peaks,
        "sample": sample,
        "clean": clean,
        "keep": keep,
        "pca": pca,
        "projected": projected,
        "result": result,
        "catalogue": catalogue,
        "train": train,
        "decisions": decisions,
        "residual": residual,
        "params": params,
    }


def truth_partition(truth, sample, keep, tolerance=2.0):
    """Ground-truth neuron id for each kept event, by nearest true spike."""
    times = np.array([t for _, t in truth.spikes])
    ids = np.array([n for n, _ in truth.spikes])
    labels = []
    for idx in sample.peaks[keep]:
        j = int(np.argmin(np.abs(times - idx)))
        labels.append(ids[j] if abs(times[j] - idx) <= tolerance else -1)
    return np.asarray(labels)
