"""Peak detection: smoothing, rectification, summing and thinning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (aggregate_reference, assert_valid_thinning,
                      detection_scale_reference, gauss_rows,
                      normalized_recording, peaks_reference, thin_reference)
from peelsort.detect import (POLARITIES, DetectionParams, PeakList,
                             _local_maxima, _rectified_aggregate, _thin,
                             aggregate_spans, detect, detection_scale,
                             find_peaks, write_peaks)
from peelsort.errors import ParameterError
from peelsort.preprocess import mad


def inject(trace, rows, at):
    width = rows.shape[1]
    start = at - width // 2
    trace[:, start:start + width] += rows


def noisy_recording(n=6000, channels=1, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((channels, n))


def test_params_validation():
    with pytest.raises(ParameterError):
        DetectionParams(box_width=4)
    with pytest.raises(ParameterError):
        DetectionParams(threshold=0.0)
    with pytest.raises(ParameterError):
        DetectionParams(min_separation=0)
    with pytest.raises(ParameterError):
        DetectionParams(guard=-1)
    with pytest.raises(ParameterError):
        DetectionParams(polarity="up")


def test_peaklist_requires_increasing_indices():
    with pytest.raises(ParameterError):
        PeakList(indices=np.array([5, 5, 9]))


def test_all_zero_recording_yields_no_peaks():
    rec = normalized_recording(np.zeros((4, 2000)))
    peaks = detect(rec, DetectionParams())
    assert len(peaks) == 0


def test_single_injected_spike_found_near_truth():
    data = noisy_recording(seed=12)
    rows = gauss_rows([1.0], amplitude=10.0, sigma=2.0, width=41)
    inject(data, rows, at=1000)
    params = DetectionParams()
    peaks = detect(normalized_recording(data), params)
    assert len(peaks) == 1
    assert abs(int(peaks.indices[0]) - 1000) <= params.box_width


def test_close_pair_thinned_to_one():
    data = 0.05 * noisy_recording(seed=3)
    rows = gauss_rows([1.0], amplitude=50.0, sigma=2.0, width=41)
    inject(data, rows, at=500)
    inject(data, rows, at=505)
    params = DetectionParams(min_separation=15)
    rec = normalized_recording(data)
    peaks = detect(rec, params)
    assert len(peaks) == 1
    assert 495 <= int(peaks.indices[0]) <= 515
    # the survivor must dominate its window
    aggregate = _rectified_aggregate(rec, params)
    candidates = _local_maxima(aggregate, params.guard)
    assert_valid_thinning(peaks.indices, candidates, aggregate, 15)


def test_threshold_monotonicity():
    data = noisy_recording(n=20000, seed=7)
    rows = gauss_rows([1.0], amplitude=8.0, sigma=2.0, width=41)
    for at in range(600, 19000, 900):
        inject(data, rows, at=at)
    rec = normalized_recording(data)
    counts = [len(detect(rec, DetectionParams(threshold=t)))
              for t in (3.0, 4.0, 5.0, 6.0, 8.0)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[0] > 0


def test_output_invariants_on_pipeline_run(locust_run):
    params = locust_run["params"]
    peaks = locust_run["peaks"]
    n = locust_run["half"].samples
    assert np.all(np.diff(peaks.indices) >= params.min_separation)
    assert peaks.indices[0] >= params.guard
    assert peaks.indices[-1] < n - params.guard
    thinned = assert_valid_thinning
    aggregate = _rectified_aggregate(locust_run["half"], params)
    thinned(peaks.indices, _local_maxima(aggregate, params.guard), aggregate,
            params.min_separation)


def test_detection_deterministic():
    data = noisy_recording(seed=21)
    rows = gauss_rows([1.0], amplitude=9.0, sigma=2.5, width=41)
    inject(data, rows, at=3000)
    rec = normalized_recording(data)
    a = detect(rec, DetectionParams())
    b = detect(rec, DetectionParams())
    assert np.array_equal(a.indices, b.indices)


def test_pure_noise_false_positive_budget():
    rng = np.random.default_rng(1234)
    rec = normalized_recording(rng.standard_normal((4, 300000)))
    peaks = detect(rec, DetectionParams(threshold=4.0))
    assert len(peaks) <= 50


def test_short_recording_rejected():
    rec = normalized_recording(np.zeros((1, 80)))
    with pytest.raises(ParameterError):
        detect(rec, DetectionParams(guard=50))


def test_polarity_min_mirrors_max():
    data = noisy_recording(seed=9)
    rows = gauss_rows([1.0], amplitude=12.0, sigma=2.0, width=41)
    inject(data, rows, at=2000)
    up = detect(normalized_recording(data), DetectionParams(polarity="max"))
    down = detect(normalized_recording(-data), DetectionParams(polarity="min"))
    assert np.array_equal(up.indices, down.indices)
    assert len(up) == 1


def test_polarity_both_sees_both_signs():
    data = 0.05 * noisy_recording(n=8000, seed=15)
    rows = gauss_rows([1.0], amplitude=40.0, sigma=2.0, width=41)
    inject(data, rows, at=2000)
    inject(data, -rows, at=5000)
    rec = normalized_recording(data)
    both = detect(rec, DetectionParams(polarity="both"))
    assert len(both) == 2
    only_max = detect(rec, DetectionParams(polarity="max"))
    assert len(only_max) == 1


def test_write_peaks_format(tmp_path):
    peaks = PeakList(indices=np.array([3, 77, 300]))
    path = tmp_path / "peaks.txt"
    write_peaks(peaks, path)
    assert path.read_text() == "3\n77\n300\n"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_thin_matches_loop_reference(data):
    # small integer values make ties and plateaus common
    n = data.draw(st.integers(1, 300))
    aggregate = np.array(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)),
                         dtype=float)
    candidates = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), dtype=np.int64)
    min_separation = data.draw(st.integers(1, 40))
    kept = _thin(candidates, aggregate, min_separation)
    assert kept.dtype == np.int64
    assert np.array_equal(kept, thin_reference(candidates, aggregate, min_separation))


@pytest.mark.parametrize("polarity", ["max", "min", "both"])
def test_aggregate_matches_mad_reference(polarity):
    data = noisy_recording(n=5000, channels=3, seed=31)
    data[1] = 0.0  # a dead channel contributes nothing
    rows = gauss_rows([1.0, 0.0, -0.7], amplitude=9.0, sigma=2.0, width=41)
    inject(data, rows, at=2500)
    rec = normalized_recording(data)
    params = DetectionParams(polarity=polarity)
    box = np.full(params.box_width, 1.0 / params.box_width)
    expected = np.zeros(rec.samples)
    for chan in rec.data:
        smooth = np.convolve(chan, box, mode="same")
        scale = mad(smooth)
        if scale == 0.0:
            continue
        smooth = (smooth - np.median(smooth)) / scale
        for signed in {"max": [smooth], "min": [-smooth],
                       "both": [smooth, -smooth]}[polarity]:
            expected += np.where(signed >= params.threshold, signed, 0.0)
    assert np.array_equal(_rectified_aggregate(rec, params), expected)


def _draw_detection_case(data):
    """Random short recording (a channel sometimes dead) and detection
    parameters over every polarity and box widths 1 to 9."""
    p = DetectionParams(box_width=data.draw(st.sampled_from([1, 3, 5, 7, 9])),
                        threshold=data.draw(st.floats(0.5, 3.0)),
                        min_separation=data.draw(st.integers(1, 20)),
                        guard=data.draw(st.integers(0, 20)),
                        polarity=data.draw(st.sampled_from(POLARITIES)))
    channels = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(2 * p.guard + p.box_width, 400))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    trace = rng.standard_normal((channels, n))
    if data.draw(st.booleans()):
        trace[data.draw(st.integers(0, channels - 1))] = 0.0
    return p, trace, rng


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_detect_matches_whole_trace_loop_reference(data):
    p, trace, _ = _draw_detection_case(data)
    location, scale = detection_scale(trace, p)
    assert (location.tolist(), scale.tolist()) == tuple(
        [float(v) for v in ref] for ref in detection_scale_reference(trace, p.box_width))
    rec = normalized_recording(trace)
    expected = aggregate_reference(trace, p)
    assert np.array_equal(_rectified_aggregate(rec, p), expected)
    assert np.array_equal(detect(rec, p).indices, peaks_reference(expected, p))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_span_refresh_matches_full_pass_at_frozen_scale(data):
    p, trace, rng = _draw_detection_case(data)
    channels, n = trace.shape
    half = p.box_width // 2
    location, scale = detection_scale(trace, p)
    aggregate = np.empty(n)
    aggregate_spans(trace, location, scale, p, [(0, n)], aggregate)
    changed = []
    for _ in range(data.draw(st.integers(1, 4))):
        # spans touching either trace edge are drawn often
        start = data.draw(st.one_of(st.just(0), st.integers(0, n - 1)))
        stop = data.draw(st.one_of(st.just(n), st.integers(start + 1, n)))
        trace[:, start:stop] -= 3.0 * rng.standard_normal((channels, stop - start))
        changed.append((start - half, stop + half))
    aggregate_spans(trace, location, scale, p, sorted(changed), aggregate)
    # recomputing unchanged spans, however short or near an edge, leaves
    # the same bits
    unchanged = []
    for _ in range(data.draw(st.integers(1, 3))):
        length = data.draw(st.integers(1, min(n, 10)))
        near = data.draw(st.integers(0, min(p.box_width, n - length)))
        start = data.draw(st.sampled_from([near, n - length - near,
                                           data.draw(st.integers(0, n - length))]))
        unchanged.append((start, start + length))
    aggregate_spans(trace, location, scale, p, sorted(unchanged), aggregate)
    expected = aggregate_reference(trace, p, location, scale)
    assert np.array_equal(aggregate, expected)
    assert np.array_equal(find_peaks(aggregate, p).indices, peaks_reference(expected, p))


@pytest.mark.parametrize("spans", [[(0, 1)], [(99, 100)], [(0, 1), (3, 4)],
                                   [(96, 97), (99, 100)]])
def test_short_spans_at_the_trace_edges_match_full_pass(spans):
    # np.convolve pads with zeros only at the ends of what it is given
    p = DetectionParams(box_width=9, threshold=0.3, guard=0, polarity="both")
    trace = np.random.default_rng(1).standard_normal((2, 100))
    location, scale = detection_scale(trace, p)
    expected = aggregate_reference(trace, p, location, scale)
    aggregate = np.full(100, np.nan)
    aggregate_spans(trace, location, scale, p, spans, aggregate)
    written = ~np.isnan(aggregate)  # spans this close are joined with their gap
    assert all(written[start:stop].all() for start, stop in spans)
    assert np.array_equal(aggregate[written], expected[written])
