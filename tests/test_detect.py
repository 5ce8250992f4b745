"""Peak detection: smoothing, rectification, summing and thinning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (aggregate_reference, assert_valid_thinning,
                      detection_scale_reference, gauss_rows,
                      normalized_recording, peaks_reference, thin_reference)
from peelsort.detect import (POLARITIES, DetectionParams, _thin,
                             aggregate_spans, detect, detection_pass,
                             find_peaks, local_maxima, refresh_maxima,
                             write_peaks)
from peelsort.errors import ParameterError
from peelsort.events import CutSpec, make_cuts
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
    for threshold in (np.nan, np.inf):
        with pytest.raises(ParameterError, match="finite"):
            DetectionParams(threshold=threshold)
    with pytest.raises(ParameterError):
        DetectionParams(min_separation=0)
    with pytest.raises(ParameterError):
        DetectionParams(guard=-1)
    with pytest.raises(ParameterError):
        DetectionParams(polarity="up")


def test_make_cuts_requires_increasing_peaks():
    rec = normalized_recording(np.zeros((1, 100)))
    with pytest.raises(ParameterError, match="strictly increasing"):
        make_cuts(rec, np.array([5, 5, 9]), CutSpec(before=2, after=2))


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
    assert abs(int(peaks[0]) - 1000) <= params.box_width


def test_close_pair_thinned_to_one():
    data = 0.05 * noisy_recording(seed=3)
    rows = gauss_rows([1.0], amplitude=50.0, sigma=2.0, width=41)
    inject(data, rows, at=500)
    inject(data, rows, at=505)
    params = DetectionParams(min_separation=15)
    rec = normalized_recording(data)
    peaks = detect(rec, params)
    assert len(peaks) == 1
    assert 495 <= int(peaks[0]) <= 515
    # the survivor must dominate its window
    aggregate = detection_pass(rec.data, params)[0]
    candidates = local_maxima(aggregate, params.guard)
    assert_valid_thinning(peaks, candidates, aggregate, 15)


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
    assert np.all(np.diff(peaks) >= params.min_separation)
    assert peaks[0] >= params.guard
    assert peaks[-1] < n - params.guard
    thinned = assert_valid_thinning
    aggregate = detection_pass(locust_run["half"].data, params)[0]
    thinned(peaks, local_maxima(aggregate, params.guard), aggregate,
            params.min_separation)


def test_detection_deterministic():
    data = noisy_recording(seed=21)
    rows = gauss_rows([1.0], amplitude=9.0, sigma=2.5, width=41)
    inject(data, rows, at=3000)
    rec = normalized_recording(data)
    a = detect(rec, DetectionParams())
    b = detect(rec, DetectionParams())
    assert np.array_equal(a, b)


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
    assert np.array_equal(up, down)
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
    peaks = np.array([3, 77, 300])
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
    assert np.array_equal(detection_pass(rec.data, params)[0], expected)


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
    rec = normalized_recording(trace)
    aggregate, location, scale = detection_pass(rec.data, p)
    assert (location.tolist(), scale.tolist()) == tuple(
        [float(v) for v in ref] for ref in detection_scale_reference(trace, p.box_width))
    expected = aggregate_reference(trace, p)
    assert np.array_equal(aggregate, expected)
    assert np.array_equal(detect(rec, p), peaks_reference(expected, p))


def test_detection_pass_holds_two_lanes_of_rows():
    import tracemalloc

    data = normalized_recording(np.random.default_rng(4).standard_normal((4, 200_000))).data
    tracemalloc.start()
    try:
        aggregate, location, scale = detection_pass(data, DetectionParams())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (location.tolist(), scale.tolist()) == tuple(
        [float(v) for v in ref] for ref in detection_scale_reference(data, 5))
    assert np.array_equal(aggregate, aggregate_reference(data, DetectionParams()))
    # a channel is a quarter of data.nbytes: the aggregate is one, and each
    # of the two lanes holds a smoothed channel and a scratch row (which
    # takes the read-only row np.convolve would otherwise copy, then the
    # statistics' copy, then the mask), so 1.25 in all; a third lane, or a
    # row held beside a lane's two, adds a quarter
    assert peak < 1.4 * data.nbytes


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_detection_pass_matches_loop_references(data):
    # odd channel counts leave the last channel without a partner lane
    p = DetectionParams(box_width=data.draw(st.sampled_from([1, 3, 5, 7, 9])),
                        threshold=data.draw(st.floats(0.5, 3.0)),
                        polarity=data.draw(st.sampled_from(POLARITIES)))
    channels = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(p.box_width, 400))
    trace = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(
        (channels, n))
    for c in data.draw(st.sets(st.integers(0, channels - 1))):
        trace[c] = 0.0
    before = trace.copy()
    if data.draw(st.booleans()):
        trace = normalized_recording(trace).data  # read-only rows take the scratch path
    aggregate, location, scale = detection_pass(trace, p)
    assert (location.tolist(), scale.tolist()) == tuple(
        [float(v) for v in ref] for ref in detection_scale_reference(before, p.box_width))
    assert np.array_equal(aggregate, aggregate_reference(before, p))
    assert trace.tobytes() == before.tobytes()


@pytest.mark.parametrize("lane", ["worker", "calling"])
def test_detection_pass_raises_a_lane_error_and_leaves_no_thread(monkeypatch, lane):
    import importlib
    import threading

    # the package re-exports the detect() function as peelsort.detect
    module = importlib.import_module("peelsort.detect")
    statistics = module.median_mad_inplace

    def failing(values):
        worker = threading.current_thread() is not threading.main_thread()
        if worker == (lane == "worker"):
            raise RuntimeError(f"{lane} lane failed")
        return statistics(values)

    monkeypatch.setattr(module, "median_mad_inplace", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{lane} lane failed"):
        detection_pass(noisy_recording(n=20_000, channels=3), DetectionParams())
    assert threading.active_count() == threads


def test_detection_pass_lanes_share_no_state():
    # the worker lane writes the statistics of odd channels while this
    # thread writes those of even ones; switching threads as often as the
    # interpreter allows must not lose or mix an update
    import sys

    trace = noisy_recording(n=3000, channels=6, seed=8)
    trace[::2] *= np.arange(1, 4)[:, None]  # each channel its own scale
    p = DetectionParams(threshold=2.0, polarity="both")
    expected = aggregate_reference(trace, p)
    reference = tuple([float(v) for v in ref] for ref in detection_scale_reference(trace, 5))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            aggregate, location, scale = detection_pass(trace, p)
            assert (location.tolist(), scale.tolist()) == reference
            assert np.array_equal(aggregate, expected)
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_refresh_maxima_matches_a_full_scan(data):
    # small integer values make plateaus and ties common
    n = data.draw(st.integers(1, 200))
    aggregate = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                         dtype=float)
    guard = data.draw(st.integers(0, 10))
    maxima = local_maxima(aggregate, guard)
    # sorted spans at least one sample apart, as aggregate_spans merges
    # them; one apart, the samples examined around two of them overlap
    spans, start = [], data.draw(st.integers(0, n - 1))
    for _ in range(data.draw(st.integers(0, 8))):
        if start >= n:
            break
        stop = min(start + data.draw(st.integers(1, 20)), n)
        spans.append((start, stop))
        start = stop + data.draw(st.integers(1, 6))
    spans = np.array(spans, dtype=np.int64).reshape(-1, 2)
    for start, stop in spans.tolist():
        aggregate[start:stop] = data.draw(
            st.lists(st.integers(0, 3), min_size=stop - start, max_size=stop - start))
    refreshed = refresh_maxima(maxima, aggregate, spans, guard)
    assert refreshed.dtype == np.int64
    assert np.array_equal(refreshed, local_maxima(aggregate, guard))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_span_refresh_matches_full_pass_at_frozen_scale(data):
    p, trace, rng = _draw_detection_case(data)
    channels, n = trace.shape
    half = p.box_width // 2
    _, location, scale = detection_pass(trace, p)
    aggregate = np.empty(n)
    aggregate_spans(trace, location, scale, p, np.array([[0, n]]), aggregate)
    changed = []
    for _ in range(data.draw(st.integers(1, 4))):
        # spans touching either trace edge are drawn often
        start = data.draw(st.one_of(st.just(0), st.integers(0, n - 1)))
        stop = data.draw(st.one_of(st.just(n), st.integers(start + 1, n)))
        trace[:, start:stop] -= 3.0 * rng.standard_normal((channels, stop - start))
        changed.append((start - half, stop + half))
    written = aggregate_spans(trace, location, scale, p, np.array(sorted(changed)), aggregate)
    # the spans written, merged and clipped to the trace, hold every changed span
    clipped = [(max(start, 0), min(stop, n)) for start, stop in changed]
    assert all(((written[:, 0] <= start) & (stop <= written[:, 1])).any()
               for start, stop in clipped if start < stop)
    assert np.all(written[1:, 0] > written[:-1, 1])
    # recomputing unchanged spans, however short or near an edge, leaves
    # the same bits
    unchanged = []
    for _ in range(data.draw(st.integers(1, 3))):
        length = data.draw(st.integers(1, min(n, 10)))
        near = data.draw(st.integers(0, min(p.box_width, n - length)))
        start = data.draw(st.sampled_from([near, n - length - near,
                                           data.draw(st.integers(0, n - length))]))
        unchanged.append((start, start + length))
    aggregate_spans(trace, location, scale, p, np.array(sorted(unchanged)), aggregate)
    expected = aggregate_reference(trace, p, location, scale)
    assert np.array_equal(aggregate, expected)
    assert np.array_equal(find_peaks(aggregate, p, local_maxima(aggregate, p.guard)),
                          peaks_reference(expected, p))


@pytest.mark.parametrize("spans", [[(0, 1)], [(99, 100)], [(0, 1), (3, 4)],
                                   [(96, 97), (99, 100)], np.empty((0, 2), dtype=np.int64),
                                   np.array([[-20, -3]]), np.array([[100, 120]]),
                                   np.array([[-9, 0], [0, 1], [99, 100], [100, 109]])])
def test_short_spans_at_the_trace_edges_match_full_pass(spans):
    # np.convolve pads with zeros only at the ends of what it is given; a
    # span wholly past either end of the trace writes nothing
    p = DetectionParams(box_width=9, threshold=0.3, guard=0, polarity="both")
    trace = np.random.default_rng(1).standard_normal((2, 100))
    _, location, scale = detection_pass(trace, p)
    expected = aggregate_reference(trace, p, location, scale)
    aggregate = np.full(100, np.nan)
    merged = aggregate_spans(trace, location, scale, p, spans, aggregate)
    written = ~np.isnan(aggregate)  # spans this close are joined with their gap
    covered = np.zeros(100, dtype=bool)
    for start, stop in merged:
        covered[start:stop] = True
    assert merged.shape[1] == 2 and np.all(merged[:, 0] < merged[:, 1])
    assert np.array_equal(covered, written)
    clipped = np.clip(spans, 0, 100).reshape(-1, 2)
    assert all(written[start:stop].all() for start, stop in clipped)
    assert written.any() == (clipped[:, 0] < clipped[:, 1]).any()
    assert np.array_equal(aggregate[written], expected[written])
