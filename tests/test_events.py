"""Event cutting, cut-length selection and superposition flagging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import gauss_rows, normalized_recording, side_peak_flags
from peelsort.detect import POLARITIES
from peelsort.errors import DegenerateDataError, ParameterError
from peelsort.events import (CutSpec, EventSample, export_events_csv,
                             flag_superpositions, make_cuts, non_superposed,
                             optimal_cut_bounds, pointwise_mad)


def sample_of(rows_list, spec):
    cuts = np.array([np.atleast_2d(np.asarray(r, dtype=float)) for r in rows_list])
    return EventSample(cuts=cuts, peaks=1000 + 100 * np.arange(len(rows_list)),
                       spec=spec, n_dropped_edge=0)


def triangle(u, amplitude, left, right):
    """Piecewise-linear bump: 0 at -left, peak at 0, 0 at +right."""
    u = np.asarray(u, dtype=float)
    up = amplitude * (1.0 + u / left)
    down = amplitude * (1.0 - u / right)
    return np.clip(np.where(u < 0, up, down), 0.0, None)


# --- make_cuts ---

def test_cut_shape_and_slice_equality():
    rng = np.random.default_rng(0)
    rec = normalized_recording(rng.standard_normal((4, 500)))
    sample = make_cuts(rec, [100, 250], CutSpec(before=14, after=30))
    assert sample.cuts.shape == (2, 4, 45)
    assert np.array_equal(sample.cuts[0], rec.data[:, 86:131])
    assert np.array_equal(sample.cuts[1], rec.data[:, 236:281])
    assert not sample.superposed[0]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_make_cuts_matches_slicing(data):
    channels = data.draw(st.integers(1, 3))
    samples = data.draw(st.integers(3, 40))
    spec = CutSpec(before=data.draw(st.integers(1, 12)), after=data.draw(st.integers(1, 12)))
    peaks = sorted(data.draw(st.sets(st.integers(0, samples - 1), min_size=1)))
    rec = normalized_recording(np.arange(channels * samples, dtype=float).reshape(channels, samples))
    fits = [p for p in peaks if p - spec.before >= 0 and p + spec.after + 1 <= samples]
    if not fits:
        with pytest.raises(DegenerateDataError):
            make_cuts(rec, peaks, spec)
        return
    sample = make_cuts(rec, peaks, spec)
    assert list(sample.peaks) == fits
    assert sample.n_dropped_edge == len(peaks) - len(fits)
    assert sample.cuts.shape == (len(fits), channels, spec.width)
    assert sample.cuts.flags.c_contiguous
    for cut, p in zip(sample.cuts, fits):
        assert np.array_equal(cut, rec.data[:, p - spec.before:p + spec.after + 1])
    assert not sample.superposed.any()


def test_edge_peaks_dropped_and_counted():
    rec = normalized_recording(np.random.default_rng(1).standard_normal((2, 200)))
    sample = make_cuts(rec, [5, 100, 195], CutSpec(before=14, after=30))
    assert len(sample) == 1
    assert sample.n_dropped_edge == 2
    assert sample.peaks[0] == 100


def test_zero_recording_gives_zero_event():
    rec = normalized_recording(np.zeros((3, 300)))
    sample = make_cuts(rec, [150], CutSpec(before=14, after=30))
    assert np.all(sample.cuts[0] == 0.0)


def test_no_surviving_event_rejected():
    rec = normalized_recording(np.zeros((1, 60)))
    with pytest.raises(DegenerateDataError, match="^no peak was detected$"):
        make_cuts(rec, [], CutSpec(before=14, after=30))
    with pytest.raises(DegenerateDataError,
                       match="^no event window fits inside the recording$"):
        make_cuts(rec, [5], CutSpec(before=14, after=30))


def test_cutspec_validation():
    with pytest.raises(ParameterError):
        CutSpec(before=0, after=30)
    with pytest.raises(ParameterError):
        CutSpec(before=14, after=0)
    assert CutSpec(before=14, after=30).width == 45


# --- pointwise_mad ---

def test_pointwise_mad_identical_events_is_zero():
    row = np.linspace(-1, 1, 45)
    sample = sample_of([row] * 5, CutSpec(before=14, after=30))
    assert np.all(pointwise_mad(sample) == 0.0)


def test_pointwise_mad_unit_noise_converges_to_one():
    rng = np.random.default_rng(2)
    template = gauss_rows([1.0], amplitude=10.0, sigma=3.0, width=45)[0]
    for count in (250, 1000):
        rows = [template + rng.standard_normal(45) for _ in range(count)]
        profile = pointwise_mad(sample_of(rows, CutSpec(before=22, after=22)))
        assert np.max(np.abs(profile - 1.0)) <= 3.0 / np.sqrt(count)
    assert np.max(np.abs(profile - 1.0)) <= 0.1


def test_pointwise_mad_needs_two_events():
    sample = sample_of([np.zeros(45)], CutSpec(before=14, after=30))
    with pytest.raises(ParameterError):
        pointwise_mad(sample)


# --- optimal_cut_bounds ---

def constructed_profile_sample(target_before, target_after, wide=80,
                               inside=2.5, outside=0.3):
    """Events whose point-wise MAD is `inside` on the target window and
    `outside` elsewhere: half the events at +v, half at -v gives
    MAD = 1.4826 * v point-wise."""
    width = 2 * wide + 1
    v = np.full(width, outside / 1.4826)
    lo = wide - target_before
    hi = wide + target_after
    v[lo:hi + 1] = inside / 1.4826
    rows = [v, -v] * 4
    return sample_of(rows, CutSpec(before=wide, after=wide))


def test_bounds_from_constructed_profile():
    sample = constructed_profile_sample(14, 30)
    spec = optimal_cut_bounds(sample, noise_level=1.0)
    assert (spec.before, spec.after) == (14, 30)


def test_bounds_plateau_returns_full_window():
    sample = constructed_profile_sample(14, 30, inside=5.0, outside=5.0)
    spec = optimal_cut_bounds(sample, noise_level=1.0)
    assert (spec.before, spec.after) == (80, 80)


def test_bounds_without_signal_rejected():
    sample = constructed_profile_sample(14, 30, inside=0.8, outside=0.2)
    with pytest.raises(DegenerateDataError):
        optimal_cut_bounds(sample, noise_level=1.0)


def test_bounds_recover_known_support():
    # jittered sharp-edged bump: event-to-event spread tracks |f'|, which
    # is constant inside the support and zero outside
    rng = np.random.default_rng(5)
    wide = 80
    u = np.arange(-wide, wide + 1, dtype=float)
    rows = []
    for _ in range(500):
        delta = rng.uniform(-0.5, 0.5)
        rows.append(triangle(u + delta, 80.0, left=10, right=20)
                    + rng.standard_normal(u.size))
    spec = optimal_cut_bounds(sample_of(rows, CutSpec(before=wide, after=wide)))
    assert abs(spec.before - 10) <= 3
    assert abs(spec.after - 20) <= 3


# --- flag_superpositions ---

def test_clean_template_not_flagged():
    rows = gauss_rows([1.0, 0.7], amplitude=10.0, sigma=3.0, width=45)
    sample = EventSample(cuts=rows[None], peaks=[100],
                         spec=CutSpec(before=22, after=22), n_dropped_edge=0)
    flagged = flag_superpositions(sample, side_threshold=4.0)
    assert not flagged.superposed[0]


def test_two_offset_templates_flagged():
    rows = gauss_rows([1.0], amplitude=10.0, sigma=2.0, width=45)[0]
    compound = rows + np.roll(rows, 10)
    sample = sample_of([compound], CutSpec(before=22, after=22))
    flagged = flag_superpositions(sample, side_threshold=4.0)
    assert flagged.superposed[0]


def test_subthreshold_bump_not_flagged():
    rows = gauss_rows([1.0], amplitude=10.0, sigma=2.0, width=45)[0]
    bump = 2.0 * np.exp(-0.5 * ((np.arange(45) - 36) / 1.5) ** 2)
    sample = sample_of([rows + bump], CutSpec(before=22, after=22))
    flagged = flag_superpositions(sample, side_threshold=4.0)
    assert not flagged.superposed[0]


def test_flagging_keeps_data_intact():
    rng = np.random.default_rng(9)
    rows = [rng.standard_normal(45) * 10 for _ in range(6)]
    sample = sample_of(rows, CutSpec(before=22, after=22))
    flagged = flag_superpositions(sample, side_threshold=4.0)
    assert np.array_equal(flagged.cuts, sample.cuts)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_flagging_matches_loop_reference(data):
    # integer amplitudes make plateaus, ties between neighbours and values
    # equal to the threshold common
    spec = CutSpec(before=data.draw(st.integers(1, 10)), after=data.draw(st.integers(1, 10)))
    n = data.draw(st.integers(1, 6))
    cuts = data.draw(arrays(np.float64, (n, data.draw(st.integers(1, 3)), spec.width),
                            elements=st.integers(-6, 6).map(float)))
    side_threshold = data.draw(st.integers(-3, 6))
    exclude_radius = data.draw(st.integers(0, 12))
    polarity = data.draw(st.sampled_from(POLARITIES))
    sample = EventSample(cuts=cuts, peaks=100 * np.arange(1, n + 1), spec=spec)
    flagged = flag_superpositions(sample, side_threshold, exclude_radius, polarity)
    searched = -cuts if polarity == "min" else cuts
    if polarity == "both":
        # each event in the sign of its center on the channel largest there
        # in absolute value, the first such channel on a tie
        searched = np.array([-event if event[np.argmax(np.abs(event[:, spec.before])),
                                             spec.before] < 0 else event for event in cuts])
    expected = side_peak_flags(searched, spec.before, side_threshold, exclude_radius)
    assert np.array_equal(flagged.superposed, expected)
    assert np.array_equal(flagged.cuts, cuts)


def test_negative_side_peak_flagged_for_min_polarity():
    rows = -gauss_rows([1.0], amplitude=10.0, sigma=2.0, width=45)[0]
    compound = rows + np.roll(rows, 10)
    sample = sample_of([compound], CutSpec(before=22, after=22))
    assert not flag_superpositions(sample, side_threshold=4.0).superposed[0]
    assert flag_superpositions(sample, side_threshold=4.0, polarity="min").superposed[0]


def test_both_polarity_reads_each_event_in_its_own_sign():
    spike = gauss_rows([1.0], amplitude=10.0, sigma=2.0, width=45)[0]
    lobe = 0.5 * np.roll(spike, 10)  # an after-lobe, not a second spike
    spec = CutSpec(before=22, after=22)
    for sign in (1.0, -1.0):
        sample = sample_of([sign * (spike - lobe), sign * (spike + np.roll(spike, 10))], spec)
        flags = flag_superpositions(sample, side_threshold=4.0, polarity="both").superposed
        assert flags.tolist() == [False, True]


def test_non_superposed_filters_and_indexes():
    rows = gauss_rows([1.0], amplitude=10.0, sigma=2.0, width=45)[0]
    compound = rows + np.roll(rows, 10)
    sample = sample_of([rows, compound, rows], CutSpec(before=22, after=22))
    flagged = flag_superpositions(sample, side_threshold=4.0)
    clean, keep = non_superposed(flagged)
    assert len(clean) == 2
    assert list(keep) == [0, 2]


def test_all_flagged_rejected():
    rows = gauss_rows([1.0], amplitude=10.0, sigma=2.0, width=45)[0]
    compound = rows + np.roll(rows, 10)
    sample = sample_of([compound, compound], CutSpec(before=22, after=22))
    flagged = flag_superpositions(sample, side_threshold=4.0)
    with pytest.raises(DegenerateDataError):
        non_superposed(flagged)


# --- export ---

def test_export_events_csv(tmp_path):
    rng = np.random.default_rng(10)
    rec = normalized_recording(rng.standard_normal((2, 400)))
    sample = make_cuts(rec, [100, 200], CutSpec(before=2, after=2))
    path = tmp_path / "events.csv"
    export_events_csv(sample, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header[:2] == ["peak_index", "superposed"]
    assert len(header) == 2 + 2 * 5
    first = lines[1].split(",")
    assert first[0] == "100"
    restored = np.array([float(v) for v in first[2:]]).reshape(2, 5)
    assert np.array_equal(restored, sample.cuts[0])
