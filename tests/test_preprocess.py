"""MAD, normalization and the FIR high-pass filter."""

import gzip
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from peelsort.errors import (DataFormatError, DegenerateDataError, ParameterError,
                             PeelSortError)
from peelsort.ingest import (Recording, STAGE_NORMALIZED, STAGE_RAW, load_recording,
                             save_channels)
from peelsort.preprocess import (FilterSpec, MAD_SCALE, highpass,
                                 highpass_kernel, load_normalized, mad, median,
                                 median_inplace, median_mad_inplace, normalize)


def raw(data, rate=15000.0):
    return Recording(data=np.atleast_2d(np.asarray(data, dtype=float)),
                     rate_hz=rate, stage=STAGE_RAW)


# --- mad ---

def test_mad_constant_is_zero():
    assert mad([3.0] * 9) == 0.0


def test_mad_hand_enumeration():
    # median 3, abs devs {2,1,0,1,2}, raw MAD 1
    assert mad([1, 2, 3, 4, 5]) == pytest.approx(1.4826, abs=1e-12)
    assert MAD_SCALE == 1.4826


def test_mad_standard_gaussian():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(10 ** 6)
    assert mad(x) == pytest.approx(1.0, abs=0.01)


def test_mad_empty_rejected():
    with pytest.raises(ParameterError):
        mad([])


def test_mad_affine_equivariance():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(501)
    for a, b in [(2.5, 1.0), (-3.0, 7.0), (0.1, -4.0)]:
        assert mad(a * x + b) == pytest.approx(abs(a) * mad(x), abs=1e-12)


def test_mad_axis_matches_per_row():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 200))
    per_row = mad(x, axis=1)
    for c in range(4):
        assert per_row[c] == pytest.approx(mad(x[c]), abs=1e-12)


# --- median_inplace ---

@settings(max_examples=300, deadline=None)
@given(st.one_of(
    # integer values: many ties, and the two middle values often equal
    st.lists(st.integers(-5, 5).map(float), min_size=1, max_size=200),
    st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64,
                       min_value=-1e300, max_value=1e300), min_size=1, max_size=200),
    st.lists(st.tuples(st.floats(0.5, 1.0), st.integers(-300, 300)).map(lambda t: t[0] * 2.0 ** t[1]),
             min_size=1, max_size=200)))
def test_median_inplace_equals_np_median(values):
    values = np.array(values, dtype=np.float64)
    expected = np.median(values)
    work = values.copy()
    got = median_inplace(work)
    assert got == expected
    assert np.array_equal(np.sort(work), np.sort(values))  # reordered, not changed


@st.composite
def stacks(draw, dims=(2, 3)):
    """A float64 array of a rank in ``dims`` (at most 3), odd and even axis
    lengths, holding tie-heavy integers or wide-ranging finite floats."""
    shape = draw(st.lists(st.integers(1, 9), min_size=draw(st.sampled_from(dims)),
                          max_size=3).map(tuple))
    elements = draw(st.sampled_from([
        st.integers(-3, 3).map(float),
        st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300)]))
    return draw(arrays(np.float64, shape, elements=elements))


@settings(max_examples=300, deadline=None)
@given(stacks())
def test_median_inplace_along_last_axis_equals_np_median(values):
    work = values.copy()
    got = median_inplace(work)
    assert np.array_equal(got, np.median(values, axis=-1))
    assert np.array_equal(np.sort(work, axis=-1), np.sort(values, axis=-1))


@settings(max_examples=300, deadline=None)
@given(stacks())
def test_median_mad_inplace_along_last_axis_equals_two_pass(values):
    location = np.median(values, axis=-1, keepdims=True)
    expected = MAD_SCALE * np.median(np.abs(values - location), axis=-1)
    got_location, got_mad = median_mad_inplace(values.copy())
    assert np.array_equal(got_location, location[..., 0])
    assert np.array_equal(got_mad, expected)


@settings(max_examples=300, deadline=None)
@given(stacks(dims=(1, 2, 3)), st.data())
def test_median_and_mad_equal_np_median_along_every_axis(values, data):
    axis = data.draw(st.sampled_from([None, *range(values.ndim)]))
    # the formulas mad() had before it shared one selection with median()
    location = np.median(values, axis=axis, keepdims=axis is not None)
    expected = MAD_SCALE * np.median(np.abs(values - location), axis=axis)
    got = mad(values, axis=axis)
    assert np.array_equal(median(values, axis=axis), np.median(values, axis=axis))
    assert np.array_equal(got, expected)
    assert np.shape(got) == np.shape(expected)


def test_median_and_mad_are_nan_where_a_nan_lies_along_the_axis():
    values = np.arange(24.0).reshape(2, 3, 4)
    values[1, 2, 0] = np.nan
    for axis in (None, 0, 1, 2):
        expected_median = np.median(values, axis=axis)
        assert np.array_equal(median(values, axis=axis), expected_median, equal_nan=True)
        assert np.array_equal(np.isnan(mad(values, axis=axis)), np.isnan(expected_median))
    assert np.isnan(median([1.0, np.nan, 3.0])) and np.isnan(mad([1.0, 2.0, np.nan]))


# --- normalize ---

def test_normalize_hand_values():
    out = normalize(raw([0, 1, 2, 3, 4]))
    expected = [-1.349, -0.674, 0.0, 0.674, 1.349]
    assert out.data[0] == pytest.approx(expected, abs=1e-3)
    assert out.stage == STAGE_NORMALIZED


def test_normalize_contract_median_zero_mad_one():
    rng = np.random.default_rng(0)
    rec = raw(5.0 + 2.5 * rng.standard_normal((4, 3000)))
    out = normalize(rec)
    for chan in out.data:
        assert abs(np.median(chan)) <= 1e-9
        assert mad(chan) == pytest.approx(1.0, abs=1e-9)


def test_normalize_idempotent():
    rng = np.random.default_rng(1)
    once = normalize(raw(rng.standard_normal((2, 999)) * 4 - 2))
    twice = normalize(Recording(data=once.data, rate_hz=once.rate_hz,
                                stage=STAGE_RAW))
    assert np.allclose(twice.data, once.data, atol=1e-12)


def test_normalize_mixed_scales_become_comparable():
    rng = np.random.default_rng(2)
    rec = raw(np.vstack([1000.0 * rng.standard_normal(2000),
                         0.001 * rng.standard_normal(2000)]))
    out = normalize(rec)
    assert mad(out.data[0]) == pytest.approx(1.0, abs=1e-9)
    assert mad(out.data[1]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("samples", [999, 1000])
def test_normalize_matches_two_pass_mad(samples):
    # the median, then mad() taking the median again, as separate passes
    rng = np.random.default_rng(3)
    data = np.vstack([3.0 + 7.0 * rng.standard_normal(samples),
                      np.round(rng.standard_normal(samples)),
                      -2.0 + 1e-3 * rng.standard_normal(samples)])
    out = normalize(raw(data))
    medians = np.median(data, axis=1)
    mads = mad(data, axis=1)
    assert np.array_equal(out.data, (data - medians[:, None]) / mads[:, None])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_normalize_by_a_window_leaves_the_window_bits(data):
    # the first n columns equal the normalized n-sample window, whatever
    # follows it: this is why the model is the same whether its window is
    # cut before or after normalizing
    channels = data.draw(st.integers(1, 3))
    samples = data.draw(st.integers(2, 60))
    n = data.draw(st.integers(1, samples))
    values = st.floats(-1e6, 1e6, allow_nan=False, width=64)
    head = data.draw(arrays(np.float64, (channels, n), elements=values))
    # tail samples within each channel's window range: no further from the
    # median in MAD units than a window sample, so they cannot overflow
    tails = [np.vstack([data.draw(arrays(np.float64, samples - n,
                                         elements=st.floats(chan.min(), chan.max())))
                        for chan in head]) for _ in range(2)]
    try:
        expected = normalize(raw(head)).data
    except DegenerateDataError:
        expected = None
    for tail in tails:
        rec = raw(np.hstack([head, tail]))
        if expected is None:
            with pytest.raises(DegenerateDataError):
                normalize(rec, n)
            continue
        out = normalize(rec, n)
        assert out.data.shape == (channels, samples)
        assert np.array_equal(out.data[:, :n], expected)


def test_normalize_by_a_window_scales_the_rest_alike():
    data = np.array([[0.0, 1, 2, 3, 4, 10, -6]])
    out = normalize(raw(data), 5)
    # median 2 and MAD 1.4826 of the first five samples
    assert np.array_equal(out.data, (data - 2.0) / MAD_SCALE)


@pytest.mark.parametrize("n", [0, -1, 6])
def test_normalize_rejects_a_window_outside_the_recording(n):
    with pytest.raises(ParameterError, match=str(n)):
        normalize(raw([0, 1, 2, 3, 4]), n)


@pytest.mark.parametrize("data", [[3.0, 1.1e-308, 0.0],  # subnormal MAD
                                  [0.0, 0.1, 0.2, 0.3, 1.7e308],  # a sample / MAD
                                  [-1.7e308, 1.7e308, 1.7e308]])  # a deviation
def test_normalize_overflow_is_a_numerical_failure(data):
    with pytest.raises(DegenerateDataError, match="overflow"):
        normalize(raw(data))


def test_normalize_holds_one_scratch_channel():
    # the output (data.nbytes) plus one channel (a quarter of it); a centred
    # (channels, samples) copy would take the peak to 2 * data.nbytes
    data = np.random.default_rng(9).standard_normal((4, 200_000))
    rec = raw(data)
    tracemalloc.start()
    try:
        out = normalize(rec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.data.shape == data.shape
    assert peak < 1.5 * data.nbytes


def test_normalize_zero_mad_names_channel():
    data = np.vstack([np.random.default_rng(4).standard_normal(100),
                      np.full(100, 7.0)])
    with pytest.raises(DegenerateDataError, match="1"):
        normalize(raw(data))


# --- load_normalized: read, then normalize in place ---

def outcome(fn):
    """The bytes of the recording ``fn`` returns, or its error's type and
    message."""
    try:
        rec = fn()
    except PeelSortError as exc:
        return type(exc), str(exc)
    assert rec.stage == STAGE_NORMALIZED
    assert rec.data.flags.c_contiguous and rec.data.flags.owndata
    return rec.data.shape, rec.rate_hz, rec.data.tobytes()


def channel_files(directory, data, gzipped):
    paths = [directory / (f"ch{i}.f64.gz" if gz else f"ch{i}.f64")
             for i, gz in enumerate(gzipped)]
    save_channels(raw(data), paths)
    return paths


def spoil(data, paths, faults):
    """Rewrite the files ``faults`` names: channel -> "nan" (its sample 0
    becomes NaN) or "short" (its last sample is dropped)."""
    for c, fault in faults.items():
        row = data[c].copy()
        if fault == "nan":
            row[0] = np.nan
        payload = row[:-1 if fault == "short" else None].astype("<f8").tobytes()
        paths[c].write_bytes(gzip.compress(payload) if paths[c].suffix == ".gz" else payload)


def windows(samples):
    """A window of [1, samples], or one just outside it."""
    return st.one_of(st.integers(1, samples), st.sampled_from([0, samples + 1]))


# small integers give ties and zero-MAD channels, wide floats overflows
SAMPLE_VALUES = st.one_of(st.integers(-3, 3).map(float),
                          st.floats(-1e6, 1e6, allow_nan=False, width=64),
                          st.sampled_from([1.5e308, -1.5e308, 1e-300]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_load_normalized_equals_load_then_normalize(tmp_path_factory, data):
    channels = data.draw(st.integers(1, 4))
    samples = data.draw(st.integers(1, 40))
    n = data.draw(windows(samples))
    values = data.draw(arrays(np.float64, (channels, samples), elements=SAMPLE_VALUES))
    gzipped = data.draw(st.lists(st.booleans(), min_size=channels, max_size=channels))
    paths = channel_files(tmp_path_factory.mktemp("fused"), values, gzipped)
    # faulty files: their errors come first, as load_recording raises them
    spoil(values, paths, data.draw(st.dictionaries(st.integers(0, channels - 1),
                                                   st.sampled_from(["nan", "short"]),
                                                   max_size=2)))
    expected = outcome(lambda: normalize(load_recording(paths, 1000.0), n))
    assert outcome(lambda: load_normalized(paths, 1000.0, lambda s: n)) == expected
    # the default window is every sample the files hold, short ones too
    assert (outcome(lambda: load_normalized(paths, 1000.0))
            == outcome(lambda: normalize(load_recording(paths, 1000.0))))


@settings(max_examples=90, deadline=None)
@given(st.data())
def test_load_normalized_with_a_filter_equals_highpass_then_normalize(tmp_path_factory, data):
    # 600 Hz is past the Nyquist frequency: a file's error comes before it
    spec = FilterSpec(cutoff_hz=data.draw(st.sampled_from([50.0, 200.0, 600.0])),
                      taps=data.draw(st.sampled_from([3, 7, 15])))
    channels = data.draw(st.integers(1, 4))
    # a recording shorter than the filter, too: its error comes before the window's
    samples = data.draw(st.integers(1, 60))
    n = data.draw(windows(samples))
    values = data.draw(arrays(np.float64, (channels, samples), elements=SAMPLE_VALUES))
    gzipped = data.draw(st.lists(st.booleans(), min_size=channels, max_size=channels))
    paths = channel_files(tmp_path_factory.mktemp("fused"), values, gzipped)
    spoil(values, paths, data.draw(st.dictionaries(st.integers(0, channels - 1),
                                                   st.sampled_from(["nan", "short"]),
                                                   max_size=1)))
    expected = outcome(lambda: normalize(highpass(load_recording(paths, 1000.0), spec), n))
    assert outcome(lambda: load_normalized(paths, 1000.0, lambda s: n, spec)) == expected


def test_a_filter_longer_than_the_recording_is_rejected(tmp_path):
    paths = channel_files(tmp_path, np.arange(10.0).reshape(2, 5), [True, False])
    spec = FilterSpec(cutoff_hz=100.0, taps=7)
    for read in (lambda: highpass(load_recording(paths, 1000.0), spec),
                 lambda: load_normalized(paths, 1000.0, spec=spec)):
        with pytest.raises(ParameterError, match="5 samples are fewer than .* 7 taps"):
            read()


@pytest.mark.parametrize("n", [0, 1, 12, 16])
def test_a_filter_that_overflows_is_a_data_error_before_normalizing(tmp_path, n):
    # channel 1's convolution overflows to infinity; the one-sample window
    # would also give a zero MAD, and windows 0 and 16 are outside the
    # recording: every row is filtered before the window is looked at
    data = np.vstack([np.random.default_rng(1).standard_normal(15),
                      [0.0] * 10 + [1.5e308] * 4 + [-1.5e308]])
    paths = channel_files(tmp_path, data, [False, True])
    spec = FilterSpec(cutoff_hz=50.0, taps=15)
    for read in (lambda: normalize(highpass(load_recording(paths, 1000.0), spec), n),
                 lambda: load_normalized(paths, 1000.0, lambda s: n, spec)):
        with pytest.raises(DataFormatError, match="^recording contains NaN or infinite samples$"):
            read()


def test_load_normalized_errors_name_what_is_wrong(tmp_path):
    rng = np.random.default_rng(3)
    live = rng.standard_normal((3, 50))
    paths = channel_files(tmp_path, live, [True, False, True])
    # a NaN file is named
    paths[1].write_bytes(np.where(np.arange(50) == 7, np.nan, live[1]).astype("<f8").tobytes())
    with pytest.raises(DataFormatError, match=re.escape(f"NaN or infinite samples in {paths[1]}")):
        load_normalized(paths, 1000.0)
    # unequal lengths name every file
    save_channels(raw(live[1, :49]), [paths[1]])
    with pytest.raises(DataFormatError, match=re.escape(
            f"{paths[0]}: 50, {paths[1]}: 49, {paths[2]}: 50")):
        load_normalized(paths, 1000.0)
    # zero MAD names every dead channel
    save_channels(raw(np.vstack([np.full(50, 2.0), live[1], np.full(50, -1.0)])), paths)
    with pytest.raises(DegenerateDataError, match=re.escape("channel(s) 0, 2 have zero MAD")):
        load_normalized(paths, 1000.0)
    # overflow, and a window outside the recording
    save_channels(raw(np.vstack([live[0], [0.0, 0.1, 0.2, 0.3] + [1.7e308] * 46, live[2]])),
                  paths)
    with pytest.raises(DegenerateDataError, match="overflow"):
        load_normalized(paths, 1000.0, lambda s: 4)
    for n in (0, 51):
        with pytest.raises(ParameterError, match=f"window of {n} samples is outside"):
            load_normalized(paths, 1000.0, lambda s: n)


def test_load_normalized_holds_no_decoded_channel_outside_its_row(tmp_path):
    # each file streams into its row: the traced peak is the output, one
    # window-length scratch row and at most 4 MB of slices, inflated pieces
    # and a row's finiteness mask; one decoded 4 MB channel per thread, as a
    # read that inflates a whole file at once holds, would not fit
    data = np.random.default_rng(13).standard_normal((4, 500_000))
    paths = [tmp_path / f"ch{i}.f64.gz" for i in range(4)]
    for path, row in zip(paths, data):
        path.write_bytes(gzip.compress(row.astype("<f8").tobytes(), compresslevel=1))
    window = data.shape[1] // 2
    tracemalloc.start()
    try:
        rec = load_normalized(paths, 1000.0, lambda samples: window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.data.tobytes() == normalize(raw(data, 1000.0), window).data.tobytes()
    assert peak <= data.nbytes + 8 * window + 4 * 2**20


@pytest.mark.parametrize("window,error", [(lambda s: 0, ParameterError),
                                          (lambda s: 4, DegenerateDataError)])
def test_load_normalized_error_in_a_row_leaves_no_thread(tmp_path, window, error):
    # normalizing the first row fails, after every channel is read
    data = np.vstack([[0.0, 0.1, 0.2, 0.3] + [1.7e308] * 4000,
                      *np.random.default_rng(5).standard_normal((3, 4004))])
    paths = channel_files(tmp_path, data, [True] * 4)
    before = threading.active_count()
    with pytest.raises(error):
        load_normalized(paths, 1000.0, window)
    assert threading.active_count() == before


# --- highpass ---

def kernel_gain(kernel, freq_hz, rate_hz):
    """Transfer-function magnitude by direct Fourier sum (reference)."""
    n = np.arange(kernel.size)
    return abs(np.sum(kernel * np.exp(-2j * np.pi * freq_hz * n / rate_hz)))


def test_filterspec_validation():
    with pytest.raises(ParameterError):
        FilterSpec(cutoff_hz=300.0, taps=128)  # even
    with pytest.raises(ParameterError):
        FilterSpec(cutoff_hz=0.0, taps=129)
    for cutoff in (np.nan, np.inf):
        with pytest.raises(ParameterError, match="finite"):
            FilterSpec(cutoff_hz=cutoff, taps=129)
    with pytest.raises(ParameterError):
        highpass_kernel(FilterSpec(cutoff_hz=8000.0, taps=129), rate_hz=15000.0)


def test_highpass_removes_dc():
    spec = FilterSpec(cutoff_hz=300.0, taps=129)
    out = highpass(raw(np.full(4000, 3.7)), spec)
    edge = (spec.taps - 1) // 2
    interior = out.data[0, edge:-edge]
    assert np.max(np.abs(interior)) <= 1e-6


def test_highpass_passband_and_stopband():
    rate, spec = 15000.0, FilterSpec(cutoff_hz=300.0, taps=129)
    t = np.arange(30000) / rate
    for freq, low, high in [(3000.0, 0.95, 1.05), (30.0, 0.0, 0.05)]:
        out = highpass(raw(np.sin(2 * np.pi * freq * t), rate), spec)
        trimmed = out.data[0, spec.taps:-spec.taps]
        amp = np.sqrt(2.0 * np.mean(trimmed ** 2))
        assert low <= amp <= high
        # cross-check against the kernel's transfer function
        gain = kernel_gain(highpass_kernel(spec, rate), freq, rate)
        assert amp == pytest.approx(gain, abs=0.01)


def test_highpass_is_linear():
    rng = np.random.default_rng(6)
    spec = FilterSpec(cutoff_hz=300.0, taps=33)
    x = rng.standard_normal(2000)
    y = rng.standard_normal(2000)
    fx = highpass(raw(x), spec).data[0]
    fy = highpass(raw(y), spec).data[0]
    combined = highpass(raw(2.5 * x + y), spec).data[0]
    assert np.allclose(combined, 2.5 * fx + fy, atol=1e-9)


def test_highpass_preserves_length_and_alignment():
    spec = FilterSpec(cutoff_hz=300.0, taps=129)
    n = 5000
    x = np.zeros(n)
    x[2500] = 1.0
    out = highpass(raw(x), spec)
    assert out.data.shape == (1, n)
    # zero group delay: the impulse response stays centered on the impulse
    assert np.argmax(out.data[0]) == 2500


def test_highpass_requires_raw_stage():
    rec = Recording(data=np.random.default_rng(8).standard_normal((1, 1000)),
                    rate_hz=15000.0, stage=STAGE_NORMALIZED)
    with pytest.raises(ParameterError):
        highpass(rec, FilterSpec(cutoff_hz=300.0, taps=33))
