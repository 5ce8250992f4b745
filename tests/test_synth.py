"""Ground-truth generator: placement accuracy, stream isolation, templates,
and scoring against the truth."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bandlimited_shift
from peelsort.errors import DataFormatError, ParameterError
from peelsort.preprocess import mad
from peelsort.synth import (JITTER_NONE, JITTER_UNIFORM, GroundTruth,
                            JitterModel, NeuronSpec, NoiseModel, dog_template,
                            generate, load_truth_csv, locust_like_neurons,
                            locust_like_scenario, render_spike_train,
                            save_truth_csv, score_sorting, sinc_shift)

QUIET = NoiseModel(sigma=0.0)
NO_JITTER = JitterModel(JITTER_NONE)


def bump_neuron(gains=(1.0,), amp=10.0, sigma=3.0, support=41, rate=2.0):
    gains = np.asarray(gains, dtype=float)
    u = np.arange(support) - support // 2
    rows = gains[:, None] * (amp * np.exp(-0.5 * (u / sigma) ** 2))[None, :]
    return NeuronSpec(template=rows, rate_hz=rate)


# --- sinc_shift ---

def test_sinc_shift_zero_is_identity():
    rng = np.random.default_rng(0)
    row = rng.standard_normal(80)
    assert np.allclose(sinc_shift(row, 0.0), row, atol=1e-12)


def test_sinc_shift_matches_reference_interpolator():
    row = bump_neuron(amp=7.0, sigma=4.0, support=90).template[0]
    for delta in (-0.5, -0.2, 0.31, 0.5):
        assert np.allclose(sinc_shift(row, delta),
                           bandlimited_shift(row, delta), atol=1e-12)


def test_sinc_shift_round_trip_on_smooth_row():
    row = bump_neuron(amp=9.0, sigma=5.0, support=120).template[0]
    back = sinc_shift(sinc_shift(row, 0.3), -0.3)
    interior = slice(35, 85)
    assert np.max(np.abs(back[interior] - row[interior])) <= 1e-4


def test_sinc_shift_rejects_matrix():
    with pytest.raises(ParameterError):
        sinc_shift(np.zeros((2, 50)), 0.1)


# --- placement ---

def test_integer_spike_reproduces_template():
    neuron = bump_neuron(gains=(1.0, 0.5), support=41)
    trace, placed = render_spike_train(neuron, np.array([500.0]), 1000)
    assert placed == [500.0]
    p = neuron.peak_position
    window = trace[:, 500 - p:500 - p + neuron.support_width]
    assert np.allclose(window, neuron.template, atol=1e-12)
    outside = np.abs(trace).sum() - np.abs(window).sum()
    assert outside <= 1e-9


def test_jittered_spike_sits_at_continuous_time():
    # spike at 500.3: the window anchored at 500 sees the waveform pulled
    # 0.3 samples later, i.e. the template evaluated at grid - 0.3
    neuron = bump_neuron(support=41)
    trace, _ = render_spike_train(neuron, np.array([500.3]), 1000)
    p = neuron.peak_position
    window = trace[0, 500 - p:500 - p + neuron.support_width]
    assert np.allclose(window, bandlimited_shift(neuron.template[0], -0.3),
                       atol=1e-10)
    # three-point parabola around the argmax lands near 500.3
    m = int(np.argmax(trace[0]))
    y0, y1, y2 = trace[0, m - 1:m + 2]
    vertex = m + 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2)
    assert vertex == pytest.approx(500.3, abs=0.05)


def test_opposite_jitters_mirror_on_symmetric_template():
    neuron = bump_neuron(support=41)
    plus, _ = render_spike_train(neuron, np.array([500.3]), 1000)
    minus, _ = render_spike_train(neuron, np.array([499.7]), 1000)
    k = np.arange(-60, 61)
    assert np.allclose(plus[0, 500 + k], minus[0, 500 - k], atol=1e-9)


def test_edge_spikes_are_dropped():
    neuron = bump_neuron(support=41)
    trace, placed = render_spike_train(neuron, np.array([5.0, 995.0]), 1000)
    assert placed == []
    assert not trace.any()


# --- generate ---

def test_pure_noise_statistics():
    truth = generate([], NoiseModel(sigma=2.0, ar_coeff=0.4), NO_JITTER,
                     duration_s=10.0, rate_hz=10000.0, seed=3)
    assert truth.spikes == []
    x = truth.recording.data
    assert x.shape == (1, 100000)
    assert mad(x[0]) == pytest.approx(2.0, rel=0.05)
    r1 = np.corrcoef(x[0, :-1], x[0, 1:])[0, 1]
    assert r1 == pytest.approx(0.4, abs=0.05)


def test_spike_counts_near_rate():
    neuron = bump_neuron(rate=3.0)
    truth = generate([neuron], QUIET, NO_JITTER, duration_s=20.0,
                     rate_hz=10000.0, seed=11)
    assert 30 <= len(truth.spikes) <= 95


def test_generate_deterministic():
    a = locust_like_scenario(seed=5)
    b = locust_like_scenario(seed=5)
    assert np.array_equal(a.recording.data, b.recording.data)
    assert a.spikes == b.spikes


def test_adding_a_neuron_keeps_existing_trains():
    n0 = bump_neuron(gains=(1.0, 0.2), rate=2.0)
    n1 = bump_neuron(gains=(0.2, 1.0), amp=6.0, sigma=4.0, rate=3.0)
    solo = generate([n0], QUIET, NO_JITTER, 10.0, 10000.0, seed=21)
    duo = generate([n0, n1], QUIET, NO_JITTER, 10.0, 10000.0, seed=21)
    assert np.array_equal(solo.times_of(0), duo.times_of(0))


def test_trace_is_superposition_of_parts():
    n0 = bump_neuron(gains=(1.0, 0.2), rate=2.0)
    n1 = bump_neuron(gains=(0.2, 1.0), amp=6.0, sigma=4.0, rate=3.0)
    silent = NeuronSpec(template=np.zeros((2, 41)), rate_hz=1.0)
    full = generate([n0, n1], NoiseModel(sigma=1.0, ar_coeff=0.4),
                    JitterModel(JITTER_UNIFORM), 10.0, 10000.0, seed=8)
    signal = generate([n0, n1], QUIET, JitterModel(JITTER_UNIFORM),
                      10.0, 10000.0, seed=8)
    noise = generate([silent, silent], NoiseModel(sigma=1.0, ar_coeff=0.4),
                     NO_JITTER, 10.0, 10000.0, seed=8)
    assert np.allclose(full.recording.data,
                       signal.recording.data + noise.recording.data, atol=1e-12)
    n = full.recording.samples
    parts = np.zeros((2, n))
    for i, neuron in enumerate((n0, n1)):
        contribution, _ = render_spike_train(neuron, full.times_of(i), n)
        parts += contribution
    assert np.allclose(signal.recording.data, parts, atol=1e-12)


def test_no_jitter_times_are_integral():
    neuron = bump_neuron(rate=3.0)
    truth = generate([neuron], QUIET, NO_JITTER, 10.0, 10000.0, seed=4)
    times = truth.times_of(0)
    assert np.all(times == np.round(times))


def test_generate_validation():
    neuron = bump_neuron()
    with pytest.raises(ParameterError):
        generate([neuron], QUIET, NO_JITTER, 0.0, 10000.0, seed=0)
    with pytest.raises(ParameterError):
        generate([neuron], QUIET, NO_JITTER, 10.0, -1.0, seed=0)
    with pytest.raises(ParameterError):
        generate([bump_neuron(gains=(1.0,)), bump_neuron(gains=(1.0, 0.5))],
                 QUIET, NO_JITTER, 10.0, 10000.0, seed=0)


def test_model_validation():
    with pytest.raises(ParameterError):
        NeuronSpec(template=np.zeros((2, 2)), rate_hz=1.0)
    with pytest.raises(ParameterError):
        NeuronSpec(template=np.full((1, 10), np.nan), rate_hz=1.0)
    with pytest.raises(ParameterError):
        NeuronSpec(template=np.zeros((1, 10)), rate_hz=0.0)
    with pytest.raises(ParameterError):
        NoiseModel(sigma=-0.1)
    with pytest.raises(ParameterError):
        NoiseModel(ar_coeff=1.0)
    with pytest.raises(ParameterError):
        JitterModel("gaussian")
    with pytest.raises(ParameterError):
        GroundTruth(spikes=[(0, 50.0), (1, 20.0)],
                    recording=generate([], QUIET, NO_JITTER, 0.01, 10000.0,
                                       seed=0).recording)


# --- spike shapes ---

def test_dog_template_peak_and_trough():
    t = dog_template(np.array([0.5, 1.0]), 12.0, 3.0, lobe_ratio=0.6)
    assert t.shape == (2, 81)
    assert np.max(t[1]) == pytest.approx(12.0, abs=1e-12)
    assert np.max(t[0]) == pytest.approx(6.0, abs=1e-12)
    assert np.min(t[1]) < 0  # side lobes dip below baseline
    assert np.min(t[1]) >= -0.65 * 12.0  # positive peak stays dominant
    assert np.argmax(t[1]) == 40


def test_dog_template_validation():
    with pytest.raises(ParameterError):
        dog_template(np.zeros((2, 2)), 10.0, 3.0)
    with pytest.raises(ParameterError):
        dog_template(np.array([1.0]), 10.0, 3.0, lobe_ratio=1.0)


def test_locust_like_neurons_catalogue_shape():
    neurons = locust_like_neurons()
    assert len(neurons) == 10
    assert all(n.channels == 4 for n in neurons)
    l1 = [np.abs(n.template).sum() for n in neurons]
    assert all(a > b for a, b in zip(l1, l1[1:]))
    rates = [n.rate_hz for n in neurons]
    assert rates == pytest.approx(np.linspace(0.5, 3.0, 10).tolist())
    amps = [np.max(np.abs(n.template)) for n in neurons]
    assert max(amps) == pytest.approx(15.0, abs=1e-9)
    assert min(amps) == pytest.approx(5.0, abs=1e-9)


def test_locust_scenario_shape(locust_truth):
    rec = locust_truth.recording
    assert rec.data.shape == (4, 300000)
    assert rec.rate_hz == 15000.0
    times = [t for _, t in locust_truth.spikes]
    assert all(0 <= t < 300000 for t in times)
    ids = {n for n, _ in locust_truth.spikes}
    assert ids == set(range(10))
    gaps = np.diff(np.array(times))
    assert (gaps < 45).sum() > 0  # the scenario contains superpositions


# --- truth files and scoring ---

def test_truth_csv_round_trip(tmp_path):
    neuron = bump_neuron(rate=3.0)
    truth = generate([neuron], QUIET, JitterModel(JITTER_UNIFORM),
                     5.0, 10000.0, seed=13)
    path = tmp_path / "truth.csv"
    save_truth_csv(truth, path)
    assert load_truth_csv(path) == truth.spikes
    bad = tmp_path / "bad.csv"
    for text in ("wrong,header\n",
                 "neuron,true_time_samples\n0,12.5\n3\n",
                 "neuron,true_time_samples\n0,12.5\n1,soon\n",
                 "neuron,true_time_samples\n0.5,12.5\n"):
        bad.write_text(text)
        with pytest.raises(DataFormatError):
            load_truth_csv(bad)


def test_score_sorting_counts():
    truth = [(0, 100.0), (1, 200.0)]
    score = score_sorting([(0, 100.2), (1, 199.8), (2, 300.0)], truth, tolerance=0.5)
    assert (score["matched"], score["correct"], score["false_positive_frac"]) == (2, 2, 1 / 3)
    # a lone label maps to the neuron it hit, whatever its number
    score = score_sorting([(1, 100.1)], truth, tolerance=0.5)
    assert (score["correct"], score["recovery"], score["mapping"]) == (1, 0.5, {1: 0})
    # one true spike absorbs one report; the second is a false positive
    score = score_sorting([(0, 100.1), (0, 100.3)], truth, tolerance=0.5)
    assert (score["matched"], score["false_positive_frac"]) == (1, 0.5)


def test_score_sorting_maps_permuted_labels(locust_truth):
    truth = locust_truth.spikes
    perm = [3, 7, 0, 9, 1, 8, 2, 6, 4, 5]
    reported = [(perm[n], t + 0.25) for n, t in truth]
    score = score_sorting(reported, truth)
    assert (score["recovery"], score["misassignment"]) == (1.0, 0.0)
    assert score["false_positive_frac"] == 0.0
    assert score["mapping"] == {perm[n]: n for n in range(10)}
    assert score["timing_err_p50"] == score["timing_err_p90"] == pytest.approx(0.25)


def test_score_sorting_rejects_negative_ids():
    with pytest.raises(ParameterError):
        score_sorting([(-1, 10.0)], [(0, 10.0)])


def test_score_sorting_rejects_truth_out_of_time_order():
    # the search for each report's match relies on the true spikes' order
    with pytest.raises(ParameterError, match="time order"):
        score_sorting([(0, 10.0)], [(0, 10.0), (1, 5.0)])
    assert score_sorting([(0, 10.0)], [(1, 5.0), (0, 10.0)])["correct"] == 1


# perfbench/score.py is the benchmark's own scorer, written independently;
# it serves here as the oracle for score_sorting
_ORACLE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "score.py"
_spec = importlib.util.spec_from_file_location("perfbench_score", _ORACLE_PATH)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


@st.composite
def sorting_cases(draw):
    """Truth on a half-sample grid and reports on a quarter-sample grid, so
    exact distance ties and reports within tolerance of two true spikes
    are common; reports carry permuted and sometimes wrong labels."""
    n_neurons = draw(st.integers(1, 4))
    times = sorted(draw(st.lists(st.integers(0, 40), max_size=20)))
    truth = [(draw(st.integers(0, n_neurons - 1)), t / 2) for t in times]
    perm = draw(st.permutations(range(n_neurons)))
    reported = []
    for neuron, t in truth:
        if draw(st.integers(0, 3)):
            label = perm[neuron] if draw(st.integers(0, 3)) else draw(st.integers(0, n_neurons))
            reported.append((label, t + draw(st.integers(-6, 6)) / 4))
    reported += [(label, t / 4) for label, t in draw(st.lists(
        st.tuples(st.integers(0, n_neurons), st.integers(-4, 90)), max_size=6))]
    reported = draw(st.permutations(reported))
    return reported, truth, draw(st.sampled_from([0.25, 0.5, 1.0, 1.5]))


@settings(max_examples=400, deadline=None)
@given(sorting_cases())
@example(([], [], 1.0))
@example(([], [(0, 3.0)], 1.0))
@example(([(1, 5.0)], [], 1.0))
@example(([(0, 5.0), (1, 5.0)], [(0, 4.0), (1, 6.0)], 1.0))
def test_score_sorting_matches_oracle(case):
    reported, truth, tolerance = case
    got = score_sorting(reported, truth, tolerance)
    if truth:
        want = oracle.score([n for n, _ in reported], [t for _, t in reported],
                            [n for n, _ in truth], [t for _, t in truth], tolerance)
    else:
        # the oracle's matcher needs a true spike; with none nothing matches
        want = oracle.rates(len(reported), 0, 0, 0, np.empty(0))
    del want["errors"]
    for key, value in want.items():
        assert type(got[key]) is type(value), key
        assert got[key] == value or (math.isnan(got[key]) and math.isnan(value)), key
