"""Sub-sample offset estimation against band-limited references."""

import numpy as np
import pytest

from conftest import (analytic_gauss_template, bandlimited_shift,
                      centdiff_rows, derivative_recording, gauss_rows,
                      gauss_rows_derivative, grid_delta_reference,
                      normalized_recording, shift_rows, template_waves)
from peelsort.detect import PeakList
from peelsort.errors import DegenerateDataError, ParameterError
from peelsort.events import CutSpec, EventSample, make_cuts
from peelsort.cluster import ClusterResult
from peelsort.ingest import Recording, STAGE_RAW
from peelsort.jitter import aligned_center, build_templates, estimate_jitter
from peelsort.peel import Catalogue


def smooth_template(width=45, amplitude=10.0, sigma=3.0, gains=(1.0, 0.6)):
    return template_waves(gauss_rows(gains, amplitude, sigma, width))


def skewed_template(width=45):
    """Asymmetric smooth bump; breaks the odd/even symmetry of a Gaussian."""
    u = np.arange(width) - width // 2
    row = 10.0 * np.exp(-0.5 * (u / 3.0) ** 2) + 4.0 * np.exp(-0.5 * ((u - 5) / 5.0) ** 2)
    return template_waves(row[None, :])


def linear(g, waves):
    """The linear offset of the event g against the one template of waves."""
    return estimate_jitter(g, waves).delta_linear[0]


def newton(g, waves, delta0):
    """(delta, fallback) of the one Newton step from delta0."""
    fit = estimate_jitter(g, waves, np.array([delta0]))
    return fit.delta[0], fit.fallback[0]


# --- derivative_recording, the reference of the template derivatives ---

def test_derivative_of_ramp_is_constant():
    rec = normalized_recording(3.0 * np.arange(20, dtype=float)[None, :])
    d = derivative_recording(rec)
    assert np.allclose(d.data, 3.0, atol=1e-12)


def test_derivative_of_constant_is_zero():
    rec = normalized_recording(np.full((2, 15), 7.7))
    assert np.all(derivative_recording(rec).data == 0.0)


def test_derivative_exact_for_quadratic():
    i = np.arange(30, dtype=float)
    rec = normalized_recording((i ** 2)[None, :])
    d = derivative_recording(rec)
    assert np.allclose(d.data[0, 1:-1], 2.0 * i[1:-1], atol=1e-9)


def test_derivative_needs_three_samples():
    with pytest.raises(ParameterError):
        derivative_recording(normalized_recording(np.zeros((1, 2))))


# --- build_templates ---

def place_gaussian_events(n_events, amplitude, sigma, deltas, noise_sigma,
                          seed, spacing=120, width=45):
    """Recording of analytically jittered Gaussian bumps at known peaks."""
    rng = np.random.default_rng(seed)
    before = width // 2
    n = spacing * (n_events + 2)
    data = noise_sigma * rng.standard_normal((1, n))
    peaks = []
    u = np.arange(width, dtype=float) - before
    for i in range(n_events):
        at = spacing * (i + 1)
        bump = amplitude * np.exp(-0.5 * ((u + deltas[i]) / sigma) ** 2)
        data[0, at - before:at - before + width] += bump
        peaks.append(at)
    rec = normalized_recording(data)
    return rec, PeakList(indices=np.asarray(peaks))


def single_cluster_result(n):
    return ClusterResult(labels=np.zeros(n, dtype=np.int64),
                         centers=np.zeros((1, 2)), method="kmeans", K=1,
                         n_pruned=0)


def test_template_of_identical_events_is_exact():
    rec, peaks = place_gaussian_events(5, 10.0, 3.0, np.zeros(5),
                                       noise_sigma=0.0, seed=0)
    sample = make_cuts(rec, peaks, CutSpec(before=22, after=22))
    waves = build_templates(rec, sample, single_cluster_result(5))
    assert waves.shape == (3, 1, 1, 45)
    assert np.array_equal(waves[0, 0], sample.cuts[0])


def test_template_median_near_truth_with_jitter_and_noise():
    rng = np.random.default_rng(7)
    deltas = rng.uniform(-0.5, 0.5, 800)
    rec, peaks = place_gaussian_events(800, 10.0, 4.0, deltas,
                                       noise_sigma=0.2, seed=8)
    sample = make_cuts(rec, peaks, CutSpec(before=22, after=22))
    f, f1, _ = build_templates(rec, sample, single_cluster_result(800))[:, 0]
    truth = gauss_rows([1.0], 10.0, 4.0, 45)
    assert np.max(np.abs(f - truth)) <= 0.05
    truth_d1 = gauss_rows_derivative([1.0], 10.0, 4.0, 45)
    assert np.max(np.abs(f1 - truth_d1)) <= 0.1


def test_template_shapes_and_l1():
    rec, peaks = place_gaussian_events(10, 8.0, 3.0, np.zeros(10),
                                       noise_sigma=0.1, seed=9)
    sample = make_cuts(rec, peaks, CutSpec(before=20, after=24))
    waves = build_templates(rec, sample, single_cluster_result(10))
    assert waves.shape == (3, 1, 1, 45)
    cat = Catalogue([0], waves, sample.spec, rec.rate_hz)
    assert cat.l1_size.tolist() == [float(np.abs(waves[0, 0]).sum())]


def test_small_cluster_rejected_by_name():
    rec, peaks = place_gaussian_events(2, 8.0, 3.0, np.zeros(2),
                                       noise_sigma=0.0, seed=10)
    sample = make_cuts(rec, peaks, CutSpec(before=10, after=10))
    with pytest.raises(DegenerateDataError, match="cluster 0"):
        build_templates(rec, sample, single_cluster_result(2))


def test_build_templates_requires_normalized_stage():
    rec = Recording(data=np.zeros((1, 100)) + np.linspace(0, 1, 100),
                    rate_hz=100.0, stage=STAGE_RAW)
    peaks = PeakList(indices=np.array([50]))
    with pytest.raises(ParameterError):
        build_templates(rec, make_cuts, single_cluster_result(1))


def test_build_templates_equal_cuts_of_derivative_traces():
    # windows start at sample 0 and 1 and end at the last and second-to-last
    # sample (as detection with guard 0 can give), plus interior windows;
    # each cluster holds its edge event twice so the median is that event
    rng = np.random.default_rng(11)
    rec = normalized_recording(rng.standard_normal((2, 120)))
    spec = CutSpec(before=6, after=8)
    n = rec.samples
    edge = [spec.before, spec.before + 1, n - 1 - spec.after, n - 2 - spec.after,
            40, 41, 70]
    inner = 60
    peaks = np.repeat(edge, 2).tolist() + [inner] * len(edge)
    labels = np.concatenate([np.repeat(np.arange(len(edge)), 2), np.arange(len(edge))])
    starts = np.asarray(peaks) - spec.before
    sample = EventSample(
        cuts=np.stack([rec.data[:, s:s + spec.width] for s in starts]),
        peaks=np.asarray(peaks), spec=spec)
    result = ClusterResult(labels=labels, centers=np.zeros((len(edge), 2)),
                           method="kmeans", K=len(edge))
    d1 = derivative_recording(rec)
    traces = (rec.data, d1.data, derivative_recording(d1).data)
    waves = build_templates(rec, sample, result)
    for j in range(len(edge)):
        members = starts[labels == j]
        for got, trace in zip(waves[:, j], traces):
            want = np.median(np.stack([trace[:, s:s + spec.width] for s in members]), axis=0)
            assert np.array_equal(got, want)
            assert np.array_equal(got, trace[:, starts[2 * j]:starts[2 * j] + spec.width])


# --- linear estimate ---

def test_linear_zero_for_exact_match():
    t = smooth_template()
    assert linear(t[0, 0], t) == 0.0


def test_linear_exact_on_linear_model():
    t = smooth_template()
    g = t[0, 0] + 0.3 * t[1, 0]
    assert linear(g, t) == pytest.approx(0.3, abs=1e-12)


def test_linear_tracks_bandlimited_shift():
    t = smooth_template()
    g = shift_rows(t[0, 0], 0.25)
    est = linear(g, t)
    assert abs(est - 0.25) <= 0.05
    reference = grid_delta_reference(g, t[0, 0])
    assert abs(reference - 0.25) <= 2e-3


def test_linear_flat_template_rejected():
    flat = np.stack([np.ones((1, 45)), np.zeros((1, 45)), np.zeros((1, 45))])[:, None]
    with pytest.raises(DegenerateDataError, match="template 7"):
        estimate_jitter(np.ones((1, 45)), flat, neuron_ids=[7])
    with pytest.raises(DegenerateDataError, match="template 0"):
        estimate_jitter(np.ones((1, 45)), flat)


def test_linear_antisymmetric_on_even_template():
    t = smooth_template(gains=(1.0,))
    plus = shift_rows(t[0, 0], 0.3)
    minus = shift_rows(t[0, 0], -0.3)
    assert linear(plus, t) == pytest.approx(-linear(minus, t), abs=1e-9)


# --- Newton refinement ---

def test_newton_exact_when_f2_zero():
    f, f1, f2 = smooth_template()[:, 0]
    quadfree = np.stack([f, f1, np.zeros_like(f2)])[:, None]
    g = f + 0.37 * f1
    delta, fallback = newton(g, quadfree, 0.37)
    assert delta == pytest.approx(0.37, abs=1e-12)
    assert not fallback
    # Newton lands on the quadratic's minimizer from any finite start
    assert newton(g, quadfree, -0.2)[0] == pytest.approx(0.37, abs=1e-12)


def test_newton_beats_linear_on_exact_quadratic_model():
    t = skewed_template()
    g = t[0, 0] + 0.3 * t[1, 0] + 0.045 * t[2, 0]
    lin = linear(g, t)
    delta, _ = newton(g, t, lin)
    assert abs(delta - 0.3) < abs(lin - 0.3)
    assert abs(delta - 0.3) < 0.02


def test_newton_on_bandlimited_shift():
    t = smooth_template()
    g = shift_rows(t[0, 0], 0.4)
    est = estimate_jitter(g, t)
    assert abs(est.delta[0] - 0.4) <= 0.05
    assert est.rss_after[0] < np.sum((g - t[0, 0]) ** 2)
    reference = grid_delta_reference(g, t[0, 0])
    assert abs(est.delta[0] - reference) <= 0.05


def test_newton_not_worse_than_linear_on_average():
    # exact derivatives isolate the estimators from differencing error
    t = analytic_gauss_template((1.0, 0.6), 10.0, 3.0, 45)
    lin_err, newt_err = [], []
    for d in (-0.5, -0.25, 0.0, 0.25, 0.5):
        est = estimate_jitter(shift_rows(t[0, 0], d), t)
        lin_err.append(abs(est.delta_linear[0] - d))
        newt_err.append(abs(est.delta[0] - d))
    assert np.mean(newt_err) <= np.mean(lin_err)
    assert max(newt_err) <= 0.05


def test_newton_rss_not_above_linear_rss_when_accepted():
    t = smooth_template()
    for d in (-0.4, -0.1, 0.2, 0.45):
        g = shift_rows(t[0, 0], d)
        est = estimate_jitter(g, t)
        if est.fallback[0]:
            continue
        rss_linear = float(np.sum((g - aligned_center(t, 0, est.delta_linear[0])) ** 2))
        assert est.rss_after[0] <= rss_linear + 1e-12


def test_newton_fallback_on_negative_curvature():
    t = smooth_template()
    g = t[0, 0] + 50.0 * t[2, 0]  # residual aligned with f2 makes h'' negative
    assert newton(g, t, 0.0) == (0.0, True)


def test_newton_fallback_on_out_of_window_step():
    t = smooth_template()
    g = t[0, 0] + 400.0 * t[1, 0]
    lin = linear(g, t)
    assert newton(g, t, lin) == (lin, True)


def test_newton_rejects_non_finite_start():
    t = smooth_template()
    for start in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError, match="finite"):
            newton(t[0, 0], t, start)


def test_fit_rejects_events_of_another_shape():
    t = smooth_template()  # two channels of 45 samples
    for g in (np.zeros((2, 44)), np.zeros((3, 45)), np.zeros((4, 1, 45)), np.zeros(45)):
        with pytest.raises(ParameterError, match="event shape"):
            estimate_jitter(g, t)


# --- aligned_center ---

def test_aligned_center_at_zero_is_f():
    t = smooth_template()
    assert np.array_equal(aligned_center(t, 0, 0.0), t[0, 0])


def test_aligned_center_linear_in_template():
    t = smooth_template()
    assert np.allclose(aligned_center(2 * t, 0, 0.3),
                       2.0 * aligned_center(t, 0, 0.3), atol=1e-12)


def test_aligned_center_of_many_rows_stacks_single_rows():
    waves = np.concatenate([smooth_template(), skewed_template().repeat(2, axis=2)], axis=1)
    rows, deltas = np.array([1, 0, 1]), np.array([0.3, -0.45, 0.0])
    stacked = aligned_center(waves, rows, deltas)
    assert stacked.shape == (3, 2, 45)
    for got, k, d in zip(stacked, rows, deltas):
        f, f1, f2 = waves[:, k]
        assert got.tobytes() == (f + d * f1 + 0.5 * d * d * f2).tobytes()
        assert got.tobytes() == aligned_center(waves, k, d).tobytes()


def test_aligned_center_cancels_most_of_shift():
    t = smooth_template()
    g = shift_rows(t[0, 0], 0.35)
    est = estimate_jitter(g, t)
    residual = g - aligned_center(t, 0, est.delta[0])
    raw = g - t[0, 0]
    assert np.sum(residual ** 2) < 0.05 * np.sum(raw ** 2)


# --- variance law (small-scale; the full check runs in the acceptance suite) ---

def test_pointwise_std_tracks_derivative():
    rng = np.random.default_rng(20)
    width = 45
    u = np.arange(width) - width // 2
    amp, sigma = 10.0, 3.0
    deltas = rng.uniform(-0.5, 0.5, 4000)
    events = amp * np.exp(-0.5 * ((u[None, :] + deltas[:, None]) / sigma) ** 2)
    std = events.std(axis=0, ddof=1)
    derivative = np.abs(-amp * (u / sigma ** 2) * np.exp(-0.5 * (u / sigma) ** 2))
    sigma_delta = 1.0 / np.sqrt(12.0)
    strong = derivative >= 0.2 * derivative.max()
    rel = np.abs(std[strong] - sigma_delta * derivative[strong]) / (
        sigma_delta * derivative[strong])
    assert np.max(rel) <= 0.15
