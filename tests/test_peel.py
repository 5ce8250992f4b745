"""Classify-and-subtract loop, catalogue persistence, spike exports."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (classify_reference, gauss_rows, jitter_reference,
                      normalized_recording, peel_reference, shift_rows,
                      template_from_rows)
from peelsort.detect import DetectionParams
from peelsort.errors import DataFormatError, DegenerateDataError, ParameterError
from peelsort.events import CutSpec
from peelsort.ingest import STAGE_RESIDUAL
from peelsort.jitter import Template, fit_jitter
from peelsort.peel import (CATALOGUE_MAGIC, Catalogue,
                           ClassificationDecision, SpikeTrain, classify_event,
                           classify_events, export_spikes_csv,
                           export_unclassified_csv, load_catalogue, peel,
                           save_catalogue, subtract_spike,
                           unclassified_rate_per_round)

WIDTH = 45
SPEC = CutSpec(before=22, after=22)


def two_channel_catalogue():
    rows = [gauss_rows((1.0, 0.5), 15.0, 3.0, WIDTH),
            gauss_rows((0.4, 1.0), 10.0, 4.0, WIDTH),
            gauss_rows((0.8, 0.9), 8.0, 2.5, WIDTH)]
    templates = [template_from_rows(i, r) for i, r in enumerate(rows)]
    return Catalogue(templates=templates, spec=SPEC, channels=2, rate_hz=15000.0)


def place(data, cat, neuron_id, at, delta=0.0):
    """Spike at time at + delta: the window anchored at `at` sees f(t - delta)."""
    f = cat.template_for(neuron_id).f
    block = f if delta == 0.0 else shift_rows(f, -delta)
    data[:, at - SPEC.before:at + SPEC.after + 1] += block


# --- classify_event ---

def test_classify_exact_match():
    cat = two_channel_catalogue()
    dec = classify_event(cat.templates[2].f.copy(), cat, peak_index=123)
    assert dec.classified
    assert dec.neuron_id == 2
    assert abs(dec.delta) <= 1e-12
    assert dec.rss_best <= 1e-18
    assert dec.peak_index == 123
    assert dec.corrected_time() == pytest.approx(123.0, abs=1e-12)


def test_classify_small_noise_rejected():
    cat = two_channel_catalogue()
    rng = np.random.default_rng(4)
    g = 0.1 * rng.standard_normal((2, WIDTH))
    dec = classify_event(g, cat)
    assert not dec.classified
    assert dec.neuron_id is None and dec.delta is None and dec.rss_best is None
    with pytest.raises(ParameterError):
        dec.corrected_time()


def test_classify_shifted_noisy_event():
    cat = two_channel_catalogue()
    rng = np.random.default_rng(5)
    g = shift_rows(cat.templates[0].f, 0.3) + 0.1 * rng.standard_normal((2, WIDTH))
    dec = classify_event(g, cat)
    assert dec.classified
    assert dec.neuron_id == 0
    assert abs(dec.delta - 0.3) <= 0.15
    assert dec.rss_best < dec.rss_before


def test_classify_acceptance_factor_widens_and_narrows():
    cat = two_channel_catalogue()
    g = 0.5 * cat.templates[2].f  # best residual about equals event energy
    assert classify_event(g, cat, acceptance_factor=1.5).classified
    assert not classify_event(g, cat, acceptance_factor=0.5).classified


def test_classify_tie_takes_first_template():
    rows = gauss_rows((1.0, 0.5), 12.0, 3.0, WIDTH)
    twins = [template_from_rows(7, rows), template_from_rows(9, rows)]
    cat = Catalogue(templates=twins, spec=SPEC, channels=2, rate_hz=15000.0)
    assert classify_event(rows.copy(), cat).neuron_id == 7


def test_classify_shape_mismatch():
    cat = two_channel_catalogue()
    with pytest.raises(ParameterError):
        classify_event(np.zeros((2, WIDTH - 1)), cat)
    with pytest.raises(ParameterError):
        classify_event(np.zeros((3, WIDTH)), cat)


def _linear_start(g, t):
    """The scalar oracle's linear start, computed as it computes it."""
    return float(np.sum((g - t.f) * t.f1) / float(np.sum(t.f1 * t.f1)))


def _well_posed(g, t):
    """Whether the Newton step of t on g is set by the data, not by
    rounding: the curvature h'' at the linear start, a difference of sums,
    is more than 1e-4 of the larger sum.  It is not near g = 0, where
    sum(f * f2) cancels sum(f1^2)."""
    start = _linear_start(g, t)
    r = g - t.f - start * t.f1 - 0.5 * start * start * t.f2
    slope = t.f1 + start * t.f2
    terms = float(np.sum(slope * slope)), float(np.sum(r * t.f2))
    return abs(terms[0] - terms[1]) > 1e-4 * max(map(abs, terms))


def _assert_fit_matches_loop(g, cat, acceptance_factor):
    """The inner-product fit against the scalar oracle: the same neuron
    and verdict, and, where the Newton step is well posed, offsets within
    1e-9 samples, the same fallbacks, and residuals within 1e-9 relative
    plus 1e-12 * sum(g^2), the rounding that both carry when a template
    explains g almost exactly."""
    fit = fit_jitter(g, cat.stack)
    energy = float(np.sum(g * g))

    def close(delta, rss, want):
        return (abs(delta - want[0]) <= 1e-9
                and abs(rss - want[1]) <= 1e-9 * want[1] + 1e-12 * energy)

    for j, t in enumerate(cat.templates):
        if _well_posed(g, t):
            want = jitter_reference(g, t)
            assert close(fit.delta[j], fit.rss_after[j], want)
            # the oracle keeps its linear start when it falls back
            assert fit.fallback[j] <= (want[0] == _linear_start(g, t))
    dec = classify_event(g, cat, acceptance_factor)
    neuron_id, delta, rss = classify_reference(g, cat.templates, acceptance_factor)
    assert dec.neuron_id == neuron_id
    if neuron_id is not None and _well_posed(g, cat.template_for(neuron_id)):
        assert close(dec.delta, dec.rss_best, (delta, rss))
    return fit


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_classify_matches_template_loop(data):
    cat = two_channel_catalogue()
    t = cat.templates[data.draw(st.integers(0, len(cat.templates) - 1))]
    # wide f1 and f2 terms reach both Newton fallbacks
    coef = [data.draw(st.floats(-2.0, 2.0)), data.draw(st.floats(-500.0, 500.0)),
            data.draw(st.floats(-80.0, 80.0)), data.draw(st.floats(0.0, 4.0))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = (coef[0] * t.f + coef[1] * t.f1 + coef[2] * t.f2
         + coef[3] * rng.standard_normal((2, WIDTH)))
    # events are cut from the trace as non-contiguous views
    trace = np.zeros((2, 3 * WIDTH))
    trace[:, WIDTH:2 * WIDTH] = g
    _assert_fit_matches_loop(trace[:, WIDTH:2 * WIDTH], cat,
                             data.draw(st.floats(0.25, 2.0)))


def test_fit_fallbacks_match_loop():
    cat = two_channel_catalogue()
    t = cat.templates[1]
    curved = _assert_fit_matches_loop(t.f + 50.0 * t.f2, cat, 1.0)
    assert curved.fallback[1] and curved.delta[1] == curved.delta_linear[1]
    far = _assert_fit_matches_loop(t.f + 400.0 * t.f1, cat, 0.5)
    assert far.fallback[1] and far.delta[1] == far.delta_linear[1]
    assert abs(far.delta_linear[1]) > WIDTH / 2.0


def _assert_batch_matches_singles(batch, cat, acceptance_factor=1.0):
    """fit_jitter and classify_events of an (N, C, W) batch equal N
    single-event calls exactly."""
    fit = fit_jitter(batch, cat.stack)
    assert fit.delta.shape == (len(batch), len(cat.templates))
    for i, g in enumerate(batch):
        one = fit_jitter(g, cat.stack)
        for name in ("delta", "delta_linear", "rss_after", "fallback"):
            assert np.array_equal(getattr(fit, name)[i], getattr(one, name)), name
    peaks = np.arange(len(batch)) + 1000
    assert (classify_events(batch, cat, acceptance_factor, peaks)
            == [classify_event(g, cat, acceptance_factor, peak_index=int(p))
                for g, p in zip(batch, peaks)])
    return fit


def _window_batch(trace, starts, layout):
    """Windows of the trace at ``starts`` as an (N, C, WIDTH) array."""
    if layout == "view":  # equally spaced starts: a strided view into the trace
        step = int(starts[1] - starts[0]) if len(starts) > 1 else 1
        windows = np.lib.stride_tricks.sliding_window_view(trace, WIDTH, axis=1)
        batch = windows[:, starts[0]::step][:, :len(starts)].transpose(1, 0, 2)
        assert np.shares_memory(batch, trace)
        return batch
    gathered = trace[np.arange(trace.shape[0])[None, :, None],
                     np.asarray(starts)[:, None, None] + np.arange(WIDTH)]
    if layout == "transposed":  # stored channel-major
        return np.ascontiguousarray(gathered.transpose(1, 0, 2)).transpose(1, 0, 2)
    return gathered


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_batch_fit_matches_single_fits(data):
    cat = two_channel_catalogue()
    n = data.draw(st.integers(1, 12))
    step = data.draw(st.integers(1, 2 * WIDTH))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    trace = data.draw(st.floats(0.0, 4.0)) * rng.standard_normal((2, (n + 2) * step + 2 * WIDTH))
    starts = WIDTH + step * np.arange(n)
    for s in starts:
        t = cat.templates[data.draw(st.integers(0, len(cat.templates) - 1))]
        # wide f1 and f2 terms reach both Newton fallbacks
        trace[:, s:s + WIDTH] += (data.draw(st.floats(-2.0, 2.0)) * t.f
                                  + data.draw(st.floats(-500.0, 500.0)) * t.f1
                                  + data.draw(st.floats(-80.0, 80.0)) * t.f2)
    batch = _window_batch(trace, starts,
                          data.draw(st.sampled_from(["view", "transposed", "gathered"])))
    _assert_batch_matches_singles(batch, cat, data.draw(st.floats(0.25, 2.0)))


@pytest.mark.parametrize("layout", ["view", "transposed", "gathered"])
def test_batch_fit_fallbacks_match_single_fits(layout):
    cat = two_channel_catalogue()
    t = cat.templates[1]
    events = [t.f + 50.0 * t.f2, t.f + 400.0 * t.f1, t.f, cat.templates[0].f]
    trace = np.zeros((2, (len(events) + 2) * WIDTH))
    starts = WIDTH * np.arange(1, len(events) + 1)
    for s, g in zip(starts, events):
        trace[:, s:s + WIDTH] = g
    fit = _assert_batch_matches_singles(_window_batch(trace, starts, layout), cat)
    assert fit.fallback[:, 1].tolist() == [True, True, False, False]
    assert fit.delta[0, 1] == fit.delta_linear[0, 1]
    assert abs(fit.delta_linear[1, 1]) > WIDTH / 2.0


def test_classify_events_checks_its_arguments():
    cat = two_channel_catalogue()
    with pytest.raises(ParameterError, match="event shape"):
        classify_events(np.zeros((4, 2, WIDTH - 1)), cat, 1.0, [0, 1, 2, 3])
    with pytest.raises(ParameterError, match="peak indices"):
        classify_events(np.zeros((4, 2, WIDTH)), cat, 1.0, [0, 1, 2])
    assert classify_events(np.zeros((0, 2, WIDTH)), cat, 1.0, []) == []


def test_classify_flat_template_is_degenerate():
    rows = gauss_rows((1.0, 0.5), 12.0, 3.0, WIDTH)
    flat = Template(neuron_id=4, f=np.ones((2, WIDTH)), f1=np.zeros((2, WIDTH)),
                    f2=np.zeros((2, WIDTH)), l1_size=2.0 * WIDTH)
    cat = Catalogue(templates=[template_from_rows(3, rows), flat], spec=SPEC,
                    channels=2, rate_hz=15000.0)
    with pytest.raises(DegenerateDataError, match="template 4"):
        classify_event(rows.copy(), cat)


# --- subtract_spike ---

def test_subtract_zeroes_exact_window():
    cat = two_channel_catalogue()
    data = np.zeros((2, 400))
    place(data, cat, 1, 200)
    dec = classify_event(data[:, 200 - SPEC.before:200 + SPEC.after + 1].copy(),
                         cat, peak_index=200)
    assert subtract_spike(data, dec, cat) is None
    assert np.max(np.abs(data)) <= 1e-9


def test_subtract_window_energy_drop_matches_rss():
    cat = two_channel_catalogue()
    rng = np.random.default_rng(6)
    data = rng.standard_normal((2, 400))
    place(data, cat, 0, 180, delta=0.2)
    original = data.copy()
    window = np.s_[:, 180 - SPEC.before:180 + SPEC.after + 1]
    dec = classify_event(data[window], cat, peak_index=180)
    subtract_spike(data, dec, cat)
    assert np.sum(data[window] ** 2) == pytest.approx(dec.rss_best, rel=1e-12)
    outside = np.delete(np.arange(400), np.arange(180 - SPEC.before, 180 + SPEC.after + 1))
    assert np.array_equal(data[:, outside], original[:, outside])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fit_residual_is_the_energy_left_by_subtraction(data):
    # the closed-form residual of every template equals the energy that
    # subtracting it at the fitted offset leaves in the window; events
    # in the model (amplitude 1, c = b^2/2) leave almost nothing
    cat = two_channel_catalogue()
    t = cat.templates[data.draw(st.integers(0, len(cat.templates) - 1))]
    a, b = data.draw(st.floats(-2.0, 2.0)), data.draw(st.floats(-3.0, 3.0))
    if data.draw(st.booleans()):
        a, c = 1.0, 0.5 * b * b
    else:
        c = data.draw(st.floats(-5.0, 5.0))
    noise = data.draw(st.sampled_from([0.0, 0.1, 1.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = a * t.f + b * t.f1 + c * t.f2 + noise * rng.standard_normal((2, WIDTH))
    energy = float(np.sum(g * g))
    fit = fit_jitter(g, cat.stack)
    assert (fit.rss_after >= 0.0).all()
    decisions = [ClassificationDecision(100, energy, u.neuron_id, float(fit.delta[k]),
                                        float(fit.rss_after[k]))
                 for k, u in enumerate(cat.templates)]
    dec = classify_event(g, cat, peak_index=100)
    if dec.classified:
        decisions.append(dec)
    for d in decisions:
        trace = np.zeros((2, 200))
        trace[:, 100 - SPEC.before:100 + SPEC.after + 1] = g
        subtract_spike(trace, d, cat)
        left = float(np.sum(trace * trace))
        assert abs(d.rss_best - left) <= 1e-9 * left + 1e-12 * energy


def test_subtract_skips_out_of_bounds_window():
    cat = two_channel_catalogue()
    data = np.ones((2, 100))
    for peak_index in (3, 90):  # window leaves the trace on the left, on the right
        dec = ClassificationDecision(peak_index=peak_index, rss_before=1.0, neuron_id=0,
                                     delta=0.0, rss_best=0.5)
        subtract_spike(data, dec, cat)
    assert np.array_equal(data, np.ones((2, 100)))


def test_subtract_requires_classified_decision():
    cat = two_channel_catalogue()
    with pytest.raises(ParameterError):
        subtract_spike(np.zeros((2, 100)),
                       ClassificationDecision(peak_index=50, rss_before=1.0), cat)


def test_residual_after_first_component_matches_second():
    cat = two_channel_catalogue()
    data = np.zeros((2, 500))
    place(data, cat, 0, 300)
    place(data, cat, 2, 308)
    window_a = np.s_[:, 300 - SPEC.before:300 + SPEC.after + 1]
    dec = classify_event(data[window_a], cat, peak_index=300)
    assert dec.neuron_id == 0
    subtract_spike(data, dec, cat)
    cut_b = data[:, 308 - SPEC.before:308 + SPEC.after + 1]
    f_b = cat.template_for(2).f
    corr = np.sum(cut_b * f_b) / np.sqrt(np.sum(cut_b ** 2) * np.sum(f_b ** 2))
    assert corr >= 0.9


# --- peel ---

def test_peel_pure_noise_terminates_immediately():
    rng = np.random.default_rng(13)
    rec = normalized_recording(rng.standard_normal((2, 6000)))
    cat = two_channel_catalogue()
    train, decisions, residual = peel(rec, cat, DetectionParams())
    assert len(train) == 0
    assert all(not d.classified for d in decisions)
    assert all(d.round == 0 for d in decisions)
    assert np.array_equal(residual.data, rec.data)
    assert residual.stage == STAGE_RESIDUAL


def test_peel_two_isolated_spikes():
    rng = np.random.default_rng(14)
    data = rng.standard_normal((2, 3000))
    cat = two_channel_catalogue()
    place(data, cat, 0, 600, delta=0.3)
    place(data, cat, 2, 1500, delta=-0.25)
    rec = normalized_recording(data)
    train, decisions, residual = peel(rec, cat, DetectionParams())
    accepted = [d for d in decisions if d.classified]
    assert len(accepted) == 2
    assert sorted(train.neurons().tolist()) == [0, 2]
    by_neuron = {n: t for n, t, _ in train.entries}
    assert by_neuron[0] == pytest.approx(600.3, abs=0.5)
    assert by_neuron[2] == pytest.approx(1499.75, abs=0.5)
    assert np.sum(residual.data ** 2) < np.sum(rec.data ** 2)


def test_peel_superposition_resolved_in_few_rounds():
    # these two templates share both channels, so the overlapping partner
    # contaminates each one-step fit; ids and round count must still hold,
    # timing degrades to about a sample
    rng = np.random.default_rng(15)
    data = 0.3 * rng.standard_normal((2, 2000))
    cat = two_channel_catalogue()
    place(data, cat, 0, 800)
    place(data, cat, 1, 808)
    rec = normalized_recording(data)
    train, decisions, _ = peel(rec, cat, DetectionParams())
    assert sorted(train.neurons().tolist()) == [0, 1]
    by_neuron = {n: t for n, t, _ in train.entries}
    assert by_neuron[0] == pytest.approx(800.0, abs=1.5)
    assert by_neuron[1] == pytest.approx(808.0, abs=1.5)
    assert max(d.round for d in decisions if d.classified) <= 2


def test_peel_residual_is_fixed_point():
    rng = np.random.default_rng(16)
    data = rng.standard_normal((2, 3000))
    cat = two_channel_catalogue()
    place(data, cat, 0, 700)
    place(data, cat, 1, 2100, delta=0.4)
    rec = normalized_recording(data)
    _, _, residual = peel(rec, cat, DetectionParams())
    train2, _, residual2 = peel(residual, cat, DetectionParams())
    assert len(train2) == 0
    assert np.array_equal(residual2.data, residual.data)


def test_peel_every_event_decided_exactly_once():
    rng = np.random.default_rng(17)
    data = rng.standard_normal((2, 4000))
    cat = two_channel_catalogue()
    for at, nid in ((500, 0), (900, 1), (1400, 2), (2500, 0)):
        place(data, cat, nid, at)
    rec = normalized_recording(data)
    train, decisions, _ = peel(rec, cat, DetectionParams())
    n_accept = sum(1 for d in decisions if d.classified)
    n_reject = sum(1 for d in decisions if not d.classified)
    assert n_accept + n_reject == len(decisions)
    assert n_accept == len(train)
    rounds = sorted({d.round for d in decisions})
    assert rounds == list(range(len(rounds)))


def test_peel_requires_normalized_or_residual_stage():
    cat = two_channel_catalogue()
    raw = normalized_recording(np.zeros((2, 500)))
    raw = raw.with_data(raw.data, "raw")
    with pytest.raises(ParameterError):
        peel(raw, cat, DetectionParams())
    with pytest.raises(ParameterError):
        peel(normalized_recording(np.zeros((2, 500))), cat,
             DetectionParams(), max_rounds=0)


@pytest.mark.parametrize("factor", [0.0, -1.0, float("nan")])
def test_peel_rejects_non_positive_acceptance_factor(factor):
    # a factor <= 0 can accept no event: the run would end with every event unclassified
    with pytest.raises(ParameterError, match="acceptance_factor"):
        peel(normalized_recording(np.zeros((2, 500))), two_channel_catalogue(),
             DetectionParams(), acceptance_factor=factor)


def test_unclassified_rate_per_round():
    def dec(rnd, classified):
        if classified:
            d = ClassificationDecision(peak_index=0, rss_before=1.0,
                                       neuron_id=0, delta=0.0, rss_best=0.5)
        else:
            d = ClassificationDecision(peak_index=0, rss_before=1.0)
        d.round = rnd
        return d

    rates = unclassified_rate_per_round(
        [dec(0, True), dec(0, True), dec(0, False), dec(1, True)])
    assert rates == {0: pytest.approx(1 / 3), 1: 0.0}


# --- SpikeTrain and decision invariants ---

def test_spike_train_rejects_unsorted():
    with pytest.raises(ParameterError):
        SpikeTrain(entries=[(0, 10.0, 0), (1, 5.0, 0)])


def test_decision_validation():
    with pytest.raises(ParameterError):
        ClassificationDecision(peak_index=0, rss_before=1.0, neuron_id=1)
    with pytest.raises(ParameterError):
        ClassificationDecision(peak_index=0, rss_before=1.0, neuron_id=1,
                               delta=np.nan, rss_best=1.0)


# --- catalogue container and persistence ---

def test_catalogue_validation():
    cat = two_channel_catalogue()
    with pytest.raises(ParameterError):
        Catalogue(templates=[], spec=SPEC, channels=2, rate_hz=15000.0)
    with pytest.raises(ParameterError):
        Catalogue(templates=list(reversed(cat.templates)), spec=SPEC,
                  channels=2, rate_hz=15000.0)
    with pytest.raises(ParameterError):
        Catalogue(templates=cat.templates, spec=SPEC, channels=3, rate_hz=15000.0)
    with pytest.raises(ParameterError):
        Catalogue(templates=cat.templates, spec=SPEC, channels=2, rate_hz=0.0)
    with pytest.raises(ParameterError):
        cat.template_for(99)
    # a second template for neuron 1
    twin = template_from_rows(1, gauss_rows((0.4, 1.0), 10.0, 4.0, WIDTH))
    with pytest.raises(ParameterError, match="distinct"):
        Catalogue(templates=cat.templates[:2] + [twin], spec=SPEC, channels=2,
                  rate_hz=15000.0)


def test_catalogue_round_trip(tmp_path):
    cat = two_channel_catalogue()
    path = tmp_path / "catalogue.txt"
    save_catalogue(cat, path)
    back = load_catalogue(path)
    assert back.channels == cat.channels
    assert back.rate_hz == cat.rate_hz
    assert (back.spec.before, back.spec.after) == (SPEC.before, SPEC.after)
    assert len(back.templates) == 3
    for a, b in zip(cat.templates, back.templates):
        assert b.neuron_id == a.neuron_id
        assert b.l1_size == a.l1_size
        assert np.array_equal(b.f, a.f)
        assert np.array_equal(b.f1, a.f1)
        assert np.array_equal(b.f2, a.f2)


def catalogue_lines(tmp_path):
    cat = two_channel_catalogue()
    path = tmp_path / "catalogue.txt"
    save_catalogue(cat, path)
    return path, path.read_text().splitlines()


def test_load_rejects_bad_magic(tmp_path):
    path, lines = catalogue_lines(tmp_path)
    path.write_text("\n".join(["something else"] + lines[1:]) + "\n")
    with pytest.raises(DataFormatError, match="magic"):
        load_catalogue(path)


def test_load_rejects_truncation(tmp_path):
    path, lines = catalogue_lines(tmp_path)
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DataFormatError):
        load_catalogue(path)


def test_load_rejects_width_mismatch(tmp_path):
    path, lines = catalogue_lines(tmp_path)
    lines[2] = "width 44"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="width"):
        load_catalogue(path)


def test_load_rejects_repeated_neuron_id(tmp_path):
    path, lines = catalogue_lines(tmp_path)
    lines[lines.index("neuron 2")] = "neuron 1"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="distinct"):
        load_catalogue(path)


def test_load_rejects_trailing_content(tmp_path):
    path, lines = catalogue_lines(tmp_path)
    path.write_text("\n".join(lines + ["extra junk"]) + "\n")
    with pytest.raises(DataFormatError, match="trailing"):
        load_catalogue(path)


def test_load_rejects_wrong_channel_tag(tmp_path):
    path, lines = catalogue_lines(tmp_path)
    first_f = next(i for i, l in enumerate(lines) if l.startswith("f 0 "))
    lines[first_f] = "f 7 " + lines[first_f][4:]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError):
        load_catalogue(path)


def test_load_rejects_bad_float(tmp_path):
    path, lines = catalogue_lines(tmp_path)
    first_f = next(i for i, l in enumerate(lines) if l.startswith("f 0 "))
    cells = lines[first_f].split()
    cells[5] = "not-a-number"
    lines[first_f] = " ".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError):
        load_catalogue(path)


@pytest.mark.parametrize("prefix,cell,value", [
    ("rate_hz ", 1, "nan"), ("rate_hz ", 1, "inf"), ("l1_size ", 1, "nan"),
    ("l1_size ", 1, "inf"), ("f 0 ", 5, "nan"), ("f1 1 ", 3, "inf"), ("f2 0 ", 2, "-inf"),
])
def test_load_rejects_non_finite_value(tmp_path, prefix, cell, value):
    path, lines = catalogue_lines(tmp_path)
    row = next(i for i, l in enumerate(lines) if l.startswith(prefix))
    cells = lines[row].split()
    cells[cell] = value
    lines[row] = " ".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError):
        load_catalogue(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(DataFormatError):
        load_catalogue(tmp_path / "nope.txt")


# --- CSV exports ---

def test_spike_csv_round_trip(tmp_path):
    d1 = ClassificationDecision(peak_index=600, rss_before=100.0, neuron_id=0,
                                delta=0.25, rss_best=3.5)
    d2 = ClassificationDecision(peak_index=900, rss_before=50.0)
    d3 = ClassificationDecision(peak_index=1500, rss_before=80.0, neuron_id=2,
                                delta=-0.1, rss_best=2.0)
    d3.round = 1
    path = tmp_path / "spikes.csv"
    export_spikes_csv([d1, d2, d3], 15000.0, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("round,neuron,peak_index,delta,")
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert cells[:3] == ["0", "0", "600"]
    assert float(cells[4]) == 599.75  # spike sits delta samples before the anchor
    assert float(cells[5]) == pytest.approx(599.75 / 15000.0, rel=1e-15)
    assert lines[2].split(",")[:3] == ["1", "2", "1500"]

    upath = tmp_path / "unclassified.csv"
    export_unclassified_csv([d1, d2, d3], upath)
    ulines = upath.read_text().splitlines()
    assert ulines == ["round,peak_index,rss", "0,900,50"]


def waves(decisions, width):
    """Each decision's place in its run of windows, each window overlapping
    the one before (peaks fewer than width apart), within its round."""
    out, prev = [], None
    for d in decisions:
        run_on = (prev is not None and d.round == prev.round
                  and d.peak_index - prev.peak_index < width)
        out.append(out[-1] + 1 if run_on else 0)
        prev = d
    return out


def test_peel_looks_up_traced_names_in_its_module(monkeypatch):
    # perfbench/tracing.py wraps these names in the peelsort.peel namespace;
    # peel detects through its own aggregate, so it never calls detect, and
    # takes the detection scale once for all rounds.  Every event is fitted
    # once, by classify_events, one call per wave of windows that overlap
    # none of each other
    module = importlib.import_module("peelsort.peel")
    for name in ("detect", "classify_event", "estimate_jitter"):
        assert callable(getattr(module, name))
    calls = {"detect": 0, "detection_scale": 0, "classify_event": 0}
    fits = []

    def counting(name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def batch(cuts, cat, acceptance_factor, peaks):
        fits.append(classify_events(cuts, cat, acceptance_factor, peaks))
        return fits[-1]

    for name in calls:
        monkeypatch.setattr(module, name, counting(name))
    monkeypatch.setattr(module, "classify_events", batch)
    cat = two_channel_catalogue()
    data = np.random.default_rng(14).standard_normal((2, 3000))
    # a run of three windows, two runs WIDTH apart and a run of two
    # windows WIDTH - 1 apart (peaks found at 2201 and 2245)
    for neuron_id, at, delta in [(0, 600, 0.3), (1, 630, 0.0), (2, 660, 0.0),
                                 (2, 1500, -0.25), (0, 1500 + WIDTH, 0.0),
                                 (1, 2200, 0.0), (0, 2200 + WIDTH, 0.0)]:
        place(data, cat, neuron_id, at, delta)
    train, decisions, _ = module.peel(normalized_recording(data), cat, DetectionParams())
    assert len(train) == 7  # accepted in round 0, so a second round ran
    assert calls == {"detect": 0, "detection_scale": 1, "classify_event": 0}
    assert sum(len(fit) for fit in fits) == len(decisions)
    assert [d.peak_index for d in decisions] == [600, 630, 660, 1500, 1545, 2201, 2245]
    call = {id(d): k for k, fit in enumerate(fits) for d in fit}
    for fit in fits:
        assert all(b.peak_index - a.peak_index >= WIDTH for a, b in zip(fit, fit[1:]))
    # a window overlapping no earlier window of its round is fitted in the
    # round's first call, any other after every earlier window it overlaps
    for d, wave in zip(decisions, waves(decisions, WIDTH)):
        first = min(call[id(e)] for e in decisions if e.round == d.round)
        assert (call[id(d)] == first) == (wave == 0)
        for e in decisions:
            if e.round == d.round and 0 < d.peak_index - e.peak_index < WIDTH:
                assert call[id(d)] > call[id(e)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_peel_matches_full_detection_every_round(data):
    polarity = data.draw(st.sampled_from(["max", "min", "both"]))
    p = DetectionParams(box_width=data.draw(st.sampled_from([1, 3, 5, 7, 9])),
                        threshold=data.draw(st.floats(2.0, 5.0)),
                        min_separation=data.draw(st.integers(5, 30)),
                        guard=data.draw(st.integers(0, 30)), polarity=polarity)
    # the broad template is far from zero at the edges of its window, so
    # subtracting it moves the aggregate up to box_width // 2 outside them
    broad = template_from_rows(3, gauss_rows((0.9, 1.0), 9.0, 12.0, WIDTH))
    cat = Catalogue(templates=sorted(two_channel_catalogue().templates + [broad],
                                     key=lambda t: -t.l1_size),
                    spec=SPEC, channels=2, rate_hz=15000.0)
    n = data.draw(st.integers(300, 1200))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    trace = 0.3 * rng.standard_normal((2, n))
    # first and last possible windows touch the trace edges
    first, last = SPEC.before, n - SPEC.after - 1
    for _ in range(data.draw(st.integers(0, 8))):
        at = data.draw(st.sampled_from([first, last, data.draw(st.integers(first, last))]))
        block = np.zeros_like(trace)
        place(block, cat, data.draw(st.integers(0, 3)), at,
              delta=data.draw(st.floats(-0.5, 0.5)))
        sign = {"max": 1.0, "min": -1.0, "both": data.draw(st.sampled_from([1.0, -1.0]))}
        trace += sign[polarity] * block
    if data.draw(st.booleans()):
        trace[data.draw(st.integers(0, 1))] = 0.0
    rec = normalized_recording(trace)
    max_rounds = data.draw(st.integers(1, 4))
    _, decisions, residual = peel(rec, cat, p, max_rounds=max_rounds)
    expected, work = peel_reference(rec, cat, p, max_rounds=max_rounds)
    assert decisions == expected
    assert residual.data.tobytes() == work.tobytes()


def test_peel_matches_reference_on_dense_overlapping_trace():
    # runs of one to six spikes, the next often WIDTH - 1 samples on, runs
    # WIDTH samples apart or more, at least 300 wave-0 windows,
    # and superpositions that take more than one round to resolve
    cat = two_channel_catalogue()
    rng = np.random.default_rng(21)
    steps = []
    for _ in range(250):
        steps += [int(rng.choice([rng.integers(6, 30), WIDTH - 1, WIDTH - 1]))
                  for _ in range(rng.integers(0, 6))]
        steps.append(WIDTH + int(rng.integers(0, 20)))
    at = WIDTH + 60 + np.cumsum([0] + steps[:-1])
    data = 0.3 * rng.standard_normal((2, at[-1] + WIDTH + 60))
    for a in at.tolist():
        place(data, cat, int(rng.integers(0, 3)), a, delta=rng.uniform(-0.5, 0.5))
    rec = normalized_recording(data)
    p = DetectionParams()
    _, decisions, residual = peel(rec, cat, p, max_rounds=4)
    expected, work = peel_reference(rec, cat, p, max_rounds=4)
    assert decisions == expected
    assert residual.data.tobytes() == work.tobytes()
    first = [d for d in decisions if d.round == 0]
    wave = waves(first, WIDTH)
    assert wave.count(0) >= 300 and max(wave) >= 4
    # an accepted window overlapping the next by one sample, and windows
    # that just do not overlap
    gaps = [(b.peak_index - a.peak_index, a.classified) for a, b in zip(first, first[1:])]
    assert (WIDTH - 1, True) in gaps and WIDTH in [g for g, _ in gaps]
    assert sum(1 for g, ok in gaps if ok and g < WIDTH) > 50
    assert max(d.round for d in decisions if d.classified) >= 1


def test_peel_matches_reference_on_locust_scenario(locust_run):
    # the ten-template catalogue of the canned scenario, whole recording
    expected, work = peel_reference(locust_run["whole"], locust_run["catalogue"],
                                    locust_run["params"])
    assert locust_run["decisions"] == expected
    assert locust_run["residual"].data.tobytes() == work.tobytes()


def test_peel_refreshes_the_aggregate_around_each_window():
    # the broad spike is far from zero at the edges of its window, so
    # subtracting it moves the aggregate box_width // 2 samples past them
    broad = template_from_rows(3, gauss_rows((0.9, 1.0), 9.0, 12.0, WIDTH))
    cat = Catalogue(templates=[broad], spec=SPEC, channels=2, rate_hz=15000.0)
    data = 0.3 * np.random.default_rng(5).standard_normal((2, 600))
    place(data, cat, 3, 300)
    rec = normalized_recording(data)
    p = DetectionParams(box_width=9, threshold=2.0, min_separation=30, guard=0)
    _, decisions, residual = peel(rec, cat, p, max_rounds=3)
    expected, work = peel_reference(rec, cat, p, max_rounds=3)
    assert (300, 3, 0) in [(d.peak_index, d.neuron_id, d.round) for d in decisions]
    assert decisions == expected
    assert residual.data.tobytes() == work.tobytes()


def test_peel_holds_one_copy_of_the_input():
    import tracemalloc

    rows = [gauss_rows((1.0, 0.5, 0.3, 0.8), 15.0, 3.0, WIDTH),
            gauss_rows((0.4, 1.0, 0.9, 0.2), 10.0, 4.0, WIDTH)]
    cat = Catalogue(templates=[template_from_rows(i, r) for i, r in enumerate(rows)],
                    spec=SPEC, channels=4, rate_hz=15000.0)
    data = np.random.default_rng(3).standard_normal((4, 100_000))
    for k, at in enumerate(range(600, 99_000, 400)):
        data[:, at - SPEC.before:at + SPEC.after + 1] += cat.templates[k % 2].f
    rec = normalized_recording(data)
    tracemalloc.start()
    try:
        _, decisions, residual = peel(rec, cat, DetectionParams())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(d.round for d in decisions) >= 1
    # the writable copy, which becomes the residual, is data.nbytes and the
    # aggregate a quarter of it; a second copy held at any time would take
    # the peak past 2 * data.nbytes
    assert not np.shares_memory(residual.data, rec.data)
    assert peak < 1.75 * data.nbytes


def test_peel_subtracts_through_subtract_spike(monkeypatch):
    # the interactive round (detect, classify_event, subtract_spike on a
    # writable copy) is exactly what peel runs
    module = importlib.import_module("peelsort.peel")
    subtracted = []

    def counting(data, dec, cat):
        subtracted.append(dec)
        return subtract_spike(data, dec, cat)

    monkeypatch.setattr(module, "subtract_spike", counting)
    cat = two_channel_catalogue()
    data = np.random.default_rng(14).standard_normal((2, 3000))
    place(data, cat, 0, 600, delta=0.3)
    place(data, cat, 2, 1500, delta=-0.25)
    rec = normalized_recording(data)
    train, decisions, residual = module.peel(rec, cat, DetectionParams())
    assert subtracted == [d for d in decisions if d.classified]
    assert len(train) == 2

    work = rec.data.copy()
    for dec in subtracted:
        subtract_spike(work, dec, cat)
    assert np.array_equal(work, residual.data)
    assert np.array_equal(rec.data, data)
