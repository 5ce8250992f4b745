"""Classify-and-subtract loop, catalogue persistence, spike exports."""

import importlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (aligned_reference, assert_same_decisions,
                      classify_reference, gauss_rows,
                      jitter_reference, normalized_recording, peel_reference,
                      shift_rows, template_waves)
from peelsort.detect import DetectionParams
from peelsort.errors import DataFormatError, DegenerateDataError, ParameterError
from peelsort.events import CutSpec
from peelsort.ingest import STAGE_RESIDUAL
from peelsort.jitter import estimate_jitter
from peelsort.peel import (CATALOGUE_MAGIC, UNCLASSIFIED, Catalogue,
                           DecisionTable, classify_event, classify_events,
                           export_spikes_csv, export_unclassified_csv,
                           load_catalogue, peel, save_catalogue,
                           subtract_spikes)

WIDTH = 45
SPEC = CutSpec(before=22, after=22)


def two_channel_catalogue():
    rows = [gauss_rows((1.0, 0.5), 15.0, 3.0, WIDTH),
            gauss_rows((0.4, 1.0), 10.0, 4.0, WIDTH),
            gauss_rows((0.8, 0.9), 8.0, 2.5, WIDTH)]
    return Catalogue([0, 1, 2], template_waves(*rows), SPEC, 15000.0)


def template(cat, neuron_id):
    """The (f, f1, f2) rows of one neuron's template."""
    return cat.waves[:, cat.neuron_ids.tolist().index(neuron_id)]


def table(*rows):
    """A decision table of (round, peak_index, neuron, delta, rss_before,
    rss_after) rows."""
    columns = np.array(rows, dtype=np.float64).T
    return DecisionTable(*columns[:3].astype(np.int64), *columns[3:])


def place(data, cat, neuron_id, at, delta=0.0):
    """Spike at time at + delta: the window anchored at `at` sees f(t - delta)."""
    f = template(cat, neuron_id)[0]
    block = f if delta == 0.0 else shift_rows(f, -delta)
    data[:, at - SPEC.before:at + SPEC.after + 1] += block


# --- classify_event ---

def test_classify_exact_match():
    cat = two_channel_catalogue()
    dec = classify_event(cat.waves[0, 2].copy(), cat, peak_index=123)
    assert len(dec) == 1 and dec.classified[0]
    assert dec.neuron[0] == 2
    assert abs(dec.delta[0]) <= 1e-12
    assert dec.rss_after[0] <= 1e-18
    assert dec.peak_index[0] == 123
    assert dec.corrected_time[0] == pytest.approx(123.0, abs=1e-12)


def test_classify_small_noise_rejected():
    cat = two_channel_catalogue()
    rng = np.random.default_rng(4)
    g = 0.1 * rng.standard_normal((2, WIDTH))
    (row,) = classify_event(g, cat)
    assert row.neuron == UNCLASSIFIED
    assert np.isnan(row.delta) and np.isnan(row.rss_after)
    assert row.rss_before == float(np.sum(g * g))
    assert np.isnan(classify_event(g, cat).corrected_time[0])


def test_classify_shifted_noisy_event():
    cat = two_channel_catalogue()
    rng = np.random.default_rng(5)
    g = shift_rows(cat.waves[0, 0], 0.3) + 0.1 * rng.standard_normal((2, WIDTH))
    (dec,) = classify_event(g, cat)
    assert dec.neuron == 0
    assert abs(dec.delta - 0.3) <= 0.15
    assert dec.rss_after < dec.rss_before


def test_classify_acceptance_factor_widens_and_narrows():
    cat = two_channel_catalogue()
    g = 0.5 * cat.waves[0, 2]  # best residual about equals event energy
    assert classify_event(g, cat, acceptance_factor=1.5).classified[0]
    assert not classify_event(g, cat, acceptance_factor=0.5).classified[0]


def test_classify_tie_takes_first_template():
    rows = gauss_rows((1.0, 0.5), 12.0, 3.0, WIDTH)
    cat = Catalogue([7, 9], template_waves(rows, rows), SPEC, 15000.0)
    assert classify_event(rows.copy(), cat).neuron[0] == 7


def test_classify_shape_mismatch():
    cat = two_channel_catalogue()
    with pytest.raises(ParameterError):
        classify_event(np.zeros((2, WIDTH - 1)), cat)
    with pytest.raises(ParameterError):
        classify_event(np.zeros((3, WIDTH)), cat)


def _linear_start(g, f, f1, f2):
    """The scalar oracle's linear start, computed as it computes it."""
    return float(np.sum((g - f) * f1) / float(np.sum(f1 * f1)))


def _well_posed(g, f, f1, f2):
    """Whether the Newton step of a template's (f, f1, f2) on g is set by
    the data, not by rounding: the curvature h'' at the linear start, a
    difference of sums, is more than 1e-4 of the larger sum.  It is not
    near g = 0, where sum(f * f2) cancels sum(f1^2)."""
    start = _linear_start(g, f, f1, f2)
    r = g - f - start * f1 - 0.5 * start * start * f2
    slope = f1 + start * f2
    terms = float(np.sum(slope * slope)), float(np.sum(r * f2))
    return abs(terms[0] - terms[1]) > 1e-4 * max(map(abs, terms))


def _assert_fit_matches_loop(g, cat, acceptance_factor):
    """The inner-product fit against the scalar oracle: the same neuron
    and verdict, and, where the Newton step is well posed, offsets within
    1e-9 samples, the same fallbacks, and residuals within 1e-9 relative
    plus 1e-12 * sum(g^2), the rounding that both carry when a template
    explains g almost exactly.  Where the oracle's best residual is that
    close to acceptance_factor * sum(g^2), the verdict is a rounding tie:
    the fit's residual of that template must be as close to the oracle's,
    and the fit's verdict must follow its own residual."""
    fit = estimate_jitter(g, cat.waves)
    energy = float(np.sum(g * g))

    def near(rss, want):
        return abs(rss - want) <= 1e-9 * want + 1e-12 * energy

    def close(delta, rss, want):
        return abs(delta - want[0]) <= 1e-9 and near(rss, want[1])

    for j, rows in enumerate(np.moveaxis(cat.waves, 1, 0)):
        if _well_posed(g, *rows):
            want = jitter_reference(g, *rows)
            assert close(fit.delta[j], fit.rss_after[j], want)
            # the oracle keeps its linear start when it falls back
            assert fit.fallback[j] <= (want[0] == _linear_start(g, *rows))
    (dec,) = classify_event(g, cat, acceptance_factor)
    neuron_id, delta, rss, accepted = classify_reference(g, cat, acceptance_factor)
    if near(acceptance_factor * energy, rss):
        assert near(fit.rss_after[cat.neuron_ids.tolist().index(neuron_id)], rss)
        best = int(np.argmin(fit.rss_after))
        neuron_id, delta, rss = int(cat.neuron_ids[best]), fit.delta[best], fit.rss_after[best]
        accepted = rss < acceptance_factor * fit.energy
    assert dec.neuron == (neuron_id if accepted else UNCLASSIFIED)
    if accepted and _well_posed(g, *template(cat, neuron_id)):
        assert close(dec.delta, dec.rss_after, (delta, rss))
    return fit


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_classify_matches_template_loop(data):
    cat = two_channel_catalogue()
    f, f1, f2 = cat.waves[:, data.draw(st.integers(0, cat.neuron_ids.size - 1))]
    # wide f1 and f2 terms reach both Newton fallbacks
    coef = [data.draw(st.floats(-2.0, 2.0)), data.draw(st.floats(-500.0, 500.0)),
            data.draw(st.floats(-80.0, 80.0)), data.draw(st.floats(0.0, 4.0))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = (coef[0] * f + coef[1] * f1 + coef[2] * f2
         + coef[3] * rng.standard_normal((2, WIDTH)))
    # events are cut from the trace as non-contiguous views
    trace = np.zeros((2, 3 * WIDTH))
    trace[:, WIDTH:2 * WIDTH] = g
    _assert_fit_matches_loop(trace[:, WIDTH:2 * WIDTH], cat,
                             data.draw(st.floats(0.25, 2.0)))


def test_classify_rounding_tie_at_the_acceptance_threshold():
    # the exact residual of template 0 on g = c * f0, (1 - c)^2 * sum(f0^2),
    # equals 0.25 * sum(g^2) at c = 2; one ulp below 2 the fit and the
    # oracle round it to opposite sides of the threshold
    cat = two_channel_catalogue()
    _assert_fit_matches_loop(np.nextafter(2.0, 0.0) * cat.waves[0, 0], cat, 0.25)


def test_fit_fallbacks_match_loop():
    cat = two_channel_catalogue()
    f, f1, f2 = cat.waves[:, 1]
    curved = _assert_fit_matches_loop(f + 50.0 * f2, cat, 1.0)
    assert curved.fallback[1] and curved.delta[1] == curved.delta_linear[1]
    far = _assert_fit_matches_loop(f + 400.0 * f1, cat, 0.5)
    assert far.fallback[1] and far.delta[1] == far.delta_linear[1]
    assert abs(far.delta_linear[1]) > WIDTH / 2.0


def _assert_batch_matches_singles(batch, cat, acceptance_factor=1.0):
    """estimate_jitter and classify_events of an (N, C, W) batch equal N
    single-event calls exactly."""
    fit = estimate_jitter(batch, cat.waves)
    assert fit.delta.shape == (len(batch), cat.neuron_ids.size)
    for i, g in enumerate(batch):
        one = estimate_jitter(g, cat.waves)
        for name in ("delta", "delta_linear", "rss_after", "fallback"):
            assert np.array_equal(getattr(fit, name)[i], getattr(one, name)), name
    peaks = np.arange(len(batch)) + 1000
    assert_same_decisions(classify_events(batch, cat, acceptance_factor, peaks),
                          DecisionTable.concat([
                              classify_event(g, cat, acceptance_factor, peak_index=int(p))
                              for g, p in zip(batch, peaks)]))
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
        f, f1, f2 = cat.waves[:, data.draw(st.integers(0, cat.neuron_ids.size - 1))]
        # wide f1 and f2 terms reach both Newton fallbacks
        trace[:, s:s + WIDTH] += (data.draw(st.floats(-2.0, 2.0)) * f
                                  + data.draw(st.floats(-500.0, 500.0)) * f1
                                  + data.draw(st.floats(-80.0, 80.0)) * f2)
    batch = _window_batch(trace, starts,
                          data.draw(st.sampled_from(["view", "transposed", "gathered"])))
    _assert_batch_matches_singles(batch, cat, data.draw(st.floats(0.25, 2.0)))


@pytest.mark.parametrize("layout", ["view", "transposed", "gathered"])
def test_batch_fit_fallbacks_match_single_fits(layout):
    cat = two_channel_catalogue()
    f, f1, f2 = cat.waves[:, 1]
    events = [f + 50.0 * f2, f + 400.0 * f1, f, cat.waves[0, 0]]
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
    assert len(classify_events(np.zeros((0, 2, WIDTH)), cat, 1.0, [])) == 0


def test_classify_flat_template_is_degenerate():
    rows = gauss_rows((1.0, 0.5), 12.0, 3.0, WIDTH)
    flat = np.stack([np.ones((2, WIDTH)), np.zeros((2, WIDTH)), np.zeros((2, WIDTH))])
    cat = Catalogue([3, 4], np.concatenate([template_waves(rows), flat[:, None]], axis=1),
                    SPEC, 15000.0)
    assert cat.neuron_ids.tolist() == [3, 4]
    with pytest.raises(DegenerateDataError, match="template 4"):
        classify_event(rows.copy(), cat)


# --- subtract_spikes ---

def test_subtract_zeroes_exact_window():
    cat = two_channel_catalogue()
    data = np.zeros((2, 400))
    place(data, cat, 1, 200)
    dec = classify_event(data[:, 200 - SPEC.before:200 + SPEC.after + 1].copy(),
                         cat, peak_index=200)
    assert subtract_spikes(data, dec, cat) is None
    assert np.max(np.abs(data)) <= 1e-9


def test_subtract_window_energy_drop_matches_rss():
    cat = two_channel_catalogue()
    rng = np.random.default_rng(6)
    data = rng.standard_normal((2, 400))
    place(data, cat, 0, 180, delta=0.2)
    original = data.copy()
    window = np.s_[:, 180 - SPEC.before:180 + SPEC.after + 1]
    dec = classify_event(data[window], cat, peak_index=180)
    subtract_spikes(data, dec, cat)
    assert np.sum(data[window] ** 2) == pytest.approx(dec.rss_after[0], rel=1e-12)
    outside = np.delete(np.arange(400), np.arange(180 - SPEC.before, 180 + SPEC.after + 1))
    assert np.array_equal(data[:, outside], original[:, outside])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fit_residual_is_the_energy_left_by_subtraction(data):
    # the closed-form residual of every template equals the energy that
    # subtracting it at the fitted offset leaves in the window; events
    # in the model (amplitude 1, c = b^2/2) leave almost nothing
    cat = two_channel_catalogue()
    f, f1, f2 = cat.waves[:, data.draw(st.integers(0, cat.neuron_ids.size - 1))]
    a, b = data.draw(st.floats(-2.0, 2.0)), data.draw(st.floats(-3.0, 3.0))
    if data.draw(st.booleans()):
        a, c = 1.0, 0.5 * b * b
    else:
        c = data.draw(st.floats(-5.0, 5.0))
    noise = data.draw(st.sampled_from([0.0, 0.1, 1.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = a * f + b * f1 + c * f2 + noise * rng.standard_normal((2, WIDTH))
    energy = float(np.sum(g * g))
    fit = estimate_jitter(g, cat.waves)
    assert (fit.rss_after >= 0.0).all()
    decisions = [table((0, 100, neuron_id, fit.delta[k], energy, fit.rss_after[k]))
                 for k, neuron_id in enumerate(cat.neuron_ids.tolist())]
    dec = classify_event(g, cat, peak_index=100)
    if dec.classified[0]:
        decisions.append(dec)
    for d in decisions:
        trace = np.zeros((2, 200))
        trace[:, 100 - SPEC.before:100 + SPEC.after + 1] = g
        subtract_spikes(trace, d, cat)
        left = float(np.sum(trace * trace))
        assert abs(d.rss_after[0] - left) <= 1e-9 * left + 1e-12 * energy


def test_subtract_rejects_out_of_bounds_window():
    cat = two_channel_catalogue()
    data = np.ones((2, 100))
    # the window leaves the trace on the left, on the right
    for peak_index in (SPEC.before - 1, 100 - SPEC.after):
        with pytest.raises(ParameterError, match="outside the trace"):
            subtract_spikes(data, table((0, 50, 0, 0.0, 1.0, 0.5),
                                        (0, peak_index, 0, 0.0, 1.0, 0.5)), cat)
    assert np.array_equal(data, np.ones((2, 100)))
    # the first and the last window that fit are subtracted
    subtract_spikes(data, table((0, SPEC.before, 0, 0.0, 1.0, 0.5),
                                (0, 99 - SPEC.after, 0, 0.0, 1.0, 0.5)), cat)
    assert not np.array_equal(data[:, [0, 99]], np.ones((2, 2)))
    with pytest.raises(ParameterError, match="no template"):
        subtract_spikes(data, table((0, 50, 5, 0.0, 1.0, 0.5)), cat)


def test_subtract_leaves_unclassified_rows_out():
    cat = two_channel_catalogue()
    data = np.zeros((2, 300))
    nan = float("nan")
    subtract_spikes(data, table((0, 100, UNCLASSIFIED, nan, 1.0, nan),
                                (0, 200, 2, 0.25, 1.0, 0.5)), cat)
    want = np.zeros((2, 300))
    want[:, 200 - SPEC.before:200 + SPEC.after + 1] -= aligned_reference(cat, 2, 0.25)
    assert np.array_equal(data, want)


def test_subtract_overlapping_rows_in_row_order():
    # rows whose windows overlap are subtracted one after the other, in
    # row order, as one subtraction per row would do it, bit for bit
    cat = two_channel_catalogue()
    rng = np.random.default_rng(9)
    rows = [(0, int(at), int(rng.integers(0, 3)), rng.uniform(-0.5, 0.5), 1.0, 0.5)
            for at in (100, 100, 110, 150, 130, 300)]
    data = rng.standard_normal((2, 400))
    want = data.copy()
    for _, at, nid, delta, _, _ in rows:
        want[:, at - SPEC.before:at + SPEC.after + 1] -= aligned_reference(cat, nid, delta)
    subtract_spikes(data, table(*rows), cat)
    assert data.tobytes() == want.tobytes()


def test_subtract_rejects_a_trace_not_in_c_order():
    # a flat view of such a trace would be a copy, and the subtraction lost
    cat = two_channel_catalogue()
    rows = table((0, 100, 1, 0.0, 1.0, 0.5))
    for data in (np.asfortranarray(np.zeros((2, 300))), np.zeros((2, 600))[:, ::2]):
        with pytest.raises(ParameterError, match="C-contiguous"):
            subtract_spikes(data, rows, cat)
        assert not data.any()


def test_residual_after_first_component_matches_second():
    cat = two_channel_catalogue()
    data = np.zeros((2, 500))
    place(data, cat, 0, 300)
    place(data, cat, 2, 308)
    window_a = np.s_[:, 300 - SPEC.before:300 + SPEC.after + 1]
    dec = classify_event(data[window_a], cat, peak_index=300)
    assert dec.neuron[0] == 0
    subtract_spikes(data, dec, cat)
    cut_b = data[:, 308 - SPEC.before:308 + SPEC.after + 1]
    f_b = template(cat, 2)[0]
    corr = np.sum(cut_b * f_b) / np.sqrt(np.sum(cut_b ** 2) * np.sum(f_b ** 2))
    assert corr >= 0.9


# --- peel ---

def test_peel_pure_noise_terminates_immediately():
    rng = np.random.default_rng(13)
    rec = normalized_recording(rng.standard_normal((2, 6000)))
    cat = two_channel_catalogue()
    train, decisions, residual = peel(rec, cat, DetectionParams())
    assert len(train) == 0
    assert not decisions.classified.any()
    assert (decisions.round == 0).all()
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
    assert decisions.classified.sum() == 2
    assert sorted(train.neuron.tolist()) == [0, 2]
    by_neuron = dict(zip(train.neuron.tolist(), train.corrected_time.tolist()))
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
    assert sorted(train.neuron.tolist()) == [0, 1]
    by_neuron = dict(zip(train.neuron.tolist(), train.corrected_time.tolist()))
    assert by_neuron[0] == pytest.approx(800.0, abs=1.5)
    assert by_neuron[1] == pytest.approx(808.0, abs=1.5)
    assert train.round.max() <= 2


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
    n_accept = int(decisions.classified.sum())
    assert n_accept == len(train) > 0
    assert len(decisions) == len(decisions.neuron) == len(decisions.rss_after)
    rounds = np.unique(decisions.round).tolist()
    assert rounds == list(range(len(rounds)))
    # in peak order within each round
    for r in rounds:
        assert (np.diff(decisions.peak_index[decisions.round == r]) > 0).all()


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


# --- decision table ---

def test_peel_train_is_the_classified_rows_by_corrected_time():
    # the superposition's second component is accepted in round 1, after
    # the later spikes of round 0
    data = 0.3 * np.random.default_rng(15).standard_normal((2, 3000))
    cat = two_channel_catalogue()
    for neuron_id, at in ((0, 800), (1, 808), (2, 1500), (1, 2200)):
        place(data, cat, neuron_id, at)
    train, decisions, _ = peel(normalized_recording(data), cat, DetectionParams())
    spikes = decisions.take(decisions.classified)
    assert len(train) == len(spikes) == 4
    assert (np.diff(train.corrected_time) >= 0).all()
    order = np.lexsort((np.arange(len(spikes)), spikes.corrected_time))
    assert order.tolist() != list(range(len(spikes)))
    for name in ("round", "peak_index", "neuron", "delta", "rss_before", "rss_after"):
        assert np.array_equal(getattr(train, name), getattr(spikes, name)[order]), name


def test_decision_validation():
    with pytest.raises(ParameterError, match="one length"):
        DecisionTable(*[np.zeros(2, dtype=np.int64)] * 3, *[np.zeros(3)] * 3)
    # equal shapes that are not 1-D: len would count cells, iteration rows
    with pytest.raises(ParameterError, match="1-D"):
        DecisionTable(*[np.zeros((2, 3), dtype=np.int64)] * 3, *[np.zeros((2, 3))] * 3)
    with pytest.raises(ParameterError, match="1-D"):
        DecisionTable(*[np.zeros((), dtype=np.int64)] * 3, *[np.zeros(())] * 3)
    rows = table((0, 600, 0, 0.25, 3.0, 1.0), (1, 900, UNCLASSIFIED, np.nan, 2.0, np.nan))
    assert rows.classified.tolist() == [True, False]
    assert [tuple(r) for r in rows][0] == (0, 600, 0, 0.25, 3.0, 1.0)
    assert [r.round for r in rows] == [0, 1]
    assert rows.corrected_time[0] == 599.75 and np.isnan(rows.corrected_time[1])


# --- catalogue container and persistence ---

def test_catalogue_validation():
    cat = two_channel_catalogue()
    assert cat.channels == 2 and cat.neuron_ids.tolist() == [0, 1, 2]
    assert cat.waves.shape == (3, 3, 2, WIDTH) and cat.waves.flags.c_contiguous
    assert cat.l1_size.tolist() == [float(np.abs(f).sum()) for f in cat.waves[0]]
    with pytest.raises(ParameterError, match="K >= 1"):
        Catalogue([], cat.waves[:, :0], SPEC, 15000.0)
    with pytest.raises(ParameterError, match="descending"):
        Catalogue([2, 1, 0], cat.waves[:, ::-1], SPEC, 15000.0)
    with pytest.raises(ParameterError, match="waves"):
        Catalogue([0, 1, 2], cat.waves, CutSpec(before=22, after=21), 15000.0)
    with pytest.raises(ParameterError, match="waves"):
        Catalogue(neuron_ids=[0, 1], waves=cat.waves, spec=SPEC, rate_hz=15000.0)
    with pytest.raises(ParameterError, match="waves"):
        Catalogue(neuron_ids=[[0, 1, 2]], waves=cat.waves, spec=SPEC, rate_hz=15000.0)
    with pytest.raises(ParameterError, match="waves"):
        Catalogue(neuron_ids=[0, 1, 2], waves=cat.waves[:2], spec=SPEC, rate_hz=15000.0)
    with pytest.raises(ParameterError, match="finite"):
        Catalogue(neuron_ids=[0, 1, 2], waves=np.where(cat.waves == cat.waves.max(), np.inf,
                                                       cat.waves), spec=SPEC, rate_hz=15000.0)
    # finite waveforms whose L1 size overflows: the file could not store it
    with pytest.raises(ParameterError, match="finite"):
        Catalogue(neuron_ids=[0], waves=np.full((3, 1, 2, WIDTH), 1e307), spec=SPEC,
                  rate_hz=15000.0)
    with pytest.raises(ParameterError, match="sampling rate"):
        Catalogue([0, 1, 2], cat.waves, SPEC, 0.0)
    with pytest.raises(ParameterError, match="non-negative"):
        Catalogue([-1], cat.waves[:, :1], SPEC, 15000.0)
    # a second template for neuron 1
    with pytest.raises(ParameterError, match="distinct"):
        Catalogue([0, 1, 1], cat.waves[:, [0, 1, 1]], SPEC, 15000.0)


@pytest.mark.parametrize("ids", [[0.7], [True], [0, 1.0], np.array([1.5]), np.array([False]),
                                 [np.float64(2.0)], [True, 2]])
def test_catalogue_rejects_neuron_ids_that_are_not_integers(ids):
    # an id would otherwise become int(id): 0.7 neuron 0, True neuron 1
    waves = two_channel_catalogue().waves[:, :len(ids)]
    with pytest.raises(ParameterError, match="integers"):
        Catalogue(ids, waves, SPEC, 15000.0)


def test_catalogue_takes_integer_ids_of_any_integer_type():
    waves = two_channel_catalogue().waves
    for ids in ([0, 1, 2], np.array([5, 3, 4], dtype=np.uint8), [np.int32(9), 2, 2**40]):
        cat = Catalogue(ids, waves, SPEC, 15000.0)
        assert cat.neuron_ids.dtype == np.int64 and cat.neuron_ids.tolist() == [int(i) for i in ids]


def test_catalogue_round_trip(tmp_path):
    cat = two_channel_catalogue()
    path = tmp_path / "catalogue.txt"
    save_catalogue(cat, path)
    back = load_catalogue(path)
    assert back.channels == cat.channels
    assert back.rate_hz == cat.rate_hz
    assert (back.spec.before, back.spec.after) == (SPEC.before, SPEC.after)
    assert back.neuron_ids.tolist() == [0, 1, 2]
    assert back.l1_size.tobytes() == cat.l1_size.tobytes()
    assert back.waves.tobytes() == cat.waves.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_catalogue_file_round_trip_is_exact(tmp_path_factory, data):
    # any catalogue: 1-5 templates of 1-4 channels, distinct non-negative
    # ids, descending L1 sizes, finite waves
    k, channels = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    spec = CutSpec(before=data.draw(st.integers(1, 4)), after=data.draw(st.integers(1, 4)))
    values = st.floats(allow_nan=False, allow_infinity=False)
    waves = np.array(data.draw(st.lists(values, min_size=3 * k * channels * spec.width,
                                        max_size=3 * k * channels * spec.width)),
                     dtype=np.float64).reshape(3, k, channels, spec.width)
    with np.errstate(over="ignore"):
        sizes = np.abs(waves[0]).sum(axis=(1, 2))
    assume(np.isfinite(sizes).all())
    ids = data.draw(st.lists(st.integers(0, 2**62), min_size=k, max_size=k, unique=True))
    order = np.argsort(-sizes, kind="stable")
    cat = Catalogue(neuron_ids=np.array(ids)[order], waves=waves[:, order], spec=spec,
                    rate_hz=data.draw(st.floats(0.0, 1e12, exclude_min=True)))
    path = tmp_path_factory.mktemp("catalogue") / "catalogue.txt"
    save_catalogue(cat, path)
    back = load_catalogue(path)
    assert back.waves.tobytes() == cat.waves.tobytes()
    assert back.neuron_ids.tobytes() == cat.neuron_ids.tobytes()
    assert back.spec == cat.spec and back.rate_hz == cat.rate_hz
    again = path.with_name("again.txt")
    save_catalogue(back, again)
    assert again.read_bytes() == path.read_bytes()


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


def test_load_rejects_neuron_id_beyond_int64(tmp_path):
    path, lines = catalogue_lines(tmp_path)
    lines[lines.index("neuron 2")] = f"neuron {2**63}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="too large"):
        load_catalogue(path)


def test_load_rejects_l1_size_off_its_waveform(tmp_path):
    path, lines = catalogue_lines(tmp_path)
    row = next(i for i, line in enumerate(lines) if line.startswith("l1_size "))
    stored = float(lines[row].split()[1])
    for value, ok in ((stored + 5e-10, True), (stored + 2e-9, False)):
        lines[row] = f"l1_size {value!r}"
        path.write_text("\n".join(lines) + "\n")
        if ok:
            assert load_catalogue(path).l1_size[0] == stored
        else:
            with pytest.raises(DataFormatError, match="l1_size"):
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


@pytest.mark.parametrize("prefix,edit,match", [
    ("f 0 ", lambda lines, i: lines[:i] + [lines[i] + " 0.5"] + lines[i + 1:],
     "expected 45 numbers"),
    ("f1 1 ", lambda lines, i: lines[:i] + [lines[i].rsplit(" ", 1)[0]] + lines[i + 1:],
     "expected 45 numbers"),
    # with two channels a template's f1 0 line is two lines after its f 0 line
    ("f 0 ", lambda lines, i: lines[:i] + [lines[i + 2], lines[i + 1], lines[i]] + lines[i + 3:],
     "line 10: expected 'f 0 ...'"),
    ("templates ", lambda lines, i: lines[:i] + ["templates 1000000000"] + lines[i + 1:],
     "truncated"),
], ids=["one value too many", "one value too few", "f 0 swapped with f1 0",
        "a billion templates"])
def test_load_rejects_lines_off_the_layout(tmp_path, prefix, edit, match):
    path, lines = catalogue_lines(tmp_path)
    row = next(i for i, l in enumerate(lines) if l.startswith(prefix))
    path.write_text("\n".join(edit(lines, row)) + "\n")
    with pytest.raises(DataFormatError, match=match):
        load_catalogue(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(DataFormatError):
        load_catalogue(tmp_path / "nope.txt")


# --- CSV exports ---

def test_spike_csv_round_trip(tmp_path):
    nan = float("nan")
    decisions = table((0, 600, 0, 0.25, 100.0, 3.5), (0, 900, UNCLASSIFIED, nan, 50.0, nan),
                      (1, 1500, 2, -0.1, 80.0, 2.0))
    path = tmp_path / "spikes.csv"
    export_spikes_csv(decisions, 15000.0, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("round,neuron,peak_index,delta,")
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert cells[:3] == ["0", "0", "600"]
    assert float(cells[4]) == 599.75  # spike sits delta samples before the anchor
    assert float(cells[5]) == pytest.approx(599.75 / 15000.0, rel=1e-15)
    assert lines[2].split(",")[:3] == ["1", "2", "1500"]

    upath = tmp_path / "unclassified.csv"
    export_unclassified_csv(decisions, upath)
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
    # takes the detection scale, with the round-0 aggregate, in one pass.  Every event is fitted
    # once, by classify_events, one call per wave of windows that overlap
    # none of each other, and each wave is subtracted by one subtract_spikes call
    module = importlib.import_module("peelsort.peel")
    for name in ("detect", "classify_event", "estimate_jitter"):
        assert callable(getattr(module, name))
    calls = {"detect": 0, "detection_pass": 0, "classify_event": 0, "aggregate_spans": 0,
             "refresh_maxima": 0, "find_peaks": 0, "subtract_spikes": 0, "estimate_jitter": 0}
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
    # each of the two rounds refreshes the aggregate and its maxima, then thins
    assert calls == {"detect": 0, "detection_pass": 1, "classify_event": 0,
                     "aggregate_spans": 2, "refresh_maxima": 2, "find_peaks": 2,
                     "subtract_spikes": len(fits), "estimate_jitter": len(fits)}
    assert sum(len(fit) for fit in fits) == len(decisions)
    assert decisions.peak_index.tolist() == [600, 630, 660, 1500, 1545, 2201, 2245]
    # the calls of each round come before those of the next
    rows_after = np.cumsum([len(fit) for fit in fits])
    rounds = np.searchsorted(np.cumsum(np.bincount(decisions.round)), rows_after)
    call = {(int(r), p): k for k, (fit, r) in enumerate(zip(fits, rounds))
            for p in fit.peak_index.tolist()}
    for fit in fits:
        assert (np.diff(fit.peak_index) >= WIDTH).all()
    # a window overlapping no earlier window of its round is fitted in the
    # round's first call, any other after every earlier window it overlaps
    for d, wave in zip(decisions, waves(decisions, WIDTH)):
        first = min(call[e.round, e.peak_index] for e in decisions if e.round == d.round)
        assert (call[d.round, d.peak_index] == first) == (wave == 0)
        for e in decisions:
            if e.round == d.round and 0 < d.peak_index - e.peak_index < WIDTH:
                assert call[d.round, d.peak_index] > call[e.round, e.peak_index]


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
    waves = np.concatenate([two_channel_catalogue().waves,
                            template_waves(gauss_rows((0.9, 1.0), 9.0, 12.0, WIDTH))], axis=1)
    order = np.argsort(-np.abs(waves[0]).sum(axis=(1, 2)), kind="stable")
    cat = Catalogue(order, waves[:, order], SPEC, 15000.0)
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
    assert_same_decisions(decisions, expected)
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
    assert_same_decisions(decisions, expected)
    assert residual.data.tobytes() == work.tobytes()
    # the residual is the input less the whole table, subtracted in row order
    again = rec.data.copy()
    subtract_spikes(again, decisions, cat)
    assert again.tobytes() == work.tobytes()
    first = [d for d in decisions if d.round == 0]
    wave = waves(first, WIDTH)
    assert wave.count(0) >= 300 and max(wave) >= 4
    # an accepted window overlapping the next by one sample, and windows
    # that just do not overlap
    gaps = [(b.peak_index - a.peak_index, a.neuron != UNCLASSIFIED)
            for a, b in zip(first, first[1:])]
    assert (WIDTH - 1, True) in gaps and WIDTH in [g for g, _ in gaps]
    assert sum(1 for g, ok in gaps if ok and g < WIDTH) > 50
    assert decisions.round[decisions.classified].max() >= 1


def test_peel_matches_reference_on_locust_scenario(locust_run):
    # the ten-template catalogue of the canned scenario, whole recording
    expected, work = peel_reference(locust_run["whole"], locust_run["catalogue"],
                                    locust_run["params"])
    assert_same_decisions(locust_run["decisions"], expected)
    assert locust_run["residual"].data.tobytes() == work.tobytes()


def test_peel_refreshes_the_aggregate_around_each_window():
    # the broad spike is far from zero at the edges of its window, so
    # subtracting it moves the aggregate box_width // 2 samples past them
    cat = Catalogue([3], template_waves(gauss_rows((0.9, 1.0), 9.0, 12.0, WIDTH)), SPEC, 15000.0)
    data = 0.3 * np.random.default_rng(5).standard_normal((2, 600))
    place(data, cat, 3, 300)
    rec = normalized_recording(data)
    p = DetectionParams(box_width=9, threshold=2.0, min_separation=30, guard=0)
    _, decisions, residual = peel(rec, cat, p, max_rounds=3)
    expected, work = peel_reference(rec, cat, p, max_rounds=3)
    assert (0, 300, 3) in [(d.round, d.peak_index, d.neuron) for d in decisions]
    assert_same_decisions(decisions, expected)
    assert residual.data.tobytes() == work.tobytes()


def test_peel_holds_one_copy_of_the_input():
    import tracemalloc

    rows = [gauss_rows((1.0, 0.5, 0.3, 0.8), 15.0, 3.0, WIDTH),
            gauss_rows((0.4, 1.0, 0.9, 0.2), 10.0, 4.0, WIDTH)]
    cat = Catalogue([0, 1], template_waves(*rows), SPEC, 15000.0)
    data = np.random.default_rng(3).standard_normal((4, 100_000))
    for k, at in enumerate(range(600, 99_000, 400)):
        data[:, at - SPEC.before:at + SPEC.after + 1] += cat.waves[0, k % 2]
    rec = normalized_recording(data)
    tracemalloc.start()
    try:
        _, decisions, residual = peel(rec, cat, DetectionParams())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decisions.round.max() >= 1
    # the writable copy, which becomes the residual, is data.nbytes and the
    # aggregate a quarter of it; a second copy held at any time would take
    # the peak past 2 * data.nbytes
    assert not np.shares_memory(residual.data, rec.data)
    assert peak < 1.75 * data.nbytes


def _three_spike_recording():
    data = np.random.default_rng(18).standard_normal((2, 3000))
    cat = two_channel_catalogue()
    for at, nid in ((600, 0), (630, 1), (1500, 2)):
        place(data, cat, nid, at)
    return normalized_recording(data), cat


def test_peel_leaves_its_input_as_it_was():
    rec, cat = _three_spike_recording()
    before = rec.data.tobytes()
    train, _, residual = peel(rec, cat, DetectionParams())
    assert len(train) >= 3
    assert rec.data.tobytes() == before
    assert not rec.data.flags.writeable
    assert not np.shares_memory(residual.data, rec.data)


def test_peel_in_place_subtracts_in_the_samples_handed_over():
    rec, cat = _three_spike_recording()
    train, decisions, residual = peel(rec, cat, DetectionParams())
    handed = normalized_recording(rec.data.copy())
    buffer = handed.data
    train_in, decisions_in, residual_in = peel(handed, cat, DetectionParams(), in_place=True)
    assert_same_decisions(decisions_in, decisions)
    assert_same_decisions(train_in, train)
    assert residual_in.data is buffer  # no copy: the residual is the buffer handed over
    assert residual_in.data.tobytes() == residual.data.tobytes()
    assert not residual_in.data.flags.writeable
    assert residual_in.stage == STAGE_RESIDUAL


def test_peel_in_place_refuses_samples_it_does_not_own():
    rec, cat = _three_spike_recording()
    window = rec.with_data(rec.data[:, :2000], rec.stage)  # shares rec's samples
    before = rec.data.tobytes()
    with pytest.raises(ParameterError, match="owns its samples"):
        peel(window, cat, DetectionParams(), in_place=True)
    assert rec.data.tobytes() == before and not rec.data.flags.writeable


def test_peel_subtracts_each_wave_through_subtract_spikes(monkeypatch):
    # the interactive round (detect, classify_events, subtract_spikes on a
    # writable copy) is exactly what peel runs
    module = importlib.import_module("peelsort.peel")
    subtracted = []

    def counting(data, decisions, cat):
        subtracted.append(decisions)
        return subtract_spikes(data, decisions, cat)

    monkeypatch.setattr(module, "subtract_spikes", counting)
    cat = two_channel_catalogue()
    data = np.random.default_rng(14).standard_normal((2, 3000))
    place(data, cat, 0, 600, delta=0.3)
    place(data, cat, 2, 1500, delta=-0.25)
    rec = normalized_recording(data)
    train, decisions, residual = module.peel(rec, cat, DetectionParams())
    assert len(train) == 2
    waves = DecisionTable.concat(subtracted)
    assert sorted(waves.peak_index.tolist()) == sorted(decisions.peak_index.tolist())
    assert sorted(waves.peak_index[waves.classified].tolist()) == [600, 1500]

    work = rec.data.copy()
    subtract_spikes(work, decisions, cat)
    assert np.array_equal(work, residual.data)
    assert np.array_equal(rec.data, data)


def test_peel_in_place_rejects_samples_not_in_c_order():
    rec, cat = _three_spike_recording()
    handed = normalized_recording(np.asfortranarray(rec.data))
    assert handed.data.flags.owndata and not handed.data.flags.c_contiguous
    with pytest.raises(ParameterError, match="C order"):
        peel(handed, cat, DetectionParams(), in_place=True)
    # a copy of the same samples is peeled as C-order ones are
    assert_same_decisions(peel(handed, cat, DetectionParams())[1],
                          peel(rec, cat, DetectionParams())[1])


@pytest.mark.parametrize("rate_hz,rows,match", [(20000.0, 2, "at 20000.0 Hz"),
                                                 (15000.0, 1, "of 1 channels")])
def test_peel_rejects_a_catalogue_of_another_recording(rate_hz, rows, match):
    rec, cat = _three_spike_recording()
    other = normalized_recording(rec.data[:rows], rate_hz=rate_hz)
    with pytest.raises(DataFormatError, match=match):
        peel(other, cat, DetectionParams())
