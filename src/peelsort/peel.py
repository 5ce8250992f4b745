"""Iterative classify-and-subtract spike sorting.

Every detected event is matched against each catalogue template after
jitter alignment; the best-fitting template is accepted only when
subtracting it lowers the event's squared norm.  Accepted spikes are
subtracted from the trace, each subtraction applied before later events
of the round that overlap it are examined, and detection runs again on
the residual.  Superpositions surface one component per
round this way.

A round's windows are fitted in waves.  A run is a maximal sequence of
consecutive windows each overlapping the one before (peaks fewer than
``width`` samples apart); a window's wave is its place in its run.  No
two windows of one wave overlap, so wave w is cut after the subtractions
of waves 0..w-1 and fitted against all K templates in one inner-product
fit.  Each window thus sees the subtractions of the earlier windows that
overlap it and no other.  A batch fit equals one fit per event, so the
decisions are exactly those of a walk in peak order that fits each event
on the trace as it finds it.

Detection in ``peel`` follows the spikes instead of rescanning the trace.
The per-channel detection location and scale are taken once, on the
input, and kept for every round, so the threshold does not drift down as
spikes are removed.  After a round the detection aggregate is recomputed,
by the rectifier of the first pass, only on the accepted windows widened
by ``box_width // 2``, one (m, 2) array of [start, stop) spans; elsewhere
the trace, and so the aggregate, did not change.  Its local maxima are
looked for again only there, widened by one sample, and all of them are
thinned together, as a full-trace detection at the same scale would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .detect import (DetectionParams, aggregate_spans, check_detectable,
                     detection_pass, find_peaks, local_maxima, refresh_maxima)
from .errors import DataFormatError, ParameterError
from .events import CutSpec
from .ingest import Recording, STAGE_RESIDUAL, atomic_write_text, write_csv
from .jitter import Template, TemplateStack, aligned_center, fit_jitter
# not called here: perfbench/tracing.py wraps these names in this namespace
from .detect import detect  # noqa: F401
from .jitter import estimate_jitter  # noqa: F401

CATALOGUE_MAGIC = "peelsort-catalogue v1"
DEFAULT_MAX_ROUNDS = 10


@dataclass
class Catalogue:
    """Templates ordered by descending L1 size, plus the cut geometry.

    ``stack`` holds the templates' fit basis and inner products, built
    once, so events are fitted against all of them in one pass;
    ``by_id`` maps each neuron id to its template.
    """

    templates: list[Template]
    spec: CutSpec
    channels: int
    rate_hz: float
    stack: TemplateStack = field(init=False, repr=False, compare=False)
    by_id: dict[int, Template] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.templates:
            raise ParameterError("a catalogue needs at least one template")
        shape = (self.channels, self.spec.width)
        for t in self.templates:
            if t.f.shape != shape:
                raise ParameterError(
                    f"template {t.neuron_id} has shape {t.f.shape}, expected {shape}")
        sizes = [t.l1_size for t in self.templates]
        if any(a + 1e-9 < b for a, b in zip(sizes, sizes[1:])):
            raise ParameterError("templates must be ordered by descending l1_size")
        if not 0 < self.rate_hz < np.inf:
            raise ParameterError(f"sampling rate must be positive and finite, got {self.rate_hz}")
        self.by_id = {t.neuron_id: t for t in self.templates}
        if len(self.by_id) != len(self.templates):
            # subtract_spike finds a decision's waveform by its neuron id
            raise ParameterError("template neuron ids must be distinct")
        self.stack = TemplateStack.of(self.templates)

    def template_for(self, neuron_id: int) -> Template:
        try:
            return self.by_id[neuron_id]
        except KeyError:
            raise ParameterError(f"no template for neuron {neuron_id}") from None


@dataclass
class ClassificationDecision:
    """Outcome for one event: which neuron, at what offset, or neither.

    Unclassified decisions leave neuron_id, delta and rss_best as None.
    """

    peak_index: int
    rss_before: float
    neuron_id: int | None = None
    delta: float | None = None
    rss_best: float | None = None
    round: int = 0

    def __post_init__(self):
        if self.neuron_id is not None:
            if self.delta is None or self.rss_best is None:
                raise ParameterError("classified decisions need delta and rss_best")
            if not (np.isfinite(self.delta) and np.isfinite(self.rss_best)):
                raise ParameterError("classified decision fields must be finite")

    @property
    def classified(self) -> bool:
        return self.neuron_id is not None

    def corrected_time(self) -> float:
        """Spike time in samples: the event looks like f(t + delta), so the
        waveform actually sits delta samples before the window anchor.  Any
        error in the detected peak position cancels here to first order.
        """
        if not self.classified:
            raise ParameterError("unclassified events have no corrected time")
        return self.peak_index - self.delta


@dataclass
class SpikeTrain:
    """(neuron_id, corrected_time_samples, round) entries, time-sorted."""

    entries: list[tuple[int, float, int]]

    def __post_init__(self):
        times = [e[1] for e in self.entries]
        if any(a > b for a, b in zip(times, times[1:])):
            raise ParameterError("spike train must be sorted by corrected time")

    def __len__(self) -> int:
        return len(self.entries)

    def times(self) -> np.ndarray:
        return np.array([e[1] for e in self.entries], dtype=np.float64)

    def neurons(self) -> np.ndarray:
        return np.array([e[0] for e in self.entries], dtype=np.int64)


def classify_events(cuts: np.ndarray, cat: Catalogue, acceptance_factor: float,
                    peaks) -> list[ClassificationDecision]:
    """Decide every event of an (events, C, W) stack of windows, in order.

    Each event is accepted for the template whose aligned subtraction
    leaves the least energy, and only if that residual is strictly below
    ``acceptance_factor`` times the event's squared norm (factor 1.0:
    subtracting must help at all).  Ties take the template listed first.
    ``peaks`` gives each event's peak index.  All events are fitted in one
    fit_jitter call.
    """
    if cuts.shape[1:] != (cat.channels, cat.spec.width):
        raise ParameterError(
            f"event shape {cuts.shape[1:]} does not match catalogue"
            f" ({cat.channels}, {cat.spec.width})")
    peaks = np.asarray(peaks).tolist()
    if len(peaks) != len(cuts):
        raise ParameterError(f"{len(peaks)} peak indices for {len(cuts)} events")
    fit = fit_jitter(cuts, cat.stack)
    best = np.argmin(fit.rss_after, axis=1)
    at = np.arange(best.size), best
    rss_best = fit.rss_after[at]
    accept = rss_best < acceptance_factor * fit.energy
    return [ClassificationDecision(idx, energy, nid, delta, rss) if ok
            else ClassificationDecision(idx, energy)
            for idx, energy, ok, nid, delta, rss in zip(
                peaks, fit.energy.tolist(), accept.tolist(),
                cat.stack.neuron_ids[best].tolist(), fit.delta[at].tolist(),
                rss_best.tolist())]


def classify_event(g: np.ndarray, cat: Catalogue,
                   acceptance_factor: float = 1.0,
                   peak_index: int = 0) -> ClassificationDecision:
    """Decide one (C, W) event window: the one-row case of classify_events."""
    return classify_events(g[None], cat, acceptance_factor, [peak_index])[0]


def subtract_spike(data: np.ndarray, decision: ClassificationDecision,
                   cat: Catalogue) -> None:
    """Subtract the decision's aligned template from its window, in place.

    ``data`` is a writable (channels, samples) array.  A window falling
    outside it (cannot happen for peaks from detect's guard) is skipped.
    """
    if not decision.classified:
        raise ParameterError("cannot subtract an unclassified event")
    start = decision.peak_index - cat.spec.before
    stop = decision.peak_index + cat.spec.after + 1
    if 0 <= start and stop <= data.shape[1]:
        t = cat.template_for(decision.neuron_id)
        data[:, start:stop] -= aligned_center(t, decision.delta)


def peel(rec: Recording, cat: Catalogue, dp: DetectionParams,
         max_rounds: int = DEFAULT_MAX_ROUNDS,
         acceptance_factor: float = 1.0, *, in_place: bool = False,
         ) -> tuple[SpikeTrain, list[ClassificationDecision], Recording]:
    """Run detect/classify/subtract rounds until nothing more is accepted.

    All rounds subtract in one writable array: a copy of the input or,
    with ``in_place``, the input's own samples, which the caller hands
    over.  A handed-over ``rec`` must own its samples, and they are the
    residual's afterwards: neither ``rec`` nor any view of its samples may
    be read again.  The detection scale comes from the input and stays
    fixed; each round after the first refreshes the detection aggregate
    and its local maxima where the previous round subtracted, then thins
    all the maxima.  Within a round every event is decided after the
    accepted templates of the earlier events whose windows overlap its
    own are subtracted, so overlapping windows are never explained twice.
    Each event is fitted once, by classify_events, one wave at a time:
    wave w holds the w-th window of every run of overlapping windows and
    is cut after the subtractions of the waves before it.  The decisions
    are listed in peak order.  Stops after a round with zero acceptances,
    or after ``max_rounds``.
    """
    if max_rounds < 1:
        raise ParameterError(f"max_rounds must be >= 1, got {max_rounds}")
    if not acceptance_factor > 0:  # a factor <= 0 accepts nothing; NaN fails too
        raise ParameterError(f"acceptance_factor must be > 0, got {acceptance_factor}")
    check_detectable(rec, dp)
    if in_place and not rec.data.flags.owndata:
        raise ParameterError("peel in place needs a recording that owns its samples")
    work = rec.data
    if in_place:
        work.setflags(write=True)
    aggregate, location, scale = detection_pass(work, dp)
    if not in_place:
        # copied after the pass, so the pass's rows do not add to the copy's footprint
        work = work.copy()
    maxima = local_maxima(aggregate, dp.guard)
    # the previous round's subtractions moved the aggregate only within
    # box_width // 2 of their windows, and its local maxima one sample further
    half = dp.box_width // 2
    reach = np.array([-cat.spec.before - half, cat.spec.after + 1 + half])
    decisions: list[ClassificationDecision] = []
    accepted = np.empty(0, dtype=np.int64)
    for rnd in range(max_rounds):
        written = aggregate_spans(work, location, scale, dp, accepted[:, None] + reach, aggregate)
        maxima = refresh_maxima(maxima, aggregate, written, dp.guard)
        peaks = cat.spec.inside(find_peaks(aggregate, dp, maxima).indices, rec.samples)
        # a window's wave is its place in its run of overlapping windows
        starts = np.diff(peaks, prepend=-cat.spec.width) >= cat.spec.width
        order = np.arange(peaks.size)
        wave = order - np.maximum.accumulate(np.where(starts, order, 0))
        found = [None] * peaks.size
        for w in range(wave.max(initial=-1) + 1):
            members = np.flatnonzero(wave == w)
            at = peaks[members]
            for i, dec in zip(members.tolist(), classify_events(
                    cat.spec.cut(work, at), cat, acceptance_factor, at)):
                dec.round = rnd
                found[i] = dec
                if dec.classified:
                    subtract_spike(work, dec, cat)
        decisions += found
        accepted = np.array([d.peak_index for d in found if d.classified], dtype=np.int64)
        if not accepted.size:
            break
    entries = sorted(((d.neuron_id, d.corrected_time(), d.round)
                      for d in decisions if d.classified), key=lambda e: e[1])
    return SpikeTrain(entries=entries), decisions, rec.with_data(work, STAGE_RESIDUAL)


def unclassified_rate_per_round(decisions: list[ClassificationDecision]) -> dict[int, float]:
    """Fraction of events left unclassified in each round.

    A sudden increase while sorting fresh data is the sign the catalogue
    no longer fits and should be re-estimated.
    """
    totals: dict[int, int] = {}
    misses: dict[int, int] = {}
    for dec in decisions:
        totals[dec.round] = totals.get(dec.round, 0) + 1
        if not dec.classified:
            misses[dec.round] = misses.get(dec.round, 0) + 1
    return {rnd: misses.get(rnd, 0) / totals[rnd] for rnd in sorted(totals)}


def _catalogue_keys(channels: int, n_templates: int) -> list[str]:
    """The key opening each line after the magic line: the six header
    keys, then per template its id, its L1 size and one waveform line per
    derivative order per channel (``f 0`` ... ``f2 <channels - 1>``)."""
    waves = [f"{name} {c}" for name in ("f", "f1", "f2") for c in range(channels)]
    return ["channels", "width", "before", "after", "rate_hz", "templates",
            *(["neuron", "l1_size", *waves] * n_templates)]


def save_catalogue(cat: Catalogue, path) -> None:
    """Write the catalogue in its versioned text format: the magic line,
    then each key of ``_catalogue_keys`` followed by its value(s), all
    floats at 17 significant digits."""
    values = [cat.channels, cat.spec.width, cat.spec.before, cat.spec.after,
              f"{cat.rate_hz:.17g}", len(cat.templates)]
    for t in cat.templates:
        values += [t.neuron_id, f"{t.l1_size:.17g}",
                   *(" ".join(f"{v:.17g}" for v in row) for row in (*t.f, *t.f1, *t.f2))]
    keys = _catalogue_keys(cat.channels, len(cat.templates))
    atomic_write_text(path, "\n".join([CATALOGUE_MAGIC, *map("{} {}".format, keys, values)]) + "\n")


def _values(path, lines: list[str], keys: list[str]) -> list[str]:
    """What follows the key on each line after the magic line, checking
    each line against ``keys``; the first line that differs is named."""
    if len(lines) <= len(keys):
        raise DataFormatError(f"{path}: truncated catalogue")
    values = []
    for number, (key, line) in enumerate(zip(keys, lines[1:]), start=2):
        if not line.startswith(key + " "):
            raise DataFormatError(f"{path}: line {number}: expected '{key} ...', got {line!r}")
        values.append(line[len(key) + 1:])
    return values


def load_catalogue(path) -> Catalogue:
    """Read a catalogue written by save_catalogue; strict about layout:
    the header sets the line count, and every line must open with the
    key ``_catalogue_keys`` puts there."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    if lines[:1] != [CATALOGUE_MAGIC]:
        raise DataFormatError(f"{path}: not a catalogue file (bad magic line)")
    header = _values(path, lines, _catalogue_keys(0, 0))  # the six header lines
    try:
        channels, width, before, after = map(int, header[:4])
        rate_hz, n_templates = float(header[4]), int(header[5])
    except ValueError as exc:
        raise DataFormatError(f"{path}: bad header value ({exc})") from exc
    if width != before + after + 1:
        raise DataFormatError(f"{path}: width {width} != before + after + 1")
    if channels < 1 or n_templates < 1:
        raise DataFormatError(f"{path}: channels and templates must be >= 1")
    # counted before the layout is built: a corrupt count fails here, at once
    per_template = 2 + 3 * channels
    size = 1 + len(header) + n_templates * per_template
    if len(lines) != size:
        raise DataFormatError(f"{path}: {len(lines)} lines for {size}: " + (
            "truncated catalogue" if len(lines) < size else "trailing content after last template"))
    values = _values(path, lines, _catalogue_keys(channels, n_templates))
    try:
        spec = CutSpec(before=before, after=after)
        templates = []
        for at in range(len(header), size - 1, per_template):
            try:
                waves = np.array([v.split() for v in values[at + 2:at + per_template]],
                                 dtype=np.float64).reshape(3, channels, width)
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {at + 4}: expected {width} numbers"
                                      f" on each waveform line ({exc})") from exc
            templates.append(Template(int(values[at]), *waves, float(values[at + 1])))
        return Catalogue(templates=templates, spec=spec, channels=channels, rate_hz=rate_hz)
    except ValueError as exc:  # ParameterError is one
        raise DataFormatError(f"{path}: {exc}") from exc


SPIKES_HEADER = ["round", "neuron", "peak_index", "delta", "corrected_time_samples",
                 "corrected_time_seconds", "rss_before", "rss_after"]


def export_spikes_csv(decisions: list[ClassificationDecision], rate_hz: float,
                      path) -> None:
    """Accepted spikes, one row each, in classification order."""
    write_csv(path, SPIKES_HEADER,
              ([d.round, d.neuron_id, d.peak_index, d.delta, d.corrected_time(),
                d.corrected_time() / rate_hz, d.rss_before, d.rss_best]
               for d in decisions if d.classified))


def export_unclassified_csv(decisions: list[ClassificationDecision], path) -> None:
    """Events no template explained, one row each."""
    write_csv(path, ["round", "peak_index", "rss"],
              ([d.round, d.peak_index, d.rss_before] for d in decisions if not d.classified))
