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


def save_catalogue(cat: Catalogue, path) -> None:
    """Write the catalogue in its versioned text format.

    Header lines: magic, channels, width, before, after, rate_hz,
    templates.  Then per template: `neuron <id>`, `l1_size <v>`, and one
    `f|f1|f2 <channel> <w values>` line per channel per derivative order,
    all floats at 17 significant digits.
    """
    lines = [CATALOGUE_MAGIC,
             f"channels {cat.channels}",
             f"width {cat.spec.width}",
             f"before {cat.spec.before}",
             f"after {cat.spec.after}",
             f"rate_hz {cat.rate_hz:.17g}",
             f"templates {len(cat.templates)}"]
    for t in cat.templates:
        lines.append(f"neuron {t.neuron_id}")
        lines.append(f"l1_size {t.l1_size:.17g}")
        for name, mat in (("f", t.f), ("f1", t.f1), ("f2", t.f2)):
            for c in range(cat.channels):
                values = " ".join(f"{v:.17g}" for v in mat[c])
                lines.append(f"{name} {c} {values}")
    atomic_write_text(path, "\n".join(lines) + "\n")


class _LineReader:
    def __init__(self, path, lines):
        self.path = path
        self.lines = lines
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise DataFormatError(f"{self.path}: truncated catalogue")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def field(self, key: str) -> str:
        line = self.next()
        head, _, rest = line.partition(" ")
        if head != key:
            raise DataFormatError(f"{self.path}: expected '{key} ...', got {line!r}")
        return rest


def load_catalogue(path) -> Catalogue:
    """Read a catalogue written by save_catalogue; strict about layout."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    reader = _LineReader(path, text.splitlines())
    if reader.next() != CATALOGUE_MAGIC:
        raise DataFormatError(f"{path}: not a catalogue file (bad magic line)")
    try:
        channels = int(reader.field("channels"))
        width = int(reader.field("width"))
        before = int(reader.field("before"))
        after = int(reader.field("after"))
        rate_hz = float(reader.field("rate_hz"))
        n_templates = int(reader.field("templates"))
    except ValueError as exc:
        raise DataFormatError(f"{path}: bad header value ({exc})") from exc
    if width != before + after + 1:
        raise DataFormatError(f"{path}: width {width} != before + after + 1")
    templates = []
    for _ in range(n_templates):
        try:
            neuron_id = int(reader.field("neuron"))
            l1_size = float(reader.field("l1_size"))
        except ValueError as exc:
            raise DataFormatError(f"{path}: bad template header ({exc})") from exc
        arrays = {}
        for name in ("f", "f1", "f2"):
            rows = []
            for c in range(channels):
                rest = reader.field(name)
                cells = rest.split()
                if len(cells) != width + 1 or cells[0] != str(c):
                    raise DataFormatError(
                        f"{path}: expected '{name} {c}' with {width} values")
                try:
                    rows.append([float(v) for v in cells[1:]])
                except ValueError as exc:
                    raise DataFormatError(f"{path}: bad float ({exc})") from exc
            arrays[name] = np.array(rows, dtype=np.float64)
        try:
            templates.append(Template(neuron_id=neuron_id, f=arrays["f"],
                                      f1=arrays["f1"], f2=arrays["f2"],
                                      l1_size=l1_size))
        except ParameterError as exc:
            raise DataFormatError(f"{path}: {exc}") from exc
    if reader.pos != len(reader.lines):
        raise DataFormatError(f"{path}: trailing content after last template")
    try:
        return Catalogue(templates=templates, spec=CutSpec(before=before, after=after),
                         channels=channels, rate_hz=rate_hz)
    except ParameterError as exc:
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
