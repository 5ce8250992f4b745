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

from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detect import (DetectionParams, aggregate_spans, check_detectable,
                     detection_pass, find_peaks, local_maxima, refresh_maxima)
from .errors import DataFormatError, ParameterError
from .events import CutSpec
from .ingest import Recording, STAGE_RESIDUAL, atomic_write_text, write_csv
from .jitter import aligned_center, estimate_jitter
# not called here: perfbench/tracing.py wraps this name in this namespace
from .detect import detect  # noqa: F401

CATALOGUE_MAGIC = "peelsort-catalogue v1"
DEFAULT_MAX_ROUNDS = 10
UNCLASSIFIED = -1


@dataclass
class Catalogue:
    """K templates by descending L1 size, plus the cut geometry: ``waves``
    (3, K, channels, width) holds every f, then every f1, then every f2,
    row k of each for neuron ``neuron_ids[k]``."""

    neuron_ids: np.ndarray
    waves: np.ndarray
    spec: CutSpec
    rate_hz: float

    def __post_init__(self):
        # a float or a bool would become an id silently
        if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool)
                   for i in np.asarray(self.neuron_ids, dtype=object).ravel()):
            raise ParameterError(f"neuron ids must be integers, got {self.neuron_ids!r}")
        self.neuron_ids = np.asarray(self.neuron_ids, dtype=np.int64)
        self.waves = np.ascontiguousarray(self.waves, dtype=np.float64)
        k, shape = self.neuron_ids.size, self.waves.shape
        if k < 1 or self.neuron_ids.ndim != 1 or shape[:2] + shape[3:] != (3, k, self.spec.width):
            raise ParameterError(f"expected (K,) neuron ids, K >= 1, and (3, K, channels, "
                                 f"{self.spec.width}) waves, got {self.neuron_ids.shape}, {shape}")
        with np.errstate(over="ignore"):  # an L1 size its file cannot store fails below
            sizes = self.l1_size
        if not (np.isfinite(self.waves).all() and np.isfinite(sizes).all()):
            raise ParameterError("template waveforms, derivatives and L1 sizes must be finite")
        if (sizes[:-1] + 1e-9 < sizes[1:]).any():
            raise ParameterError("templates must be ordered by descending l1_size")
        if not 0 < self.rate_hz < np.inf:
            raise ParameterError(f"sampling rate must be positive and finite, got {self.rate_hz}")
        # a decision names its template by neuron id, and -1 names none
        if np.unique(self.neuron_ids).size != k or self.neuron_ids.min() < 0:
            raise ParameterError("template neuron ids must be distinct and non-negative")

    @property
    def channels(self) -> int:
        return self.waves.shape[2]

    @property
    def l1_size(self) -> np.ndarray:
        """(K,) L1 norm of each template's f."""
        return np.abs(self.waves[0]).sum(axis=(1, 2))


# one row of a DecisionTable
Decision = namedtuple("Decision", "round peak_index neuron delta rss_before rss_after")


@dataclass(eq=False)
class DecisionTable:
    """Decisions as equal-length columns, one row per examined event: the
    peel round, the window's peak index, the accepted neuron id
    (UNCLASSIFIED where none was), the fitted offset, and the window's
    energy before and after subtracting the fit (delta and rss_after are
    NaN where unclassified).  Iterating yields Decision rows.
    """

    round: np.ndarray
    peak_index: np.ndarray
    neuron: np.ndarray
    delta: np.ndarray
    rss_before: np.ndarray
    rss_after: np.ndarray

    def __post_init__(self):
        if {column.shape for column in vars(self).values()} != {(self.peak_index.size,)}:
            raise ParameterError("decision columns must be 1-D and of one length")

    def __len__(self) -> int:
        return self.peak_index.size

    def __iter__(self):
        return map(Decision._make, zip(*(column.tolist() for column in vars(self).values())))

    @property
    def classified(self) -> np.ndarray:
        return self.neuron != UNCLASSIFIED

    @property
    def corrected_time(self) -> np.ndarray:
        """Spike time in samples: an event looks like f(t + delta), so the
        waveform actually sits delta samples before the window anchor.  Any
        error in the detected peak position cancels here to first order.
        NaN where unclassified.
        """
        return self.peak_index - self.delta

    def take(self, rows) -> DecisionTable:
        """The table of the given rows (indices or a boolean mask)."""
        return DecisionTable(*(column[rows] for column in vars(self).values()))

    @classmethod
    def concat(cls, tables: list[DecisionTable]) -> DecisionTable:
        return cls(*map(np.concatenate, zip(*(vars(t).values() for t in tables))))


def classify_events(cuts: np.ndarray, cat: Catalogue, acceptance_factor: float,
                    peaks) -> DecisionTable:
    """Decide every event of an (events, C, W) stack of windows, in order.

    Each event is accepted for the template whose aligned subtraction
    leaves the least energy, and only if that residual is strictly below
    ``acceptance_factor`` times the event's squared norm (factor 1.0:
    subtracting must help at all).  Ties take the template listed first.
    ``peaks`` gives each event's peak index.  All events are fitted in one
    estimate_jitter call; every row is of round 0.
    """
    peaks = np.asarray(peaks, dtype=np.int64)
    if peaks.shape != cuts.shape[:1]:
        raise ParameterError(f"{peaks.size} peak indices for {len(cuts)} events")
    fit = estimate_jitter(cuts, cat.waves, neuron_ids=cat.neuron_ids)
    best = np.argmin(fit.rss_after, axis=1)
    at = np.arange(best.size), best
    rss_best = fit.rss_after[at]
    accept = rss_best < acceptance_factor * fit.energy
    return DecisionTable(round=np.zeros(best.size, dtype=np.int64), peak_index=peaks,
                         neuron=np.where(accept, cat.neuron_ids[best], UNCLASSIFIED),
                         delta=np.where(accept, fit.delta[at], np.nan),
                         rss_before=fit.energy, rss_after=np.where(accept, rss_best, np.nan))


def classify_event(g: np.ndarray, cat: Catalogue, acceptance_factor: float = 1.0,
                   peak_index: int = 0) -> DecisionTable:
    """Decide one (C, W) event window: the one-row case of classify_events."""
    return classify_events(g[None], cat, acceptance_factor, [peak_index])


def subtract_spikes(data: np.ndarray, decisions: DecisionTable, cat: Catalogue) -> None:
    """Subtract the aligned template f + delta*f1 + delta^2/2*f2 of every
    classified row from its window of the writable, C-contiguous
    (channels, samples) ``data``, in place, in one step through a flat
    index.  Overlapping windows are subtracted in row order, as one row
    at a time would be.

    Raises ParameterError if ``data`` is not C-contiguous (its flat view
    would be a copy), a window falls outside it, or a neuron has no template.
    """
    if not data.flags.c_contiguous:
        raise ParameterError("spikes are subtracted from a C-contiguous trace only")
    rows = decisions.take(decisions.classified)
    match = rows.neuron[:, None] == cat.neuron_ids
    if not match.any(axis=1).all():
        raise ParameterError("a decision names a neuron with no template in the catalogue")
    if not np.array_equal(cat.spec.inside(rows.peak_index, data.shape[1]), rows.peak_index):
        raise ParameterError("a decision's window falls outside the trace")
    aligned = aligned_center(cat.waves, match.argmax(axis=1), rows.delta)
    # subtracted by a 1-D index and 1-D values: numpy's fast ufunc.at path
    channel, at = cat.spec.windows(cat.channels, rows.peak_index)
    np.subtract.at(data.reshape(-1), (channel * data.shape[1] + at).ravel(), aligned.ravel())


def peel(rec: Recording, cat: Catalogue, dp: DetectionParams,
         max_rounds: int = DEFAULT_MAX_ROUNDS,
         acceptance_factor: float = 1.0, *, in_place: bool = False,
         ) -> tuple[DecisionTable, DecisionTable, Recording]:
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
    wave w holds the w-th window of every run of overlapping windows, is
    cut after the subtractions of the waves before it, and is subtracted
    by one subtract_spikes call.

    Returns the spike train (the classified rows, sorted by corrected
    time, ties in decision order), the decisions (round by round, in peak
    order within a round) and the residual.  Stops after a round with
    zero acceptances, or after ``max_rounds``.
    """
    if max_rounds < 1:
        raise ParameterError(f"max_rounds must be >= 1, got {max_rounds}")
    if not acceptance_factor > 0:  # a factor <= 0 accepts nothing; NaN fails too
        raise ParameterError(f"acceptance_factor must be > 0, got {acceptance_factor}")
    if (cat.channels, cat.rate_hz) != (rec.channels, rec.rate_hz):
        raise DataFormatError(f"catalogue of {cat.channels} channels at {cat.rate_hz} Hz does not"
                              f" match recording of {rec.channels} channels at {rec.rate_hz} Hz")
    check_detectable(rec, dp)
    if in_place and not (rec.data.flags.owndata and rec.data.flags.c_contiguous):
        raise ParameterError("peel in place needs a recording that owns its samples, in C order")
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
    rounds: list[DecisionTable] = []
    accepted = np.empty(0, dtype=np.int64)
    for rnd in range(max_rounds):
        written = aggregate_spans(work, location, scale, dp, accepted[:, None] + reach, aggregate)
        maxima = refresh_maxima(maxima, aggregate, written, dp.guard)
        peaks = cat.spec.inside(find_peaks(aggregate, dp, maxima).indices, rec.samples)
        # a window's wave is its place in its run of overlapping windows
        starts = np.diff(peaks, prepend=-cat.spec.width) >= cat.spec.width
        order = np.arange(peaks.size)
        wave = order - np.maximum.accumulate(np.where(starts, order, 0))
        waves, members = [], []
        for w in range(wave.max(initial=0) + 1):  # one wave, empty, when no peak is found
            members.append(np.flatnonzero(wave == w))
            at = peaks[members[-1]]
            waves.append(classify_events(cat.spec.cut(work, at), cat, acceptance_factor, at))
            subtract_spikes(work, waves[-1], cat)
        found = DecisionTable.concat(waves).take(np.argsort(np.concatenate(members)))
        found.round.fill(rnd)
        rounds.append(found)
        accepted = found.peak_index[found.classified]
        if not accepted.size:
            break
    decisions = DecisionTable.concat(rounds)
    spikes = np.flatnonzero(decisions.classified)
    train = decisions.take(spikes[np.argsort(decisions.corrected_time[spikes], kind="stable")])
    return train, decisions, rec.with_data(work, STAGE_RESIDUAL)


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
    k, width = cat.neuron_ids.size, cat.spec.width
    values = [cat.channels, width, cat.spec.before, cat.spec.after, f"{cat.rate_hz:.17g}", k]
    # each template's waveform lines: f, f1, f2, each one line per channel
    lines = np.moveaxis(cat.waves, 1, 0).reshape(k, -1, width).tolist()
    for neuron_id, l1_size, rows in zip(cat.neuron_ids.tolist(), cat.l1_size.tolist(), lines):
        values += [neuron_id, f"{l1_size:.17g}",
                   *(" ".join(f"{v:.17g}" for v in row) for row in rows)]
    keys = _catalogue_keys(cat.channels, k)
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
    except (OSError, UnicodeDecodeError) as exc:
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
    # the values after the header: per template its id, L1 size and waveform lines
    values = _values(path, lines, _catalogue_keys(channels, n_templates))[len(header):]
    try:
        waves = []  # each template's (3, channels, width) f, f1 and f2
        for at in range(0, len(values), per_template):
            try:
                waves.append(np.array([v.split() for v in values[at + 2:at + per_template]],
                                      dtype=np.float64).reshape(3, channels, width))
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {len(header) + at + 4}: expected {width}"
                                      f" numbers on each waveform line ({exc})") from exc
        cat = Catalogue(neuron_ids=[int(v) for v in values[::per_template]],
                        waves=np.stack(waves, axis=1), spec=CutSpec(before=before, after=after),
                        rate_hz=rate_hz)
        if not (np.abs(np.array(values[1::per_template], dtype=np.float64) - cat.l1_size)
                <= 1e-9).all():  # NaN fails too
            raise ParameterError("a stored l1_size does not match its waveform")
        return cat
    except (ValueError, OverflowError) as exc:  # ParameterError is a ValueError
        raise DataFormatError(f"{path}: {exc}") from exc


SPIKES_HEADER = ["round", "neuron", "peak_index", "delta", "corrected_time_samples",
                 "corrected_time_seconds", "rss_before", "rss_after"]


def export_spikes_csv(decisions: DecisionTable, rate_hz: float, path) -> None:
    """Accepted spikes, one row each, in decision order."""
    d = decisions.take(decisions.classified)
    time = d.corrected_time
    write_csv(path, SPIKES_HEADER, zip(*(column.tolist() for column in (
        d.round, d.neuron, d.peak_index, d.delta, time, time / rate_hz,
        d.rss_before, d.rss_after))))


def export_unclassified_csv(decisions: DecisionTable, path) -> None:
    """Events no template explained, one row each."""
    d = decisions.take(~decisions.classified)
    write_csv(path, ["round", "peak_index", "rss"], zip(*(column.tolist() for column in (
        d.round, d.peak_index, d.rss_before))))
