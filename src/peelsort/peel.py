"""Iterative classify-and-subtract spike sorting.

Every detected event is matched against each catalogue template after
jitter alignment; the best-fitting template is accepted only when
subtracting it lowers the event's squared norm.  Accepted spikes are
subtracted from the trace in ascending peak order, each subtraction
applied before later events in the same round are examined, and detection
runs again on the residual.  Superpositions surface one component per
round this way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .detect import DetectionParams, detect
from .errors import DataFormatError, ParameterError
from .events import CutSpec
from .ingest import Recording, STAGE_RESIDUAL, atomic_write_text
from .jitter import Template, TemplateStack, aligned_center, fit_jitter
# not called here: perfbench/tracing.py counts calls of it in this namespace
from .jitter import estimate_jitter  # noqa: F401

CATALOGUE_MAGIC = "peelsort-catalogue v1"
DEFAULT_MAX_ROUNDS = 10


@dataclass
class Catalogue:
    """Templates ordered by descending L1 size, plus the cut geometry.

    ``stack`` holds the templates as (K, C, W) arrays, built once, so
    every event is fitted against all of them in one array pass.
    """

    templates: list[Template]
    spec: CutSpec
    channels: int
    rate_hz: float
    stack: TemplateStack = field(init=False, repr=False, compare=False)

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
        if self.rate_hz <= 0:
            raise ParameterError(f"sampling rate must be positive, got {self.rate_hz}")
        self.stack = TemplateStack.of(self.templates)

    def template_for(self, neuron_id: int) -> Template:
        for t in self.templates:
            if t.neuron_id == neuron_id:
                return t
        raise ParameterError(f"no template for neuron {neuron_id}")


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


def classify_event(g: np.ndarray, cat: Catalogue,
                   acceptance_factor: float = 1.0,
                   peak_index: int = 0) -> ClassificationDecision:
    """Pick the template whose aligned subtraction leaves the least energy.

    The event is accepted for the best template only if the residual is
    strictly below ``acceptance_factor`` times the event's squared norm
    (factor 1.0: subtracting must help at all).  Ties take the template
    listed first.
    """
    if g.shape != (cat.channels, cat.spec.width):
        raise ParameterError(
            f"event shape {g.shape} does not match catalogue ({cat.channels}, {cat.spec.width})")
    rss_before = float(np.sum(g * g))
    fit = fit_jitter(g, cat.stack)
    best = int(np.argmin(fit.rss_after))
    rss_best = float(fit.rss_after[best])
    if rss_best < acceptance_factor * rss_before:
        return ClassificationDecision(peak_index=peak_index, rss_before=rss_before,
                                      neuron_id=int(cat.stack.neuron_ids[best]),
                                      delta=float(fit.delta[best]), rss_best=rss_best)
    return ClassificationDecision(peak_index=peak_index, rss_before=rss_before)


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
         acceptance_factor: float = 1.0,
         ) -> tuple[SpikeTrain, list[ClassificationDecision], Recording]:
    """Run detect/classify/subtract rounds until nothing more is accepted.

    Each round detects on the previous round's residual as it is, then
    classifies and subtracts on one writable copy of it.  Within a round
    events are processed in ascending peak order and every accepted
    template is subtracted before the next event is cut, so overlapping
    windows are never explained twice.  Stops after a round with zero
    acceptances, or after ``max_rounds``.
    """
    if max_rounds < 1:
        raise ParameterError(f"max_rounds must be >= 1, got {max_rounds}")
    if not acceptance_factor > 0:  # a factor <= 0 accepts nothing; NaN fails too
        raise ParameterError(f"acceptance_factor must be > 0, got {acceptance_factor}")
    before, after = cat.spec.before, cat.spec.after
    decisions: list[ClassificationDecision] = []
    residual = rec
    for rnd in range(max_rounds):
        peaks = detect(residual, dp)
        work = residual.data.copy()
        accepted = 0
        for idx in peaks.indices.tolist():
            start = idx - before
            stop = idx + after + 1
            if start < 0 or stop > rec.samples:
                continue
            dec = classify_event(work[:, start:stop], cat, acceptance_factor,
                                 peak_index=idx)
            dec.round = rnd
            decisions.append(dec)
            if dec.classified:
                subtract_spike(work, dec, cat)
                accepted += 1
        residual = rec.with_data(work, STAGE_RESIDUAL)
        if accepted == 0:
            break
    entries = sorted(((d.neuron_id, d.corrected_time(), d.round)
                      for d in decisions if d.classified), key=lambda e: e[1])
    return SpikeTrain(entries=entries), decisions, residual


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


def export_spikes_csv(decisions: list[ClassificationDecision], rate_hz: float,
                      path) -> None:
    """Accepted spikes, one row each, in classification order."""
    lines = ["round,neuron,peak_index,delta,corrected_time_samples,"
             "corrected_time_seconds,rss_before,rss_after"]
    for dec in decisions:
        if not dec.classified:
            continue
        t_samples = dec.corrected_time()
        lines.append(",".join([
            str(dec.round), str(dec.neuron_id), str(dec.peak_index),
            f"{dec.delta:.17g}", f"{t_samples:.17g}",
            f"{t_samples / rate_hz:.17g}",
            f"{dec.rss_before:.17g}", f"{dec.rss_best:.17g}"]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def export_unclassified_csv(decisions: list[ClassificationDecision], path) -> None:
    """Events no template explained, one row each."""
    lines = ["round,peak_index,rss"]
    for dec in decisions:
        if dec.classified:
            continue
        lines.append(f"{dec.round},{dec.peak_index},{dec.rss_before:.17g}")
    atomic_write_text(path, "\n".join(lines) + "\n")
