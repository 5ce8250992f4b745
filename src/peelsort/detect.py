"""Spike detection on normalized traces.

Each channel is smoothed with a centered box filter, re-normalized by its
own median and MAD, and rectified (values below threshold zeroed).  The
rectified channels are summed and spikes are the local maxima of that
aggregate, thinned so no two detections fall within ``min_separation``
samples of each other.

One pass over the trace (``detection_pass``) smooths each channel once,
takes its median and MAD, and adds its rectified entries to the
aggregate; channels run in pairs on two threads.  The aggregate can also
be recomputed over any spans of samples from fixed statistics
(``aggregate_spans``).  Both rectify through one step, which brings a
smoothed channel to detection units in place and marks its entries at or
past the threshold, and both add the marked entries by index.  A span is
a row [start, stop) of an (m, 2) int64 array.  A sample of the aggregate
depends only on the trace within ``box_width // 2`` of it.  So a pass
handed the pass of the trace's first m samples keeps its statistics and
its aggregate but for the last ``box_width // 2`` entries, and sweeps
only the samples after them: ``sort`` takes the statistics once, on the
estimation window, and detects at them on the whole recording.  And
after a local change of the trace ``peel`` recomputes the aggregate on
the changed span widened by ``box_width // 2`` and gets the same bits as
a full pass.  A local maximum depends only on its two neighbours, so
``refresh_maxima`` looks for maxima again only on the recomputed spans
widened by one sample.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .ingest import Recording, STAGE_NORMALIZED, STAGE_RESIDUAL, atomic_write_text
from .preprocess import median_mad_inplace

POLARITIES = ("max", "min", "both")


@dataclass(frozen=True)
class DetectionParams:
    """Detection knobs; threshold is in MAD units of the filtered trace."""

    box_width: int = 5
    threshold: float = 4.0
    min_separation: int = 15
    guard: int = 50
    polarity: str = "max"

    def __post_init__(self):
        if self.box_width < 1 or self.box_width % 2 == 0:
            raise ParameterError(f"box_width must be an odd count >= 1, got {self.box_width}")
        if not 0 < self.threshold < np.inf:
            raise ParameterError(f"threshold must be positive and finite, got {self.threshold}")
        if self.min_separation < 1:
            raise ParameterError(f"min_separation must be >= 1, got {self.min_separation}")
        if self.guard < 0:
            raise ParameterError(f"guard must be >= 0, got {self.guard}")
        if self.polarity not in POLARITIES:
            raise ParameterError(f"polarity must be one of {POLARITIES}, got {self.polarity!r}")


def _box(p: DetectionParams) -> np.ndarray:
    return np.full(p.box_width, 1.0 / p.box_width)


def _rectify(smooth: np.ndarray, location: float, scale: float, p: DetectionParams,
             mask: np.ndarray) -> np.ndarray:
    """Bring a smoothed channel to detection units in place (subtract the
    location, divide by the scale, apply the polarity) and mark its entries
    at or past the threshold, the ones the aggregate adds, in ``mask``."""
    smooth -= location
    smooth /= scale
    if p.polarity == "min":
        np.negative(smooth, out=smooth)
    elif p.polarity == "both":
        np.abs(smooth, out=smooth)
    return np.greater_equal(smooth, p.threshold, out=mask)


def _samples(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Every index of the spans [lo, hi), in order; a span with hi <= lo has none."""
    lengths = np.maximum(hi - lo, 0)
    return np.repeat(lo - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def detection_pass(data: np.ndarray, p: DetectionParams, first_pass=None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rectified aggregate of the whole trace, and each channel's location
    and scale: the median and MAD-based scale of its box-smoothed trace,
    or those of ``first_pass``, the pass of the trace's first m samples.

    ``data`` is a (channels, samples) array.  Each channel is smoothed
    once.  Its statistics are taken in place on a copy of the smoothed
    channel, and its entries at or past the threshold are added to the
    aggregate in channel order, so every entry has the bits of
    ``aggregate_spans`` over the whole trace at that location and scale.
    A dead channel gets scale 0 and adds nothing.  A ``first_pass`` of
    the whole trace is returned as it is, and its aggregate is the
    caller's to write in.  Otherwise its aggregate is kept but for its
    last ``box_width // 2`` entries, which saw the zeros np.convolve pads
    with, and only the samples after it are swept, reaching back
    ``2 * (box_width // 2)``; the join has the bits of a pass over the
    whole trace at those statistics.

    Channels are taken in pairs on two lanes, this thread and one worker
    thread, which take the statistics of a pair at once (partition and
    large ufuncs release the GIL); the last of an odd count has no
    partner.  Each lane holds one smoothed channel and one scratch row,
    whatever the host; with ``first_pass`` given, no statistics are taken
    and the scratch row is only the boolean mask.  Every row is allocated
    in this thread and the worker allocates none: memory a worker thread
    allocates stays in its malloc arena after it is freed.
    """
    channels, n = data.shape
    fixed = first_pass is not None
    if fixed:
        head, location, scale = first_pass
        if head.ndim != 1 or {np.shape(location), np.shape(scale)} != {(channels,)}:
            raise ParameterError(f"a first pass of a (m,) aggregate and ({channels},) statistics,"
                                 f" got {head.shape}, {np.shape(location)}, {np.shape(scale)}")
        m, half = head.size, p.box_width // 2
        if not p.box_width <= m <= n:
            raise ParameterError(f"a first pass of {m} samples on {n}, box width {p.box_width}")
        if m == n:
            return first_pass
        data = data[:, m - 2 * half:]
        n = data.shape[1]
    else:
        location = np.empty(channels)
        scale = np.empty(channels)
    box = _box(p)
    aggregate = np.zeros(n)
    scratch = np.empty((min(channels, 2), n), dtype=bool if fixed else np.float64)

    def smoothed(c: int, row: np.ndarray) -> np.ndarray:
        chan = data[c]
        if not fixed and not chan.flags.writeable:
            # np.convolve would copy a read-only row itself
            row[:] = chan
            chan = row
        return np.convolve(chan, box, mode="same")

    def mark(c: int, smooth: np.ndarray, row: np.ndarray) -> np.ndarray | None:
        """Take channel c's statistics, unless fixed, and rectify ``smooth``
        in place; the mask returned is a view of ``row``.  None for a dead
        channel."""
        if not fixed:
            row[:] = smooth
            location[c], scale[c] = median_mad_inplace(row)
        if scale[c] == 0.0:
            return None
        # the scratch row is free again once the statistics are taken
        return _rectify(smooth, location[c], scale[c], p, row.view(np.bool_)[:n])

    def add_pair(c: int, worker: ThreadPoolExecutor) -> None:
        """Add channels c and c + 1 (if any) to the aggregate, in that order."""
        if c + 1 < channels:
            odd = smoothed(c + 1, scratch[1])
            partner = worker.submit(mark, c + 1, odd, scratch[1])
        even = smoothed(c, scratch[0])
        marked = [(even, mark(c, even, scratch[0]))]
        if c + 1 < channels:
            marked.append((odd, partner.result()))
        for smooth, mask in marked:
            if mask is not None:
                at = np.flatnonzero(mask)
                aggregate[at] += smooth[at]

    with ThreadPoolExecutor(max_workers=1) as worker:
        for c in range(0, channels, 2):
            add_pair(c, worker)
    if fixed:
        del scratch  # the lanes' rows go before the join
        aggregate = np.concatenate([head[:m - half], aggregate[half:]])
    return aggregate, location, scale


def aggregate_spans(data: np.ndarray, location: np.ndarray, scale: np.ndarray,
                    p: DetectionParams, spans, out: np.ndarray) -> np.ndarray:
    """Write the rectified aggregate over each span [start, stop) into ``out``;
    return the spans written, merged, as an (m, 2) array of [start, stop).

    ``spans`` is an (m, 2) array of [start, stop) ordered by start; spans
    may overlap or reach past the trace.  ``out`` has one entry per sample
    of ``data`` and keeps its values outside the spans.  Each span is
    smoothed together with ``box_width // 2`` samples on either side, all
    spans in one ``np.convolve`` per channel, so every written entry is
    bit-equal to the same entry of a pass over the whole trace.
    """
    n = data.shape[1]
    half = p.box_width // 2
    spans = np.clip(np.asarray(spans, dtype=np.int64).reshape(-1, 2), 0, n)
    spans = spans[spans[:, 0] < spans[:, 1]]
    if not len(spans):
        return spans
    # spans closer than a box width are joined, so only the first (last)
    # piece of trace read can reach the start (end) of the trace, and it
    # sits at that end of the joined pieces, where np.convolve pads with zeros
    reach = np.maximum.accumulate(spans[:, 1])
    first = np.concatenate(([True], spans[1:, 0] - reach[:-1] >= p.box_width))
    start, stop = spans[first, 0], reach[np.roll(first, -1)]  # a join ends before the next
    lo, hi = np.maximum(start - half, 0), np.minimum(stop + half, n)
    # np.convolve swaps its operands when the box is the longer one, which
    # sums in another order
    short = hi - lo < p.box_width
    lo[short] = np.maximum(hi[short] - p.box_width, 0)
    hi[short] = np.minimum(lo[short] + p.box_width, n)
    reads = _samples(lo, hi)
    shift = np.cumsum(hi - lo) - hi  # sample s of read i sits at s + shift[i]
    acc = np.zeros(reads.size)
    mask = np.empty(reads.size, dtype=bool)
    for chan, loc, sc in zip(data, location.tolist(), scale.tolist()):
        if sc == 0.0:
            continue  # dead channel contributes nothing
        smooth = np.convolve(chan[reads], _box(p), mode="same")
        at = np.flatnonzero(_rectify(smooth, loc, sc, p, mask))
        acc[at] += smooth[at]
    out[_samples(start, stop)] = acc[_samples(start + shift, stop + shift)]
    return np.stack([start, stop], axis=1)


def _is_maximum(seg: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Where an aggregate entry is positive, >= its left neighbour, > its right one."""
    return (seg > 0) & (seg >= left) & (seg > right)


def local_maxima(aggregate: np.ndarray, guard: int) -> np.ndarray:
    """Local maxima of ``aggregate`` in [max(guard, 1), min(n - guard, n - 1))."""
    n = aggregate.size
    lo = max(guard, 1)
    hi = min(n - guard, n - 1)
    if lo >= hi:
        return np.empty(0, dtype=np.int64)
    hits = _is_maximum(aggregate[lo:hi], aggregate[lo - 1:hi - 1], aggregate[lo + 1:hi + 1])
    return np.flatnonzero(hits) + lo


def refresh_maxima(maxima: np.ndarray, aggregate: np.ndarray, spans: np.ndarray,
                   guard: int) -> np.ndarray:
    """``local_maxima`` of ``aggregate`` after it was rewritten on ``spans``.

    ``maxima`` are the local maxima from before; ``spans`` are sorted,
    disjoint [start, stop) pairs, as ``aggregate_spans`` returns them.  A
    sample's status depends on it and its two neighbours, so only samples
    within one of a span are examined again, all spans in one array pass;
    every other index of ``maxima`` is kept.
    """
    if not len(spans):
        return maxima
    n = aggregate.size
    lo = np.maximum(spans[:, 0] - 1, max(guard, 1))
    hi = np.minimum(spans[:, 1] + 1, min(n - guard, n - 1))
    lo[1:] = np.maximum(lo[1:], hi[:-1])  # widened neighbours may share a sample
    at = _samples(lo, hi)
    fresh = at[_is_maximum(aggregate[at], aggregate[at - 1], aggregate[at + 1])]
    span = np.searchsorted(lo, maxima, side="right") - 1
    examined = (span >= 0) & (maxima < hi[np.maximum(span, 0)])
    return np.sort(np.concatenate([maxima[~examined], fresh]))


def _thin(candidates: np.ndarray, aggregate: np.ndarray, min_separation: int) -> np.ndarray:
    """Keep, within any min_separation window, only the largest-aggregate index.

    Greedy non-maximum suppression in order of descending aggregate value,
    ties resolved toward the smaller index.  One pass: each kept peak
    marks the min_separation - 1 samples on either side as taken.
    """
    if candidates.size == 0:
        return candidates
    order = np.lexsort((candidates, -aggregate[candidates]))
    base = int(candidates.min())
    reach = min_separation - 1
    taken = np.zeros(int(candidates.max()) - base + 1, dtype=bool)
    kept: list[int] = []
    for pos in (candidates[order] - base).tolist():
        if not taken[pos]:
            kept.append(pos)
            taken[max(pos - reach, 0):pos + reach + 1] = True
    return np.sort(np.array(kept, dtype=np.int64)) + base


def check_detectable(rec: Recording, p: DetectionParams) -> None:
    """Raise ParameterError unless ``rec`` is a stage and length detect takes."""
    if rec.stage not in (STAGE_NORMALIZED, STAGE_RESIDUAL):
        raise ParameterError(f"detect expects a normalized or residual recording, got {rec.stage!r}")
    if rec.samples < 2 * p.guard + p.box_width:
        raise ParameterError(
            f"recording of {rec.samples} samples is shorter than 2*guard + box_width "
            f"= {2 * p.guard + p.box_width}")


def find_peaks(aggregate: np.ndarray, p: DetectionParams, maxima: np.ndarray) -> np.ndarray:
    """Thinned local maxima of a rectified aggregate, as ``local_maxima``
    or ``refresh_maxima`` found them: increasing int64 sample indices."""
    return _thin(maxima, aggregate, p.min_separation)


def detect(rec: Recording, p: DetectionParams, first_pass=None) -> np.ndarray:
    """Find spike peaks in a normalized or residual recording.

    ``first_pass`` is the ``detection_pass`` of the first m samples of
    ``rec``, m up to all of them, where the caller has taken it already;
    detect extends it to the whole recording.  ParameterError if it does
    not fit ``rec``.

    Returns
    -------
    np.ndarray
        Strictly increasing int64 sample indices with pairwise gaps >=
        p.min_separation, all within [guard, samples - guard).
    """
    check_detectable(rec, p)
    aggregate = detection_pass(rec.data, p, first_pass)[0]
    return find_peaks(aggregate, p, local_maxima(aggregate, p.guard))


def write_peaks(peaks: np.ndarray, path) -> None:
    """One decimal index per line."""
    atomic_write_text(path, "".join(f"{i}\n" for i in peaks))
