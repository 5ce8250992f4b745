"""Spike detection on normalized traces.

Each channel is smoothed with a centered box filter, re-normalized by its
own median and MAD, and rectified (values below threshold zeroed).  The
rectified channels are summed and spikes are the local maxima of that
aggregate, thinned so no two detections fall within ``min_separation``
samples of each other.

The per-channel location and scale (``detection_scale``) are taken apart
from the aggregate (``aggregate_spans``), which is computed over any
spans of samples from those fixed statistics.  A sample of the aggregate
depends only on the trace within ``box_width // 2`` of it, so after a
local change of the trace ``peel`` recomputes the aggregate on the
changed span widened by that much and gets the same bits as a full pass.
"""

from __future__ import annotations

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


@dataclass
class PeakList:
    """Strictly increasing spike sample indices."""

    indices: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indices.size and np.any(np.diff(self.indices) <= 0):
            raise ParameterError("peak indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.indices)


def _box(p: DetectionParams) -> np.ndarray:
    return np.full(p.box_width, 1.0 / p.box_width)


def detection_scale(data: np.ndarray, p: DetectionParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel median and MAD-based scale of the box-smoothed trace.

    ``data`` is a (channels, samples) array.  A dead channel gets scale 0
    and contributes nothing to the aggregate.  Both statistics are taken
    in place on the smoothed channel.
    """
    box = _box(p)
    location = np.empty(data.shape[0])
    scale = np.empty(data.shape[0])
    for c, chan in enumerate(data):
        location[c], scale[c] = median_mad_inplace(np.convolve(chan, box, mode="same"))
    return location, scale


def aggregate_spans(data: np.ndarray, location: np.ndarray, scale: np.ndarray,
                    p: DetectionParams, spans, out: np.ndarray) -> None:
    """Write the rectified aggregate over each span [start, stop) into ``out``.

    ``spans`` are ordered by start and may overlap or reach past the trace;
    ``out`` has one entry per sample of ``data`` and keeps its values
    outside the spans.  Each span is smoothed together with
    ``box_width // 2`` samples on either side, all spans in one
    ``np.convolve`` per channel, so every written entry is bit-equal to
    the same entry of a pass over the whole trace.
    """
    n = data.shape[1]
    half = p.box_width // 2
    # spans closer than a box width are joined, so only the first (last)
    # piece of trace read can reach the start (end) of the trace, and it
    # sits at that end of the joined pieces, where np.convolve pads with zeros
    merged: list[list[int]] = []
    for start, stop in spans:
        start, stop = max(start, 0), min(stop, n)
        if merged and start - merged[-1][1] < p.box_width:
            merged[-1][1] = max(merged[-1][1], stop)
        elif start < stop:
            merged.append([start, stop])
    if not merged:
        return
    reads = []
    for start, stop in merged:
        lo, hi = max(start - half, 0), min(stop + half, n)
        if hi - lo < p.box_width:
            # np.convolve swaps its operands when the box is the longer one,
            # which sums in another order
            lo = max(hi - p.box_width, 0)
            hi = min(lo + p.box_width, n)
        reads.append((lo, hi))
    box = _box(p)
    acc = np.zeros(sum(hi - lo for lo, hi in reads))
    for chan, loc, sc in zip(data, location.tolist(), scale.tolist()):
        if sc == 0.0:
            continue  # dead channel contributes nothing
        if len(reads) == 1:
            piece = chan[reads[0][0]:reads[0][1]]
        else:
            piece = np.concatenate([chan[lo:hi] for lo, hi in reads])
        smooth = np.convolve(piece, box, mode="same")
        smooth -= loc
        smooth /= sc
        if p.polarity in ("max", "both"):
            acc += np.where(smooth >= p.threshold, smooth, 0.0)
        if p.polarity in ("min", "both"):
            flipped = -smooth
            acc += np.where(flipped >= p.threshold, flipped, 0.0)
    offset = 0
    for (start, stop), (lo, hi) in zip(merged, reads):
        out[start:stop] = acc[offset + start - lo:offset + stop - lo]
        offset += hi - lo


def _rectified_aggregate(rec: Recording, p: DetectionParams) -> np.ndarray:
    aggregate = np.empty(rec.samples)
    aggregate_spans(rec.data, *detection_scale(rec.data, p), p, [(0, rec.samples)], aggregate)
    return aggregate


def _local_maxima(aggregate: np.ndarray, guard: int) -> np.ndarray:
    n = aggregate.size
    lo = max(guard, 1)
    hi = min(n - guard, n - 1)
    if lo >= hi:
        return np.empty(0, dtype=np.int64)
    seg = aggregate[lo:hi]
    hits = (seg > 0) & (seg >= aggregate[lo - 1:hi - 1]) & (seg > aggregate[lo + 1:hi + 1])
    return np.flatnonzero(hits) + lo


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


def find_peaks(aggregate: np.ndarray, p: DetectionParams) -> PeakList:
    """Thinned local maxima of a rectified aggregate, one pass over all of it."""
    candidates = _local_maxima(aggregate, p.guard)
    return PeakList(indices=_thin(candidates, aggregate, p.min_separation))


def detect(rec: Recording, p: DetectionParams) -> PeakList:
    """Find spike peaks in a normalized or residual recording.

    Returns
    -------
    PeakList
        Strictly increasing indices with pairwise gaps >= p.min_separation,
        all within [guard, samples - guard).
    """
    check_detectable(rec, p)
    return find_peaks(_rectified_aggregate(rec, p), p)


def write_peaks(peaks: PeakList, path) -> None:
    """One decimal index per line."""
    atomic_write_text(path, "".join(f"{i}\n" for i in peaks.indices))
