"""Spike detection on normalized traces.

Each channel is smoothed with a centered box filter, re-normalized by its
own median and MAD, and rectified (values below threshold zeroed).  The
rectified channels are summed and spikes are the local maxima of that
aggregate, thinned so no two detections fall within ``min_separation``
samples of each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .ingest import Recording, STAGE_NORMALIZED, STAGE_RESIDUAL, atomic_write_text
from .preprocess import MAD_SCALE

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
        if self.threshold <= 0:
            raise ParameterError(f"threshold must be positive, got {self.threshold}")
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


def _rectified_aggregate(rec: Recording, p: DetectionParams) -> np.ndarray:
    box = np.full(p.box_width, 1.0 / p.box_width)
    aggregate = np.zeros(rec.samples)
    for chan in rec.data:
        smooth = np.convolve(chan, box, mode="same")
        smooth -= np.median(smooth)
        scale = MAD_SCALE * np.median(np.abs(smooth), overwrite_input=True)
        if scale == 0.0:
            continue  # dead channel contributes nothing
        smooth /= scale
        if p.polarity in ("max", "both"):
            aggregate += np.where(smooth >= p.threshold, smooth, 0.0)
        if p.polarity in ("min", "both"):
            flipped = -smooth
            aggregate += np.where(flipped >= p.threshold, flipped, 0.0)
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


def detect(rec: Recording, p: DetectionParams) -> PeakList:
    """Find spike peaks in a normalized or residual recording.

    Returns
    -------
    PeakList
        Strictly increasing indices with pairwise gaps >= p.min_separation,
        all within [guard, samples - guard).
    """
    if rec.stage not in (STAGE_NORMALIZED, STAGE_RESIDUAL):
        raise ParameterError(f"detect expects a normalized or residual recording, got {rec.stage!r}")
    if rec.samples < 2 * p.guard + p.box_width:
        raise ParameterError(
            f"recording of {rec.samples} samples is shorter than 2*guard + box_width "
            f"= {2 * p.guard + p.box_width}")
    aggregate = _rectified_aggregate(rec, p)
    candidates = _local_maxima(aggregate, p.guard)
    return PeakList(indices=_thin(candidates, aggregate, p.min_separation))


def write_peaks(peaks: PeakList, path) -> None:
    """One decimal index per line."""
    atomic_write_text(path, "".join(f"{i}\n" for i in peaks.indices))
