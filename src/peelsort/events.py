"""Cutting fixed-width multi-channel events around detected peaks.

The cut length is chosen from data: overly wide cuts are taken first, the
point-wise MAD across them is computed, and the region around the peak
where that MAD rises above the noise floor (1 on normalized traces) is the
window that carries sorting information.  Events with secondary peaks are
flagged as likely superpositions so they can be excluded from model
estimation (they are still classified later, during peeling).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .detect import POLARITIES, PeakList
from .errors import DegenerateDataError, ParameterError
from .ingest import Recording, STAGE_NORMALIZED, STAGE_RESIDUAL, write_csv
from .preprocess import mad


@dataclass(frozen=True)
class CutSpec:
    """Samples kept before and after the peak; width = before + after + 1."""

    before: int
    after: int

    def __post_init__(self):
        if self.before < 1 or self.after < 1:
            raise ParameterError(f"cut bounds must be >= 1 each side, got ({self.before}, {self.after})")

    @property
    def width(self) -> int:
        return self.before + self.after + 1


@dataclass
class EventSample:
    """Cuts around peaks sharing one CutSpec, one row per event.

    ``cuts`` is (n, channels, width), ``peaks`` the sample index each cut
    is centered on, ``superposed`` the side-peak flags (all False unless
    given).
    """

    cuts: np.ndarray
    peaks: np.ndarray
    spec: CutSpec
    superposed: np.ndarray | None = None
    n_dropped_edge: int = 0

    def __post_init__(self):
        self.cuts = np.ascontiguousarray(self.cuts, dtype=np.float64)
        self.peaks = np.asarray(self.peaks, dtype=np.int64)
        n = self.peaks.size
        self.superposed = (np.zeros(n, dtype=bool) if self.superposed is None
                           else np.asarray(self.superposed, dtype=bool))
        if (self.cuts.ndim != 3 or self.cuts.shape[::2] != (n, self.spec.width)
                or self.peaks.shape != (n,) or self.superposed.shape != (n,)):
            raise ParameterError(
                f"cuts {self.cuts.shape}, peaks {self.peaks.shape} and superposed "
                f"{self.superposed.shape} do not form ({n}, channels, {self.spec.width}) events")

    def __len__(self) -> int:
        return self.peaks.size

    @property
    def channels(self) -> int:
        return self.cuts.shape[1]

    def superposed_mask(self) -> np.ndarray:
        return self.superposed


def make_cuts(rec: Recording, peaks: PeakList, spec: CutSpec) -> EventSample:
    """Cut one event per peak whose window fits inside the trace.

    Peaks too close to an edge are dropped and counted in
    ``EventSample.n_dropped_edge``.
    """
    if rec.stage not in (STAGE_NORMALIZED, STAGE_RESIDUAL):
        raise ParameterError(f"make_cuts expects a normalized or residual recording, got {rec.stage!r}")
    idx = peaks.indices
    kept = idx[(idx >= spec.before) & (idx + spec.after < rec.samples)]
    if kept.size == 0:
        raise DegenerateDataError("no event window fits inside the recording")
    windows = kept[:, None] + np.arange(-spec.before, spec.after + 1)
    cuts = rec.data[np.arange(rec.channels)[:, None], windows[:, None, :]]
    return EventSample(cuts=cuts, peaks=kept, spec=spec,
                       n_dropped_edge=idx.size - kept.size)


def pointwise_mad(sample: EventSample) -> np.ndarray:
    """Per-channel, per-position MAD across events, shape (channels, width)."""
    if len(sample) < 2:
        raise ParameterError(f"point-wise MAD needs >= 2 events, got {len(sample)}")
    return mad(sample.cuts, axis=0)


def optimal_cut_bounds(wide_sample: EventSample, noise_level: float = 1.0) -> CutSpec:
    """Choose the cut window from the MAD profile of overly wide cuts.

    The max-over-channels point-wise MAD is scanned outward from the peak
    position; the window ends at the first crossing below ``noise_level``
    on each side.  Bounds are clamped to >= 1 sample per side.

    Raises
    ------
    DegenerateDataError
        If the MAD profile never exceeds ``noise_level`` (no signal).
    """
    profile = pointwise_mad(wide_sample).max(axis=0)
    if profile.max() <= noise_level:
        raise DegenerateDataError(
            f"point-wise MAD never exceeds noise level {noise_level}; no signal to cut")
    center = wide_sample.spec.before
    left = center
    while left > 0 and profile[left - 1] > noise_level:
        left -= 1
    right = center
    while right < profile.size - 1 and profile[right + 1] > noise_level:
        right += 1
    return CutSpec(before=max(center - left, 1), after=max(right - center, 1))


def flag_superpositions(sample: EventSample, side_threshold: float,
                        exclude_radius: int = 7, polarity: str = "max") -> EventSample:
    """Flag events showing a side peak on any channel.

    An event is superposed when some channel has a local maximum above
    ``side_threshold`` at a position more than ``exclude_radius`` samples
    away from the cut center.  With the detection polarity ``"min"`` the
    side peaks are sought on the negated cuts.  Flags only; event data
    are untouched.
    """
    if polarity not in POLARITIES:
        raise ParameterError(f"polarity must be one of {POLARITIES}, got {polarity!r}")
    x = -sample.cuts if polarity == "min" else sample.cuts
    mid = x[..., 1:-1]
    far = np.abs(np.arange(1, x.shape[-1] - 1) - sample.spec.before) > exclude_radius
    side = (mid >= x[..., :-2]) & (mid > x[..., 2:]) & (mid > side_threshold) & far
    return replace(sample, superposed=side.any(axis=(1, 2)))


def non_superposed(sample: EventSample) -> tuple[EventSample, np.ndarray]:
    """Keep only clean events; also return their indices in the input sample."""
    keep = np.flatnonzero(~sample.superposed)
    if keep.size == 0:
        raise DegenerateDataError("every event is flagged as a superposition")
    return (EventSample(cuts=sample.cuts[keep], peaks=sample.peaks[keep], spec=sample.spec,
                        n_dropped_edge=sample.n_dropped_edge), keep)


def export_events_csv(sample: EventSample, path) -> None:
    """One row per event: peak_index, superposed, then channel-major amplitudes."""
    header = ["peak_index", "superposed"]
    header += [f"c{c}_t{t}" for c in range(sample.channels) for t in range(sample.spec.width)]
    write_csv(path, header, ([peak, int(flag)] + cuts.ravel().tolist() for peak, flag, cuts
                             in zip(sample.peaks.tolist(), sample.superposed, sample.cuts)))
