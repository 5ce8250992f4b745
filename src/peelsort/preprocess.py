"""High-pass filtering and median/MAD normalization.

Each channel is median-subtracted and divided by its median absolute
deviation, both taken over its first samples or all of them, so the noise
level is 1 on every electrode and detection thresholds are comparable
across channels.  An optional linear-phase FIR high-pass removes drift
first when the acquisition chain has not already done so.  One row loop
normalizes a (channels, samples) array in place: ``normalize`` runs it
over a copy of a recording in memory, ``load_normalized`` over the array
just read from the channel files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, DegenerateDataError, ParameterError
from .ingest import Recording, STAGE_NORMALIZED, STAGE_RAW, read_channels

# Scale making the MAD a consistent estimator of the standard deviation for
# Gaussian data (1 / Phi^-1(3/4)).  All thresholds in the package assume it.
MAD_SCALE = 1.4826


@dataclass(frozen=True)
class FilterSpec:
    """High-pass FIR design: cutoff frequency and (odd) tap count."""

    cutoff_hz: float = 300.0
    taps: int = 129

    def __post_init__(self):
        if not 0 < self.cutoff_hz < np.inf:
            raise ParameterError(f"cutoff must be positive and finite, got {self.cutoff_hz}")
        if self.taps < 3 or self.taps % 2 == 0:
            raise ParameterError(f"taps must be an odd count >= 3, got {self.taps}")


def _along_last(values, axis, statistic) -> np.ndarray | float:
    """``statistic`` of a C-order copy, ``axis`` last; NaN where a NaN lies along it."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ParameterError("median or mad of an empty sequence")
    scratch = (values.ravel() if axis is None else np.moveaxis(values, axis, -1)).copy()
    return np.where(np.isnan(scratch.max(axis=-1)), np.nan, statistic(scratch))[()]


def median(values, axis=None) -> np.ndarray | float:
    """``np.median(values, axis)`` by one selection (``median_inplace``)."""
    return _along_last(values, axis, median_inplace)


def mad(values, axis=None) -> np.ndarray | float:
    """Median absolute deviation scaled by 1.4826.

    The scaling makes the result estimate the standard deviation of the
    recording noise; mad({1,2,3,4,5}) == 1.4826.  See ``median_mad_inplace``.
    """
    return _along_last(values, axis, lambda scratch: median_mad_inplace(scratch)[1])


def median_inplace(values: np.ndarray) -> np.ndarray | np.float64:
    """``np.median`` along the last axis of a finite float64 array, reordering it.

    One selection at the middle position: for an even length the lower
    middle value is the largest of the lower half, and the two are
    averaged by ``np.mean`` as ``np.median`` averages them, so the result
    has the same bits (a zero median may differ in sign).  ``np.median``
    selects the lower middle and the last position as well (the last for
    its NaN check) and, unless allowed to overwrite, copies its input
    first.
    """
    half = values.shape[-1] // 2
    values.partition(half, axis=-1)
    if values.shape[-1] % 2:
        return values.take(half, axis=-1)
    return np.mean((values[..., :half].max(axis=-1), values.take(half, axis=-1)), axis=0)


def median_mad_inplace(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Median and MAD along the last axis of a finite float64 array, the
    same bits as ``np.median`` and ``mad`` (both are order-free); the
    array is left holding the absolute deviations, reordered."""
    location = median_inplace(values)
    values -= location[..., None]
    np.abs(values, out=values)
    return location, MAD_SCALE * median_inplace(values)


def highpass_kernel(spec: FilterSpec, rate_hz: float) -> np.ndarray:
    """Windowed-sinc high-pass kernel with an exact zero at DC.

    Built by spectral inversion of a Hamming-windowed low-pass: the low-pass
    has unit DC gain, so negating it and adding 1 at the center tap nulls DC
    to float precision.
    """
    from scipy.signal import firwin
    nyquist = rate_hz / 2.0
    if spec.cutoff_hz >= nyquist:
        raise ParameterError(f"cutoff {spec.cutoff_hz} Hz >= Nyquist {nyquist} Hz")
    kernel = -firwin(spec.taps, spec.cutoff_hz, window="hamming", fs=rate_hz)
    kernel[spec.taps // 2] += 1.0
    return kernel


def _filtered(chan: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """``chan`` convolved with ``kernel`` in 'same' mode, which returns the
    longer one's length: a channel shorter than the kernel is rejected, and
    so is one whose convolution overflows to infinity."""
    if chan.size < kernel.size:
        raise ParameterError(
            f"{chan.size} samples are fewer than the high-pass filter's {kernel.size} taps")
    filtered = np.convolve(chan, kernel, mode="same")
    if not np.isfinite(filtered).all():
        raise DataFormatError("recording contains NaN or infinite samples")
    return filtered


def highpass(rec: Recording, spec: FilterSpec) -> Recording:
    """High-pass filter every channel of a raw recording.

    The symmetric odd-length kernel is applied with 'same'-mode convolution,
    which compensates the (taps-1)/2 group delay; the first and last
    (taps-1)/2 samples are computed against zero padding and are unreliable.
    A recording shorter than the kernel is rejected.
    """
    if rec.stage != STAGE_RAW:
        raise ParameterError(f"highpass expects a raw recording, got stage {rec.stage!r}")
    kernel = highpass_kernel(spec, rec.rate_hz)
    filtered = np.vstack([_filtered(chan, kernel) for chan in rec.data])
    return rec.with_data(filtered, STAGE_RAW)


def _normalize_rows(data: np.ndarray, n: int, kernel: np.ndarray | None = None) -> None:
    """Filter each row of ``data`` by ``kernel``, if given, then bring every
    row in place to (row - median) / MAD of its first ``n`` samples.

    The statistics are taken in place on a copy of the window in one
    window-length scratch row, so the loop holds that row and, with
    ``kernel``, one filtered row.  Every row is filtered before the window
    is checked, and a zero-MAD row is left centred, not divided: the
    error, raised after the loop, names them all.
    """
    if kernel is not None:
        for row in data:
            row[:] = _filtered(row, kernel)
    if not 1 <= n <= data.shape[1]:
        raise ParameterError(
            f"normalization window of {n} samples is outside [1, {data.shape[1]}]")
    mads, scratch = [], np.empty(n)
    try:
        with np.errstate(over="raise"):
            for row in data:
                scratch[:] = row[:n]
                location, spread = median_mad_inplace(scratch)
                row -= location
                if spread:
                    row /= spread
                mads.append(spread)
    except FloatingPointError as exc:
        raise DegenerateDataError(f"normalizing overflows float64 ({exc})") from exc
    if dead := [str(c) for c, spread in enumerate(mads) if not spread]:
        raise DegenerateDataError(f"channel(s) {', '.join(dead)} have zero MAD; cannot normalize")


def normalize(rec: Recording, n: int | None = None) -> Recording:
    """Median-subtract and MAD-divide each channel by the statistics of
    its first ``n`` samples (default: all of them).

    Every sample is normalized, so the first ``n`` columns of the result
    equal, bit for bit, the normalized ``n``-sample window, whatever the
    samples after it hold.  Returns a normalized-stage Recording at the
    input's rate; the per-channel statistics are not kept.  Each channel's
    statistics are taken in place on a copy of its window in one
    window-length scratch row, so the call holds the output and that row.
    ``load_normalized`` runs the same loop over the rows it reads.

    Raises
    ------
    ParameterError
        If ``n`` is outside [1, samples].
    DegenerateDataError
        If any channel has zero MAD (constant or near-constant data), or
        if normalizing overflows float64 (a MAD far below the spread).
    """
    normalized = rec.data.copy()
    _normalize_rows(normalized, rec.samples if n is None else n)
    return rec.with_data(normalized, STAGE_NORMALIZED)


def load_normalized(paths, rate_hz: float, window=None,
                    spec: FilterSpec | None = None) -> Recording:
    """Load one channel per file, high-pass filter it if ``spec`` is given,
    and normalize it by the statistics of its first ``window(samples)``
    samples (default: all of them), into a normalized-stage Recording.

    Equal, bit for bit, to ``normalize(load_recording(paths, rate_hz), n)``
    and, with ``spec``, to ``normalize(highpass(load_recording(...), spec), n)``,
    errors included, but no raw copy is kept: the files are read into one
    array (``ingest.read_channels``), whose rows are then filtered and
    normalized in place.  Besides the result it holds a window-length
    scratch row and, with ``spec``, one filtered channel.  ``window`` is a
    function of the sample count.

    Raises
    ------
    DataFormatError
        As ``load_recording``.
    ParameterError
        If ``window(samples)`` is outside [1, samples], or, with ``spec``,
        the cutoff is not below the Nyquist frequency or the recording is
        shorter than the filter.
    DegenerateDataError
        As ``normalize``.
    """
    data = read_channels(paths)
    _normalize_rows(data, data.shape[1] if window is None else window(data.shape[1]),
                    None if spec is None else highpass_kernel(spec, rate_hz))
    return Recording(data=data, rate_hz=float(rate_hz), stage=STAGE_NORMALIZED, _scan=False)
