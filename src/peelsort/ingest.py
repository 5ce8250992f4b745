"""Reading and writing raw recordings.

A recording is distributed as one binary file per electrode: a stream of
little-endian IEEE-754 64-bit floats, optionally gzip-compressed (detected
from the 0x1f 0x8b magic bytes, not from the file name).
"""

from __future__ import annotations

import gzip
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, ParameterError

GZIP_MAGIC = b"\x1f\x8b"

# Pipeline stage of a recording's samples.
STAGE_RAW = "raw"
STAGE_NORMALIZED = "normalized"
STAGE_RESIDUAL = "residual"
_STAGES = (STAGE_RAW, STAGE_NORMALIZED, STAGE_RESIDUAL)


@dataclass
class Recording:
    """Multi-channel sample matrix with its sampling rate.

    ``data`` has shape (channels, samples) and is locked read-only after
    construction: every pipeline stage produces a new Recording instead of
    mutating one in place.  ``norm_median``/``norm_mad`` hold the per-channel
    statistics removed by ``preprocess.normalize`` so reported quantities can
    be mapped back to acquisition units; they are None for raw recordings.
    """

    data: np.ndarray
    rate_hz: float
    stage: str = STAGE_RAW
    norm_median: np.ndarray | None = None
    norm_mad: np.ndarray | None = None

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ParameterError(f"recording data must be 2-D (channels x samples), got shape {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ParameterError("recording needs at least one channel and one sample")
        if self.rate_hz <= 0:
            raise ParameterError(f"sampling rate must be positive, got {self.rate_hz}")
        if self.stage not in _STAGES:
            raise ParameterError(f"unknown stage {self.stage!r}, expected one of {_STAGES}")
        if not np.isfinite(data).all():
            raise DataFormatError("recording contains NaN or infinite samples")
        data = data.copy() if not data.flags.owndata else data
        data.setflags(write=False)
        self.data = data

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def samples(self) -> int:
        return self.data.shape[1]

    @property
    def duration_s(self) -> float:
        return self.samples / self.rate_hz

    def with_data(self, data: np.ndarray, stage: str) -> "Recording":
        """New Recording sharing this one's rate and normalization stats."""
        return Recording(data=data, rate_hz=self.rate_hz, stage=stage,
                         norm_median=self.norm_median, norm_mad=self.norm_mad)


def _read_channel(path) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    if raw[:2] == GZIP_MAGIC:
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, gzip.BadGzipFile) as exc:
            raise DataFormatError(f"truncated or corrupt gzip stream in {path}: {exc}") from exc
    if len(raw) % 8 != 0:
        raise DataFormatError(f"{path}: length {len(raw)} bytes is not a multiple of 8 (float64 stream expected)")
    return np.frombuffer(raw, dtype="<f8")


def load_recording(paths, rate_hz: float) -> Recording:
    """Load one channel per file into a raw-stage Recording.

    Channels are read one at a time into the rows of one preallocated
    (channels, samples) array.

    Parameters
    ----------
    paths : sequence of str or Path
        Channel files in channel order.  Each is a stream of little-endian
        float64 samples, gzip-compressed or plain.
    rate_hz : float
        Sampling frequency shared by all channels.

    Raises
    ------
    DataFormatError
        Unequal channel lengths, NaN/Inf samples, truncated gzip data, or a
        byte count that is not a multiple of 8.
    """
    paths = list(paths)
    if not paths:
        raise ParameterError("need at least one channel file")
    data = None
    lengths, bad = [], []
    for row, path in enumerate(paths):
        channel = _read_channel(path)
        lengths.append(channel.size)
        if data is None:
            data = np.empty((len(paths), channel.size), dtype=np.float64)
        # a file of another length is still read: the error names every length
        if channel.size == data.shape[1]:
            data[row] = channel
            if not np.isfinite(data[row]).all():
                bad.append(str(path))
        del channel  # released before the next file is read
    if len(set(lengths)) != 1:
        detail = ", ".join(f"{p}: {n}" for p, n in zip(paths, lengths))
        raise DataFormatError(f"channel files have unequal lengths ({detail})")
    if bad:
        raise DataFormatError(f"NaN or infinite samples in {', '.join(bad)}")
    return Recording(data=data, rate_hz=float(rate_hz), stage=STAGE_RAW)


def atomic_write_bytes(path, payload) -> None:
    """Write a file via a temp-then-rename so readers never see partial output."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def save_channels(rec: Recording, paths) -> None:
    """Write one file per channel in the load_recording format.

    Files whose name ends in ``.gz`` are gzip-compressed (mtime pinned to 0
    so identical data produce identical bytes), others are plain binary.
    Compression is meant for inputs and archives: float64 noise barely
    compresses, so working outputs such as peel residuals are written plain.
    """
    paths = list(paths)
    if len(paths) != rec.channels:
        raise ParameterError(f"got {len(paths)} paths for {rec.channels} channels")
    for path, channel in zip(paths, rec.data):
        payload = memoryview(np.ascontiguousarray(channel, dtype="<f8")).cast("B")
        if str(path).endswith(".gz"):
            payload = gzip.compress(payload, mtime=0)
        atomic_write_bytes(path, payload)
