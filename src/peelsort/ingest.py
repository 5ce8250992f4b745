"""Reading and writing raw recordings.

A recording is distributed as one binary file per electrode: a stream of
little-endian IEEE-754 64-bit floats, optionally gzip-compressed (detected
from the 0x1f 0x8b magic bytes, not from the file name).
"""

from __future__ import annotations

import gzip
import os
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ParameterError, PeelSortError

GZIP_MAGIC = b"\x1f\x8b"

# Pipeline stage of a recording's samples.
STAGE_RAW = "raw"
STAGE_NORMALIZED = "normalized"
STAGE_RESIDUAL = "residual"
_STAGES = (STAGE_RAW, STAGE_NORMALIZED, STAGE_RESIDUAL)


@dataclass
class Recording:
    """Multi-channel sample matrix with its sampling rate and stage.

    ``data`` has shape (channels, samples) and is locked read-only after
    construction, so the library's stages produce a new Recording rather
    than change one; only ``peel(..., in_place=True)`` writes in a
    Recording's samples, which its caller hands over.  A view of a
    read-only array that owns its memory, such as a slice of another
    Recording's data, shares it; any other view is copied.
    """

    data: np.ndarray
    rate_hz: float
    stage: str = STAGE_RAW

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ParameterError(f"recording data must be 2-D (channels x samples), got shape {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ParameterError("recording needs at least one channel and one sample")
        if not 0 < self.rate_hz < np.inf:
            raise ParameterError(f"sampling rate must be positive and finite, got {self.rate_hz}")
        if self.stage not in _STAGES:
            raise ParameterError(f"unknown stage {self.stage!r}, expected one of {_STAGES}")
        if not np.isfinite(data).all():
            raise DataFormatError("recording contains NaN or infinite samples")
        base = data.base
        shared = isinstance(base, np.ndarray) and base.flags.owndata and not base.flags.writeable
        if not (data.flags.owndata or shared):
            data = data.copy()
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
        """New Recording of ``data`` at this one's rate."""
        return Recording(data=data, rate_hz=self.rate_hz, stage=stage)


def _read_file(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc


def _inflate(path, raw: bytes) -> bytes:
    """The concatenated members of a gzip stream, as ``gzip.decompress``
    reads it: members may be followed by zero padding; anything else after
    a member must be another member."""
    members = []
    try:
        while raw:
            member = zlib.decompressobj(31)  # gzip header and trailer, CRC checked
            members.append(member.decompress(raw))
            if not member.eof:
                raise DataFormatError(f"truncated or corrupt gzip stream in {path}: "
                                      "stream ends inside a member")
            raw = member.unused_data.lstrip(b"\x00")
    except zlib.error as exc:
        raise DataFormatError(f"truncated or corrupt gzip stream in {path}: {exc}") from exc
    return b"".join(members)  # one member is returned as it is, not copied


def _decode_channel(path, raw: bytes) -> np.ndarray:
    if raw[:2] == GZIP_MAGIC:
        raw = _inflate(path, raw)
    if len(raw) % 8 != 0:
        raise DataFormatError(f"{path}: length {len(raw)} bytes is not a multiple of 8 (float64 stream expected)")
    return np.frombuffer(raw, dtype="<f8")


def read_channels(paths, fill) -> np.ndarray:
    """Decode one channel per file into its row of one (channels, samples)
    array, by ``fill(row, channel)``.

    Files are read in channel order and decoded on min(files, usable CPUs)
    threads (zlib releases the GIL while it decodes).  Each decoded channel
    that has the first channel's length and finite samples is handed, in
    channel order, to ``fill`` on the calling thread, which writes its row
    of the array while the threads decode the next channels.  A file is
    read only when an earlier channel has been handed on, so at most one
    decoded channel per thread is held at a time.  Returns the array,
    C-order and owning its memory.

    Raises
    ------
    DataFormatError
        Unequal channel lengths (naming every file), NaN/Inf samples
        (naming every bad file), truncated or corrupt gzip data or a byte
        count that is not a multiple of 8 (naming the first such file in
        channel order).  These are checked first: the first error ``fill``
        raised is raised after them, once every file is read.
    """
    paths = list(paths)
    if not paths:
        raise ParameterError("need at least one channel file")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(paths), cpus or 1)
    data = None
    lengths, bad = [], []
    failed = None  # the first error fill raised
    with ThreadPoolExecutor(max_workers=workers) as pool:
        decodes = deque()

        def start(path):
            # read here, decode on the pool: bytes a worker thread allocates
            # stay in its malloc arena after they are freed, where the rest
            # of the sort cannot reuse them
            try:
                raw = _read_file(path)
            except DataFormatError:
                for earlier in decodes:
                    earlier.result()  # an earlier file's error is reported first
                raise
            decodes.append(pool.submit(_decode_channel, path, raw))

        for path in paths[:workers]:
            start(path)
        for row, path in enumerate(paths):
            channel = decodes.popleft().result()
            lengths.append(channel.size)
            if data is None:
                data = np.empty((len(paths), channel.size), dtype=np.float64)
            # a file of another length is still read: the error names every length
            if channel.size == data.shape[1]:
                if not np.isfinite(channel).all():
                    bad.append(str(path))
                elif channel.size and not (bad or failed) and len(set(lengths)) == 1:
                    # no row is filled once an error is certain, and the
                    # files' own errors are raised before fill's
                    try:
                        fill(data[row], channel)
                    except (PeelSortError, ArithmeticError) as exc:
                        failed = exc
            del channel  # released before another file is read
            if row + workers < len(paths):
                start(paths[row + workers])
    if len(set(lengths)) != 1:
        detail = ", ".join(f"{p}: {n}" for p, n in zip(paths, lengths))
        raise DataFormatError(f"channel files have unequal lengths ({detail})")
    if not lengths[0]:
        raise DataFormatError(f"no samples in {', '.join(map(str, paths))}")
    if bad:
        raise DataFormatError(f"NaN or infinite samples in {', '.join(bad)}")
    if failed is not None:
        raise failed
    return data


def load_recording(paths, rate_hz: float) -> Recording:
    """Load one channel per file into a raw-stage Recording.

    Each decoded channel is copied into its row (see ``read_channels``);
    ``preprocess.load_normalized`` reads the files in the same loop but
    normalizes each channel into its row instead.

    Parameters
    ----------
    paths : sequence of str or Path
        Channel files in channel order.  Each is a stream of little-endian
        float64 samples, gzip-compressed (one member or several, as pigz
        and bgzip write them) or plain.
    rate_hz : float
        Sampling frequency shared by all channels.

    Raises
    ------
    DataFormatError
        As ``read_channels``.
    """
    return Recording(data=read_channels(paths, np.copyto), rate_hz=float(rate_hz),
                     stage=STAGE_RAW)


def atomic_write_bytes(path, payload) -> None:
    """Write a file via a temp-then-rename so readers never see partial output."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_csv(path, header, rows) -> None:
    """Write a table in peelsort's CSV format, atomically.

    A header line, then one line per row, cells joined by commas, LF line
    ends.  Floats are written at 17 significant digits so a re-import
    recovers them bit for bit; every other cell goes through ``str``.
    """
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv(path, header) -> list[list[str]]:
    """Rows of a table written by write_csv, as string cells.

    ``header`` is the list of column names, or a function of the file's
    column count returning it; a file with another header is rejected.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    found = lines[0].split(",") if lines else []
    expected = list(header(len(found)) if callable(header) else header)
    if found != expected:
        raise DataFormatError(f"{path}: header {found} differs from {expected}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(expected) for row in rows):
        raise DataFormatError(f"{path}: a row does not have {len(expected)} cells")
    return rows


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
