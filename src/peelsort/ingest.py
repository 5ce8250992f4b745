"""Reading and writing raw recordings.

A recording is distributed as one binary file per electrode: a stream of
little-endian IEEE-754 64-bit floats, optionally gzip-compressed (detected
from the 0x1f 0x8b magic bytes, not from the file name).
"""

from __future__ import annotations

import gzip
import os
import zlib
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import ExitStack, nullcontext
from dataclasses import InitVar, dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ParameterError

GZIP_MAGIC = b"\x1f\x8b"
SLICE_BYTES = 1 << 18  # bytes of a channel file read at a time

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

    NaN and infinite samples are rejected by a scan that the private
    ``_scan=False`` skips in ``with_data`` and the reads, whose samples are
    known finite (derived from a Recording's, or checked row by row).
    """

    data: np.ndarray
    rate_hz: float
    stage: str = STAGE_RAW
    _scan: InitVar[bool] = True

    def __post_init__(self, _scan):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ParameterError(f"recording data must be 2-D (channels x samples), got shape {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ParameterError("recording needs at least one channel and one sample")
        if not 0 < self.rate_hz < np.inf:
            raise ParameterError(f"sampling rate must be positive and finite, got {self.rate_hz}")
        if self.stage not in _STAGES:
            raise ParameterError(f"unknown stage {self.stage!r}, expected one of {_STAGES}")
        if _scan and not np.isfinite(data).all():
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

    def with_data(self, data: np.ndarray, stage: str) -> "Recording":
        """New Recording of ``data``, taken to be finite, at this one's rate."""
        return Recording(data=data, rate_hz=self.rate_hz, stage=stage, _scan=False)


def _stream(path, row: np.ndarray, fh=None) -> int:
    """Read a channel file (``fh``, left open, else ``path``) into ``row`` by
    slices, inflating gzip as ``gzip.decompress`` does (members, each maybe
    followed by zero padding); return its byte count, stored or not."""
    out = memoryview(row).cast("B")
    buf = memoryview(bytearray(SLICE_BYTES))
    count, member = 0, None  # member: the gzip member being inflated
    try:
        with open(path, "rb") if fh is None else nullcontext(fh) as fh:
            if fh.peek(2)[:2] != GZIP_MAGIC:
                while n := fh.readinto(out[count:] if count < len(out) else buf):
                    count += n
            else:
                member = zlib.decompressobj(31)  # CRC checked; None between members
                while n := fh.readinto(buf):
                    data = buf[:n]
                    while data:
                        if member is None:
                            data = bytes(data).lstrip(b"\x00")
                            if not data:
                                break
                            member = zlib.decompressobj(31)
                        piece = member.decompress(data)
                        room = out[count:count + len(piece)]  # empty past the row's end
                        room[:] = memoryview(piece)[:len(room)]
                        count += len(piece)
                        data = member.unused_data  # empty until the member ends
                        if member.eof:
                            member = None
    except zlib.error as exc:
        raise DataFormatError(f"truncated or corrupt gzip stream in {path}: {exc}") from exc
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    if member is not None:
        raise DataFormatError(f"truncated or corrupt gzip stream in {path}: "
                              "stream ends inside a member")
    if count % 8 != 0:
        raise DataFormatError(f"{path}: length {count} bytes is not a multiple of 8 (float64 stream expected)")
    return count


def read_channels(paths) -> np.ndarray:
    """Stream one channel per file into its row of one (channels, samples)
    array, C-order and owning its memory.

    min(files, usable CPUs) threads read the files by slices and write the
    samples, inflated piece by piece (zlib releases the GIL), into their
    rows: no decoded channel is held outside its row.  Rows take channel
    0's file size or gzip ISIZE, a hint (a multi-member file states its
    last member's size): if channel 0 holds another count, the files
    stream again at that count.  Once every file is read, the calling
    thread checks the rows' lengths, then their finiteness.

    Raises
    ------
    DataFormatError
        Unequal channel lengths (naming every file), NaN/Inf samples
        (naming every bad file), truncated or corrupt gzip data or a byte
        count that is not a multiple of 8 (naming the first such file in
        channel order).
    """
    paths = list(paths)
    if not paths:
        raise ParameterError("need at least one channel file")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ExitStack() as stack:
        try:  # channel 0's file is opened once: streamed again from its start
            first = stack.enter_context(open(paths[0], "rb"))
            hint = size = os.fstat(first.fileno()).st_size
            if first.peek(2)[:2] == GZIP_MAGIC and size >= 4:
                first.seek(size - 4)  # ISIZE, capped at what deflate can reach
                hint = min(int.from_bytes(first.read(4), "little"), 1032 * size)
            first.seek(0)  # a pipe fails here, not when streamed again
        except OSError as exc:
            raise DataFormatError(f"cannot read {paths[0]}: {exc}") from exc
        pool = ThreadPoolExecutor(max_workers=min(len(paths), cpus or 1))
        stack.callback(pool.shutdown, cancel_futures=True)  # before the file closes

        def stream(nbytes):
            data = np.empty((len(paths), nbytes // 8), dtype="<f8")
            return data, [pool.submit(_stream, path, row, first if c == 0 else None)
                          for c, (path, row) in enumerate(zip(paths, data))]

        data, reads = stream(hint)
        if reads[0].result() != data[0].nbytes:
            for read in reads:
                read.cancel()
            wait(reads)  # those started write in the array dropped here
            first.seek(0)
            data, reads = stream(reads[0].result())
        # a file of another length is still read: the error names every length
        lengths = [read.result() // 8 for read in reads]
    if len({*lengths, data.shape[1]}) != 1:  # a file changed while read, too
        detail = ", ".join(f"{p}: {n}" for p, n in zip(paths, lengths))
        raise DataFormatError(f"channel files have unequal lengths ({detail})")
    if not lengths[0]:
        raise DataFormatError(f"no samples in {', '.join(map(str, paths))}")
    if bad := [str(path) for path, row in zip(paths, data) if not np.isfinite(row).all()]:
        raise DataFormatError(f"NaN or infinite samples in {', '.join(bad)}")
    return data


def load_recording(paths, rate_hz: float) -> Recording:
    """Load one channel per file into a raw-stage Recording at ``rate_hz``.

    ``paths`` are the channel files in channel order, each a stream of
    little-endian float64 samples, gzip-compressed (one member or several,
    as pigz and bgzip write them) or plain.  Each is streamed into its row
    by ``read_channels``, whose errors it raises; ``load_normalized`` then
    normalizes the rows in place.
    """
    return Recording(data=read_channels(paths), rate_hz=float(rate_hz), stage=STAGE_RAW,
                     _scan=False)


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

    ``header`` is the list of column names; a file with another header is
    rejected.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    found = lines[0].split(",") if lines else []
    expected = list(header)
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
