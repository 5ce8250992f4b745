"""Recording model and channel-file round trips."""

import gzip
import re

import numpy as np
import pytest

from peelsort.errors import DataFormatError, ParameterError
from peelsort.ingest import (Recording, STAGE_NORMALIZED, STAGE_RAW,
                             load_recording, save_channels)


def write_plain(path, values):
    path.write_bytes(np.asarray(values, dtype="<f8").tobytes())


def test_single_zero_sample(tmp_path):
    p = tmp_path / "one.f64"
    write_plain(p, [0.0])
    rec = load_recording([p], rate_hz=15000.0)
    assert rec.channels == 1
    assert rec.samples == 1
    assert rec.stage == STAGE_RAW
    assert rec.data[0, 0] == 0.0


def test_round_trip_gzip_and_plain(tmp_path):
    rng = np.random.default_rng(7)
    data = rng.standard_normal((3, 517))
    rec = Recording(data=data, rate_hz=12345.0, stage=STAGE_RAW)

    gz_paths = [tmp_path / f"ch{i}.f64.gz" for i in range(3)]
    save_channels(rec, gz_paths)
    again = load_recording(gz_paths, rate_hz=12345.0)
    assert np.array_equal(again.data, data)

    plain_paths = [tmp_path / f"ch{i}.f64" for i in range(3)]
    for path, row in zip(plain_paths, data):
        write_plain(path, row)
    again = load_recording(plain_paths, rate_hz=12345.0)
    assert np.array_equal(again.data, data)


def test_gzip_detected_by_magic_not_name(tmp_path):
    payload = np.array([1.5, -2.5], dtype="<f8").tobytes()
    p = tmp_path / "disguised.bin"
    p.write_bytes(gzip.compress(payload))
    rec = load_recording([p], rate_hz=1000.0)
    assert np.array_equal(rec.data, [[1.5, -2.5]])


def test_load_is_deterministic(tmp_path):
    p = tmp_path / "ch.f64"
    write_plain(p, np.linspace(-1, 1, 64))
    a = load_recording([p], rate_hz=100.0)
    b = load_recording([p], rate_hz=100.0)
    assert np.array_equal(a.data, b.data)


def test_unequal_channel_lengths_rejected(tmp_path):
    a, b = tmp_path / "a.f64", tmp_path / "b.f64"
    write_plain(a, [1.0, 2.0, 3.0])
    write_plain(b, [1.0, 2.0])
    with pytest.raises(DataFormatError):
        load_recording([a, b], rate_hz=100.0)


def test_load_errors_name_the_files(tmp_path):
    a, b, c = tmp_path / "a.f64", tmp_path / "b.f64", tmp_path / "c.f64"
    write_plain(a, [1.0, 2.0, 3.0])
    write_plain(b, [1.0, 2.0])
    write_plain(c, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DataFormatError, match=re.escape(f"{a}: 3, {b}: 2, {c}: 4")):
        load_recording([a, b, c], rate_hz=100.0)
    write_plain(b, [1.0, np.inf, 3.0])
    write_plain(c, [np.nan, 2.0, 3.0])
    with pytest.raises(DataFormatError, match=re.escape(f"NaN or infinite samples in {b}, {c}") + "$"):
        load_recording([a, b, c], rate_hz=100.0)


def test_nan_rejected(tmp_path):
    p = tmp_path / "bad.f64"
    write_plain(p, [1.0, np.nan, 3.0])
    with pytest.raises(DataFormatError):
        load_recording([p], rate_hz=100.0)


def test_inf_rejected(tmp_path):
    p = tmp_path / "bad.f64"
    write_plain(p, [1.0, np.inf])
    with pytest.raises(DataFormatError):
        load_recording([p], rate_hz=100.0)


def test_truncated_gzip_rejected(tmp_path):
    payload = gzip.compress(np.zeros(100, dtype="<f8").tobytes())
    p = tmp_path / "trunc.f64.gz"
    p.write_bytes(payload[: len(payload) // 2])
    with pytest.raises(DataFormatError):
        load_recording([p], rate_hz=100.0)


def test_odd_byte_length_rejected(tmp_path):
    p = tmp_path / "odd.f64"
    p.write_bytes(b"\x00" * 13)
    with pytest.raises(DataFormatError):
        load_recording([p], rate_hz=100.0)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(DataFormatError):
        load_recording([tmp_path / "absent.f64"], rate_hz=100.0)


def test_recording_validation():
    data = np.zeros((2, 10))
    with pytest.raises(ParameterError):
        Recording(data=data, rate_hz=0.0, stage=STAGE_RAW)
    with pytest.raises(ParameterError):
        Recording(data=data, rate_hz=100.0, stage="weird")
    with pytest.raises(ParameterError):
        Recording(data=np.zeros(10), rate_hz=100.0, stage=STAGE_RAW)


def test_recording_data_is_immutable():
    rec = Recording(data=np.zeros((1, 5)), rate_hz=1.0, stage=STAGE_RAW)
    with pytest.raises(ValueError):
        rec.data[0, 0] = 1.0


def test_with_data_keeps_rate_changes_stage():
    rec = Recording(data=np.zeros((2, 8)), rate_hz=250.0, stage=STAGE_RAW)
    out = rec.with_data(np.ones((2, 8)), STAGE_NORMALIZED)
    assert out.rate_hz == 250.0
    assert out.stage == STAGE_NORMALIZED
    assert rec.data[0, 0] == 0.0
    assert out.duration_s == pytest.approx(8 / 250.0)
