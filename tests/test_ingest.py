"""Recording model and channel-file round trips."""

import gzip
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import peelsort.ingest as ingest
from peelsort.errors import DataFormatError, ParameterError
from peelsort.ingest import (Recording, STAGE_NORMALIZED, STAGE_RAW,
                             load_recording, read_csv, save_channels, write_csv)
from peelsort.reduce import export_projections


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


def test_mixed_gzip_and_plain_channels_load_in_order(tmp_path):
    rng = np.random.default_rng(12)
    data = rng.standard_normal((4, 3001))
    paths = [tmp_path / name for name in ("ch0.f64.gz", "ch1.f64", "ch2.f64.gz", "ch3.f64")]
    save_channels(Recording(data=data, rate_hz=1000.0), paths)
    rec = load_recording(paths, rate_hz=1000.0)
    for row, path in zip(rec.data, paths):
        assert np.array_equal(row, load_recording([path], rate_hz=1000.0).data[0])
    assert np.array_equal(rec.data, data)


def test_truncated_gzip_channel_is_named(tmp_path):
    paths = [tmp_path / f"ch{i}.f64.gz" for i in range(4)]
    save_channels(Recording(data=np.ones((4, 500)), rate_hz=1000.0), paths)
    payload = paths[2].read_bytes()
    paths[2].write_bytes(payload[: len(payload) // 2])
    with pytest.raises(DataFormatError, match=re.escape(f"corrupt gzip stream in {paths[2]}:")):
        load_recording(paths, rate_hz=1000.0)
    # a later file that cannot be read does not hide it
    paths[3].unlink()
    with pytest.raises(DataFormatError, match=re.escape(f"corrupt gzip stream in {paths[2]}:")):
        load_recording(paths, rate_hz=1000.0)
    with pytest.raises(DataFormatError, match=re.escape(f"cannot read {paths[3]}")):
        load_recording(paths[:2] + paths[3:], rate_hz=1000.0)


def test_gzip_framing_is_that_of_gzip_decompress(tmp_path):
    # several members load as their concatenated samples, as pigz and bgzip
    # write them, and zero padding after a member is skipped; anything else
    # after a member, or a member cut short, is an error naming the file
    first, second = np.arange(5.0), -np.arange(3.0)
    members = [gzip.compress(part.astype("<f8").tobytes(), mtime=0) for part in (first, second)]
    accepted = {"two_members": members[0] + members[1],
                "zero_padding": members[0] + bytes(37),
                "padded_members": members[0] + bytes(8) + members[1] + bytes(3)}
    for name, payload in accepted.items():
        path = tmp_path / f"{name}.f64.gz"
        path.write_bytes(payload)
        samples = np.frombuffer(gzip.decompress(payload), dtype="<f8")
        assert np.array_equal(load_recording([path], rate_hz=100.0).data[0], samples)
    assert load_recording([tmp_path / "two_members.f64.gz"], 100.0).samples == 8
    rejected = {"trailing_garbage": members[0] + b"garbage!",
                "trailing_byte": members[0] + b"\x01",
                "truncated_second_member": members[0] + members[1][:-5],
                "truncated_second_header": members[0] + members[1][:4]}
    for name, payload in rejected.items():
        path = tmp_path / f"{name}.f64.gz"
        path.write_bytes(payload)
        with pytest.raises((OSError, EOFError)):
            gzip.decompress(payload)
        with pytest.raises(DataFormatError, match=re.escape(f"corrupt gzip stream in {path}:")):
            load_recording([path], rate_hz=100.0)


def test_odd_byte_length_rejected(tmp_path):
    p = tmp_path / "odd.f64"
    p.write_bytes(b"\x00" * 13)
    with pytest.raises(DataFormatError):
        load_recording([p], rate_hz=100.0)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(DataFormatError):
        load_recording([tmp_path / "absent.f64"], rate_hz=100.0)


def test_empty_channel_files_rejected(tmp_path):
    a, b = tmp_path / "a.f64", tmp_path / "b.f64"
    write_plain(a, [])
    write_plain(b, [])
    with pytest.raises(DataFormatError, match=re.escape(f"no samples in {a}, {b}") + "$"):
        load_recording([a, b], rate_hz=100.0)


# --- the streamed read: slices, members, padding and length hints ---

def read_counting_opens(paths, monkeypatch):
    """load_recording(paths).data, and how often each file was opened."""
    opens = Counter()

    def counted(path, mode="r", *args, **kwargs):
        opens[str(path)] += 1
        return open(path, mode, *args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(ingest, "open", counted, raising=False)
        data = load_recording(paths, rate_hz=100.0).data
    return data, opens


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(st.tuples(st.lists(st.floats(-1e6, 1e6), max_size=40),
                                st.integers(0, 9), st.integers(0, 12)),
                      min_size=1, max_size=4).filter(lambda p: any(s for s, _, _ in p)),
       slice_bytes=st.integers(1, 96), channels=st.integers(1, 3))
def test_streamed_gzip_equals_gzip_decompress(tmp_path_factory, parts, slice_bytes, channels):
    # members (samples, level, zero padding after it) read in slices of a
    # few bytes: members, padding and trailers straddle slice boundaries,
    # and a padded or multi-member file states a wrong length (ISIZE)
    payload = b"".join(gzip.compress(np.array(samples, dtype="<f8").tobytes(), level, mtime=0)
                       + bytes(padding) for samples, level, padding in parts)
    expected = np.frombuffer(gzip.decompress(payload), dtype="<f8")
    path = tmp_path_factory.mktemp("members") / "ch.f64.gz"
    path.write_bytes(payload)
    with mock.patch.object(ingest, "SLICE_BYTES", slice_bytes):
        data = load_recording([path] * channels, rate_hz=100.0).data
    assert data.shape == (channels, expected.size)
    assert data.tobytes() == np.tile(expected, channels).tobytes()


def test_wrong_length_hint_of_channel_0_streams_the_files_again(tmp_path, monkeypatch):
    # a multi-member file states only its last member's size: the files are
    # streamed again into an array of channel 0's counted length, channel 0
    # from the file it opened, the others (those started, or all) anew
    rng = np.random.default_rng(8)
    data = rng.standard_normal((3, 3000))
    paths = [tmp_path / name for name in ("ch0.f64.gz", "ch1.f64", "ch2.f64.gz")]
    save_channels(Recording(data=data, rate_hz=100.0), paths)
    paths[0].write_bytes(b"".join(gzip.compress(part.astype("<f8").tobytes(), mtime=0)
                                  for part in np.split(data[0], [2500, 2990])))
    assert int.from_bytes(paths[0].read_bytes()[-4:], "little") == 80
    loaded, opens = read_counting_opens(paths, monkeypatch)
    assert loaded.tobytes() == data.tobytes()
    assert opens[str(paths[0])] == 1
    assert set(opens) == set(map(str, paths)) and max(opens.values()) <= 2


@pytest.mark.parametrize("first_gzipped", [True, False])
def test_files_longer_and_shorter_than_channel_0_name_every_length(tmp_path, first_gzipped):
    # a longer file is counted to its end, not stored
    rng = np.random.default_rng(10)
    rows = [rng.standard_normal(n) for n in (300, 450, 120, 300, 100_000)]
    names = ["ch0.f64.gz" if first_gzipped else "ch0.f64", "long.f64.gz", "short.f64",
             "same.f64.gz", "longer.f64"]
    paths = [tmp_path / name for name in names]
    for path, row in zip(paths, rows):
        save_channels(Recording(data=row[None], rate_hz=100.0), [path])
    detail = ", ".join(f"{p}: {r.size}" for p, r in zip(paths, rows))
    with pytest.raises(DataFormatError,
                       match=re.escape(f"channel files have unequal lengths ({detail})") + "$"):
        load_recording(paths, rate_hz=100.0)


def test_corrupt_gzip_members_are_data_errors(tmp_path, monkeypatch):
    # the messages are those of zlib; the CLI exits 3 on them
    from peelsort.cli import main

    member = gzip.compress(np.arange(600.0).astype("<f8").tobytes(), mtime=0)
    bad_crc = bytearray(member)
    bad_crc[-8] ^= 0xFF
    cases = {"truncated": (member + member[:-5], "stream ends inside a member"),
             "bad_crc": (bytes(bad_crc), "Error -3 while decompressing data: incorrect data check")}
    monkeypatch.setattr(ingest, "SLICE_BYTES", 64)
    ok = tmp_path / "ok.f64.gz"
    ok.write_bytes(member)
    for name, (payload, reason) in cases.items():
        path = tmp_path / f"{name}.f64.gz"
        path.write_bytes(payload)
        message = f"truncated or corrupt gzip stream in {path}: {reason}"
        with pytest.raises(DataFormatError, match=re.escape(message) + "$"):
            load_recording([path], rate_hz=100.0)
        with pytest.raises(DataFormatError, match=re.escape(message) + "$"):
            load_recording([ok, path], rate_hz=100.0)
        assert main(["detect", "--run-output-dir", str(tmp_path / "out"),
                     "--data-files", f"{ok},{path}"]) == 3


@pytest.mark.parametrize("channel", [0, 1])
def test_plain_file_of_a_byte_count_not_a_multiple_of_8_is_named(tmp_path, channel):
    paths = [tmp_path / "a.f64", tmp_path / "b.f64"]
    write_plain(paths[0], np.arange(4.0))
    write_plain(paths[1], np.arange(4.0))
    paths[channel].write_bytes(paths[channel].read_bytes() + b"\x01\x02\x03")
    message = f"{paths[channel]}: length 35 bytes is not a multiple of 8 (float64 stream expected)"
    with pytest.raises(DataFormatError, match=re.escape(message) + "$"):
        load_recording(paths, rate_hz=100.0)


@pytest.mark.parametrize("gzipped", [True, False])
def test_nan_channel_is_named(tmp_path, gzipped):
    data = np.random.default_rng(11).standard_normal((3, 700))
    data[1, 650] = np.nan
    paths = [tmp_path / (f"ch{i}.f64.gz" if gzipped else f"ch{i}.f64") for i in range(3)]
    for path, row in zip(paths, data):
        payload = row.astype("<f8").tobytes()
        path.write_bytes(gzip.compress(payload) if gzipped else payload)
    with pytest.raises(DataFormatError, match=re.escape(f"NaN or infinite samples in {paths[1]}") + "$"):
        load_recording(paths, rate_hz=100.0)


def test_recording_validation():
    data = np.zeros((2, 10))
    with pytest.raises(ParameterError):
        Recording(data=data, rate_hz=0.0, stage=STAGE_RAW)
    for rate in (np.nan, np.inf):
        with pytest.raises(ParameterError, match="finite"):
            Recording(data=data, rate_hz=rate, stage=STAGE_RAW)
    with pytest.raises(ParameterError):
        Recording(data=data, rate_hz=100.0, stage="weird")
    with pytest.raises(ParameterError):
        Recording(data=np.zeros(10), rate_hz=100.0, stage=STAGE_RAW)
    with pytest.raises(DataFormatError, match="NaN or infinite"):
        Recording(np.array([[np.nan]]), 1.0)


def test_recording_data_is_immutable():
    rec = Recording(data=np.zeros((1, 5)), rate_hz=1.0, stage=STAGE_RAW)
    with pytest.raises(ValueError):
        rec.data[0, 0] = 1.0


def test_recording_shares_a_slice_of_a_read_only_array():
    rec = Recording(data=np.arange(20.0).reshape(2, 10), rate_hz=100.0, stage=STAGE_RAW)
    window = Recording(data=rec.data[:, :6], rate_hz=100.0, stage=STAGE_RAW)
    assert np.shares_memory(window.data, rec.data)
    assert not window.data.flags.writeable
    with pytest.raises(ValueError):
        window.data[0, 0] = 1.0
    again = Recording(data=window.data[1:, 2:], rate_hz=100.0, stage=STAGE_RAW)
    assert np.shares_memory(again.data, rec.data)
    assert np.array_equal(again.data, [[12.0, 13.0, 14.0, 15.0]])


def test_recording_copies_a_slice_of_a_writable_array():
    base = np.arange(20.0).reshape(2, 10)
    rec = Recording(data=base[:, :6], rate_hz=100.0, stage=STAGE_RAW)
    assert not np.shares_memory(rec.data, base)
    assert base.flags.writeable
    base[:] = -1.0
    assert np.array_equal(rec.data, np.arange(20.0).reshape(2, 10)[:, :6])


def test_with_data_keeps_rate_changes_stage():
    rec = Recording(data=np.zeros((2, 8)), rate_hz=250.0, stage=STAGE_RAW)
    out = rec.with_data(np.ones((2, 8)), STAGE_NORMALIZED)
    assert out.rate_hz == 250.0
    assert out.stage == STAGE_NORMALIZED
    assert rec.data[0, 0] == 0.0


# --- the CSV table format ---

@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                               st.floats(width=32, allow_nan=False, allow_infinity=False)),
                     max_size=20))
def test_csv_round_trips_floats_bit_for_bit(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    write_csv(path, ["n", "x", "y"], rows)
    text = path.read_bytes().decode()
    assert text.endswith("\n") and "\r" not in text
    back = read_csv(path, ["n", "x", "y"])
    assert len(back) == len(rows)
    for (n, x, y), (n_cell, x_cell, y_cell) in zip(rows, back):
        assert n_cell == str(n)
        assert float(x_cell).hex() == x.hex()
        assert float(y_cell).hex() == y.hex()


def test_read_csv_rejects_wrong_header_and_rows(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["a", "b"], [[1, 2.5], [3, -0.0]])
    assert read_csv(path, ["a", "b"]) == [["1", "2.5"], ["3", "-0"]]
    for header in (["a"], ["a", "c"], ["a", "b", "c"], []):
        with pytest.raises(DataFormatError, match="header"):
            read_csv(path, header)
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(DataFormatError, match="2 cells"):
        read_csv(path, ["a", "b"])
    path.write_text("")
    with pytest.raises(DataFormatError):
        read_csv(path, ["a", "b"])
    with pytest.raises(DataFormatError):
        read_csv(tmp_path / "absent.csv", ["a", "b"])


def test_projections_csv_rejects_wrong_header(tmp_path):
    # the header of k components that export_projections writes
    path = tmp_path / "proj.csv"
    export_projections(np.array([[0.5, -1.25], [2.0, 3.0]]), np.array([10, 20]), path)
    header = ["event_ref", "pc1", "pc2"]
    assert read_csv(path, header) == [["10", "0.5", "-1.25"], ["20", "2", "3"]]
    body = path.read_text().split("\n", 1)[1]
    for line in ("event_ref,pc2,pc1", "event_ref,pc1,pc2,pc3", "ref,pc1,pc2"):
        path.write_text(line + "\n" + body)
        with pytest.raises(DataFormatError, match="header"):
            read_csv(path, header)
