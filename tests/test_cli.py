"""Command-line workflow: every subcommand, exit codes, run reports."""

import gzip
import importlib
import importlib.util
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from peelsort.cli import build_parser, main
from peelsort.detect import DetectionParams
from peelsort.ingest import GZIP_MAGIC, Recording, load_recording, save_channels
from peelsort.peel import export_spikes_csv, export_unclassified_csv, load_catalogue, peel
from peelsort.preprocess import normalize
from peelsort.synth import load_truth_csv

DURATION = "20"  # seconds; the first half is the model-estimation window
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    rc = main(["simulate", "--out", str(out), "--seed", "42",
               "--synth-duration-s", DURATION])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def files_arg(sim_dir):
    return ",".join(str(sim_dir / f"channel_{i}.f64.gz") for i in range(4))


@pytest.fixture(scope="module")
def sorted_dir(tmp_path_factory, files_arg):
    out = tmp_path_factory.mktemp("sorted")
    rc = main(["sort", "--run-output-dir", str(out), "--data-files", files_arg])
    assert rc == 0
    return out


def _report(directory, command):
    return json.loads((directory / f"report_{command}.json").read_text())


def test_parser_covers_workflow():
    parser = build_parser()
    for name in ("simulate", "detect", "events", "reduce", "model",
                 "classify", "sort"):
        args = parser.parse_args([name])
        assert args.command == name
    args = parser.parse_args(["detect", "--cluster-k", "12"])
    assert getattr(args, "cluster.k") == "12"
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["--version"])
    assert exc.value.code == 0


def test_simulate_outputs(sim_dir):
    for i in range(4):
        assert (sim_dir / f"channel_{i}.f64.gz").exists()
    truth = load_truth_csv(sim_dir / "truth.csv")
    assert len(truth) > 0
    report = _report(sim_dir, "simulate")
    assert report["counts"]["true_spikes"] == len(truth)
    assert report["counts"]["channels"] == 4
    assert report["config"]["run.seed"] == 42
    assert (sim_dir / "config_used.txt").exists()


def test_detect_writes_peaks(tmp_path, files_arg):
    rc = main(["detect", "--run-output-dir", str(tmp_path),
               "--data-files", files_arg])
    assert rc == 0
    peaks = [int(line) for line in
             (tmp_path / "peaks.txt").read_text().splitlines()]
    assert peaks == sorted(peaks)
    assert _report(tmp_path, "detect")["counts"]["detected"] == len(peaks)


def test_events_counts_add_up(tmp_path, files_arg):
    rc = main(["events", "--run-output-dir", str(tmp_path),
               "--data-files", files_arg])
    assert rc == 0
    counts = _report(tmp_path, "events")["counts"]
    assert counts["cut"] == counts["detected"] - counts["dropped_at_edge"]
    lines = (tmp_path / "events.csv").read_text().splitlines()
    assert len(lines) - 1 == counts["cut"]
    width = counts["cut_before"] + counts["cut_after"] + 1
    assert lines[0].split(",")[:2] == ["peak_index", "superposed"]
    assert len(lines[0].split(",")) == 2 + 4 * width


def test_reduce_writes_projections_and_scatter_in_the_output_dir(tmp_path, files_arg):
    out = tmp_path / "out"
    rc = main(["reduce", "--run-output-dir", str(out),
               "--data-files", files_arg, "--components", "3"])
    assert rc == 0
    counts = _report(out, "reduce")["counts"]
    assert counts["components"] == 3
    assert 0.0 < counts["explained_fraction"] <= 1.0
    assert len((out / "projections.csv").read_text().splitlines()) - 1 == counts["clean"]
    assert sorted(p.name for p in (out / "scatter").iterdir()) == [
        "pc1_pc2.csv", "pc1_pc3.csv", "pc2_pc3.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


@pytest.mark.parametrize("flag", ["--export", "--scatter-matrix"])
def test_reduce_has_no_output_path_flags(tmp_path, files_arg, flag):
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--run-output-dir", str(tmp_path), "--data-files", files_arg,
              flag, str(tmp_path / "elsewhere")])
    assert exc.value.code == 2
    assert not (tmp_path / "elsewhere").exists()


def test_sort_produces_model_and_classify_outputs(sorted_dir):
    catalogue = load_catalogue(sorted_dir / "catalogue.txt")
    assert catalogue.neuron_ids.tolist() == list(range(10))
    assert catalogue.channels == 4
    for name in ("labels.csv", "cluster_mads.csv", "projections.csv",
                 "spikes.csv", "unclassified.csv"):
        assert (sorted_dir / name).exists()
    for i in range(4):
        assert (sorted_dir / f"residual_channel_{i}.f64").exists()
    model = _report(sorted_dir, "model")["counts"]
    assert sum(model["cluster_sizes"]) == model["clean"]


def test_residual_files_are_plain_float64_of_the_peel_residual(files_arg, sorted_dir):
    # the sort ran at the default flags, which are DetectionParams' defaults,
    # and normalized by the statistics of the first half
    raw = load_recording(files_arg.split(","), rate_hz=15000.0)
    rec = normalize(raw, raw.samples // 2)
    _, _, residual = peel(rec, load_catalogue(sorted_dir / "catalogue.txt"),
                          DetectionParams())
    paths = [sorted_dir / f"residual_channel_{i}.f64" for i in range(rec.channels)]
    for path in paths:
        assert path.read_bytes()[:2] != GZIP_MAGIC
        assert path.stat().st_size == 8 * rec.samples
    assert np.array_equal(load_recording(paths, rate_hz=rec.rate_hz).data, residual.data)


def test_classify_residual_files_equal_the_public_peel(tmp_path, files_arg, sorted_dir):
    # classify peels in the normalized samples it owns; the public peel
    # peels a copy and leaves its input as it was
    rc = main(["classify", "--run-output-dir", str(tmp_path), "--data-files", files_arg,
               "--catalogue", str(sorted_dir / "catalogue.txt")])
    assert rc == 0
    raw = load_recording(files_arg.split(","), rate_hz=15000.0)
    rec = normalize(raw, raw.samples // 2)
    before = rec.data.tobytes()
    _, _, residual = peel(rec, load_catalogue(sorted_dir / "catalogue.txt"),
                          DetectionParams())
    assert rec.data.tobytes() == before
    paths = [tmp_path / f"residual_channel_{i}.f64" for i in range(rec.channels)]
    assert load_recording(paths, rate_hz=rec.rate_hz).data.tobytes() == residual.data.tobytes()


def test_classify_decides_every_event_once(sorted_dir):
    counts = _report(sorted_dir, "classify")["counts"]
    assert counts["examined"] == counts["accepted"] + counts["unclassified"]
    spikes = (sorted_dir / "spikes.csv").read_text().splitlines()
    unclassified = (sorted_dir / "unclassified.csv").read_text().splitlines()
    assert len(spikes) - 1 == counts["accepted"]
    assert len(unclassified) - 1 == counts["unclassified"]
    assert counts["rounds"] == len(counts["accepted_per_round"])


def test_classify_report_counts_per_round_match_the_csvs(sorted_dir):
    counts = _report(sorted_dir, "classify")["counts"]
    rows = {name: [line.split(",") for line in
                   (sorted_dir / name).read_text().splitlines()[1:]]
            for name in ("spikes.csv", "unclassified.csv")}
    accepted = Counter(int(cells[0]) for cells in rows["spikes.csv"])
    unclassified = Counter(int(cells[0]) for cells in rows["unclassified.csv"])
    rounds = [str(r) for r in range(counts["rounds"])]
    assert counts["examined"] == sum(accepted.values()) + sum(unclassified.values())
    assert counts["accepted_per_round"] == {r: accepted[int(r)] for r in rounds}
    assert counts["unclassified_per_round"] == {r: unclassified[int(r)] for r in rounds}
    assert counts["examined_per_round"] == {
        r: accepted[int(r)] + unclassified[int(r)] for r in rounds}
    assert set(accepted) | set(unclassified) == set(range(counts["rounds"]))


def test_classify_report_unclassified_rate_per_round(sorted_dir):
    # the catalogue-drift signal: each round's unclassified share of the
    # events it examined
    counts = _report(sorted_dir, "classify")["counts"]
    assert counts["unclassified_rate_per_round"] == {
        r: round(counts["unclassified_per_round"][r] / n, 6)
        for r, n in counts["examined_per_round"].items()}
    assert len(counts["unclassified_rate_per_round"]) == counts["rounds"] >= 2


def test_sorted_count_tracks_truth(sim_dir, sorted_dir):
    truth = load_truth_csv(sim_dir / "truth.csv")
    accepted = _report(sorted_dir, "classify")["counts"]["accepted"]
    assert accepted == pytest.approx(len(truth), rel=0.2)


def test_sort_matches_model_then_classify(tmp_path, files_arg, sorted_dir):
    rc = main(["model", "--run-output-dir", str(tmp_path),
               "--data-files", files_arg])
    assert rc == 0
    rc = main(["classify", "--run-output-dir", str(tmp_path),
               "--data-files", files_arg])
    assert rc == 0
    for name in ("catalogue.txt", "spikes.csv", "unclassified.csv"):
        assert (tmp_path / name).read_bytes() == (sorted_dir / name).read_bytes()


def test_scorecard_scores_the_sort_a_user_runs(tmp_path, locust_run, sorted_dir):
    # ACCEPTANCE 06-09 read locust_run: its decisions are sort's, bit for bit
    export_spikes_csv(locust_run["decisions"], locust_run["whole"].rate_hz,
                      tmp_path / "spikes.csv")
    export_unclassified_csv(locust_run["decisions"], tmp_path / "unclassified.csv")
    for name in ("spikes.csv", "unclassified.csv"):
        assert (tmp_path / name).read_bytes() == (sorted_dir / name).read_bytes()


def _count_reads(monkeypatch):
    """Counter of the channel files opened for reading, path by path."""
    import peelsort.ingest as ingest

    reads = Counter()

    def counted(path, mode="r", *args, **kwargs):
        if mode == "rb":
            reads[str(path)] += 1
        return open(path, mode, *args, **kwargs)
    # the module's own name shadows the builtin for its calls only
    monkeypatch.setattr(ingest, "open", counted, raising=False)
    return reads


def test_sort_opens_each_file_once_and_matches_the_fixture(tmp_path, files_arg, sorted_dir,
                                                           monkeypatch):
    # each file is opened once, streamed into its row and never read again
    reads = _count_reads(monkeypatch)
    rc = main(["sort", "--run-output-dir", str(tmp_path), "--data-files", files_arg])
    assert rc == 0
    assert reads == Counter(files_arg.split(","))
    residuals = [f"residual_channel_{i}.f64" for i in range(4)]
    for name in ("catalogue.txt", "spikes.csv", "unclassified.csv", *residuals):
        assert (tmp_path / name).read_bytes() == (sorted_dir / name).read_bytes()


# the commands that read the recording; classify reads the sort's catalogue
LOADING_COMMANDS = ("detect", "events", "reduce", "model", "classify", "sort")


def _command_args(command, out, files_arg, sorted_dir, flags=()):
    if command == "classify":
        flags = ["--catalogue", str(sorted_dir / "catalogue.txt"), *flags]
    return [command, "--run-output-dir", str(out), "--data-files", files_arg, *flags]


@pytest.mark.parametrize("command", LOADING_COMMANDS)
def test_every_command_loads_and_normalizes_once(tmp_path, files_arg, sorted_dir,
                                                 monkeypatch, command):
    # one read: each file is read once, then normalized in place
    import peelsort.cli as cli

    calls = Counter()

    def counted(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    reads = _count_reads(monkeypatch)
    for name in ("load_normalized", "load_recording", "normalize"):
        monkeypatch.setattr(cli, name, counted(name))
    assert main(_command_args(command, tmp_path, files_arg, sorted_dir)) == 0
    assert calls == {"load_normalized": 1}
    assert reads == Counter(files_arg.split(","))


@pytest.mark.parametrize("command", LOADING_COMMANDS)
def test_empty_estimation_window_fails_before_any_output(tmp_path, files_arg, sorted_dir,
                                                         command):
    # 1e-5 s is 0.15 samples at 15 kHz: no sample to take statistics from
    out = tmp_path / "out"
    out.mkdir()
    rc = main(_command_args(command, out, files_arg, sorted_dir,
                            ["--run-estimation-window-s", "1e-5"]))
    assert rc == 2
    assert list(out.iterdir()) == []


def test_estimation_window_longer_than_the_recording_is_all_of_it(tmp_path, files_arg):
    rc = main(["sort", "--run-output-dir", str(tmp_path), "--data-files", files_arg,
               "--run-estimation-window-s", str(10 * float(DURATION))])
    assert rc == 0
    samples = load_recording(files_arg.split(","), rate_hz=15000.0).samples
    assert _report(tmp_path, "model")["counts"]["window_samples"] == samples


def _sort_of(data, rate_hz, directory, flags=()):
    """Sort ``data`` saved as plain float64 channel files; the output directory."""
    directory.mkdir(exist_ok=True)
    paths = [directory / f"channel_{i}.f64" for i in range(len(data))]
    save_channels(Recording(data=data, rate_hz=rate_hz), paths)
    out = directory / "out"
    rc = main(["sort", "--run-output-dir", str(out),
               "--data-files", ",".join(map(str, paths)), *flags])
    assert rc == 0
    return out


def test_sign_flip_with_min_polarity_mirrors_sort(tmp_path, files_arg, sorted_dir):
    rec = load_recording(files_arg.split(","), rate_hz=15000.0)
    out = _sort_of(-rec.data, rec.rate_hz, tmp_path, ["--detect-polarity", "min"])
    for name in ("spikes.csv", "unclassified.csv"):
        assert (out / name).read_bytes() == (sorted_dir / name).read_bytes()


def test_sign_flip_with_both_polarity_keeps_the_sort(tmp_path, files_arg):
    rec = load_recording(files_arg.split(","), rate_hz=15000.0)
    flags = ["--detect-polarity", "both"]
    as_given = _sort_of(rec.data, rec.rate_hz, tmp_path / "as_given", flags)
    negated = _sort_of(-rec.data, rec.rate_hz, tmp_path / "negated", flags)
    for name in ("spikes.csv", "unclassified.csv"):
        assert (negated / name).read_bytes() == (as_given / name).read_bytes()


def _decisions(directory):
    """(round, neuron, peak_index) of each spike row, its delta, and
    (round, peak_index) of each unclassified row."""
    spikes = np.loadtxt(directory / "spikes.csv", delimiter=",", skiprows=1, ndmin=2)
    missed = np.loadtxt(directory / "unclassified.csv", delimiter=",", skiprows=1, ndmin=2)
    return spikes[:, :3], spikes[:, 3], missed[:, :2]


@pytest.mark.parametrize("scale,offset", [(2.0, 0.0), (3.0, 7.0), (0.37, 1000.0)])
def test_sort_is_invariant_to_scale_and_offset(tmp_path, files_arg, sorted_dir, scale, offset):
    rec = load_recording(files_arg.split(","), rate_hz=15000.0)
    out = _sort_of(scale * rec.data + offset, rec.rate_hz, tmp_path)
    rows, delta, missed = _decisions(out)
    rows_given, delta_given, missed_given = _decisions(sorted_dir)
    assert np.array_equal(rows, rows_given)
    assert np.array_equal(missed, missed_given)
    assert np.abs(delta - delta_given).max() <= 1e-9
    if (scale, offset) == (2.0, 0.0):  # exact in float64: every bit is kept
        for name in ("spikes.csv", "unclassified.csv", "catalogue.txt"):
            assert (out / name).read_bytes() == (sorted_dir / name).read_bytes()


@pytest.mark.parametrize("command,flags", [
    ("model", ["--cluster-method", "gmm"]),
    ("model", ["--cluster-method", "bagged"]),
    ("sort", ["--preprocess-highpass", "true"]),
])
def test_model_branches(tmp_path, files_arg, command, flags):
    rc = main([command, "--run-output-dir", str(tmp_path),
               "--data-files", files_arg] + flags)
    assert rc == 0
    assert load_catalogue(tmp_path / "catalogue.txt").neuron_ids.size == 10
    model = _report(tmp_path, "model")["counts"]
    assert sum(model["cluster_sizes"]) == model["clean"]


def test_unknown_cluster_method_fails_before_any_output(tmp_path, files_arg):
    rc = main(["model", "--run-output-dir", str(tmp_path),
               "--data-files", files_arg, "--cluster-method", "kmean"])
    assert rc == 2
    assert not (tmp_path / "projections.csv").exists()
    assert not (tmp_path / "scatter").exists()


@pytest.mark.parametrize("flags", [
    ["--peel-max-rounds", "0"],
    ["--run-estimation-window-s", "-5"],
    ["--events-before", "-3", "--events-after", "20"],
    ["--events-before", "20"],
    ["--cluster-k", "0"],
    ["--peel-acceptance-factor", "-1"],
    ["--peel-acceptance-factor", "0"],
], ids=["no rounds", "negative window", "negative before", "half-pinned cut", "no clusters",
        "negative acceptance", "zero acceptance"])
def test_bad_bounds_fail_before_any_output(tmp_path, files_arg, flags):
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["sort", "--run-output-dir", str(out), "--data-files", files_arg, *flags])
    assert rc == 2
    assert list(out.iterdir()) == []


# the names perfbench/tracing.py wraps in the peelsort.cli namespace
TRACED_CLI_NAMES = (
    "cmd_model", "cmd_classify", "load_recording", "save_channels", "normalize",
    "detect", "make_cuts", "optimal_cut_bounds", "flag_superpositions",
    "non_superposed", "fit_pca", "project", "export_projections",
    "export_scatter_pairs", "kmeans", "order_clusters", "export_labels",
    "build_templates", "save_catalogue", "load_catalogue", "peel",
    "export_spikes_csv", "export_unclassified_csv",
)


def test_sort_looks_up_traced_names_in_cli_module(tmp_path, files_arg, monkeypatch):
    import peelsort.cli as cli

    calls = dict.fromkeys(TRACED_CLI_NAMES, 0)

    def counting(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in TRACED_CLI_NAMES:
        monkeypatch.setattr(cli, name, counting(name))
    rc = main(["sort", "--run-output-dir", str(tmp_path), "--data-files", files_arg])
    assert rc == 0
    # load_normalized does the work of these two, which
    # the module keeps for the tracer to find
    assert [name for name, n in calls.items() if n == 0] == ["load_recording", "normalize"]


def test_perfbench_tracer_reads_a_real_sort(tmp_path, files_arg):
    # perfbench/tracing.py, loaded as the benchmark loads it, wraps the
    # layer names of a real sort; its spans are well formed and its peel
    # counts are the report's
    import peelsort.cli as cli

    # the package re-exports the peel() function as peelsort.peel
    peel_module = importlib.import_module("peelsort.peel")
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = [(cli, name) for name in tracing.CLI_LAYERS] + [
        (peel_module, name) for name in (*tracing.PEEL_LAYERS, *tracing.PEEL_COUNTED)]
    originals = [getattr(module, name) for module, name in wrapped]
    tracer = tracing.Tracer()
    try:
        tracer.install(cli, layers=True)
        assert all(getattr(module, name) is not fn
                   for (module, name), fn in zip(wrapped, originals))
        t0 = time.perf_counter()
        rc = main(["sort", "--run-output-dir", str(tmp_path), "--data-files", files_arg])
        sort_s = time.perf_counter() - t0
    finally:
        for (module, name), fn in zip(wrapped, originals):
            setattr(module, name, fn)
    assert rc == 0
    trace = tracer.dump()
    assert tracing.self_test(trace["spans"], sort_s) == []
    summary = tracing.summarize(trace, sort_s)
    counts = _report(tmp_path, "classify")["counts"]
    assert counts["accepted"] > 0
    assert [summary[f"peel.{key}"] for key in ("examined", "accepted", "rounds")] == [
        counts[key] for key in ("examined", "accepted", "rounds")]


def test_single_cluster_model(tmp_path, files_arg):
    rc = main(["model", "--run-output-dir", str(tmp_path),
               "--data-files", files_arg, "--cluster-k", "1",
               "--run-estimation-window-s", "5"])
    assert rc == 0
    assert load_catalogue(tmp_path / "catalogue.txt").neuron_ids.size == 1


def test_flag_overrides_config_file(tmp_path, files_arg):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"detect.box_width = 9\ndata.files = {files_arg}\n")
    rc = main(["detect", "--config", str(cfg_path),
               "--run-output-dir", str(tmp_path), "--detect-box-width", "7"])
    assert rc == 0
    assert _report(tmp_path, "detect")["config"]["detect.box_width"] == 7


def test_bad_flag_value_is_config_error(tmp_path, files_arg):
    rc = main(["detect", "--run-output-dir", str(tmp_path),
               "--data-files", files_arg, "--detect-box-width", "five"])
    assert rc == 2


def test_missing_input_is_data_error(tmp_path):
    rc = main(["detect", "--run-output-dir", str(tmp_path),
               "--data-files", str(tmp_path / "absent.f64.gz")])
    assert rc == 3


def test_missing_catalogue_is_data_error(tmp_path, files_arg):
    rc = main(["classify", "--run-output-dir", str(tmp_path),
               "--data-files", files_arg,
               "--catalogue", str(tmp_path / "absent.txt")])
    assert rc == 3


def test_corrupt_gzip_body_is_data_error(tmp_path, sim_dir):
    # the 10-byte gzip header is intact; the first deflate block's type
    # bits (1-2 of its first byte) are flipped to the reserved type 3
    raw = bytearray((sim_dir / "channel_0.f64.gz").read_bytes())
    raw[10] |= 0b110
    path = tmp_path / "channel_0.f64.gz"
    path.write_bytes(bytes(raw))
    rc = main(["detect", "--run-output-dir", str(tmp_path / "out"),
               "--data-files", str(path)])
    assert rc == 3


def test_binary_catalogue_is_data_error(tmp_path, files_arg):
    path = tmp_path / "catalogue.txt"
    path.write_bytes(b"\xff\xfe\x80 not text")
    rc = main(["classify", "--run-output-dir", str(tmp_path),
               "--data-files", files_arg, "--catalogue", str(path)])
    assert rc == 3


def test_binary_config_is_config_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"\xff\xfe\x80 not text")
    rc = main(["detect", "--config", str(path), "--run-output-dir", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("flag,value", [("--run-estimation-window-s", "inf"),
                                        ("--data-rate-hz", "nan")])
def test_non_finite_flag_is_config_error(tmp_path, files_arg, flag, value):
    rc = main(["sort", "--run-output-dir", str(tmp_path), "--data-files", files_arg,
               flag, value])
    assert rc == 2
    assert not any(tmp_path.iterdir())


def test_flat_signal_is_numerical_failure(tmp_path):
    flat = Recording(data=np.zeros((1, 2000)), rate_hz=15000.0)
    path = tmp_path / "flat.f64.gz"
    save_channels(flat, [path])
    rc = main(["detect", "--run-output-dir", str(tmp_path),
               "--data-files", str(path)])
    assert rc == 4


def test_nan_channel_is_data_error_naming_the_file(tmp_path, capsys):
    data = np.random.default_rng(6).standard_normal((3, 2000))
    paths = [tmp_path / f"channel_{i}.f64.gz" for i in range(3)]
    save_channels(Recording(data=data, rate_hz=15000.0), paths)
    bad = np.where(np.arange(2000) == 1500, np.nan, data[1]).astype("<f8").tobytes()
    paths[1].write_bytes(gzip.compress(bad))
    rc = main(["detect", "--run-output-dir", str(tmp_path / "out"),
               "--data-files", ",".join(map(str, paths))])
    assert rc == 3
    assert f"NaN or infinite samples in {paths[1]}" in capsys.readouterr().err


def test_one_flat_channel_among_live_ones_is_numerical_failure(tmp_path, capsys):
    data = np.random.default_rng(7).standard_normal((4, 2000))
    data[2] = 0.25
    paths = [tmp_path / f"channel_{i}.f64" for i in range(4)]
    save_channels(Recording(data=data, rate_hz=15000.0), paths)
    rc = main(["detect", "--run-output-dir", str(tmp_path / "out"),
               "--data-files", ",".join(map(str, paths))])
    assert rc == 4
    assert "channel(s) 2 have zero MAD" in capsys.readouterr().err


def _noise_files(tmp_path, seed, samples=60000):
    """A 4-channel recording of white noise, whose few detected peaks are
    noise."""
    data = np.random.default_rng(seed).standard_normal((4, 60000))[:, :samples]
    paths = [tmp_path / f"noise_{i}.f64" for i in range(4)]
    save_channels(Recording(data=data, rate_hz=15000.0), paths)
    return ",".join(map(str, paths))


@pytest.mark.parametrize("command,flags,message", [
    ("events", [], "too few events to choose the cut window from: 1, need >= 2"),
    ("reduce", [], "too few events to choose the cut window from: 1, need >= 2"),
    ("model", [], "too few events to choose the cut window from: 1, need >= 2"),
    ("sort", [], "too few events to choose the cut window from: 1, need >= 2"),
    ("reduce", ["--events-before", "10", "--events-after", "10"],
     "too few clean events for PCA: 1, need >= 2"),
])
def test_one_event_is_numerical_failure(tmp_path, capsys, command, flags, message):
    # one noise peak in the whole recording (2 s at 15 kHz), which is the
    # estimation window: the count is a fact of the data, not of the
    # configuration
    files = _noise_files(tmp_path, seed=0, samples=30000)
    common = ["--data-files", files, "--run-estimation-window-s", "2", *flags]
    assert main(["detect", "--run-output-dir", str(tmp_path / "d"), *common]) == 0
    assert len((tmp_path / "d" / "peaks.txt").read_text().split()) == 1
    assert main([command, "--run-output-dir", str(tmp_path / "out"), *common]) == 4
    assert message in capsys.readouterr().err


def test_fewer_clean_events_than_clusters_is_numerical_failure(tmp_path, capsys):
    rc = main(["model", "--run-output-dir", str(tmp_path / "out"),
               "--data-files", _noise_files(tmp_path, seed=4)])
    assert rc == 4
    assert "too few clean events for 10 clusters: 5, need >= 10" in capsys.readouterr().err


@pytest.mark.parametrize("channels,rate", [(4, "20000"), (2, "15000")])
def test_catalogue_of_another_recording_is_data_error(tmp_path, files_arg, sorted_dir,
                                                      capsys, channels, rate):
    rc = main(["classify", "--run-output-dir", str(tmp_path),
               "--catalogue", str(sorted_dir / "catalogue.txt"),
               "--data-files", ",".join(files_arg.split(",")[:channels]), "--data-rate-hz", rate])
    assert rc == 3
    assert "does not match recording" in capsys.readouterr().err
    assert not (tmp_path / "spikes.csv").exists()
