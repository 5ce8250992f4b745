"""Command-line workflow: every subcommand, exit codes, run reports."""

import json
from collections import Counter

import numpy as np
import pytest

from peelsort.cli import build_parser, main
from peelsort.detect import DetectionParams
from peelsort.ingest import GZIP_MAGIC, Recording, load_recording, save_channels
from peelsort.peel import load_catalogue, peel
from peelsort.preprocess import normalize
from peelsort.synth import load_truth_csv

DURATION = "20"  # seconds; the first half is the model-estimation window


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


def test_reduce_export_flags(tmp_path, files_arg):
    export = tmp_path / "proj.csv"
    scatter = tmp_path / "pairs"
    rc = main(["reduce", "--run-output-dir", str(tmp_path),
               "--data-files", files_arg, "--components", "3",
               "--export", str(export), "--scatter-matrix", str(scatter)])
    assert rc == 0
    counts = _report(tmp_path, "reduce")["counts"]
    assert counts["components"] == 3
    assert 0.0 < counts["explained_fraction"] <= 1.0
    assert len(export.read_text().splitlines()) - 1 == counts["clean"]
    assert sorted(p.name for p in scatter.iterdir()) == [
        "pc1_pc2.csv", "pc1_pc3.csv", "pc2_pc3.csv"]


def test_sort_produces_model_and_classify_outputs(sorted_dir):
    catalogue = load_catalogue(sorted_dir / "catalogue.txt")
    assert len(catalogue.templates) == 10
    assert catalogue.channels == 4
    for name in ("labels.csv", "cluster_mads.csv", "projections.csv",
                 "spikes.csv", "unclassified.csv"):
        assert (sorted_dir / name).exists()
    for i in range(4):
        assert (sorted_dir / f"residual_channel_{i}.f64").exists()
    model = _report(sorted_dir, "model")["counts"]
    assert sum(model["cluster_sizes"]) == model["clean"]


def test_residual_files_are_plain_float64_of_the_peel_residual(files_arg, sorted_dir):
    # the sort ran at the default flags, which are DetectionParams' defaults
    rec = normalize(load_recording(files_arg.split(","), rate_hz=15000.0))
    _, _, residual = peel(rec, load_catalogue(sorted_dir / "catalogue.txt"),
                          DetectionParams())
    paths = [sorted_dir / f"residual_channel_{i}.f64" for i in range(rec.channels)]
    for path in paths:
        assert path.read_bytes()[:2] != GZIP_MAGIC
        assert path.stat().st_size == 8 * rec.samples
    assert np.array_equal(load_recording(paths, rate_hz=rec.rate_hz).data, residual.data)


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


def test_sort_reads_input_once_and_frees_it_before_peel(tmp_path, files_arg,
                                                        sorted_dir, monkeypatch):
    import weakref

    import peelsort.cli as cli

    raw = []

    def load(*args, **kwargs):
        rec = load_recording(*args, **kwargs)
        raw.append(weakref.ref(rec.data))
        return rec

    def peel(*args, **kwargs):
        assert raw and raw[0]() is None, "raw input still held while peeling"
        return peel_fn(*args, **kwargs)

    peel_fn = cli.peel
    monkeypatch.setattr(cli, "load_recording", load)
    monkeypatch.setattr(cli, "peel", peel)
    rc = main(["sort", "--run-output-dir", str(tmp_path), "--data-files", files_arg])
    assert rc == 0
    assert len(raw) == 1
    for name in ("catalogue.txt", "spikes.csv", "unclassified.csv"):
        assert (tmp_path / name).read_bytes() == (sorted_dir / name).read_bytes()


def test_sign_flip_with_min_polarity_mirrors_sort(tmp_path, files_arg, sorted_dir):
    rec = load_recording(files_arg.split(","), rate_hz=15000.0)
    flipped = [tmp_path / f"flipped_{i}.f64" for i in range(rec.channels)]
    save_channels(Recording(data=-rec.data, rate_hz=rec.rate_hz), flipped)
    out = tmp_path / "out"
    rc = main(["sort", "--run-output-dir", str(out), "--detect-polarity", "min",
               "--data-files", ",".join(str(p) for p in flipped)])
    assert rc == 0
    for name in ("spikes.csv", "unclassified.csv"):
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
    assert len(load_catalogue(tmp_path / "catalogue.txt").templates) == 10
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
    assert [name for name, n in calls.items() if n == 0] == []


def test_single_cluster_model(tmp_path, files_arg):
    rc = main(["model", "--run-output-dir", str(tmp_path),
               "--data-files", files_arg, "--cluster-k", "1",
               "--run-estimation-window-s", "5"])
    assert rc == 0
    assert len(load_catalogue(tmp_path / "catalogue.txt").templates) == 1


def test_flag_overrides_config_file(tmp_path, files_arg):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"detect.box_width = 9\ndata.files = {files_arg}\n")
    rc = main(["detect", "--config", str(cfg_path),
               "--run-output-dir", str(tmp_path), "--detect-box-width", "7"])
    assert rc == 0
    assert _report(tmp_path, "detect")["config"]["detect.box_width"] == 7


def test_unknown_scenario_is_config_error(tmp_path):
    rc = main(["simulate", "--out", str(tmp_path), "--scenario", "martian"])
    assert rc == 2


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
