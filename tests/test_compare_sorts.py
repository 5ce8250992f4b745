"""The byte-comparison script: a tree against itself, and against a
changed copy."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def changed_copy(tmp_path, module, old, new):
    """A copy of the package with one line of ``module`` edited."""
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src" / "peelsort", other / "peelsort",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = other / "peelsort" / module
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return other


LINE = re.compile(r"(same|differs) (.+?)(?: \(decisions (same|differ)\))?")


def run_script(other_src, tmp_path):
    """Exit code and {name: (verdict, decisions verdict or None)}."""
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "compare_sorts.py"),
                           str(other_src)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    lines = [LINE.fullmatch(line).groups() for line in proc.stdout.splitlines()]
    return proc.returncode, {name: (verdict, note) for verdict, name, note in lines}


def compare(other_src, tmp_path):
    rc, lines = run_script(other_src, tmp_path)
    return rc, {name: verdict for name, (verdict, _) in lines.items()}


def test_compare_sorts_finds_a_checkout_equal_to_itself(tmp_path):
    rc, verdicts = compare(ROOT / "src", tmp_path)
    assert rc == 0
    assert {"exit code", "spikes.csv", "unclassified.csv", "catalogue.txt",
            "residual_channel_0.f64", "simulate/channel_0.f64.gz",
            "simulate/truth.csv"} <= set(verdicts)
    # of a report only the counts: its timings differ from run to run
    assert sorted(name for name in verdicts if name.startswith("report_")) == [
        "report_classify.json counts", "report_model.json counts"]
    assert set(verdicts.values()) == {"same"}


def test_compare_sorts_finds_a_changed_tree(tmp_path):
    # one peel round instead of ten: the input and the model are the same, the peel is not
    other = changed_copy(tmp_path, "config.py", '"peel.max_rounds": (int, DEFAULT_MAX_ROUNDS,',
                         '"peel.max_rounds": (int, 1,')
    rc, verdicts = compare(other, tmp_path)
    assert rc == 1
    assert verdicts["simulate/channel_0.f64.gz"] == "same"
    assert verdicts["simulate/truth.csv"] == "same"
    assert verdicts["catalogue.txt"] == "same"
    assert verdicts["spikes.csv"] == "differs"


def test_compare_sorts_finds_a_changed_report_count(tmp_path):
    # every output file is the same, one count in the classify report is not
    other = changed_copy(tmp_path, "cli.py", '"examined": len(decisions),',
                         '"examined": len(decisions) + 1,')
    rc, verdicts = compare(other, tmp_path)
    assert rc == 1
    assert verdicts["report_classify.json counts"] == "differs"
    assert verdicts["report_model.json counts"] == "same"
    assert {verdict for name, verdict in verdicts.items()
            if not name.startswith("report_classify")} == {"same"}


def test_compare_sorts_finds_a_changed_simulation(tmp_path):
    # another noise stream: the same true spikes on other samples
    other = changed_copy(tmp_path, "synth.py", "_NOISE_KEY = 1 << 20", "_NOISE_KEY = 1 << 21")
    rc, verdicts = compare(other, tmp_path)
    assert rc == 1
    assert verdicts["simulate/truth.csv"] == "same"
    assert verdicts["simulate/channel_0.f64.gz"] == "differs"


def test_compare_sorts_says_when_only_fit_floats_moved(tmp_path):
    # the same decisions with other float bits in both peel tables
    other = changed_copy(tmp_path, "peel.py", "d.rss_before", "d.rss_before * (1 + 2.0 ** -40)")
    rc, lines = run_script(other, tmp_path)
    assert rc == 1
    assert lines["spikes.csv"] == ("differs", "same")
    assert lines["unclassified.csv"] == ("differs", "same")
    assert lines["catalogue.txt"] == ("same", None)
    assert lines["residual_channel_0.f64"] == ("same", None)


def test_compare_sorts_says_when_decisions_moved(tmp_path):
    # one peel round instead of ten: later rounds' spikes are missing
    other = changed_copy(tmp_path, "config.py", '"peel.max_rounds": (int, DEFAULT_MAX_ROUNDS,',
                         '"peel.max_rounds": (int, 1,')
    rc, lines = run_script(other, tmp_path)
    assert rc == 1
    assert lines["spikes.csv"] == ("differs", "differ")
    assert lines["catalogue.txt"] == ("same", None)


def test_compare_sorts_takes_a_seed_list(tmp_path):
    # one block per seed, each headed by its seed; any difference exits 1
    other = changed_copy(tmp_path, "config.py", '"peel.max_rounds": (int, DEFAULT_MAX_ROUNDS,',
                         '"peel.max_rounds": (int, 1,')
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "compare_sorts.py"),
                           str(other), "--seed", "7,42"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1
    blocks = {}
    for line in proc.stdout.splitlines():
        if line.startswith("seed "):
            seed = int(line.split()[1])
            blocks[seed] = {}
        else:
            verdict, name, _ = LINE.fullmatch(line).groups()
            blocks[seed][name] = verdict
    assert list(blocks) == [7, 42]
    for verdicts in blocks.values():
        assert verdicts["simulate/truth.csv"] == "same"
        assert verdicts["catalogue.txt"] == "same"
        assert verdicts["spikes.csv"] == "differs"


@pytest.fixture(scope="module")
def recordings(tmp_path_factory):
    """A simulated recording, gzip channels, and the same samples in plain files."""
    from peelsort.cli import main
    from peelsort.ingest import load_recording, save_channels

    gz = tmp_path_factory.mktemp("rec_gz")
    assert main(["simulate", "--out", str(gz), "--seed", "42"]) == 0
    plain = tmp_path_factory.mktemp("rec_plain")
    rec = load_recording(sorted(gz.glob("channel_*.f64.gz")), rate_hz=15000.0)
    save_channels(rec, [plain / f"channel_{i}.f64" for i in range(rec.channels)])
    return gz, plain


def run_inputs(other_src, tmp_path, inputs, *sort_flags):
    """Exit code and [(block head or None, verdict, name)] of an --inputs run."""
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    args = [sys.executable, str(ROOT / "scripts" / "compare_sorts.py"), str(other_src),
            "--inputs", ",".join(str(d) for d in inputs)]
    if sort_flags:
        args += ["--", *sort_flags]
    proc = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    rows, head = [], None
    for line in proc.stdout.splitlines():
        if line.startswith("inputs "):
            head = line[len("inputs "):]
        else:
            verdict, name, _ = LINE.fullmatch(line).groups()
            rows.append((head, verdict, name))
    return proc.returncode, rows


def test_compare_sorts_sorts_existing_recordings(tmp_path, recordings):
    # each directory is sorted by both trees; nothing is simulated
    rc, rows = run_inputs(ROOT / "src", tmp_path, recordings)
    assert rc == 0
    assert [head for head in dict.fromkeys(h for h, _, _ in rows)] == [
        str(d) for d in recordings]
    names = {name for _, _, name in rows}
    assert {"exit code", "spikes.csv", "unclassified.csv", "catalogue.txt",
            "residual_channel_0.f64"} <= names
    assert not any(name.startswith("simulate/") for name in names)
    assert "report_classify.json counts" in names
    assert {verdict for _, verdict, _ in rows} == {"same"}


def test_compare_sorts_passes_sort_flags_with_inputs(tmp_path, recordings):
    # the other tree peels one round by default; with the flag, so does this one
    other = changed_copy(tmp_path, "config.py", '"peel.max_rounds": (int, DEFAULT_MAX_ROUNDS,',
                         '"peel.max_rounds": (int, 1,')
    rc, rows = run_inputs(other, tmp_path, recordings[1:])
    assert rc == 1
    verdicts = {name: verdict for _, verdict, name in rows}
    assert verdicts["catalogue.txt"] == "same" and verdicts["spikes.csv"] == "differs"
    rc, rows = run_inputs(other, tmp_path, recordings[1:], "--peel-max-rounds", "1")
    assert rc == 0
    assert {verdict for _, verdict, _ in rows} == {"same"}


def test_compare_sorts_takes_channels_in_index_order(tmp_path, monkeypatch):
    import importlib

    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    script = importlib.import_module("compare_sorts")
    for index in (10, 2, 0, 1):
        (tmp_path / f"channel_{index}.f64").touch()
    (tmp_path / "truth.csv").touch()
    assert [p.name for p in script.channel_files(tmp_path)] == [
        "channel_0.f64", "channel_1.f64", "channel_2.f64", "channel_10.f64"]
