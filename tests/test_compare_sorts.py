"""The byte-comparison script: a tree against itself, and against a
changed copy."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

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
    assert not any(name.startswith("report_") for name in verdicts)
    assert set(verdicts.values()) == {"same"}


def test_compare_sorts_finds_a_changed_tree(tmp_path):
    # one peel round instead of ten: the input and the model are the same, the peel is not
    other = changed_copy(tmp_path, "config.py", '"peel.max_rounds": (int, 10,',
                         '"peel.max_rounds": (int, 1,')
    rc, verdicts = compare(other, tmp_path)
    assert rc == 1
    assert verdicts["simulate/channel_0.f64.gz"] == "same"
    assert verdicts["simulate/truth.csv"] == "same"
    assert verdicts["catalogue.txt"] == "same"
    assert verdicts["spikes.csv"] == "differs"


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
    other = changed_copy(tmp_path, "config.py", '"peel.max_rounds": (int, 10,',
                         '"peel.max_rounds": (int, 1,')
    rc, lines = run_script(other, tmp_path)
    assert rc == 1
    assert lines["spikes.csv"] == ("differs", "differ")
    assert lines["catalogue.txt"] == ("same", None)
