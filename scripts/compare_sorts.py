"""Simulate and sort the canned scenario, or sort existing recordings,
with another source tree and with this one, and compare the files each
writes byte by byte.

``OTHER_SRC`` is the ``src`` directory of another checkout, for example
one of the parent commit:

    git worktree add ../parent HEAD~1
    python3 scripts/compare_sorts.py ../parent/src
    python3 scripts/compare_sorts.py ../parent/src --seed 7 -- --preprocess-highpass true
    python3 scripts/compare_sorts.py ../parent/src --seed 0-39,42
    python3 scripts/compare_sorts.py ../parent/src --inputs rec_a,rec_b -- --cluster-restarts 50

``--seed`` takes one seed (default 42) or a list, ``0-39`` or ``3,7,42``
(parsed by ``seed_sweep.parse_seeds``).  For each seed, each tree,
``OTHER_SRC`` first and then this checkout's, simulates the scenario
(``peelsort simulate --seed N``) and sorts its own simulation
(``peelsort sort``), every command in a fresh process with
``PYTHONPATH`` set to that tree's ``src``.  One line per file follows,
``same`` or ``differs`` and the file's path: ``simulate/`` and a
simulated channel file or ``truth.csv``, or the path of a ``sort``
output in its output directory.  One more line compares the exit codes
of ``sort``.  Of a ``report_*.json`` file only the ``counts`` object is
compared, on a line ``same report_classify.json counts``: its timings
and its echo of the configuration, which holds the output path, are
left out.  A file only one tree wrote differs.  When
both trees wrote ``spikes.csv`` or ``unclassified.csv`` and the bytes
differ, the line ends in ``(decisions same)`` or ``(decisions differ)``:
whether the peel decisions moved, or only the floats of the fits.  The
decision columns are (round, neuron, peak_index) of a spike and (round,
peak_index) of an unclassified event.  With more than one seed, each
seed's block of lines starts with ``seed N``.

``--inputs DIR[,DIR]`` sorts existing recordings instead of simulating:
each tree sorts each DIR's ``channel_*`` files, taken in the order of the
index in their names (``channel_2`` before ``channel_10``), and only the
``sort`` outputs and exit codes are compared.  With more than one DIR,
each DIR's block starts with ``inputs DIR``.

The script exits 1 on any byte difference in any seed or DIR, 0
otherwise.  The commands' own output goes to stderr.  Everything after
``--`` is passed to ``sort`` unchanged.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(HERE))  # seed_sweep imports peelsort
from seed_sweep import parse_seeds  # noqa: E402

DECISION_COLUMNS = {"spikes.csv": ("round", "neuron", "peak_index"),
                    "unclassified.csv": ("round", "peak_index")}


def peelsort(src: Path, args: list[str]) -> int:
    """Run ``peelsort ARGS`` in a fresh process that imports from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "peelsort.cli", *args], env=env,
                          stdout=sys.stderr).returncode


def channel_files(directory: Path) -> list[Path]:
    """The ``channel_<index>...`` files of a directory, in index order."""
    return sorted(directory.glob("channel_*"),
                  key=lambda p: int(p.name.split("_")[1].split(".")[0]))


def is_report(path: Path) -> bool:
    return path.name.startswith("report_") and path.suffix == ".json"


def compared_files(side: Path) -> dict[str, Path]:
    """Printed name -> path of every file compared from one tree's run."""
    sim = side / "simulate"
    files = {f"simulate/{p.name}": p for p in (sim.iterdir() if sim.is_dir() else ())
             if p.name.startswith("channel_") or p.name == "truth.csv"}
    out = side / "sort"
    for p in out.rglob("*"):
        if p.is_file():
            name = p.relative_to(out).as_posix()
            files[f"{name} counts" if is_report(p) else name] = p
    return files


def compared(path: Path):
    """What is compared of a file: a run report's counts, any other file's bytes."""
    return json.loads(path.read_text())["counts"] if is_report(path) else path.read_bytes()


def decisions(path: Path, columns: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The given columns of every row of a peelsort CSV file."""
    with path.open(newline="") as fh:
        return [tuple(row[c] for c in columns) for row in csv.DictReader(fh)]


def compare_run(other_src: Path, sort_flags: list[str], seed: int | None = None,
                inputs: Path | None = None) -> list | None:
    """(name, same, note) rows of one simulated seed, or of the recording
    in ``inputs``; None if a simulation failed."""
    with tempfile.TemporaryDirectory(prefix="peelsort-compare-") as tmp:
        codes, files = [], []
        for src, side in ((other_src, Path(tmp) / "other"), (HERE, Path(tmp) / "here")):
            recording = inputs
            if recording is None:
                recording = side / "simulate"
                if peelsort(src, ["simulate", "--out", str(recording), "--seed", str(seed)]) != 0:
                    print(f"simulate failed with {src}", file=sys.stderr)
                    return None
            channels = ",".join(str(p) for p in channel_files(recording))
            codes.append(peelsort(src, ["sort", "--run-output-dir", str(side / "sort"),
                                        "--data-files", channels, *sort_flags]))
            files.append(compared_files(side))
        a, b = files
        rows = [("exit code", codes[0] == codes[1], "")]
        for name in sorted(a.keys() | b.keys()):
            both = name in a and name in b
            same = both and compared(a[name]) == compared(b[name])
            note = ""
            if both and not same and name in DECISION_COLUMNS:
                moved = (decisions(a[name], DECISION_COLUMNS[name])
                         != decisions(b[name], DECISION_COLUMNS[name]))
                note = " (decisions differ)" if moved else " (decisions same)"
            rows.append((name, same, note))
    return rows


def main_compare(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                     epilog="Everything after -- is passed to sort unchanged.")
    parser.add_argument("other_src", type=Path, help="src directory of the other tree")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--seed", type=parse_seeds, default=[42],
                        help="simulation seeds, e.g. 42, 0-39 or 3,7,42")
    source.add_argument("--inputs", type=lambda text: [Path(d) for d in text.split(",")],
                        help="recording directories to sort instead, e.g. rec_a,rec_b")
    # split off by hand: argparse would give a trailing positional nothing
    # once an option stands between it and the first positional
    argv = sys.argv[1:] if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    args, sort_flags = parser.parse_args(argv[:cut]), argv[cut + 1:]
    runs = ([(f"inputs {d}", {"inputs": d.resolve()}) for d in args.inputs] if args.inputs
            else [(f"seed {seed}", {"seed": seed}) for seed in args.seed])
    all_same = True
    for head, source in runs:
        rows = compare_run(args.other_src.resolve(), sort_flags, **source)
        if rows is None:
            return 1
        if len(runs) > 1:
            print(head)
        for name, same, note in rows:
            print("same" if same else "differs", name + note)
        all_same &= all(same for _, same, _ in rows)
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main_compare())
