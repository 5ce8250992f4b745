"""Simulate and sort the canned scenario with another source tree and with
this one, and compare the files each writes byte by byte.

``OTHER_SRC`` is the ``src`` directory of another checkout, for example
one of the parent commit:

    git worktree add ../parent HEAD~1
    python3 scripts/compare_sorts.py ../parent/src
    python3 scripts/compare_sorts.py ../parent/src --seed 7 -- --preprocess-highpass true

Each tree, ``OTHER_SRC`` first and then this checkout's, simulates the
scenario (``peelsort simulate --seed N``) and sorts its own simulation
(``peelsort sort``), every command in a fresh process with
``PYTHONPATH`` set to that tree's ``src``.  One line per file follows,
``same`` or ``differs`` and the file's path: ``simulate/`` and a
simulated channel file or ``truth.csv``, or the path of a ``sort``
output in its output directory.  One more line compares the exit codes
of ``sort``.  The ``report_*.json`` files are left out: they hold
timings and the output path.  A file only one tree wrote differs.  The
script exits 1 on any difference, 0 otherwise.  The commands' own
output goes to stderr.  Everything after ``--`` is passed to ``sort``
unchanged.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent / "src"


def peelsort(src: Path, args: list[str]) -> int:
    """Run ``peelsort ARGS`` in a fresh process that imports from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "peelsort.cli", *args], env=env,
                          stdout=sys.stderr).returncode


def compared_files(side: Path) -> dict[str, Path]:
    """Printed name -> path of every file compared from one tree's run."""
    files = {f"simulate/{p.name}": p for p in (side / "simulate").iterdir()
             if p.name.startswith("channel_") or p.name == "truth.csv"}
    out = side / "sort"
    files.update((p.relative_to(out).as_posix(), p) for p in out.rglob("*")
                 if p.is_file() and not (p.name.startswith("report_") and p.suffix == ".json"))
    return files


def main_compare(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_src", type=Path, help="src directory of the other tree")
    parser.add_argument("--seed", type=int, default=42, help="simulation seed")
    parser.add_argument("sort_flags", nargs="*", help="extra flags for sort, after --")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="peelsort-compare-") as tmp:
        codes, files = [], []
        for src, side in ((args.other_src.resolve(), Path(tmp) / "other"),
                          (HERE, Path(tmp) / "here")):
            sim = side / "simulate"
            if peelsort(src, ["simulate", "--out", str(sim), "--seed", str(args.seed)]) != 0:
                print(f"simulate failed with {src}", file=sys.stderr)
                return 1
            channels = ",".join(str(p) for p in sorted(sim.glob("channel_*.f64.gz")))
            codes.append(peelsort(src, ["sort", "--run-output-dir", str(side / "sort"),
                                        "--data-files", channels, *args.sort_flags]))
            files.append(compared_files(side))
        a, b = files
        rows = [("exit code", codes[0] == codes[1])]
        rows += [(name, name in a and name in b and a[name].read_bytes() == b[name].read_bytes())
                 for name in sorted(a.keys() | b.keys())]
    for name, same in rows:
        print("same" if same else "differs", name)
    return 0 if all(same for _, same in rows) else 1


if __name__ == "__main__":
    sys.exit(main_compare())
