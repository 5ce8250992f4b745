"""Sort the canned scenario with another source tree and with this one,
and compare the output files byte by byte.

``OTHER_SRC`` is the ``src`` directory of another checkout, for example
one of the parent commit:

    git worktree add ../parent HEAD~1
    python3 scripts/compare_sorts.py ../parent/src
    python3 scripts/compare_sorts.py ../parent/src --seed 7 -- --preprocess-highpass true

This checkout simulates the scenario once (``peelsort simulate --seed
N``).  ``peelsort sort`` then runs on it twice, each time in a fresh
process with ``PYTHONPATH`` set to one tree's ``src``: ``OTHER_SRC``
first, then this checkout's.  One line per output file follows, ``same``
or ``differs`` and the file's path in the output directory, and one for
the exit code of ``sort``.  The ``report_*.json`` files are left out:
they hold timings and the output path.  A file only one sort wrote
differs.  The script exits 1 on any difference, 0 otherwise.  The
commands' own output goes to stderr.  Everything after ``--`` is passed
to ``sort`` unchanged.
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


def output_files(out: Path) -> set[str]:
    return {p.relative_to(out).as_posix() for p in out.rglob("*")
            if p.is_file() and not (p.name.startswith("report_") and p.suffix == ".json")}


def main_compare(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_src", type=Path, help="src directory of the other tree")
    parser.add_argument("--seed", type=int, default=42, help="simulation seed")
    parser.add_argument("sort_flags", nargs="*", help="extra flags for sort, after --")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="peelsort-compare-") as tmp:
        sim = Path(tmp) / "sim"
        if peelsort(HERE, ["simulate", "--out", str(sim), "--seed", str(args.seed)]) != 0:
            print("simulate failed", file=sys.stderr)
            return 1
        files = ",".join(str(p) for p in sorted(sim.glob("channel_*.f64.gz")))
        other, here = Path(tmp) / "other", Path(tmp) / "here"
        codes = [peelsort(src, ["sort", "--run-output-dir", str(out),
                                "--data-files", files, *args.sort_flags])
                 for src, out in ((args.other_src.resolve(), other), (HERE, here))]
        rows = [("exit code", codes[0] == codes[1])]
        for name in sorted(output_files(other) | output_files(here)):
            a, b = other / name, here / name
            rows.append((name, a.is_file() and b.is_file()
                         and a.read_bytes() == b.read_bytes()))
    for name, same in rows:
        print("same" if same else "differs", name)
    return 0 if all(same for _, same in rows) else 1


if __name__ == "__main__":
    sys.exit(main_compare())
