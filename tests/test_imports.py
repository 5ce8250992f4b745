"""What a sort loads: a default ``sort`` needs numpy only, and scipy is
imported by the functions that call it.

Each check runs in a fresh process, since this test session has scipy
loaded already (``conftest.py`` imports it).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# run peelsort.cli.main on the arguments, then print the scipy modules loaded
MAIN_THEN_LIST_SCIPY = """
import sys
import peelsort.cli
rc = peelsort.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(rc, sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def run(*args) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", MAIN_THEN_LIST_SCIPY, *args], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return proc.stdout.splitlines()[-1]


def test_importing_the_cli_loads_no_scipy():
    assert run() == "0 []"


def test_default_sort_loads_no_scipy(tmp_path):
    sim, out = tmp_path / "sim", tmp_path / "out"
    # simulate filters its noise with scipy, so it runs in a process of its own
    assert run("simulate", "--out", str(sim), "--seed", "42").startswith("0 ['scipy")
    files = ",".join(str(sim / f"channel_{i}.f64.gz") for i in range(4))
    assert run("sort", "--run-output-dir", str(out), "--data-files", files) == "0 []"
    assert (out / "spikes.csv").is_file()
