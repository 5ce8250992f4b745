"""What a sort loads: a default ``sort`` needs numpy only, and scipy is
imported by the functions that call it.  What the package exports: every
name in ``peelsort.__all__``.  And what each module imports: every name it
uses.

Each check runs in a fresh process, since this test session has scipy
loaded already (``conftest.py`` imports it).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import peelsort

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


def test_every_exported_name_resolves():
    missing = [name for name in peelsort.__all__ if not hasattr(peelsort, name)]
    assert missing == []
    assert len(set(peelsort.__all__)) == len(peelsort.__all__)
    assert {"JitterFit", "estimate_jitter", "aligned_center"} <= set(peelsort.__all__)


def unused_imports(path: Path) -> list[str]:
    """``module:line name`` of each name ``path`` imports and never uses;
    an import on a line marked ``# noqa: F401`` is kept on purpose."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_every_imported_name_is_used():
    # __init__.py imports to re-export
    modules = sorted(set((SRC / "peelsort").glob("*.py")) - {SRC / "peelsort" / "__init__.py"})
    assert len(modules) > 10
    assert [name for path in modules for name in unused_imports(path)] == []
