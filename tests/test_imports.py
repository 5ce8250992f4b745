"""What a sort loads: a default ``sort`` needs numpy only, and scipy is
imported by the functions that call it.  What the package exports: every
name in ``peelsort.__all__``.  And what each module imports: every name it
uses, or keeps unused for the benchmark's tracer to wrap.

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
TRACING = SRC.parent / "perfbench" / "tracing.py"

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


def imported_names(path: Path):
    """``(line, name, used, kept)`` for each name ``path`` imports; ``kept``
    marks an import on a line marked ``# noqa: F401``, kept on purpose."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        kept = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            yield node.lineno, name, name in used, kept


def unused_imports(path: Path) -> list[str]:
    """``module:line name`` of each name ``path`` imports, never uses and
    does not keep on purpose."""
    return [f"{path.name}:{line} {name}"
            for line, name, used, kept in imported_names(path) if not (used or kept)]


def modules() -> list[Path]:
    # __init__.py imports to re-export
    found = sorted(set((SRC / "peelsort").glob("*.py")) - {SRC / "peelsort" / "__init__.py"})
    assert len(found) > 10
    return found


def test_every_imported_name_is_used():
    assert [name for path in modules() for name in unused_imports(path)] == []


def traced_names() -> set[str]:
    """``module.py name`` of each name the benchmark's tracer wraps: the
    keys of CLI_LAYERS in peelsort.cli, of PEEL_LAYERS and PEEL_COUNTED in
    peelsort.peel.  The tracer's source is read, not imported."""
    tables = {node.targets[0].id: [key.value for key in node.value.keys]
              for node in ast.parse(TRACING.read_text()).body
              if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)}
    return ({f"cli.py {name}" for name in tables["CLI_LAYERS"]}
            | {f"peel.py {name}" for table in ("PEEL_LAYERS", "PEEL_COUNTED")
               for name in tables[table]})


def test_imports_kept_unused_are_ones_the_tracer_wraps():
    traced = traced_names()
    assert {"cli.py cmd_model", "peel.py estimate_jitter"} <= traced
    kept = {f"{path.name} {name}" for path in modules()
            for _, name, used, is_kept in imported_names(path) if is_kept and not used}
    assert kept - traced == set()
