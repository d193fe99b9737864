"""The library under ``src/repro`` imports no test-only dependency."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_IMPORT_ALL = """
import importlib, pkgutil, sys
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print(len(names), "duckdb" in sys.modules, any(m.partition(".")[0] == "tests" for m in sys.modules))
"""


def test_no_repro_module_imports_duckdb():
    """The oracles live under ``tests/``; importing every ``repro`` module loads none of them.

    That covers DuckDB and the test package's own oracles: the Monte-Carlo
    walk simulator and the loop forms of the kernels.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    n_modules, duckdb_loaded, tests_loaded = r.stdout.split()
    assert int(n_modules) >= 20 and duckdb_loaded == "False" and tests_loaded == "False"
