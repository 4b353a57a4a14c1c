"""Start-up stays light.

Every verify run pays for importing the package in a fresh interpreter, and at
small trial counts that is most of its wall time. dataclasses alone pulls in
inspect, ast and dis, and its decorator generates methods on every import; the
records are named tuples and slotted classes instead, so none of it loads. A run
that forks no worker loads neither pickle nor signal either.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = {"dataclasses", "typing", "inspect"}


def imported_names(path: Path):
    """The absolute module names that the source at path imports, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_of_the_package_imports_a_heavy_module():
    sources = sorted((SRC / "padicslopes").glob("*.py"))
    assert len(sources) >= 8
    found = {(path.name, name) for path in sources for name in imported_names(path)
             if name.split(".")[0] in HEAVY}
    assert found == set()


def test_importing_the_cli_loads_no_dataclasses():
    # -S: no site module, whose .pth files may import what the package does not
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code = "import sys, padicslopes.family, padicslopes.cli; print('dataclasses' in sys.modules)"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_a_jobs_1_run_loads_neither_pickle_nor_signal():
    # one share runs in this process: only a fork needs pickle and signal (about 15 ms)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    config = SRC.parent / "configs" / "prop_default.json"
    code = ("import os, sys\n"
            "from padicslopes import cli\n"
            "code = cli.main(['verify-prop', '--config', sys.argv[1], '--jobs', '1',"
            " '--output', os.devnull])\n"
            "print(code, 'pickle' in sys.modules, 'signal' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(config)], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 False False\n"
