"""The functions of padicslopes that no shipped run calls, pinned with their reasons.

A fresh interpreter runs each subcommand once under sys.setprofile, verify-* on the
four shipped configs at --jobs 1 and on one of them again at --jobs 2; the profile sees
the calls of that interpreter only, not those of its forked worker. It must be fresh:
lru caches and kernels compiled by earlier tests would hide calls. The configs run whole
(under a second on a 2-core x86_64 host), so an entry below means no shipped run calls
it, not that a short run missed it.
Every function defined in the package's source that never ran must be in
ONLY_TESTS_REACH, and every entry there must never run. So a new function that only
tests reach fails here, and so does an entry that starts to run: take it off the list.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

VIOLATION_ONLY = "forms psi, which only a VIOLATION report reads; no shipped run has one"
BENCHMARK_ONLY = "read by perfbench/layers.py"
PICKLE_ONLY = "pickling, which only a forked worker does to its trials: the census sees none"

ONLY_TESTS_REACH = {
    "family:operator_rows": VIOLATION_ONLY + ", and gen_psi_polynomial (below)",
    "family:ConjugatedDiagonal.apply": VIOLATION_ONLY + ": a PLANTED trial reads a off E",
    "family:PolynomialOperator.apply": VIOLATION_ONLY + ": a POLYNOMIAL_PSI trial reads a as "
                                       "q(lam)",
    "family:gen_psi_polynomial": BENCHMARK_ONLY + ", which times it as a layer",
    "lattice:IntMatrix.__sub__": BENCHMARK_ONLY + ": the rank sweep's xi - u I",
    "lattice:IntMatrix.identity": BENCHMARK_ONLY + ": the rank sweep's xi - u I; and the "
                                  "unit vectors of operator_rows",
    "lattice:IntMatrix.scale": BENCHMARK_ONLY + ": the rank sweep's xi - u I",
    "lattice:IntMatrix.__repr__": "for reading a matrix in a failing assertion",
    "lattice:SmithDecomposition.u_inverse": BENCHMARK_ONLY + " for the Smith form's bits",
    "lattice:SmithDecomposition.v_inverse": BENCHMARK_ONLY + " for the Smith form's bits",
    "newton:SlopeSegment.__reduce__": PICKLE_ONLY,
    "newton:commuting_eigenvalue": BENCHMARK_ONLY + ", which times it as a layer; and the "
                                   "tests' oracle of a trial's a on its eigenvector",
    "newton:_berkowitz_loop": "char_poly above lattice.KERNEL_MAX_RANK; the shipped ranks "
                              "are at most 8, and polygon --input takes larger matrices",
    "padics:PadicInfinity.__reduce__": PICKLE_ONLY,
    "padics:PadicInfinity.__repr__": "for reading INFINITY in a traceback or a test",
    "rng:SplitMix64.next_u64": "one raw word; the package draws through randint and "
                               "randints, tests read the stream with it",
    "rng:SplitMix64.unit": BENCHMARK_ONLY + ": the rank sweep's xi - u I; PLANTED draws "
                           "its r units with one units call",
    "rng:SplitMix64.choice": "random_unimodular's sign at r = 1, a rank no shipped config "
                             "has; PLANTED draws its valuations with one randints call",
}

# argv: the configs directory and a directory for the outputs. Prints the exit codes of
# cli.main, then the functions the package defines that never ran, as module:qualname
CENSUS_SCRIPT = r'''
import json, sys
from pathlib import Path

seen = set()


def profile(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)


sys.setprofile(profile)
from padicslopes import cli

configs, out = Path(sys.argv[1]), Path(sys.argv[2])
matrix = out / "matrix.json"
matrix.write_text(json.dumps({"rows": [[15, 6, 0], [-9, 2, -1], [30, 1, 1]]}))
runs = [
    ["polygon", "--prime", "3", "--input", str(matrix)],
    ["snf", "--input", str(matrix)],
    ["profile", "--prime", "3", "--level", "3", "--input", str(matrix)],
    ["bounds", "--d", "2", "--h", "1", "--n", "6", "--alpha", "0"],
    ["compare-c", "--d-list", "1,2", "--h-list", "1,2", "--n-max", "6"],
] + [[f"verify-{mode}", "--jobs", "1", "--config", str(configs / name)] for mode, name in (
    ("prop", "prop_default.json"), ("prop", "prop_planted.json"), ("prop", "prop_sharp.json"),
    ("constancy", "constancy_default.json"))] + [
    ["verify-constancy", "--jobs", "2", "--config", str(configs / "constancy_default.json")]]
codes = [cli.main(argv + ["--output", str(out / "report.json")]) for argv in runs]
sys.setprofile(None)

CO_OPTIMIZED = 0x1  # set on function code, not on module or class bodies


def functions(code, module, prefix=""):
    """((filename, first line, name), module:qualname) of each function in code, at any
    depth; lambdas and comprehensions are skipped."""
    for const in code.co_consts:
        if not hasattr(const, "co_consts") or const.co_name.startswith("<"):
            continue
        name = prefix + const.co_name
        if const.co_flags & CO_OPTIMIZED:
            yield (const.co_filename, const.co_firstlineno, const.co_name), f"{module}:{name}"
            yield from functions(const, module, name + ".<locals>.")
        else:
            yield from functions(const, module, name + ".")


ran = {(c.co_filename, c.co_firstlineno, c.co_name) for c in seen}
never = set()
for path in sorted(Path(cli.__file__).parent.glob("*.py")):
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    never.update(name for key, name in functions(code, path.stem) if key not in ran)
print(json.dumps({"codes": codes, "never": sorted(never)}))
'''


def test_the_functions_no_shipped_run_calls_are_the_pinned_ones(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", CENSUS_SCRIPT, str(ROOT / "configs"), str(tmp_path)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    census = json.loads(done.stdout)
    assert census["codes"] == [0] * 10
    never = set(census["never"])
    assert sorted(never - set(ONLY_TESTS_REACH)) == [], "new functions only tests reach"
    assert sorted(set(ONLY_TESTS_REACH) - never) == [], "allowlisted functions that now run"
