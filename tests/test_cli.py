import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import padicslopes.cli as cli
import padicslopes.family as family
from padicslopes.bounds import hilbert_profile
from padicslopes.family import config_from_document, prepare_plan, run_experiment
from padicslopes.lattice import InputError, IntMatrix, matrix_from_document
from padicslopes.newton import (
    EigenvectorError, char_poly, hensel_slope_root, newton_polygon, polygon_to_document,
    slope_to_string,
)

from oracles import c_at_level, hypotheses_pass, resolve_kappa_by_search
from test_family import summed_columns


def invoke(*args):
    """Run the CLI in a subprocess; returns (rc, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "padicslopes.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run_main(argv):
    """In-process invocation; argparse errors surface as SystemExit(2)."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


# --- polygon ------------------------------------------------------------------------

def test_polygon_identity(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", {"rows": [[1, 0], [0, 1]]})
    assert run_main(["polygon", "--prime", "2", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["polygon"]["segments"] == [{"slope": "0/1", "length": 2}]


def test_polygon_derived_example(tmp_path, capsys):
    # companion of X^2 - 4X - 32: roots 8 and -4, valuations 3 and 2 at p=2
    path = write_json(tmp_path / "m.json", {"rows": [[0, 1], [32, 4]]})
    assert run_main(["polygon", "--prime", "2", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["char_poly"] == [1, -4, -32]
    assert doc["polygon"]["segments"] == [
        {"slope": "2/1", "length": 1},
        {"slope": "3/1", "length": 1},
    ]


def test_polygon_zero_matrix(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", {"rows": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]})
    assert run_main(["polygon", "--prime", "5", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["polygon"]["segments"] == [{"slope": "inf", "length": 3}]


def test_polygon_round_trip(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", {"rows": [[0, 1], [32, 4]]})
    assert run_main(["polygon", "--prime", "2", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    A = matrix_from_document({"rows": [[0, 1], [32, 4]]})
    in_memory = newton_polygon(char_poly(A), 2)
    assert polygon_to_document(in_memory) == doc["polygon"]


def test_polygon_errors(tmp_path):
    path = write_json(tmp_path / "m.json", {"rows": [[1, 0], [0, 1]]})
    rc, _, _ = invoke("polygon", "--prime", "6", "--input", path)
    assert rc == 2
    bad = write_json(tmp_path / "bad.json", {"rows": [[1, 2, 3]]})
    rc, _, err = invoke("polygon", "--prime", "2", "--input", bad)
    assert rc == 2 and "error" in err
    missing = str(tmp_path / "nope.json")
    rc, _, _ = invoke("polygon", "--prime", "2", "--input", missing)
    assert rc == 2


def test_polygon_output_beyond_the_int_to_str_limit(tmp_path, capsys):
    # 1500-digit entries give a char_poly coefficient of about 4500 digits, past
    # CPython's default limit of 4300 for int-to-str conversion
    rng = random.Random(1500)
    rows = [[str(rng.randrange(10**1499, 10**1500)) for _ in range(3)] for _ in range(3)]
    path = write_json(tmp_path / "big.json", {"rows": rows})
    rc, out, err = invoke("polygon", "--prime", "3", "--input", path)
    assert (rc, err) == (0, "")
    emitted = json.loads(out)["char_poly"]
    expected = char_poly(matrix_from_document({"rows": rows})).coeffs
    assert isinstance(emitted[-1], str) and len(emitted[-1]) > 4300
    assert decimal(emitted) == [str(Decimal(c)) for c in expected]

    # the emitted strings read back through --input unchanged
    back = write_json(tmp_path / "back.json", {"rows": [emitted[:2], emitted[2:]]})
    assert matrix_from_document(json.loads((tmp_path / "back.json").read_text())).rows == \
        IntMatrix([expected[:2], expected[2:]]).rows
    assert run_main(["polygon", "--prime", "3", "--input", back]) == 0
    again = json.loads(capsys.readouterr().out)["char_poly"]
    A = IntMatrix([expected[:2], expected[2:]])
    assert decimal(again) == [str(Decimal(c)) for c in char_poly(A).coeffs]


def decimal(values):
    return [str(c) if isinstance(c, int) else c for c in values]


def test_integer_literal_beyond_the_int_to_str_limit_is_an_input_error(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"rows": [[' + "7" * 5000 + "]]}")
    rc, _, err = invoke("polygon", "--prime", "3", "--input", str(path))
    assert rc == 2 and err.startswith("error:")
    config = json.dumps(verify_config(trials=1, master_seed=0))
    path.write_text(config.replace('"master_seed": 0', '"master_seed": ' + "7" * 5000))
    rc, _, err = invoke("verify-prop", "--config", str(path))
    assert rc == 2 and err.startswith("error:")


# --- snf / profile --------------------------------------------------------------------

def test_snf_subcommand(tmp_path, capsys):
    path = write_json(tmp_path / "m.json", {"rows": [[2, 0], [0, 3]]})
    assert run_main(["snf", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["divisors"] == [1, 6]
    U = IntMatrix(doc["U"])
    D = IntMatrix(doc["D"])
    V = IntMatrix(doc["V"])
    assert (U * D * V).rows == ((2, 0), (0, 3))


def test_profile_subcommand(tmp_path, capsys):
    path = write_json(tmp_path / "k.json", {"rows": [[5, 1], [0, 5]]})
    assert run_main(["profile", "--prime", "5", "--level", "2", "--input", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"n": 2, "a": [2, 0], "sigma": [[2, 1], [0, 1]]}
    singular = write_json(tmp_path / "s.json", {"rows": [[0, 0], [0, 0]]})
    rc, _, _ = invoke("profile", "--prime", "5", "--level", "2", "--input", singular)
    assert rc == 2


# --- bounds / compare-c ------------------------------------------------------------------

def test_bounds_subcommand(capsys):
    assert run_main(["bounds", "--d", "1", "--h", "2", "--n", "3", "--alpha", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["c_exact"]["value"] == "2/3"
    assert doc["M"] == 2
    assert doc["profile"]["sigma"] == [[3, 2], [2, 2], [1, 2]]
    assert doc["hypotheses"]["passed"] is False

    assert run_main(["bounds", "--d", "1", "--h", "1", "--n", "100", "--alpha", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kappa_closed"]["value"] == 13
    assert doc["n_threshold"] == 99
    assert doc["hypotheses"]["passed"] is True

    assert run_main(["bounds", "--d", "2", "--h", "1", "--n", "2", "--alpha", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["profile"]["sigma"] == [[2, 1], [1, 3]]
    assert doc["T_table"][0]["ratio"] == "1/1"


def test_bounds_says_whether_the_exact_check_backs_the_closed_kappa(capsys):
    # (d, h, n, alpha, --kappa): the kappa_closed block the report gives
    cases = [
        ((1, 4, 23, 1, "auto"), {"value": 1, "exact_kappa": None, "backed": False}),
        ((1, 4, 32, 1, "auto"), {"value": 2, "exact_kappa": 1, "backed": False}),
        ((1, 1, 100, 0, "auto"), {"value": 13, "exact_kappa": 100, "backed": True}),
        # an explicit --kappa does not replace the exact one
        ((1, 1, 100, 0, "3"), {"value": 13, "exact_kappa": 100, "backed": True}),
        ((2, 1, 80, 1, "40"), {"value": 0, "exact_kappa": 4, "backed": None}),
    ]
    for (d, h, n, alpha, kappa), expected in cases:
        assert run_main(["bounds", "--d", str(d), "--h", str(h), "--n", str(n),
                         "--alpha", str(alpha), "--kappa", kappa]) == 0
        block = json.loads(capsys.readouterr().out)["kappa_closed"]
        assert {k: block[k] for k in expected} == expected
        assert block["exact_kappa"] == resolve_kappa_by_search(hilbert_profile(d, h, n), alpha)


def test_bounds_bad_arguments():
    rc, _, _ = invoke("bounds", "--d", "0", "--h", "1", "--n", "3", "--alpha", "0")
    assert rc == 2
    rc, _, _ = invoke("bounds", "--d", "1", "--h", "1", "--n", "3", "--alpha", "-1")
    assert rc == 2


def test_compare_c(capsys):
    assert run_main(["compare-c", "--d-list", "1", "--h-list", "1,2", "--n-max", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 6
    flagged = next(r for r in doc["rows"] if (r["d"], r["h"], r["n"]) == (1, 2, 3))
    assert flagged["c_exact"] == "2/3"
    assert abs(flagged["closed_form"] - 1.09) < 0.01
    assert flagged["closed_exceeds_exact"] is True
    clear = next(r for r in doc["rows"] if (r["d"], r["h"], r["n"]) == (1, 1, 1))
    assert clear["c_exact"] == "1/1"
    assert clear["closed_exceeds_exact"] is False


def assert_one_error_line(argv, capsys):
    assert run_main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1, err


# each once raised OverflowError (exit 3, with a traceback) building the profile list
def test_bounds_rank_beyond_sys_maxsize_is_an_input_error(capsys):
    assert_one_error_line(["bounds", "--d", "100", "--h", "1", "--n", "2", "--alpha", "0"], capsys)


# 3 alpha past the float range once raised OverflowError in kappa_closed (exit 3)
@pytest.mark.parametrize("alpha", [10**400, 10**308])
def test_bounds_alpha_beyond_float_range_is_an_input_error(alpha, capsys):
    assert_one_error_line(["bounds", "--d", "1", "--h", "1", "--n", "4", "--alpha", str(alpha)],
                          capsys)


def test_bounds_alpha_within_float_range_still_runs(capsys):
    assert run_main(["bounds", "--d", "1", "--h", "1", "--n", "4", "--alpha", str(10**18)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hypotheses"]["passed"] is False and doc["n_threshold"] is None


def test_compare_c_rank_beyond_sys_maxsize_is_an_input_error(capsys):
    assert_one_error_line(["compare-c", "--d-list", "100", "--h-list", "1", "--n-max", "2"], capsys)


# exit code and SHA-256 prefix of stdout + stderr. The profile corpus covers every branch
# of quotient_profile: p-power divisors, the same behind unimodular transforms and a sign,
# a divisor that is not a p-power, a singular K and a divisor past the level.
PINNED_OUTPUTS = [
    (["bounds", "--d", "2", "--h", "1", "--n", "80", "--alpha", "1"], None, 0, "a140c86b3cdd1b69"),
    (["bounds", "--d", "2", "--h", "1", "--n", "80", "--alpha", "3"], None, 0, "b321d800f96650de"),
    (["bounds", "--d", "2", "--h", "1", "--n", "120", "--alpha", "1"], None, 0, "4784372fb05c5055"),
    (["bounds", "--d", "1", "--h", "1", "--n", "100", "--alpha", "0"], None, 0, "6b5b961499bc580a"),
    (["bounds", "--d", "1", "--h", "1", "--n", "100", "--alpha", "3"], None, 0, "30f438f76f7bcb3e"),
    # explicit kappa: passes, fails on c, out of range; and auto with nothing resolved
    (["bounds", "--d", "2", "--h", "1", "--n", "80", "--alpha", "1", "--kappa", "3"], None, 0,
     "8879047680cf592c"),
    (["bounds", "--d", "2", "--h", "1", "--n", "80", "--alpha", "1", "--kappa", "40"], None, 0,
     "4837ddcdf1c9a087"),
    (["bounds", "--d", "1", "--h", "1", "--n", "100", "--alpha", "3", "--kappa", "99"], None, 0,
     "fac44581cdb1243d"),
    (["bounds", "--d", "1", "--h", "1", "--n", "12", "--alpha", "5"], None, 0, "b90dc9d20a857f62"),
    (["compare-c", "--d-list", "1,2", "--h-list", "1,2,4", "--n-max", "32"], None, 0,
     "78fac5b051679c8b"),
    (["profile", "--prime", "3", "--level", "3"], [[9, 0, 0], [0, 3, 0], [0, 0, 1]], 0,
     "62def37eabfe9139"),
    (["profile", "--prime", "3", "--level", "3"], [[15, 6, 0], [-9, 2, -1], [30, 1, 1]], 0,
     "5a1aada3752d154d"),
    (["profile", "--prime", "5", "--level", "3"], [[-25, 5], [0, 1]], 0, "e67bd08b86e909e4"),
    (["profile", "--prime", "2", "--level", "3"], [[6, 0], [0, 1]], 2, "90fe0ea84eb57dcf"),
    (["profile", "--prime", "2", "--level", "3"], [[-12, 4], [0, 1]], 2, "0a904e6be771c30d"),
    (["profile", "--prime", "5", "--level", "2"], [[0, 0], [0, 0]], 2, "078189ee1f6c623a"),
    (["profile", "--prime", "5", "--level", "2"], [[1, 2], [2, 4]], 2, "078189ee1f6c623a"),
    (["profile", "--prime", "2", "--level", "2"], [[8, 0], [0, 1]], 2, "295037496fffc34c"),
]


@pytest.mark.parametrize("argv,rows,code,digest", PINNED_OUTPUTS,
                         ids=[" ".join(a) + (f" {r}" if r else "") for a, r, _, _ in PINNED_OUTPUTS])
def test_pinned_outputs(argv, rows, code, digest, tmp_path, capsys):
    if rows is not None:
        argv = argv + ["--input", write_json(tmp_path / "k.json", {"rows": rows})]
    assert run_main(argv) == code
    captured = capsys.readouterr()
    text = captured.out + captured.err
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == digest


@pytest.mark.parametrize("argv", [
    ["bounds", "--d", "27", "--h", "1", "--n", "2", "--alpha", "0"],
    ["compare-c", "--d-list", "27", "--h-list", "1", "--n-max", "2"],
])
def test_profile_beyond_memory_is_an_input_error(argv):
    # rank 2^27: the profile tuple alone needs about 1 GB, past the child's address space
    resource = pytest.importorskip("resource")
    limit = 256 * 10**6

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run([sys.executable, "-m", "padicslopes.cli", *argv], capture_output=True,
                          text=True, preexec_fn=cap_address_space)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv,layer", [
    (["snf"], "smith_normal_form"),
    (["profile", "--prime", "5", "--level", "3"], "quotient_profile"),
    (["polygon", "--prime", "5"], "char_poly"),
])
def test_matrix_beyond_memory_is_an_input_error(argv, layer, tmp_path, capsys, monkeypatch):
    # a matrix file too large to reduce once ended in exit 3 with a MemoryError traceback
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, layer, out_of_memory)
    path = write_json(tmp_path / "m.json", {"rows": [[5, 1], [0, 5]]})
    rc = run_main([*argv, "--input", path])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_bounds_hypotheses_equal_the_oracle(capsys):
    for d, h, n in ((1, 1, 12), (1, 2, 16), (2, 1, 9), (3, 1, 5)):
        for alpha in range(n // 2 + 1):
            for kappa in ("auto", *range(1, n + 2)):
                assert run_main(["bounds", "--d", str(d), "--h", str(h), "--n", str(n),
                                 "--alpha", str(alpha), "--kappa", str(kappa)]) == 0
                hyp = json.loads(capsys.readouterr().out)["hypotheses"]
                profile = hilbert_profile(d, h, n)
                if kappa == "auto":
                    assert hyp["auto_resolved"] == resolve_kappa_by_search(profile, alpha)
                k = hyp["kappa"]
                assert hyp["passed"] == hypotheses_pass(profile, alpha, k)
                assert hyp["kappa_in_range"] == (k <= n - 2 * alpha)
                levels = range(n - 2 * alpha - k + 1, n + 1) if hyp["kappa_in_range"] else ()
                assert [(ch["nprime"], ch["c"]) for ch in hyp["checks"]] == [
                    (m, slope_to_string(c_at_level(profile, m))) for m in levels]


def test_compare_c_bad_lists():
    rc, _, _ = invoke("compare-c", "--d-list", "", "--h-list", "1", "--n-max", "3")
    assert rc == 2
    rc, _, _ = invoke("compare-c", "--d-list", "1,x", "--h-list", "1", "--n-max", "3")
    assert rc == 2


# --- verify ---------------------------------------------------------------------------

def verify_config(**overrides):
    doc = {
        "p": 3,
        "profile": {"kind": "hilbert", "d": 1, "h": 1, "n": 12, "max_rank": 8},
        "alpha": 1,
        "kappa": "auto",
        "trials": 8,
        "master_seed": 42,
        "generator": "POLYNOMIAL_PSI",
    }
    doc.update(overrides)
    return doc


@pytest.mark.parametrize("mode", ["prop", "constancy"])
def test_verify_profile_beyond_memory_is_an_input_error(mode, tmp_path, capsys, monkeypatch):
    # d 27, h 1, n 2 with no max_rank: rank 2^27, which an 800 MB address space cannot hold
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(family, "hilbert_profile", out_of_memory)
    doc = {"p": 3, "profile": {"kind": "hilbert", "d": 27, "h": 1, "n": 2}, "alpha": 0,
           "trials": 1, "master_seed": 1, "nprime": 1}
    rc = run_main([f"verify-{mode}", "--config", write_json(tmp_path / "cfg.json", doc)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_verify_prop_exit_zero(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", verify_config())
    rc, out, _ = invoke("verify-prop", "--config", cfg)
    assert rc == 0
    doc = json.loads(out)
    assert doc["summary"]["violations"] == 0
    assert doc["summary"]["accepted"] >= 1


def test_verify_trials_zero_is_config_error(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", verify_config(trials=0))
    rc, _, err = invoke("verify-prop", "--config", cfg)
    assert rc == 2 and "trials" in err


def test_verify_unknown_field_is_config_error(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", verify_config(spurious=1))
    rc, _, _ = invoke("verify-prop", "--config", cfg)
    assert rc == 2


def test_verify_inexact_profile_exponents_are_config_errors(tmp_path):
    # once ran silently as a = (16, 15, 1)
    profile = {"kind": "explicit", "n": 16, "a": [16.7, "15", True]}
    cfg = write_json(tmp_path / "cfg.json", verify_config(profile=profile))
    rc, out, err = invoke("verify-prop", "--config", cfg)
    assert rc == 2 and out == "" and "error" in err and "Traceback" not in err


PROP_DEFAULT = json.loads(
    (Path(__file__).resolve().parent.parent / "configs" / "prop_default.json").read_text()
)
# each once ended in exit 3 with a traceback
CONFIGS_BEYOND_THE_LIMITS = (
    {"p": 3317044064679887385961987},  # is_prime refuses p at or above 3317044064679887385961981
    {"entry_bound": 50},  # every draw from [-3^50, 3^50] raised "range wider than 64 bits"
    {"entry_bound": 50, "generator": "PLANTED"},
    {"profile": {"kind": "hilbert", "d": 100, "h": 1, "n": 2}},  # rank 2^100: OverflowError
    {"trials": 2**63},  # [None] * trials: OverflowError
    {"precision_guard": 10**12},  # a prop trial mod p^N, N about 10^12: ran until killed
    # resolve_kappa scanned all 10^9 levels, and a trial would work mod p^N, N about 2 * 10^9
    {"profile": {"kind": "explicit", "n": 10**9, "a": [10**9, 10**9]}, "alpha": 0, "trials": 1,
     "master_seed": 5},
)
# nested past the recursion limit: json.load once raised RecursionError, exit 3 with a traceback
DEEP_DOCUMENT = "[" * 200000 + "]" * 200000


@pytest.mark.parametrize("mode", ["prop", "constancy"])
@pytest.mark.parametrize("overrides", CONFIGS_BEYOND_THE_LIMITS,
                         ids=["p-past-the-primality-bound", "entry-bound-50",
                              "entry-bound-50-planted", "rank-2^100", "trials-2^63",
                              "precision-guard-10^12", "level-10^9"])
def test_verify_config_beyond_the_limits_is_an_input_error(tmp_path, capsys, mode, overrides):
    cfg = write_json(tmp_path / "cfg.json", {**PROP_DEFAULT, "nprime": 1, **overrides})
    assert_one_error_line([f"verify-{mode}", "--config", cfg], capsys)


def test_alpha_past_the_level_is_an_input_error(tmp_path, capsys):
    # a PLANTED trial once computed 3 ** 10**12 for this config
    doc = {**PROP_DEFAULT, "nprime": 1, "generator": "PLANTED", "alpha": 10**12}
    assert_one_error_line(["verify-constancy", "--config", write_json(tmp_path / "cfg.json", doc)],
                          capsys)
    n = PROP_DEFAULT["profile"]["n"]
    assert config_from_document({**PROP_DEFAULT, "alpha": n}).alpha == n
    with pytest.raises(ValueError, match="alpha"):
        config_from_document({**PROP_DEFAULT, "alpha": n + 1})


def test_hilbert_profile_forms_only_max_rank_exponents(tmp_path):
    # rank 2^40: building the whole list once raised MemoryError, exit 3
    profile = {"kind": "hilbert", "d": 40, "h": 1, "n": 2, "max_rank": 4}
    assert config_from_document({**PROP_DEFAULT, "profile": profile}).profile.a == (2, 1, 1, 1)
    cfg = write_json(tmp_path / "cfg.json", {**PROP_DEFAULT, "profile": profile, "trials": 2})
    rc, out, err = invoke("verify-prop", "--config", cfg)
    assert rc == 0 and "Traceback" not in err, err
    assert json.loads(out)["config"]["profile"] == profile


def test_max_rank_past_sys_maxsize_is_an_input_error(tmp_path, capsys):
    # islice refuses a stop past sys.maxsize with a ValueError of its own
    profile = {"kind": "hilbert", "d": 1, "h": 1, "n": 12, "max_rank": sys.maxsize + 1}
    cfg = write_json(tmp_path / "cfg.json", {**PROP_DEFAULT, "profile": profile})
    assert_one_error_line(["verify-prop", "--config", cfg], capsys)
    profile["max_rank"] = sys.maxsize
    assert config_from_document({**PROP_DEFAULT, "profile": profile}).profile.r == 12


@pytest.mark.parametrize("argv", [
    ["verify-prop", "--config"],
    ["verify-constancy", "--config"],
    ["polygon", "--prime", "3", "--input"],
    ["snf", "--input"],
    ["profile", "--prime", "3", "--level", "2", "--input"],
], ids=lambda argv: argv[0])
def test_deeply_nested_file_is_an_input_error(argv, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_DOCUMENT)
    rc, out, err = invoke(*argv, str(path))
    assert (rc, out) == (2, "") and err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_entry_bound_limit_is_the_64_bit_draw_range():
    for p, widest in ((2, 62), (3, 39), (2**61 - 1, 1)):
        for generator in ("POLYNOMIAL_PSI", "PLANTED"):
            doc = {**PROP_DEFAULT, "p": p, "generator": generator, "trials": 2,
                   "max_attempts": 4, "entry_bound": widest}
            run_experiment(config_from_document(doc))  # draws without a range error
            with pytest.raises(ValueError, match="entry_bound"):
                config_from_document({**doc, "entry_bound": widest + 1})


def test_precision_guard_limit_is_p_to_the_guard_below_2_to_the_16384(tmp_path):
    # the largest guard at each p is read, one more is refused; at p = 2 the widest guard
    # gives N = 16383 + n + 2 alpha + kappa, and two PLANTED trials there still run
    for p, widest in ((2, 16383), (3, 10337), (2**61 - 1, 268), (3317044064679887385961813, 201)):
        assert p ** widest < 2**16384 <= p ** (widest + 1)
        doc = {**PROP_DEFAULT, "p": p, "entry_bound": 0, "precision_guard": widest}
        assert config_from_document(doc).precision_guard == widest
        with pytest.raises(InputError, match="precision_guard"):
            config_from_document({**doc, "precision_guard": widest + 1})
    doc = {"p": 2, "profile": {"kind": "explicit", "n": 16, "a": [16] * 3}, "alpha": 1,
           "trials": 2, "master_seed": 5, "generator": "PLANTED", "precision_guard": 16383}
    rc, out, err = invoke("verify-prop", "--config", write_json(tmp_path / "cfg.json", doc))
    assert (rc, err) == (0, "")
    report = json.loads(out)
    assert report["resolved"]["precision"] == 16383 + 16 + 2 + report["resolved"]["kappa"]
    assert [t["status"] for t in report["trials"]] == ["ACCEPTED"] * 2


def test_level_limit_is_p_to_the_n_below_2_to_the_16384(tmp_path):
    # the largest level at each p is read, one more is refused; at p = 2 the widest level
    # gives N = 2n + guard, and two PLANTED trials there still run
    for p, widest in ((2, 16383), (3, 10337), (2**61 - 1, 268)):
        doc = {"p": p, "profile": {"kind": "explicit", "n": widest, "a": [widest] * 2},
               "alpha": 0, "trials": 2, "master_seed": 5, "generator": "PLANTED", "entry_bound": 0}
        assert config_from_document(doc).profile.n == widest
        with pytest.raises(InputError, match="profile.n"):
            config_from_document({**doc, "profile": {**doc["profile"], "n": widest + 1}})
    doc["p"], doc["profile"] = 2, {"kind": "explicit", "n": 16383, "a": [16383] * 2}
    rc, out, err = invoke("verify-prop", "--config", write_json(tmp_path / "cfg.json", doc))
    assert (rc, err) == (0, "")
    report = json.loads(out)
    assert report["resolved"]["precision"] == 2 * 16383 + 8
    assert [t["status"] for t in report["trials"]] == ["ACCEPTED"] * 2


def test_verify_missing_config_file(tmp_path):
    rc, _, err = invoke("verify-prop", "--config", str(tmp_path / "absent.json"))
    assert rc == 2 and "error" in err


def test_verify_corrupted_kappa_warns_and_exits_zero(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", verify_config(kappa=9, trials=5))
    rc, out, err = invoke("verify-prop", "--config", cfg)
    assert rc == 0
    doc = json.loads(out)
    assert doc["summary"]["rejected"] == {"hypotheses": 5}
    assert "warning" in err


def test_verify_with_no_accepted_trial_prints_one_warning_line(tmp_path):
    # alpha 1 at n = 4 leaves no kappa whose hypotheses pass: every trial is REJECTED(hypotheses)
    cfg = write_json(tmp_path / "cfg.json", {
        "p": 2, "profile": {"kind": "explicit", "n": 4, "a": [4]}, "alpha": 1, "trials": 40,
        "master_seed": 19, "generator": "PLANTED"})
    rc, out, err = invoke("verify-prop", "--config", cfg)
    assert rc == 0
    assert json.loads(out)["summary"]["rejected"] == {"hypotheses": 40}
    assert err == "warning: 0 accepted trials (40 rejected)\n"


def test_verify_constancy(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        verify_config(
            profile={"kind": "hilbert", "d": 1, "h": 1, "n": 6},
            alpha=0,
            nprime=5,
            trials=10,
        ),
    )
    rc, out, _ = invoke("verify-constancy", "--config", cfg)
    assert rc == 0
    doc = json.loads(out)
    assert doc["summary"]["violations"] == 0
    assert doc["mode"] == "constancy"


def test_verify_constancy_needs_nprime(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", verify_config())
    rc, _, _ = invoke("verify-constancy", "--config", cfg)
    assert rc == 2


def test_verify_violation_exit_code(tmp_path, capsys, monkeypatch):
    # violations cannot arise from valid configs, so fake one to pin the exit code
    cfg_path = write_json(tmp_path / "cfg.json", verify_config(trials=2))
    real = cli.run_experiment

    def with_fake_violation(config, mode="prop", jobs=1):
        report = real(config, mode=mode, jobs=jobs)
        fake = report.trials[0].__class__(
            index=0, seed=0, status="VIOLATION", alpha=1, kappa=1
        )
        return report.__class__(mode=report.mode, plan=report.plan,
                                trials=(fake,) + report.trials[1:])

    monkeypatch.setattr(cli, "run_experiment", with_fake_violation)
    rc = run_main(["verify-prop", "--config", cfg_path])
    capsys.readouterr()
    assert rc == 1


def test_verify_report_integers_beyond_the_int_to_str_limit(tmp_path):
    # precision_guard 9100 gives cap about 9100, so a and a' mod 3^cap reach about 4340 digits
    doc = {"p": 3, "profile": {"kind": "explicit", "n": 16, "a": [16, 16, 16]}, "alpha": 1,
           "kappa": "auto", "trials": 3, "master_seed": 5, "generator": "PLANTED",
           "precision_guard": 9100}
    rc, out, err = invoke("verify-prop", "--config", write_json(tmp_path / "cfg.json", doc))
    assert (rc, err) == (0, "")
    emitted = json.loads(out)["trials"]
    assert [t["status"] for t in emitted] == ["ACCEPTED"] * 3
    assert any(isinstance(t["a"], str) for t in emitted)
    for t, expected in zip(emitted, run_experiment(config_from_document(doc)).trials):
        for key in ("lam", "lam_prime", "a", "a_prime"):
            value = t[key]
            assert (int(Decimal(value)) if isinstance(value, str) else value) == getattr(expected, key)


def broken_run(config, mode="prop", jobs=1):
    raise AssertionError("xi and psi do not commute")


def broken_eigenvector(A, lam, p, M):
    raise EigenvectorError("no kernel modulo p")


def moved_witness(shift):
    """eigenvector_mod with the xi' side's vector F moved to F + p^(cap - 1 + shift) e_j, for
    trials of verify_config(): cap = N - alpha - max(dv, dv'), with N the plan's precision
    and dv, dv' the Hensel roots' derivative valuations of the trial's two calls (xi's, then
    xi''s), and j the first column of A - lam I with a unit entry, so at shift 0 A F = lam F
    fails mod p^cap."""
    plan = prepare_plan(config_from_document(verify_config()), "prop")
    N, alpha = plan.precision, plan.config.alpha
    dvs, solve = [], family.eigenvector_mod

    def moved(A, lam, p, M):
        F = solve(A, lam, p, M)
        cp = char_poly(A)
        root = hensel_slope_root(cp, newton_polygon(cp, p), p, alpha, N)
        assert root.value == lam
        dvs.append(root.derivative_valuation)
        j = next((j for j, column in enumerate(zip(*A.shift(-lam).rows))
                  if any(x % p for x in column)), None)
        if len(dvs) % 2 or j is None:
            return F
        cap = N - alpha - max(dvs[-2:])
        return tuple(x + p ** (cap - 1 + shift) * (i == j) for i, x in enumerate(F))
    return moved


def test_internal_error_exits_three_with_its_traceback(tmp_path, capsys, monkeypatch):
    # an eigen step that raises is a bug, like a failed invariant, not a rejected trial: no
    # trial that reaches it can make it raise (see tests/test_family.py,
    # test_the_eigen_step_cannot_raise_by_the_smith_valuations). A witness that fails
    # A F = lam F mod p^cap is one too: PolynomialOperator.eigenvalue refuses it
    for module, name, broken, trials, shown in [
            (cli, "run_experiment", broken_run, 1, "AssertionError: xi and psi do not commute"),
            (family, "eigenvector_mod", broken_eigenvector, 8, "EigenvectorError: no kernel"),
            (family, "eigenvector_mod", moved_witness(0), 8,
             "AssertionError: the witness is not a unit eigenvector")]:
        cfg_path = write_json(tmp_path / "cfg.json", verify_config(trials=trials))
        with monkeypatch.context() as mp:
            mp.setattr(module, name, broken)
            assert run_main(["verify-prop", "--config", cfg_path]) == 3, name
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" in err and shown in err


def test_a_witness_moved_at_p_to_the_cap_gives_the_same_report(tmp_path, capsys, monkeypatch):
    # the sharpness of the check above: F + p^cap e_j is still an eigenvector mod p^cap, and
    # a = q(lam) does not read F, so the run writes the bytes of an unmoved one
    cfg_path = write_json(tmp_path / "cfg.json", verify_config())
    assert run_main(["verify-prop", "--config", cfg_path]) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(family, "eigenvector_mod", moved_witness(1))
    assert run_main(["verify-prop", "--config", cfg_path]) == 0
    assert capsys.readouterr().out == expected
    assert json.loads(expected)["summary"]["accepted"] > 0


def test_wrong_planted_eigenvalues_exit_three_with_their_traceback(tmp_path, capsys, monkeypatch):
    # a PLANTED pair whose eigenvalue is off its slope root is a generator bug: the trial's
    # seed check raises, and the run writes no report
    generate = family.gen_planted_quadruple

    def off_by_p(profile, p, alpha, *args):
        pair = generate(profile, p, alpha, *args)
        d, d_prime = pair.eigenvalues
        return pair._replace(eigenvalues=(d + p ** alpha, d_prime))

    doc = verify_config(generator="PLANTED", profile={"kind": "explicit", "n": 16, "a": [16] * 3})
    monkeypatch.setattr(family, "gen_planted_quadruple", off_by_p)
    assert run_main(["verify-prop", "--config", write_json(tmp_path / "cfg.json", doc)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" in err and "AssertionError: root is not p^1 times a unit" in err


def test_a_planted_eigenvector_off_the_conjugator_exits_three_with_its_traceback(
        tmp_path, capsys, monkeypatch):
    # U e_slot + U e_(slot+1) is no column of the conjugator U, so the trial's check that
    # U^-1 F is a unit vector raises before a is read off E: a generator bug, no report
    doc = verify_config(generator="PLANTED", profile={"kind": "explicit", "n": 16, "a": [16] * 3})
    monkeypatch.setattr(family, "gen_planted_quadruple",
                        summed_columns(family.gen_planted_quadruple))
    assert run_main(["verify-prop", "--config", write_json(tmp_path / "cfg.json", doc)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" in err
    assert "AssertionError: the eigenvector is not a column of the conjugator" in err


def test_verify_output_file_and_jobs_determinism(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", verify_config())
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    rc1, _, _ = invoke("verify-prop", "--config", cfg, "--output", str(out1))
    rc2, _, _ = invoke("verify-prop", "--config", cfg, "--jobs", "2", "--output", str(out2))
    assert rc1 == rc2 == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_unknown_subcommand():
    rc, _, _ = invoke("frobnicate")
    assert rc == 2


# --- fuzzing the config path ---------------------------------------------------------------

def test_fuzzed_configs_exit_with_a_documented_code(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    junk = st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.none(),
                     st.lists(st.integers(0, 2), max_size=2))
    huge = st.sampled_from([2**63, 2**64, 10**30, -(2**70)])

    def small(lo, hi):
        return st.one_of(st.integers(lo, hi), junk)

    # d and h keep a well-formed profile at rank <= 8, unless one is past the rank limit
    hilbert = st.fixed_dictionaries(
        {"kind": st.just("hilbert"), "d": st.one_of(st.just(1), st.just(64), huge, junk),
         "h": st.one_of(st.integers(1, 2), huge, junk), "n": small(-1, 4)},
        optional={"max_rank": small(-1, 4)},
    )
    explicit = st.fixed_dictionaries(
        {"kind": st.just("explicit"), "n": small(-1, 4), "a": st.lists(small(-1, 5), max_size=4)},
    )
    values = {  # trials, n, precision_guard and max_attempts drive the cost: all small
        "p": st.one_of(st.sampled_from([2, 5, 2**61 - 1, 2**89 - 1, 3317044064679887385961987,
                                        1, 4, -3]), junk),
        "profile": st.one_of(hilbert, explicit, st.just({"kind": "other"}), junk),
        "alpha": st.one_of(small(-1, 3), st.integers(5, 10**12), huge),  # past n: refused
        "kappa": st.one_of(small(-1, 3), huge),
        "trials": small(-1, 3),
        "master_seed": st.one_of(st.integers(), huge, junk),
        "generator": st.one_of(st.sampled_from(["PLANTED", "planted"]), junk),
        "max_attempts": small(-1, 4),
        "entry_bound": st.one_of(small(-1, 1), st.sampled_from([39, 40, 50, 62, 63, 64]), huge),
        "precision_guard": small(-1, 10),
        "nprime": small(-1, 4),
        "spurious": st.integers(0, 1),
    }
    valid = {"p": 3, "profile": {"kind": "hilbert", "d": 1, "h": 1, "n": 6, "max_rank": 4},
             "alpha": 0, "kappa": "auto", "trials": 3, "master_seed": 7,
             "generator": "POLYNOMIAL_PSI", "max_attempts": 4, "entry_bound": 2,
             "precision_guard": 2, "nprime": 3}

    @st.composite
    def documents(draw):
        """Not an object, or the valid config with up to three fields replaced or dropped."""
        if draw(st.integers(0, 7)) == 0:
            return draw(junk)
        doc = dict(valid)
        for key in draw(st.lists(st.sampled_from(sorted(values)), max_size=3, unique=True)):
            if draw(st.booleans()):
                doc[key] = draw(values[key])
            else:
                doc.pop(key, None)
        return doc

    path, out = tmp_path / "cfg.json", tmp_path / "report.json"

    # the document's text is drawn, so an example can be text json.dumps cannot write
    @settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @given(mode=st.sampled_from(["prop", "constancy"]), text=documents().map(json.dumps))
    def check(mode, text):
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main([f"verify-{mode}", "--config", str(path), "--output", str(out)])
        assert rc in (0, 1, 2) and "Traceback" not in err.getvalue(), (rc, err.getvalue())

    for mode in ("prop", "constancy"):
        for overrides in CONFIGS_BEYOND_THE_LIMITS:
            check = example(mode=mode,
                            text=json.dumps({**PROP_DEFAULT, "nprime": 1, **overrides}))(check)
        check = example(mode=mode, text=DEEP_DOCUMENT)(check)
    check()


# --- fuzzing the matrix path ---------------------------------------------------------------

def test_fuzzed_matrix_documents_exit_with_a_documented_code(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    entries = st.one_of(
        st.integers(-50, 50),
        st.floats(),
        st.booleans(),
        st.none(),
        st.decimals().map(str),
        st.sampled_from(["12", "-7", "+3", " 4 ", "1.5", "1e3", "²", "", "7" * 5000,
                         "-" + "9" * 5000]),
    )

    def square(entry):
        return st.integers(1, 3).flatmap(
            lambda r: st.lists(st.lists(entry, min_size=r, max_size=r), min_size=r, max_size=r))

    @st.composite
    def triangular(draw):
        """Upper triangular over 3-power diagonals, so profile can succeed."""
        r = draw(st.integers(1, 3))
        return [[draw(st.sampled_from([1, -1, 3, 9, -9])) if i == j else
                 draw(st.integers(-50, 50)) if j > i else 0 for j in range(r)] for i in range(r)]

    # wrong shapes, bad entries, extra fields and non-objects, beside well-formed matrices
    rows = st.one_of(square(entries), st.lists(st.lists(entries, max_size=3), max_size=3), entries)
    documents = st.one_of(
        st.fixed_dictionaries({"rows": triangular()}),
        st.fixed_dictionaries({"rows": square(st.integers(-50, 50))}),
        st.fixed_dictionaries({"rows": rows}),
        st.fixed_dictionaries({"rows": square(st.integers(-50, 50)), "spurious": entries}),
        entries,
        st.lists(entries, max_size=2),
    )
    commands = {
        "polygon": ["polygon", "--prime", "3"],
        "snf": ["snf"],
        "profile": ["profile", "--prime", "3", "--level", "4"],
    }
    path = tmp_path / "m.json"

    # the document's text is drawn, so an example can be text json.dumps cannot write
    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(command=st.sampled_from(sorted(commands)), text=documents.map(json.dumps))
    def check(command, text):
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run_main([*commands[command], "--input", str(path)])
        assert rc in (0, 2) and "Traceback" not in err.getvalue(), (rc, err.getvalue())

    for command in commands:
        check = example(command=command, text=DEEP_DOCUMENT)(check)
    check()


# --- fuzzing the arguments -----------------------------------------------------------------

def test_fuzzed_arguments_exit_with_a_documented_code(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    matrix = write_json(tmp_path / "m.json", {"rows": [[3, 1], [0, 9]]})
    config = write_json(tmp_path / "cfg.json", verify_config(trials=5, nprime=3))
    output = str(tmp_path / "out.json")
    bad_paths = [str(tmp_path / "missing.json"), str(tmp_path), str(tmp_path / "no" / "out.json")]
    flags = {
        "polygon": ["--prime", "--input", "--output"],
        "snf": ["--input", "--output"],
        "profile": ["--prime", "--level", "--input", "--output"],
        "bounds": ["--d", "--h", "--n", "--alpha", "--kappa", "--output"],
        "verify-prop": ["--config", "--jobs", "--output"],
        "verify-constancy": ["--config", "--jobs", "--output"],
        "compare-c": ["--d-list", "--h-list", "--n-max", "--output"],
    }
    # no parser takes any of these, so a value that would start work past the bounds
    # below (h * n^d <= 10^4, --n-max <= 16, --jobs in {1, 2}) is never drawn
    refused = ["", "x", "1.5", "1e3", "-1", "0", ","]
    small_rank = st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 12)).filter(
        lambda dhn: dhn[1] * dhn[2] ** dhn[0] <= 10**4)
    shapes = st.one_of(small_rank, st.tuples(st.sampled_from([64, 10**20]), st.integers(1, 4),
                                             st.just(1)))
    int_lists = {key: st.lists(st.integers(1, top), min_size=1, max_size=3).map(
        lambda xs: ",".join(map(str, xs))) for key, top in (("--d-list", 3), ("--h-list", 2))}

    def mostly(draw, usual, rare):
        """usual five times in six, else one of rare."""
        return draw(st.sampled_from(rare)) if draw(st.integers(0, 5)) == 0 else usual

    @st.composite
    def argvs(draw):
        command = draw(st.sampled_from(sorted(flags)))
        d, h, n = draw(shapes)
        good = {
            "--prime": draw(st.sampled_from(["2", "3", "5", "4", "2305843009213693951"])),
            "--level": draw(st.sampled_from(["1", "2", "4"])),
            "--input": mostly(draw, matrix, [config] + bad_paths),
            "--config": mostly(draw, config, [matrix] + bad_paths),
            "--output": mostly(draw, output, bad_paths),
            "--d": str(d), "--h": str(h), "--n": str(n),
            "--alpha": draw(st.sampled_from(["0", "1", "3", "1" * 40, "9" * 400])),
            "--kappa": draw(st.sampled_from(["auto", "1", "4", "1" * 40])),
            "--jobs": draw(st.sampled_from(["1", "2"])),
            "--d-list": draw(int_lists["--d-list"]),
            "--h-list": draw(int_lists["--h-list"]),
            "--n-max": str(draw(st.integers(1, 16))),
        }
        # most flags kept, one maybe from another command, some values refused
        chosen = [f for f in flags[command] if draw(st.integers(0, 5))]
        chosen += mostly(draw, [], [[flag] for flag in sorted(good)])
        argv = [command]
        for flag in draw(st.permutations(chosen)):  # a path flag draws its bad values above
            path = flag in ("--input", "--config", "--output")
            argv += [flag, good[flag] if path else mostly(draw, good[flag], refused)]
        return argv + mostly(draw, [], [["-h"], ["--frobnicate"], ["x"]])

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(argv=argvs())
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run_main(argv)
        assert rc in (0, 1, 2) and "Traceback" not in err.getvalue(), (argv, rc, err.getvalue())

    check()
