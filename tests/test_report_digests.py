"""The shipped configs' reports, pinned by SHA-256 prefix.

Acceptance criterion 7 compares a run with a rerun, so a deterministic but
wrong rewrite of a hot path passes it; these pins do not. A change that is
meant to alter report bytes updates them and says why.

The shipped configs all run at p = 3, constancy only at n' = 5 and PLANTED
only in prop mode; the configs of VARIANTS cover p = 2 and 5, n' = 1 and
n' = n, PLANTED at p = 5 in both modes and at p = 2 in prop mode at rank 6. The
two rank-1 PLANTED configs take random_unimodular's r == 1 branch, and at p = 2
more than half of unit's draws are rejected. Two rank-8 and rank-9 PLANTED configs
sit at each side of the cap on generated matrix code. A rank-12 POLYNOMIAL_PSI config
is the one whose working precision is set by alpha r, not n + 2 alpha + guard: its
accepted trials have cap exactly kappa. prop_sharp sits at the bound: some of its
accepted trials have margin exactly kappa.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from padicslopes import lattice, newton
from padicslopes.family import (
    ACCEPTED, _trial_text, config_from_document, read_config, report_to_json, run_experiment,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

PINNED = [
    ("prop_default.json", "prop", "123ec10ab0b3c70e"),
    ("prop_planted.json", "prop", "91edabb4fc292942"),
    ("constancy_default.json", "constancy", "de001b5ab0bc7ea2"),
    ("prop_sharp.json", "prop", "5bb5a4880a1d931d"),
]

# the prop_sharp trials whose margin equals kappa = 6, which kappa 7 would make violations
SHARP_SLACK_ZERO = (3, 10, 13, 14, 17, 19, 42, 43, 44, 46, 54, 55)


def test_every_shipped_config_is_pinned():
    assert sorted(path.name for path in CONFIG_DIR.glob("*.json")) == sorted(
        name for name, _, _ in PINNED)


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("name,mode,digest", PINNED)
def test_shipped_report_digest(name, mode, digest, jobs):
    report = run_experiment(read_config(CONFIG_DIR / name), mode=mode, jobs=jobs)
    text = report_to_json(report)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == digest


def test_sharp_config_meets_the_bound_without_violations():
    report = run_experiment(read_config(CONFIG_DIR / "prop_sharp.json"))
    assert (report.plan.kappa, report.accepted, len(report.violations)) == (6, 29, 0)
    assert tuple(t.index for t in report.trials
                 if t.status == ACCEPTED and t.margin == report.plan.kappa) == SHARP_SLACK_ZERO
    assert report.min_margin() == 6


# a fresh interpreter runs a config's odd-index trials alone, with every cache cold, so
# a trial's bytes that depended on a cache warmed by the trials before it, or by the
# parent before a fork, would differ from the --jobs 1 report's
COLD_SCRIPT = """
import json, sys
from padicslopes import family
plan = family.prepare_plan(family.read_config(sys.argv[1]), sys.argv[2])
run = family.run_proposition_trial if plan.mode == "prop" else family.run_constancy_trial
print(json.dumps([family._trial_text(run(plan, i), {}) for i in range(1, plan.config.trials, 2)]))
"""


def test_odd_index_trials_from_a_cold_interpreter():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for name, mode, _ in PINNED:  # an interpreter each, so no config warms another's caches
        done = subprocess.run([sys.executable, "-c", COLD_SCRIPT, str(CONFIG_DIR / name), mode],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr
        report = run_experiment(read_config(CONFIG_DIR / name), mode=mode)
        assert json.loads(done.stdout) == [_trial_text(t, {}) for t in report.trials[1::2]], name


PROP = {"profile": {"kind": "hilbert", "d": 1, "h": 1, "n": 12, "max_rank": 8},
        "alpha": 1, "kappa": "auto", "generator": "POLYNOMIAL_PSI", "trials": 40}
CONSTANCY = {"profile": {"kind": "hilbert", "d": 1, "h": 1, "n": 6},
             "alpha": 0, "generator": "POLYNOMIAL_PSI", "trials": 40}
PLANTED = {"profile": {"kind": "explicit", "n": 16, "a": [16] * 6},
           "alpha": 1, "kappa": "auto", "generator": "PLANTED", "trials": 40}
RANK1 = {"kind": "explicit", "n": 6, "a": [6]}


def flat_profile(r):
    return {"kind": "explicit", "n": 12, "a": [12] * r}


VARIANTS = [
    ("constancy", dict(CONSTANCY, p=3, nprime=1, master_seed=11), "020528cc4e7bcd24"),
    ("constancy", dict(CONSTANCY, p=3, nprime=6, master_seed=12), "c5cd93861c423618"),
    ("constancy", dict(CONSTANCY, p=2, nprime=4, master_seed=13), "dda88d2d849fe8e1"),
    ("constancy", dict(CONSTANCY, p=5, nprime=3, master_seed=14), "ed5ff37fa999143e"),
    ("prop", dict(PROP, p=2, master_seed=15), "4b004a7f167b466f"),
    ("prop", dict(PROP, p=5, master_seed=16), "d752d0cfcf8c8729"),
    ("prop", dict(PLANTED, p=5, master_seed=17), "783dc73d4aac6270"),
    ("constancy", dict(PLANTED, p=5, nprime=9, master_seed=18), "3460df3fba1c99c0"),
    ("prop", dict(PLANTED, p=3, profile=RANK1, master_seed=19), "d49eead9200da0bf"),
    ("prop", dict(PLANTED, p=2, alpha=0, profile=RANK1, master_seed=19), "cf7f670251e03a67"),
    # p = 2 above rank 1: every unit seed digit is 1, so the seed check of a planted
    # eigenvalue tests its valuation only
    ("prop", dict(PLANTED, p=2, master_seed=31), "5cd8205f0050d6f6"),
    # rank 12 at alpha 1 and guard 0, where alpha (r - 2) = 10 > n + guard = 8: the plan's
    # N = alpha r + kappa = 14 exceeds n + 2 alpha + guard + kappa, and 8 trials reach the
    # eigen step with cap = kappa exactly
    ("prop", dict(PROP, p=3, profile={"kind": "explicit", "n": 8, "a": [8] + [0] * 11},
                  precision_guard=0, trials=60, master_seed=7), "89fecca66eaf02df"),
    # ranks 8 and 9, each side of lattice.KERNEL_MAX_RANK: products and applies run
    # generated code at rank 8 and loops at rank 9
    ("prop", dict(PLANTED, p=3, alpha=0, profile=flat_profile(8), master_seed=28),
     "d6e947b6134b27dc"),
    ("prop", dict(PLANTED, p=3, alpha=0, profile=flat_profile(9), master_seed=29),
     "ec71b7868f2b7e5e"),
]


def variant_ids(rows):
    """mode-p<p>-generator-nprime<nprime> per row; a name already taken gets -rank<r>."""
    ids = []
    for mode, doc, *_ in rows:
        name = f"{mode}-p{doc['p']}-{doc['generator']}-nprime{doc.get('nprime')}"
        ids.append(name if name not in ids else f"{name}-rank{len(doc['profile']['a'])}")
    return ids


@pytest.mark.parametrize("mode,doc,digest", VARIANTS, ids=variant_ids(VARIANTS))
def test_variant_report_digest(mode, doc, digest):
    report = run_experiment(config_from_document(doc), mode=mode)
    text = report_to_json(report)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == digest


def test_loops_write_the_bytes_the_kernels_write(monkeypatch):
    # with the cap at 0, char_poly, products and applies all run their loops and no
    # kernel is compiled; every report must be byte for byte what the kernels give
    configs = [config_from_document(doc) for _, doc, _ in VARIANTS[-2:]] + [
        read_config(CONFIG_DIR / name) for name in ("prop_planted.json", "prop_default.json")]
    expected = [report_to_json(run_experiment(cfg)) for cfg in configs]
    kernels = (lattice._product, lattice._apply, newton._berkowitz)
    for kernel in kernels:
        kernel.cache_clear()
    monkeypatch.setattr(lattice, "KERNEL_MAX_RANK", 0)
    monkeypatch.setattr(newton, "KERNEL_MAX_RANK", 0)
    assert [report_to_json(run_experiment(cfg)) for cfg in configs] == expected
    assert [kernel.cache_info().misses for kernel in kernels] == [0, 0, 0]
