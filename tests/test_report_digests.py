"""The shipped configs' reports, pinned by SHA-256 prefix.

Acceptance criterion 7 compares a run with a rerun, so a deterministic but
wrong rewrite of a hot path passes it; these pins do not. A change that is
meant to alter report bytes updates them and says why.

The shipped configs all run at p = 3, constancy only at n' = 5 and PLANTED
only in prop mode; the configs of VARIANTS cover p = 2 and 5, n' = 1 and
n' = n, and PLANTED at p = 5 in both modes. The two rank-1 PLANTED configs
take random_unimodular's r == 1 branch, and at p = 2 more than half of unit's draws
are rejected. prop_sharp sits at the bound: some of its accepted trials have
margin exactly kappa.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from padicslopes.family import (
    ACCEPTED, config_from_document, read_config, report_to_json, run_experiment,
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


@pytest.mark.parametrize("jobs", [1, 2])
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


# the spawn start method gives each worker a fresh interpreter, so a report byte that
# depended on a cache warmed in the parent before a fork would show here
SPAWN_SCRIPT = """
import hashlib, multiprocessing, sys
from pathlib import Path
from padicslopes.family import read_config, report_to_json, run_experiment
multiprocessing.set_start_method("spawn")
for name, mode in zip(sys.argv[2::2], sys.argv[3::2]):
    report = run_experiment(read_config(Path(sys.argv[1]) / name), mode=mode, jobs=2)
    print(hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest()[:16])
"""


def test_shipped_report_digests_under_spawn():
    argv = [str(CONFIG_DIR)] + [x for name, mode, _ in PINNED for x in (name, mode)]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SPAWN_SCRIPT, *argv], capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [digest for _, _, digest in PINNED]


PROP = {"profile": {"kind": "hilbert", "d": 1, "h": 1, "n": 12, "max_rank": 8},
        "alpha": 1, "kappa": "auto", "generator": "POLYNOMIAL_PSI", "trials": 40}
CONSTANCY = {"profile": {"kind": "hilbert", "d": 1, "h": 1, "n": 6},
             "alpha": 0, "generator": "POLYNOMIAL_PSI", "trials": 40}
PLANTED = {"profile": {"kind": "explicit", "n": 16, "a": [16] * 6},
           "alpha": 1, "kappa": "auto", "generator": "PLANTED", "trials": 40}
RANK1 = {"kind": "explicit", "n": 6, "a": [6]}

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
]


@pytest.mark.parametrize("mode,doc,digest", VARIANTS,
                         ids=[f"{m}-p{d['p']}-{d['generator']}-nprime{d.get('nprime')}"
                              for m, d, _ in VARIANTS])
def test_variant_report_digest(mode, doc, digest):
    report = run_experiment(config_from_document(doc), mode=mode)
    text = report_to_json(report)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == digest
