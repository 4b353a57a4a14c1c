"""The shipped configs' reports, pinned by SHA-256 prefix.

Acceptance criterion 7 compares a run with a rerun, so a deterministic but
wrong rewrite of a hot path passes it; these pins do not. A change that is
meant to alter report bytes updates them and says why.
"""

import hashlib
from pathlib import Path

import pytest

from padicslopes.family import read_config, report_to_json, run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

PINNED = [
    ("prop_default.json", "prop", "123ec10ab0b3c70e"),
    ("prop_planted.json", "prop", "91edabb4fc292942"),
    ("constancy_default.json", "constancy", "de001b5ab0bc7ea2"),
]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name,mode,digest", PINNED)
def test_shipped_report_digest(name, mode, digest, jobs):
    report = run_experiment(read_config(CONFIG_DIR / name), mode=mode, jobs=jobs)
    text = report_to_json(report)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == digest
