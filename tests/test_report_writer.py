"""report_to_json against the reference writer.

report_to_json writes each trial's text itself, with one census row per segment
memoized for the call. oracles.report_document builds the same report as a
document, one dict per trial, and the standard library's json.dumps writes it,
so neither the library's document code nor its json_text stands in the
comparison. Each case below reaches a different part of the trial text.
"""

import json
import pickle
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from padicslopes.family import (
    ACCEPTED, REJECTED, VIOLATION, ExperimentReport, InstancePair, PolynomialOperator,
    _evaluate_proposition_pair, config_from_document, prepare_plan, read_config, report_to_json,
    run_experiment, run_proposition_trial,
)
from padicslopes.lattice import json_text
from padicslopes.padics import INFINITY
from padicslopes.rng import SplitMix64

from oracles import diagonal, report_document
from test_report_digests import PINNED, VARIANTS, variant_ids

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def assert_writes_the_reference(report):
    text = report_to_json(report)
    assert text == json.dumps(report_document(report), indent=2, sort_keys=True) + "\n"
    return text


def unshared(report):
    """The report with every trial sent through pickle alone, as a forked worker returns
    them: no census tuple is shared between trials."""
    return report._replace(trials=tuple(pickle.loads(pickle.dumps(t)) for t in report.trials))


def report_of(plan, trials):
    return ExperimentReport(mode=plan.mode, plan=plan, trials=tuple(trials))


# the shipped configs run both generators
@pytest.mark.parametrize("name,mode", [(name, mode) for name, mode, _ in PINNED])
def test_shipped_configs(name, mode):
    report = run_experiment(read_config(CONFIG_DIR / name), mode=mode)
    assert assert_writes_the_reference(unshared(report)) == assert_writes_the_reference(report)


@pytest.mark.parametrize("mode,doc", [(mode, doc) for mode, doc, _ in VARIANTS],
                         ids=variant_ids(VARIANTS))
def test_variant_configs(mode, doc):
    report = run_experiment(config_from_document(doc), mode=mode)
    assert assert_writes_the_reference(unshared(report)) == assert_writes_the_reference(report)


# (reason, mode, config): runs whose REJECTED trials all have that reason and no census;
# the prop no-instance run also has one ACCEPTED trial, whose a and a' agree exactly
REJECTING = [
    ("hypotheses", "prop", {"p": 2, "profile": {"kind": "explicit", "n": 4, "a": [4]},
                            "alpha": 1, "trials": 10, "master_seed": 19,
                            "generator": "PLANTED"}),
    ("no-instance", "prop", {"p": 3, "profile": {"kind": "explicit", "n": 4, "a": [4, 2, 0]},
                             "alpha": 0, "trials": 20, "master_seed": 5,
                             "generator": "PLANTED", "max_attempts": 1}),
    ("no-instance", "constancy", {"p": 3, "nprime": 2,
                                  "profile": {"kind": "explicit", "n": 4, "a": [4, 2, 0]},
                                  "alpha": 0, "trials": 20, "master_seed": 5,
                                  "generator": "PLANTED", "max_attempts": 1}),
]


@pytest.mark.parametrize("reason,mode,doc", REJECTING,
                         ids=[f"{reason}-{mode}" for reason, mode, _ in REJECTING])
def test_rejections_without_a_census(reason, mode, doc):
    report = run_experiment(config_from_document(doc), mode=mode)
    rejected = [t for t in report.trials if t.status == REJECTED]
    assert {t.reason for t in rejected} == {reason}
    assert all(t.census is None for t in rejected)
    assert_writes_the_reference(report)
    assert_writes_the_reference(unshared(report))


def test_infinity_margin():
    _, mode, doc = REJECTING[1]
    report = run_experiment(config_from_document(doc), mode=mode)
    assert [t.margin for t in report.trials if t.status == ACCEPTED] == [INFINITY]
    assert '"margin": "inf"' in assert_writes_the_reference(report)


def test_not_simple_rejections():
    plan = prepare_plan(read_config(CONFIG_DIR / "prop_sharp.json"), "prop")
    report = report_of(plan, (run_proposition_trial(plan, i) for i in range(20)))
    assert {t.reason for t in report.trials} == {"not-simple", None}
    assert_writes_the_reference(report)
    assert_writes_the_reference(unshared(report))


def test_constancy_control_with_mismatched_slopes(monkeypatch):
    # every Delta entry a multiple of p^0: the censuses differ below the bound, so the
    # trials carry mismatched slopes and the VIOLATIONs carry their matrices
    monkeypatch.setattr("padicslopes.family._congruence_moduli",
                        lambda profile, p, min_exponent: ((1,) * profile.r,) * profile.r)
    cfg = read_config(CONFIG_DIR / "constancy_default.json")._replace(trials=40)
    report = run_experiment(cfg, mode="constancy")
    assert len(report.violations) > 0
    assert any(t.informational_slopes for t in report.trials)
    assert_writes_the_reference(report)
    assert_writes_the_reference(unshared(report))


def violation_trial():
    """A prop VIOLATION from unrelated diagonal operators, psi = q(xi) with q = X: only
    the margin gate can tell them apart."""
    cfg = config_from_document({"p": 3, "profile": {"kind": "explicit", "n": 4, "a": [4, 4, 4]},
                                "alpha": 0, "kappa": 2, "trials": 1, "master_seed": 1})
    plan = prepare_plan(cfg, "prop")
    rng = SplitMix64(4)
    for _ in range(40):
        xi, xi_prime = (diagonal([rng.unit(3, 80), 3 * rng.unit(3, 80), 9 * rng.unit(3, 80)])
                        for _ in range(2))
        pair = InstancePair(xi=xi, xi_prime=xi_prime, psi=PolynomialOperator((0, 1), xi),
                            psi_prime=PolynomialOperator((0, 1), xi_prime), profile=cfg.profile)
        trial = _evaluate_proposition_pair(plan, pair, 0, 0)
        if trial.status == VIOLATION:
            return plan, trial
    raise AssertionError("expected a violation from unrelated operators")


def test_hand_built_prop_violation():
    plan, trial = violation_trial()
    report = report_of(plan, [trial, trial._replace(index=1, pair=None, status=ACCEPTED)])
    assert '"matrices": {' in assert_writes_the_reference(report)
    assert_writes_the_reference(unshared(report))


def test_an_int_past_the_str_limit_is_a_decimal_string():
    plan, trial = violation_trial()
    huge = 10 ** (sys.get_int_max_str_digits() + 5) + 7
    report = report_of(plan, [trial._replace(a=huge, pair=None, status=ACCEPTED)])
    with pytest.raises(ValueError):
        json.dumps(report_document(report))
    text = report_to_json(report)
    assert text == json_text(report_document(report))
    assert int(Decimal(json.loads(text)["trials"][0]["a"])) == huge
