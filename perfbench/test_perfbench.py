"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys

import pytest

import layers
from driver import ROOT, core_scales, drive, library, local_scales, tail
from layers import SPANS, Tracer, layer_metrics, per_layer_units
from run import END_TO_END
from workloads import WORKLOADS, round_document

family = library()


def bindings() -> dict:
    """Every binding, in any padicslopes module, of a function the tracer wraps."""
    names = {fn for _, fn, _ in SPANS} | {"padic_valuation"}
    out = {(m.__name__, fn): m.__dict__[fn]
           for m in layers._modules() for fn in names if fn in m.__dict__}
    out[("IntMatrix", "__post_init__")] = sys.modules["padicslopes.lattice"].IntMatrix.__post_init__
    return out


def small(name: str, trials: int):
    workload = WORKLOADS[name]
    return family.config_from_document(round_document(workload, 7, 0, trials=trials)), workload.mode


def test_tracer_wraps_only_inside_and_restores_originals():
    before = bindings()
    config, mode = small("prop-poly", 4)
    with Tracer() as tracer:
        during = bindings()
        for key, original in before.items():
            assert during[key] is not original, key
        drive(family, config, mode)
    assert all(bindings()[key] is original for key, original in before.items())
    assert {name for name, *_ in tracer.spans} >= {"trial", "newton.char_poly"}

    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert all(bindings()[key] is original for key, original in before.items())


def test_untraced_run_calls_the_library_originals():
    config, mode = small("prop-poly", 6)
    with Tracer():
        pass
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run = drive(family, config, mode)
    finally:
        sys.setprofile(None)
    assert any(t.status == family.ACCEPTED for t in run.results)
    assert not any(code.co_filename == layers.__file__ for code in seen)
    newton, lattice = sys.modules["padicslopes.newton"], sys.modules["padicslopes.lattice"]
    assert newton.char_poly.__code__ in seen
    assert lattice.smith_normal_form.__code__ in seen


@pytest.mark.parametrize("name,trials", [("prop-poly", 6), ("prop-planted", 6), ("constancy", 20)])
def test_driven_trials_give_the_run_experiment_bytes(name, trials):
    config, mode = small(name, trials)
    expected = family.report_to_json(family.run_experiment(config, mode))
    untraced = drive(family, config, mode)
    with Tracer() as tracer:
        traced = drive(family, config, mode)
    assert untraced.text == expected
    assert traced.text == expected

    metrics = layer_metrics(tracer, traced, untraced)
    assert set(metrics) <= set(per_layer_units())
    assert metrics["trace.accounted_share"] == pytest.approx(1.0, abs=0.05)
    assert min(tracer.self_times()) >= 0


def test_rounds_continue_one_sequence_of_distinct_trials():
    trial_seed = sys.modules["padicslopes.rng"].trial_seed
    workload = WORKLOADS["prop-poly"]

    def seeds(k, trials):
        doc = round_document(workload, 7, k, trials=trials)
        return [trial_seed(doc["master_seed"], i) for i in range(trials)]

    assert seeds(0, 3) + seeds(1, 3) + seeds(2, 3) == seeds(0, 9)
    assert len(set(seeds(0, 9))) == 9


def test_calibration_leaves_the_report_and_the_affinity_alone():
    config, mode = small("constancy", 20)
    plain = drive(family, config, mode)
    calibrated = drive(family, config, mode, calibrate=True)
    assert calibrated.text == plain.text
    assert len(calibrated.probes) == len(local_scales(calibrated.probes)) == config.trials
    assert not plain.probes

    cores = os.sched_getaffinity(0)
    assert len(core_scales()) == len(cores)
    assert os.sched_getaffinity(0) == cores


def test_benchmark_json_declares_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


def test_tail_keeps_ten_samples_beyond_the_percentile():
    samples = [float(x) for x in range(1, 101)]
    assert tail(samples, 99.0) == (90.0, 90.0, 10)
    assert tail(samples * 10, 99.0) == (99.0, 99.0, 10)
