"""Trial driving, timed rounds and the correctness gate.

`drive` runs a config's trials one after another through the library's own
trial functions, timing each, and serializes the report exactly as
`run_experiment` + `report_to_json` would. It looks every library function
up on the `padicslopes.family` module at call time, so the traced run sees
the wrappers `layers.Tracer` rebinds there and the untraced run sees the
original function objects.

A shared host drifts in speed by a quarter and more over phases of seconds
to minutes, so the timed rounds calibrate. `probe`, a fixed loop of
benchmark code that never calls the library, runs after every trial, and
each trial's time is scaled by REFERENCE_PROBE_S over the median of the
PROBE_WINDOW probes around it. A pooled run keeps every core busy, so it is
scaled by the mean speed of the cores, each probed in a burst before and
after it. A time so scaled reads as on a host where the probe takes
REFERENCE_PROBE_S; a speed-up of the library shows in full.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import SHIPPED, Workload, round_document

ROOT = Path(__file__).resolve().parent.parent

# tail percentiles tried, highest first, when a run is too short for the workload's own
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
PAR_REPEATS = 2
REFERENCE_PROBE_S = 50e-6    # a round figure near the probe's time on a 2.1 GHz x86 core
PROBE_BURST = 25             # probes per core before and after each pooled run
PROBE_WINDOW = 15            # probes around a trial whose median scales it


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked (no library sources)."""


def library():
    """Import `padicslopes.family` from the checkout's `src/`."""
    src = ROOT / "src"
    if not (src / "padicslopes" / "__init__.py").is_file():
        raise BenchError(f"no padicslopes package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from padicslopes import family
    return family


def probe() -> float:
    """Seconds taken by a fixed loop of integer arithmetic: the host's speed now."""
    t0 = time.perf_counter()
    s, x = 0, 12345678901234567
    for i in range(400):
        s = (s * x + i) % 1000000007
    return time.perf_counter() - t0


def core_scales() -> list:
    """Per usable core, REFERENCE_PROBE_S over the median of a burst of probes there."""
    cores = os.sched_getaffinity(0)
    scales = []
    try:
        for core in sorted(cores):
            os.sched_setaffinity(0, {core})
            scales.append(REFERENCE_PROBE_S / statistics.median(probe() for _ in range(PROBE_BURST)))
    finally:
        os.sched_setaffinity(0, cores)   # the pool's workers inherit it
    return scales


def local_scales(probes: tuple) -> list:
    """Per trial, REFERENCE_PROBE_S over the median of the probes around it."""
    h = PROBE_WINDOW // 2
    return [REFERENCE_PROBE_S / statistics.median(probes[max(0, i - h):i + h + 1])
            for i in range(len(probes))]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Pass:
    text: str            # report JSON, byte-identical to report_to_json(run_experiment(...))
    latencies: list      # seconds per trial
    results: tuple       # TrialReport per trial
    seconds: float       # plan + trials + serialization, probes excluded
    probes: tuple = ()   # probe seconds after each trial, when calibrating


def drive(family, config, mode: str, calibrate: bool = False) -> Pass:
    start = time.perf_counter()
    plan = family.prepare_plan(config, mode)
    run = family.run_proposition_trial if mode == "prop" else family.run_constancy_trial
    results, latencies, probes = [], [], []
    for i in range(config.trials):
        t0 = time.perf_counter()
        results.append(run(plan, i))
        latencies.append(time.perf_counter() - t0)
        if calibrate:
            probes.append(probe())
    report = family.ExperimentReport(mode=mode, plan=plan, trials=tuple(results))
    text = family.report_to_json(report)
    seconds = time.perf_counter() - start - sum(probes)
    return Pass(text, latencies, tuple(results), seconds, tuple(probes))


def run_parallel(family, config, mode: str, jobs: int) -> tuple:
    """(report text, seconds) of `run_experiment` at `jobs`, pool start-up included."""
    t0 = time.perf_counter()
    text = family.report_to_json(family.run_experiment(config, mode, jobs=jobs))
    return text, time.perf_counter() - t0


def violations(family, results) -> int:
    return sum(1 for t in results if t.status == family.VIOLATION)


def run_round(family, workload: Workload, seed: int, k: int, jobs: int) -> dict:
    """One round at --jobs 1, then PAR_REPEATS times at --jobs `jobs`, so that both
    modes get about the same measuring time. Times are scaled to the reference host
    speed, each mode by its own probes; failures name what went wrong."""
    config = family.config_from_document(round_document(workload, seed, k))
    seq = drive(family, config, workload.mode, calibrate=True)
    latencies = [x * s for x, s in zip(seq.latencies, local_scales(seq.probes))]
    outside = seq.seconds - sum(seq.latencies)   # plan, serialization, loop
    seq_s = sum(latencies) + outside * REFERENCE_PROBE_S / statistics.median(seq.probes)
    failures = []
    bad = violations(family, seq.results)
    if bad:
        failures.append(f"round {k}: {bad} VIOLATION trials")
    par_seconds = 0.0
    par_scales = core_scales()
    for _ in range(PAR_REPEATS):
        par_text, seconds = run_parallel(family, config, workload.mode, jobs)
        par_scales += core_scales()
        par_seconds += seconds
        if par_text != seq.text:
            failures.append(f"round {k}: --jobs {jobs} report differs from --jobs 1")
    accepted = [x for x, t in zip(latencies, seq.results) if t.status == family.ACCEPTED]
    par_scale = statistics.mean(par_scales)
    return {
        "trials": config.trials,
        "seq_s": seq_s,
        "raw_seq_s": seq.seconds,
        "accepted_ms_p50": statistics.median(accepted) * 1e3,
        "par_trials": PAR_REPEATS * config.trials,
        "par_s": par_seconds * par_scale,
        "raw_par_s": par_seconds,
        "latencies_ms": [x * 1e3 for x in latencies],
        "failures": failures,
    }


def gate(family, workload: Workload, jobs: int) -> tuple:
    """Rerun the shipped configs and the workload's default-seed round; (trials, failures)."""
    checks = [(family.read_config(ROOT / "configs" / name), mode, prefix, name)
              for name, mode, prefix in SHIPPED]
    pin = family.config_from_document(round_document(workload, workload.default_seed, 0))
    checks.append((pin, workload.mode, workload.pinned_sha256, "workload default seed"))
    attempted, failures = 0, []
    for config, mode, prefix, label in checks:
        report = family.run_experiment(config, mode, jobs=jobs)
        attempted += config.trials
        got = digest(family.report_to_json(report))
        if got != prefix:
            failures.append(f"{label}: report digest {got}, pinned {prefix}")
        if report.violations:
            failures.append(f"{label}: {len(report.violations)} VIOLATION trials")
    return attempted, failures


def tail(latencies_ms: list, pct: float) -> tuple:
    """(percentile used, its value, samples beyond it): the workload's percentile, or the
    highest ladder percentile below it that still has ten samples beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    for q in (pct,) + tuple(x for x in TAIL_LADDER if x < pct):
        rank = max(1, math.ceil(q / 100 * n))
        if n - rank >= 10:
            break
    return q, ordered[rank - 1], n - rank
