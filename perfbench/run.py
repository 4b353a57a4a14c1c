"""Benchmark of the padicslopes `verify-*` experiment path (standard library only).

    python3 perfbench/run.py --workload prop-poly --seed 1 --seconds 20 --trace 0

Both modes first run the correctness gate: the three shipped configs must
reproduce their pinned report digests, and so must the workload's round 0
at its default seed.

--trace 0 reports the end-to-end metrics. Set-up time is the median over
fresh interpreters that import the package, read the config and plan the
experiment. A child process then runs rounds of the workload at --jobs 1
and at --jobs <usable cores> for --seconds; each round's two reports must
be byte-identical and free of violations. All times are scaled to a
reference host speed by a calibration loop run between them (see
driver.py); the unscaled figures are printed beside them.

--trace 1 reports the per-layer metrics. The workload's fixed traced trial
set runs untraced, under `layers.Tracer`, untraced again, then pooled; the
rank sweep and interpreter/import timings follow. Spans go to perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the full result, with its provenance, is
written to perfbench/out/. Exit status: 0 when every check passed, 1 when a
correctness check failed, 2 on bad arguments or a checkout without the
library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from driver import (ROOT, BenchError, core_scales, drive, gate, library, run_parallel, tail,
                    violations)
from layers import Tracer, layer_metrics, per_layer_units, rank_sweep
from workloads import WORKLOADS, round_document

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
END_TO_END = {
    "trials_per_s": "1/s",
    "trials_per_s_par": "1/s",
    "accepted_ms_p50": "ms",
    "trial_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 9        # timed fresh interpreters, after one untimed that fills the bytecode cache
CLI_REPEATS = 5
CHILD_TIMEOUT_S = 170

SETUP_CODE = ("import sys\n"
              "from padicslopes import family\n"
              "family.prepare_plan(family.read_config(sys.argv[1]), sys.argv[2])\n")
IMPORT_CODE = ("import time\n"
               "t0 = time.perf_counter()\n"
               "import padicslopes.cli\n"
               "print(time.perf_counter() - t0)\n")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn_times(args: list, repeats: int) -> list:
    """(wall seconds, stdout, host scale) of `repeats` fresh interpreters, after one
    untimed; the scale is the mean core speed probed before and after each."""
    out = []
    for i in range(repeats + 1):
        scales = core_scales()
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        wall = time.perf_counter() - t0
        scales += core_scales()
        if i:
            out.append((wall, done.stdout, statistics.mean(scales)))
    return out


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, repeats: dict) -> dict:
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "repeats": repeats,
    }


def run_child(args: list) -> tuple:
    """(parsed stdout, peak RSS in MB) of a child interpreter; kills it past the timeout."""
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        raw = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"timed child exited with {proc.returncode}")
    return json.loads(raw), usage.ru_maxrss / 1024


def timed_run(args, workload, jobs: int) -> dict:
    config_path = OUT / f"setup-{args.workload}.json"
    config_path.write_text(json.dumps(round_document(workload, args.seed, 0)))
    setup = spawn_times(["-c", SETUP_CODE, str(config_path), workload.mode], SETUP_REPEATS)
    child, rss_mb = run_child([str(HERE / "child.py"), args.workload, str(args.seed),
                               str(args.seconds), str(jobs)])
    rounds = child["rounds"]
    if not rounds:
        raise RuntimeError("; ".join(child["failures"]))
    # Times come scaled to the reference host speed (driver.REFERENCE_PROBE_S); what
    # calibration leaves of the drift, means average: throughput is total trials over
    # total time, and the latency median a mean of round medians, not a median of the
    # pooled samples, which jumps between phases. The median counts accepted trials only: on
    # prop-poly the census gate rejects about half the trials at a third of the cost, so
    # the median of all trials jumps between the two groups with the seed.
    trials = sum(r["trials"] for r in rounds)
    latencies = [x for r in rounds for x in r["latencies_ms"]]
    pct, tail_ms, beyond = tail(latencies, workload.tail_pct)
    unscaled = {
        "trials_per_s": trials / sum(r["raw_seq_s"] for r in rounds),
        "trials_per_s_par": sum(r["par_trials"] for r in rounds) / sum(r["raw_par_s"] for r in rounds),
        "setup_s": statistics.median(wall for wall, _, _ in setup),
    }
    metrics = {
        "trials_per_s": trials / sum(r["seq_s"] for r in rounds),
        "trials_per_s_par": sum(r["par_trials"] for r in rounds) / sum(r["par_s"] for r in rounds),
        "accepted_ms_p50": statistics.mean(r["accepted_ms_p50"] for r in rounds),
        "trial_ms_tail": tail_ms,
        "setup_s": statistics.median(wall * scale for wall, _, scale in setup),
        "peak_rss_mb": rss_mb,
    }
    return {
        "failures": child["failures"],
        "attempted": trials + sum(r["par_trials"] for r in rounds),
        "metrics": metrics,
        "notes": {"trials_per_s": f"unscaled {unscaled['trials_per_s']:.6g}",
                  "trials_per_s_par": f"unscaled {unscaled['trials_per_s_par']:.6g}",
                  "setup_s": f"unscaled {unscaled['setup_s']:.6g}",
                  "accepted_ms_p50": f"mean over {len(rounds)} rounds of the round's median",
                  "trial_ms_tail": f"p{pct:g} of {len(latencies)} samples, {beyond} beyond it"},
        "repeats": {"rounds": len(rounds), "round_trials": workload.round_trials,
                    "setup": SETUP_REPEATS, "jobs": jobs},
    }


def traced_run(args, workload, jobs: int, family) -> dict:
    config = family.config_from_document(
        round_document(workload, args.seed, 0, trials=workload.trace_trials))
    # untraced, traced, untraced: the overhead ratio uses the mean of the two untraced
    # passes, which cancels a steady drift in machine speed
    untraced = drive(family, config, workload.mode)
    with Tracer() as tracer:
        traced = drive(family, config, workload.mode)
    again = drive(family, config, workload.mode)
    baseline_s = (untraced.seconds + again.seconds) / 2
    par_text, par_s = run_parallel(family, config, workload.mode, jobs)
    failures = []
    if traced.text != untraced.text or again.text != untraced.text:
        failures.append("tracing changed the report bytes")
    if par_text != untraced.text:
        failures.append(f"--jobs {jobs} report differs from --jobs 1")
    bad = violations(family, untraced.results)
    if bad:
        failures.append(f"{bad} VIOLATION trials")

    metrics = layer_metrics(tracer, traced, untraced)
    metrics["trace.overhead"] = traced.seconds / baseline_s
    metrics["family.pool.efficiency"] = baseline_s / (par_s * jobs)
    metrics.update(rank_sweep())
    cli = spawn_times(["-c", IMPORT_CODE], CLI_REPEATS)
    imports = [float(out) for _, out, _ in cli]
    metrics["cli.import.ms"] = statistics.median(imports) * 1e3
    metrics["cli.interpreter_start.ms"] = statistics.median(
        wall - imp for (wall, _, _), imp in zip(cli, imports)) * 1e3
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    return {
        "failures": failures,
        "attempted": 4 * config.trials,
        "metrics": metrics,
        "notes": {"trace.overhead": f"{config.trials} trials traced against the same untraced"},
        "repeats": {"passes": 4, "cli": CLI_REPEATS, "jobs": jobs},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        family = library()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    jobs = len(os.sched_getaffinity(0))
    OUT.mkdir(exist_ok=True)

    gate_trials, failures = gate(family, workload, jobs)
    if args.trace:
        result = traced_run(args, workload, jobs, family)
        units = per_layer_units()
    else:
        result = timed_run(args, workload, jobs)
        units = END_TO_END
    failures += result["failures"]
    attempted = gate_trials + result["attempted"]

    values = result["metrics"]
    if set(values) != set(units):
        raise AssertionError(f"metrics {sorted(set(values) ^ set(units))} do not match the declared set")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    doc = {"provenance": provenance(args, result["repeats"]), "failures": failures,
           "notes": result["notes"], "attempted": attempted, "metrics": metrics}

    print("provenance: " + json.dumps(doc["provenance"], sort_keys=True))
    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)
    print(f"fail_ratio: {len(failures) / attempted:g} ({len(failures)} failed / {attempted} attempted)")
    for name, m in metrics.items():
        note = result["notes"].get(name)
        print(f"  {name:56s} {m['value']:14.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
