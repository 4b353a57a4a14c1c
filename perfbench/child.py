"""Timed rounds of one workload, run in a process of their own so that the
parent can read its peak resident memory.

    python3 perfbench/child.py <workload> <seed> <seconds> <jobs>

Prints one JSON object: the rounds run and the failures seen.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

from driver import library, run_round
from workloads import WORKLOADS


def main(argv) -> int:
    name, seed, seconds, jobs = argv[0], int(argv[1]), float(argv[2]), int(argv[3])
    family = library()
    workload = WORKLOADS[name]
    rounds, failures = [], []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        k = len(rounds)
        try:
            result = run_round(family, workload, seed, k, jobs)
        except Exception:  # a trial raised: record it and stop, the run has failed
            traceback.print_exc()
            failures.append(f"round {k}: a trial raised")
            break
        failures.extend(result.pop("failures"))
        rounds.append(result)
    json.dump({"rounds": rounds, "failures": failures}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
