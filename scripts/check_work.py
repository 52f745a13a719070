#!/usr/bin/env python3
"""Gate on executed work: the read workloads' work_per_query must equal the
values committed in scripts/work_per_query.json, to the last digit.

Usage, from the root of a checkout:

    python3 scripts/check_work.py

For every workload the JSON file names (search_memory and search_segments),
the script runs

    python3 perfbench/run.py --workload W --seed 7 --seconds 2 --trace 0 --size smoke

and requires a correct run, no failed query, and at least 200 attempted
queries, the size of the smoke query stream, so that every distinct query has
run and the mean over them is exact. It then compares work_per_query, the
mean CostCounters ticks per query, exactly with the committed value. The
ticks count executed work and repeat exactly for a seed; wall-clock metrics
vary with the machine and are not checked here.

A change that alters executed work updates scripts/work_per_query.json (the
script prints the measured values on failure) and says why in CHANGES.md.
Exits 0 when every workload matches, 1 otherwise.
"""

import json
import subprocess
import sys

EXPECTED = "scripts/work_per_query.json"
SMOKE_STREAM = 200


def measure(workload):
    """Returns (work_per_query, None) for a valid run, else (None, reason)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", "0", "--size", "smoke"],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None, "perfbench/run.py exited with code %d" % proc.returncode
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if result["correct"] is not True:
        return None, "wrong answers"
    if result["failed"] != 0:
        return None, "%d failed queries" % result["failed"]
    if result["attempted"] < SMOKE_STREAM:
        return None, "only %d queries attempted, fewer than the %d-query stream" % (
            result["attempted"], SMOKE_STREAM)
    return result["metrics"]["work_per_query"]["value"], None


def main():
    with open(EXPECTED) as f:
        expected = json.load(f)
    measured = {}
    ok = True
    for workload, want in sorted(expected.items()):
        got, error = measure(workload)
        if error is not None:
            print("%s: FAIL, %s" % (workload, error))
            ok = False
            continue
        measured[workload] = got
        same = got == want
        ok = ok and same
        print("%s: work_per_query %r ticks, committed %r: %s" % (
            workload, got, want, "ok" if same else "FAIL"))
    if not ok:
        print("check_work.py: executed work differs from %s; if the change "
              "means to alter it, commit these values and say why in "
              "CHANGES.md:\n%s" % (EXPECTED, json.dumps(measured, indent=2,
                                                        sort_keys=True)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
