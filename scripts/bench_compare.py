#!/usr/bin/env python3
"""Check the planner's cost-model calibration from a metrics dump.

Usage:

  python3 scripts/bench_compare.py --calibration metrics.json

Reads a metrics-registry JSON dump (example_metrics_dump --json) and
distills the planner's predicted-vs-observed cost ratio from
moa_plan_observed_scalar_total / moa_plan_predicted_scalar_total. Warns
(non-fatally: exit code stays 0) when the drift exceeds 25% in either
direction — the signal that the cost model's constants need re-fitting.
Exit code 2 for malformed input or a dump with no planner traffic.

Benchmark numbers live in BENCHMARK.json and perfbench/run.py; see
CONTRIBUTING.md for the recalibration procedure.
"""

import json
import sys

CALIBRATION_DRIFT_THRESHOLD = 0.25


def calibration(metrics_path):
    """Predicted-vs-observed planner calibration from a registry dump."""
    with open(metrics_path, "r", encoding="utf-8") as f:
        dump = json.load(f)
    totals = {}
    for counter in dump.get("counters", []):
        name = counter.get("name")
        if name in ("moa_plan_predicted_scalar_total",
                    "moa_plan_observed_scalar_total"):
            totals[name] = totals.get(name, 0.0) + float(counter["value"])
    predicted = totals.get("moa_plan_predicted_scalar_total", 0.0)
    observed = totals.get("moa_plan_observed_scalar_total", 0.0)
    if predicted <= 0.0 or observed <= 0.0:
        print(
            "bench_compare: no planner traffic in metrics dump "
            f"(predicted={predicted}, observed={observed})", file=sys.stderr)
        return 2
    ratio = observed / predicted
    drift = abs(ratio - 1.0)
    if drift > CALIBRATION_DRIFT_THRESHOLD:
        print(
            f"WARNING: planner cost model drift {drift:.1%} "
            f"(observed/predicted = {ratio:.3f}; predicted "
            f"{predicted:.4g}, observed {observed:.4g}) — the scalar "
            "cost constants likely need re-fitting (non-fatal)",
            file=sys.stderr)
    else:
        print(
            f"bench_compare: planner calibrated within "
            f"{CALIBRATION_DRIFT_THRESHOLD:.0%} "
            f"(observed/predicted = {ratio:.3f})")
    return 0


def main(argv):
    if len(argv) == 3 and argv[1] == "--calibration":
        return calibration(argv[2])
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except (OSError, json.JSONDecodeError, KeyError, TypeError,
            ValueError) as err:
        print(f"bench_compare: malformed input: {err}", file=sys.stderr)
        sys.exit(2)
