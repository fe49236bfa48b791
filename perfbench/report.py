"""Print every end-to-end and per-layer metric of every workload, with units.

    python3 perfbench/report.py [--workload solve-p1 ...] [--out report.json]

For each workload: set-up timed in fresh interpreters, then two untraced
runs and one traced run, each a single pass at one BLAS thread.  The
end-to-end metrics are the medians of the untraced runs; the per-layer
metrics come from the traced run.  The report also gives the tracing
overhead (traced ``wall_s`` minus the untraced median) and checks that the
exact metrics -- SDP iteration, status and coefficient counts, fit and
certificate counts and residuals -- and the final values are identical
across all three runs.  It exits with 1 when an output check or that
self-check fails.  Takes about three minutes on a 2-core host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from run import END_TO_END, RUN_LIMIT_S, SETUP_SAMPLES, run_worker, setup_samples, summarize
from tracer import LAYER_METRICS
from worker import WORKLOADS


def measure(workload: str) -> dict:
    def once(trace):
        args = ["--workload", workload, "--seed", 0, "--seconds", 0, "--trace", trace]
        return run_worker(args, time.monotonic() + RUN_LIMIT_S)

    setup = setup_samples(SETUP_SAMPLES, time.monotonic() + RUN_LIMIT_S)
    untraced = [once(0), once(0)]
    traced = once(1)
    runs = untraced + [traced]
    plain = [summarize(r, setup) for r in untraced]
    end_to_end = {n: statistics.median(m[n] for m in plain) for n in END_TO_END}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    end_to_end["failed_frac"] = failed / attempted
    return {
        "end_to_end": end_to_end,
        "per_layer": summarize(traced, []),
        "tracing_overhead_s": traced["passes"][0]["wall_s"] - end_to_end["wall_s"],
        "untraced_wall_s": [m["wall_s"] for m in plain],
        "failures": [f for r in runs for f in r["failures"]],
        "self_check": all(r["exact"] == runs[0]["exact"] for r in runs)
        and all(r["repeatable"] for r in runs),
        "env": traced["env"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out", help="also write the report as JSON here")
    args = parser.parse_args()
    report = {w: measure(w) for w in args.workload or WORKLOADS}
    units = dict(END_TO_END, failed_frac="frac")
    ok = True
    for workload, r in report.items():
        print(f"== {workload}")
        for name, value in r["end_to_end"].items():
            print(f"  {name:32s} {value:14.6g} {units[name]}")
        for name, (unit, _) in LAYER_METRICS.items():
            print(f"  {name:32s} {r['per_layer'][name]:14.6g} {unit}")
        print(f"  {'tracing_overhead_s':32s} {r['tracing_overhead_s']:14.6g} s")
        print(f"  exact counts and values identical over 2 untraced + 1 traced run: "
              f"{'yes' if r['self_check'] else 'NO'}")
        for failure in r["failures"]:
            print(f"  FAILED {failure}")
        ok = ok and r["self_check"] and not r["failures"]
    print("env", json.dumps(next(iter(report.values()))["env"]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
