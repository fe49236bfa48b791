"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload solve-p1-k4 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Set-up is timed in several fresh
interpreters and the workload runs in one more, each with the BLAS thread
count pinned to one (``threadpoolctl`` is not available, so the pinning is
done through the environment before numpy loads).  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The line before it holds every metric the run
measured, the environment and the per-pass times.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import EXACT_METRICS, LAYER_METRICS
from worker import THREAD_VARS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0  # a run must end within 180 s
END_TO_END = {
    "wall_ref": "ref",
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_worker(args, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *map(str, args)],
            env=pinned_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"worker {args} exceeded {timeout:.0f} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def setup_samples(n: int, deadline: float) -> list:
    return [run_worker(["--setup"], deadline)["setup_s"] for _ in range(n)]


def summarize(result: dict, setup: list) -> dict:
    """Medians over the passes of one worker run, by metric name.

    An untraced run has no layer times, only the exact metrics.
    """
    passes = result["passes"]
    metrics = {
        "wall_ref": statistics.median(p["wall_s"] / p["ref_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    for name in LAYER_METRICS if result["trace"] else EXACT_METRICS:
        metrics[name] = statistics.median(p["layers"][name] for p in passes)
    return metrics


def declared_metrics(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json asks for in this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if trace else "end_to_end"]
    known = {n: u for n, (u, _) in LAYER_METRICS.items()} if trace else END_TO_END
    out = {}
    for metric in declared:
        if known.get(metric["name"]) != metric["unit"]:
            raise BenchmarkError(f"BENCHMARK.json metric {metric} is not measured")
        out[metric["name"]] = metric["unit"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "mpecsos" / "__init__.py").is_file():
        print(f"no mpecsos source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        wanted = declared_metrics(args.trace)
        setup = [] if args.trace else setup_samples(SETUP_SAMPLES, deadline)
        result = run_worker(
            ["--workload", args.workload, "--seed", args.seed,
             "--seconds", args.seconds, "--trace", args.trace],
            deadline,
        )
    except BenchmarkError as err:
        print(err, file=sys.stderr)
        return 1
    metrics = summarize(result, setup)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": result["env"],
        "setup_samples_s": setup,
        "pass_wall_s": [p["wall_s"] for p in result["passes"]],
        "pass_ref_s": [p["ref_s"] for p in result["passes"]],
        "failures": result["failures"],
        "repeatable": result["repeatable"],
        "all_metrics": metrics,
    }))
    print(json.dumps({
        "correct": result["failed"] == 0 and result["repeatable"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
