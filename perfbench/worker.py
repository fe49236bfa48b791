"""One benchmark process: set up, run a workload for a time budget, check it.

``run.py`` starts this script in a fresh interpreter with the BLAS thread
count pinned in its environment.  It prints one JSON object as the last
line of its standard output.

    python3 perfbench/worker.py --setup
    python3 perfbench/worker.py --workload solve-p1 --seed 1 --seconds 30 --trace 0

A pass runs every operation of the workload once; passes repeat while the
next one is expected to end inside ``--seconds`` (there is always at least
one).  Outputs are checked after the last pass, outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
INSTANCE = "p1_mpec"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# output checks, the tolerances of tier-1 acceptance criterion 2
P1_VALUE, P1_VALUE_TOL = 0.9843, 0.02
P1_POINT, P1_POINT_TOL = (0.0, 1.0), 0.1
FIT_TOL = 1e-6

# workload -> (epsilon, k_start, k_max, every set empty) of the one
# solve_mpec call per pass
SOLVES = {
    "solve-p1": (5e-4, 3, 5, False),
    "solve-p1-k4": (5e-4, 3, 4, False),
    "empty-p1": (1e-6, 3, 5, True),
}
# workload -> the orders of one value fit each per pass
FITS = {
    "fit-p1": (3, 4, 5, 6),
    "fit-p1-k5": (3, 4, 5),
}
WORKLOADS = tuple(SOLVES) + tuple(FITS)


def import_program():
    """Import mpecsos from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import mpecsos

    if SRC.resolve() not in Path(mpecsos.__file__).resolve().parents:
        raise SystemExit(f"mpecsos imported from {mpecsos.__file__}, not {SRC}")
    return mpecsos


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", ""),
    }


class ReferenceKernel:
    """A fixed dense linear-algebra computation that runs no mpecsos code.

    On a shared host the speed of the same pass drifts by up to 2x over
    minutes, and process CPU time drifts with it.  The kernel is timed
    before and after every pass; a pass's wall time divided by the mean of
    the two is ``wall_ref``, which that drift cancels out of.  It repeats
    the solver's own kinds of work at its sizes -- LU solves, symmetric
    eigenvalues and the batched products of Schur assembly over a 7 MB
    stack of 56x56 blocks -- so contention for the core or the cache slows
    it about as much as a pass.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        a = rng.standard_normal((300, 300))
        self.spd = a @ a.T + 300 * np.eye(300)
        self.small = rng.standard_normal((120, 120))
        self.stack = rng.standard_normal((300, 56, 56))
        self.block = self.spd[:56, :56] / 300

    def seconds(self) -> float:
        import numpy as np
        import scipy.linalg as sla

        tick = time.perf_counter()
        for _ in range(60):
            sla.lu_solve(sla.lu_factor(self.spd), self.spd[:, :50])
        for _ in range(300):
            c = self.small @ self.small
            np.linalg.eigvalsh(c + c.T)
        rows = len(self.stack)
        for _ in range(15):
            t = np.matmul(self.block, np.matmul(self.stack, self.block))
            self.stack.reshape(rows, -1) @ t.reshape(rows, -1).T
        return time.perf_counter() - tick


def operations(mpecsos, problem, workload, rng):
    """(label, thunk) per operation of one pass."""
    if workload in FITS:
        orders = list(FITS[workload])
        rng.shuffle(orders)
        fit = mpecsos.valuefn
        return [
            (k, lambda k=k: fit.compute_value_approximation(problem, k)) for k in orders
        ]
    epsilon, k_start, k_max, _ = SOLVES[workload]
    config = mpecsos.driver.AlgoConfig(epsilon=epsilon, k_start=k_start, k_max=k_max)
    return [("solve", lambda: mpecsos.driver.solve_mpec(problem, config))]


def output_values(workload, outputs) -> dict:
    """Results that must repeat exactly, by operation label."""
    if workload in FITS:
        return {
            str(k): [a.rho, [row["coefficient"] for row in a.coefficient_table()]]
            for k, a in sorted(outputs.items())
        }
    trace = outputs["solve"]
    return {
        "final_value": repr(trace.final_value),
        "final_points": [list(p) for p in trace.final_points],
        "termination": trace.termination.value,
        "set_status": [r.set_status for r in trace.records],
    }


def check_outputs(mpecsos, problem, workload, outputs) -> list:
    """One message per operation whose output is wrong."""
    failures = []
    if workload in FITS:
        rho = {}
        for k, approx in outputs.items():
            violation = mpecsos.valuefn.lower_bound_violation(approx, problem)
            if approx.identity_error > FIT_TOL or violation > FIT_TOL:
                failures.append(
                    f"k={k}: identity_error {approx.identity_error:.3g}, "
                    f"lower_bound_violation {violation:.3g}"
                )
            else:
                rho[k] = approx.rho
        ks = sorted(rho)
        failures += [
            f"k={b}: rho {rho[b]!r} below rho at k={a}"
            for a, b in zip(ks, ks[1:])
            if rho[b] < rho[a]
        ]
        return failures
    if "solve" not in outputs:
        return []
    trace = outputs["solve"]
    problems = mpecsos.verify_report(mpecsos.trace_to_report(trace))
    if SOLVES[workload][3]:
        if trace.termination.value != "AllEmpty":
            problems.append(f"termination {trace.termination.value}")
        statuses = {r.set_status for r in trace.records}
        if statuses != {"EmptyCertified"}:
            problems.append(f"set statuses {sorted(statuses)}")
    else:
        if not abs(trace.final_value - P1_VALUE) <= P1_VALUE_TOL:
            problems.append(f"final value {trace.final_value!r}")
        if not any(math.dist(p, P1_POINT) <= P1_POINT_TOL for p in trace.final_points):
            problems.append(f"no final point near {P1_POINT}: {trace.final_points}")
    return [f"solve: {'; '.join(problems)}"] if problems else []


def run_workload(args) -> dict:
    mpecsos = import_program()
    from tracer import EXACT_METRICS, Tracer, layer_metrics

    tick = time.perf_counter()
    problem = mpecsos.problems.bundled_instance(INSTANCE)
    load_s = time.perf_counter() - tick
    rng = random.Random(args.seed)
    tracer = Tracer(timed=bool(args.trace))
    tracer.install()
    reference = ReferenceKernel()
    passes, failures, attempted, complete = [], [], 0, True
    began = time.perf_counter()
    ref_before = reference.seconds()
    while True:
        tracer.reset()
        ops = operations(mpecsos, problem, args.workload, rng)
        outputs, errors = {}, []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for label, thunk in ops:
            try:
                outputs[label] = thunk()
            except Exception:  # a failed operation is counted, not fatal
                errors.append(f"{label}: {traceback.format_exc(limit=3)}")
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        ref_after = reference.seconds()
        layers = layer_metrics(tracer.spans)
        layers["problems.load_s"] = load_s
        passes.append({
            "wall_s": wall,
            "cpu_s": cpu,
            "ref_s": (ref_before + ref_after) / 2,
            "layers": layers,
            "outputs": outputs,
        })
        ref_before = ref_after
        attempted += len(ops)
        failures += errors
        complete = complete and not errors
        if time.perf_counter() - began + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer.uninstall()

    values = []
    for p in passes:
        outputs = p.pop("outputs")
        failures += check_outputs(mpecsos, problem, args.workload, outputs)
        exact = output_values(args.workload, outputs) if complete else None
        values.append([exact, {n: p["layers"][n] for n in EXACT_METRICS}])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "repeatable": all(v == values[0] for v in values),
        "exact": values[0],
        "passes": passes,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup", action="store_true", help="time set-up only")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.setup:
        tick = time.perf_counter()
        import_program().problems.bundled_instance(INSTANCE)
        result = {"setup_s": time.perf_counter() - tick}
    elif args.workload:
        result = run_workload(args)
    else:
        parser.error("give --setup or --workload")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
