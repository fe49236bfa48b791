"""End-to-end solve loop for perturbed equilibrium-constrained programs.

For a fixed perturbation eps > 0 the loop walks the approximation order k
upward.  Each iteration (a) fits the order-k value-function polynomial,
(b) minimizes the objective over the perturbed feasible set

    S_k = { z in Omega : g_i(z) >= -eps, h_j(z) >= -eps, J_k(z) >= -eps }

through the bounded moment hierarchy, extracting candidate minimizers when
the relaxation goes flat.  The hierarchy's first order is also the
emptiness test: an order that ends with a Putinar ray certifies S_k empty
(bump k and retry -- the approximation is still too far below the true
value function), and the record's set status is then EmptyCertified;
every other record is Unknown.  The running best value is non-increasing
by construction; the loop stops when it improves by less than STOP_TOL for
STALL_ITERATIONS successful iterations in a row, when k exceeds its cap,
or when every iteration certified emptiness.  Each hierarchy runs at most
RELAX_ORDER_EXTRA orders above its first.

The perturbation-scaling fit estimates the local power law of the
reference value as a function of eps from oracle sweeps; a flat sweep is
reported through the degenerate constant branch instead of a bogus
exponent.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .polynomials import Polynomial
from .problems import MpecProblem
from .sdp import SolverOptions
from .sos import FeasibilityStatus, RelaxationError, minimize_hierarchy
# kept importable here because perfbench/tracer.py wraps this name
from .sos import certify_feasibility  # noqa: F401
from .valuefn import ValueFunctionApprox, compute_value_approximation

POINT_FEAS_TOL = 1e-6
RELAX_ORDER_EXTRA = 2
STOP_TOL = 1e-6
STALL_ITERATIONS = 2
EMPTY = FeasibilityStatus.EMPTY_CERTIFIED.value
UNKNOWN = FeasibilityStatus.UNKNOWN.value


class Termination(enum.Enum):
    CONVERGED = "Converged"
    K_MAX = "KMax"
    ALL_EMPTY = "AllEmpty"


@dataclass(frozen=True)
class AlgoConfig:
    epsilon: float
    k_start: int
    k_max: int

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.k_max < self.k_start:
            raise ValueError("k_max must be at least k_start")


@dataclass
class IterationRecord:
    order: int
    approx: Optional[ValueFunctionApprox]
    set_status: str
    value: Optional[float]
    relaxation_order: Optional[int]
    flat: bool
    points: List[Tuple[float, ...]]
    best_value: Optional[float]
    seconds: float
    error: Optional[str] = None


@dataclass
class AlgorithmTrace:
    problem_name: str
    epsilon: float
    k_start: int
    k_max: int
    records: List[IterationRecord]
    final_value: float
    final_points: List[Tuple[float, ...]]
    termination: Termination
    total_seconds: float

    def successful_records(self) -> List[IterationRecord]:
        return [r for r in self.records if r.value is not None]


def _perturbed_generators(
    problem: MpecProblem, approx: ValueFunctionApprox, eps: float
) -> List[Polynomial]:
    z_vars = problem.z_vars
    gens = [g + eps for g in problem.constraints_g]
    gens += [h + eps for h in problem.constraints_h]
    gens.append(approx.polynomial.in_variables(z_vars) + eps)
    gens += problem.box.polynomials(z_vars)
    return gens


def point_feasibility(
    problem: MpecProblem,
    approx: ValueFunctionApprox,
    point: Sequence[float],
    eps: float,
    tol: float = POINT_FEAS_TOL,
) -> bool:
    """Candidate point satisfies every perturbed constraint within tol."""
    gens = _perturbed_generators(problem, approx, eps)
    return all(p.evaluate(point) >= -tol for p in gens)


def solve_mpec(
    problem: MpecProblem,
    config: AlgoConfig,
    options: Optional[SolverOptions] = None,
    approx_cache: Optional[Dict[int, ValueFunctionApprox]] = None,
) -> AlgorithmTrace:
    """Run the order-walking loop at one fixed perturbation.

    ``approx_cache`` shares already-fitted value polynomials between runs
    (they do not depend on eps, so a ladder of perturbations reuses them).
    """
    if config.k_start < problem.min_order():
        raise ValueError(
            f"k_start {config.k_start} below admissible order {problem.min_order()}"
        )
    eps = config.epsilon
    cache = approx_cache if approx_cache is not None else {}
    records: List[IterationRecord] = []
    best: Optional[float] = None
    best_points: List[Tuple[float, ...]] = []
    stall = 0
    termination = Termination.K_MAX
    started = time.perf_counter()

    f = problem.objective_f
    half_deg_f = math.ceil(f.degree / 2)

    def record(
        approx: Optional[ValueFunctionApprox],
        set_status: str,
        relaxation_order: Optional[int] = None,
        value: Optional[float] = None,
        flat: bool = False,
        points: Optional[List[Tuple[float, ...]]] = None,
        error: Optional[str] = None,
    ) -> IterationRecord:
        """Record of the current order k.

        best_value is the running best; seconds run from the start of k.
        """
        return IterationRecord(
            order=k,
            approx=approx,
            set_status=set_status,
            value=value,
            relaxation_order=relaxation_order,
            flat=flat,
            points=points or [],
            best_value=best,
            seconds=time.perf_counter() - tick,
            error=error,
        )

    for k in range(config.k_start, config.k_max + 1):
        tick = time.perf_counter()
        try:
            approx = cache.get(k)
            if approx is None:
                approx = compute_value_approximation(problem, k, options)
                cache[k] = approx
        except (RelaxationError, ValueError) as err:
            records.append(
                record(None, "Error", error=f"value approximation failed: {err}")
            )
            continue

        gens = _perturbed_generators(problem, approx, eps)
        t0 = max([1, k, half_deg_f] + [math.ceil(g.degree / 2) for g in gens])
        try:
            hier = minimize_hierarchy(
                f,
                gens,
                t0,
                t0 + RELAX_ORDER_EXTRA,
                options,
                scaling=problem.box.halfwidths,
            )
        except RelaxationError as err:
            records.append(record(approx, UNKNOWN, error=f"relaxation failed: {err}"))
            continue
        if hier.infeasible:
            records.append(record(approx, EMPTY, hier.order))
            continue

        value = hier.bound
        points = [
            tuple(float(v) for v in atom)
            for atom in hier.atoms
            if point_feasibility(problem, approx, atom, eps)
        ]
        previous = best
        best = value if best is None else min(best, value)
        improvement = math.inf if previous is None else previous - best
        stall = stall + 1 if improvement < STOP_TOL else 0

        records.append(record(approx, UNKNOWN, hier.order, value, hier.flat, points))
        if stall >= STALL_ITERATIONS:
            termination = Termination.CONVERGED
            break

    if all(r.set_status == EMPTY for r in records):
        termination = Termination.ALL_EMPTY
    elif best is not None:
        # points of the best-valued iteration; fall back to the best
        # iteration that managed to extract any point at all
        with_points = [r for r in records if r.value is not None and r.points]
        exact = [r for r in with_points if r.value == best]
        if exact:
            best_points = exact[-1].points
        elif with_points:
            best_points = min(with_points, key=lambda r: r.value).points
    return AlgorithmTrace(
        problem_name=problem.name,
        epsilon=eps,
        k_start=config.k_start,
        k_max=config.k_max,
        records=records,
        final_value=best if best is not None else math.nan,
        final_points=best_points,
        termination=termination,
        total_seconds=time.perf_counter() - started,
    )


def run_epsilon_ladder(
    problem: MpecProblem,
    ladder: Sequence[float],
    k_start: int,
    k_max: int,
    options: Optional[SolverOptions] = None,
) -> List[Tuple[float, AlgorithmTrace]]:
    """Re-run the loop along a decreasing ladder of perturbations.

    The fitted value polynomials are shared across the ladder.  The trend
    of the final values is the reported estimate of the unperturbed
    optimum; it is an extrapolation, not a certified value.
    """
    configs = [AlgoConfig(eps, k_start, k_max) for eps in ladder]
    if any(b.epsilon >= a.epsilon for a, b in zip(configs, configs[1:])):
        raise ValueError("ladder entries must be strictly decreasing")
    cache: Dict[int, ValueFunctionApprox] = {}
    return [
        (cfg.epsilon, solve_mpec(problem, cfg, options, approx_cache=cache))
        for cfg in configs
    ]


def ladder_summary(runs: Sequence[Tuple[float, AlgorithmTrace]]) -> dict:
    """Condensed view of a perturbation ladder.

    The reported trend is the final value at the smallest perturbation, an
    extrapolation target rather than a certified optimum; the deltas show
    how quickly the values settle as eps shrinks.
    """
    values = [(eps, trace.final_value) for eps, trace in runs]
    finite = [(e, v) for e, v in values if not math.isnan(v)]
    deltas = [b - a for (_, a), (_, b) in zip(finite, finite[1:])]
    return {
        "values": values,
        "trend": finite[-1][1] if finite else math.nan,
        "deltas": deltas,
    }


def within_upper_bound(
    trace: AlgorithmTrace, reference_value: float, epsilon: float
) -> bool:
    """Final value sits below the reference plus the perturbation budget."""
    if not trace.successful_records():
        raise ValueError("trace has no successful iteration")
    return trace.final_value < reference_value + epsilon + 1e-6


# ----------------------------------------------------------------------
# perturbation scaling


@dataclass(frozen=True)
class PerturbationFit:
    c: float
    q: float
    residual: float
    samples: Tuple[Tuple[float, float], ...]
    constant: bool = False


def fit_perturbation_scaling(
    samples: Sequence[Tuple[float, float]],
    reference_value: float,
) -> PerturbationFit:
    """Least-squares power-law fit of the value gap against eps.

    Fits log(reference - value) = log(-c) + q * log(eps) over samples
    whose gap is meaningfully positive; when every gap vanishes the
    constant branch is reported as c = 0 with an undefined exponent.
    """
    usable = [(e, v) for e, v in samples if e > 0]
    if len(usable) < 3:
        raise ValueError("need at least three samples with positive eps")
    for _, v in usable:
        if v > reference_value + 1e-9:
            raise ValueError("sample value exceeds the reference")
    gaps = [(e, reference_value - v) for e, v in usable]
    positive = [(e, g) for e, g in gaps if g > 1e-9]
    if not positive:
        return PerturbationFit(
            c=0.0,
            q=math.nan,
            residual=0.0,
            samples=tuple(usable),
            constant=True,
        )
    if len(positive) < 3:
        raise ValueError("fewer than three samples with a positive gap")
    log_e = np.array([math.log(e) for e, _ in positive])
    log_g = np.array([math.log(g) for _, g in positive])
    design = np.stack([np.ones_like(log_e), log_e], axis=-1)
    theta, *_ = np.linalg.lstsq(design, log_g, rcond=None)
    resid = float(np.linalg.norm(design @ theta - log_g))
    return PerturbationFit(
        c=-math.exp(theta[0]),
        q=float(theta[1]),
        residual=resid,
        samples=tuple(usable),
        constant=False,
    )


# ----------------------------------------------------------------------
# serializable reports


def trace_to_report(trace: AlgorithmTrace) -> dict:
    """JSON-safe report with everything needed to re-check the invariants."""
    return {
        "problem": trace.problem_name,
        "epsilon": trace.epsilon,
        "k_start": trace.k_start,
        "k_max": trace.k_max,
        "termination": trace.termination.value,
        "final_value": trace.final_value,
        "final_points": [list(p) for p in trace.final_points],
        "total_seconds": trace.total_seconds,
        "records": [
            {
                "order": r.order,
                "set_status": r.set_status,
                "value": r.value,
                "relaxation_order": r.relaxation_order,
                "flat": r.flat,
                "points": [list(p) for p in r.points],
                "best_value": r.best_value,
                "seconds": r.seconds,
                "error": r.error,
                "rho": r.approx.rho if r.approx else None,
                "approx_gap": r.approx.gap if r.approx else None,
                "coefficients": r.approx.coefficient_table() if r.approx else None,
            }
            for r in trace.records
        ],
    }


def verify_report(report: dict) -> List[str]:
    """Re-assert the recorded invariants on a (re-read) report.

    Returns a list of violations; an empty list means the report is
    internally consistent.
    """
    problems = []
    best = None
    # every comparison is written to fail on NaN
    for rec in report["records"]:
        if rec["set_status"] == EMPTY and (rec["value"] is not None or rec["points"]):
            problems.append(f"order {rec['order']}: empty set carries a value or points")
        if rec["value"] is not None:
            if best is None or not rec["value"] >= best:
                best = rec["value"]
            if rec["best_value"] is None or not abs(rec["best_value"] - best) <= 1e-12:
                problems.append(
                    f"order {rec['order']}: best_value does not track the running min"
                )
    bests = [r["best_value"] for r in report["records"] if r["best_value"] is not None]
    for a, b in zip(bests, bests[1:]):
        if not b <= a + 1e-12:
            problems.append("best_value increased between records")
    all_empty = all(r["set_status"] == EMPTY for r in report["records"])
    if all_empty != (report["termination"] == Termination.ALL_EMPTY.value):
        problems.append("termination AllEmpty must mean every record EmptyCertified")
    if best is None:
        if not math.isnan(report["final_value"]):
            problems.append("final_value should be NaN when no iteration has a value")
    elif not abs(report["final_value"] - best) <= 1e-12:
        problems.append("final_value does not equal the last running best")
    return problems
