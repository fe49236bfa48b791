"""Command-line front end.

Subcommands: ``validate`` (sampled assumption checks), ``approx`` (fit the
value polynomial at one order and report diagnostics), ``solve`` (the full
perturbed solve loop), ``oracle`` (brute-force ground-truth queries) and
``fit-eps`` (power-law fit of the perturbation scaling from oracle
sweeps).  Human-readable numbers are printed with six decimals; report
files keep full double precision.

Exit codes: 0 success, 2 instance load/parse error, 3 solver failure,
4 precondition violation, 5 every iteration certified an empty set.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .driver import (
    AlgoConfig,
    Termination,
    fit_perturbation_scaling,
    solve_mpec,
    trace_to_report,
    within_upper_bound,
)
from .oracle import EMPTY_INNER, INFEASIBLE, inner_value, solve_perturbed_reference
from .polynomials import ParseError
from .problems import (
    BUNDLED_INSTANCES,
    MpecProblem,
    ProblemFormatError,
    bundled_instance,
    load_problem,
    validate_assumptions,
)
from .sos import RelaxationError
from .valuefn import compute_value_approximation, l1_distance, lower_bound_violation

EXIT_OK = 0
EXIT_LOAD = 2
EXIT_SOLVER = 3
EXIT_PRECONDITION = 4
EXIT_ALL_EMPTY = 5


def _load(instance: str) -> MpecProblem:
    path = Path(instance)
    if path.exists():
        return load_problem(path)
    if instance in BUNDLED_INSTANCES:
        return bundled_instance(instance)
    raise ProblemFormatError(
        f"no such instance file and no bundled instance named {instance!r}"
    )


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _fmt_point(point) -> str:
    return "(" + ", ".join(_fmt(v) for v in point) + ")"


def _parse_k_range(text: str):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    k = int(text)
    return k, k


def cmd_validate(args) -> int:
    problem = _load(args.instance)
    report = validate_assumptions(problem, sample_count=args.samples)
    for check in report.checks:
        flag = "ok" if check.passed else "WARNING"
        print(f"[{flag}] {check.name}: {check.detail}")
    for note in report.notes:
        print(f"[note] {note}")
    degrees = problem.degree_report()
    print(
        f"degrees: objective={degrees['objective']} phi={degrees['phi']} "
        f"g={degrees['g']} h={degrees['h']} minimum order={degrees['min_order']}"
    )
    return EXIT_OK


def cmd_approx(args) -> int:
    problem = _load(args.instance)
    approx = compute_value_approximation(problem, args.k)
    violation = lower_bound_violation(approx, problem, args.grid)
    distance = l1_distance(approx, problem, args.grid)
    print(f"order {args.k} fit over {', '.join(approx.fitted.variables)}")
    for row in approx.coefficient_table():
        mono = "*".join(
            f"{name}^{e}" if e > 1 else name
            for name, e in zip(approx.fitted.variables, row["exponents"])
            if e
        )
        print(f"  {mono or '1':<16} {_fmt(row['coefficient'])}")
    print(f"rho = {_fmt(approx.rho)}  solver gap = {approx.gap:.2e}")
    print(f"certificate residual = {approx.identity_error:.2e}")
    print(f"max overshoot vs oracle = {violation:.2e}")
    print(f"L1 distance estimate = {_fmt(distance)}")
    if args.out:
        payload = {
            "instance": problem.name,
            "order": args.k,
            "variables": list(approx.fitted.variables),
            "coefficients": approx.coefficient_table(),
            "rho": approx.rho,
            "solver_gap": approx.gap,
            "identity_error": approx.identity_error,
            "lower_bound_violation": violation,
            "l1_distance": distance,
        }
        Path(args.out).write_text(json.dumps(payload, indent=2))
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    problem = _load(args.instance)
    k_start, k_max = _parse_k_range(args.k)
    config = AlgoConfig(epsilon=args.eps, k_start=k_start, k_max=k_max)
    trace = solve_mpec(problem, config)
    for record in trace.records:
        value = "-" if record.value is None else _fmt(record.value)
        best = "-" if record.best_value is None else _fmt(record.best_value)
        extra = f" [{record.error}]" if record.error else ""
        print(
            f"k={record.order}: set={record.set_status} value={value} "
            f"best={best} flat={record.flat}{extra}"
        )
    print(f"termination: {trace.termination.value}")
    if trace.termination is Termination.ALL_EMPTY:
        print("every perturbed set was certified empty for the given orders")
        return EXIT_ALL_EMPTY
    if not trace.successful_records():
        print("solver failure: no order produced a value", file=sys.stderr)
        return EXIT_SOLVER
    print(f"final value: {_fmt(trace.final_value)}")
    for point in trace.final_points:
        print(f"final point: {_fmt_point(point)}")
    if args.fstar is not None:
        ok = within_upper_bound(trace, args.fstar, args.eps)
        print(f"upper bound vs reference {_fmt(args.fstar)}: {'ok' if ok else 'VIOLATED'}")
    if args.out:
        Path(args.out).write_text(json.dumps(trace_to_report(trace), indent=2))
        print(f"wrote {args.out}")
    if args.csv:
        rows = ["k,value,best_value"]
        for record in trace.records:
            value = "" if record.value is None else repr(record.value)
            best = "" if record.best_value is None else repr(record.best_value)
            rows.append(f"{record.order},{value},{best}")
        Path(args.csv).write_text("\n".join(rows) + "\n")
        print(f"wrote {args.csv}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    problem = _load(args.instance)
    if args.J is not None:
        dims = problem.n + problem.m
        if len(args.J) != dims:
            raise ValueError(
                f"--J needs {dims} coordinates for this instance, got {len(args.J)}"
            )
        value = inner_value(problem, args.J[: problem.n], args.J[problem.n :])
        if value is EMPTY_INNER:
            print("inner set empty at this point")
        else:
            print(_fmt(value))
        return EXIT_OK
    ref = solve_perturbed_reference(problem, args.Peps)
    if ref is INFEASIBLE:
        print("no feasible point on the reference grid")
        return EXIT_OK
    print(f"value: {_fmt(ref.value)}")
    print(f"point: {_fmt_point(ref.point)}")
    return EXIT_OK


def cmd_fit_eps(args) -> int:
    problem = _load(args.instance)
    eps_values = [float(tok) for tok in args.eps.split(",") if tok.strip()]
    if len(eps_values) < 3:
        raise ValueError("need at least three eps values")
    samples = []
    for eps in eps_values:
        ref = solve_perturbed_reference(problem, eps)
        if ref is INFEASIBLE:
            raise ValueError(f"reference solve infeasible at eps={eps}")
        samples.append((eps, ref.value))
        print(f"eps={eps:g}: value {_fmt(ref.value)}")
    fit = fit_perturbation_scaling(samples, args.fstar)
    if fit.constant:
        print("constant branch: c = 0 (no measurable gap), exponent undefined")
    else:
        print(f"c = {_fmt(fit.c)}")
        print(f"q = {_fmt(fit.q)}")
        print(f"residual = {fit.residual:.3e}")
    if args.csv:
        rows = ["eps,value"] + [f"{e!r},{v!r}" for e, v in samples]
        Path(args.csv).write_text("\n".join(rows) + "\n")
        print(f"wrote {args.csv}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpecsos",
        description="Global solver for polynomial programs with equilibrium "
        "constraints via moment-SOS relaxations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="sampled assumption checks")
    p_validate.add_argument("instance")
    p_validate.add_argument("--samples", type=int, default=4000)
    p_validate.set_defaults(func=cmd_validate)

    p_approx = sub.add_parser("approx", help="fit the value polynomial")
    p_approx.add_argument("instance")
    p_approx.add_argument("--k", type=int, required=True)
    p_approx.add_argument("--grid", type=int, default=41)
    p_approx.add_argument("--out")
    p_approx.set_defaults(func=cmd_approx)

    p_solve = sub.add_parser("solve", help="run the perturbed solve loop")
    p_solve.add_argument("instance")
    p_solve.add_argument("--eps", type=float, required=True)
    p_solve.add_argument("--k", default="3..5", help="order range, e.g. 3..5")
    p_solve.add_argument("--fstar", type=float, default=None)
    p_solve.add_argument("--out")
    p_solve.add_argument("--csv")
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="brute-force ground truth")
    p_oracle.add_argument("instance")
    group = p_oracle.add_mutually_exclusive_group(required=True)
    group.add_argument("--J", type=float, nargs="+", default=None,
                       help="inner value at the given outer point")
    group.add_argument("--Peps", type=float, default=None,
                       help="reference solve of the perturbed problem")
    p_oracle.set_defaults(func=cmd_oracle)

    p_fit = sub.add_parser("fit-eps", help="perturbation power-law fit")
    p_fit.add_argument("instance")
    p_fit.add_argument("--eps", required=True, help="comma-separated values")
    p_fit.add_argument("--fstar", type=float, required=True)
    p_fit.add_argument("--csv")
    p_fit.set_defaults(func=cmd_fit_eps)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProblemFormatError, ParseError, FileNotFoundError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_LOAD
    except RelaxationError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as err:
        print(f"precondition violated: {err}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
