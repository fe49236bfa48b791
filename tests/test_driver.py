"""End-to-end solve loop, perturbation scaling, and trace reports."""

import json
import math

import numpy as np
import pytest

from mpecsos.driver import (
    POINT_FEAS_TOL,
    AlgoConfig,
    PerturbationFit,
    Termination,
    fit_perturbation_scaling,
    point_feasibility,
    run_epsilon_ladder,
    solve_mpec,
    trace_to_report,
    verify_report,
    within_upper_bound,
)
from mpecsos.oracle import inner_value, solve_perturbed_reference
from mpecsos.polynomials import parse_polynomial
from mpecsos.problems import bundled_instance, load_problem
from mpecsos.sos import RelaxationError
from mpecsos.valuefn import ValueFunctionApprox


@pytest.fixture(scope="module")
def p1():
    return bundled_instance("p1_mpec")


@pytest.fixture(scope="module")
def p2():
    return bundled_instance("p2_bilevel")


@pytest.fixture(scope="module")
def p3():
    return bundled_instance("p3_sip")


@pytest.fixture(scope="module")
def p1_trace(p1):
    return solve_mpec(p1, AlgoConfig(epsilon=5e-4, k_start=3, k_max=4))


@pytest.fixture(scope="module")
def p2_trace(p2):
    return solve_mpec(p2, AlgoConfig(epsilon=1e-3, k_start=3, k_max=4))


@pytest.fixture(scope="module")
def p3_trace(p3):
    return solve_mpec(p3, AlgoConfig(epsilon=1e-4, k_start=2, k_max=3))


def test_p1_reproduces_reference_run(p1_trace):
    assert p1_trace.final_value == pytest.approx(0.9843, abs=0.02)
    point = p1_trace.final_points[0]
    assert abs(point[0] - 0.0) <= 0.1
    assert abs(point[1] - 1.0) <= 0.1


def test_p3_reproduces_reference_run(p3_trace):
    assert p3_trace.final_value == pytest.approx(-1e-4, abs=0.01)
    point = p3_trace.final_points[0]
    assert abs(point[0]) <= 0.05
    assert abs(point[1]) <= 0.05


def test_p2_agrees_with_oracle_reference(p2, p2_trace):
    """The bilevel run must land on the oracle's global reference for the
    perturbed problem (the perturbed quartic constraint opens a wider
    feasible strip than the unperturbed optimum suggests)."""
    ref = solve_perturbed_reference(p2, 1e-3)
    assert p2_trace.final_value >= ref.value - 5e-3
    assert p2_trace.final_value == pytest.approx(ref.value, abs=5e-3)


def test_best_value_nonincreasing(p1_trace, p2_trace, p3_trace):
    for trace in (p1_trace, p2_trace, p3_trace):
        bests = [r.best_value for r in trace.records if r.best_value is not None]
        for a, b in zip(bests, bests[1:]):
            assert b <= a


def test_sandwich_against_oracle(p1, p2, p3, p1_trace, p2_trace, p3_trace):
    for prob, trace in ((p1, p1_trace), (p2, p2_trace), (p3, p3_trace)):
        ref = solve_perturbed_reference(prob, trace.epsilon)
        for rec in trace.successful_records():
            assert rec.value >= ref.value - 5e-3


def test_final_points_feasible(p1, p2, p3, p1_trace, p2_trace, p3_trace):
    for prob, trace in ((p1, p1_trace), (p2, p2_trace), (p3, p3_trace)):
        eps = trace.epsilon
        for point in trace.final_points:
            for g in prob.constraints_g:
                assert g.evaluate(point) >= -eps - 1e-6
            for h in prob.constraints_h:
                assert h.evaluate(point) >= -eps - 1e-6
            truth = inner_value(prob, point[: prob.n], point[prob.n :])
            assert truth >= -eps - 5e-3


def test_upper_bound_property(p1_trace, p2_trace, p3_trace):
    assert within_upper_bound(p1_trace, 1.0, p1_trace.epsilon)
    assert within_upper_bound(p2_trace, 2.0, p2_trace.epsilon)
    assert within_upper_bound(p3_trace, 0.0, p3_trace.epsilon)


def test_upper_bound_negative_control(p1_trace):
    # a reference far below the achieved value must fail the check
    assert not within_upper_bound(p1_trace, p1_trace.final_value - 1.0, 1e-4)


def test_epsilon_ladder_monotone(p1):
    runs = run_epsilon_ladder(p1, (1e-2, 1e-3), 3, 3)
    assert [eps for eps, _ in runs] == [1e-2, 1e-3]
    v_large, v_small = runs[0][1].final_value, runs[1][1].final_value
    assert v_small >= v_large - 1e-6


def test_all_empty_termination():
    doc = """
objective: "x + y"
A: ["-1 - x^2"]
B: ["1 - x^2", "1 - y^2"]
phi: "x*v^2/2 - v^3/3 - (x*y^2/2 - y^3/3)"
M: 1.0
variables:
  x: [x]
  y: [y]
"""
    prob = load_problem(doc)
    trace = solve_mpec(prob, AlgoConfig(epsilon=1e-3, k_start=2, k_max=3))
    assert trace.termination is Termination.ALL_EMPTY
    assert math.isnan(trace.final_value)
    assert all(r.set_status == "EmptyCertified" for r in trace.records)
    assert all(r.value is None for r in trace.records)


def _fail(*args, **kwargs):
    raise RelaxationError("identity program not solved: NumericalTrouble")


@pytest.mark.parametrize(
    "stage", ["compute_value_approximation", "minimize_hierarchy"]
)
def test_failed_orders_are_not_all_empty(p1, stage, monkeypatch):
    """Orders whose fit or hierarchy fails certify nothing: the run ends
    KMax with a NaN final value, and a report claiming AllEmpty is flagged."""
    monkeypatch.setattr(f"mpecsos.driver.{stage}", _fail)
    trace = solve_mpec(p1, AlgoConfig(epsilon=5e-4, k_start=3, k_max=3))
    assert [r.set_status for r in trace.records] == [
        "Error" if stage == "compute_value_approximation" else "Unknown"
    ]
    assert trace.records[0].error
    assert trace.termination is Termination.K_MAX
    assert math.isnan(trace.final_value)
    report = json.loads(json.dumps(trace_to_report(trace)))
    assert verify_report(report) == []
    report["termination"] = "AllEmpty"
    assert verify_report(report)


def test_config_validation():
    with pytest.raises(ValueError):
        AlgoConfig(epsilon=0.0, k_start=2, k_max=3)
    with pytest.raises(ValueError):
        AlgoConfig(epsilon=1e-3, k_start=4, k_max=3)


def _no_solve(*args, **kwargs):
    pytest.fail("solved before the ladder was checked")


def test_ladder_must_decrease(p1, monkeypatch):
    monkeypatch.setattr("mpecsos.driver.solve_mpec", _no_solve)
    with pytest.raises(ValueError, match="strictly decreasing"):
        run_epsilon_ladder(p1, (1e-3, 1e-2), 2, 3)
    with pytest.raises(ValueError, match="strictly decreasing"):
        run_epsilon_ladder(p1, (1e-3, 1e-3), 2, 3)


@pytest.mark.parametrize(
    "fields",
    [
        {"epsilon": math.nan},
        {"epsilon": math.inf},
        {"ladder": (math.inf, 1e-3)},
        {"ladder": (1e-2, math.nan)},
    ],
    ids=["nan-eps", "inf-eps", "inf-ladder", "nan-ladder"],
)
def test_config_rejects_non_finite_numbers(fields, p1, monkeypatch):
    # the ladder is checked whole before its first solve
    monkeypatch.setattr("mpecsos.driver.solve_mpec", _no_solve)
    with pytest.raises(ValueError, match="finite"):
        if "ladder" in fields:
            run_epsilon_ladder(p1, fields["ladder"], 2, 3)
        else:
            AlgoConfig(**{"epsilon": 1e-3, "k_start": 2, "k_max": 3, **fields})


def test_point_feasibility_tests_each_perturbed_constraint():
    # g = x, h = y, the box |x|, |y| <= 1 and J = 0.5 - y; g, h and J may
    # dip to -eps, the box may not
    prob = load_problem(
        "variables: {x: [x], y: [y]}\nobjective: x + y\nA: [x]\nB: [y]\n"
        "phi: v - y\nM: 1\n"
    )
    j = parse_polynomial("0.5 - y", prob.z_vars)
    approx = ValueFunctionApprox(1, j, j, 0.0, 0.0, (), 0.0)
    eps, tol = 1e-3, POINT_FEAS_TOL
    miss = eps + 2 * tol
    assert point_feasibility(prob, approx, [0.2, 0.2], eps)
    assert point_feasibility(prob, approx, [-eps, 0.5 + eps], eps)
    for point in (
        [-miss, 0.2],  # g
        [0.2, -miss],  # h
        [math.sqrt(1.0 + 2 * tol), 0.2],  # the box
        [0.2, 0.5 + miss],  # J
    ):
        assert not point_feasibility(prob, approx, point, eps), point


def test_k_start_below_threshold(p1):
    with pytest.raises(ValueError, match="below admissible"):
        solve_mpec(p1, AlgoConfig(epsilon=1e-3, k_start=1, k_max=2))


# ----------------------------------------------------------------------
# perturbation scaling


def test_fit_exact_power_law():
    eps = [1e-4, 1e-3, 1e-2, 1e-1]
    samples = [(e, 1.0 - 2.0 * math.sqrt(e)) for e in eps]
    fit = fit_perturbation_scaling(samples, 1.0)
    assert fit.c == pytest.approx(-2.0, abs=1e-10)
    assert fit.q == pytest.approx(0.5, abs=1e-12)
    assert fit.residual <= 1e-10
    assert not fit.constant


def test_fit_constant_branch():
    samples = [(e, 1.0) for e in (1e-4, 1e-3, 1e-2)]
    fit = fit_perturbation_scaling(samples, 1.0)
    assert fit.constant
    assert fit.c == 0.0
    assert math.isnan(fit.q)


def test_fit_requires_three_samples():
    with pytest.raises(ValueError):
        fit_perturbation_scaling([(1e-3, 0.5), (1e-2, 0.4)], 1.0)


def test_fit_rejects_value_above_reference():
    samples = [(1e-3, 1.5), (1e-2, 0.9), (1e-1, 0.8)]
    with pytest.raises(ValueError):
        fit_perturbation_scaling(samples, 1.0)


def test_fit_from_oracle_sweep(p1):
    samples = []
    for eps in (1e-4, 1e-3, 1e-2, 1e-1):
        ref = solve_perturbed_reference(p1, eps)
        samples.append((eps, ref.value))
    fit = fit_perturbation_scaling(samples, 1.0)
    assert fit.c <= 0.0
    assert fit.q > 0.0
    assert math.isfinite(fit.residual)


# ----------------------------------------------------------------------
# reports


def test_report_roundtrip(p1_trace):
    report = trace_to_report(p1_trace)
    rendered = json.dumps(report)
    reread = json.loads(rendered)
    assert verify_report(reread) == []
    assert reread["final_value"] == p1_trace.final_value


def test_report_tampering_detected(p1_trace):
    report = json.loads(json.dumps(trace_to_report(p1_trace)))
    report["final_value"] = report["final_value"] - 0.5
    assert verify_report(report)


@pytest.mark.parametrize("field", ["final_value", "best_value", "value"])
def test_report_nan_detected(p1_trace, field):
    clean = json.loads(json.dumps(trace_to_report(p1_trace)))
    valued = [i for i, r in enumerate(clean["records"]) if r["value"] is not None]
    assert valued
    for i in valued:
        report = json.loads(json.dumps(clean))
        if field == "final_value":
            report["final_value"] = math.nan
        else:
            report["records"][i][field] = math.nan
        assert verify_report(report), (field, i)


def test_report_all_empty_needs_every_record_empty(p1_trace):
    report = json.loads(json.dumps(trace_to_report(p1_trace)))
    report["termination"] = "AllEmpty"
    assert verify_report(report)


def test_report_empty_status_with_value_detected(p1_trace):
    report = json.loads(json.dumps(trace_to_report(p1_trace)))
    valued = next(r for r in report["records"] if r["value"] is not None)
    valued["set_status"] = "EmptyCertified"
    assert verify_report(report)


def test_one_sdp_per_fit_and_per_hierarchy_order(p1, monkeypatch):
    """Two fits, hierarchy orders 3 and 4 at k=3 (flat at 4), and at k=4
    one order: the first hierarchy order is the emptiness test."""
    import mpecsos.sos

    inner = mpecsos.sos.solve
    calls = []
    monkeypatch.setattr(
        mpecsos.sos, "solve", lambda *a, **k: calls.append(1) or inner(*a, **k)
    )
    trace = solve_mpec(p1, AlgoConfig(epsilon=5e-4, k_start=3, k_max=4))
    assert len(calls) == 5
    last = trace.records[-1]
    assert last.order == 4
    assert last.set_status == "EmptyCertified"
    assert last.relaxation_order == 4


def test_solve_deterministic(p3):
    config = AlgoConfig(epsilon=1e-4, k_start=2, k_max=2)
    a = solve_mpec(p3, config)
    b = solve_mpec(p3, config)
    assert a.final_value == b.final_value
    assert a.final_points == b.final_points
    assert [r.value for r in a.records] == [r.value for r in b.records]


def test_ladder_summary(p1):
    from mpecsos.driver import ladder_summary

    runs = run_epsilon_ladder(p1, (1e-2, 1e-3), 3, 3)
    summary = ladder_summary(runs)
    assert len(summary["values"]) == 2
    assert summary["trend"] == runs[-1][1].final_value
    assert len(summary["deltas"]) == 1


def test_perturbed_set_certified_nonempty_with_witness(p1):
    """One order above the minimum, the feasibility test produces an
    explicit witness of the perturbed set (near the known optimum)."""
    from mpecsos.driver import _perturbed_generators
    from mpecsos.sos import FeasibilityStatus, certify_feasibility
    from mpecsos.valuefn import compute_value_approximation

    approx = compute_value_approximation(p1, 3)
    gens = _perturbed_generators(p1, approx, 0.0005)
    out = certify_feasibility(gens, 4, scaling=p1.box.halfwidths)
    assert out.status is FeasibilityStatus.NONEMPTY
    assert abs(out.witness[0]) <= 0.1 and abs(out.witness[1] - 1.0) <= 0.1
