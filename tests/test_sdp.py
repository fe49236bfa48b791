"""Solver tests: analytic micro-problems, a seeded random-instance oracle
with constructed optima, and certificate soundness for infeasible data."""

import numpy as np
import pytest

from mpecsos.sdp import (
    BlockKind,
    SdpBlock,
    SdpConstraint,
    SdpProblem,
    SdpStatus,
    SolverOptions,
    residuals,
    solve,
)


def _nonneg_min_x():
    # minimize x over {x >= 0, x = 1}
    return SdpProblem(
        blocks=[SdpBlock(BlockKind.NONNEG, 1)],
        objective={0: np.array([1.0])},
        constraints=[SdpConstraint({0: np.array([1.0])}, 1.0)],
    )


def _trace_problem():
    # minimize trace(X) over {2x2 PSD X, trace(X) = 2}
    return SdpProblem(
        blocks=[SdpBlock(BlockKind.PSD, 2)],
        objective={0: np.eye(2)},
        constraints=[SdpConstraint({0: np.eye(2)}, 2.0)],
    )


def test_scalar_nonneg():
    sol = solve(_nonneg_min_x())
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.primal_objective == pytest.approx(1.0, abs=1e-7)
    assert sol.primal[0][0] == pytest.approx(1.0, abs=1e-7)


def test_trace_identity():
    sol = solve(_trace_problem())
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.primal_objective == pytest.approx(2.0, abs=1e-7)
    assert np.trace(sol.primal[0]) == pytest.approx(2.0, abs=1e-7)


def test_scalar_psd_infeasible():
    # 1x1 PSD variable forced to equal -1
    prob = SdpProblem(
        blocks=[SdpBlock(BlockKind.PSD, 1)],
        objective={0: np.zeros((1, 1))},
        constraints=[SdpConstraint({0: np.ones((1, 1))}, -1.0)],
    )
    sol = solve(prob)
    assert sol.status is SdpStatus.PRIMAL_INFEASIBLE
    assert sol.certificate_residual <= 1e-8
    # ray objective normalized to one
    assert prob.rhs() @ sol.y == pytest.approx(1.0)


def test_free_variable_equality():
    # minimize t subject to t - x = 0, x >= 0, x = 3  ->  t = 3
    prob = SdpProblem(
        blocks=[SdpBlock(BlockKind.FREE, 1), SdpBlock(BlockKind.NONNEG, 1)],
        objective={0: np.array([1.0])},
        constraints=[
            SdpConstraint({0: np.array([1.0]), 1: np.array([-1.0])}, 0.0),
            SdpConstraint({1: np.array([1.0])}, 3.0),
        ],
    )
    sol = solve(prob)
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.primal_objective == pytest.approx(3.0, abs=1e-7)
    assert sol.primal[0][0] == pytest.approx(3.0, abs=1e-6)


def test_deterministic_repeat():
    a = solve(_trace_problem())
    b = solve(_trace_problem())
    assert a.iterations == b.iterations
    assert np.array_equal(a.primal[0], b.primal[0])
    assert a.mu_history == b.mu_history


# ----------------------------------------------------------------------
# residuals operation


def test_residuals_at_exact_optimum():
    prob = _trace_problem()
    x_opt = [np.eye(2)]
    y_opt = np.array([1.0])
    p, d, g = residuals(prob, x_opt, y_opt)
    assert p <= 1e-12 and d <= 1e-12 and g <= 1e-12


def test_residuals_scale_normalization():
    prob = _trace_problem()
    p, d, g = residuals(prob, [np.zeros((2, 2))], np.array([0.0]))
    assert p == pytest.approx(2.0 / (1.0 + 2.0))


def test_residuals_small_perturbation():
    prob = _trace_problem()
    rng = np.random.default_rng(3)
    noise = rng.normal(scale=1e-3, size=(2, 2))
    x = [np.eye(2) + 0.5 * (noise + noise.T)]
    p, _, _ = residuals(prob, x, np.array([1.0]))
    assert 1e-4 <= p <= 1e-2


def test_residuals_dimension_mismatch():
    prob = _trace_problem()
    with pytest.raises(ValueError):
        residuals(prob, [np.zeros(2)], np.array([0.0]))
    with pytest.raises(ValueError):
        residuals(prob, [np.zeros((2, 2))], np.array([0.0, 1.0]))


# ----------------------------------------------------------------------
# random-instance oracle with constructed optima


def _random_psd_pair(rng, size, rank):
    """Complementary PSD pair (X*, S*) sharing an eigenbasis: X*S* = 0."""
    q, _ = np.linalg.qr(rng.normal(size=(size, size)))
    lam_x = np.zeros(size)
    lam_s = np.zeros(size)
    lam_x[:rank] = rng.uniform(0.5, 2.0, size=rank)
    lam_s[rank:] = rng.uniform(0.5, 2.0, size=size - rank)
    X = (q * lam_x) @ q.T
    S = (q * lam_s) @ q.T
    return 0.5 * (X + X.T), 0.5 * (S + S.T)


def make_random_instance(seed: int):
    """Instance with a known optimum built from a complementary pair."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(3, 31))
    m = int(rng.integers(2, min(12, size * 2)))
    rank = int(rng.integers(1, size))
    X_star, S_star = _random_psd_pair(rng, size, rank)
    y_star = rng.normal(size=m)

    mats = []
    for _ in range(m):
        raw = rng.normal(size=(size, size))
        mats.append(0.5 * (raw + raw.T))
    C = S_star + sum(y * A for y, A in zip(y_star, mats))
    b = np.array([float(np.sum(A * X_star)) for A in mats])
    prob = SdpProblem(
        blocks=[SdpBlock(BlockKind.PSD, size)],
        objective={0: C},
        constraints=[SdpConstraint({0: A}, bi) for A, bi in zip(mats, b)],
    )
    target = float(np.sum(C * X_star))
    return prob, target


def test_random_oracle_suite():
    """Objective recovered to 1e-7 relative on every constructed optimum.

    A handful of instances sit right at the float64 accuracy floor for the
    1e-8 residual tolerances; those must still return the best iterate with
    near-tolerance residuals and an accurate objective, just without the
    Optimal certificate.
    """
    failures = []
    optimal_count = 0
    for seed in range(50):
        prob, target = make_random_instance(1000 + seed)
        sol = solve(prob)
        rel = abs(sol.primal_objective - target) / (1.0 + abs(target))
        if rel > 1e-7:
            failures.append((seed, sol.status, rel))
            continue
        if sol.status is SdpStatus.OPTIMAL:
            optimal_count += 1
        elif max(sol.primal_residual, sol.dual_residual, sol.gap) > 1e-6:
            failures.append((seed, sol.status, sol.primal_residual, sol.gap))
    assert not failures, failures
    assert optimal_count >= 44, optimal_count


def test_monotone_complementarity_decay():
    """mu drops by at least x0.5 every 5 iterations until termination."""
    for seed in (1001, 1017, 1033):
        prob, _ = make_random_instance(seed)
        sol = solve(prob)
        mus = sol.mu_history
        for i in range(5, len(mus)):
            assert mus[i] <= 0.5 * mus[i - 5] + 1e-14


def make_infeasible_instance(seed: int):
    """x >= 0 blocks forced into a contradictory equality."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 8))
    # <I, X> = -1 with X PSD is impossible; bury it among benign rows
    mats = [np.eye(size)]
    b = [-1.0]
    for _ in range(int(rng.integers(1, 4))):
        raw = rng.normal(size=(size, size))
        mats.append(0.5 * (raw + raw.T))
        b.append(float(rng.normal()))
    raw = rng.normal(size=(size, size))
    C = 0.5 * (raw + raw.T)
    return SdpProblem(
        blocks=[SdpBlock(BlockKind.PSD, size)],
        objective={0: C},
        constraints=[SdpConstraint({0: A}, bi) for A, bi in zip(mats, b)],
    )


def test_infeasibility_certificates():
    for seed in range(10):
        prob = make_infeasible_instance(2000 + seed)
        sol = solve(prob)
        assert sol.status is SdpStatus.PRIMAL_INFEASIBLE, seed
        assert sol.certificate_residual <= 1e-8
        b = prob.rhs()
        ray_obj = float(b @ sol.y)
        assert ray_obj >= 1.0 - 1e-9
        # ray feasibility: || sum_i y_i A_i + s || small, s in the cone
        acc = np.zeros_like(sol.s[0])
        for i, con in enumerate(prob.constraints):
            acc += sol.y[i] * con.coeffs[0]
        acc += sol.s[0]
        assert np.linalg.norm(acc) <= 1e-6
        eigs = np.linalg.eigvalsh(sol.s[0])
        assert eigs.min() >= -1e-9


def test_dual_infeasible_detection():
    # minimize -x with only x >= 0: unbounded below, dual infeasible
    prob = SdpProblem(
        blocks=[SdpBlock(BlockKind.NONNEG, 2)],
        objective={0: np.array([-1.0, 0.0])},
        constraints=[SdpConstraint({0: np.array([0.0, 1.0])}, 1.0)],
    )
    sol = solve(prob)
    assert sol.status is SdpStatus.DUAL_INFEASIBLE


def test_dump_roundtrippable_text():
    text = _trace_problem().dump()
    lines = text.strip().splitlines()
    assert lines[0].startswith("blocks psd:2")
    assert any(line.startswith("0 0 ") for line in lines)  # objective entries
    assert any(line.startswith("1 0 ") for line in lines)  # constraint entries


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(gap_tol=0.0)
