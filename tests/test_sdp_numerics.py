"""Solver numerics near the end of a solve and on degenerate data.

Tie-form moment relaxations make the Schur complement ill conditioned like
1/mu^2, and the homogenization pivot used to cancel there; these cases pin
the behaviour of the scaled QR solve: tight tolerances are still reached,
and singular data (dependent rows, dependent or unused free columns) is
regularized or eliminated instead of breaking the solve.  The remaining
cases pin the Nesterov-Todd scaling point, the sparse svec store of the
constraint data against the dense problem, and the value-fit programs
against reference values.
"""

import numpy as np
import pytest

from mpecsos.polynomials import parse_polynomial
from mpecsos.problems import bundled_instance
from mpecsos.sdp import (
    BlockKind,
    SdpBlock,
    SdpConstraint,
    SdpProblem,
    SdpStatus,
    SolverOptions,
    _Cone,
    _nt_scaling,
    solve,
)
from mpecsos.sos import build_moment_relaxation
from mpecsos.valuefn import build_value_program, compute_value_approximation

FREE, NONNEG, PSD = BlockKind.FREE, BlockKind.NONNEG, BlockKind.PSD


@pytest.mark.parametrize(
    "f_text",
    ["x^4 - x^2", "x^3 - 0.5*x", "x^4 + 0.25*x^3 - x^2 + 0.1*x"],
)
def test_moment_relaxations_reach_tight_tolerances(f_text):
    f = parse_polynomial(f_text, ["x"])
    g = parse_polynomial("1 - x^2", ["x"])
    tight = SolverOptions(gap_tol=1e-9, feas_tol=1e-9)
    for t in (2, 3, 4):
        _, sdp = build_moment_relaxation(f, [g], t)
        sol = solve(sdp, tight)
        assert sol.status is SdpStatus.OPTIMAL, (t, sol.status, sol.iterations)
        assert max(sol.primal_residual, sol.dual_residual, sol.gap) <= 1e-9


def _objective(blocks, objective, constraints):
    sol = solve(SdpProblem(blocks, objective, constraints))
    assert sol.status is SdpStatus.OPTIMAL
    return sol.primal_objective


def test_duplicated_constraint_row():
    # trace(X) = 2 stated twice: linearly dependent rows
    value = _objective(
        [SdpBlock(PSD, 2)],
        {0: np.eye(2)},
        [
            SdpConstraint({0: np.eye(2)}, 2.0),
            SdpConstraint({0: 2.0 * np.eye(2)}, 4.0),
        ],
    )
    assert value == pytest.approx(2.0, abs=1e-7)


def test_free_block_absorbs_every_row():
    # t = 1 with t free; minimize x >= 0, which no row touches
    value = _objective(
        [SdpBlock(FREE, 1), SdpBlock(NONNEG, 1)],
        {1: np.array([1.0])},
        [SdpConstraint({0: np.array([1.0])}, 1.0)],
    )
    assert value == pytest.approx(0.0, abs=1e-7)


def test_dependent_free_columns():
    # minimize t1 + t2 subject to t1 + t2 - x = 0, x = 3: only t1 + t2 is fixed
    value = _objective(
        [SdpBlock(FREE, 2), SdpBlock(NONNEG, 1)],
        {0: np.array([1.0, 1.0])},
        [
            SdpConstraint({0: np.array([1.0, 1.0]), 1: np.array([-1.0])}, 0.0),
            SdpConstraint({1: np.array([1.0])}, 3.0),
        ],
    )
    assert value == pytest.approx(3.0, abs=1e-7)


def test_free_column_outside_every_row():
    # the free variable appears with a zero coefficient only
    value = _objective(
        [SdpBlock(FREE, 1), SdpBlock(NONNEG, 1)],
        {1: np.array([1.0])},
        [SdpConstraint({0: np.array([0.0]), 1: np.array([1.0])}, 2.0)],
    )
    assert value == pytest.approx(2.0, abs=1e-7)


def test_free_only_problem_with_repeated_row():
    # minimize t subject to t = 1 and 2t = 2: no cone block takes any row
    value = _objective(
        [SdpBlock(FREE, 1)],
        {0: np.array([1.0])},
        [
            SdpConstraint({0: np.array([1.0])}, 1.0),
            SdpConstraint({0: np.array([2.0])}, 2.0),
        ],
    )
    assert value == pytest.approx(1.0, abs=1e-7)


def test_free_ray_certifies_dual_infeasibility():
    # minimize t where t is free and only has a zero coefficient in the one
    # row, which fixes x >= 0 to 2: t can decrease without bound
    prob = SdpProblem(
        [SdpBlock(FREE, 1), SdpBlock(NONNEG, 1)],
        {0: np.array([1.0])},
        [SdpConstraint({0: np.array([0.0]), 1: np.array([2.0])}, 2.0)],
    )
    sol = solve(prob)
    assert sol.status is SdpStatus.DUAL_INFEASIBLE
    ray = sol.primal
    a_ray = [
        sum(float(np.sum(cf * ray[bi])) for bi, cf in con.coeffs.items())
        for con in prob.constraints
    ]
    c_ray = sum(float(np.sum(cf * ray[bi])) for bi, cf in prob.objective.items())
    assert np.abs(a_ray).max() <= 1e-12
    assert c_ray == pytest.approx(-1.0)
    assert ray[1].min() >= 0.0
    assert sol.certificate_residual <= 1e-12


def _random_pd(rng, size):
    q, _ = np.linalg.qr(rng.normal(size=(size, size)))
    return (q * rng.uniform(0.1, 10.0, size=size)) @ q.T


@pytest.mark.parametrize("size", [1, 2, 5, 12])
def test_nt_scaling_point(size):
    rng = np.random.default_rng(100 + size)
    for _ in range(5):
        X, S = _random_pd(rng, size), _random_pd(rng, size)
        R, lam = _nt_scaling(X, S)
        W = R @ R.T
        R_inv = np.linalg.inv(R)
        scale = np.linalg.norm(lam)
        assert np.linalg.norm(W @ S @ W - X) <= 1e-10 * np.linalg.norm(X)
        assert np.linalg.norm(R.T @ S @ R - np.diag(lam)) <= 1e-10 * scale
        assert np.linalg.norm(R_inv @ X @ R_inv.T - np.diag(lam)) <= 1e-10 * scale
        # lam are the square roots of the eigenvalues of XS
        eigs = np.sort(np.linalg.eigvals(X @ S).real)
        assert np.allclose(np.sort(lam**2), eigs, rtol=1e-10)


@pytest.fixture(scope="module")
def p1_value_program():
    _, prob = build_value_program(bundled_instance("p1_mpec"), 5)
    return prob


def _close(got, want, rel=1e-12):
    return np.abs(got - want).max() <= rel * max(1.0, np.abs(want).max())


def test_sparse_store_matches_dense_constraints(p1_value_program):
    prob = p1_value_program
    cone = _Cone(prob)
    rng = np.random.default_rng(5)
    y = rng.normal(size=prob.num_constraints)
    assert cone.psd and cone.num_free
    for p in cone.psd:
        raw = rng.normal(size=(p.size, p.size))
        X = raw + raw.T
        R = rng.normal(size=(p.size, p.size))
        inner = np.zeros(prob.num_constraints)
        combined = np.zeros((p.size, p.size))
        for i, con in enumerate(prob.constraints):
            A = con.coeffs.get(p.index)
            if A is not None:
                inner[i] = np.sum(A * X)
                combined += y[i] * A
        # the store holds the rows prescaled by 1 / row_scale
        assert _close(p.apply(X) * cone.row_scale, inner)
        assert _close(p.combine(y * cone.row_scale), combined)
        for cons, part in p.scaled_columns(R):
            for i, column in zip(cons, part):
                A = prob.constraints[i].coeffs[p.index] / cone.row_scale[i]
                assert _close(p.smat(column), R.T @ A @ R)
    xf = rng.normal(size=cone.num_free)
    dense = np.zeros((prob.num_constraints, cone.num_free))
    offset = 0
    for bi, size in zip(cone.free_blocks, cone.free_sizes):
        for i, con in enumerate(prob.constraints):
            if bi in con.coeffs:
                dense[i, offset : offset + size] = con.coeffs[bi]
        offset += size
    assert _close(cone.A_free.tdot(xf) * cone.row_scale, dense @ xf)
    assert _close(cone.A_free.dot(y * cone.row_scale), dense.T @ y)


@pytest.mark.parametrize(
    "order, rho",
    [(3, -0.3506177443081905), (4, -0.3492845664456971), (5, -0.3488526348003197)],
)
def test_p1_value_fit_matches_reference(order, rho):
    # reference values from the solver with HKM directions and dense data
    approx = compute_value_approximation(bundled_instance("p1_mpec"), order)
    assert approx.rho == pytest.approx(rho, abs=1e-7)
