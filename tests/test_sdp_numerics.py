"""Solver numerics near the end of a solve and on degenerate data.

Tie-form moment relaxations make the Schur complement ill conditioned
like 1/mu^2, and the homogenization pivot used to cancel there; these
cases pin the behaviour of the Newton solve: tight tolerances are still
reached, and singular data (dependent rows, dependent or unused free
columns) is eliminated instead of breaking the solve.  Nonnegative
blocks of several coordinates, which the solver runs as a stack of 1x1
PSD blocks, come back as one vector at an optimum and in a Farkas ray,
and a 60-coordinate LP matches HiGHS.  Blocks of mixed sizes, stacked by
size, come back at their own indices whatever their order.  Free columns
that the set-up elimination mixes into other rows come back with the
full dual vector, and a certificate carries no iterate residuals.  The
remaining cases pin the Nesterov-Todd scaling point, the sparse svec
store of the constraint data and its scaled matrices, formed in groups of
rows of any members, against the dense problem (which no builder or
solve builds, and no SdpConstraint either), the value-fit programs
against reference values, the check of the solver
tolerances and the text dump, the one triangle of the Newton system (the
Cholesky factor of G'G, or the QR's triangle of G, never shifted) and its
one refined solve, the QR's triangle taken only inside a Cholesky factor
that fails (here made to fail), a relaxation whose refined solves reach
1e-9 and 1e-10 (also with its right side moved by a few ulps), the
benchmark's largest value fit, p1's order-4 value fit at 1e-10 and p3's
value fits, whose G'G nears singularity late in the solve, under the
same ulp moves, dependent rows settled once at the start point: a Farkas
ray with S = 0 when their right sides disagree, whatever dpotrf makes of
the singular start G'G, and the independent rows solved on, the others
at y = 0, when they agree (a random objective may then leave a recession
ray, never a false certificate), the stall named on a run that stops
early, and the three solves through the factor in each iteration, each
refined until its primal error meets a target read off the stopping
test, which takes fewer products with G than a fixed count of steps, and
the tau column's one step past its target, without which a quartic
relaxation misses 1e-10 under ulp moves, and the fourth, a centrality
corrector's, that only an SDP whose Schur complement dominates makes,
which shortens the benchmark's largest value fit and keeps it optimal at
1e-10 under ulp moves.  Directions stay in scaled coordinates until the
step: the step bound reads each scaled block's least eigenvalue alone,
sum_i y_i A_i is formed only for the residuals and the step taken, and
dS~, read off the complementarity row, stays within 1e-8 of R'dS R of
the dual step taken.
"""

import itertools
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

import mpecsos.sdp as sdp
from mpecsos.driver import _perturbed_generators
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
    _SchurFactor,
    residuals,
    solve,
)
from mpecsos.sos import RelaxationError, _solve_checked, build_moment_relaxation
from mpecsos.valuefn import build_value_program, compute_value_approximation
from test_sdp import make_infeasible_instance

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


@pytest.mark.parametrize(
    "where, objective, coeff, rhs",
    [
        ("constraint 0", {}, np.array([[math.inf, 0.0], [0.0, 1.0]]), 1.0),
        ("constraint 0", {}, np.eye(2), math.nan),
        ("constraint 0", {}, np.eye(2), -math.inf),
        ("objective", {0: np.array([[1.0, math.nan], [math.nan, 1.0]])}, np.eye(2), 1.0),
    ],
    ids=["inf-entry", "nan-rhs", "inf-rhs", "nan-objective"],
)
def test_non_finite_data_rejected_at_construction(where, objective, coeff, rhs):
    with pytest.raises(ValueError, match=f"^{where}: .*not finite"):
        SdpProblem([SdpBlock(PSD, 2)], objective, [SdpConstraint({0: coeff}, rhs)])


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


def _assert_free_ray(prob):
    """The solve ends DualInfeasible at set-up with a ray: A ray = 0 and
    objective -1."""
    sol = solve(prob)
    assert sol.status is SdpStatus.DUAL_INFEASIBLE
    assert sol.iterations == 0
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


def test_free_ray_certifies_dual_infeasibility():
    # minimize t where t is free and only has a zero coefficient in the one
    # row, which fixes x >= 0 to 2: t can decrease without bound
    _assert_free_ray(
        SdpProblem(
            [SdpBlock(FREE, 1), SdpBlock(NONNEG, 1)],
            {0: np.array([1.0])},
            [SdpConstraint({0: np.array([0.0]), 1: np.array([2.0])}, 2.0)],
        )
    )


def test_free_ray_from_dependent_free_columns():
    # minimize t1 + 2 t2 subject to t1 + t2 - x = 0, x = 3: one free column
    # is independent and the other repeats it, at a different cost, so
    # t = (s, -s) lowers the objective without bound
    _assert_free_ray(
        SdpProblem(
            [SdpBlock(FREE, 2), SdpBlock(NONNEG, 1)],
            {0: np.array([1.0, 2.0])},
            [
                SdpConstraint({0: np.array([1.0, 1.0]), 1: np.array([-1.0])}, 0.0),
                SdpConstraint({1: np.array([1.0])}, 3.0),
            ],
        )
    )


def test_certificates_carry_no_iterate_residuals():
    # a ray is measured by certificate_residual alone
    forced = SdpProblem(
        [SdpBlock(PSD, 1)], {}, [SdpConstraint({0: np.ones((1, 1))}, -1.0)]
    )
    unbounded = SdpProblem(
        [SdpBlock(FREE, 1), SdpBlock(NONNEG, 1)],
        {0: np.array([1.0])},
        [SdpConstraint({0: np.array([0.0]), 1: np.array([2.0])}, 2.0)],
    )
    for prob, status in (
        (forced, SdpStatus.PRIMAL_INFEASIBLE),
        (unbounded, SdpStatus.DUAL_INFEASIBLE),
    ):
        sol = solve(prob)
        assert sol.status is status
        assert math.isnan(sol.primal_residual) and math.isnan(sol.dual_residual)
        assert sol.certificate_residual <= 1e-8


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["gap_tol", "feas_tol"])
def test_options_reject_non_finite_tolerances(name, value):
    # a NaN tolerance compares false, so no solve could ever end Optimal
    with pytest.raises(ValueError, match="finite"):
        SolverOptions(**{name: value})


def test_dump_lines_rebuild_the_problem():
    # every data line is "constraint block row col value" in plain numbers
    prob = SdpProblem(
        [SdpBlock(PSD, 2), SdpBlock(NONNEG, 3)],
        {0: np.array([[1.0, 0.5], [0.5, 2.0]]), 1: np.array([0.0, 3.0, 0.25])},
        [
            SdpConstraint({0: np.eye(2), 1: np.array([1.0, 0.0, -1.0])}, 1.0),
            SdpConstraint({0: np.array([[0.0, 1.0 / 3], [1.0 / 3, 0.0]])}, 0.5),
        ],
    )
    lines = prob.dump().splitlines()
    assert lines[0] == "blocks psd:2 nonneg:3"
    assert [float(v) for v in lines[1].split()[1:]] == [1.0, 0.5]
    rebuilt = [
        {0: np.zeros((2, 2)), 1: np.zeros(3)} for _ in range(prob.num_constraints + 1)
    ]
    for line in lines[2:]:
        index, block, row, col, text = line.split()
        value = float(text)
        target = rebuilt[int(index)][int(block)]
        if target.ndim == 2:
            target[int(row), int(col)] = target[int(col), int(row)] = value
        else:
            assert int(col) == 0
            target[int(row)] = value
    originals = [prob.objective] + [con.coeffs for con in prob.constraints]
    for want, got in zip(originals, rebuilt):
        for bi, coeff in got.items():
            assert np.array_equal(want.get(bi, np.zeros_like(coeff)), coeff)


@pytest.mark.parametrize("seed", range(5))
def test_dense_free_block_restores_full_solution(seed):
    # a 4x4 PSD block beside a free block of 3 dense columns of rank 2, so
    # the elimination mixes pivot rows into the other rows; the optimum is
    # built from a complementary pair and free values x_f
    rng = np.random.default_rng(300 + seed)
    m = 6
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    X_star = (q[:, :2] * rng.uniform(0.5, 2.0, size=2)) @ q[:, :2].T
    S_star = (q[:, 2:] * rng.uniform(0.5, 2.0, size=2)) @ q[:, 2:].T
    A_f = rng.normal(size=(m, 2)) @ rng.normal(size=(2, 3))
    x_f, y_star = rng.normal(size=3), rng.normal(size=m)
    mats = []
    for _ in range(m):
        raw = rng.normal(size=(4, 4))
        mats.append(0.5 * (raw + raw.T))
    C = S_star + sum(y * A for y, A in zip(y_star, mats))
    c_f = A_f.T @ y_star
    b = np.array([np.sum(A * X_star) for A in mats]) + A_f @ x_f
    prob = SdpProblem(
        [SdpBlock(PSD, 4), SdpBlock(FREE, 3)],
        {0: C, 1: c_f},
        [SdpConstraint({0: A, 1: a}, bi) for A, a, bi in zip(mats, A_f, b)],
    )
    assert _Cone(prob).free.M.any()
    sol = solve(prob)
    assert sol.status is SdpStatus.OPTIMAL
    target = float(np.sum(C * X_star) + c_f @ x_f)
    assert abs(sol.primal_objective - target) <= 1e-7 * (1.0 + abs(target))
    assert max(residuals(prob, sol.primal, sol.y, sol.s)) <= 1e-7


def test_farkas_ray_through_mixed_free_rows():
    # t + tr X = -1 and t = 0 with t free: the ray needs y0 + y1 = 0
    prob = SdpProblem(
        [SdpBlock(FREE, 1), SdpBlock(PSD, 2)],
        {},
        [
            SdpConstraint({0: np.array([1.0]), 1: np.eye(2)}, -1.0),
            SdpConstraint({0: np.array([1.0])}, 0.0),
        ],
    )
    sol = solve(prob)
    assert sol.status is SdpStatus.PRIMAL_INFEASIBLE
    assert prob.rhs() @ sol.y == pytest.approx(1.0)
    assert abs(sol.y[0] + sol.y[1]) <= 1e-12
    assert np.linalg.norm(sol.y[0] * np.eye(2) + sol.s[1]) <= 1e-8


def test_nonneg_block_beside_psd_block():
    # minimize x1 + 2 x2 + 3 x3 + <diag(3, 2), X> subject to x1 + x2 + x3 = 1,
    # trace X = 1 and x1 = X22: the cost is 5 - 2 x1, so x = (1, 0, 0),
    # X = diag(0, 1) and the value is 3
    prob = SdpProblem(
        [SdpBlock(NONNEG, 3), SdpBlock(PSD, 2)],
        {0: np.array([1.0, 2.0, 3.0]), 1: np.diag([3.0, 2.0])},
        [
            SdpConstraint({0: np.ones(3)}, 1.0),
            SdpConstraint({1: np.eye(2)}, 1.0),
            SdpConstraint({0: np.array([1.0, 0.0, 0.0]), 1: np.diag([0.0, -1.0])}, 0.0),
        ],
    )
    sol = solve(prob)
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.primal_objective == pytest.approx(3.0, abs=1e-7)
    x, s = sol.primal[0], sol.s[0]
    assert x.shape == (3,) and s.shape == (3,)
    assert np.allclose(x, [1.0, 0.0, 0.0], atol=1e-7)
    assert np.allclose(sol.primal[1], np.diag([0.0, 1.0]), atol=1e-7)
    assert np.max(x * s) <= 1e-7


def test_nonneg_block_primal_infeasible():
    # {x in R^2_+ : x1 + x2 = -1} is empty; y = -1 is the Farkas ray
    prob = SdpProblem(
        [SdpBlock(NONNEG, 2)], {}, [SdpConstraint({0: np.ones(2)}, -1.0)]
    )
    sol = solve(prob)
    assert sol.status is SdpStatus.PRIMAL_INFEASIBLE
    assert prob.rhs() @ sol.y == pytest.approx(1.0)
    assert sol.s[0].shape == (2,)
    assert sol.s[0].min() >= 0.0


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


def test_solves_never_build_the_dense_rows(monkeypatch):
    # the builders, set-up, solve, the restored free values and the kept
    # rows of a dependent set read and write entry tables alone: no dense
    # view and no SdpConstraint
    def refuse(*args):
        raise AssertionError("dense rows built")

    # the mixed blocks' nine rows and a repeat of row 2 (built dense first)
    given, _ = _mixed_blocks_problem(range(5))
    rows = given.constraints + given.constraints[2:3]
    dependent = SdpProblem(given.blocks, given.objective, rows)
    monkeypatch.setattr(SdpProblem, "constraints", property(refuse))
    monkeypatch.setattr(SdpConstraint, "__init__", refuse)
    approx = compute_value_approximation(bundled_instance("p1_mpec"), 3)
    assert approx.identity_error <= 1e-6
    f, g = parse_polynomial("x^4 - x^2", ["x"]), parse_polynomial("1 - x^2", ["x"])
    _, prob = build_moment_relaxation(f, [g], 3)
    assert solve(prob).status is SdpStatus.OPTIMAL
    # one copy of the repeat is dropped at the start and the nine rows over
    # all five blocks solved to the optimum of the given problem
    sol, want = solve(dependent), solve(given)
    assert sol.status is SdpStatus.OPTIMAL
    assert abs(sol.primal_objective - want.primal_objective) <= 1e-9
    assert np.flatnonzero(sol.y == 0.0).tolist() in ([2], [9])


def _member_coeff(prob, row, s, j):
    """The dense coefficient of constraint ``row`` on member j of stack s,
    or None where the row misses its block."""
    A = prob.constraints[row].coeffs.get(s.index[j])
    return A if A is None or s.entry[j] < 0 else A[s.entry[j]].reshape(1, 1)


def _assert_store_matches_dense(prob):
    """The sparse store of each stack, and its scaled columns group by
    group, against the dense rows of ``prob``."""
    cone = _Cone(prob)
    rest = cone.free.rest
    rng = np.random.default_rng(5)
    y = rng.normal(size=len(rest))
    for s in cone.stacks:
        raw = rng.normal(size=(s.count, s.size, s.size))
        X = raw + np.swapaxes(raw, 1, 2)
        R = rng.normal(size=(s.count, s.size, s.size))
        # the store holds the rows prescaled by 1 / row_scale
        applied = s.apply(X) * cone.row_scale
        combined = s.combine(y * cone.row_scale)
        touched = []  # the (member, row) pairs with entries
        for j in range(s.count):
            inner = np.zeros(len(rest))
            dense = np.zeros((s.size, s.size))
            for k, i in enumerate(rest):
                A = _member_coeff(prob, i, s, j)
                if A is not None:
                    inner[k] = np.sum(A * X[j])
                    dense += y[k] * A
                    if A.any():
                        touched.append((j, k))
            assert _close(applied[j], inner)
            assert _close(combined[j], dense)
        # each pair is formed once, in a group of _CHUNK // n^2 pairs of
        # any members
        formed = []
        for j, cons, part in s.scaled_columns(R):
            for k, column in zip(cons, part):
                A = _member_coeff(prob, rest[k], s, j) / cone.row_scale[k]
                assert _close(s.smat(column), R[j].T @ A @ R[j])
                formed.append((j, k))
        assert sorted(formed) == touched
        assert len(s.groups) == -(-len(touched) // (sdp._CHUNK // s.size**2))
    return cone


def test_sparse_store_matches_dense_constraints(p1_value_program):
    cone = _assert_store_matches_dense(p1_value_program)
    # the free columns are unit vectors, so the elimination only drops rows
    assert cone.stacks and len(cone.free.pivot) and not cone.free.M.any()
    # the order-5 moment block and the localizing blocks take several groups
    assert all(len(s.groups) > 1 for s in cone.stacks)


def _p1_order4_relaxation():
    """The order-4 moment relaxation of p1 at k = 3, eps 5e-4, as
    `solve-p1-k4` builds it."""
    p1 = bundled_instance("p1_mpec")
    gens = _perturbed_generators(p1, compute_value_approximation(p1, 3), 5e-4)
    scaling = p1.box.halfwidths
    return build_moment_relaxation(p1.objective_f, gens, 4, scaling=scaling)[1]


@pytest.mark.parametrize("which", ["mixed blocks", "p1 order-4 relaxation"])
def test_grouped_scaled_columns_match_dense_constraints(which):
    # 1x1 members beside nonnegative coordinates, and members of different
    # row counts, share groups; the relaxation's four localizing blocks of
    # size 10 have rows with more entries (12) than the block has rows
    if which == "mixed blocks":
        prob, _ = _mixed_blocks_problem(range(5))
    else:
        prob = _p1_order4_relaxation()
        ten = [bi for bi, b in enumerate(prob.blocks) if b.size == 10]
        assert len(ten) == 4
        rows = [c.coeffs.get(bi, 0) for c in prob.constraints for bi in ten]
        widest = max(np.count_nonzero(A) for A in rows)
        assert widest > 10  # entries in both triangles
    _assert_store_matches_dense(prob)


def _mixed_blocks_problem(order):
    """PSD blocks of sizes 3, 2, 3 and 1 and a nonnegative block of size 4,
    interleaved, taken in the given order.

    The data come from a strictly complementary pair (X*, S*) and y*.  For
    these ranks the dual is degenerate below 7 rows and the primal above
    12; with 9 rows the optimum is unique.
    """
    rng = np.random.default_rng(31)
    blocks = [(PSD, 3, 1), (NONNEG, 4, 2), (PSD, 2, 1), (PSD, 3, 2), (PSD, 1, 0)]
    m = 9
    y_star = rng.normal(size=m)
    X_star, mats, C = [], [], []
    for kind, n, rank in blocks:
        if kind is NONNEG:
            x = np.zeros(n)
            x[:rank] = rng.uniform(0.5, 2.0, size=rank)
            s = np.zeros(n)
            s[rank:] = rng.uniform(0.5, 2.0, size=n - rank)
            rows = rng.normal(size=(m, n))
        else:
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            x = (q[:, :rank] * rng.uniform(0.5, 2.0, size=rank)) @ q[:, :rank].T
            s = (q[:, rank:] * rng.uniform(0.5, 2.0, size=n - rank)) @ q[:, rank:].T
            raw = rng.normal(size=(m, n, n))
            rows = raw + np.swapaxes(raw, 1, 2)
        X_star.append(x)
        mats.append(rows)
        C.append(s + np.tensordot(y_star, rows, axes=1))
    b = [sum(float(np.sum(mats[bi][i] * X_star[bi])) for bi in range(5)) for i in range(m)]
    where = {bi: pos for pos, bi in enumerate(order)}
    prob = SdpProblem(
        [SdpBlock(blocks[bi][0], blocks[bi][1]) for bi in order],
        {where[bi]: C[bi] for bi in order},
        [SdpConstraint({where[bi]: mats[bi][i] for bi in order}, b[i]) for i in range(m)],
    )
    return prob, where


def test_stacks_scatter_and_gather_blocks_in_order():
    given, _ = _mixed_blocks_problem(range(5))
    permuted, where = _mixed_blocks_problem([4, 2, 0, 3, 1])
    cone = _Cone(given)
    # one stack per size: the two 3x3 blocks, the 2x2 block, and the four
    # coordinates of the nonnegative block with the 1x1 PSD block
    assert sorted((s.size, s.count) for s in cone.stacks) == [(1, 5), (2, 1), (3, 2)]
    first, second = solve(given), solve(permuted)
    assert first.status is SdpStatus.OPTIMAL and second.status is SdpStatus.OPTIMAL
    assert abs(first.primal_objective - second.primal_objective) <= 1e-9
    for bi, block in enumerate(given.blocks):
        shape = (block.size,) if block.kind is NONNEG else (block.size, block.size)
        for values in (first.primal, first.s):
            assert values[bi].shape == shape
        for values in (second.primal, second.s):
            assert values[where[bi]].shape == shape
        assert np.abs(first.primal[bi] - second.primal[where[bi]]).max() <= 1e-7
        assert np.abs(first.s[bi] - second.s[where[bi]]).max() <= 1e-7


def test_large_nonneg_block_matches_highs():
    # a random LP with one nonnegative block of 60 coordinates and 30 rows
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(7)
    A = rng.normal(size=(30, 60))
    b = A @ rng.uniform(0.5, 1.5, size=60)
    c = A.T @ rng.normal(size=30) + rng.uniform(0.5, 1.5, size=60)
    prob = SdpProblem(
        [SdpBlock(NONNEG, 60)], {0: c}, [SdpConstraint({0: a}, bi) for a, bi in zip(A, b)]
    )
    cone = _Cone(prob)
    assert [(s.size, s.count) for s in cone.stacks] == [(1, 60)]
    reference = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert reference.status == 0
    sol = solve(prob)
    assert sol.status is SdpStatus.OPTIMAL
    assert abs(sol.primal_objective - reference.fun) <= 1e-6 * abs(reference.fun)
    assert max(residuals(prob, sol.primal, sol.y, sol.s)) <= 1e-7


@pytest.mark.parametrize(
    "order, rho",
    [(3, -0.3506177443081905), (4, -0.3492845664456971), (5, -0.3488526348003197)],
)
def test_p1_value_fit_matches_reference(order, rho):
    # reference values from the solver with HKM directions and dense data
    approx = compute_value_approximation(bundled_instance("p1_mpec"), order)
    assert approx.rho == pytest.approx(rho, abs=1e-7)


def test_factor_routes_agree_on_a_well_conditioned_matrix():
    rng = np.random.default_rng(11)
    G = np.asfortranarray(rng.normal(size=(60, 12)))
    e, h = rng.normal(size=60), rng.normal(size=12)
    # unit row scales, and a target a tenth of the residual bound below
    factor = [G, np.ones(12), 1e-11 * np.linalg.norm(h)]
    chol, qr = _SchurFactor(*factor), _SchurFactor(*factor)
    assert not chol.failed
    # the same refined solve through the Cholesky triangle and the QR's
    qr.U = np.linalg.qr(G, mode="r")
    routes = [chol.solve(e, h), qr.solve(e, h)]
    for xh, dy in routes:
        assert np.linalg.norm(xh - G @ dy - e) <= 1e-10 * np.linalg.norm(e)
        assert np.linalg.norm(G.T @ xh - h) <= 1e-10 * np.linalg.norm(h)
    (x_chol, y_chol), (x_qr, y_qr) = routes
    assert np.linalg.norm(x_chol - x_qr) <= 1e-10 * np.linalg.norm(x_qr)
    assert np.linalg.norm(y_chol - y_qr) <= 1e-10 * np.linalg.norm(y_qr)


def _solve_recording_factors(monkeypatch, prob):
    """solve(prob), and per factor in order: the number of rows (columns of
    G), whether dpotrf failed, and whether U is then numpy's R of G."""
    factors = []

    class Factor(_SchurFactor):
        def __init__(self, G, *target):
            super().__init__(G, *target)
            qr = self.failed and np.array_equal(self.U, np.linalg.qr(G, mode="r"))
            factors.append((G.shape[1], self.failed, qr))

    monkeypatch.setattr(sdp, "_SchurFactor", Factor)
    return solve(prob), factors


@pytest.mark.parametrize("seed", [0, 3])
def test_repeated_row_is_dropped_at_the_start(monkeypatch, seed):
    # six random rows on a 4x4 block, one of them stated twice, with b read
    # off a positive definite X* and C = S* + sum y*_i A_i: the start point
    # flags the repeat, the solve goes on with the five distinct rows, and
    # the dropped copy gets y = 0
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    X_star = (q * rng.uniform(0.5, 2.0, size=4)) @ q.T
    rows = [A + A.T for A in rng.normal(size=(5, 4, 4))]
    rows.append(rows[2])
    C = _random_pd(rng, 4) + sum(y * A for y, A in zip(rng.normal(size=6), rows))
    prob = SdpProblem(
        [SdpBlock(PSD, 4)],
        {0: C},
        [SdpConstraint({0: A}, float(np.sum(A * X_star))) for A in rows],
    )
    sol, factors = _solve_recording_factors(monkeypatch, prob)
    assert sol.status is SdpStatus.OPTIMAL, (sol.status, sol.stall)
    # the first factor is the start point's, over all six rows; every
    # iteration after it runs on five
    assert [width for width, _, _ in factors] == [6] + [5] * sol.iterations
    assert np.flatnonzero(sol.y == 0.0).tolist() in ([2], [5])
    assert max(residuals(prob, sol.primal, sol.y, sol.s)) <= 1e-8


def test_value_fit_takes_the_qr_only_after_a_failed_factor(monkeypatch):
    # dpotrf reports failure at iteration 14 of p3's order-4 value fit, late
    # in its solve, whatever rounding makes of G'G there
    _, prob = build_value_program(bundled_instance("p3_sip"), 4)
    dpotrf, calls = sdp.sla.lapack.dpotrf, []

    def fail_at_14(M):
        U, info = dpotrf(M)
        calls.append(info)
        return U, 1 if len(calls) == 15 else info

    monkeypatch.setattr(sdp.sla.lapack, "dpotrf", fail_at_14)
    sol, factors = _solve_recording_factors(monkeypatch, prob)
    assert sol.status is SdpStatus.OPTIMAL
    # each iteration factors G'G once, and the factor whose dpotrf failed
    # holds the QR's triangle of G as numpy gives it, with no shift
    assert len(factors) == sol.iterations > 14
    assert [failed for _, failed, _ in factors] == [i == 14 for i in range(len(factors))]
    assert all(qr == failed for _, failed, qr in factors)


def test_stall_names_the_iteration_limit(monkeypatch):
    prob, _ = _mixed_blocks_problem(range(5))
    assert solve(prob).stall == ""
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
    sol = solve(prob)
    assert sol.status is SdpStatus.ITERATION_LIMIT and sol.iterations == 2
    assert sol.stall == "iteration limit"


def test_iteration_limit_is_not_accepted(monkeypatch):
    prob, _ = _mixed_blocks_problem(range(5))
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
    with pytest.raises(
        RelaxationError, match=re.escape("not solved: IterationLimit (iteration limit)")
    ):
        _solve_checked(prob, "test program")


def test_stall_names_the_numerical_trouble(monkeypatch):
    def singular(X, S):
        raise np.linalg.LinAlgError("singular scaling point")

    monkeypatch.setattr(sdp, "_nt_scaling", singular)
    prob, _ = _mixed_blocks_problem(range(5))
    sol = solve(prob)
    assert sol.status is SdpStatus.NUMERICAL_TROUBLE
    assert sol.stall == "singular scaling point"
    with pytest.raises(RelaxationError, match=re.escape("(singular scaling point)")):
        _solve_checked(prob, "test program")


def _ulps_up(value, steps):
    for _ in range(steps):
        value = math.nextafter(value, math.inf)
    return value


def _ulp_trials(prob):
    """prob as it is, then with every right side moved by 0-2 ulps toward
    +inf in 15 more trials."""
    m = prob.num_constraints
    rng = np.random.default_rng(0)
    for trial in range(16):
        steps = rng.integers(0, 3, size=m) if trial else np.zeros(m, dtype=int)
        rows = [
            SdpConstraint(c.coeffs, _ulps_up(c.rhs, n))
            for c, n in zip(prob.constraints, steps)
        ]
        yield SdpProblem(prob.blocks, prob.objective, rows)


def _assert_status_under_ulp_moves(prob, tol, status=SdpStatus.OPTIMAL):
    """One run could pass by luck of its path near the rounding floor, so
    all 16 `_ulp_trials` must end ``status``: Optimal within ``tol``, or
    PrimalInfeasible with b'y = 1 and a certificate residual within
    ``tol``.  Returns the 16 solutions."""
    sols = []
    for trial, moved in enumerate(_ulp_trials(prob)):
        sol = solve(moved, SolverOptions(gap_tol=tol, feas_tol=tol))
        assert sol.status is status, (trial, sol.status, sol.stall)
        if status is SdpStatus.OPTIMAL:
            assert max(sol.primal_residual, sol.dual_residual, sol.gap) <= tol, trial
        else:
            assert moved.rhs() @ sol.y == pytest.approx(1.0), trial
            assert sol.certificate_residual <= tol, trial
        sols.append(sol)
    return sols


@pytest.mark.parametrize("tol", [1e-9, 1e-10])
def test_p2_relaxation_reaches_tight_tolerances(tol):
    # p2's order-4 relaxation at k = 3, eps 1e-3: near the end its Schur
    # complement is so ill conditioned that unrefined Cholesky solves stall
    # short of 1e-9; refined against their residuals, they reach 1e-10
    p2 = bundled_instance("p2_bilevel")
    gens = _perturbed_generators(p2, compute_value_approximation(p2, 3), 1e-3)
    _, prob = build_moment_relaxation(p2.objective_f, gens, 4, scaling=p2.box.halfwidths)
    _assert_status_under_ulp_moves(prob, tol)


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_p1_order5_value_fit_is_optimal_under_ulp_moves(p1_value_program, tol):
    # the benchmark's largest SDP (G is 3,486 x 220), at the pipeline's
    # tolerance and below it: the rounding of its solves, centrality
    # corrector included, must not cost it its optimum when the last bits
    # of its right side change
    _assert_status_under_ulp_moves(p1_value_program, tol)


def test_p1_order4_value_fit_is_optimal_under_ulp_moves():
    # below the pipeline's tolerance the last iterations of this fit need
    # directions whose primal error is well under 1e-10: with its solves
    # refined a fixed number of times, 10 of the 16 trials stopped short
    _, prob = build_value_program(bundled_instance("p1_mpec"), 4)
    _assert_status_under_ulp_moves(prob, 1e-10)


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
@pytest.mark.parametrize("order", [3, 4])
def test_p3_value_fit_is_optimal_under_ulp_moves(order, tol):
    # pipeline SDPs whose Schur complement G'G nears singularity late in
    # the solve, where dpotrf can fail by rounding and hand the end game to
    # the QR's triangle: neither the rounding nor the route may cost them
    # their optimum or the agreement of the objective across the trials,
    # at the pipeline's tolerance and below it
    _, prob = build_value_program(bundled_instance("p3_sip"), order)
    objectives = [s.primal_objective for s in _assert_status_under_ulp_moves(prob, tol)]
    assert max(objectives) - min(objectives) <= 1e-11


def test_inconsistent_dependent_rows_end_at_the_start_under_ulp_moves(monkeypatch):
    # four rows on a 2x2 block (three svec coordinates) whose right sides
    # disagree: the part of b along the rows' null vector is a Farkas ray
    # with S = 0, read before the first step, so no rounding of an
    # iteration path decides it
    prob = make_infeasible_instance(2006)
    assert (prob.blocks[0].size, prob.num_constraints) == (2, 4)
    _, factors = _solve_recording_factors(monkeypatch, prob)
    assert factors[0][1]  # dpotrf fails on the start point's G'G
    sols = _assert_status_under_ulp_moves(prob, 1e-8, SdpStatus.PRIMAL_INFEASIBLE)
    assert all(sol.iterations == 0 for sol in sols)


def test_inconsistent_repeated_row_is_decided_at_the_start():
    # trace X = 2 and 2 trace X = 5: y = (-2, 1) has A'y = 0 and b'y = 1
    prob = SdpProblem(
        [SdpBlock(PSD, 2)],
        {0: np.eye(2)},
        [
            SdpConstraint({0: np.eye(2)}, 2.0),
            SdpConstraint({0: 2.0 * np.eye(2)}, 5.0),
        ],
    )
    sol = solve(prob)
    assert sol.status is SdpStatus.PRIMAL_INFEASIBLE and sol.iterations == 0
    assert prob.rhs() @ sol.y == pytest.approx(1.0)
    assert sol.certificate_residual <= 1e-12
    assert np.abs(sol.y - [-2.0, 1.0]).max() <= 1e-12
    assert not sol.s[0].any()


def _four_rows_on_a_2x2_block(seed, shift=0.0):
    """Four generic rows on a 2x2 block (three svec coordinates), with b
    read off a positive definite X* and shift added to b_0; and X*, C."""
    rng = np.random.default_rng(400 + seed)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    X_star = (q * rng.uniform(0.5, 2.0, size=2)) @ q.T
    C, *rows = [A + A.T for A in rng.normal(size=(5, 2, 2))]
    b = [float(np.sum(A * X_star)) for A in rows]
    b[0] += shift
    prob = SdpProblem(
        [SdpBlock(PSD, 2)], {0: C}, [SdpConstraint({0: A}, bi) for A, bi in zip(rows, b)]
    )
    return prob, X_star, C


def test_consistent_dependent_rows_stay_optimal(monkeypatch):
    # b has no part along the rows' null vector, and the one feasible point
    # X* is the optimum.  Whatever dpotrf makes of the singular start G'G,
    # the start point flags the rows, drops one of them, which gets y = 0,
    # and the solve goes on with the other three
    for seed in range(8):
        prob, X_star, C = _four_rows_on_a_2x2_block(seed)
        sol, factors = _solve_recording_factors(monkeypatch, prob)
        assert sol.status is SdpStatus.OPTIMAL, (seed, sol.status, sol.stall)
        target = float(np.sum(C * X_star))
        assert abs(sol.primal_objective - target) <= 1e-7 * (1.0 + abs(target)), seed
        assert [width for width, _, _ in factors] == [4] + [3] * sol.iterations, seed
        assert np.count_nonzero(sol.y == 0.0) == 1, seed


def test_inconsistent_four_rows_end_at_the_start_under_ulp_moves():
    # the same rows with 1 added to b_0: the start point decides them in
    # every trial, whether or not dpotrf fails on the singular start G'G
    for seed in range(12):
        prob, _, _ = _four_rows_on_a_2x2_block(seed, shift=1.0)
        sols = _assert_status_under_ulp_moves(prob, 1e-8, SdpStatus.PRIMAL_INFEASIBLE)
        assert all(sol.iterations == 0 for sol in sols), seed


def _dependent_rows_instance(s, inconsistent):
    """One PSD block of size 2-4 with more rows than svec coordinates, or
    (every third s) a few rows plus one combination of them; b is read off
    a positive definite X, with 1 added to b_0 when ``inconsistent``.
    Returns the problem, its rows and C (random, so the feasible set may
    be unbounded)."""
    rng = np.random.default_rng(400 + s)
    n = int(rng.integers(2, 5))
    dim = n * (n + 1) // 2
    m = int(rng.integers(dim + 1, dim + 4))
    if s % 3 == 0:
        m = int(rng.integers(2, dim + 1))
        base = [A + A.T for A in rng.normal(size=(max(1, m - 1), n, n))]
        rows = base + [sum(c * A for c, A in zip(rng.normal(size=len(base)), base))]
    else:
        rows = [A + A.T for A in rng.normal(size=(m, n, n))]
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    X = (q * rng.uniform(0.5, 2.0, size=n)) @ q.T
    C = rng.normal(size=(n, n))
    C = C + C.T
    b = [float(np.sum(A * X)) for A in rows]
    if inconsistent:
        b[0] += 1.0
    prob = SdpProblem(
        [SdpBlock(PSD, n)], {0: C}, [SdpConstraint({0: A}, bi) for A, bi in zip(rows, b)]
    )
    return prob, rows, C


def _assert_recession_ray(sol, rows, C):
    """A DualInfeasible X with <A_i, X> = 0, <C, X> = -1 and X PSD."""
    assert sol.status is SdpStatus.DUAL_INFEASIBLE, (sol.status, sol.stall)
    X = sol.primal[0]
    assert max(abs(float(np.sum(A * X))) for A in rows) <= 1e-8
    assert abs(float(np.sum(C * X)) + 1.0) <= 1e-8
    assert np.linalg.eigvalsh(X).min() >= -1e-8


def test_proportional_rows_get_no_false_certificate():
    # two proportional rows that the positive definite X satisfies exactly:
    # b has no part along their null vector, so no Farkas ray exists.  The
    # repeat is dropped, and the random objective is unbounded below on the
    # one-row feasible set
    prob, rows, C = _dependent_rows_instance(135, inconsistent=False)
    assert prob.num_constraints == 2
    sol = solve(prob)
    assert sol.status is not SdpStatus.PRIMAL_INFEASIBLE
    _assert_recession_ray(sol, rows, C)


def test_dependent_rows_are_settled_at_the_start():
    # inconsistent rows end PrimalInfeasible at the start with b'y = 1;
    # consistent ones end Optimal or, under a random objective, with a
    # checked recession ray
    for s, inconsistent in itertools.product(range(30), (True, False)):
        prob, rows, C = _dependent_rows_instance(s, inconsistent)
        sol = solve(prob)
        if inconsistent:
            assert sol.status is SdpStatus.PRIMAL_INFEASIBLE, (s, sol.status, sol.stall)
            assert sol.iterations == 0, s
            assert prob.rhs() @ sol.y == pytest.approx(1.0), s
            assert sol.certificate_residual <= 1e-8, s
        elif sol.status is SdpStatus.OPTIMAL:
            assert max(residuals(prob, sol.primal, sol.y, sol.s)) <= 1e-8, s
        else:
            _assert_recession_ray(sol, rows, C)


def test_each_iteration_makes_three_solves(monkeypatch):
    # the tau column, the predictor and the corrector, one direction each
    # for the last two; only the tau column's solve takes a step past its
    # target (the last iteration only checks the tolerances), and the
    # solves that stop at their target make fewer products with G than the
    # 14 per iteration of a fixed refinement (twice for the tau column, once
    # for the others)
    calls = {"solve": 0, "extra": 0, "direction": 0, "product": 0}
    inner_init, inner_solve = _SchurFactor.__init__, _SchurFactor.solve
    direction = sdp._HsdSolver._direction

    class CountedG(np.ndarray):  # G (and G') counting its products
        def __matmul__(self, other):
            calls["product"] += 1
            return np.asarray(self) @ other

    def counted_init(self, G, *target):
        inner_init(self, G, *target)
        self.G = G.view(CountedG)

    def counted_solve(self, e, h, extra_step=False):
        calls["solve"] += 1
        calls["extra"] += extra_step
        return inner_solve(self, e, h, extra_step)

    def counted_direction(*args):
        calls["direction"] += 1
        return direction(*args)

    monkeypatch.setattr(_SchurFactor, "__init__", counted_init)
    monkeypatch.setattr(_SchurFactor, "solve", counted_solve)
    monkeypatch.setattr(sdp._HsdSolver, "_direction", counted_direction)
    _, prob = build_value_program(bundled_instance("p1_mpec"), 3)
    sol = solve(prob)
    assert sol.status is SdpStatus.OPTIMAL and sol.iterations >= 10
    assert calls["solve"] == 3 * sol.iterations
    assert calls["extra"] == sol.iterations
    assert calls["direction"] == 2 * sol.iterations
    assert calls["product"] < 14 * sol.iterations


def test_large_value_fit_takes_a_centrality_corrector(monkeypatch, p1_value_program):
    # the order-5 value fit's Schur complement costs more than
    # CENTRALITY_RATIO correctors, so each iteration makes a fourth solve,
    # the corrector's, and the solve ends in fewer iterations than without it
    assert sdp._HsdSolver(p1_value_program, SolverOptions()).centring
    calls = {"solve": 0}
    inner_solve = _SchurFactor.solve

    def counted_solve(self, e, h, extra_step=False):
        calls["solve"] += 1
        return inner_solve(self, e, h, extra_step)

    monkeypatch.setattr(_SchurFactor, "solve", counted_solve)
    sol = solve(p1_value_program)
    assert sol.status is SdpStatus.OPTIMAL
    assert calls["solve"] == 4 * sol.iterations
    monkeypatch.setattr(sdp, "CENTRALITY_RATIO", math.inf)
    without = solve(p1_value_program)
    assert without.status is SdpStatus.OPTIMAL
    assert sol.iterations < without.iterations


@pytest.mark.parametrize("size", [1, 3, 10, 35])
def test_step_bound_reads_the_least_eigenvalue_alone(size):
    # dsyevr's least eigenvalue of each scaled block gives the bound that the
    # full spectrum of np.linalg.eigvalsh gives, on random directions of a
    # stack of three members
    rng = np.random.default_rng(size)
    st = SimpleNamespace(tau=1.0, kappa=1.0)
    for _ in range(5):
        lam = rng.uniform(1e-3, 10.0, size=(3, size))
        dXt, dSt = (sdp._sym(rng.normal(size=(3, size, size))) for _ in range(2))
        d = {"Xt": [dXt], "St": [dSt], "tau": 1.0, "kappa": 1.0}
        fact = {"blocks": [(None, lam, None)]}
        root = 1.0 / np.sqrt(lam)
        scaled = [root[:, :, None] * dZ * root[:, None, :] for dZ in (dXt, dSt)]
        low = min(np.linalg.eigvalsh(dZ).min() for dZ in scaled)
        want = math.inf if low >= -1e-16 else 1.0 / -low
        assert sdp._HsdSolver._max_step(None, st, fact, d) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("order", [3, 5])
def test_directions_stay_scaled_until_the_step(monkeypatch, order):
    # sum_i y_i A_i is formed once per stack for each residual evaluation and
    # once per stack for the step taken: the predictor, and a corrector that
    # is discarded, never leave scaled coordinates (at order 5 the
    # centrality corrector runs too)
    calls = {"combine": 0, "residuals": 0}
    combine, residuals_ = sdp._PsdStack.combine, sdp._HsdSolver._residuals

    def counted_combine(self, y):
        calls["combine"] += 1
        return combine(self, y)

    def counted_residuals(self, st):
        calls["residuals"] += 1
        return residuals_(self, st)

    monkeypatch.setattr(sdp._PsdStack, "combine", counted_combine)
    monkeypatch.setattr(sdp._HsdSolver, "_residuals", counted_residuals)
    _, prob = build_value_program(bundled_instance("p1_mpec"), order)
    stacks = len(_Cone(prob).stacks)
    sol = solve(prob)
    assert sol.status is SdpStatus.OPTIMAL and sol.iterations >= 10
    assert calls["combine"] == stacks * (calls["residuals"] + sol.iterations)


def test_scaled_dual_step_agrees_with_the_step_taken(monkeypatch):
    # dS~ is read off the complementarity row, Rc o/ J - dX~; along p1's
    # order-4 value fit it stays within 1e-8 of R'dS R of the unscaled dS
    # the iterate takes (the gap grows to about 7e-10 as mu falls)
    gaps = []
    search = sdp._HsdSolver._search_direction

    def checked(self, st, fact, resid, mu):
        d, alpha = search(self, st, fact, resid, mu)
        for (R, _, _), dS, St in zip(fact["blocks"], d["S"], d["St"]):
            want = sdp._sym(sdp._t(R) @ dS @ R)
            gaps.append(np.linalg.norm(St - want) / np.linalg.norm(want))
        return d, alpha

    monkeypatch.setattr(sdp._HsdSolver, "_search_direction", checked)
    _, prob = build_value_program(bundled_instance("p1_mpec"), 4)
    assert solve(prob).status is SdpStatus.OPTIMAL
    assert gaps and max(gaps) <= 1e-8


def _quartic_relaxation():
    """The order-4 moment relaxation of x^4 - x^2 on [-1, 1]."""
    f = parse_polynomial("x^4 - x^2", ["x"])
    g = parse_polynomial("1 - x^2", ["x"])
    return build_moment_relaxation(f, [g], 4)[1]


@pytest.mark.parametrize("tol", [1e-9, 1e-10])
def test_quartic_relaxation_is_optimal_under_ulp_moves(tol):
    # near its end the primal residual is the error of the tau column's
    # solve; refined to its target and one step past it, it stays below
    # 1e-10 whatever the last bits of the right side
    _assert_status_under_ulp_moves(_quartic_relaxation(), tol)


def test_quartic_relaxation_needs_the_tau_columns_extra_step(monkeypatch):
    # the witness of the test above: with the tau column's solve stopped at
    # its target, like the other solves, some of the 16 trials miss 1e-10
    solve_to_target = _SchurFactor.solve
    monkeypatch.setattr(
        _SchurFactor,
        "solve",
        lambda self, e, h, extra_step=False: solve_to_target(self, e, h),
    )
    tight = SolverOptions(gap_tol=1e-10, feas_tol=1e-10)
    trials = _ulp_trials(_quartic_relaxation())
    statuses = [solve(moved, tight).status for moved in trials]
    assert statuses.count(SdpStatus.OPTIMAL) < 16, statuses
