"""Solver tests: analytic micro-problems, a seeded random-instance oracle
with constructed optima, certificate soundness for infeasible data, and
constraint data given as dense rows or as one entry table per block,
checked alike."""

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
    # slacks are checked like the primal: one per block, of its shape
    with pytest.raises(ValueError, match="slack block 0"):
        residuals(prob, [np.eye(2)], np.array([1.0]), [np.zeros(2)])
    with pytest.raises(ValueError, match="one slack"):
        residuals(prob, [np.eye(2)], np.array([1.0]), [np.zeros((2, 2))] * 2)


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
    """Objective recovered to 1e-7 relative, and the Optimal certificate, on
    every constructed optimum."""
    failures = []
    for seed in range(50):
        prob, target = make_random_instance(1000 + seed)
        sol = solve(prob)
        rel = abs(sol.primal_objective - target) / (1.0 + abs(target))
        if sol.status is not SdpStatus.OPTIMAL or rel > 1e-7:
            failures.append((seed, sol.status, rel))
    assert not failures, failures


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


def _as_tables(prob, rng):
    """``prob`` given to ``SdpProblem.from_tables``: the nonzero upper
    entries of every dense row, one table per block, in shuffled order."""
    parts = [[] for _ in prob.blocks]
    for row, con in enumerate(prob.constraints):
        for bi, arr in con.coeffs.items():
            index = np.nonzero(np.triu(arr) if arr.ndim == 2 else arr)
            parts[bi].append((np.full(len(index[0]), row), *index, arr[index]))
    tables = []
    for part in parts:
        table = [np.concatenate(a) for a in zip(*part)]
        order = rng.permutation(len(table[0]))
        tables.append([a[order] for a in table])
    return SdpProblem.from_tables(prob.blocks, prob.objective, tables, prob.rhs())


def _free_variable_problem():
    # minimize t subject to t - x = 0, x >= 0, x = 3
    return SdpProblem(
        blocks=[SdpBlock(BlockKind.FREE, 1), SdpBlock(BlockKind.NONNEG, 2)],
        objective={0: np.array([1.0]), 1: np.array([0.0, 1.0])},
        constraints=[
            SdpConstraint({0: np.array([1.0]), 1: np.array([-1.0, 0.0])}, 0.0),
            SdpConstraint({1: np.array([1.0, 1.0])}, 3.0),
        ],
    )


@pytest.mark.parametrize("seed", range(5))
def test_triples_solve_to_the_dense_bytes(seed):
    # the entry tables of each dense problem, in a permuted entry order,
    # solve to that problem's bytes
    rng = np.random.default_rng(seed)
    for dense in (
        make_random_instance(1000 + seed)[0],
        make_infeasible_instance(2000 + seed),
        _free_variable_problem(),
    ):
        a, b = solve(dense), solve(_as_tables(dense, rng))
        assert (a.status, a.iterations) == (b.status, b.iterations)
        for got, want in ((a.primal, b.primal), (a.s, b.s), ([a.y], [b.y])):
            if want is not None:
                assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


@pytest.mark.parametrize(
    "entries, what, row",
    [
        ((np.array([0]), np.array([1]), np.array([np.inf])), "not finite", 1),
        ((np.array([0]), np.array([2]), np.array([1.0])), "outside the block", 1),
        ((np.array([1]), np.array([0]), np.array([1.0])), "below the diagonal", 1),
        ((np.array([0, 0]), np.array([1, 1]), np.array([1.0, 2.0])), "repeated", 1),
        ((np.array([0]), np.array([1]), np.array([1.0])), "row outside 0..1", 2),
    ],
    ids=[
        "non-finite", "index-too-large", "below-diagonal", "repeated", "row-too-large"
    ],
)
def test_malformed_triples_name_their_constraint(entries, what, row):
    # row 0 holds the identity, row ``row`` the malformed entries
    i, j, value = entries
    rows = np.r_[0, 0, np.full(len(i), row)]
    table = (rows, np.r_[0, 1, i], np.r_[0, 1, j], np.r_[1.0, 1.0, value])
    with pytest.raises(ValueError, match=f"^constraint {row}: .*{what}"):
        SdpProblem.from_tables([SdpBlock(BlockKind.PSD, 2)], {}, [table], [2.0, 1.0])


def test_tables_of_the_wrong_shape_are_refused():
    psd, i = [SdpBlock(BlockKind.PSD, 2)], np.array([0])
    with pytest.raises(ValueError, match="one entry table per block"):
        SdpProblem.from_tables(psd, {}, [], [1.0])
    with pytest.raises(ValueError, match=r"block 0: expected \(row, i, j, value\)"):
        SdpProblem.from_tables(psd, {}, [(i, i, np.ones(1))], [1.0])
    with pytest.raises(ValueError, match="block 0: entry index not an integer"):
        SdpProblem.from_tables(psd, {}, [(i * 1.0, i, i, np.ones(1))], [1.0])


def test_asymmetry_beyond_rounding_rejected():
    psd = [SdpBlock(BlockKind.PSD, 2)]
    skew = np.array([[1.0, 1.0], [1.000009, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        SdpProblem(psd, {}, [SdpConstraint({0: skew}, 1.0)])
    with pytest.raises(ValueError, match="not symmetric"):
        SdpProblem(psd, {0: skew}, [SdpConstraint({0: np.eye(2)}, 1.0)])
    # an asymmetry of one ulp is averaged
    near = np.array([[1.0, 1.0], [np.nextafter(1.0, 2.0), 1.0]])
    stored = SdpProblem(psd, {}, [SdpConstraint({0: near}, 1.0)]).constraints[0]
    average = 0.5 * (near[0, 1] + near[1, 0])
    assert stored.coeffs[0][0, 1] == stored.coeffs[0][1, 0] == average


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(gap_tol=0.0)
