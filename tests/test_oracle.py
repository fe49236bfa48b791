"""Ground-truth oracle: inner values and perturbed reference solves."""

import sys
import threading

import numpy as np
import pytest

from mpecsos import oracle
from mpecsos.oracle import (
    EMPTY_INNER,
    INFEASIBLE,
    OracleConfig,
    inner_value,
    inner_value_grid,
    solve_perturbed_reference,
    sym_grid,
)
from mpecsos.problems import bundled_instance, load_problem


@pytest.fixture(scope="module")
def p1():
    return bundled_instance("p1_mpec")


@pytest.fixture(scope="module")
def p2():
    return bundled_instance("p2_bilevel")


@pytest.fixture(scope="module")
def p3():
    return bundled_instance("p3_sip")


def test_sym_grid_hits_exact_landmarks():
    g = sym_grid(1.0, 401)
    assert g[0] == -1.0 and g[-1] == 1.0
    assert g[200] == 0.0


def test_inner_value_p1_closed_form(p1):
    # for x in [2/3, 1] the inner minimum sits at v = 0
    val = inner_value(p1, [0.8], [0.5])
    expected = -0.8 * 0.25 / 2.0 + 0.125 / 3.0
    assert val == pytest.approx(expected, abs=1e-4)


def test_inner_value_p1_other_branch(p1):
    # for x < 2/3 the inner minimum sits at v = 1
    val = inner_value(p1, [0.0], [0.0])
    assert val == pytest.approx(-1.0 / 3.0, abs=1e-4)


def test_inner_value_p2_at_origin(p2):
    val = inner_value(p2, [0.0], [0.0])
    assert val == pytest.approx(-1.0 / 3.0, abs=1e-4)


def test_inner_value_p3(p3):
    val = inner_value(p3, [0.5], [1.0])
    assert val == pytest.approx(1.0 - 0.25 - 0.0625, abs=1e-4)


def test_inner_value_empty_slice():
    doc = """
objective: "x + y"
A: ["x + y"]
B: ["-1 - y^2"]
phi: "v"
M: 1.0
variables:
  x: [x]
  y: [y]
"""
    prob = load_problem(doc)
    assert inner_value(prob, [0.0], [0.0]) is EMPTY_INNER
    grid = inner_value_grid(prob, np.array([[0.0, 0.0], [0.5, 0.1]]))
    assert np.isnan(grid).all()


def test_inner_value_upper_bounds_feasible_samples(p1):
    """Minimization soundness: the reported value never exceeds phi at a
    feasible inner sample."""
    rng = np.random.default_rng(11)
    for _ in range(25):
        x = rng.uniform(-1, 1)
        y = rng.uniform(-1, 1)
        v = rng.uniform(-1, 1)
        val = inner_value(p1, [x], [y])
        assert val <= p1.phi.evaluate([x, y, v]) + 1e-9


def test_inner_grid_resolution_stability(p1, p2):
    coarse = OracleConfig(inner_grid=1001)
    fine = OracleConfig(inner_grid=2001)
    rng = np.random.default_rng(3)
    for prob in (p1, p2):
        for _ in range(8):
            x = [rng.uniform(-1, 1)]
            y = [rng.uniform(-c, c) for c in prob.y_halfwidths()]
            a = inner_value(prob, x, y, coarse)
            b = inner_value(prob, x, y, fine)
            assert abs(a - b) <= 1e-3


def test_reference_p1_unperturbed(p1):
    ref = solve_perturbed_reference(p1, 0.0)
    assert ref.value == pytest.approx(1.0, abs=5e-3)
    assert ref.point[0] == pytest.approx(0.0, abs=5e-3)
    assert ref.point[1] == pytest.approx(1.0, abs=5e-3)


def test_reference_p2_unperturbed(p2):
    ref = solve_perturbed_reference(p2, 0.0)
    assert ref.value == pytest.approx(2.0, abs=5e-3)
    assert ref.point[0] == pytest.approx(0.0, abs=5e-3)
    assert ref.point[1] == pytest.approx(2.0, abs=5e-3)


def test_reference_p3_unperturbed(p3):
    ref = solve_perturbed_reference(p3, 0.0)
    assert ref.value == pytest.approx(0.0, abs=5e-3)
    assert abs(ref.point[0]) <= 5e-3
    assert abs(ref.point[1]) <= 5e-3


@pytest.mark.parametrize("name", ["p1_mpec", "p2_bilevel", "p3_sip"])
def test_reference_monotone_in_eps(name):
    prob = bundled_instance(name)
    values = []
    for eps in (0.0, 1e-4, 1e-3, 1e-2, 1e-1):
        ref = solve_perturbed_reference(prob, eps)
        assert ref is not INFEASIBLE
        values.append(ref.value)
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-9


def test_reference_infeasible_reported():
    doc = """
objective: "x + y"
A: ["-1 - x^2"]
B: ["1 - y^2"]
phi: "v^2"
M: 1.0
variables:
  x: [x]
  y: [y]
"""
    prob = load_problem(doc)
    assert solve_perturbed_reference(prob, 0.0) is INFEASIBLE


def test_dimension_cap():
    doc = """
objective: "a + b + c"
A: ["a"]
B: ["1 - d^2", "1 - e^2", "1 - f^2"]
phi: "v1 + v2 + v3"
M: 1.0
variables:
  x: [a, b, c]
  y: [d, e, f]
"""
    prob = load_problem(doc)
    with pytest.raises(ValueError, match="at most"):
        inner_value(prob, [0, 0, 0], [0, 0, 0])


def _small_configs(count):
    return [
        OracleConfig(inner_grid=5 + 2 * i, outer_grid=5, refinement_rounds=0)
        for i in range(count)
    ]


def test_value_grid_cache_stays_bounded(p1):
    cap = oracle._VALUE_GRID_CACHE_SIZE
    configs = _small_configs(cap + 3)
    first = solve_perturbed_reference(p1, 0.1, configs[0])
    for config in configs:
        solve_perturbed_reference(p1, 0.1, config)
        assert len(oracle._VALUE_GRID_CACHE) <= cap
    # the oldest grid was evicted and is recomputed to the same answer
    assert solve_perturbed_reference(p1, 0.1, configs[0]) == first
    assert len(oracle._VALUE_GRID_CACHE) <= cap


def test_value_grid_cache_shared_by_threads(p1):
    cap = oracle._VALUE_GRID_CACHE_SIZE
    configs = _small_configs(cap + 2)
    expected = [solve_perturbed_reference(p1, 0.1, c) for c in configs]
    results = {}
    errors = []

    def work(worker):
        try:
            for round_index in range(3):
                for i, config in enumerate(configs):
                    got = solve_perturbed_reference(p1, 0.1, config)
                    results[(worker, round_index, i)] = got
        except Exception as err:  # reported through the assertion below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(results) == 4 * 3 * len(configs)
    for (_, _, i), got in results.items():
        assert got == expected[i]
    assert len(oracle._VALUE_GRID_CACHE) <= cap
