"""Tests for the closed-form box moments."""

import numpy as np
import pytest

from mpecsos.boxmoments import box_moments
from mpecsos.polynomials import Polynomial, monomial_basis


def _moment(alpha, halfwidths):
    return float(box_moments([alpha], halfwidths)[0])


def test_total_mass():
    assert _moment((0, 0), (1.0, 1.0)) == 1.0
    assert box_moments([()], ()).tolist() == [1.0]


def test_odd_exponent_exactly_zero():
    assert _moment((1, 0), (1.0, 1.0)) == 0.0
    # bitwise zero for any odd entry, any half-width
    for alpha in [(3, 0), (0, 1), (2, 5), (1, 1)]:
        assert _moment(alpha, (1.7, 1.7)) == 0.0


def test_even_moment_closed_form():
    # integral of t^2/2 over [-1,1] is 1/3; t^4 gives 1/5
    assert _moment((2, 4), (1.0, 1.0)) == pytest.approx(1.0 / 15.0, rel=1e-15)


def test_halfwidth_scaling():
    # c^a/(a+1) per axis
    assert _moment((2,), (2.0,)) == pytest.approx(4.0 / 3.0)
    assert _moment((2, 2), (1.0, 2.0)) == pytest.approx((1.0 / 3.0) * (4.0 / 3.0))


def test_moment_vector_degree_two():
    mv = box_moments(monomial_basis(2, 2).monomials, (1.0, 1.0))
    assert mv.tolist() == [1.0, 0.0, 0.0, 1.0 / 3.0, 0.0, 1.0 / 3.0]


def test_moment_vector_single_constant():
    assert box_moments(monomial_basis(1, 0).monomials, (5.0,)).tolist() == [1.0]


def test_moment_vector_mixed_entry():
    basis = monomial_basis(2, 4)
    mv = box_moments(basis.monomials, (1.0, 1.0))
    assert mv[basis.index((2, 2))] == pytest.approx(1.0 / 9.0)


def test_constant_polynomial_pairing_is_one():
    basis = monomial_basis(3, 4)
    one = Polynomial.constant(["a", "b", "c"], 1.0)
    coeffs = np.array([one.coefficient(alpha) for alpha in basis.monomials])
    assert box_moments(basis.monomials, (0.8, 0.8, 0.8)) @ coeffs == pytest.approx(1.0)


def test_invalid_arguments():
    with pytest.raises(ValueError, match="positive"):
        box_moments([(2,)], (0.0,))
    with pytest.raises(ValueError, match="positive"):
        box_moments([(2,)], (float("nan"),))
    with pytest.raises(ValueError, match="length"):
        box_moments([(2, 2)], (1.0,))


def test_quadrature_consistency():
    """Pairing against moments matches a dense tensor-grid quadrature."""
    rng = np.random.default_rng(7)
    basis = monomial_basis(2, 6)
    # midpoint rule on a 200x200 grid over [-1,1]^2
    nodes = -1.0 + (np.arange(200) + 0.5) * (2.0 / 200)
    X, Y = np.meshgrid(nodes, nodes, indexing="ij")
    mv = box_moments(basis.monomials, (1.0, 1.0))
    for _ in range(5):
        coeffs = rng.uniform(-1, 1, size=len(basis))
        poly = Polynomial(["x", "y"], dict(zip(basis.monomials, coeffs)))
        grid = poly.evaluate_broadcast([X, Y]).mean()
        assert grid == pytest.approx(float(mv @ coeffs), abs=1e-4)


def _per_axis_product(alpha, halfwidths):
    """One moment as a Python-float product over the axes, left to right."""
    value = 1.0
    for a, c in zip(alpha, halfwidths):
        if a % 2 == 1:
            return 0.0
        if a:
            value *= c**a / (a + 1)
    return value


@pytest.mark.parametrize("num_vars", [1, 2, 3, 4])
def test_moments_match_the_per_axis_product_bytewise(num_vars):
    rng = np.random.default_rng(num_vars)
    basis = monomial_basis(num_vars, 10)
    for _ in range(50):
        widths = tuple(float(c) for c in rng.uniform(0.05, 4.0, num_vars))
        want = np.array([_per_axis_product(a, widths) for a in basis.monomials])
        assert box_moments(basis.monomials, widths).tobytes() == want.tobytes()
