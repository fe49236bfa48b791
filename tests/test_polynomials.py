"""Unit and property tests for the sparse polynomial core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpecsos.polynomials import (
    ParseError,
    Polynomial,
    monomial_basis,
    parse_polynomial,
)


# ----------------------------------------------------------------------
# parsing


def test_parse_single_variable():
    p = parse_polynomial("x", ["x", "y"])
    assert p.terms == {(1, 0): 1.0}


def test_parse_two_terms():
    p = parse_polynomial("x^2*y - 0.5", ["x", "y"])
    assert p.terms == {(2, 1): 1.0, (0, 0): -0.5}


def test_parse_nested_expansion():
    # -x^2*((x*y-1)^2 + y^4) expands to -x^4 y^2 + 2 x^3 y - x^2 - x^2 y^4
    p = parse_polynomial("-x^2*((x*y-1)^2+y^4)", ["x", "y"])
    assert p.terms == {(4, 2): -1.0, (3, 1): 2.0, (2, 0): -1.0, (2, 4): -1.0}


def test_parse_constant_division():
    p = parse_polynomial("x*v^2/2 - v^3/3", ["x", "v"])
    assert p.coefficient((1, 2)) == pytest.approx(0.5)
    assert p.coefficient((0, 3)) == pytest.approx(-1.0 / 3.0)


def test_parse_division_by_polynomial_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("1/x", ["x"])


def test_parse_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_polynomial("x + z", ["x", "y"])


def test_parse_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + * y", ["x", "y"])
    assert err.value.position == 4


def test_parse_exponent_overflow():
    with pytest.raises(ParseError, match="overflow"):
        parse_polynomial("x^100", ["x"])


def test_parse_rejects_overflowing_literal():
    with pytest.raises(ParseError, match="out of range"):
        parse_polynomial("x + 1e999", ["x"])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficient_rejected(bad):
    with pytest.raises(ValueError, match="not finite"):
        Polynomial(["x"], {(1,): bad})
    p = parse_polynomial("x + 1", ["x"])
    with pytest.raises(ValueError, match="not finite"):
        p + bad
    with pytest.raises(ValueError, match="not finite"):
        p * bad


def test_parse_deterministic():
    a = parse_polynomial("(x+y)^3 - x*y", ["x", "y"])
    b = parse_polynomial("(x+y)^3 - x*y", ["x", "y"])
    assert a == b


# ----------------------------------------------------------------------
# evaluation


def test_evaluate_sum():
    p = parse_polynomial("x + y", ["x", "y"])
    assert p.evaluate([1.0, 2.0]) == pytest.approx(3.0)


def test_evaluate_zero_polynomial():
    assert Polynomial.zero(["x", "y"]).evaluate([3.7, -2.0]) == 0.0


def test_evaluate_constraint_polynomial():
    g = parse_polynomial("-x^2*((x*y-1)^2+y^4)", ["x", "y"])
    assert g.evaluate([1.0, 1.0]) == pytest.approx(-1.0)


def test_evaluate_dimension_mismatch():
    p = parse_polynomial("x + y", ["x", "y"])
    with pytest.raises(ValueError):
        p.evaluate([1.0])


def test_evaluate_array_matches_pointwise():
    p = parse_polynomial("x^3 - 2*x*y + 0.25", ["x", "y"])
    pts = np.array([[0.1, -0.3], [1.0, 1.0], [-2.0, 0.5]])
    vals = p.evaluate_array(pts)
    for row, v in zip(pts, vals):
        assert v == pytest.approx(p.evaluate(row))


# ----------------------------------------------------------------------
# scaling


def _expanded_stretch(p, factors):
    """p with each z_i replaced by the polynomial c_i * z_i, expanded term
    by term through polynomial products and powers."""
    names = p.variables
    result = Polynomial.zero(names)
    for alpha, coeff in p.terms.items():
        term = Polynomial.constant(names, coeff)
        for i, (c, e) in enumerate(zip(factors, alpha)):
            if e:
                unit = tuple(1 if j == i else 0 for j in range(len(names)))
                term = term * Polynomial.monomial(names, unit, c) ** e
        result = result + term
    return result


def _same_bytes(p, q):
    assert p.variables == q.variables
    assert list(p.terms) == list(q.terms)
    assert np.array([*p.terms.values()]).tobytes() == np.array([*q.terms.values()]).tobytes()


def test_scaled_matches_the_substitute_expansion():
    rng = np.random.default_rng(11)
    names = ["x", "y", "z"]
    basis = monomial_basis(3, 6)
    for _ in range(100):
        keep = rng.random(len(basis)) < 0.4
        # magnitudes 5e-3..2e3 keep every partial product far above COEFF_CLEANUP
        coeffs = rng.choice([-1.0, 1.0], len(basis)) * rng.uniform(0.5, 2.0, len(basis))
        coeffs = coeffs * 10.0 ** rng.integers(-2, 4, len(basis))
        p = Polynomial(names, {a: c for a, c, k in zip(basis.monomials, coeffs, keep) if k})
        factors = rng.uniform(0.1, 3.0, 3).tolist()
        _same_bytes(p.scaled(factors), _expanded_stretch(p, factors))
    p = parse_polynomial("x*y^2 - 3*y + 0.5", ["x", "y"])
    assert p.scaled([2.0, 0.5]) == parse_polynomial("0.5*x*y^2 - 1.5*y + 0.5", ["x", "y"])


def test_scaled_by_ones_is_identity():
    p = parse_polynomial("x^2*y - y^3 + 1", ["x", "y"])
    _same_bytes(p.scaled([1.0, 1.0]), p)


def test_scaled_rejects_a_wrong_factor_count():
    p = parse_polynomial("x*y", ["x", "y"])
    with pytest.raises(ValueError, match="one factor per variable"):
        p.scaled([2.0])


def test_in_variables_names_the_missing_variable():
    p = Polynomial(("a", "b", "c"), {(0, 0, 1): 1.0})
    with pytest.raises(ValueError, match="'c'"):
        p.in_variables(("a",))


# ----------------------------------------------------------------------
# monomial bases


def test_basis_two_vars_degree_two():
    basis = monomial_basis(2, 2)
    assert basis.monomials == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


@pytest.mark.parametrize("n,d,size", [(3, 2, 10), (2, 3, 10), (1, 0, 1)])
def test_basis_sizes(n, d, size):
    assert len(monomial_basis(n, d)) == size


def test_basis_counts_match_binomials():
    for n in range(1, 9):
        for d in range(0, 9):
            assert len(monomial_basis(n, d)) == math.comb(n + d, d)


def test_basis_index_roundtrip():
    basis = monomial_basis(3, 4)
    for i, alpha in enumerate(basis.monomials):
        assert basis.index(alpha) == i


# ----------------------------------------------------------------------
# arithmetic


def test_add_cancels():
    x = parse_polynomial("x", ["x"])
    assert (x + (-x)).is_zero()


def test_difference_of_squares():
    x_plus = parse_polynomial("x + y", ["x", "y"])
    x_minus = parse_polynomial("x - y", ["x", "y"])
    assert x_plus * x_minus == parse_polynomial("x^2 - y^2", ["x", "y"])


def test_square_expansion():
    p = parse_polynomial("x*y - 1", ["x", "y"])
    assert p * p == parse_polynomial("x^2*y^2 - 2*x*y + 1", ["x", "y"])


def test_variable_mismatch_raises():
    with pytest.raises(ValueError):
        parse_polynomial("x", ["x"]) + parse_polynomial("y", ["y"])


# ----------------------------------------------------------------------
# properties

_coeffs = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


def _random_poly(draw, variables):
    n = len(variables)
    exps = draw(
        st.lists(
            st.tuples(*(st.integers(0, 3) for _ in range(n))),
            min_size=1,
            max_size=6,
        )
    )
    coeffs = draw(st.lists(_coeffs, min_size=len(exps), max_size=len(exps)))
    return Polynomial(variables, dict(zip(exps, coeffs)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_evaluation_consistency(data):
    variables = ("x", "y", "z")
    p = _random_poly(data.draw, variables)
    q = _random_poly(data.draw, variables)
    point = [data.draw(st.floats(-1.5, 1.5)) for _ in variables]
    lhs = (p * q).evaluate(point)
    rhs = p.evaluate(point) * q.evaluate(point)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_render_parse_roundtrip(data):
    variables = ("x", "y")
    p = _random_poly(data.draw, variables)
    assert parse_polynomial(p.render(), variables) == p


def test_render_zero():
    assert Polynomial.zero(["x"]).render() == "0"
    assert parse_polynomial("0", ["x"]).is_zero()
