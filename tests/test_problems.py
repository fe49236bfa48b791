"""Instance loading and sampled assumption checks."""

import math

import pytest

from mpecsos.problems import (
    BUNDLED_INSTANCES,
    ProblemFormatError,
    bundled_instance,
    load_problem,
    validate_assumptions,
)
from mpecsos.polynomials import parse_polynomial

P1_DOC = """
objective: "x + y"
A: ["-x^2*((x*y - 1)^2 + y^4)"]
B: ["1 - x^2", "1 - y^2"]
phi: "x*v^2/2 - v^3/3 - (x*y^2/2 - y^3/3)"
M: 1.0
variables:
  x: [x]
  y: [y]
"""


def test_load_p1_document():
    prob = load_problem(P1_DOC)
    assert prob.n == 1 and prob.m == 1
    assert prob.v_vars == ("v",)
    assert len(prob.constraints_g) == 1
    assert len(prob.constraints_h) == 2
    assert prob.box.halfwidths == (1.0, 1.0)
    assert prob.phi.evaluate([0.0, 1.0, 1.0]) == pytest.approx(0.0)


def test_load_rejects_nonpositive_bound():
    with pytest.raises(ProblemFormatError):
        load_problem(P1_DOC.replace("M: 1.0", "M: 0"))


@pytest.mark.parametrize(
    "old, new",
    [
        ("M: 1.0", "M: abc"),
        ("M: 1.0", "M: {x: [1], y: 1}"),
        ("M: 1.0", "M: .nan"),
        ("  x: [x]", "  x: 1"),
        ("  x: [x]", "  x: xy"),
        ("variables:\n  x: [x]\n  y: [y]", "variables: {x: 1}"),
    ],
)
def test_load_rejects_malformed_bounds_and_names(old, new):
    assert old in P1_DOC
    with pytest.raises(ProblemFormatError):
        load_problem(P1_DOC.replace(old, new))


def test_load_rejects_overflowing_literal():
    doc = P1_DOC.replace('objective: "x + y"', 'objective: "x + 1e999*y"')
    with pytest.raises(ProblemFormatError, match="out of range"):
        load_problem(doc)


@pytest.mark.parametrize(
    "expression, position",
    [("x + 1e200*1e200*y", 9), ("(1e200*x)^2 + y", 9), ("1e308*x + 1e308*x + y", 8)],
)
def test_load_rejects_overflowing_arithmetic(expression, position):
    # each operation is finite on its own input and overflows a coefficient
    doc = P1_DOC.replace('objective: "x + y"', f'objective: "{expression}"')
    with pytest.raises(ProblemFormatError, match=f"overflow.*position {position}"):
        load_problem(doc)


def test_load_missing_section():
    broken = P1_DOC.replace('phi: "x*v^2/2 - v^3/3 - (x*y^2/2 - y^3/3)"', "")
    with pytest.raises(ProblemFormatError, match="phi"):
        load_problem(broken)


def test_load_undeclared_identifier_in_phi():
    broken = P1_DOC.replace("x*v^2/2", "x*w^2/2")
    with pytest.raises(ProblemFormatError):
        load_problem(broken)


def test_bundled_instances_load():
    for name in BUNDLED_INSTANCES:
        prob = bundled_instance(name)
        assert prob.n >= 1 and prob.m >= 1
        assert prob.name == name


def test_p3_sip_shape():
    prob = bundled_instance("p3_sip")
    assert len(prob.constraints_h) == 1
    assert prob.box.halfwidths == (1.0, 2.0)
    # the substituted inner constraint bounds v, not x1
    (h_xv,) = prob.h_in_xv()
    assert h_xv.evaluate([0.0, 0.0, 1.0]) == pytest.approx(0.0)
    assert h_xv.evaluate([0.9, 0.0, 0.0]) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "names", ["{x: [x], y: [x]}", "{x: [x], y: [y, y]}", "{x: [a, a], y: [y]}"]
)
def test_load_rejects_repeated_variable_names(names):
    doc = P1_DOC.replace("variables:\n  x: [x]\n  y: [y]", f"variables: {names}")
    assert doc != P1_DOC
    with pytest.raises(ProblemFormatError, match="repeated"):
        load_problem(doc)


def test_h_in_xv_renames_each_y_to_its_v():
    prob = load_problem(
        "variables: {x: [x], y: [y1, y2]}\nobjective: x + y1\nA: []\n"
        "B: ['1 - x*y1^2 + 0.5*y2 - y1*y2^3']\nphi: v1 - y1\nM: 1\n"
    )
    (h_xv,) = prob.h_in_xv()
    want = parse_polynomial("1 - x*v1^2 + 0.5*v2 - v1*v2^3", prob.ambient_vars)
    assert h_xv == want


def test_min_order():
    p1 = bundled_instance("p1_mpec")
    assert p1.min_order() == 2  # phi is cubic
    p3 = bundled_instance("p3_sip")
    assert p3.min_order() == 2  # phi is quartic


def test_load_deterministic():
    a = load_problem(P1_DOC)
    b = load_problem(P1_DOC)
    assert a.cache_key() == b.cache_key()
    assert a.objective_f == b.objective_f


def test_validate_p1_passes():
    report = validate_assumptions(bundled_instance("p1_mpec"), sample_count=2000)
    assert report.all_passed, report.warnings()


def test_validate_p2_passes():
    report = validate_assumptions(bundled_instance("p2_bilevel"), sample_count=2000)
    assert report.all_passed, report.warnings()


def test_validate_flags_empty_inner_set():
    doc = P1_DOC.replace('B: ["1 - x^2", "1 - y^2"]', 'B: ["-1 - y^2"]')
    report = validate_assumptions(load_problem(doc), sample_count=500)
    failing = [c for c in report.checks if not c.passed]
    assert any(c.name == "inner_set_nonempty" for c in failing)


def test_box_polynomials():
    prob = bundled_instance("p2_bilevel")
    polys = prob.box.polynomials(prob.z_vars)
    assert polys[0].evaluate([1.0, 0.0]) == pytest.approx(0.0)   # 1 - x^2
    assert polys[1].evaluate([0.0, 2.0]) == pytest.approx(0.0)   # 4 - y^2
