"""Command-line interface: commands, outputs, and the exit-code contract."""

import json

import pytest

from mpecsos.cli import main


def test_validate_bundled(capsys):
    assert main(["validate", "p1_mpec", "--samples", "500"]) == 0
    out = capsys.readouterr().out
    assert "[ok] containment_in_box" in out
    assert "minimum order=2" in out


def test_approx_p1_k3(tmp_path, capsys):
    out_file = tmp_path / "j3.json"
    code = main(["approx", "p1_mpec", "--k", "3", "--out", str(out_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "-0.333" in out  # constant coefficient near the published -0.3338
    payload = json.loads(out_file.read_text())
    assert payload["order"] == 3
    const = [
        row
        for row in payload["coefficients"]
        if all(e == 0 for e in row["exponents"])
    ]
    assert const and abs(const[0]["coefficient"] - (-0.3338)) < 0.01
    assert payload["lower_bound_violation"] <= 1e-6


def test_approx_below_threshold_exit_code(capsys):
    assert main(["approx", "p1_mpec", "--k", "1"]) == 4
    assert "precondition" in capsys.readouterr().err


def test_approx_p3_k2(capsys):
    assert main(["approx", "p3_sip", "--k", "2"]) == 0
    out = capsys.readouterr().out
    # quartic fit is essentially exact: x2 - x1^2 - x1^4
    assert "x2" in out and "x1^4" in out


def test_solve_p1(tmp_path, capsys):
    report = tmp_path / "run.json"
    csv = tmp_path / "series.csv"
    code = main(
        [
            "solve",
            "p1_mpec",
            "--eps",
            "0.0005",
            "--k",
            "3..3",
            "--out",
            str(report),
            "--csv",
            str(csv),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "final value: 0.98" in out
    payload = json.loads(report.read_text())
    assert abs(payload["final_value"] - 0.9843) < 0.02
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "k,value,best_value"
    assert lines[1].startswith("3,")


def test_solve_negative_eps_exit_code(capsys):
    assert main(["solve", "p1_mpec", "--eps", "-1"]) == 4


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_solve_non_finite_eps_exit_code(eps, capsys):
    assert main(["solve", "p1_mpec", "--k", "3..3", "--eps", eps]) == 4
    assert "finite" in capsys.readouterr().err


def test_solve_all_empty_exit_code(tmp_path, capsys):
    doc = tmp_path / "empty.yaml"
    doc.write_text(
        """
objective: "x + y"
A: ["-1 - x^2"]
B: ["1 - x^2", "1 - y^2"]
phi: "x*v^2/2 - v^3/3 - (x*y^2/2 - y^3/3)"
M: 1.0
variables:
  x: [x]
  y: [y]
"""
    )
    assert main(["solve", str(doc), "--eps", "0.001", "--k", "2..2"]) == 5


def test_solve_without_a_value_is_a_solver_failure(monkeypatch, capsys):
    from mpecsos.sos import RelaxationError

    def fail(*args, **kwargs):
        raise RelaxationError("identity program not solved: NumericalTrouble")

    monkeypatch.setattr("mpecsos.driver.compute_value_approximation", fail)
    assert main(["solve", "p1_mpec", "--eps", "5e-4", "--k", "3..4"]) == 3
    captured = capsys.readouterr()
    assert "termination: KMax" in captured.out
    assert "certified empty" not in captured.out
    assert "no order produced a value" in captured.err


def test_solve_repeated_variable_names_exit_code(tmp_path, capsys):
    doc = tmp_path / "dup.yaml"
    doc.write_text(
        """
objective: "x + y"
A: ["-1 - x^2"]
B: ["1 - x^2", "1 - y^2"]
phi: "x*v1 - y"
M: 1.0
variables:
  x: [x]
  y: [y, y]
"""
    )
    assert main(["solve", str(doc), "--eps", "1e-3", "--k", "1..2"]) == 2
    assert "repeated" in capsys.readouterr().err


def test_oracle_inner_value(capsys):
    assert main(["oracle", "p1_mpec", "--J", "0.8", "0.5"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "-0.058333"


def test_oracle_reference_solve(capsys):
    assert main(["oracle", "p1_mpec", "--Peps", "0"]) == 0
    out = capsys.readouterr().out
    assert "value: 1.000000" in out
    assert "point: (0.000000, 1.000000)" in out


def test_oracle_p3_reference(capsys):
    assert main(["oracle", "p3_sip", "--Peps", "0"]) == 0
    out = capsys.readouterr().out
    assert "value: 0.000000" in out or "value: -0.000000" in out


def test_oracle_wrong_point_dimension(capsys):
    assert main(["oracle", "p1_mpec", "--J", "0.8"]) == 4


def test_fit_eps_sweep(tmp_path, capsys):
    csv = tmp_path / "sweep.csv"
    code = main(
        [
            "fit-eps",
            "p1_mpec",
            "--eps",
            "1e-4,1e-3,1e-2,1e-1",
            "--fstar",
            "1",
            "--csv",
            str(csv),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "c = " in out and "q = " in out
    c_line = [l for l in out.splitlines() if l.startswith("c = ")][0]
    assert float(c_line.split("=")[1]) <= 0.0
    q_line = [l for l in out.splitlines() if l.startswith("q = ")][0]
    assert float(q_line.split("=")[1]) > 0.0
    assert csv.read_text().startswith("eps,value")


def test_fit_eps_too_few_samples(capsys):
    assert main(["fit-eps", "p1_mpec", "--eps", "1e-3,1e-2", "--fstar", "1"]) == 4


def test_unknown_instance_exit_code(capsys):
    assert main(["validate", "no_such_instance"]) == 2


def test_malformed_document_exit_code(tmp_path, capsys):
    doc = tmp_path / "broken.yaml"
    doc.write_text("objective: [not, a, string]\n")
    assert main(["validate", str(doc)]) == 2


def test_malformed_bound_exit_code(tmp_path, capsys):
    doc = tmp_path / "bound.yaml"
    doc.write_text(
        """
objective: "x + y"
A: []
B: ["1 - y^2"]
phi: "v - y"
M: {x: [1], y: 1}
variables:
  x: [x]
  y: [y]
"""
    )
    assert main(["validate", str(doc)]) == 2
    assert "M['x'] must be a number" in capsys.readouterr().err


def test_overflowing_expression_exit_code(tmp_path, capsys):
    # a coefficient that overflows while the document is parsed is a
    # malformed document, not a violated precondition of the solve
    doc = tmp_path / "overflow.yaml"
    doc.write_text(
        """
objective: "x + 1e200*1e200*y"
A: []
B: ["1 - x^2", "1 - y^2"]
phi: "v - y"
M: 1.0
variables:
  x: [x]
  y: [y]
"""
    )
    assert main(["solve", str(doc), "--k", "3", "--eps", "5e-4"]) == 2
    assert "overflow" in capsys.readouterr().err


def test_solve_k_below_threshold_exit_code(capsys):
    assert main(["solve", "p1_mpec", "--eps", "0.001", "--k", "1..2"]) == 4


def test_solve_reports_upper_bound_check(capsys):
    code = main(
        ["solve", "p1_mpec", "--eps", "0.0005", "--k", "3..3", "--fstar", "1"]
    )
    assert code == 0
    assert "upper bound vs reference 1.000000: ok" in capsys.readouterr().out
