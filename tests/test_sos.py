"""Identity programs, moment relaxations, flatness and atom extraction."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import mpecsos.sos as sos
from mpecsos.boxmoments import box_moments
from mpecsos.polynomials import Polynomial, monomial_basis, parse_polynomial
from mpecsos.sos import (
    FeasibilityStatus,
    box_radii,
    build_moment_relaxation,
    build_sos_identity,
    certify_feasibility,
    check_flatness,
    extract_atoms,
    minimize_hierarchy,
    moment_matrix,
    solve_moment_relaxation,
    solve_sos_identity,
    verify_putinar_ray,
)
from mpecsos.problems import bundled_instance
from mpecsos.sdp import SdpStatus, solve
from mpecsos.valuefn import build_value_program

UNIT = np.ones(1)  # single constant moment, gamma = [1]


# ----------------------------------------------------------------------
# identity programs


def test_identity_square_target():
    # v^2 is already a square, so the best constant below it is 0
    target = parse_polynomial("v^2", ["v"])
    prog, sdp = build_sos_identity(target, ["v"], 0, [], UNIT)
    sol = solve_sos_identity(prog, sdp)
    assert sol.rho == pytest.approx(0.0, abs=1e-6)
    assert sol.p.constant_term() == pytest.approx(0.0, abs=1e-6)
    assert sol.identity_residual(prog) <= 1e-6


def test_identity_linear_target_on_interval():
    # min of v over [-1, 1] is -1; certified via v + 1 = (v+1)^2/2 + (1-v^2)/2
    target = parse_polynomial("v", ["v"])
    interval = parse_polynomial("1 - v^2", ["v"])
    prog, sdp = build_sos_identity(target, ["v"], 0, [(interval, 0)], UNIT)
    sol = solve_sos_identity(prog, sdp)
    assert sol.rho == pytest.approx(-1.0, abs=1e-6)
    assert sol.p.constant_term() == pytest.approx(-1.0, abs=1e-6)
    # the interval multiplier is the scalar 1/2 (not pinned as tightly as p)
    assert sol.sigma_grams[1][0, 0] == pytest.approx(0.5, abs=1e-3)
    assert sol.identity_residual(prog) <= 1e-6


def test_identity_degree_bound_violation():
    target = parse_polynomial("v", ["v"])
    interval = parse_polynomial("1 - v^2", ["v"])
    with pytest.raises(ValueError, match="degree bound"):
        build_sos_identity(target, ["v"], 0, [(interval, 3)], UNIT)


def test_identity_sigma0_order_below_target_degree():
    # sigma_0 of order 1 reaches no monomial above v^2, so the rows of v^3
    # and v^4 would hold nothing but the target's coefficients
    target = parse_polynomial("-v^4 + v^2", ["v"])
    with pytest.raises(ValueError, match="Gram order 1"):
        build_sos_identity(target, ["v"], 0, [], UNIT, sigma0_order=1)


def test_identity_free_polynomial_tracks_target():
    # target depends only on x; p over x with degree 2 can match it exactly
    target = parse_polynomial("x^2 + 1", ["x", "v"])
    interval = parse_polynomial("1 - v^2", ["x", "v"])
    gamma = box_moments(monomial_basis(1, 2).monomials, (1.0,))
    prog, sdp = build_sos_identity(target, ["x"], 2, [(interval, 0)], gamma)
    sol = solve_sos_identity(prog, sdp)
    expect = parse_polynomial("x^2 + 1", ["x"])
    assert sol.p.allclose(expect, tol=1e-5)
    # rho = gamma-pairing of p: 1 + 1/3
    assert sol.rho == pytest.approx(1.0 + 1.0 / 3.0, abs=1e-6)


# ----------------------------------------------------------------------
# the builder against a per-entry reference


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _reference_rows(target, bases, multipliers, row_basis, p_exponents):
    """Coefficients of the identity program, one Gram entry at a time.

    Returns per row the {block: array} dict, in block order, and the right
    side; block j of a row holds the Gram entries (a, b) of sigma_j whose
    monomial product times a term of its weight lands on the row.
    """
    rows = [dict() for _ in row_basis.monomials]
    weights = [{(0,) * len(target.variables): 1.0}] + [h.terms for h in multipliers]
    for j, (basis, terms) in enumerate(zip(bases, weights)):
        n = len(basis)
        for a in range(n):
            for b in range(n):
                base = _add(basis.monomials[a], basis.monomials[b])
                for exp, coeff in terms.items():
                    ri = row_basis.index(_add(base, exp))
                    mat = rows[ri].setdefault(j, np.zeros((n, n)))
                    mat[a, b] += coeff
    for ri, mono in enumerate(row_basis.monomials):
        free = np.array([1.0 if beta == mono else 0.0 for beta in p_exponents])
        if free.any():
            rows[ri][len(bases)] = free
    return rows, [target.coefficient(mono) for mono in row_basis.monomials]


def _assert_same_program(sdp, rows, rhs):
    assert len(sdp.constraints) == len(rows)
    for con, want, b in zip(sdp.constraints, rows, rhs):
        assert list(con.coeffs) == list(want)
        for bi, arr in want.items():
            got = con.coeffs[bi]
            assert got.shape == arr.shape and got.tobytes() == arr.tobytes()
        assert np.float64(con.rhs).tobytes() == np.float64(b).tobytes()


def _p_exponents(prog):
    out = []
    for alpha in prog.p_basis.monomials:
        beta = [0] * len(prog.ambient)
        for name, e in zip(prog.p_vars, alpha):
            beta[prog.ambient.index(name)] = e
        out.append(tuple(beta))
    return out


@pytest.mark.parametrize(
    "name, order",
    [("p1_mpec", 3), ("p1_mpec", 4), ("p1_mpec", 5)]
    + [(name, k) for name in ("p2_bilevel", "p3_sip") for k in (3, 4)],
    ids=["3", "4", "5", "p2-3", "p2-4", "p3-3", "p3-4"],
)
def test_value_program_matches_reference_bitwise(name, order):
    problem = bundled_instance(name)
    prog, sdp = build_value_program(problem, order)
    assert list(prog.p_exponents_ambient) == _p_exponents(prog)
    # the program is posed on the unit box: each v takes its y's half-width,
    # and with half-widths 1 and 2 the stretch is exact
    widths = dict(zip(problem.z_vars, problem.box.halfwidths))
    widths.update(zip(problem.v_vars, problem.y_halfwidths()))
    assert prog.scaling == tuple(widths[v] for v in prog.ambient)
    want = problem.phi.in_variables(prog.ambient).scaled(prog.scaling)
    assert list(prog.target.terms.items()) == list(want.terms.items())
    ones = box_moments(prog.p_basis.monomials, np.ones(len(prog.p_vars)))
    assert prog.gamma.tobytes() == ones.tobytes()
    rows, rhs = _reference_rows(
        prog.target,
        prog.sigma_bases,
        [h for h, _ in prog.multipliers],
        prog.row_basis,
        prog.p_exponents_ambient,
    )
    _assert_same_program(sdp, rows, rhs)


def test_scaled_relaxation_matches_reference_bitwise():
    names = ["x", "y"]
    f = parse_polynomial("x^3*y - 2*x*y + y^2", names)
    gens = [
        parse_polynomial("4 - x^2 - 0.5*y^2 + x*y", names),
        parse_polynomial("x*y^2 - 0.3*x + 0.7*y - 1.5", names),
    ]
    relax, sdp = build_moment_relaxation(f, gens, 3, scaling=[2.0, 0.5])
    rows, rhs = _reference_rows(
        relax.target,
        relax.sigma_bases,
        [h for h, _ in relax.multipliers],
        relax.row_basis,
        [(0, 0)],
    )
    _assert_same_program(sdp, rows, rhs)
    # the moment matrix reads the same keys the builder does
    moments = np.random.default_rng(7).standard_normal(len(relax.row_basis))
    for degree in range(4):
        basis = monomial_basis(2, degree)
        want = np.array(
            [[moments[relax.row_basis.index(_add(a, b))] for b in basis.monomials]
             for a in basis.monomials]
        )
        assert moment_matrix(moments, relax, degree).tobytes() == want.tobytes()


def test_three_variable_identity_matches_reference_bitwise():
    names = ["x", "y", "z"]
    target = parse_polynomial("x^2*y*z - y^3 + 0.5*z^2 - x", names)
    mults = [
        (parse_polynomial("1 - x^2 - y^2 - z^2", names), 1),
        (parse_polynomial("x*y*z + 0.5*y - 0.3", names), 1),
    ]
    gamma = box_moments(monomial_basis(2, 2).monomials, (1.0, 1.0))
    prog, sdp = build_sos_identity(
        target, ["z", "x"], 2, mults, gamma, sigma0_order=3
    )
    assert len(prog.row_basis) == 84  # every monomial of degree <= 6 in 3 variables
    assert list(prog.p_exponents_ambient) == _p_exponents(prog)
    rows, rhs = _reference_rows(
        target,
        prog.sigma_bases,
        [h for h, _ in mults],
        prog.row_basis,
        prog.p_exponents_ambient,
    )
    _assert_same_program(sdp, rows, rhs)


def test_identity_rejects_a_moment_vector_of_the_wrong_length():
    target = parse_polynomial("x^2 + 1", ["x", "v"])
    with pytest.raises(ValueError, match="moment vector"):
        build_sos_identity(target, ["x"], 2, [], np.ones(2))


@pytest.mark.parametrize(
    "scaling", [(1.0, math.nan), (math.inf, 1.0), (0.0, 1.0), (-1.0, 1.0), (1.0,)]
)
def test_identity_rejects_a_bad_half_width(scaling):
    target = parse_polynomial("x^2 + v", ["x", "v"])
    named = re.escape(f"scaling {scaling!r} of ('x', 'v'): need one finite c_i > 0 each")
    with pytest.raises(ValueError, match=named):
        build_sos_identity(target, ["x"], 2, [], np.ones(3), scaling)


def test_identity_rejects_keys_that_would_overflow():
    # radix 3 over 64 variables needs 3^64 > 2^63 keys
    names = [f"x{i}" for i in range(64)]
    target = Polynomial(names, {(1,) + (0,) * 63: 1.0})
    with pytest.raises(ValueError, match="64-bit"):
        build_sos_identity(target, (), 0, [], UNIT, sigma0_order=1)


@pytest.fixture(scope="module")
def interval_identity():
    # v + 1 = sigma_0 + sigma_1 (1 - v^2) on [-1, 1], with sigma_0 of order 2
    target = parse_polynomial("v", ["v"])
    interval = parse_polynomial("1 - v^2", ["v"])
    prog, sdp = build_sos_identity(
        target, ["v"], 0, [(interval, 1)], UNIT, sigma0_order=2
    )
    return prog, solve_sos_identity(prog, sdp)


def test_identity_residual_sees_a_gram_perturbation(interval_identity):
    prog, sol = interval_identity
    base = sol.identity_residual(prog)
    assert base <= 1e-7
    delta = 1e-3
    for i in range(len(prog.sigma_bases[0])):
        grams = [g.copy() for g in sol.sigma_grams]
        grams[0][i, i] += delta
        moved = dataclasses.replace(sol, sigma_grams=grams).identity_residual(prog)
        assert abs(moved - delta) <= base + 1e-12


def test_identity_residual_flags_a_nan_gram_entry(interval_identity):
    prog, sol = interval_identity
    grams = [g.copy() for g in sol.sigma_grams]
    grams[1][0, 1] = math.nan
    assert dataclasses.replace(sol, sigma_grams=grams).identity_residual(prog) == math.inf


# ----------------------------------------------------------------------
# moment relaxations


def test_moment_square_on_interval():
    f = parse_polynomial("x^2", ["x"])
    g = parse_polynomial("1 - x^2", ["x"])
    relax, sdp = build_moment_relaxation(f, [g], 1)
    sol = solve_moment_relaxation(relax, sdp)
    assert sol.bound == pytest.approx(0.0, abs=1e-6)
    assert sol.flat
    assert sol.atoms[0][0] == pytest.approx(0.0, abs=1e-4)


def test_moment_linear_on_interval():
    f = parse_polynomial("x", ["x"])
    g = parse_polynomial("1 - x^2", ["x"])
    relax, sdp = build_moment_relaxation(f, [g], 1)
    sol = solve_moment_relaxation(relax, sdp)
    assert sol.bound == pytest.approx(-1.0, abs=1e-6)
    assert sol.flat
    assert sol.atoms[0][0] == pytest.approx(-1.0, abs=1e-4)


def test_moment_linear_on_disc():
    f = parse_polynomial("x1 + x2", ["x1", "x2"])
    g = parse_polynomial("1 - x1^2 - x2^2", ["x1", "x2"])
    relax, sdp = build_moment_relaxation(f, [g], 2)
    sol = solve_moment_relaxation(relax, sdp)
    assert sol.bound == pytest.approx(-math.sqrt(2.0), abs=1e-5)
    assert sol.flat
    atom = sol.atoms[0]
    assert atom[0] == pytest.approx(-math.sqrt(2.0) / 2.0, abs=1e-4)
    assert atom[1] == pytest.approx(-math.sqrt(2.0) / 2.0, abs=1e-4)


def test_moment_order_too_small():
    f = parse_polynomial("x^4", ["x"])
    g = parse_polynomial("1 - x^2", ["x"])
    with pytest.raises(ValueError, match="order"):
        build_moment_relaxation(f, [g], 1)


# ----------------------------------------------------------------------
# flatness and extraction


def _dirac_moments(relax, point):
    vals = []
    for mono in relax.row_basis.monomials:
        v = 1.0
        for x, e in zip(point, mono):
            v *= x**e
        vals.append(v)
    return np.array(vals)


def _interval_relaxation(order):
    f = parse_polynomial("x", ["x"])
    g = parse_polynomial("1 - x^2", ["x"])
    return build_moment_relaxation(f, [g], order)[0]


def test_flatness_dirac_any_order():
    for t in (1, 2, 3):
        relax = _interval_relaxation(t)
        y = _dirac_moments(relax, [0.5])
        flat, ranks = check_flatness(y, relax)
        assert flat
        assert ranks[-1] == 1


def test_flatness_uniform_measure_not_flat():
    relax = _interval_relaxation(2)
    # uniform measure on [-1, 1]: moments 1, 0, 1/3, 0, 1/5
    y = np.array([1.0, 0.0, 1.0 / 3.0, 0.0, 1.0 / 5.0])
    flat, ranks = check_flatness(y, relax)
    assert not flat
    assert ranks[2] == 3 and ranks[1] == 2


def test_flatness_two_atoms():
    relax = _interval_relaxation(2)
    y = 0.5 * (_dirac_moments(relax, [1.0]) + _dirac_moments(relax, [-1.0]))
    flat, ranks = check_flatness(y, relax)
    assert flat
    assert ranks[-1] == 2


def test_extract_single_dirac():
    relax = _interval_relaxation(2)
    y = _dirac_moments(relax, [0.5])
    atoms = extract_atoms(y, relax)
    assert len(atoms) == 1
    assert atoms[0][0] == pytest.approx(0.5, abs=1e-8)


def test_extract_two_atoms():
    relax = _interval_relaxation(2)
    y = 0.5 * (_dirac_moments(relax, [1.0]) + _dirac_moments(relax, [-1.0]))
    atoms = extract_atoms(y, relax)
    got = sorted(a[0] for a in atoms)
    assert got[0] == pytest.approx(-1.0, abs=1e-6)
    assert got[1] == pytest.approx(1.0, abs=1e-6)


def test_extraction_rebuilds_moments():
    f = parse_polynomial("x1 + x2", ["x1", "x2"])
    g = parse_polynomial("1 - x1^2 - x2^2", ["x1", "x2"])
    relax, sdp = build_moment_relaxation(f, [g], 2)
    sol = solve_moment_relaxation(relax, sdp)
    assert sol.flat
    rebuilt = np.zeros(len(relax.row_basis))
    vdm = np.zeros((len(relax.row_basis), len(sol.atoms)))
    for j, atom in enumerate(sol.atoms):
        for i, mono in enumerate(relax.row_basis.monomials):
            v = 1.0
            for x, e in zip(atom, mono):
                v *= x**e
            vdm[i, j] = v
    wts, *_ = np.linalg.lstsq(vdm, sol.moments, rcond=None)
    rebuilt = vdm @ wts
    assert np.abs(rebuilt - sol.moments).max() <= 1e-5


# ----------------------------------------------------------------------
# feasibility certification


def test_certify_contradictory_halflines():
    x = parse_polynomial("x", ["x"])
    other = parse_polynomial("-x - 1", ["x"])
    result = certify_feasibility([x, other], 1)
    assert result.status is FeasibilityStatus.EMPTY_CERTIFIED
    assert result.certificate_residual <= 1e-8


def test_certified_empty_set_without_a_box_has_no_margin():
    # {x >= 0, -x - 1 >= 0} has no box multiplier, so its EmptyCertified
    # rests on the solver's floating-point ray test alone, and its margin
    # says so
    x = parse_polynomial("x", ["x"])
    result = certify_feasibility([x, parse_polynomial("-x - 1", ["x"])], 1)
    assert result.status is FeasibilityStatus.EMPTY_CERTIFIED
    assert math.isnan(result.certificate_margin)


def test_emptiness_ray_is_putinar_identity():
    # {x >= 0, -x - 1 >= 0} is empty: the ray of the unbounded lambda gives
    # sigma_0 + sigma_1 x + sigma_2 (-x - 1) = -lambda with PSD Gram blocks
    x = parse_polynomial("x", ["x"])
    gens = [x, parse_polynomial("-x - 1", ["x"])]
    relax, sdp = build_moment_relaxation(x, gens, 1)
    sol = solve(sdp)
    assert sol.status is SdpStatus.DUAL_INFEASIBLE
    *grams, free = sol.primal
    lam = free[0]
    assert lam > 0
    bases = relax.sigma_bases
    one = Polynomial.constant(["x"], 1.0)
    total = one
    for gram, basis, weight in zip(grams, bases, [one] + gens):
        assert np.linalg.eigvalsh(gram).min() >= -1e-8
        terms = {}
        for a, alpha in enumerate(basis.monomials):
            for b, beta in enumerate(basis.monomials):
                mono = tuple(i + j for i, j in zip(alpha, beta))
                terms[mono] = terms.get(mono, 0.0) + gram[a, b] / lam
        total = total + Polynomial(["x"], terms) * weight
    assert all(abs(c) <= 1e-8 for c in total.terms.values())


def test_certify_interval_nonempty():
    g = parse_polynomial("1 - x^2", ["x"])
    result = certify_feasibility([g], 1)
    assert result.status is FeasibilityStatus.NONEMPTY
    assert result.witness is not None
    assert -1.0 - 1e-6 <= result.witness[0] <= 1.0 + 1e-6


# ----------------------------------------------------------------------
# verified Putinar rays


def _empty_box_relaxation(radius=1.0):
    # {radius^2 - x^2 >= 0, x - 2 radius >= 0} is empty; the box bounds x
    x = parse_polynomial("x", ["x"])
    box = parse_polynomial(f"{radius**2} - x^2", ["x"])
    return build_moment_relaxation(x, [box, x - 2 * radius], 1)


def _ray_residual(relax, primal) -> Polynomial:
    """lambda + sigma_0 + sum_j sigma_j h_j, expanded term by term."""
    *grams, free = primal
    total = Polynomial.constant(relax.ambient, free[0])
    weights = [Polynomial.constant(relax.ambient, 1.0)]
    weights += [h for h, _ in relax.multipliers]
    for gram, basis, weight in zip(grams, relax.sigma_bases, weights):
        terms = {}
        for a, alpha in enumerate(basis.monomials):
            for b, beta in enumerate(basis.monomials):
                mono = tuple(i + j for i, j in zip(alpha, beta))
                terms[mono] = terms.get(mono, 0.0) + gram[a, b]
        total = total + Polynomial(relax.ambient, terms) * weight
    return total


@pytest.mark.parametrize("radius", [1.0, 0.5])
def test_box_bounded_ray_verifies_with_its_residual_margin(radius):
    relax, sdp = _empty_box_relaxation(radius)
    assert box_radii(relax) == pytest.approx([radius], abs=1e-15)
    sol = solve_moment_relaxation(relax, sdp)
    assert sol.infeasible
    lam = sol.raw.primal[relax.free_block_index][0]
    residual = _ray_residual(relax, sol.raw.primal)
    # the margin is lambda - sum |r_alpha| radius^|alpha|, less rounding
    expected = lam - sum(abs(c) * radius ** sum(a) for a, c in residual.terms.items())
    assert 0 < sol.certificate_margin <= expected
    assert sol.certificate_margin == pytest.approx(expected, abs=1e-12)
    assert verify_putinar_ray(relax, sol.raw.primal) == sol.certificate_margin
    # the solve ended at that verified iterate, not at the solver's own test
    assert sol.raw.iterations <= solve(sdp).iterations
    assert sol.certificate_residual < 1


def test_ray_with_an_indefinite_gram_block_is_refused():
    relax, sdp = _empty_box_relaxation()
    primal = [np.array(b) for b in solve_moment_relaxation(relax, sdp).raw.primal]
    assert verify_putinar_ray(relax, primal) > 0
    gram = primal[0]
    # move one diagonal entry just past the Schur complement bound
    gram[0, 0] = gram[0, 1] ** 2 / gram[1, 1] * (1 - 1e-9)
    assert np.linalg.eigvalsh(gram).min() < 0
    assert verify_putinar_ray(relax, primal) == -math.inf


def test_gram_check_refuses_a_matrix_indefinite_in_exact_arithmetic():
    # a float matrix whose exact determinant is negative, though an
    # unshifted float Cholesky factorization of it succeeds (LAPACK here)
    Q = np.array(
        [
            [5.21241676693919, 1.3509963469740571, 0.24842997852740278],
            [1.3509963469740571, 0.3502481148599889, 0.06611809897487078],
            [0.24842997852740278, 0.06611809897487078, 0.046580949756147835],
        ]
    )
    (a, b, c), (_, d, e), (_, _, f) = ([Fraction(v) for v in row] for row in Q.tolist())
    assert a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c) < 0
    assert not sos._proves_positive_definite(Q)
    assert sos._proves_positive_definite(np.diag([1.0, 1e-3, 1e-6]))
    lopsided = np.eye(2)
    lopsided[0, 1] = 1e-3
    assert not sos._proves_positive_definite(lopsided)


def test_ray_whose_residual_passes_lambda_is_refused():
    relax, sdp = _empty_box_relaxation()
    primal = solve_moment_relaxation(relax, sdp).raw.primal
    lam = primal[relax.free_block_index][0]
    # tripled Gram blocks stay definite, and the residual's constant nears -2 lambda
    scaled = [3 * gram for gram in primal[:-1]] + [primal[-1]]
    residual = _ray_residual(relax, scaled)
    assert sum(abs(c) for c in residual.terms.values()) > lam
    margin = verify_putinar_ray(relax, scaled)
    assert -math.inf < margin < 0


def test_set_without_a_box_multiplier_runs_to_the_solver_test():
    x = parse_polynomial("x", ["x"])
    relax, sdp = build_moment_relaxation(x, [x, parse_polynomial("-x - 1", ["x"])], 1)
    assert box_radii(relax) is None
    sol = solve_moment_relaxation(relax, sdp)
    plain = solve(sdp)
    assert sol.infeasible and math.isnan(sol.certificate_margin)
    assert sol.raw.iterations == plain.iterations
    assert sol.certificate_residual == plain.certificate_residual <= 1e-8
    with pytest.raises(ValueError):
        verify_putinar_ray(relax, sol.raw.primal)


def test_box_radii_read_only_a_pure_square_of_one_variable():
    # 0.25 - x^2 y holds for every x where y <= 0, so it bounds no variable
    v = ["x", "y"]
    texts = ("1 - x^2", "1 - y^2", "0.25 - x^2*y", "x - 0.8")
    gens = [parse_polynomial(t, v) for t in texts]
    relax, sdp = build_moment_relaxation(parse_polynomial("x + 1", v), gens, 2)
    assert box_radii(relax) == pytest.approx([1.0, 1.0], abs=1e-15)
    sol = solve_moment_relaxation(relax, sdp)
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.bound == pytest.approx(1.8, abs=1e-6)
    # the optimal Gram matrices leave r = x + 1 against lambda = 1.8: at most
    # 2 on |x| <= 1, but 1.5 on the |x| <= 0.5 that 0.25 - x^2 y misread gives
    assert verify_putinar_ray(relax, sol.raw.primal) < 0


def test_nonempty_box_bounded_relaxation_is_untouched(monkeypatch):
    x, y = (parse_polynomial(v, ["x", "y"]) for v in "xy")
    texts = ("1 - x^2", "1 - y^2", "x*y - 0.25")
    gens = [parse_polynomial(t, ["x", "y"]) for t in texts]
    relax, sdp = build_moment_relaxation(x + y, gens, 2)
    assert box_radii(relax) is not None
    verdicts = []

    def recording(problem, accept):
        def judged(primal):
            verdicts.append(accept(primal))
            return verdicts[-1]

        return solve(problem, accept=judged)

    monkeypatch.setattr(sos, "solve", recording)
    sol = solve_moment_relaxation(relax, sdp).raw
    plain = solve(sdp)
    assert not any(verdicts)
    assert sol.status is plain.status is SdpStatus.OPTIMAL
    assert sol.iterations == plain.iterations
    assert sol.primal_objective == plain.primal_objective
    assert np.array_equal(sol.y, plain.y)


# ----------------------------------------------------------------------
# hierarchy invariants


def _grid_min(f, gens, lo=-1.0, hi=1.0, n=20001):
    xs = np.linspace(lo, hi, n)
    pts = xs.reshape(-1, 1)
    mask = np.ones(len(xs), dtype=bool)
    for g in gens:
        mask &= g.evaluate_array(pts) >= 0
    vals = f.evaluate_array(pts)[mask]
    return vals.min()


@pytest.mark.parametrize(
    "f_text",
    ["x^4 - x^2", "x^3 - 0.5*x", "x^4 + 0.25*x^3 - x^2 + 0.1*x"],
)
def test_lower_bound_soundness(f_text):
    f = parse_polynomial(f_text, ["x"])
    g = parse_polynomial("1 - x^2", ["x"])
    truth = _grid_min(f, [g])
    prev = -math.inf
    for t in (2, 3, 4):
        relax, sdp = build_moment_relaxation(f, [g], t)
        sol = solve_moment_relaxation(relax, sdp)
        assert sol.bound <= truth + 1e-6
        assert sol.bound >= prev - 1e-8  # hierarchy monotone
        prev = sol.bound


def test_minimize_hierarchy_stops_when_flat():
    f = parse_polynomial("x^4 - x^2", ["x"])
    g = parse_polynomial("1 - x^2", ["x"])
    result = minimize_hierarchy(f, [g], 2, 4)
    assert result.flat
    assert result.raw.status is SdpStatus.OPTIMAL
    assert len(result.moments) == len(monomial_basis(1, 2 * result.order))
    assert result.bound == pytest.approx(-0.25, abs=1e-6)
    xs = sorted(abs(a[0]) for a in result.atoms)
    assert xs[-1] == pytest.approx(math.sqrt(0.5), abs=1e-4)


def test_minimize_hierarchy_infeasible_set():
    f = parse_polynomial("x", ["x"])
    gens = [parse_polynomial("x", ["x"]), parse_polynomial("-x - 1", ["x"])]
    result = minimize_hierarchy(f, gens, 1, 2)
    assert result.infeasible
    assert result.status is SdpStatus.DUAL_INFEASIBLE
    assert result.order == 1
    assert result.certificate_residual <= 1e-8
    assert result.raw.certificate_residual == result.certificate_residual
