"""Polynomial under-approximation of the inner value function.

For an instance with coupling polynomial phi(x, y, v) and inner
constraints h_j, the order-k program searches for a polynomial p(x, y) of
degree at most 2k maximizing its integral against the uniform box measure
subject to the certificate

    phi(x, y, v) - p(x, y)  =  sigma_0 + sum_{j<=s} sigma_j h_j(x, v)
                                       + sum_j sigma'_j (M_y_j - y_j^2),

which forces p below the inner value function on the box.  The inner
constraints enter with v substituted for y; the x-coordinate box
constraints are deliberately left out of the multiplier list (the
certificate does not need them, and leaving them out keeps the program
smaller), while the y-coordinate box constraints are kept.

The program is posed on the unit box (each v_i takes y_i's half-width)
and accepted only when optimal at the solver's default tolerances; the
optimal p, mapped back, is the order-k value-function approximation, and
its pairing with the box moments is the program value rho_k.
Diagnostics compare p against the brute-force oracle, at its default grid
counts, on a box grid: p must stay below the oracle everywhere (to
tolerance) and the normalized L1 gap should shrink as k grows.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .boxmoments import box_moments
from .oracle import OracleConfig, _cached_value_grid
from .polynomials import Polynomial, grlex_key, monomial_basis
from .problems import MpecProblem
from .sdp import SdpProblem
from .sos import SosIdentityProgram, build_sos_identity, solve_sos_identity

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ValueFunctionApprox:
    order: int
    fitted: Polynomial              # the solved polynomial over the fit variables
    polynomial: Polynomial          # equilibrium approximant over (x, y): fitted - offset
    rho: float                      # moment pairing of the fitted polynomial
    gap: float                      # solver gap achieved for the program
    multiplier_degrees: Tuple[int, ...]
    identity_error: float           # max-abs coefficient residual of the certificate, unit box

    def coefficient_table(self) -> List[dict]:
        """Graded-lex coefficient listing for golden-file comparison."""
        return [
            {"exponents": list(alpha), "coefficient": coeff}
            for alpha, coeff in sorted(
                self.fitted.terms.items(), key=lambda kv: grlex_key(kv[0])
            )
        ]


def build_value_program(
    problem: MpecProblem, order: int
) -> Tuple[SosIdentityProgram, SdpProblem]:
    """Assemble the order-k certificate program for the instance.

    The free polynomial ranges over the fit variables (all of x plus the
    y-variables that the coupling polynomial actually involves); the
    multipliers are the inner constraints with v substituted for y plus
    the box bounds of the fitted y-variables.  The x-coordinate box
    bounds are intentionally omitted.
    """
    k_min = problem.min_order()
    if order < k_min:
        raise ValueError(
            f"order {order} below the admissible threshold {k_min} "
            f"(half-degrees of the coupling polynomial and inner constraints)"
        )
    two_k = 2 * order
    fit_vars = problem.fit_variables()
    ambient = fit_vars + problem.v_vars
    target = problem.phi.in_variables(ambient)

    multipliers = []
    for h in problem.h_in_xv():
        bound = (two_k - h.degree) // 2
        multipliers.append((h.in_variables(ambient), bound))
    y_box = problem.box.polynomials(problem.z_vars)[problem.n :]
    for name, ybox in zip(problem.y_vars, y_box):
        if name in fit_vars:
            multipliers.append((ybox.in_variables(ambient), (two_k - 2) // 2))
    widths = dict(zip(problem.z_vars, problem.box.halfwidths))
    widths.update(zip(problem.v_vars, problem.y_halfwidths()))

    gamma = box_moments(
        monomial_basis(len(fit_vars), two_k).monomials,
        [widths[name] for name in fit_vars],
    )
    scaling = [widths[name] for name in ambient]
    return build_sos_identity(target, fit_vars, two_k, multipliers, gamma, scaling)


def compute_value_approximation(
    problem: MpecProblem, order: int
) -> ValueFunctionApprox:
    """Solve the order-k program and package the resulting polynomial."""
    prog, sdp = build_value_program(problem, order)
    sol = solve_sos_identity(prog, sdp)
    equilibrium = sol.p.in_variables(problem.z_vars) - problem.offset
    return ValueFunctionApprox(
        order=order,
        fitted=sol.p,
        polynomial=equilibrium,
        rho=sol.rho,
        gap=sol.gap,
        multiplier_degrees=tuple(2 * bound for _, bound in prog.multipliers),
        identity_error=sol.identity_residual(prog),
    )


def _oracle_on_grid(problem: MpecProblem, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Box-grid points of ``count`` per axis where the inner slice is not
    empty, and the oracle's inner value at each of them (the oracle's
    cached scan)."""
    points, values = _cached_value_grid(problem, OracleConfig(outer_grid=count))
    empty = np.isnan(values)
    if empty.any():
        logger.warning(
            "inner slice empty at %d/%d grid points; those are skipped",
            int(empty.sum()),
            len(values),
        )
    return points[~empty], values[~empty]


def lower_bound_violation(
    approx: ValueFunctionApprox, problem: MpecProblem, grid_points_per_dim: int = 41
) -> float:
    """Largest amount by which the approximation exceeds the oracle.

    A correct certificate keeps this at roundoff level; values well above
    1e-6 mean the program (or the oracle) is wrong.
    """
    points, truth = _oracle_on_grid(problem, grid_points_per_dim)
    diff = approx.polynomial.evaluate_array(points) - truth
    return float(diff.max()) if diff.size else 0.0


def l1_distance(
    approx: ValueFunctionApprox, problem: MpecProblem, grid_points_per_dim: int = 41
) -> float:
    """Grid estimate of the normalized L1 gap to the oracle value."""
    points, truth = _oracle_on_grid(problem, grid_points_per_dim)
    if not truth.size:
        return math.nan
    return float(np.abs(approx.polynomial.evaluate_array(points) - truth).mean())


def oracle_integral(problem: MpecProblem) -> float:
    """Grid estimate of the oracle value integrated against the box measure,
    on 41 points per axis."""
    _, truth = _oracle_on_grid(problem, 41)
    return float(truth.mean())
