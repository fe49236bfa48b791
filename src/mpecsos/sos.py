"""Positivity certificates and moment relaxations as block SDPs.

Every program here is one Gram-form identity

    target(z) - p(z) = sigma_0(z) + sum_j sigma_j(z) h_j(z)

with sum-of-squares multipliers sigma_j (Gram matrices, one PSD block
each) and an unknown polynomial p whose coefficients enter as free scalar
variables, one equality row per monomial.  Each is posed on the unit box
(z_i = c_i u_i for box half-widths c), or high-order monomials span c^(2t) in
one row and wreck the solve.  Maximizing a moment pairing of p makes the
optimal p the best certified under-approximation of
min-over-constrained-variables of the target: that is the value fit.
Exponents are mixed-radix integer keys (radix row degree + 1, so sums
never carry): the rows of all upper Gram entries times all terms of h_j
come from one broadcast sum and one sorted lookup, and one sort orders a
block's entries into its (row, i, j, value) table, which goes to the
solver as it is (`SdpProblem.from_tables`).

The order-t moment relaxation of  min f over {h_l >= 0}  is the same
identity with p a constant lambda and sigma_0 of order t, so a
``MomentRelaxation`` is an ``SosIdentityProgram`` (target f, multipliers
h_l) plus its order: maximizing lambda subject to
f - lambda = sigma_0 + sum_l sigma_l h_l  is the SOS side, and the dual
vector of its equality rows, negated, is the pseudo-moment vector over
``row_basis`` (y_0 = 1 is the dual of the lambda column).  An empty set
leaves lambda unbounded, and the solver's primal ray is a Putinar
certificate  -1 = sigma_0 + sum_l sigma_l h_l (after dividing by lambda),
which is exactly the one-sided emptiness test the outer algorithm needs.
When the moment matrix satisfies the rank (flatness) condition, the
generating atoms are recovered with the shifted-basis
multiplication-operator method and cross-checked by rebuilding the moment
vector.  One ``MomentSolution`` reports a solved order, and the hierarchy
answers with the order that decided it.

Every program is solved at the solver's default tolerances (only
``sdp.solve`` takes options) and is accepted only when it ends optimal,
or, for a moment relaxation, with that Putinar ray; any other ending
raises RelaxationError naming the status and the solver's stall reason.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg as sla

from .polynomials import (
    Exponent,
    MonomialBasis,
    Polynomial,
    monomial_basis,
)
from .sdp import (
    BlockKind,
    SdpBlock,
    SdpProblem,
    SdpSolution,
    SdpStatus,
    solve,
)

_UNIT_MASS = np.ones(1)

RANK_TOL = 1e-6
ATOM_FEAS_TOL = 1e-6
MOMENT_REBUILD_TOL = 1e-5


class ExtractionError(RuntimeError):
    """Atom recovery failed; callers treat the solution as not flat."""


class RelaxationError(RuntimeError):
    """The SDP behind a relaxation could not be solved reliably."""


def _exponent_keys(monomials: Sequence[Exponent], powers: np.ndarray) -> np.ndarray:
    """Keys sum_i e_i * radix^i, with powers[i] = radix^i: distinct, and
    additive over products, while every exponent stays below the radix."""
    exps = np.array(monomials, dtype=np.int64).reshape(len(monomials), len(powers))
    return exps @ powers


def _key_lookup(basis: MonomialBasis, powers: np.ndarray):
    """Map keys of monomials of ``basis`` to their positions in it."""
    keys = _exponent_keys(basis.monomials, powers)
    order = np.argsort(keys)
    return lambda k: order[np.searchsorted(keys[order], k)]


# ----------------------------------------------------------------------
# sum-of-squares identity programs


@dataclass
class SosIdentityProgram:
    """Structure of one identity program and its SDP index maps."""

    ambient: Tuple[str, ...]
    target: Polynomial
    p_vars: Tuple[str, ...]
    p_basis: MonomialBasis            # over p_vars
    p_exponents_ambient: Tuple[Exponent, ...]
    multipliers: Tuple[Tuple[Polynomial, int], ...]
    sigma_bases: Tuple[MonomialBasis, ...]  # sigma_0 first, then one per multiplier
    row_basis: MonomialBasis          # ambient monomials with one equality row each
    gamma: np.ndarray                 # moments paired with p, aligned with p_basis
    scaling: Tuple[float, ...]        # half-widths c of the stretch z_i = c_i u_i

    @property
    def free_block_index(self) -> int:
        return len(self.sigma_bases)

    def unscale_point(self, point: np.ndarray) -> np.ndarray:
        return point * np.array(self.scaling)


def build_sos_identity(
    target: Polynomial,
    p_vars: Sequence[str],
    p_degree: int,
    multipliers: Sequence[Tuple[Polynomial, int]],
    gamma: np.ndarray,
    scaling: Optional[Sequence[float]] = None,
    sigma0_order: Optional[int] = None,
) -> Tuple[SosIdentityProgram, SdpProblem]:
    """Encode the weighted-SOS identity as a block SDP, on the unit box.

    ``p_degree`` bounds the unknown polynomial (an even integer 2k); each
    multiplier comes with the degree bound of its Gram basis, so
    deg(sigma_j h_j) <= 2 * bound + deg h_j must not exceed the row degree.
    ``sigma0_order`` is the degree of sigma_0's Gram basis; by default the
    smallest that covers p and the target.  sigma_0 then reaches every
    monomial of degree <= 2 * sigma0_order, which is one row each.
    ``scaling`` holds a half-width c_i > 0 per ambient variable (all ones by
    default); the program, as recorded, is in u with z_i = c_i u_i: target
    and multipliers stretched, gamma_alpha divided by c^alpha.
    """
    ambient = target.variables
    scaling = (1.0,) * len(ambient) if scaling is None else tuple(map(float, scaling))
    if len(scaling) != len(ambient) or not all(0 < c < math.inf for c in scaling):
        raise ValueError(f"scaling {scaling} of {ambient}: need one finite c_i > 0 each")
    target = target.scaled(scaling)
    p_vars = tuple(p_vars)
    for name in p_vars:
        if name not in ambient:
            raise ValueError(f"free-polynomial variable {name!r} not in ambient")
    if p_degree < 0 or p_degree % 2 != 0:
        raise ValueError("free polynomial degree must be even and nonnegative")

    if sigma0_order is None:
        sigma0_order = max(p_degree // 2, math.ceil(target.degree / 2))
    elif sigma0_order < 0:
        raise ValueError("Gram order of sigma_0 must be nonnegative")
    elif 2 * sigma0_order < max(p_degree, target.degree):
        raise ValueError(
            f"Gram order {sigma0_order} of sigma_0 below half the degree of "
            "p or the target"
        )
    row_degree = 2 * sigma0_order
    mult_list = []
    for h, bound in multipliers:
        h = h.in_variables(ambient).scaled(scaling)
        if bound < 0:
            raise ValueError("Gram degree bound must be nonnegative")
        if 2 * bound + h.degree > row_degree:
            raise ValueError(
                f"multiplier degree bound violated: 2*{bound} + {h.degree} "
                f"> {row_degree}"
            )
        mult_list.append((h, bound))

    p_basis = monomial_basis(len(p_vars), p_degree)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (len(p_basis),):
        raise ValueError("moment vector does not match the free-polynomial basis")
    p_exp_ambient = np.zeros((len(p_basis), len(ambient)), dtype=np.int64)
    p_exp_ambient[:, [ambient.index(v) for v in p_vars]] = np.reshape(
        p_basis.monomials, (len(p_basis), len(p_vars))
    )
    gamma = gamma / np.prod(np.power(scaling, p_exp_ambient), axis=1)

    sigma_bases = [monomial_basis(len(ambient), sigma0_order)]
    sigma_bases += [monomial_basis(len(ambient), bound) for _, bound in mult_list]
    row_basis = monomial_basis(len(ambient), row_degree)

    prog = SosIdentityProgram(
        ambient=ambient,
        target=target,
        p_vars=p_vars,
        p_basis=p_basis,
        p_exponents_ambient=tuple(map(tuple, p_exp_ambient.tolist())),
        multipliers=tuple(mult_list),
        sigma_bases=tuple(sigma_bases),
        row_basis=row_basis,
        gamma=gamma,
        scaling=scaling,
    )

    # one row per monomial, found by its exponent key; the degree checks
    # above keep every exponent of a product below the radix row_degree + 1
    if (row_degree + 1) ** len(ambient) >= 2**63:
        raise ValueError("too many variables for 64-bit exponent keys")
    powers = (row_degree + 1) ** np.arange(len(ambient), dtype=np.int64)
    row_of = _key_lookup(row_basis, powers)
    tables = []  # per block: (row, i, j, value), sorted by (row, i, j)
    weights = [{(0,) * len(ambient): 1.0}] + [h.terms for h, _ in mult_list]
    for basis, terms in zip(sigma_bases, weights):
        # row of upper Gram entry e = (a, b) times term t of the weight, shape
        # (t, e); each (row, a, b) takes one term at most
        a, b = np.triu_indices(len(basis))
        keys = _exponent_keys(basis.monomials, powers)
        term_keys = _exponent_keys(list(terms), powers)
        hit = row_of(term_keys[:, None] + keys[a] + keys[b]).ravel()
        order = np.argsort(hit * len(a) + np.tile(np.arange(len(a)), len(terms)))
        value = np.repeat(np.fromiter(terms.values(), float, len(terms)), len(a))
        entry = order % len(a)
        tables.append((hit[order], a[entry], b[entry], value[order]))
    p_rows = row_of(_exponent_keys(p_exp_ambient, powers))
    tables.append((p_rows, np.arange(len(p_basis)), np.ones(len(p_basis))))
    rhs = np.zeros(len(row_basis))
    rhs[row_of(_exponent_keys(list(target.terms), powers))] = [*target.terms.values()]

    blocks = [SdpBlock(BlockKind.PSD, len(b)) for b in sigma_bases]
    blocks.append(SdpBlock(BlockKind.FREE, len(p_basis)))
    objective = {prog.free_block_index: -gamma}
    return prog, SdpProblem.from_tables(blocks, objective, tables, rhs)


@dataclass
class SosIdentitySolution:
    p: Polynomial
    sigma_grams: List[np.ndarray]
    rho: float
    gap: float
    status: SdpStatus
    raw: SdpSolution

    def identity_residual(self, prog: SosIdentityProgram) -> float:
        """Max-abs coefficient of target - p - sigma_0 - sum sigma_j h_j.

        Read on the unit box, as posed, with p stretched back, and expanded
        again from the Gram matrices alone (`_expand_identity`), so it
        checks the builder's row keys rather than sharing them.  A
        non-finite coefficient gives inf.
        """
        p = -self.p.in_variables(prog.ambient).scaled(prog.scaling)
        known = (prog.target.terms, p.terms)
        _, weights, inverse = _expand_identity(prog, known, self.sigma_grams)
        coeffs = np.bincount(inverse, weights)
        if not np.isfinite(coeffs).all():
            return math.inf
        return float(np.abs(coeffs).max(initial=0.0))


def _expand_identity(
    prog: SosIdentityProgram,
    known: Sequence[Dict[Exponent, float]],
    grams: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of  sum(known) - sigma_0 - sum_j sigma_j h_j  over
    ``prog.ambient``, ``known`` given as term maps: one term per
    coefficient of ``known`` and per Gram entry
    (both triangles) and term of h_j, as exponent rows, float weights and
    the index of the distinct monomial each adds to.  The monomials are
    collapsed under keys of the expansion's own radix, not the builder's.
    """
    nv = len(prog.ambient)

    def rows(monomials) -> np.ndarray:
        return np.array(monomials, dtype=np.int64).reshape(len(monomials), nv)

    exps = [rows(list(terms)) for terms in known]
    weights = [np.fromiter(terms.values(), float, len(terms)) for terms in known]
    hs = [Polynomial.constant(prog.ambient, -1.0)]
    hs += [-h for h, _ in prog.multipliers]
    for basis, gram, h in zip(prog.sigma_bases, grams, hs):
        B, H = rows(basis.monomials), rows(list(h.terms))
        exps.append((B[:, None, None] + B[:, None] + H).reshape(-1, nv))
        h_weights = np.fromiter(h.terms.values(), float, len(h.terms))
        weights.append((gram[:, :, None] * h_weights).ravel())
    exps = keys = np.concatenate(exps)
    radix = 1 + int(keys.max(initial=0))
    if radix**nv < 2**63:  # one integer per row sorts much faster
        keys = keys @ radix ** np.arange(nv, dtype=np.int64)
    _, inverse = np.unique(keys, axis=0, return_inverse=True)
    return exps, np.concatenate(weights), inverse.ravel()


# ----------------------------------------------------------------------
# verified Putinar rays

_ROUNDOFF = 2.0**-53  # unit roundoff u of IEEE double, round to nearest


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), which bounds the relative error of n
    roundings in a row (Higham 2002, section 3.1)."""
    return n * _ROUNDOFF / (1.0 - n * _ROUNDOFF)


def box_radii(prog: SosIdentityProgram) -> Optional[np.ndarray]:
    """Per variable u_i, a bound on |u_i| over the set of the multipliers,
    or None when some variable has none.

    A multiplier of exactly two terms, a - b u_i^2 with a, b > 0 and no
    other variable in the square, bounds |u_i| by sqrt(a / b); the least
    such bound is taken, rounded up past the two roundings of its float
    value.
    """
    nv = len(prog.ambient)
    radii = np.full(nv, math.inf)
    for h, _ in prog.multipliers:
        a = h.constant_term()
        for i in range(nv):
            b = -h.terms.get(tuple(2 if j == i else 0 for j in range(nv)), 0.0)
            if len(h.terms) == 2 and a > 0 and b > 0:
                radii[i] = min(radii[i], math.sqrt(a / b) * (1.0 + 4.0 * _ROUNDOFF))
    return radii if np.isfinite(radii).all() else None


def _proves_positive_definite(Q: np.ndarray) -> bool:
    """Q is exactly symmetric and provably positive definite.

    The float Cholesky factorization of Q - delta I must succeed, with
    delta from Rump's criterion (Rump 2006, BIT 46): the factor's backward
    error is at most gamma_{n+1} / (1 - gamma_{n+1}) tr(Q) in norm, and
    delta = 2 gamma_{n+2} tr(Q), plus an allowance for underflow, also
    covers forming Q - delta I and the trace in floats.
    """
    n = len(Q)
    if not np.isfinite(Q).all() or not np.array_equal(Q, Q.T):
        return False
    diag = np.diag(Q)
    if not diag.min() > 0:
        return False
    delta = 2.0 * _gamma(n + 2) * float(diag.sum()) + 2.0 * (n + 1) ** 2 * math.ulp(0.0)
    try:
        np.linalg.cholesky(Q - delta * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    return True


def verify_putinar_ray(prog: SosIdentityProgram, primal: Sequence[np.ndarray]) -> float:
    """The verified margin of the Putinar identity a primal ray carries:
    positive only if it proves the set of the multipliers empty, and -inf
    where a Gram block or lambda fails.

    The ray's Gram matrices Q_j and free value lambda (``primal`` as an
    SDP solution holds them) define, exactly, the residual polynomial
    r = lambda + sigma_0 + sum_j sigma_j h_j.  Each Q_j is proved positive
    semidefinite (`_proves_positive_definite`), so on the set every
    sigma_j h_j >= 0 and r >= lambda > 0 there.  Every variable is bounded
    there by a box multiplier (`box_radii`: |u_i| <= rho_i), so
    |r(u)| <= sum |r_alpha| rho^alpha, and the set is empty once

        margin = lambda - sum_alpha (|r_alpha| + e_alpha) rho^alpha
                 - (rounding of the sum)  >  0.

    r is expanded in floats from the Gram matrices (`_expand_identity`);
    its n_alpha terms of monomial alpha, each a product of a Gram entry
    and a coefficient of h_j, err in sum by at most
    e_alpha = 2 gamma_{n_alpha + 1} sum |terms|; the sum over alpha, of
    nonnegative terms, is raised by 4 gamma_K, with K counting its
    monomials, the degree and the variables, for its own roundings.  The
    identity is that of the program as posed: its multipliers are the
    float polynomials of ``prog`` on the unit box.  Raises ValueError when
    some variable has no box multiplier.
    """
    radii = box_radii(prog)
    if radii is None:
        raise ValueError("a variable without a box multiplier bounds no residual")
    grams = primal[: len(prog.sigma_bases)]
    lam = float(primal[prog.free_block_index][0])
    if not 0 < lam < math.inf or not all(map(_proves_positive_definite, grams)):
        return -math.inf
    constant = {(0,) * len(prog.ambient): -lam}
    exps, weights, inverse = _expand_identity(prog, (constant,), grams)
    residual = np.abs(np.bincount(inverse, weights))
    absolute = np.bincount(inverse, np.abs(weights))
    counts = np.bincount(inverse)
    monomials = np.empty((len(counts), exps.shape[1]), dtype=np.int64)
    monomials[inverse] = exps
    extent = np.prod(radii ** monomials, axis=1)  # max of |u^alpha| on the set
    errors = 2.0 * np.array([_gamma(n + 1) for n in counts.tolist()]) * absolute
    total = float(extent @ (residual + errors))
    rounds = len(counts) + 2 * int(monomials.sum(axis=1).max(initial=0)) + len(radii)
    margin = lam - total * (1.0 + 4.0 * _gamma(rounds + 3))
    return margin if math.isfinite(margin) else -math.inf


def _solve_checked(
    sdp: SdpProblem, what: str, certificates: Tuple[SdpStatus, ...] = (), accept=None
) -> SdpSolution:
    """Solve at the default tolerances, and raise unless the result is
    optimal or one of the ``certificates`` statuses the caller reads.
    ``accept`` goes to the solver (`sdp.solve`)."""
    sol = solve(sdp, accept=accept)
    if sol.status is SdpStatus.OPTIMAL or sol.status in certificates:
        return sol
    reason = f"{sol.status.value} ({sol.stall})" if sol.stall else sol.status.value
    raise RelaxationError(f"{what} not solved: {reason}")


def solve_sos_identity(
    prog: SosIdentityProgram, sdp: SdpProblem
) -> SosIdentitySolution:
    sol = _solve_checked(sdp, "identity program")
    p_values = sol.primal[prog.free_block_index]
    terms = dict(zip(prog.p_basis.monomials, p_values))
    widths = dict(zip(prog.ambient, prog.scaling))
    p = Polynomial(prog.p_vars, terms).scaled([1 / widths[v] for v in prog.p_vars])
    grams = [np.array(sol.primal[j]) for j in range(len(prog.sigma_bases))]
    rho = float(prog.gamma @ p_values)
    return SosIdentitySolution(
        p=p, sigma_grams=grams, rho=rho, gap=sol.gap, status=sol.status, raw=sol
    )


# ----------------------------------------------------------------------
# moment relaxations


@dataclass
class MomentRelaxation(SosIdentityProgram):
    """The order-t identity program of  min f  over  {h_j >= 0}: ``target``
    is f and the multipliers are the h_j, both on the unit box; ``row_basis``
    indexes the moments there and ``sigma_bases[0]`` the rows and columns of
    the moment matrix."""

    order: int
    flat_step: int                    # v = max_j ceil(deg h_j / 2), at least 1


def build_moment_relaxation(
    f: Polynomial,
    generators: Sequence[Polynomial],
    order: int,
    scaling: Optional[Sequence[float]] = None,
) -> Tuple[MomentRelaxation, SdpProblem]:
    """Order-t moment relaxation of  min f  over  {h >= 0 for h in generators}.

    Posed in Gram form through ``build_sos_identity``: maximize lambda
    subject to  f - lambda = sigma_0 + sum_j sigma_j h_j, with sigma_0 of
    order t and sigma_j of order t - ceil(deg h_j / 2).

    ``scaling`` goes to ``build_sos_identity``, which poses the program on
    the unit box: the moments are those of the stretched variables, and
    the solution path maps atoms back to the original coordinates.
    """
    t = order
    if t < math.ceil(f.degree / 2):
        raise ValueError(f"order {t} below objective half-degree")
    for h in generators:
        if t < math.ceil(h.degree / 2):
            raise ValueError(f"order {t} below half-degree of generator {h.render()}")

    # f - lambda = sigma_0 + sum_j sigma_j h_j, with lambda the free
    # polynomial of degree 0 paired with the unit mass; sigma_0 of order t
    # reaches every monomial of degree <= 2t, so there is one row per moment
    prog, sdp = build_sos_identity(
        f,
        (),
        0,
        [(h, t - math.ceil(h.degree / 2)) for h in generators],
        _UNIT_MASS,
        sigma0_order=t,
        scaling=scaling,
    )
    relax = MomentRelaxation(
        **vars(prog),
        order=t,
        flat_step=max([1] + [math.ceil(h.degree / 2) for h in generators]),
    )
    return relax, sdp


@dataclass
class MomentSolution:
    """One solved order of the hierarchy; ``minimize_hierarchy`` reports the
    order that decided it."""

    order: int
    moments: np.ndarray               # aligned with relax.row_basis
    bound: float
    flat: bool
    status: SdpStatus
    raw: SdpSolution
    atoms: List[np.ndarray] = field(default_factory=list)
    # of a ray that proves the set empty (`verify_putinar_ray`), else NaN
    certificate_margin: float = math.nan

    @property
    def infeasible(self) -> bool:
        """The set is empty: the solve ended with a Putinar ray."""
        return self.status is SdpStatus.DUAL_INFEASIBLE

    @property
    def certificate_residual(self) -> float:
        return self.raw.certificate_residual


def moment_matrix(
    moments: np.ndarray, relax: MomentRelaxation, degree: int
) -> np.ndarray:
    nv = len(relax.ambient)
    powers = (relax.row_basis.max_degree + 1) ** np.arange(nv, dtype=np.int64)
    keys = _exponent_keys(monomial_basis(nv, degree).monomials, powers)
    return moments[_key_lookup(relax.row_basis, powers)(keys[:, None] + keys)]


def _numeric_rank(mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    svals = np.linalg.svd(mat, compute_uv=False)
    top = svals.max() if len(svals) else 0.0
    if top <= 0:
        return 0
    return int(np.sum(svals > RANK_TOL * top))


def check_flatness(
    moments: np.ndarray, relax: MomentRelaxation
) -> Tuple[bool, List[int]]:
    """Rank test: the order-t and order-(t - v) moment matrices agree.

    Ranks are governed by the singular-value threshold RANK_TOL * sigma_max,
    which rounds ambiguous spectra toward fewer atoms.
    """
    t = relax.order
    v = relax.flat_step
    ranks = [_numeric_rank(moment_matrix(moments, relax, s)) for s in range(t + 1)]
    if t - v < 0:
        return False, ranks
    flat = ranks[t] == ranks[t - v]
    return flat, ranks


def extract_atoms(moments: np.ndarray, relax: MomentRelaxation) -> List[np.ndarray]:
    """Recover support points of a flat truncated moment sequence.

    Factors the moment matrix, selects a low-degree pivot basis, forms the
    per-variable multiplication operators and reads the atoms off a joint
    Schur decomposition.  Raises ExtractionError when the numerics do not
    cooperate; callers then treat the relaxation as not flat.
    """
    t = relax.order
    v = relax.flat_step
    nvars = len(relax.ambient)
    M = moment_matrix(moments, relax, t)
    low = moment_matrix(moments, relax, max(t - v, 0))
    r = _numeric_rank(low)
    if r == 0:
        raise ExtractionError("moment matrix numerically zero")

    evals, evecs = np.linalg.eigh(M)
    idx = np.argsort(evals)[::-1][:r]
    lam = evals[idx]
    if lam.min() <= 0:
        raise ExtractionError("rank deficiency inconsistent with requested atoms")
    V = evecs[:, idx] * np.sqrt(lam)

    # greedy low-degree pivot rows, capped at degree t - v so every
    # variable shift stays inside the factored matrix
    basis = relax.sigma_bases[0]
    max_pivot_degree = t - v
    pivots: List[int] = []
    for i, mono in enumerate(basis.monomials):
        if sum(mono) > max_pivot_degree:
            break
        trial = pivots + [i]
        if np.linalg.matrix_rank(V[trial], tol=1e-8 * max(1.0, abs(V).max())) == len(
            trial
        ):
            pivots.append(i)
        if len(pivots) == r:
            break
    if len(pivots) < r:
        raise ExtractionError("no well-conditioned pivot basis of low degree")

    B = V[pivots]
    shift_ops = []
    for ell in range(nvars):
        rows = []
        for i in pivots:
            shifted = list(basis.monomials[i])
            shifted[ell] += 1
            rows.append(basis.index(tuple(shifted)))
        try:
            N_ell = np.linalg.solve(B.T, V[rows].T).T
        except np.linalg.LinAlgError as err:
            raise ExtractionError(f"singular pivot basis: {err}") from err
        shift_ops.append(N_ell)

    rng = np.random.default_rng(0)
    weights = rng.dirichlet(np.ones(nvars))
    combined = sum(w * N for w, N in zip(weights, shift_ops))
    T, Q = sla.schur(combined, output="real")
    off = np.tril(T, -1)
    if np.abs(off).max() > 1e-6 * max(1.0, np.abs(T).max()):
        raise ExtractionError("complex eigenvalues in the shift operator")

    atoms = []
    for i in range(r):
        q = Q[:, i]
        atoms.append(np.array([float(q @ N @ q) for N in shift_ops]))
    atoms.sort(key=lambda a: tuple(a))

    _verify_atoms(atoms, moments, relax)
    return atoms


def _verify_atoms(atoms, moments, relax):
    exponents = np.array(relax.row_basis.monomials)
    vdm = np.prod(np.array(atoms)[None] ** exponents[:, None], axis=2)
    wts, *_ = np.linalg.lstsq(vdm, moments, rcond=None)
    rebuilt = vdm @ wts
    err = np.abs(rebuilt - moments).max()
    if err > MOMENT_REBUILD_TOL:
        raise ExtractionError(f"atoms rebuild moments only to {err:.2e}")
    if wts.min() < -1e-4:
        raise ExtractionError("negative atom weight")
    for h, _ in relax.multipliers:
        for atom in atoms:
            if h.evaluate(atom) < -ATOM_FEAS_TOL:
                raise ExtractionError(
                    f"atom {atom} violates generator {h.render()}"
                )


def solve_moment_relaxation(relax: MomentRelaxation, sdp: SdpProblem) -> MomentSolution:
    """Solve the Gram form; the moments are minus the dual vector.

    An unbounded lambda ends ``DualInfeasible``: the primal ray is a
    Putinar identity proving the set empty, and the bound is +inf.  Where
    a box multiplier bounds every variable (`box_radii`), the ray is
    proved: the solve ends at the first iterate whose ray verifies
    (`verify_putinar_ray`), the solution carries the verified margin, and
    a final ray that does not verify raises RelaxationError.  Elsewhere
    the ray rests on the solver's own test at its tolerance, and the
    margin is NaN.
    """
    bounded = box_radii(relax) is not None
    accept = (lambda primal: verify_putinar_ray(relax, primal) > 0) if bounded else None
    rays = (SdpStatus.DUAL_INFEASIBLE,)
    sol = _solve_checked(sdp, "moment relaxation", rays, accept)
    if sol.status is SdpStatus.DUAL_INFEASIBLE:
        margin = verify_putinar_ray(relax, sol.primal) if bounded else math.nan
        if bounded and not margin > 0:
            raise RelaxationError(f"moment relaxation ray not verified: {margin}")
        moments = np.zeros(len(relax.row_basis))
        return MomentSolution(
            relax.order, moments, math.inf, False, sol.status, sol, [], margin
        )
    moments = -sol.y
    bound = float(sol.primal[relax.free_block_index][0])  # lambda
    flat, _ = check_flatness(moments, relax)
    atoms: List[np.ndarray] = []
    if flat:
        try:
            atoms = [relax.unscale_point(a) for a in extract_atoms(moments, relax)]
        except ExtractionError:
            flat = False
    return MomentSolution(relax.order, moments, bound, flat, sol.status, sol, atoms)


# ----------------------------------------------------------------------
# feasibility certification and the bounded hierarchy


class FeasibilityStatus(enum.Enum):
    NONEMPTY = "Nonempty"
    EMPTY_CERTIFIED = "EmptyCertified"
    UNKNOWN = "Unknown"


@dataclass
class FeasibilityResult:
    status: FeasibilityStatus
    witness: Optional[np.ndarray] = None
    certificate_residual: float = math.nan
    detail: str = ""


def certify_feasibility(
    generators: Sequence[Polynomial],
    order: int,
    scaling: Optional[Sequence[float]] = None,
) -> FeasibilityResult:
    """One-sided emptiness test for {h >= 0} via the order-t relaxation.

    Only the infeasibility direction is a proof: a Putinar certificate
    -1 = sigma_0 + sum_j sigma_j h_j implies the set is empty, while a
    feasible relaxation of finite order says nothing definite unless the
    moments are flat and an actual witness point can be extracted.  This is
    ``minimize_hierarchy`` at the one order t with a linear probe as the
    objective, which pushes the moments to an extreme point of the set,
    where they extract to an explicit witness when flat.
    """
    if not generators:
        raise ValueError("at least one generator required")
    variables = generators[0].variables
    probe = Polynomial(
        variables,
        {
            tuple(1 if j == i else 0 for j in range(len(variables))): 1.0
            for i in range(len(variables))
        },
    )
    try:
        hier = minimize_hierarchy(probe, generators, order, order, scaling)
    except RelaxationError as err:
        return FeasibilityResult(FeasibilityStatus.UNKNOWN, detail=str(err))
    if hier.infeasible:
        return FeasibilityResult(
            FeasibilityStatus.EMPTY_CERTIFIED,
            certificate_residual=hier.certificate_residual,
        )
    if hier.flat:
        return FeasibilityResult(FeasibilityStatus.NONEMPTY, witness=hier.atoms[0])
    return FeasibilityResult(
        FeasibilityStatus.UNKNOWN, detail="feasible relaxation without flatness"
    )


def minimize_hierarchy(
    f: Polynomial,
    generators: Sequence[Polynomial],
    start_order: int,
    max_order: int,
    scaling: Optional[Sequence[float]] = None,
) -> MomentSolution:
    """Solve relaxations of increasing order until one decides the problem.

    The first order that ends with a Putinar ray proves the set empty and
    is returned as it is (``infeasible``, with the ray's residual).  The
    first order whose moments go flat is returned with its extracted
    minimizers and the best (largest) certified lower bound over the orders
    tried.  Otherwise the order with the best bound is returned.
    """
    best: Optional[MomentSolution] = None
    failures = []
    for t in range(start_order, max_order + 1):
        relax, sdp = build_moment_relaxation(f, generators, t, scaling)
        try:
            msol = solve_moment_relaxation(relax, sdp)
        except RelaxationError as err:
            failures.append(f"order {t}: {err}")
            continue
        if msol.infeasible:
            return msol
        if msol.flat:
            bound = msol.bound if best is None else max(best.bound, msol.bound)
            return replace(msol, bound=bound)
        if best is None or msol.bound > best.bound:
            best = msol
    if best is None:
        raise RelaxationError("; ".join(failures) or "no relaxation order solved")
    return best
