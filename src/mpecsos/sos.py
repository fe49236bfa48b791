"""Positivity certificates and moment relaxations as block SDPs.

Every program here is one Gram-form identity

    target(z) - p(z) = sigma_0(z) + sum_j sigma_j(z) h_j(z)

with sum-of-squares multipliers sigma_j (Gram matrices, one PSD block
each) and an unknown polynomial p whose coefficients enter as free scalar
variables, one equality row per monomial.  Maximizing a moment pairing of
p makes the optimal p the best certified under-approximation of
min-over-constrained-variables of the target: that is the value fit.
Exponents are mixed-radix integer keys (radix row degree + 1, so sums
never carry): the rows of all Gram entries times all terms of h_j come
from one broadcast sum and one sorted lookup, and one bincount fills a
block's coefficient arrays.

The order-t moment relaxation of  min f over {h_l >= 0}  is the same
identity with p a constant lambda and sigma_0 of order t: maximizing lambda
subject to  f - lambda = sigma_0 + sum_l sigma_l h_l  is the SOS side, and
the dual vector of its equality rows, negated, is the pseudo-moment vector
(y_0 = 1 is the dual of the lambda column).  An empty set leaves lambda
unbounded, and the solver's primal ray is a Putinar certificate
-1 = sigma_0 + sum_l sigma_l h_l (after dividing by lambda), which is
exactly the one-sided emptiness test the outer algorithm needs.  When the
moment matrix satisfies the rank (flatness) condition, the generating
atoms are recovered with the shifted-basis multiplication-operator method
and cross-checked by rebuilding the moment vector.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
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
    SdpConstraint,
    SdpProblem,
    SdpSolution,
    SdpStatus,
    SolverOptions,
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
    p_degree: int
    p_basis: MonomialBasis            # over p_vars
    p_exponents_ambient: Tuple[Exponent, ...]
    multipliers: Tuple[Tuple[Polynomial, int], ...]
    sigma_bases: Tuple[MonomialBasis, ...]  # sigma_0 first, then one per multiplier
    row_basis: MonomialBasis          # ambient monomials with one equality row each
    gamma: np.ndarray                 # moments paired with p, aligned with p_basis

    @property
    def free_block_index(self) -> int:
        return len(self.sigma_bases)


def build_sos_identity(
    target: Polynomial,
    p_vars: Sequence[str],
    p_degree: int,
    multipliers: Sequence[Tuple[Polynomial, int]],
    gamma: np.ndarray,
    sigma0_order: Optional[int] = None,
) -> Tuple[SosIdentityProgram, SdpProblem]:
    """Encode the weighted-SOS identity as a block SDP.

    ``p_degree`` bounds the unknown polynomial (an even integer 2k); each
    multiplier comes with the degree bound of its Gram basis, so
    deg(sigma_j h_j) <= 2 * bound + deg h_j must not exceed the row degree.
    ``sigma0_order`` is the degree of sigma_0's Gram basis; by default the
    smallest that covers p and the target.  sigma_0 then reaches every
    monomial of degree <= 2 * sigma0_order, which is one row each.
    """
    ambient = target.variables
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
        if h.variables != ambient:
            h = h.in_variables(ambient)
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

    sigma_bases = [monomial_basis(len(ambient), sigma0_order)]
    sigma_bases += [monomial_basis(len(ambient), bound) for _, bound in mult_list]
    row_basis = monomial_basis(len(ambient), row_degree)

    prog = SosIdentityProgram(
        ambient=ambient,
        target=target,
        p_vars=p_vars,
        p_degree=p_degree,
        p_basis=p_basis,
        p_exponents_ambient=tuple(map(tuple, p_exp_ambient.tolist())),
        multipliers=tuple(mult_list),
        sigma_bases=tuple(sigma_bases),
        row_basis=row_basis,
        gamma=gamma,
    )

    # one row per monomial, found by its exponent key; the degree checks
    # above keep every exponent of a product below the radix row_degree + 1
    if (row_degree + 1) ** len(ambient) >= 2**63:
        raise ValueError("too many variables for 64-bit exponent keys")
    powers = (row_degree + 1) ** np.arange(len(ambient), dtype=np.int64)
    row_of = _key_lookup(row_basis, powers)
    rows: List[Dict[int, np.ndarray]] = [dict() for _ in row_basis.monomials]
    weights = [{(0,) * len(ambient): 1.0}] + [h.terms for h, _ in mult_list]
    for j, (basis, terms) in enumerate(zip(sigma_bases, weights)):
        # row of Gram entry (a, b) times term t of the weight, shape (t, a, b);
        # each (row, a, b) takes one term at most, so bincount adds it to 0
        n = len(basis)
        keys = _exponent_keys(basis.monomials, powers)
        term_keys = _exponent_keys(list(terms), powers)
        hit = row_of(term_keys[:, None, None] + keys[:, None] + keys).ravel()
        touched, local = np.unique(hit, return_inverse=True)
        entry = (local.reshape(-1, n * n) * (n * n) + np.arange(n * n)).ravel()
        value = np.repeat(np.fromiter(terms.values(), float, len(terms)), n * n)
        mats = np.bincount(entry, value, len(touched) * n * n).reshape(-1, n, n)
        for r, mat in zip(touched.tolist(), mats):
            rows[r][j] = mat
    free_index = prog.free_block_index
    free = np.eye(len(p_basis))
    for pi, r in enumerate(row_of(_exponent_keys(p_exp_ambient, powers)).tolist()):
        rows[r][free_index] = free[pi]
    rhs = np.zeros(len(row_basis))
    rhs[row_of(_exponent_keys(list(target.terms), powers))] = [*target.terms.values()]
    constraints = [SdpConstraint(c, r) for c, r in zip(rows, rhs.tolist())]

    blocks = [SdpBlock(BlockKind.PSD, len(b)) for b in sigma_bases]
    blocks.append(SdpBlock(BlockKind.FREE, len(p_basis)))
    objective = {free_index: -gamma}
    sdp = SdpProblem(blocks=blocks, objective=objective, constraints=constraints)
    return prog, sdp


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

        Expanded again from the Gram matrices alone, one exponent row and
        weight per Gram entry and term of h_j, collapsed under keys of its
        own radix, so it checks the builder's row keys rather than sharing
        them.  A non-finite coefficient gives inf.
        """
        nv = len(prog.ambient)

        def rows(monomials) -> np.ndarray:
            return np.array(monomials, dtype=np.int64).reshape(len(monomials), nv)

        known = (prog.target, -self.p.in_variables(prog.ambient))
        exps = [rows(list(f.terms)) for f in known]
        weights = [np.fromiter(f.terms.values(), float, len(f.terms)) for f in known]
        hs = [Polynomial.constant(prog.ambient, -1.0)]
        hs += [-h for h, _ in prog.multipliers]
        for basis, gram, h in zip(prog.sigma_bases, self.sigma_grams, hs):
            B, H = rows(basis.monomials), rows(list(h.terms))
            exps.append((B[:, None, None] + B[:, None] + H).reshape(-1, nv))
            h_weights = np.fromiter(h.terms.values(), float, len(h.terms))
            weights.append((gram[:, :, None] * h_weights).ravel())
        keys = np.concatenate(exps)
        radix = 1 + int(keys.max(initial=0))
        if radix**nv < 2**63:  # one integer per row sorts much faster
            keys = keys @ radix ** np.arange(nv, dtype=np.int64)
        _, inverse = np.unique(keys, axis=0, return_inverse=True)
        coeffs = np.bincount(inverse.ravel(), np.concatenate(weights))
        if not np.isfinite(coeffs).all():
            return math.inf
        return float(np.abs(coeffs).max(initial=0.0))


def _solve_checked(
    sdp: SdpProblem,
    options: Optional[SolverOptions],
    what: str,
    certificates: Tuple[SdpStatus, ...] = (),
) -> SdpSolution:
    """Solve, and raise unless the result is usable.

    Usable means optimal, at the iteration limit with residuals and gap
    below 1e-6, or one of the ``certificates`` statuses the caller reads.
    """
    sol = solve(sdp, options)
    if sol.status in certificates:
        return sol
    reason = f"{sol.status.value} ({sol.stall})" if sol.stall else sol.status.value
    if sol.status not in (SdpStatus.OPTIMAL, SdpStatus.ITERATION_LIMIT):
        raise RelaxationError(f"{what} not solved: {reason}")
    if sol.status is SdpStatus.ITERATION_LIMIT:
        if max(sol.primal_residual, sol.dual_residual, sol.gap) > 1e-6:
            raise RelaxationError(f"{what} stalled with poor residuals: {reason}")
    return sol


def solve_sos_identity(
    prog: SosIdentityProgram,
    sdp: SdpProblem,
    options: Optional[SolverOptions] = None,
) -> SosIdentitySolution:
    sol = _solve_checked(sdp, options, "identity program")
    p_values = sol.primal[prog.free_block_index]
    terms = dict(zip(prog.p_basis.monomials, p_values))
    p = Polynomial(prog.p_vars, terms)
    grams = [np.array(sol.primal[j]) for j in range(len(prog.sigma_bases))]
    rho = float(prog.gamma @ p_values)
    return SosIdentitySolution(
        p=p, sigma_grams=grams, rho=rho, gap=sol.gap, status=sol.status, raw=sol
    )


# ----------------------------------------------------------------------
# moment relaxations


@dataclass
class MomentRelaxation:
    variables: Tuple[str, ...]
    objective: Polynomial
    generators: Tuple[Polynomial, ...]
    order: int
    y_basis: MonomialBasis            # all moments up to degree 2t
    moment_basis: MonomialBasis       # rows/cols of the moment matrix
    localizing_bases: Tuple[MonomialBasis, ...]
    flat_step: int                    # v = max_j ceil(deg h_j / 2), at least 1
    scaling: Tuple[float, ...] = ()   # per-coordinate stretch applied on entry

    def unscale_point(self, point: np.ndarray) -> np.ndarray:
        if not self.scaling:
            return point
        return point * np.array(self.scaling)


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

    ``scaling`` stretches each coordinate before building (z_i = c_i w_i),
    which normalizes sets living in wide boxes to the unit box; high-order
    moments otherwise span c^(2t) in magnitude and wreck the solve.  Atoms
    are mapped back to the original coordinates by the solution path.
    """
    variables = f.variables
    gens = []
    for h in generators:
        if h.variables != variables:
            h = h.in_variables(variables)
        gens.append(h)
    scale_tuple: Tuple[float, ...] = ()
    if scaling is not None:
        scale_tuple = tuple(float(c) for c in scaling)
        if any(c <= 0 for c in scale_tuple):
            raise ValueError("scaling entries must be positive")
        f = f.scaled(scale_tuple)
        gens = [h.scaled(scale_tuple) for h in gens]
    t = order
    if t < math.ceil(f.degree / 2):
        raise ValueError(f"order {t} below objective half-degree")
    for h in gens:
        if t < math.ceil(h.degree / 2):
            raise ValueError(f"order {t} below half-degree of generator {h.render()}")

    # f - lambda = sigma_0 + sum_j sigma_j h_j, with lambda the free
    # polynomial of degree 0 paired with the unit mass; sigma_0 of order t
    # reaches every monomial of degree <= 2t, so there is one row per moment
    prog, sdp = build_sos_identity(
        f,
        (),
        0,
        [(h, t - math.ceil(h.degree / 2)) for h in gens],
        _UNIT_MASS,
        sigma0_order=t,
    )
    relax = MomentRelaxation(
        variables=variables,
        objective=f,
        generators=tuple(gens),
        order=t,
        y_basis=prog.row_basis,
        moment_basis=prog.sigma_bases[0],
        localizing_bases=prog.sigma_bases[1:],
        flat_step=max([1] + [math.ceil(h.degree / 2) for h in gens]),
        scaling=scale_tuple,
    )
    return relax, sdp


@dataclass
class MomentSolution:
    moments: np.ndarray               # aligned with relax.y_basis
    bound: float
    flat: bool
    atoms: List[np.ndarray] = field(default_factory=list)
    status: SdpStatus = SdpStatus.OPTIMAL
    raw: Optional[SdpSolution] = None


def moment_matrix(
    moments: np.ndarray, relax: MomentRelaxation, degree: int
) -> np.ndarray:
    nv = len(relax.variables)
    powers = (relax.y_basis.max_degree + 1) ** np.arange(nv, dtype=np.int64)
    keys = _exponent_keys(monomial_basis(nv, degree).monomials, powers)
    return moments[_key_lookup(relax.y_basis, powers)(keys[:, None] + keys)]


def _numeric_rank(mat: np.ndarray, tol: float) -> int:
    if mat.size == 0:
        return 0
    svals = np.linalg.svd(mat, compute_uv=False)
    top = svals.max() if len(svals) else 0.0
    if top <= 0:
        return 0
    return int(np.sum(svals > tol * top))


def check_flatness(
    moments: np.ndarray, relax: MomentRelaxation, tol: float = RANK_TOL
) -> Tuple[bool, List[int]]:
    """Rank test: the order-t and order-(t - v) moment matrices agree.

    Ranks are governed by the singular-value threshold tol * sigma_max,
    which rounds ambiguous spectra toward fewer atoms.
    """
    t = relax.order
    v = relax.flat_step
    ranks = [
        _numeric_rank(moment_matrix(moments, relax, s), tol) for s in range(t + 1)
    ]
    if t - v < 0:
        return False, ranks
    flat = ranks[t] == ranks[t - v]
    return flat, ranks


def extract_atoms(
    moments: np.ndarray, relax: MomentRelaxation, tol: float = RANK_TOL
) -> List[np.ndarray]:
    """Recover support points of a flat truncated moment sequence.

    Factors the moment matrix, selects a low-degree pivot basis, forms the
    per-variable multiplication operators and reads the atoms off a joint
    Schur decomposition.  Raises ExtractionError when the numerics do not
    cooperate; callers then treat the relaxation as not flat.
    """
    t = relax.order
    v = relax.flat_step
    nvars = len(relax.variables)
    M = moment_matrix(moments, relax, t)
    low = moment_matrix(moments, relax, max(t - v, 0))
    r = _numeric_rank(low, tol)
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
    basis = relax.moment_basis
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
    exponents = np.array(relax.y_basis.monomials)
    vdm = np.prod(np.array(atoms)[None] ** exponents[:, None], axis=2)
    wts, *_ = np.linalg.lstsq(vdm, moments, rcond=None)
    rebuilt = vdm @ wts
    err = np.abs(rebuilt - moments).max()
    if err > MOMENT_REBUILD_TOL:
        raise ExtractionError(f"atoms rebuild moments only to {err:.2e}")
    if wts.min() < -1e-4:
        raise ExtractionError("negative atom weight")
    for h in relax.generators:
        for atom in atoms:
            if h.evaluate(atom) < -ATOM_FEAS_TOL:
                raise ExtractionError(
                    f"atom {atom} violates generator {h.render()}"
                )


def solve_moment_relaxation(
    relax: MomentRelaxation,
    sdp: SdpProblem,
    options: Optional[SolverOptions] = None,
) -> MomentSolution:
    """Solve the Gram form; the moments are minus the dual vector.

    An unbounded lambda ends ``DualInfeasible``: the primal ray is a
    Putinar identity proving the set empty, and the bound is +inf.
    """
    sol = _solve_checked(
        sdp, options, "moment relaxation", (SdpStatus.DUAL_INFEASIBLE,)
    )
    if sol.status is SdpStatus.DUAL_INFEASIBLE:
        return MomentSolution(
            moments=np.zeros(len(relax.y_basis)),
            bound=math.inf,
            flat=False,
            status=sol.status,
            raw=sol,
        )
    moments = -sol.y
    bound = float(sol.primal[-1][0])  # lambda, the last (free) block
    flat, _ = check_flatness(moments, relax)
    atoms: List[np.ndarray] = []
    if flat:
        try:
            atoms = [relax.unscale_point(a) for a in extract_atoms(moments, relax)]
        except ExtractionError:
            flat = False
            atoms = []
    return MomentSolution(
        moments=moments,
        bound=bound,
        flat=flat,
        atoms=atoms,
        status=sol.status,
        raw=sol,
    )


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
    options: Optional[SolverOptions] = None,
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
        hier = minimize_hierarchy(probe, generators, order, order, options, scaling)
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


@dataclass
class HierarchyResult:
    bound: float
    flat: bool
    atoms: List[np.ndarray]
    order: int
    infeasible: bool = False
    certificate_residual: float = math.nan  # of the Putinar ray, if infeasible


def minimize_hierarchy(
    f: Polynomial,
    generators: Sequence[Polynomial],
    start_order: int,
    max_order: int,
    options: Optional[SolverOptions] = None,
    scaling: Optional[Sequence[float]] = None,
) -> HierarchyResult:
    """Solve relaxations of increasing order until the moments go flat.

    Returns the best (largest) certified lower bound over the orders tried
    together with extracted minimizers when flatness was reached.  The
    first order that ends with a Putinar ray proves the set empty: the
    result is then ``infeasible`` at that order, with the ray's residual.
    """
    solved = False
    best = -math.inf
    flat = False
    atoms: List[np.ndarray] = []
    used = start_order
    failures = []
    for t in range(start_order, max_order + 1):
        relax, sdp = build_moment_relaxation(f, generators, t, scaling)
        try:
            msol = solve_moment_relaxation(relax, sdp, options)
        except RelaxationError as err:
            failures.append(f"order {t}: {err}")
            continue
        if msol.status is SdpStatus.DUAL_INFEASIBLE:
            return HierarchyResult(
                bound=math.inf,
                flat=False,
                atoms=[],
                order=t,
                infeasible=True,
                certificate_residual=msol.raw.certificate_residual,
            )
        solved = True
        if msol.bound > best:
            best = msol.bound
            used = t
        if msol.flat:
            flat = True
            atoms = msol.atoms
            used = t
            break
    if not solved:
        raise RelaxationError("; ".join(failures) or "no relaxation order solved")
    return HierarchyResult(bound=best, flat=flat, atoms=atoms, order=used)
