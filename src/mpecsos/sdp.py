"""Primal-dual interior-point solver for block semidefinite programs.

Problems are stated in equality-standard form over a product cone of
PSD blocks, nonnegative vectors and free (unconstrained) vectors:

    minimize    sum_B <C_B, X_B>
    subject to  sum_B <A_iB, X_B> = b_i,   i = 1..m,
                X_B in K_B.

The solver runs the homogeneous self-dual embedding with Nesterov-Todd
search directions and a Mehrotra predictor-corrector, so a run ends either
at an optimal primal-dual pair or at a certificate of primal or dual
infeasibility (the Farkas ray needed to prove a relaxation empty).  Free
variables are solved out of the constraint data once per problem: pivot
rows chosen by an LU factorization of the free columns fix them, and the
other rows, the objective and the right side are rewritten without them,
so the iteration runs on PSD blocks only; the free values and the dual
values of the pivot rows are restored from the final iterate.  A
nonnegative coordinate is a 1x1 PSD block, whose Nesterov-Todd scaling is
sqrt(x/s).

Each PSD block is scaled by its NT point R, which maps both X and S to the
same diagonal matrix; the scaled constraint matrices R'A_iR are symmetric,
so a block contributes n(n+1)/2 rows (its svec coordinates) to the scaled
constraint matrix.  The Newton system is solved through a QR factorization
of that matrix rather than a factorization of the Schur complement it
squares.  Its condition number therefore grows like 1/mu instead of
1/mu^2, which keeps the last digits of the direction when the
complementarity reaches 1e-9.

Constraint data are kept sparse, as coordinate triples per block (svec
entries for PSD blocks), and every product with them goes through
np.bincount: the Gram-form programs built here touch under 1% of the
entries of their dense blocks.  The per-iteration work is dense: the
scaling points, the scaled constraint matrix and its factorization.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg as sla


class BlockKind(enum.Enum):
    PSD = "psd"
    NONNEG = "nonneg"
    FREE = "free"


class SdpStatus(enum.Enum):
    OPTIMAL = "Optimal"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_INFEASIBLE = "DualInfeasible"
    NUMERICAL_TROUBLE = "NumericalTrouble"
    ITERATION_LIMIT = "IterationLimit"


@dataclass(frozen=True)
class SdpBlock:
    kind: BlockKind
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("block size must be >= 1")


@dataclass
class SdpConstraint:
    """One equality row: sum over touched blocks of <coeff, X_block> = rhs."""

    coeffs: Dict[int, np.ndarray]
    rhs: float


@dataclass
class SolverOptions:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iterations: int = 200
    step_fraction: float = 0.98

    def __post_init__(self):
        if self.gap_tol <= 0 or self.feas_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 < self.step_fraction < 1:
            raise ValueError("step_fraction must lie in (0, 1)")


class SdpProblem:
    """Validated block-structured SDP in equality-standard form."""

    def __init__(
        self,
        blocks: Sequence[SdpBlock],
        objective: Dict[int, np.ndarray],
        constraints: Sequence[SdpConstraint],
    ):
        self.blocks = tuple(blocks)
        if not constraints:
            raise ValueError("at least one constraint is required")
        self.objective = {}
        for bi, coeff in objective.items():
            self.objective[bi] = self._check_coeff(bi, coeff, "objective")
        self.constraints = []
        for ci, con in enumerate(constraints):
            if not con.coeffs:
                raise ValueError(f"constraint {ci} touches no block")
            coeffs = {
                bi: self._check_coeff(bi, cf, f"constraint {ci}")
                for bi, cf in con.coeffs.items()
            }
            if not math.isfinite(float(con.rhs)):
                raise ValueError(f"constraint {ci}: right side {con.rhs} not finite")
            self.constraints.append(SdpConstraint(coeffs, float(con.rhs)))

    def _check_coeff(self, block_index: int, coeff, where: str) -> np.ndarray:
        if not 0 <= block_index < len(self.blocks):
            raise ValueError(f"{where}: no block {block_index}")
        block = self.blocks[block_index]
        arr = np.asarray(coeff, dtype=float)
        if not np.isfinite(arr).all():
            raise ValueError(f"{where}: coefficient not finite")
        if block.kind is BlockKind.PSD:
            if arr.shape != (block.size, block.size):
                raise ValueError(f"{where}: expected {block.size}x{block.size} matrix")
            if not np.array_equal(arr, arr.T):
                if not np.allclose(arr, arr.T, atol=1e-12):
                    raise ValueError(f"{where}: PSD coefficient matrix not symmetric")
                arr = 0.5 * (arr + arr.T)
        else:
            if arr.shape != (block.size,):
                raise ValueError(f"{where}: expected vector of length {block.size}")
        return arr

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def rhs(self) -> np.ndarray:
        return np.array([c.rhs for c in self.constraints])

    def dump(self) -> str:
        """Sparse text form for differential testing against other solvers.

        Header lines give block kinds/sizes and the right-hand side; each
        following line is ``constraint block row col value`` with
        constraint index 0 reserved for the objective (vector blocks use
        col = 0).
        """
        lines = [
            "blocks " + " ".join(f"{b.kind.value}:{b.size}" for b in self.blocks),
            "rhs " + " ".join(repr(c.rhs) for c in self.constraints),
        ]

        def emit(index: int, coeffs: Dict[int, np.ndarray]):
            for bi in sorted(coeffs):
                arr = coeffs[bi]
                if arr.ndim == 2:
                    rows, cols = np.nonzero(arr)
                    for r, c in zip(rows, cols):
                        if r <= c:
                            lines.append(f"{index} {bi} {r} {c} {arr[r, c]!r}")
                else:
                    for r in np.nonzero(arr)[0]:
                        lines.append(f"{index} {bi} {r} 0 {arr[r]!r}")

        emit(0, self.objective)
        for ci, con in enumerate(self.constraints, start=1):
            emit(ci, con.coeffs)
        return "\n".join(lines) + "\n"


@dataclass
class SdpSolution:
    status: SdpStatus
    primal: Optional[List[np.ndarray]]
    y: Optional[np.ndarray]
    s: Optional[List[np.ndarray]]
    primal_objective: float
    dual_objective: float
    gap: float
    primal_residual: float
    dual_residual: float
    iterations: int
    mu_history: List[float] = field(default_factory=list)
    # for infeasible statuses: norm of the (normalized) ray residual
    certificate_residual: float = math.nan


# ----------------------------------------------------------------------
# public residual computation


def residuals(
    problem: SdpProblem,
    primal: Sequence[np.ndarray],
    y: np.ndarray,
    s: Optional[Sequence[np.ndarray]] = None,
) -> Tuple[float, float, float]:
    """Scale-normalized primal/dual residuals and relative gap.

    Dual slacks default to C - sum y_i A_i when not supplied.
    """
    blocks = problem.blocks
    if len(primal) != len(blocks):
        raise ValueError("one primal value per block required")
    for bi, block in enumerate(blocks):
        want = (block.size, block.size) if block.kind is BlockKind.PSD else (block.size,)
        if np.asarray(primal[bi]).shape != want:
            raise ValueError(f"primal block {bi} has wrong shape")
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.num_constraints,):
        raise ValueError("dual vector length mismatch")

    b = problem.rhs()
    ax = np.zeros(problem.num_constraints)
    for i, con in enumerate(problem.constraints):
        for bi, coeff in con.coeffs.items():
            ax[i] += float(np.sum(coeff * primal[bi]))
    p_res = np.linalg.norm(ax - b) / (1.0 + np.linalg.norm(b))

    c_norm_sq = 0.0
    pobj = 0.0
    dual_gap_blocks = []
    for bi, block in enumerate(blocks):
        coeff = problem.objective.get(bi)
        if coeff is None:
            coeff = (
                np.zeros((block.size, block.size))
                if block.kind is BlockKind.PSD
                else np.zeros(block.size)
            )
        c_norm_sq += float(np.sum(coeff**2))
        pobj += float(np.sum(coeff * primal[bi]))
        resid = np.array(coeff, dtype=float)
        for i, con in enumerate(problem.constraints):
            if bi in con.coeffs:
                resid -= y[i] * con.coeffs[bi]
        if s is not None:
            resid -= np.asarray(s[bi], dtype=float)
            dual_gap_blocks.append(resid)
        elif block.kind is BlockKind.FREE:
            # free blocks carry no slack: C - A^T y must vanish on its own
            dual_gap_blocks.append(resid)
        else:
            # slack defaults to C - A^T y, so the equation holds exactly
            dual_gap_blocks.append(np.zeros_like(resid))
    d_res = math.sqrt(sum(float(np.sum(r**2)) for r in dual_gap_blocks)) / (
        1.0 + math.sqrt(c_norm_sq)
    )
    dobj = float(b @ y)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return p_res, d_res, gap


# ----------------------------------------------------------------------
# solver internals


class _Coo:
    """A sparse matrix as coordinate triples; products go through bincount.

    (bincount returns integers when it has no entries to weigh, hence the
    casts.)
    """

    def __init__(self, rows, cols, vals, shape: Tuple[int, int]):
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.vals = np.asarray(vals, dtype=float)
        self.shape = shape

    def dot(self, v: np.ndarray) -> np.ndarray:
        """A v."""
        return np.bincount(
            self.rows, weights=self.vals * v[self.cols], minlength=self.shape[0]
        ).astype(float, copy=False)

    def tdot(self, v: np.ndarray) -> np.ndarray:
        """A' v."""
        return np.bincount(
            self.cols, weights=self.vals * v[self.rows], minlength=self.shape[1]
        ).astype(float, copy=False)


# entries of the scaled matrices formed at once: 128 KB chunks stay in
# cache through the product that forms them and the svec gather after it
_CHUNK = 1 << 14


class _PsdBlock:
    """Constraint data of one PSD block in svec coordinates.

    svec stacks the upper triangle row by row with the off-diagonal entries
    scaled by sqrt(2), so <A, X> = svec(A)'svec(X).  Column i of ``A`` is
    svec(A_i) for the (row-scaled) constraint matrix A_i.  The coordinate
    list of the A_i with both triangles is kept as well, in chunks of
    constraints, for forming the scaled matrices R'A_iR.  ``entry`` is set
    when the block is coordinate ``entry`` of the nonnegative block
    ``index``.
    """

    def __init__(self, index: int, size: int, coeffs, norms, m: int, C, entry=None):
        self.index = index
        self.entry = entry
        self.size = size
        self.iu = np.triu_indices(size)
        self.flat = self.iu[0] * size + self.iu[1]
        self.weight = np.where(self.iu[0] == self.iu[1], 1.0, math.sqrt(2.0))
        self.dim = len(self.weight)
        self.C = np.zeros((size, size)) if C is None else np.array(C)
        self.rows = np.array(sorted(coeffs), dtype=np.intp)

        # entries (local constraint, j, k, value), ordered by constraint,
        # read from stacks of rows of about _CHUNK entries
        width = max(1, _CHUNK // (size * size))
        parts = [(np.zeros(0, np.intp),) * 3 + (np.zeros(0),)]
        for lo in range(0, len(self.rows), width):
            rows = self.rows[lo : lo + width]
            stack = np.stack([coeffs[i] for i in rows]) / norms[rows, None, None]
            li, j, k = np.nonzero(stack)
            parts.append((li + lo, j, k, stack[li, j, k]))
        local, js, ks, vals = (np.concatenate(a) for a in zip(*parts))

        # svec position of an (j, k) entry with j <= k
        position = np.zeros((size, size), dtype=np.intp)
        position[self.iu] = np.arange(self.dim)
        upper = js <= ks
        pos = position[js[upper], ks[upper]]
        self.A = _Coo(
            pos, self.rows[local[upper]], vals[upper] * self.weight[pos], (self.dim, m)
        )

        # Per chunk of constraints, where each entry's multiple of a row of
        # R lands in the stack of (A_i R)' (see scaled_columns).
        self.chunks = []
        for lo in range(0, len(self.rows), width):
            hi = min(lo + width, len(self.rows))
            a, b = np.searchsorted(local, [lo, hi])
            base = (local[a:b] - lo) * size * size + js[a:b]
            target = (base[:, None] + size * np.arange(size)).ravel()
            self.chunks.append((lo, hi, ks[a:b], vals[a:b], target))

    def svec(self, X: np.ndarray) -> np.ndarray:
        return X[self.iu] * self.weight

    def smat(self, v: np.ndarray) -> np.ndarray:
        out = np.empty((self.size, self.size))
        half = v / self.weight
        out[self.iu] = half
        out.T[self.iu] = half
        return out

    def combine(self, y: np.ndarray) -> np.ndarray:
        """sum_i y_i A_i as a dense matrix."""
        return self.smat(self.A.dot(y))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """The vector of <A_i, X>."""
        return self.A.tdot(self.svec(X))

    def scaled_columns(self, R: np.ndarray):
        """Yield (constraints, svec(R'A_iR) as rows), chunk by chunk.

        The sparse product (A_i R)' is summed into a dense stack, and one
        matrix product with R then gives (A_i R)'R = R'A_iR for every
        constraint of the chunk.
        """
        n = self.size
        for lo, hi, ks, vals, target in self.chunks:
            width = hi - lo
            stack = np.bincount(
                target, weights=(vals[:, None] * R[ks]).ravel(), minlength=width * n * n
            ).astype(float, copy=False)
            scaled = (stack.reshape(width * n, n) @ R).reshape(width, n * n)
            part = np.take(scaled, self.flat, axis=1)
            part *= self.weight
            yield self.rows[lo:hi], part


class _Cone:
    """Constraint data of the PSD blocks, sparse, built once per problem.

    PSD blocks keep their constraint matrices in svec form (`_PsdBlock`).
    A nonnegative block of size n becomes n PSD blocks of size 1, one per
    coordinate, so the iteration handles a single cone kind.  The free
    blocks are solved out of the data (`_FreeElimination`): the cone blocks
    see only the rows it leaves, with its objective and right side.
    `_PsdBlock` scales each row to unit Frobenius norm as it reads it; a
    row that the elimination combines with pivot rows is formed once, in
    the scale of the original row.
    """

    def __init__(self, problem: SdpProblem):
        blocks = problem.blocks
        constraints = problem.constraints
        m = problem.num_constraints

        norms = np.zeros(m)
        for i, con in enumerate(constraints):
            norms[i] = math.sqrt(
                sum(float(np.sum(cf**2)) for cf in con.coeffs.values())
            )
        self.norms = norms = np.where(norms > 1e-12, norms, 1.0)

        # the free blocks laid end to end: block bi is A_f[:, cols]
        self.free_cols = []
        offset = 0
        for bi, block in enumerate(blocks):
            if block.kind is BlockKind.FREE:
                self.free_cols.append((bi, slice(offset, offset + block.size)))
                offset += block.size
        A_f, c_f = np.zeros((m, offset)), np.zeros(offset)
        for bi, cols in self.free_cols:
            for i, con in enumerate(constraints):
                if bi in con.coeffs:
                    A_f[i, cols] = con.coeffs[bi] / norms[i]
            if bi in problem.objective:
                c_f[cols] = problem.objective[bi]
        free = self.free = _FreeElimination(A_f, c_f)
        self.free_ray, self.free_ray_residual = _free_ray(A_f, c_f, norms)

        rhs = problem.rhs()
        self.row_scale = norms[free.rest]
        self.b_pivot = rhs[free.pivot] / norms[free.pivot]
        self.b = rhs[free.rest] / self.row_scale - free.M @ self.b_pivot
        self.offset = float(free.v @ self.b_pivot)

        pivot_rows = [constraints[i].coeffs for i in free.pivot]

        def fold(coeff, bi, weights):
            """coeff minus sum_l weights[l] A_(pivot l) on block bi."""
            for w, row in zip(weights, pivot_rows):
                if w and bi in row:
                    coeff = -w * row[bi] if coeff is None else coeff - w * row[bi]
            return coeff

        # multiples of the original pivot rows that row k loses, in the
        # scale of row k
        mix = free.M * self.row_scale[:, None] / norms[free.pivot]

        def touching(bi):
            """The rows left on block bi; rows M leaves alone by reference."""
            rows = {k: constraints[i].coeffs.get(bi) for k, i in enumerate(free.rest)}
            for k in np.flatnonzero(mix.any(axis=1)):
                rows[k] = fold(rows[k], bi, mix[k])
            return {k: a for k, a in rows.items() if a is not None}

        self.m = len(free.rest)
        self.psd: List[_PsdBlock] = []
        for bi, block in enumerate(blocks):
            C = fold(problem.objective.get(bi), bi, free.v / norms[free.pivot])
            if block.kind is BlockKind.PSD:
                self.psd.append(
                    _PsdBlock(bi, block.size, touching(bi), self.row_scale, self.m, C)
                )
            elif block.kind is BlockKind.NONNEG:
                touched = touching(bi)
                for j in range(block.size):
                    coeffs = {
                        k: cf[j : j + 1, None] for k, cf in touched.items() if cf[j]
                    }
                    Cj = None if C is None else C[j : j + 1, None]
                    self.psd.append(
                        _PsdBlock(bi, 1, coeffs, self.row_scale, self.m, Cj, entry=j)
                    )
        self.scaled_size = sum(p.dim for p in self.psd)
        self.nu = sum(p.size for p in self.psd)
        # residuals are normalized by the original data
        self.c_norm = math.sqrt(
            sum(float(np.sum(c**2)) for c in problem.objective.values())
        )
        self.b_norm = float(np.linalg.norm(rhs))


def _free_ray(A_f: np.ndarray, c_f: np.ndarray, norms: np.ndarray):
    """A free direction d with A_f d = 0 and c_f'd = -1, or None if there is
    none, and the norm of A_f d in the original row scale.

    The free block's dual rows A_f'y = c_f carry no slack, so the dual is
    infeasible exactly when c_f leaves the row space of A_f; minus the
    component of c_f orthogonal to it is then a ray of the primal.  The
    interior-point iteration cannot find this ray itself: the elimination
    leaves a free column outside the independent set at zero.
    """
    m, nf = A_f.shape
    z = np.linalg.lstsq(A_f.T, c_f, rcond=max(m, nf) * np.finfo(float).eps)[0]
    ray = A_f.T @ z - c_f
    size = float(np.linalg.norm(ray))
    if not size > 1e-8 * max(1.0, float(np.linalg.norm(c_f))):
        return None, math.nan
    if np.linalg.norm(A_f @ ray) > 1e-12 * size:
        return None, math.nan
    ray = ray / -float(c_f @ ray)
    return ray, float(np.linalg.norm(norms * (A_f @ ray)))


def _singular_triangle(R: np.ndarray) -> bool:
    """True when a triangular factor is singular to working precision."""
    diag = np.abs(np.diag(R))
    if not diag.size:
        return False
    return not diag.min() > max(R.shape) * np.finfo(float).eps * diag.max()


class _FreeElimination:
    """The free block solved out of the constraint data, once per problem.

    J holds a maximal set of linearly independent free columns (a
    column-pivoted QR decides it), and A_f[:, J] = P [L1; L2] U.  The r
    pivot rows fix x_J = U^{-1} L1^{-1} (b_pivot - A_pivot X).  Put into
    the other rows and the objective, that leaves the cone blocks the rows
    A_rest - M A_pivot with right side b_rest - M b_pivot and the objective
    C - sum_l v_l A_pivot,l, plus the constant v'b_pivot, where
    M = L2 L1^{-1} and v = L1^{-T} U^{-T} c_J.  The free block's dual rows
    A_f'y = c_f then hold exactly with y_pivot = v - M'y_rest.  A free
    variable outside J only repeats a combination of the others and is left
    at zero.  When every free column is a unit vector on its own row, as in
    the Gram-form programs, M is zero and the other rows pass unchanged.
    ``rest`` lists those rows in their original order.
    """

    def __init__(self, A_f: np.ndarray, c_f: np.ndarray):
        m, nf = A_f.shape
        self.size = nf
        _, R, order = sla.qr(A_f, mode="economic", pivoting=True)
        diag = np.abs(np.diag(R))
        tol = max(m, nf) * np.finfo(float).eps * diag.max(initial=0.0)
        self.columns = np.sort(order[: int(np.sum(diag > tol))])
        rank = len(self.columns)
        rows, L, self.U = np.arange(m), np.zeros((m, 0)), np.zeros((0, 0))
        if rank:
            pos, L, self.U = sla.lu(A_f[:, self.columns], p_indices=True)
            # A_f[i, J] is row pos[i] of L U
            rows = np.argsort(pos)
        self.L1 = L[:rank]
        self.pivot = rows[:rank]
        keep = np.argsort(rows[rank:])
        self.rest = rows[rank:][keep]
        self.M = sla.solve_triangular(
            self.L1, L[rank:].T, lower=True, unit_diagonal=True, trans="T"
        ).T[keep]
        w = sla.solve_triangular(self.U, c_f[self.columns], trans="T")
        self.v = sla.solve_triangular(
            self.L1, w, lower=True, unit_diagonal=True, trans="T"
        )

    def restore_x(self, r: np.ndarray) -> np.ndarray:
        """Free values U^{-1} L1^{-1} r on J and zero elsewhere."""
        x = np.zeros(self.size)
        x[self.columns] = sla.solve_triangular(
            self.U, sla.solve_triangular(self.L1, r, lower=True, unit_diagonal=True)
        )
        return x

    def restore_y(self, z: np.ndarray, t: float) -> np.ndarray:
        """Dual values of every row: z on the others, t v - M'z on the pivots."""
        y = np.empty(len(self.pivot) + len(self.rest))
        y[self.rest] = z
        y[self.pivot] = t * self.v - self.M.T @ z
        return y


# panel width of the blocked Householder QR
_QR_BLOCK = 32


class _CompactQR:
    """Householder QR of the scaled cone columns, kept in compact form.

    H = Q [R0; 0], with Q stored as reflectors in blocked (compact WY)
    form by LAPACK's dgeqrt: its recursive panels run at matrix-matrix
    speed on the tall H here, about twice as fast as dgeqrf.  When R0 is
    singular to working precision the constraints are linearly dependent
    (an ill-conditioned but regular H has a spread near 1/mu, far from the
    rank tolerance), and H'H is shifted by a small multiple of the
    identity: [R0; sqrt(shift) I] = Q' R is factored again and Q' folded
    into the products below.
    """

    def __init__(self, H: np.ndarray):
        rows, k = H.shape
        self.rows = rows
        self.top = min(rows, k)
        self.R = np.zeros((0, k))
        if self.top:
            qr, self.T, info = sla.lapack.dgeqrt(
                min(_QR_BLOCK, self.top), H, overwrite_a=1
            )
            if info != 0:
                raise np.linalg.LinAlgError("QR of the scaled constraints failed")
            # a wide H has only `top` reflectors
            self.V = qr[:, : self.top]
            self.R = np.triu(qr[: self.top])
        self.inner = None
        if self.top < k or _singular_triangle(self.R):
            scale = max(1.0, float(np.max(np.sum(self.R**2, axis=0), initial=0.0)))
            stacked = np.vstack([self.R, math.sqrt(1e-12 * scale) * np.eye(k)])
            inner, self.R = np.linalg.qr(stacked)
            self.inner = inner[: self.top]

    def _apply(self, trans: str, vec: np.ndarray) -> np.ndarray:
        out, info = sla.lapack.dgemqrt(self.V, self.T, vec.reshape(-1, 1), trans=trans)
        if info != 0:
            raise np.linalg.LinAlgError("applying the QR factor failed")
        return out[:, 0]

    def project(self, e: np.ndarray) -> np.ndarray:
        """Q1'e: coordinates of e along the columns of H."""
        z = self._apply("T", e)[: self.top] if self.top else np.zeros(0)
        return z if self.inner is None else self.inner.T @ z

    def lift(self, t: np.ndarray) -> np.ndarray:
        """Q1 t, with Q1 the orthonormal factor of H (of the shifted H)."""
        if self.inner is not None:
            t = self.inner @ t
        if not self.top:
            return np.zeros(self.rows)
        return self._apply("N", np.concatenate([t, np.zeros(self.rows - self.top)]))


class _State:
    """Iterate of the homogeneous embedding."""

    def __init__(self, cone: _Cone):
        self.X = [np.eye(p.size) for p in cone.psd]
        self.S = [np.eye(p.size) for p in cone.psd]
        self.y = np.zeros(cone.m)
        self.tau = 1.0
        self.kappa = 1.0

    def mu(self, cone: _Cone) -> float:
        total = self.tau * self.kappa
        for X, S in zip(self.X, self.S):
            total += float(np.sum(X * S))
        return total / (cone.nu + 1)


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def _nt_scaling(X: np.ndarray, S: np.ndarray):
    """Nesterov-Todd scaling point of a PSD block.

    With X = L_X L_X', S = L_S L_S' and the SVD L_S'L_X = U diag(lam) V',
    R = L_X V diag(lam)^{-1/2} satisfies R'SR = R^{-1}XR^{-T} = diag(lam),
    so W = RR' is the NT point (WSW = X) and lam are the square roots of
    the eigenvalues of XS.
    """
    L_X = np.linalg.cholesky(X)
    L_S = np.linalg.cholesky(S)
    _, lam, Vt = np.linalg.svd(L_S.T @ L_X)
    if not lam[-1] > 0:
        raise np.linalg.LinAlgError("singular scaling point")
    return (L_X @ Vt.T) / np.sqrt(lam), lam


def _scaled_step(root: np.ndarray, dZ: np.ndarray) -> float:
    """Largest a with diag(lam) + a*dZ PSD, given root = lam^{-1/2}."""
    low = np.linalg.eigvalsh(root[:, None] * dZ * root).min()
    if low >= -1e-16:
        return math.inf
    return 1.0 / (-low)


class _HsdSolver:
    def __init__(self, problem: SdpProblem, options: SolverOptions):
        self.problem = problem
        self.opts = options
        self.cone = _Cone(problem)
        self.state = _State(self.cone)
        self.mu_history: List[float] = []
        # scaled constraint matrix, refilled and factored in place each
        # iteration
        self.G = np.zeros((self.cone.scaled_size, self.cone.m), order="F")

    # -- residuals of the homogeneous model (scaled data) ----------------

    def _residuals(self, st: _State):
        cone = self.cone
        r_p = cone.b * st.tau - self._apply_A(st.X)
        r_d = [p.C * st.tau - S - p.combine(st.y) for p, S in zip(cone.psd, st.S)]
        ctx = self._ctx(st.X)
        r_g = st.kappa - float(cone.b @ st.y) + ctx
        return r_p, r_d, r_g, ctx

    def _apply_A(self, X) -> np.ndarray:
        out = np.zeros(self.cone.m)
        for p, Xb in zip(self.cone.psd, X):
            out += p.apply(Xb)
        return out

    def _ctx(self, X) -> float:
        return sum(float(np.sum(p.C * Xb)) for p, Xb in zip(self.cone.psd, X))

    # -- Newton machinery -------------------------------------------------
    #
    # The Nesterov-Todd direction is computed in scaled coordinates.  A PSD
    # block with scaling point R (R'SR = R^{-1}XR^{-T} = Lam, diagonal) maps
    # a step dX to R^{-1}dX R^{-T}, a dual step dS to R'dS R and a
    # constraint matrix A_i to R'A_iR; all three are symmetric and are
    # stored as svec vectors, so <A_i, dX> is a dot product over
    # n(n+1)/2 entries.  The Jordan-symmetrized complementarity
    # Lam o (dX~ + dS~) = Rc is diagonal in these coordinates.  The 1x1
    # block of a nonnegative coordinate has R^2 = x/s and Lam = sqrt(xs),
    # so its scaled column is A_i sqrt(x/s) and its step bound x/(-dx).
    # The free blocks are solved out of the data at set-up, so with G the
    # stacked scaled constraints the Newton equations become the
    # least-squares system
    #     xh - G dy = e,    G'xh = h,
    # which is solved through an orthogonal factorization of G: its
    # condition number is that of G (about 1/mu), not of G'G (1/mu^2).

    def _factorize(self, st: _State):
        """Scaled constraint data and its orthogonal factorization."""
        cone = self.cone
        G = self.G
        c_hat = np.zeros(cone.scaled_size)
        blocks = []
        offset = 0
        for p, X, S in zip(cone.psd, st.X, st.S):
            R, lam = _nt_scaling(X, S)
            rows = G[offset : offset + p.dim]
            if len(p.rows) < cone.m:
                rows[:] = 0.0
            for cons, part in p.scaled_columns(R):
                rows[:, cons] = part.T
            c_hat[offset : offset + p.dim] = p.svec(R.T @ p.C @ R)
            blocks.append((R, lam))
            offset += p.dim
        fact = {"blocks": blocks, "qr": _CompactQR(G), "c_hat": c_hat}
        # The tau column of the elimination does not depend on the residuals.
        # Its pivot kappa/tau + (b - u)'K^{-1}(b + u) + c'Pc equals
        # kappa/tau + ||xh_tau||^2, where xh_tau is the scaled primal step
        # of the column: a sum of squares, with no cancellation to clamp.
        tau_col = self._solve(fact, -c_hat, cone.b)
        pivot = st.kappa / st.tau + float(tau_col[0] @ tau_col[0])
        if not (pivot > 0 and math.isfinite(pivot)):
            raise np.linalg.LinAlgError("singular tau pivot")
        fact["tau_col"] = tau_col
        fact["tau_pivot"] = pivot
        return fact

    def _solve(self, fact, e: np.ndarray, h: np.ndarray):
        """Solve xh - G dy = e, G'xh = h."""
        qr = fact["qr"]
        t = sla.solve_triangular(qr.R, h, trans="T") - qr.project(e)
        return e + qr.lift(t), sla.solve_triangular(qr.R, t)

    def _direction(self, st: _State, fact, resid, Rc, rc_tau):
        """Newton direction for the scaled complementarity targets.

        Rc holds, per block, the target of Lam o (dX~ + dS~) in the block's
        scaled coordinates.
        """
        cone = self.cone
        r_p, r_d, r_g, _ = resid

        # e = Lam o^{-1} Rc - R' r_d R, block by block
        e = []
        for p, (R, lam), Rc_b, rd in zip(cone.psd, fact["blocks"], Rc, r_d):
            jordan = 0.5 * (lam[:, None] + lam)
            e.append(p.svec(Rc_b / jordan - R.T @ rd @ R))
        e = np.concatenate(e) if e else np.zeros(0)
        xh, d_y = self._solve(fact, e, r_p)

        vx, vy = fact["tau_col"]
        numer = r_g + rc_tau / st.tau - float(cone.b @ d_y) + float(fact["c_hat"] @ xh)
        d_tau = numer / fact["tau_pivot"]
        xh = xh + d_tau * vx
        d_y = d_y + d_tau * vy

        d = {"X": [], "S": [], "Xt": [], "St": []}
        offset = 0
        for p, (R, _), rd in zip(cone.psd, fact["blocks"], r_d):
            dS = _sym(rd - p.combine(d_y) + p.C * d_tau)
            dXt = p.smat(xh[offset : offset + p.dim])
            d["S"].append(dS)
            d["St"].append(_sym(R.T @ dS @ R))
            d["Xt"].append(dXt)
            d["X"].append(_sym(R @ dXt @ R.T))
            offset += p.dim
        d["y"] = d_y
        d["tau"] = d_tau
        d["kappa"] = (rc_tau - st.kappa * d_tau) / st.tau
        return d

    def _newton_residuals(self, st: _State, fact, d, resid, Rc, rc_tau):
        """Residuals of the five Newton equations for a computed direction.

        All products here are well scaled (no S^{-1}), so these residuals
        expose the error introduced by the ill-conditioned elimination.
        """
        cone = self.cone
        r_p, r_d, r_g, _ = resid
        adx = self._apply_A(d["X"])
        rho1 = r_p - (adx - cone.b * d["tau"])
        rho2 = [
            rd - (p.combine(d["y"]) + dS - p.C * d["tau"])
            for p, rd, dS in zip(cone.psd, r_d, d["S"])
        ]
        cdx = self._ctx(d["X"])
        rho3 = r_g - (float(cone.b @ d["y"]) - cdx - d["kappa"])
        rho4 = [
            Rc_b - 0.5 * (lam[:, None] + lam) * (dXt + dSt)
            for Rc_b, (_, lam), dXt, dSt in zip(Rc, fact["blocks"], d["Xt"], d["St"])
        ]
        rho6 = rc_tau - (d["tau"] * st.kappa + st.tau * d["kappa"])
        return rho1, rho2, rho3, rho4, rho6

    def _direction_refined(self, st: _State, fact, resid, Rc, rc_tau):
        """Direction plus one refinement solve against its Newton residuals.

        dX comes from the scaled primal step and dS from dy, so rounding in
        the solve shows up in the linearized complementarity and primal
        rows; a correction pass through the same factorization removes it
        and lets the iteration certify 1e-8 residuals instead of stalling.
        """
        d = self._direction(st, fact, resid, Rc, rc_tau)
        r1, r2, r3, r4, r6 = self._newton_residuals(st, fact, d, resid, Rc, rc_tau)
        dc = self._direction(st, fact, (r1, r2, r3, 0.0), r4, r6)
        for key in ("X", "S", "Xt", "St"):
            d[key] = [a + b for a, b in zip(d[key], dc[key])]
        d["y"] = d["y"] + dc["y"]
        d["tau"] += dc["tau"]
        d["kappa"] += dc["kappa"]
        return d

    def _max_step(self, st: _State, fact, d) -> float:
        """Largest step keeping the iterate in the cone.

        A PSD block stays PSD while diag(lam) plus the step, both in the
        block's scaled coordinates, does.
        """
        alpha = math.inf
        for (_, lam), dXt, dSt in zip(fact["blocks"], d["Xt"], d["St"]):
            root = 1.0 / np.sqrt(lam)
            alpha = min(alpha, _scaled_step(root, dXt), _scaled_step(root, dSt))
        if d["tau"] < 0:
            alpha = min(alpha, -st.tau / d["tau"])
        if d["kappa"] < 0:
            alpha = min(alpha, -st.kappa / d["kappa"])
        return alpha

    def _apply_step(self, st: _State, d, alpha: float):
        for i in range(len(st.X)):
            st.X[i] = _sym(st.X[i] + alpha * d["X"][i])
            st.S[i] = _sym(st.S[i] + alpha * d["S"][i])
        st.y = st.y + alpha * d["y"]
        st.tau += alpha * d["tau"]
        st.kappa += alpha * d["kappa"]

    # -- termination -------------------------------------------------------

    def _convergence_metrics(self, st: _State, resid):
        cone = self.cone
        r_p, r_d, _, ctx = resid
        tau = st.tau
        # the pivot rows and the free block's dual rows hold exactly
        p_res = np.linalg.norm(cone.row_scale * r_p) / (tau * (1.0 + cone.b_norm))
        d_sq = sum(float(np.sum(r**2)) for r in r_d)
        d_res = math.sqrt(d_sq) / (tau * (1.0 + cone.c_norm))
        pobj = ctx / tau + cone.offset
        dobj = float(cone.b @ st.y) / tau + cone.offset
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        return p_res, d_res, gap, pobj, dobj

    def _certificates(self, st: _State, resid):
        """Check the two Farkas-ray conditions on the current iterate."""
        cone = self.cone
        r_p, r_d, _, ctx = resid
        bty = float(cone.b @ st.y)
        out = {}
        if bty > 0:
            # C*tau - r_d equals sum_i y_i A_i + S in the original data scale
            num_sq = 0.0
            for p, rd in zip(cone.psd, r_d):
                num_sq += float(np.sum((p.C * st.tau - rd) ** 2))
            out["primal"] = math.sqrt(num_sq) / bty
        if ctx < 0:
            ax = cone.row_scale * (cone.b * st.tau - r_p)
            out["dual"] = float(np.linalg.norm(ax)) / (-ctx)
        return out

    # -- main loop ----------------------------------------------------------

    @staticmethod
    def _snapshot(st: _State) -> _State:
        copy = _State.__new__(_State)
        copy.X = [np.array(X) for X in st.X]
        copy.S = [np.array(S) for S in st.S]
        copy.y = np.array(st.y)
        copy.tau = st.tau
        copy.kappa = st.kappa
        return copy

    def run(self) -> SdpSolution:
        st = self.state
        cone = self.cone
        opts = self.opts
        if cone.free_ray is not None:
            cert = cone.free_ray_residual
            return self._package(st, SdpStatus.DUAL_INFEASIBLE, 0, cert)
        status = SdpStatus.ITERATION_LIMIT
        iterations = 0
        cert_residual = math.nan
        best_state = self._snapshot(st)
        best_merit = math.inf

        for iterations in range(opts.max_iterations + 1):
            resid = self._residuals(st)
            mu = st.mu(cone)
            self.mu_history.append(mu)
            p_res, d_res, gap, pobj, dobj = self._convergence_metrics(st, resid)

            merit = max(p_res, d_res, gap)
            if math.isfinite(merit) and merit < best_merit:
                best_merit = merit
                best_state = self._snapshot(st)

            if p_res <= opts.feas_tol and d_res <= opts.feas_tol and gap <= opts.gap_tol:
                status = SdpStatus.OPTIMAL
                break

            certs = self._certificates(st, resid)
            gate = st.tau < 1e-4 * max(1.0, st.kappa)
            if gate and certs.get("primal", math.inf) <= opts.feas_tol:
                status = SdpStatus.PRIMAL_INFEASIBLE
                cert_residual = certs["primal"]
                break
            if gate and certs.get("dual", math.inf) <= opts.feas_tol:
                status = SdpStatus.DUAL_INFEASIBLE
                cert_residual = certs["dual"]
                break

            if iterations == opts.max_iterations:
                st = best_state
                break

            try:
                step, alpha = self._search_direction(st, resid, mu)
            except (np.linalg.LinAlgError, ValueError):
                status = SdpStatus.NUMERICAL_TROUBLE
                st = best_state
                break

            alpha = min(opts.step_fraction * alpha, 1.0)
            if not math.isfinite(alpha) or alpha <= 0:
                status = SdpStatus.NUMERICAL_TROUBLE
                st = best_state
                break
            self._apply_step(st, step, alpha)
            if not math.isfinite(st.mu(cone)):
                status = SdpStatus.NUMERICAL_TROUBLE
                st = best_state
                break

        return self._package(st, status, iterations, cert_residual)

    def _search_direction(self, st: _State, resid, mu: float):
        """Mehrotra predictor-corrector step from one factorization.

        Returns the direction and the largest step that keeps the iterate
        in the cone.  The complementarity targets of the PSD blocks are
        stated in the scaled coordinates, where the iterate is diag(lam).
        """
        fact = self._factorize(st)
        lams = [lam for _, lam in fact["blocks"]]
        # predictor: pure Newton step onto complementarity target 0
        Rc_aff = [np.diag(-(lam * lam)) for lam in lams]
        aff = self._direction_refined(st, fact, resid, Rc_aff, -(st.tau * st.kappa))
        alpha_aff = min(1.0, self._max_step(st, fact, aff))
        mu_aff = self._mu_after(st, aff, alpha_aff)
        sigma = min(max((mu_aff / mu) ** 3, 1e-8), 1.0 - 1e-8)

        Rc = [
            np.diag(sigma * mu - lam * lam) - _sym(dXt @ dSt)
            for lam, dXt, dSt in zip(lams, aff["Xt"], aff["St"])
        ]
        rc_t = sigma * mu - st.tau * st.kappa - aff["tau"] * aff["kappa"]
        d = self._direction_refined(st, fact, resid, Rc, rc_t)
        return d, self._max_step(st, fact, d)

    def _mu_after(self, st: _State, d, alpha: float) -> float:
        total = (st.tau + alpha * d["tau"]) * (st.kappa + alpha * d["kappa"])
        for X, S, dX, dS in zip(st.X, st.S, d["X"], d["S"]):
            total += float(np.sum((X + alpha * dX) * (S + alpha * dS)))
        return total / (self.cone.nu + 1)

    # -- assembling the public solution --------------------------------------

    def _collect_blocks(self, mats, scale: float) -> List[np.ndarray]:
        """Public block values of the cone matrices ``mats`` over ``scale``.

        The 1x1 blocks of a nonnegative block go back into one vector; the
        free blocks read zero.
        """
        out = [
            None if b.kind is BlockKind.PSD else np.zeros(b.size)
            for b in self.problem.blocks
        ]
        for p, mat in zip(self.cone.psd, mats):
            value = mat / scale
            if p.entry is None:
                out[p.index] = value
            else:
                out[p.index][p.entry] = value[0, 0]
        return out  # type: ignore[return-value]

    def _primal(self, X, scale: float, t: float, xf=None) -> List[np.ndarray]:
        """Public primal blocks: the cone blocks X over ``scale``, and the
        free values ``xf`` or else those the pivot rows fix with right side t*b.

        t is 1 at an optimum and 0 for a ray, whose pivot rows then read
        A_f x_f + A X = 0 exactly.
        """
        cone = self.cone
        out = self._collect_blocks(X, scale)
        if xf is None:
            rows = [self.problem.constraints[i].coeffs for i in cone.free.pivot]
            ax = [sum(float(np.sum(a * out[bi])) for bi, a in r.items()) for r in rows]
            ax = np.array(ax) / cone.norms[cone.free.pivot]
            xf = cone.free.restore_x(t * cone.b_pivot - ax)
        for bi, cols in cone.free_cols:
            out[bi] = xf[cols]
        return out

    def _package(
        self, st: _State, status: SdpStatus, iterations: int, cert_residual: float
    ) -> SdpSolution:
        """The public solution of a final state, over the original rows.

        The free values and the dual values of the pivot rows are restored
        here.  A PrimalInfeasible ray is scaled to b'y = 1 and a
        DualInfeasible ray to objective -1; their objective, gap and
        residual fields are NaN, as only ``certificate_residual`` measures
        a ray.
        """
        cone = self.cone
        primal = y = s = None
        p_res = d_res = gap = pobj = dobj = math.nan
        if status is SdpStatus.PRIMAL_INFEASIBLE:
            # y = (-M'z, z) / b'y, so that A_f'y = 0
            bty = float(cone.b @ st.y)
            y = cone.free.restore_y(st.y, 0.0) / cone.norms / bty
            s = self._collect_blocks(st.S, bty)
        elif status is SdpStatus.DUAL_INFEASIBLE:
            if cone.free_ray is None:
                primal = self._primal(st.X, -self._ctx(st.X), 0.0)
            else:  # found at set-up: the ray has no cone part
                primal = self._primal([0 * X for X in st.X], 1.0, 0.0, cone.free_ray)
        else:
            resid = self._residuals(st)
            p_res, d_res, gap, pobj, dobj = self._convergence_metrics(st, resid)
            tau = st.tau if st.tau > 0 else 1.0
            primal = self._primal(st.X, tau, 1.0)
            y = cone.free.restore_y(st.y, tau) / cone.norms / tau
            s = self._collect_blocks(st.S, tau)
        return SdpSolution(
            status=status,
            primal=primal,
            y=y,
            s=s,
            primal_objective=pobj,
            dual_objective=dobj,
            gap=gap,
            primal_residual=p_res,
            dual_residual=d_res,
            iterations=iterations,
            mu_history=self.mu_history,
            certificate_residual=cert_residual,
        )


def solve(problem: SdpProblem, options: Optional[SolverOptions] = None) -> SdpSolution:
    """Solve the block SDP; deterministic for identical inputs and options."""
    return _HsdSolver(problem, options or SolverOptions()).run()
