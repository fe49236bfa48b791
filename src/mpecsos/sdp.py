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
constraint matrix G.  The Newton system is solved through one upper
triangle U with U'U = G'G, and each solve is refined once against its own
residual: G'G's condition number grows like 1/mu^2, and the refinement
wins back the digits that squaring loses, so residuals reach 1e-10.  U is
the Cholesky factor of G'G; only an iteration whose Cholesky factor fails
takes U from a QR factorization of G.  Neither is shifted: dependent rows
are settled once, at the start point, where a small pivot of the Gram
matrix G'G flags them and the elimination of free variables decides them:
a Farkas ray ends the solve primal infeasible, else the rest are solved.

Constraint data are kept sparse, as coordinate triples (svec entries),
and every product with them goes through np.bincount: the Gram-form
programs built here touch under 1% of the entries of their dense blocks.
The per-iteration work is dense: the scaling points, the scaled constraint
matrix and its factorization.  Blocks of one size are stacked, so that
work is one batched numpy call per size, not one per block; a nonnegative
block of size n is one stack of n 1x1 blocks.
"""

from __future__ import annotations

import copy
import enum
import itertools
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


# iterations of the interior-point loop before it ends IterationLimit
MAX_ITERATIONS = 200
# share of the step to the cone boundary that an iteration takes
STEP_FRACTION = 0.98
# share of the tolerances above which the corrector's Newton residuals take a pass
CORRECTION_FRACTION = 0.1


@dataclass
class SolverOptions:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8

    def __post_init__(self):
        if not (0 < self.gap_tol < math.inf and 0 < self.feas_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")


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
                            lines.append(f"{index} {bi} {r} {c} {float(arr[r, c])!r}")
                else:
                    for r in np.nonzero(arr)[0]:
                        lines.append(f"{index} {bi} {r} 0 {float(arr[r])!r}")

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
    # why an IterationLimit or NumericalTrouble run stopped, else empty
    stall: str = ""


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


# entries of the scaled matrices formed at once: 128 KB chunks stay in
# cache through the product that forms them and the svec gather after it
_CHUNK = 1 << 14


def _psd_entries(size: int, keys: np.ndarray, coeffs, norms: np.ndarray):
    """(keys, then local row, j, k, value per entry) of the matrices coeffs[l]
    over norms[keys[l]], read in stacks of about _CHUNK entries."""
    width = max(1, _CHUNK // (size * size))
    parts = [(np.zeros(0, np.intp),) * 3 + (np.zeros(0),)]
    for lo in range(0, len(keys), width):
        rows = keys[lo : lo + width]
        stack = np.stack(coeffs[lo : lo + width]) / norms[rows, None, None]
        li, j, k = np.nonzero(stack)
        parts.append((li + lo, j, k, stack[li, j, k]))
    return (keys,) + tuple(np.concatenate(a) for a in zip(*parts))


class _PsdStack:
    """Constraint data of k PSD blocks of one size n, in svec coordinates.

    Matrices carry a leading member axis.  svec stacks the upper triangle
    row by row, off-diagonal entries times sqrt(2), so <A, X> =
    svec(A)'svec(X).  The svec entries of the A_i are triples (svec row
    j*dim + r of member j, row i, value); the entries of both triangles, in
    chunks, form R'A_iR.  Member j (by row count) is cone block ``order[j]``,
    owns ``rows[j]`` of the scaled constraint matrix and is public block
    ``index[j]`` (its coordinate ``entry[j]`` if nonnegative, else -1).
    """

    def __init__(self, members, order: np.ndarray, offsets: np.ndarray, m: int):
        # members[o] for o in order: (n, index, entry, C, (keys, local, j, k,
        # value)) for one size n, where an entry lies in row keys[local]
        rank = np.argsort([len(members[o][4][0]) for o in order], kind="stable")
        self.order = order[rank]
        self.offsets = offsets[self.order]
        chosen = [members[o] for o in self.order]
        sizes, self.index, self.entry, Cs, tables = zip(*chosen)
        n, k = sizes[0], len(rank)
        self.size, self.count, self.m = n, k, m
        self.iu = np.triu_indices(n)
        self.flat = self.iu[0] * n + self.iu[1]
        self.weight = np.where(self.iu[0] == self.iu[1], 1.0, math.sqrt(2.0))
        self.dim = dim = len(self.weight)
        self.rows = self.offsets[:, None] + np.arange(dim)
        self.C = np.array([np.zeros((n, n)) if C is None else C for C in Cs])

        counts = np.array([len(t[0]) for t in tables], dtype=np.intp)
        # member j's rows are cons[start[j]:start[j + 1]]
        self.cons = np.concatenate([t[0] for t in tables])
        self.start = start = np.concatenate([[0], np.cumsum(counts)])
        member = np.repeat(np.arange(k), [len(t[1]) for t in tables])
        local, js, ks, vals = (np.concatenate(a) for a in list(zip(*tables))[1:])
        pair = start[member] + local

        up = js <= ks
        pos = js[up] * n - js[up] * (js[up] - 1) // 2 + ks[up] - js[up]  # svec place
        self.svec_rows, self.cols = member[up] * dim + pos, self.cons[pair[up]]
        self.vals = vals[up] * self.weight[pos]
        self.bins = member[up] * m + self.cols  # (member, row) of an entry

        # A chunk holds rows lo..hi of members g..h-1, of one row count, so
        # a member's product with its R has the shape it has alone.  Per
        # entry: its row of the stacked R and where its multiple of that row
        # lands in the stack of (A_i R)' (see scaled_columns).
        width = max(1, _CHUNK // (n * n))
        self.chunks = []
        for c in np.unique(counts[counts > 0]):
            first, last = np.searchsorted(counts, [c, c + 1])
            per = max(1, width // c)
            for g, lo in itertools.product(range(first, last, per), range(0, c, width)):
                h, hi = min(g + per, last), min(lo + width, c)
                a, b = np.searchsorted(pair, [start[g] + lo, start[h - 1] + hi])
                slot = (member[a:b] - g) * (hi - lo) + local[a:b] - lo
                target = ((slot * n * n + js[a:b])[:, None] + n * np.arange(n)).ravel()
                source = member[a:b] * n + ks[a:b]
                self.chunks.append((g, h, lo, hi, source, vals[a:b], target))

    def svec(self, X: np.ndarray) -> np.ndarray:
        return X[..., self.iu[0], self.iu[1]] * self.weight

    def smat(self, v: np.ndarray) -> np.ndarray:
        out = np.empty(v.shape[:-1] + (self.size, self.size))
        half = v / self.weight
        out[..., self.iu[0], self.iu[1]] = half
        out[..., self.iu[1], self.iu[0]] = half
        return out

    def combine(self, y: np.ndarray) -> np.ndarray:
        """sum_i y_i A_i of every member, as dense matrices."""
        k, weights = self.count, self.vals * y[self.cols]
        v = np.bincount(self.svec_rows, weights=weights, minlength=k * self.dim)
        return self.smat(v.astype(float, copy=False).reshape(k, self.dim))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """The vectors of <A_i, X_j>, one row per member j."""
        weights = self.vals * self.svec(X).ravel()[self.svec_rows]
        v = np.bincount(self.bins, weights=weights, minlength=self.count * self.m)
        return v.astype(float, copy=False).reshape(self.count, self.m)

    def scaled_columns(self, R: np.ndarray):
        """Yield (member, rows, svec(R'A_iR) of those rows), chunk by chunk:
        the sparse products (A_i R)' summed into a dense stack, times R."""
        n = self.size
        for g, h, lo, hi, source, vals, target in self.chunks:
            shape = (h - g, hi - lo, n * n)
            weights = (vals[:, None] * R.reshape(-1, n)[source]).ravel()
            stack = np.bincount(target, weights=weights, minlength=math.prod(shape))
            stack = stack.astype(float, copy=False).reshape(h - g, -1, n)
            part = np.take((stack @ R[g:h]).reshape(shape), self.flat, axis=2)
            part *= self.weight
            for j in range(g, h):
                yield j, self.cons[self.start[j] + lo : self.start[j] + hi], part[j - g]


class _Cone:
    """Constraint data of the cone blocks, sparse, built once per problem.

    The cone blocks are PSD blocks, stacked by size (`_PsdStack`); a
    nonnegative block of size n is n blocks of size 1.  The free blocks are
    solved out of the data (`_FreeElimination`): the cone blocks see only
    the rows it leaves, with its objective and right side.  Each row is
    scaled to unit Frobenius norm as the blocks read it; a row that the
    elimination mixes with pivot rows is formed once, in the scale of the
    original row.  Sums over the blocks run in block order, whatever the
    stacks (`inner`, `apply`).
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
        ray = free.ray  # its residual is the norm of A_f d in the original scale
        self.free_ray_residual = (
            math.nan if ray is None else float(np.linalg.norm(norms * (A_f @ ray)))
        )

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
            """The rows left on block bi, ascending, and their coefficients;
            rows M leaves alone by reference."""
            rows = {k: constraints[i].coeffs.get(bi) for k, i in enumerate(free.rest)}
            for k in np.flatnonzero(mix.any(axis=1)):
                rows[k] = fold(rows[k], bi, mix[k])
            keys = np.flatnonzero([a is not None for a in rows.values()])
            return keys, [rows[k] for k in keys]

        self.m = len(free.rest)
        members = []  # (size, index, entry, C, entries) in block order
        for bi, block in enumerate(blocks):
            if block.kind is BlockKind.FREE:
                continue
            C = fold(problem.objective.get(bi), bi, free.v / norms[free.pivot])
            keys, coeffs = touching(bi)
            if block.kind is BlockKind.PSD:
                entries = _psd_entries(block.size, keys, coeffs, self.row_scale)
                members.append((block.size, bi, -1, C, entries))
                continue
            vec = np.stack(coeffs) if coeffs else np.zeros((0, block.size))
            js, at = np.nonzero(vec.T)
            split = np.searchsorted(js, np.arange(1, block.size))
            for j, rows in enumerate(np.split(at, split)):
                zero = np.zeros(len(rows), np.intp)
                value = vec[rows, j] / self.row_scale[keys[rows]]
                entries = (keys[rows], np.arange(len(rows)), zero, zero, value)
                Cj = None if C is None else C[j : j + 1, None]
                members.append((1, bi, j, Cj, entries))

        sizes = np.array([mem[0] for mem in members], dtype=np.intp)
        offsets = np.concatenate([[0], np.cumsum(sizes * (sizes + 1) // 2)])
        self.count, self.scaled_size = len(members), int(offsets[-1])
        self.stacks = [
            _PsdStack(members, np.flatnonzero(sizes == n), offsets, self.m)
            for n in dict.fromkeys(sizes.tolist())
        ]
        self.nu = sum(s.count * s.size for s in self.stacks)
        self.C = [s.C for s in self.stacks]
        # residuals are normalized by the original data
        self.c_norm = math.sqrt(
            sum(float(np.sum(c**2)) for c in problem.objective.values())
        )
        self.b_norm = float(np.linalg.norm(rhs))

    def inner(self, A, B, start: float = 0.0) -> float:
        """start + sum_b <A_b, B_b> over the cone blocks (A, B per stack)."""
        values = np.empty(self.count + 1)
        values[0] = start
        for s, a, b in zip(self.stacks, A, B):
            values[s.order + 1] = np.sum(a * b, axis=(1, 2))
        return float(np.cumsum(values)[-1])

    def apply(self, X) -> np.ndarray:
        """The vector of sum_b <A_ib, X_b> (X per stack)."""
        rows = np.zeros((self.count + 1, self.m))
        for s, Xs in zip(self.stacks, X):
            rows[s.order + 1] = s.apply(Xs)
        return np.cumsum(rows, axis=0)[-1]


class _FreeElimination:
    """The free block solved out of the constraint data, once per problem.

    J holds a maximal set of linearly independent free columns (a
    column-pivoted QR decides it), and A_f[:, J] = P [L1; L2] U.  The r
    pivot rows fix x_J = U^{-1} L1^{-1} (b_pivot - A_pivot X).  Put into
    the other rows and the objective, that leaves the cone blocks the rows
    A_rest - M A_pivot with right side b_rest - M b_pivot and the objective
    C - sum_l v_l A_pivot,l, plus the constant v'b_pivot, where
    M = L2 L1^{-1} and v = L1^{-T} U^{-T} c_J.  The free block's dual rows
    A_f'y = c_f then hold on J exactly with y_pivot = v - M'y_rest.  A free
    column N outside J is A_f[:, J] W with W = U^{-1} L1^{-1} A_f[pivot, N],
    so its dual row holds exactly when c_N = W'c_J; the variable only
    repeats a combination of the others and is left at zero.  Otherwise the
    dual is infeasible, and d_N = W'c_J - c_N, d_J = -W d_N is a primal ray
    (A_f d = 0, c_f'd = -|d_N|^2 < 0), kept in ``ray`` scaled to c_f'd = -1;
    the interior-point iteration could not find it, as it never moves x_N.
    When every free column is a unit vector on its own row, as in the
    Gram-form programs, M is zero, no column falls outside J and the other
    rows pass unchanged.  ``rest`` lists those rows in their original order.
    The same elimination, on the start point's scaled rows with b as their
    cost, settles dependent rows (`_HsdSolver._settle_rows`).
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
        outside = np.setdiff1d(np.arange(nf), self.columns)
        W = self._solve_lu(A_f[self.pivot][:, outside])
        d_out = W.T @ c_f[self.columns] - c_f[outside]
        self.ray = None
        if np.linalg.norm(d_out) > 1e-8 * max(1.0, float(np.linalg.norm(c_f))):
            ray = np.zeros(nf)
            ray[outside], ray[self.columns] = d_out, -W @ d_out
            self.ray = ray / -float(c_f @ ray)

    def _solve_lu(self, r: np.ndarray) -> np.ndarray:
        """U^{-1} L1^{-1} r."""
        return sla.solve_triangular(
            self.U, sla.solve_triangular(self.L1, r, lower=True, unit_diagonal=True)
        )

    def restore_x(self, r: np.ndarray) -> np.ndarray:
        """Free values U^{-1} L1^{-1} r on J and zero elsewhere."""
        x = np.zeros(self.size)
        x[self.columns] = self._solve_lu(r)
        return x

    def restore_y(self, z: np.ndarray, t: float) -> np.ndarray:
        """Dual values of every row: z on the others, t v - M'z on the pivots."""
        y = np.empty(len(self.pivot) + len(self.rest))
        y[self.rest] = z
        y[self.pivot] = t * self.v - self.M.T @ z
        return y


class _SchurFactor:
    """Upper triangle U with U'U = G'G, the Schur complement of the scaled
    columns, and the one solve of the Newton system through it.

    dsyrk forms G'G reading the Fortran-ordered G in place, at half the
    flops of a general product, and dpotrf factors it.  ``failed`` is set
    when dpotrf stops at a pivot that is not positive (G'G indefinite in
    rounding); U is then the QR's triangle R of G, unshifted.  A solve
    through U'U loses about log10 cond(G'G) digits, so each is refined once
    against G'xh = h (the corrected semi-normal equations, Bjorck 1987).
    """

    def __init__(self, G: np.ndarray):
        self.G = G
        M = sla.blas.dsyrk(1.0, G, trans=1) if G.shape[1] else np.zeros((0, 0))
        self.U, info = sla.lapack.dpotrf(M)
        self.failed = info != 0
        if self.failed:
            self.U = np.linalg.qr(G, mode="r")

    def solve(self, e: np.ndarray, h: np.ndarray):
        """(xh, dy) with xh - G dy = e and G'xh = h: dy = (G'G)^{-1}(h - G'e),
        then dy += (G'G)^{-1}(h - G'xh) and xh += G times that correction."""
        if not len(h):  # dpotrs rejects the 0x0 factor
            return e.copy(), np.zeros(0)
        dy, _ = sla.lapack.dpotrs(self.U, h - self.G.T @ e)
        xh = e + self.G @ dy
        ddy, _ = sla.lapack.dpotrs(self.U, h - self.G.T @ xh)
        return xh + self.G @ ddy, dy + ddy


class _State:
    """Iterate of the homogeneous embedding, one array per stack."""

    def __init__(self, cone: _Cone):
        self.X = [np.tile(np.eye(s.size), (s.count, 1, 1)) for s in cone.stacks]
        self.S = [np.tile(np.eye(s.size), (s.count, 1, 1)) for s in cone.stacks]
        self.y = np.zeros(cone.m)
        self.tau = self.kappa = 1.0

    def mu(self, cone: _Cone) -> float:
        return cone.inner(self.X, self.S, self.tau * self.kappa) / (cone.nu + 1)


def _t(mat: np.ndarray) -> np.ndarray:
    return np.swapaxes(mat, -1, -2)


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + _t(mat))


def _diag(v: np.ndarray) -> np.ndarray:
    """The diagonal matrices with the rows of v on their diagonals."""
    out = np.zeros(v.shape + v.shape[-1:])
    np.einsum("...ii->...i", out)[...] = v
    return out


def _nt_scaling(X: np.ndarray, S: np.ndarray):
    """Nesterov-Todd scaling points of a stack of PSD blocks.

    With X = L_X L_X', S = L_S L_S' and the SVD L_S'L_X = U diag(lam) V',
    R = L_X V diag(lam)^{-1/2} satisfies R'SR = R^{-1}XR^{-T} = diag(lam),
    so W = RR' is the NT point (WSW = X) and lam are the square roots of
    the eigenvalues of XS.
    """
    L_X, L_S = np.linalg.cholesky(X), np.linalg.cholesky(S)
    _, lam, Vt = np.linalg.svd(_t(L_S) @ L_X)
    if not np.all(lam[..., -1] > 0):
        raise np.linalg.LinAlgError("singular scaling point")
    return (L_X @ _t(Vt)) / np.sqrt(lam)[..., None, :], lam


class _HsdSolver:
    def __init__(self, problem: SdpProblem, options: SolverOptions):
        self.problem = problem
        self.opts = options
        self.cone = _Cone(problem)
        self.state = _State(self.cone)
        self.mu_history: List[float] = []
        # scaled constraint matrix, refilled in place each iteration; nothing
        # writes the entries of the rows a block misses, which stay zero
        self.G = np.zeros((self.cone.scaled_size, self.cone.m), order="F")

    # -- residuals of the homogeneous model (scaled data) ----------------

    def _residuals(self, st: _State):
        cone = self.cone
        r_p = cone.b * st.tau - cone.apply(st.X)
        r_d = [s.C * st.tau - S - s.combine(st.y) for s, S in zip(cone.stacks, st.S)]
        ctx = cone.inner(cone.C, st.X)
        r_g = st.kappa - float(cone.b @ st.y) + ctx
        return r_p, r_d, r_g, ctx

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
    # Each stack computes these for all its members at once and writes
    # their rows of G, c_hat and e at the members' offsets, in block order.
    # The free blocks are solved out of the data at set-up, so with G the
    # stacked scaled constraints the Newton equations become the
    # least-squares system
    #     xh - G dy = e,    G'xh = h.
    # Each iteration solves it through one triangle U with U'U = G'G
    # (`_SchurFactor`): the Cholesky factor, or the QR's triangle of an
    # iteration where that fails, never shifted: `_settle_rows` leaves
    # independent rows.

    def _factorize(self, st: _State):
        """Scaled constraint data and its factorization."""
        cone = self.cone
        G = self.G
        c_hat = np.empty(cone.scaled_size)
        blocks = []
        for s, X, S in zip(cone.stacks, st.X, st.S):
            R, lam = _nt_scaling(X, S)
            for j, cons, part in s.scaled_columns(R):
                G[s.offsets[j] : s.offsets[j] + s.dim, cons] = part.T
            c_hat[s.rows] = s.svec(_t(R) @ s.C @ R)
            blocks.append((R, lam, 0.5 * (lam[:, :, None] + lam[:, None, :])))
        return {"blocks": blocks, "factor": _SchurFactor(G), "c_hat": c_hat}

    def _scaled(self, fact, mats):
        """R' M R per stack, at the scaling points of ``fact``."""
        return [_t(R) @ M @ R for (R, _, _), M in zip(fact["blocks"], mats)]

    def _direction(self, st: _State, fact, rhs, Rc, rc_tau):
        """Newton direction for the scaled complementarity targets.

        rhs is (r_p, r_d, r_g, R' r_d R); Rc holds, per stack, the targets
        of Lam o (dX~ + dS~) in the members' scaled coordinates.
        """
        cone = self.cone
        r_p, r_d, r_g, rd_t = rhs

        # e = Lam o^{-1} Rc - R' r_d R, block by block
        e = np.empty(cone.scaled_size)
        for s, (_, _, jordan), Rc_s, rdt in zip(cone.stacks, fact["blocks"], Rc, rd_t):
            e[s.rows] = s.svec(Rc_s / jordan - rdt)
        xh, d_y = fact["factor"].solve(e, r_p)

        vx, vy = fact["tau_col"]
        numer = r_g + rc_tau / st.tau - float(cone.b @ d_y) + float(fact["c_hat"] @ xh)
        d_tau = numer / fact["tau_pivot"]
        xh = xh + d_tau * vx
        d_y = d_y + d_tau * vy

        d = {"X": [], "S": [], "Xt": [], "St": []}
        for s, (R, _, _), rd in zip(cone.stacks, fact["blocks"], r_d):
            dS = rd - s.combine(d_y) + s.C * d_tau
            dXt = s.smat(xh[s.rows])
            d["S"].append(dS)
            d["St"].append(_sym(_t(R) @ dS @ R))
            d["Xt"].append(dXt)
            d["X"].append(_sym(R @ dXt @ _t(R)))
        d.update(y=d_y, tau=d_tau, kappa=(rc_tau - st.kappa * d_tau) / st.tau)
        return d

    def _newton_residuals(self, st: _State, fact, d, rhs, Rc, rc_tau):
        """Residuals of the five Newton equations for a computed direction.

        All products here are well scaled (no S^{-1}), so these residuals
        expose the error introduced by the ill-conditioned elimination.
        """
        cone = self.cone
        r_p, r_d, r_g, _ = rhs
        rho1 = r_p - (cone.apply(d["X"]) - cone.b * d["tau"])
        rho2 = [
            rd - (s.combine(d["y"]) + dS - s.C * d["tau"])
            for s, rd, dS in zip(cone.stacks, r_d, d["S"])
        ]
        rho3 = r_g - (float(cone.b @ d["y"]) - cone.inner(cone.C, d["X"]) - d["kappa"])
        rho4 = [
            Rc_s - jordan * (dXt + dSt)
            for Rc_s, (*_, jordan), dXt, dSt in zip(Rc, fact["blocks"], d["Xt"], d["St"])
        ]
        rho6 = rc_tau - (d["tau"] * st.kappa + st.tau * d["kappa"])
        return rho1, rho2, rho3, rho4, rho6

    def _direction_refined(self, st: _State, fact, rhs, Rc, rc_tau, objectives):
        """Corrector direction, refined against its Newton residuals on demand.

        dX comes from the scaled primal step and dS from dy, so rounding in
        the solve shows up in the Newton residuals.  When the primal, dual
        or gap row among them exceeds CORRECTION_FRACTION of its stopping
        tolerance, in the stopping test's normalization at the iterate of
        objectives (pobj, dobj), a correction pass (one more solve through
        the factorization and one more direction) removes it.  Most
        iterations skip it; the order-4 moment relaxation of x^4 - x^2 on
        [-1, 1] at 1e-9 needs it, and without it ends NumericalTrouble.
        """
        d = self._direction(st, fact, rhs, Rc, rc_tau)
        r1, r2, r3, r4, r6 = self._newton_residuals(st, fact, d, rhs, Rc, rc_tau)
        rows = self._scaled_rows(st.tau, r1, r2, r3 / st.tau, objectives)
        tols = (self.opts.feas_tol, self.opts.feas_tol, self.opts.gap_tol)
        if all(r <= CORRECTION_FRACTION * t for r, t in zip(rows, tols)):
            return d
        dc = self._direction(st, fact, (r1, r2, r3, self._scaled(fact, r2)), r4, r6)
        for key in ("X", "S", "Xt", "St"):
            d[key] = [a + b for a, b in zip(d[key], dc[key])]
        d["y"] = d["y"] + dc["y"]
        d["tau"] += dc["tau"]
        d["kappa"] += dc["kappa"]
        return d

    def _max_step(self, st: _State, fact, d) -> float:
        """Largest step keeping the iterate in the cone: a block stays PSD
        while diag(lam) + a*dZ (scaled coordinates) does, for a up to -1 over
        the least eigenvalue of Lam^{-1/2} dZ Lam^{-1/2}, dZ = dX~ or dS~."""
        low = math.inf
        for (_, lam, _), dXt, dSt in zip(fact["blocks"], d["Xt"], d["St"]):
            root = 1.0 / np.sqrt(lam)
            scaled = [root[..., :, None] * dZ * root[..., None, :] for dZ in (dXt, dSt)]
            low = min(low, np.linalg.eigvalsh(np.concatenate(scaled)).min())
        alpha = math.inf if low >= -1e-16 else 1.0 / (-low)
        if d["tau"] < 0:
            alpha = min(alpha, -st.tau / d["tau"])
        if d["kappa"] < 0:
            alpha = min(alpha, -st.kappa / d["kappa"])
        return alpha

    def _apply_step(self, st: _State, d, alpha: float):
        # new lists, so a shallow copy of the state (the best iterate) stays
        st.X = [X + alpha * dX for X, dX in zip(st.X, d["X"])]
        st.S = [S + alpha * dS for S, dS in zip(st.S, d["S"])]
        st.y = st.y + alpha * d["y"]
        st.tau += alpha * d["tau"]
        st.kappa += alpha * d["kappa"]

    # -- termination -------------------------------------------------------

    def _scaled_rows(self, tau: float, r_p, r_d, diff: float, objectives):
        """r_p, r_d and the objective difference diff as the stopping test
        reads them at an iterate of scale tau and objectives (pobj, dobj)."""
        cone = self.cone
        pobj, dobj = objectives
        # the pivot rows and the free block's dual rows hold exactly
        p_res = np.linalg.norm(cone.row_scale * r_p) / (tau * (1.0 + cone.b_norm))
        d_res = math.sqrt(cone.inner(r_d, r_d)) / (tau * (1.0 + cone.c_norm))
        return p_res, d_res, abs(diff) / (1.0 + abs(pobj) + abs(dobj))

    def _convergence_metrics(self, st: _State, resid):
        cone = self.cone
        r_p, r_d, _, ctx = resid
        pobj = ctx / st.tau + cone.offset
        dobj = float(cone.b @ st.y) / st.tau + cone.offset
        rows = self._scaled_rows(st.tau, r_p, r_d, pobj - dobj, (pobj, dobj))
        return (*rows, pobj, dobj)

    def _certificates(self, st: _State, resid):
        """Check the two Farkas-ray conditions on the current iterate."""
        cone = self.cone
        r_p, r_d, _, ctx = resid
        bty = float(cone.b @ st.y)
        out = {}
        if bty > 0:
            # C*tau - r_d equals sum_i y_i A_i + S in the original data scale
            num = [C * st.tau - rd for C, rd in zip(cone.C, r_d)]
            out["primal"] = math.sqrt(cone.inner(num, num)) / bty
        if ctx < 0:
            ax = cone.row_scale * (cone.b * st.tau - r_p)
            out["dual"] = float(np.linalg.norm(ax)) / (-ctx)
        return out

    def _settle_rows(self, st: _State, U: np.ndarray):
        """The solution that dependent rows decide at the start, or None.

        At X = S = I, G'G is the well-scaled Gram matrix of the unit rows, so
        a wide start triangle U, or a squared pivot at most sqrt(eps) times
        the largest, flags the rows.  `_FreeElimination` of G's columns at
        cost b decides them: its ray gives y = -ray, Gy = 0 and b'y = 1, a
        Farkas ray with S = 0; else the rows it keeps are solved alone, and
        the others get y = 0.
        """
        pivots = np.diag(U) ** 2
        low, top = pivots.min(initial=math.inf), pivots.max(initial=0.0)
        if U.shape[0] >= U.shape[1] and low > math.sqrt(np.finfo(float).eps) * top:
            return None
        rows = _FreeElimination(self.G, self.cone.b)
        if rows.ray is not None:
            ray = copy.copy(st)
            ray.y, ray.tau, ray.S = -rows.ray, 0.0, [0 * S for S in st.S]
            cert = self._certificates(ray, self._residuals(ray))["primal"]
            return self._package(ray, SdpStatus.PRIMAL_INFEASIBLE, 0, cert)
        if len(rows.columns) == self.cone.m:
            return None
        free, problem = self.cone.free, self.problem
        kept = np.sort(np.concatenate([free.pivot, free.rest[rows.columns]]))
        kept_rows = [problem.constraints[i] for i in kept]
        sol = solve(SdpProblem(problem.blocks, problem.objective, kept_rows), self.opts)
        if sol.y is not None:
            y = np.zeros(problem.num_constraints)
            y[kept] = sol.y
            sol.y = y
        return sol

    # -- main loop ----------------------------------------------------------

    def run(self) -> SdpSolution:
        st = self.state
        cone = self.cone
        opts = self.opts
        if cone.free.ray is not None:
            cert = cone.free_ray_residual
            return self._package(st, SdpStatus.DUAL_INFEASIBLE, 0, cert)
        status = SdpStatus.ITERATION_LIMIT
        iterations = 0
        cert_residual = math.nan
        stall = ""
        best_state = copy.copy(st)
        best_merit = math.inf

        for iterations in range(MAX_ITERATIONS + 1):
            resid = self._residuals(st)
            mu = st.mu(cone)
            self.mu_history.append(mu)
            p_res, d_res, gap, pobj, dobj = self._convergence_metrics(st, resid)

            merit = max(p_res, d_res, gap)
            if math.isfinite(merit) and merit < best_merit:
                best_merit = merit
                best_state = copy.copy(st)

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

            if iterations == MAX_ITERATIONS:
                stall = "iteration limit"
                st = best_state
                break

            try:
                fact = self._factorize(st)
                settled = None if iterations else self._settle_rows(st, fact["factor"].U)
                if settled is not None:
                    return settled
                step, alpha = self._search_direction(st, fact, resid, mu, (pobj, dobj))
                alpha = min(STEP_FRACTION * alpha, 1.0)
                if not math.isfinite(alpha) or alpha <= 0:
                    raise np.linalg.LinAlgError("no step inside the cone")
                self._apply_step(st, step, alpha)
                if not math.isfinite(st.mu(cone)):
                    raise np.linalg.LinAlgError("iterate not finite")
            except (np.linalg.LinAlgError, ValueError) as exc:
                status = SdpStatus.NUMERICAL_TROUBLE
                stall = str(exc)
                st = best_state
                break

        return self._package(st, status, iterations, cert_residual, stall)

    def _search_direction(self, st: _State, fact, resid, mu: float, objectives):
        """Mehrotra predictor-corrector step from the factorization ``fact``.

        Returns the direction and the largest step that keeps the iterate
        in the cone.  The complementarity targets of the PSD blocks are
        stated in the scaled coordinates, where the iterate is diag(lam).
        The predictor only sets sigma and the corrector's second-order term,
        so it is solved once (Mehrotra 1992): three solves through the factor
        (tau column, predictor, corrector), and a fourth in an iteration whose
        corrector takes its correction pass.
        """
        # The tau column of the elimination does not depend on the residuals.
        # Its pivot kappa/tau + (b - u)'K^{-1}(b + u) + c'Pc equals
        # kappa/tau + ||xh_tau||^2, where xh_tau is the scaled primal step
        # of the column: a sum of squares, with no cancellation to clamp.
        tau_col = fact["factor"].solve(-fact["c_hat"], self.cone.b)
        pivot = st.kappa / st.tau + float(tau_col[0] @ tau_col[0])
        if not (pivot > 0 and math.isfinite(pivot)):
            raise np.linalg.LinAlgError("singular tau pivot")
        fact.update(tau_col=tau_col, tau_pivot=pivot)
        lams = [lam for _, lam, _ in fact["blocks"]]
        r_p, r_d, r_g, _ = resid
        rhs = (r_p, r_d, r_g, self._scaled(fact, r_d))
        # predictor: pure Newton step onto complementarity target 0
        Rc_aff = [_diag(-(lam * lam)) for lam in lams]
        aff = self._direction(st, fact, rhs, Rc_aff, -(st.tau * st.kappa))
        alpha_aff = min(1.0, self._max_step(st, fact, aff))
        mu_aff = self._mu_after(st, aff, alpha_aff)
        sigma = min(max((mu_aff / mu) ** 3, 1e-8), 1.0 - 1e-8)

        Rc = [
            _diag(sigma * mu - lam * lam) - _sym(dXt @ dSt)
            for lam, dXt, dSt in zip(lams, aff["Xt"], aff["St"])
        ]
        rc_t = sigma * mu - st.tau * st.kappa - aff["tau"] * aff["kappa"]
        d = self._direction_refined(st, fact, rhs, Rc, rc_t, objectives)
        return d, self._max_step(st, fact, d)

    def _mu_after(self, st: _State, d, alpha: float) -> float:
        start = (st.tau + alpha * d["tau"]) * (st.kappa + alpha * d["kappa"])
        X = [X + alpha * dX for X, dX in zip(st.X, d["X"])]
        S = [S + alpha * dS for S, dS in zip(st.S, d["S"])]
        return self.cone.inner(X, S, start) / (self.cone.nu + 1)

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
        for s, mat in zip(self.cone.stacks, mats):
            value = mat / scale
            for j, (bi, entry) in enumerate(zip(s.index, s.entry)):
                if entry < 0:
                    out[bi] = value[j]
                else:
                    out[bi][entry] = value[j, 0, 0]
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
        self,
        st: _State,
        status: SdpStatus,
        iterations: int,
        cert_residual: float,
        stall: str = "",
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
            if cone.free.ray is None:
                primal = self._primal(st.X, -cone.inner(cone.C, st.X), 0.0)
            else:  # found at set-up: the ray has no cone part
                primal = self._primal([0 * X for X in st.X], 1.0, 0.0, cone.free.ray)
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
            stall=stall,
        )


def solve(problem: SdpProblem, options: Optional[SolverOptions] = None) -> SdpSolution:
    """Solve the block SDP; deterministic for identical inputs and options."""
    return _HsdSolver(problem, options or SolverOptions()).run()
