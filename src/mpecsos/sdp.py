"""Primal-dual interior-point solver for block semidefinite programs.

Problems are stated in equality-standard form over a product cone of
dense PSD blocks, nonnegative vectors and free (unconstrained) vectors:

    minimize    sum_B <C_B, X_B>
    subject to  sum_B <A_iB, X_B> = b_i,   i = 1..m,
                X_B in K_B.

The solver runs the homogeneous self-dual embedding with Nesterov-Todd
search directions and a Mehrotra predictor-corrector, so a run ends either
at an optimal primal-dual pair or at a certificate of primal or dual
infeasibility (the Farkas ray needed to prove a relaxation empty).  Free
variables are kept in the Newton system as an unrestricted block rather
than split into differences of nonnegative parts: an elimination computed
once per problem (an LU factorization of the free columns) separates them
from the cone blocks.

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
            self.constraints.append(SdpConstraint(coeffs, float(con.rhs)))

    def _check_coeff(self, block_index: int, coeff, where: str) -> np.ndarray:
        if not 0 <= block_index < len(self.blocks):
            raise ValueError(f"{where}: no block {block_index}")
        block = self.blocks[block_index]
        arr = np.asarray(coeff, dtype=float)
        if block.kind is BlockKind.PSD:
            if arr.shape != (block.size, block.size):
                raise ValueError(f"{where}: expected {block.size}x{block.size} matrix")
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

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        return out


# entries of the scaled matrices formed at once: 128 KB chunks stay in
# cache through the product that forms them and the svec gather after it
_CHUNK = 1 << 14


class _PsdBlock:
    """Constraint data of one PSD block in svec coordinates.

    svec stacks the upper triangle row by row with the off-diagonal entries
    scaled by sqrt(2), so <A, X> = svec(A)'svec(X).  Column i of ``A`` is
    svec(A_i) for the (row-scaled) constraint matrix A_i.  The coordinate
    list of the A_i with both triangles is kept as well, in chunks of
    constraints, for forming the scaled matrices R'A_iR.
    """

    def __init__(self, index: int, size: int, coeffs, norms, m: int, C):
        self.index = index
        self.size = size
        self.iu = np.triu_indices(size)
        self.flat = self.iu[0] * size + self.iu[1]
        self.weight = np.where(self.iu[0] == self.iu[1], 1.0, math.sqrt(2.0))
        self.dim = len(self.weight)
        self.C = np.zeros((size, size)) if C is None else np.array(C)
        self.rows = np.array(sorted(coeffs), dtype=np.intp)

        # entries (local constraint, j, k, value), ordered by constraint
        empty = np.zeros(0, np.intp)
        local, js, ks, vals = [empty], [empty], [empty], [np.zeros(0)]
        for li, i in enumerate(self.rows):
            mat = coeffs[i] / norms[i]
            j, k = np.nonzero(mat)
            local.append(np.full(len(j), li))
            js.append(j)
            ks.append(k)
            vals.append(mat[j, k])
        local, js, ks, vals = (np.concatenate(a) for a in (local, js, ks, vals))

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
        width = max(1, _CHUNK // (size * size))
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
    """Per-block constraint data, sparse, built once per problem.

    PSD blocks keep their constraint matrices in svec form (`_PsdBlock`);
    nonnegative and free blocks keep one sparse column per constraint.
    Rows are prescaled to unit Frobenius norm.
    """

    def __init__(self, problem: SdpProblem):
        blocks = problem.blocks
        m = problem.num_constraints

        norms = np.zeros(m)
        for i, con in enumerate(problem.constraints):
            norms[i] = math.sqrt(
                sum(float(np.sum(cf**2)) for cf in con.coeffs.values())
            )
        norms = np.where(norms > 1e-12, norms, 1.0)
        self.row_scale = norms
        self.b = problem.rhs() / norms
        self.b_unscaled = problem.rhs()

        def touching(bi):
            return {
                i: con.coeffs[bi]
                for i, con in enumerate(problem.constraints)
                if bi in con.coeffs
            }

        def vector_block(bis):
            """Sparse data and objective of vector blocks laid end to end."""
            empty = np.zeros(0, np.intp)
            rows, cols, vals, c = [empty], [empty], [np.zeros(0)], [np.zeros(0)]
            offset = 0
            for bi in bis:
                for i, coeff in touching(bi).items():
                    nz = np.flatnonzero(coeff)
                    rows.append(offset + nz)
                    cols.append(np.full(len(nz), i))
                    vals.append(coeff[nz] / norms[i])
                cobj = problem.objective.get(bi)
                c.append(np.zeros(blocks[bi].size) if cobj is None else np.array(cobj))
                offset += blocks[bi].size
            rows, cols, vals, c = (np.concatenate(a) for a in (rows, cols, vals, c))
            return _Coo(rows, cols, vals, (offset, m)), c

        self.psd: List[_PsdBlock] = []
        self.nn: List[dict] = []
        for bi, block in enumerate(blocks):
            if block.kind is BlockKind.PSD:
                cobj = problem.objective.get(bi)
                self.psd.append(
                    _PsdBlock(bi, block.size, touching(bi), norms, m, cobj)
                )
            elif block.kind is BlockKind.NONNEG:
                A, c = vector_block([bi])
                self.nn.append({"index": bi, "size": block.size, "A": A, "c": c})

        self.free_blocks = [
            bi for bi, b in enumerate(blocks) if b.kind is BlockKind.FREE
        ]
        self.free_sizes = [blocks[bi].size for bi in self.free_blocks]
        self.A_free, self.c_free = vector_block(self.free_blocks)
        self.num_free = self.A_free.shape[0]
        self.free_elim = None
        self.free_ray = None
        if self.num_free:
            A_f = self.A_free.dense().T
            self.free_elim = _FreeElimination(A_f)
            self.free_ray = _free_ray(A_f, self.c_free)
        self.column = (
            self.free_elim.pos if self.free_elim is not None else np.arange(m)
        )
        self.scaled_size = sum(p.dim for p in self.psd) + sum(
            n["size"] for n in self.nn
        )
        self.m = m
        self.nu = sum(p.size for p in self.psd) + sum(n["size"] for n in self.nn)
        self.c_norm = math.sqrt(
            sum(float(np.sum(p.C**2)) for p in self.psd)
            + sum(float(np.sum(n["c"] ** 2)) for n in self.nn)
            + float(np.sum(self.c_free**2))
        )
        self.b_norm = float(np.linalg.norm(self.b_unscaled))


def _free_ray(A_f: np.ndarray, c_f: np.ndarray) -> Optional[np.ndarray]:
    """A free direction d with A_f d = 0 and c_f'd < 0, if one exists.

    The free block's dual rows A_f'y = c_f carry no slack, so the dual is
    infeasible exactly when c_f leaves the row space of A_f; minus the
    component of c_f orthogonal to it is then a ray of the primal.  The
    interior-point iteration cannot find this ray itself: the elimination
    gives a free column outside the independent set a zero step.
    """
    m, nf = A_f.shape
    z = np.linalg.lstsq(A_f.T, c_f, rcond=max(m, nf) * np.finfo(float).eps)[0]
    ray = A_f.T @ z - c_f
    size = float(np.linalg.norm(ray))
    if not size > 1e-8 * max(1.0, float(np.linalg.norm(c_f))):
        return None
    if np.linalg.norm(A_f @ ray) > 1e-12 * size:
        return None
    return ray


def _singular_triangle(R: np.ndarray) -> bool:
    """True when a triangular factor is singular to working precision."""
    diag = np.abs(np.diag(R))
    if not diag.size:
        return False
    return not diag.min() > max(R.shape) * np.finfo(float).eps * diag.max()


class _FreeElimination:
    """Elimination of the free block through A_f[:, J] = P L U.

    J holds a maximal set of linearly independent free columns (a
    column-pivoted QR decides it once per problem).  A free variable
    outside J only repeats a combination of the others, so its step is
    left at zero: the constraints cannot tell it apart from them.  P
    permutes the constraint rows into pivot order and L = [L1; L2] is unit
    lower trapezoidal.  With y_p the dual step in pivot order, the
    substitution y_p = [L1^{-T}(z1 - L2'z2); z2] turns A_f[:, J]'dy = g
    into U'z1 = g, and the rows z2 are left to the cone blocks.
    """

    def __init__(self, A_free: np.ndarray):
        m, nf = A_free.shape
        _, R, order = sla.qr(A_free, mode="economic", pivoting=True)
        diag = np.abs(np.diag(R))
        tol = max(m, nf) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
        self.size = nf
        self.columns = np.sort(order[: int(np.sum(diag > tol))])
        rank = len(self.columns)
        if rank:
            # pos[i] is the pivot-order position of constraint row i
            self.pos, L, self.U = sla.lu(A_free[:, self.columns], p_indices=True)
        else:
            self.pos, L, self.U = np.arange(m), np.zeros((m, 0)), np.zeros((0, 0))
        self.L1, self.L2 = L[:rank], L[rank:]

    def split(self, G: np.ndarray):
        """Columns of G @ T for the two parts, given G in pivot order.

        G must be Fortran-ordered; both parts are computed in its storage.
        """
        rank = len(self.columns)
        G1 = G[:, :rank]
        if rank:
            # G1 := G1 L1^{-T}, a right-hand triangular solve in place
            G1 = sla.blas.dtrsm(
                1.0, self.L1, G1, side=1, lower=1, trans_a=1, diag=1, overwrite_b=1
            )
        H = G[:, rank:]
        if self.L2.any():
            H -= G1 @ self.L2.T
        return G1, H

    def rhs(self, h: np.ndarray):
        """T'h, split into the free part and the cone part."""
        rank = len(self.columns)
        hp = np.empty_like(h)
        hp[self.pos] = h
        h1 = sla.solve_triangular(self.L1, hp[:rank], lower=True, unit_diagonal=True)
        return h1, hp[rank:] - self.L2 @ h1

    def expand(self, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
        """dy = T [z1; z2] in the original row order."""
        y1 = sla.solve_triangular(
            self.L1, z1 - self.L2.T @ z2, lower=True, unit_diagonal=True, trans="T"
        )
        return np.concatenate([y1, z2])[self.pos]

    def place(self, dxf: np.ndarray) -> np.ndarray:
        """Free-block step with zeros outside the independent columns."""
        out = np.zeros(self.size)
        out[self.columns] = dxf
        return out


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
        self.xn = [np.ones(n["size"]) for n in cone.nn]
        self.sn = [np.ones(n["size"]) for n in cone.nn]
        self.xf = np.zeros(cone.num_free)
        self.y = np.zeros(cone.m)
        self.tau = 1.0
        self.kappa = 1.0

    def mu(self, cone: _Cone) -> float:
        total = self.tau * self.kappa
        for X, S in zip(self.X, self.S):
            total += float(np.sum(X * S))
        for x, s in zip(self.xn, self.sn):
            total += float(x @ s)
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


def _vector_step(x: np.ndarray, dx: np.ndarray) -> float:
    mask = dx < 0
    if not mask.any():
        return math.inf
    return float(np.min(-x[mask] / dx[mask]))


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
        r_p = cone.b * st.tau - self._apply_A(st.X, st.xn, st.xf)
        r_d_psd = [
            p.C * st.tau - S - p.combine(st.y) for p, S in zip(cone.psd, st.S)
        ]
        r_d_nn = [
            n["c"] * st.tau - s - n["A"].dot(st.y) for n, s in zip(cone.nn, st.sn)
        ]
        r_d_free = cone.c_free * st.tau - cone.A_free.dot(st.y)
        ctx = self._ctx(st.X, st.xn, st.xf)
        bty = float(cone.b @ st.y)
        r_g = st.kappa - bty + ctx
        return r_p, r_d_psd, r_d_nn, r_d_free, r_g, ctx, bty

    def _apply_A(self, X, xn, xf) -> np.ndarray:
        cone = self.cone
        out = cone.A_free.tdot(xf)
        for p, Xb in zip(cone.psd, X):
            out += p.apply(Xb)
        for n, x in zip(cone.nn, xn):
            out += n["A"].tdot(x)
        return out

    def _ctx(self, X, xn, xf) -> float:
        cone = self.cone
        total = float(cone.c_free @ xf)
        for p, Xb in zip(cone.psd, X):
            total += float(np.sum(p.C * Xb))
        for n, x in zip(cone.nn, xn):
            total += float(n["c"] @ x)
        return total

    # -- Newton machinery -------------------------------------------------
    #
    # The Nesterov-Todd direction is computed in scaled coordinates.  A PSD
    # block with scaling point R (R'SR = R^{-1}XR^{-T} = Lam, diagonal) maps
    # a step dX to R^{-1}dX R^{-T}, a dual step dS to R'dS R and a
    # constraint matrix A_i to R'A_iR; all three are symmetric and are
    # stored as svec vectors, so <A_i, dX> is a dot product over
    # n(n+1)/2 entries.  The Jordan-symmetrized complementarity
    # Lam o (dX~ + dS~) = Rc is diagonal in these coordinates.  A
    # nonnegative block scales by sqrt(x/s).  With G the stacked scaled
    # constraints, the Newton equations become the least-squares system
    #     xh - G dy = e,    G'xh + A_f dxf = h,    A_f'dy = g,
    # which is solved through an orthogonal factorization of G: its
    # condition number is that of G (about 1/mu), not of G'G (1/mu^2).

    def _factorize(self, st: _State):
        """Scaled constraint data and its orthogonal factorization."""
        cone = self.cone
        col = cone.column
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
                rows[:, col[cons]] = part.T
            c_hat[offset : offset + p.dim] = p.svec(R.T @ p.C @ R)
            blocks.append((R, lam))
            offset += p.dim
        for n, x, s in zip(cone.nn, st.xn, st.sn):
            root = np.sqrt(x / s)
            A = n["A"]
            rows = G[offset : offset + n["size"]]
            rows[:] = 0.0
            rows[A.rows, col[A.cols]] = A.vals * root[A.rows]
            c_hat[offset : offset + n["size"]] = root * n["c"]
            blocks.append(root)
            offset += n["size"]
        free = cone.free_elim
        if free is not None:
            G1, H = free.split(G)
        else:
            G1, H = None, G
        fact = {"blocks": blocks, "G1": G1, "qr": _CompactQR(H), "c_hat": c_hat}
        # The tau column of the elimination does not depend on the residuals.
        # Its pivot kappa/tau + (b - u)'K^{-1}(b + u) + c'Pc equals
        # kappa/tau + ||xh_tau||^2, where xh_tau is the scaled primal step
        # of the column: a sum of squares, with no cancellation to clamp.
        tau_col = self._solve(fact, -c_hat, cone.b, cone.c_free)
        pivot = st.kappa / st.tau + float(tau_col[0] @ tau_col[0])
        if not (pivot > 0 and math.isfinite(pivot)):
            raise np.linalg.LinAlgError("singular tau pivot")
        fact["tau_col"] = tau_col
        fact["tau_pivot"] = pivot
        return fact

    def _solve(self, fact, e: np.ndarray, h: np.ndarray, g: np.ndarray):
        """Solve xh - G dy = e, G'xh + A_f dxf = h, A_f'dy = g."""
        free = self.cone.free_elim
        qr, G1 = fact["qr"], fact["G1"]
        if free is not None:
            h1, h2 = free.rhs(h)
            z1 = sla.solve_triangular(free.U, g[free.columns], trans="T")
            e = e + G1 @ z1
        else:
            h2 = h
        t = sla.solve_triangular(qr.R, h2, trans="T") - qr.project(e)
        xh = e + qr.lift(t)
        z2 = sla.solve_triangular(qr.R, t)
        if free is None:
            return xh, z2, np.zeros(0)
        dxf = sla.solve_triangular(free.U, h1 - G1.T @ xh)
        return xh, free.expand(z1, z2), free.place(dxf)

    def _direction(self, st: _State, fact, resid, Rc_psd, rc_nn, rc_tau):
        """Newton direction for the scaled complementarity targets.

        Rc_psd holds, per PSD block, the target of Lam o (dX~ + dS~) in the
        block's scaled coordinates; rc_nn the targets of s dx + x ds.
        """
        cone = self.cone
        r_p, r_d_psd, r_d_nn, r_d_free, r_g, _, _ = resid
        npsd = len(cone.psd)

        # e = Lam o^{-1} Rc - R' r_d R, block by block
        e = []
        for p, (R, lam), Rc, rd in zip(cone.psd, fact["blocks"], Rc_psd, r_d_psd):
            jordan = 0.5 * (lam[:, None] + lam)
            e.append(p.svec(Rc / jordan - R.T @ rd @ R))
        for root, x, s, rc, rd in zip(
            fact["blocks"][npsd:], st.xn, st.sn, rc_nn, r_d_nn
        ):
            e.append(rc / np.sqrt(x * s) - root * rd)
        e = np.concatenate(e) if e else np.zeros(0)
        xh, d_y, d_xf = self._solve(fact, e, r_p, r_d_free)

        vx, vy, vf = fact["tau_col"]
        numer = (
            r_g
            + rc_tau / st.tau
            - float(cone.b @ d_y)
            + float(fact["c_hat"] @ xh)
            + float(cone.c_free @ d_xf)
        )
        d_tau = numer / fact["tau_pivot"]
        xh = xh + d_tau * vx
        d_y = d_y + d_tau * vy
        d_xf = d_xf + d_tau * vf

        d = {"X": [], "S": [], "Xt": [], "St": [], "xn": [], "sn": []}
        offset = 0
        for p, (R, _), rd in zip(cone.psd, fact["blocks"], r_d_psd):
            dS = _sym(rd - p.combine(d_y) + p.C * d_tau)
            dXt = p.smat(xh[offset : offset + p.dim])
            d["S"].append(dS)
            d["St"].append(_sym(R.T @ dS @ R))
            d["Xt"].append(dXt)
            d["X"].append(_sym(R @ dXt @ R.T))
            offset += p.dim
        for n, root, rd in zip(cone.nn, fact["blocks"][npsd:], r_d_nn):
            d["sn"].append(rd - n["A"].dot(d_y) + n["c"] * d_tau)
            d["xn"].append(root * xh[offset : offset + n["size"]])
            offset += n["size"]
        d["xf"] = d_xf
        d["y"] = d_y
        d["tau"] = d_tau
        d["kappa"] = (rc_tau - st.kappa * d_tau) / st.tau
        return d

    def _newton_residuals(self, st: _State, fact, d, resid, Rc_psd, rc_nn, rc_tau):
        """Residuals of the six Newton equations for a computed direction.

        All products here are well scaled (no S^{-1}), so these residuals
        expose the error introduced by the ill-conditioned elimination.
        """
        cone = self.cone
        r_p, r_d_psd, r_d_nn, r_d_free, r_g, _, _ = resid
        adx = self._apply_A(d["X"], d["xn"], d["xf"])
        rho1 = r_p - (adx - cone.b * d["tau"])
        rho2_psd = [
            rd - (p.combine(d["y"]) + dS - p.C * d["tau"])
            for p, rd, dS in zip(cone.psd, r_d_psd, d["S"])
        ]
        rho2_nn = [
            rd - (n["A"].dot(d["y"]) + ds - n["c"] * d["tau"])
            for n, rd, ds in zip(cone.nn, r_d_nn, d["sn"])
        ]
        rho2_free = r_d_free - (cone.A_free.dot(d["y"]) - cone.c_free * d["tau"])
        cdx = self._ctx(d["X"], d["xn"], d["xf"])
        rho3 = r_g - (float(cone.b @ d["y"]) - cdx - d["kappa"])
        rho4 = [
            Rc - 0.5 * (lam[:, None] + lam) * (dXt + dSt)
            for Rc, (_, lam), dXt, dSt in zip(Rc_psd, fact["blocks"], d["Xt"], d["St"])
        ]
        rho5 = [
            rc - (dx * s + x * ds)
            for rc, x, s, dx, ds in zip(rc_nn, st.xn, st.sn, d["xn"], d["sn"])
        ]
        rho6 = rc_tau - (d["tau"] * st.kappa + st.tau * d["kappa"])
        return rho1, rho2_psd, rho2_nn, rho2_free, rho3, rho4, rho5, rho6

    def _direction_refined(self, st: _State, fact, resid, Rc_psd, rc_nn, rc_tau):
        """Direction plus one refinement solve against its Newton residuals.

        dX comes from the scaled primal step and dS from dy, so rounding in
        the solve shows up in the linearized complementarity and primal
        rows; a correction pass through the same factorization removes it
        and lets the iteration certify 1e-8 residuals instead of stalling.
        """
        d = self._direction(st, fact, resid, Rc_psd, rc_nn, rc_tau)
        r1, r2p, r2n, r2f, r3, r4, r5, r6 = self._newton_residuals(
            st, fact, d, resid, Rc_psd, rc_nn, rc_tau
        )
        corr_resid = (r1, r2p, r2n, r2f, r3, 0.0, 0.0)
        dc = self._direction(st, fact, corr_resid, r4, r5, r6)
        for key in ("X", "S", "Xt", "St", "xn", "sn"):
            d[key] = [a + b for a, b in zip(d[key], dc[key])]
        d["xf"] = d["xf"] + dc["xf"]
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
        for x, dx in zip(st.xn, d["xn"]):
            alpha = min(alpha, _vector_step(x, dx))
        for s, ds in zip(st.sn, d["sn"]):
            alpha = min(alpha, _vector_step(s, ds))
        if d["tau"] < 0:
            alpha = min(alpha, -st.tau / d["tau"])
        if d["kappa"] < 0:
            alpha = min(alpha, -st.kappa / d["kappa"])
        return alpha

    def _apply_step(self, st: _State, d, alpha: float):
        for i in range(len(st.X)):
            st.X[i] = _sym(st.X[i] + alpha * d["X"][i])
            st.S[i] = _sym(st.S[i] + alpha * d["S"][i])
        for i in range(len(st.xn)):
            st.xn[i] = st.xn[i] + alpha * d["xn"][i]
            st.sn[i] = st.sn[i] + alpha * d["sn"][i]
        st.xf = st.xf + alpha * d["xf"]
        st.y = st.y + alpha * d["y"]
        st.tau += alpha * d["tau"]
        st.kappa += alpha * d["kappa"]

    # -- termination -------------------------------------------------------

    def _convergence_metrics(self, st: _State, resid):
        cone = self.cone
        r_p, r_d_psd, r_d_nn, r_d_free, _, ctx, bty = resid
        tau = st.tau
        p_res = np.linalg.norm(cone.row_scale * r_p) / (tau * (1.0 + cone.b_norm))
        d_sq = sum(float(np.sum(r**2)) for r in r_d_psd)
        d_sq += sum(float(np.sum(r**2)) for r in r_d_nn)
        d_sq += float(np.sum(r_d_free**2))
        d_res = math.sqrt(d_sq) / (tau * (1.0 + cone.c_norm))
        y_unscaled = st.y / cone.row_scale
        pobj = ctx / tau
        dobj = float(cone.b_unscaled @ y_unscaled) / tau
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        return p_res, d_res, gap, pobj, dobj

    def _certificates(self, st: _State, resid):
        """Check the two Farkas-ray conditions on the current iterate."""
        cone = self.cone
        r_p, r_d_psd, r_d_nn, r_d_free, _, ctx, bty_scaled = resid
        y_unscaled = st.y / cone.row_scale
        bty = float(cone.b_unscaled @ y_unscaled)
        out = {}
        if bty > 0:
            # C*tau - r_d equals sum_i y_i A_i + S in the original data scale
            num_sq = 0.0
            for p, rd in zip(cone.psd, r_d_psd):
                num_sq += float(np.sum((p.C * st.tau - rd) ** 2))
            for n, rd in zip(cone.nn, r_d_nn):
                num_sq += float(np.sum((n["c"] * st.tau - rd) ** 2))
            num_sq += float(np.sum((cone.c_free * st.tau - r_d_free) ** 2))
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
        copy.xn = [np.array(x) for x in st.xn]
        copy.sn = [np.array(s) for s in st.sn]
        copy.xf = np.array(st.xf)
        copy.y = np.array(st.y)
        copy.tau = st.tau
        copy.kappa = st.kappa
        return copy

    def run(self) -> SdpSolution:
        st = self.state
        cone = self.cone
        opts = self.opts
        if cone.free_ray is not None:
            return self._free_ray_solution()
        status = SdpStatus.ITERATION_LIMIT
        iterations = 0
        cert_residual = math.nan
        best_state = self._snapshot(st)
        best_merit = math.inf
        best_iteration = 0

        for iterations in range(opts.max_iterations + 1):
            resid = self._residuals(st)
            mu = st.mu(cone)
            self.mu_history.append(mu)
            p_res, d_res, gap, pobj, dobj = self._convergence_metrics(st, resid)

            merit = max(p_res, d_res, gap)
            if math.isfinite(merit) and merit < best_merit:
                best_merit = merit
                best_state = self._snapshot(st)
                best_iteration = iterations

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
            # float64 has nothing left once the merit stops moving; return
            # the best iterate rather than wandering off the central path
            if iterations - best_iteration >= 25 and not gate:
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
        lams = [lam for _, lam in fact["blocks"][: len(st.X)]]
        # predictor: pure Newton step onto complementarity target 0
        Rc_aff = [np.diag(-(lam * lam)) for lam in lams]
        rc_aff = [-(x * s) for x, s in zip(st.xn, st.sn)]
        aff = self._direction_refined(
            st, fact, resid, Rc_aff, rc_aff, -(st.tau * st.kappa)
        )
        alpha_aff = min(1.0, self._max_step(st, fact, aff))
        mu_aff = self._mu_after(st, aff, alpha_aff)
        sigma = min(max((mu_aff / mu) ** 3, 1e-8), 1.0 - 1e-8)

        Rc = [
            np.diag(sigma * mu - lam * lam) - _sym(dXt @ dSt)
            for lam, dXt, dSt in zip(lams, aff["Xt"], aff["St"])
        ]
        rc = [
            sigma * mu - x * s - dx * ds
            for x, s, dx, ds in zip(st.xn, st.sn, aff["xn"], aff["sn"])
        ]
        rc_t = sigma * mu - st.tau * st.kappa - aff["tau"] * aff["kappa"]
        d = self._direction_refined(st, fact, resid, Rc, rc, rc_t)
        return d, self._max_step(st, fact, d)

    def _mu_after(self, st: _State, d, alpha: float) -> float:
        total = (st.tau + alpha * d["tau"]) * (st.kappa + alpha * d["kappa"])
        for X, S, dX, dS in zip(st.X, st.S, d["X"], d["S"]):
            total += float(np.sum((X + alpha * dX) * (S + alpha * dS)))
        for x, s, dx, ds in zip(st.xn, st.sn, d["xn"], d["sn"]):
            total += float((x + alpha * dx) @ (s + alpha * ds))
        return total / (self.cone.nu + 1)

    # -- assembling the public solution --------------------------------------

    def _collect_blocks(self, st: _State, scale: float, dual: bool) -> List[np.ndarray]:
        cone = self.cone
        out: List[Optional[np.ndarray]] = [None] * len(self.problem.blocks)
        for p, X, S in zip(cone.psd, st.X, st.S):
            out[p.index] = (S if dual else X) / scale
        for n, x, s in zip(cone.nn, st.xn, st.sn):
            out[n["index"]] = (s if dual else x) / scale
        offset = 0
        for bi, size in zip(cone.free_blocks, cone.free_sizes):
            out[bi] = (
                np.zeros(size) if dual else st.xf[offset : offset + size] / scale
            )
            offset += size
        return out  # type: ignore[return-value]

    def _free_ray_solution(self) -> SdpSolution:
        """DualInfeasible with the free-block ray found at set-up.

        The ray is scaled to objective -1; every cone block is zero.
        """
        cone = self.cone
        ray = cone.free_ray / -float(cone.c_free @ cone.free_ray)
        st = _State(cone)
        st.X = [np.zeros_like(X) for X in st.X]
        st.xn = [np.zeros_like(x) for x in st.xn]
        st.xf = ray
        primal = self._collect_blocks(st, 1.0, dual=False)
        ax = cone.row_scale * cone.A_free.tdot(ray)
        return SdpSolution(
            status=SdpStatus.DUAL_INFEASIBLE,
            primal=primal,
            y=None,
            s=None,
            primal_objective=math.nan,
            dual_objective=math.nan,
            gap=math.nan,
            primal_residual=math.nan,
            dual_residual=math.nan,
            iterations=0,
            mu_history=self.mu_history,
            certificate_residual=float(np.linalg.norm(ax)),
        )

    def _package(
        self, st: _State, status: SdpStatus, iterations: int, cert_residual: float
    ) -> SdpSolution:
        cone = self.cone
        resid = self._residuals(st)
        p_res, d_res, gap, pobj, dobj = self._convergence_metrics(st, resid)
        y_unscaled = st.y / cone.row_scale

        if status is SdpStatus.PRIMAL_INFEASIBLE:
            # normalize so the ray objective b^T y equals one
            bty = float(cone.b_unscaled @ y_unscaled)
            ray_y = y_unscaled / bty
            ray_s = self._collect_blocks(st, bty, dual=True)
            return SdpSolution(
                status=status,
                primal=None,
                y=ray_y,
                s=ray_s,
                primal_objective=math.nan,
                dual_objective=math.nan,
                gap=math.nan,
                primal_residual=p_res,
                dual_residual=d_res,
                iterations=iterations,
                mu_history=self.mu_history,
                certificate_residual=cert_residual,
            )
        if status is SdpStatus.DUAL_INFEASIBLE:
            ctx = self._ctx(st.X, st.xn, st.xf)
            ray_x = self._collect_blocks(st, -ctx, dual=False)
            return SdpSolution(
                status=status,
                primal=ray_x,
                y=None,
                s=None,
                primal_objective=math.nan,
                dual_objective=math.nan,
                gap=math.nan,
                primal_residual=p_res,
                dual_residual=d_res,
                iterations=iterations,
                mu_history=self.mu_history,
                certificate_residual=cert_residual,
            )

        tau = st.tau if st.tau > 0 else 1.0
        primal = self._collect_blocks(st, tau, dual=False)
        s_blocks = self._collect_blocks(st, tau, dual=True)
        return SdpSolution(
            status=status,
            primal=primal,
            y=y_unscaled / tau,
            s=s_blocks,
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
