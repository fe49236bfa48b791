"""Primal-dual interior-point solver for block semidefinite programs.

Problems are stated in equality-standard form over a product cone of
PSD blocks, nonnegative vectors and free (unconstrained) vectors:

    minimize    sum_B <C_B, X_B>
    subject to  sum_B <A_iB, X_B> = b_i,   i = 1..m,
                X_B in K_B.

The solver runs the homogeneous self-dual embedding with Nesterov-Todd
search directions and a Mehrotra predictor-corrector, so a run ends either
at an optimal primal-dual pair or at a certificate of primal or dual
infeasibility (the Farkas ray needed to prove a relaxation empty).  A
caller that can prove a primal ray itself passes ``accept`` to `solve`:
the solve then ends at the first iterate whose ray the caller proves,
which is often several iterations before the ray test's tolerance.  Free
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
triangle U with U'U = G'G, and each solve is refined against its own
residual: G'G's condition number grows like 1/mu^2, and the refinement
wins back the digits that squaring loses, so residuals reach 1e-10.  A
solve is refined until its residual, read in the stopping test's own
normalization of the primal residual, is a tenth of what that test allows
at the iterate, or until a step no longer halves it; most solves need no
step.  The tau column, whose error every direction inherits, takes one
step more; an iteration makes three solves (tau column, predictor,
corrector).  Where forming and factoring G'G costs at least
CENTRALITY_RATIO times the flops of a centrality corrector (Gondzio 1996),
a rule read off the problem's sizes alone, the Schur complement dominates,
and two things change.  Each iteration makes a fourth solve: the
corrector, which aims the complementarity of a longer trial step at a
box around sigma mu and is kept if it lengthens the step by 1%.  And G
is not formed: G'G is summed from the sparse rows as <A_k, W A_i W> with
W = RR' (Fujisawa, Kojima and Nakata 1997; SDPT3), and the solves take
their products with G as R'(sum_i y_i A_i)R and <A_i, R X~ R'>.  A
direction stays scaled until it is taken; step bounds read least
eigenvalues alone.  U is
the Cholesky factor of G'G; only an iteration whose Cholesky factor fails
forms G, tries the Cholesky factor of dsyrk's G'G, and, if that fails too,
takes U from a QR factorization of G.  Neither is shifted: dependent rows
are settled once, at the start point, where a small pivot of the Gram
matrix G'G flags them and the elimination of free variables decides them:
a Farkas ray ends the solve primal infeasible, else the rest are solved.

Constraint data are one table of upper-triangle entries per block from
the builder (`SdpProblem.from_tables`) to the PSD stacks, which alone
mirror them into both triangles; dense rows exist only on request.  The
Gram-form programs built here touch under 1% of the entries of their
dense blocks.  Products with the rows go through np.bincount, and each
scaled matrix R'A_iR is formed from its row's own entries (Fujisawa,
Kojima and Nakata 1997), rows of like entry count batched together.
The per-iteration work is dense: the scaling points, the scaled constraint
matrix and its factorization.  Blocks of one size are stacked, so that
work is one batched numpy call per size, not one per block; a nonnegative
block of size n is one stack of n 1x1 blocks.
"""

from __future__ import annotations

import collections
import copy
import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    """One equality row with dense coefficients: sum over touched blocks of
    <coeff, X_block> = rhs, coeff a symmetric matrix for a PSD block and a
    vector otherwise.  Zero entries are dropped, so a block given as zeros
    is one the row does not touch.  Sparse rows go to `SdpProblem.from_tables`.
    """

    coeffs: Dict[int, np.ndarray]
    rhs: float


# one block's entries over all rows, sorted by (row, i, j): its upper
# triangle, or (i, i) for coordinate i of a vector block
_Table = collections.namedtuple("_Table", "row i j value")


def _nonzero(arr: np.ndarray, psd: bool):
    """The indices and values of the nonzero entries of ``arr``, of its upper
    triangles (the last two axes) if ``psd``."""
    index = np.nonzero(np.triu(arr) if psd else arr)
    return (*index, arr[index])


def _scatter(block: SdpBlock, slot, i, j, value, count: int = 1) -> np.ndarray:
    """``count`` dense coefficients of ``block`` that sum the entries (slot,
    i, j, value) in order; a PSD entry fills both triangles."""
    n = block.size
    if block.kind is not BlockKind.PSD:
        dense = np.bincount(slot * n + i, value, count * n)
        return dense.astype(float, copy=False).reshape(count, n)
    off = i != j
    at = np.concatenate([(slot * n + i) * n + j, ((slot * n + j) * n + i)[off]])
    dense = np.bincount(at, np.concatenate([value, value[off]]), count * n * n)
    return dense.astype(float, copy=False).reshape(count, n, n)


# iterations of the interior-point loop before it ends IterationLimit
MAX_ITERATIONS = 200
# share of the step to the cone boundary that an iteration takes
STEP_FRACTION = 0.98
# an SDP whose Schur complement costs at least this many times the flops of
# one centrality corrector to form and factor tries one in every iteration
CENTRALITY_RATIO = 8.0


@dataclass
class SolverOptions:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8

    def __post_init__(self):
        if not (0 < self.gap_tol < math.inf and 0 < self.feas_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")


class SdpProblem:
    """Validated block-structured SDP in equality-standard form.

    ``tables`` holds the constraint data, one ``_Table`` per block, checked
    as a whole.  ``from_tables`` takes such tables, in any order; the
    constructor turns dense rows into them, and ``constraints`` gives those
    back, built on first use.
    """

    def __init__(
        self,
        blocks: Sequence[SdpBlock],
        objective: Dict[int, np.ndarray],
        constraints: Sequence[SdpConstraint],
    ):
        self.blocks = tuple(blocks)
        shapes = [(b.size,) * (1 + (b.kind is BlockKind.PSD)) for b in self.blocks]
        dense = [np.zeros((len(constraints), *shape)) for shape in shapes]
        for ci, con in enumerate(constraints):
            where = f"constraint {ci}"
            if not con.coeffs:
                raise ValueError(f"{where} touches no block")
            for bi, coeff in con.coeffs.items():
                dense[bi][ci] = self._check_coeff(bi, coeff, where)
        tables = [_nonzero(d, d.ndim == 3) for d in dense]
        self._set_data(objective, tables, [con.rhs for con in constraints])

    @classmethod
    def from_tables(cls, blocks, objective, tables, rhs) -> "SdpProblem":
        """The problem of one entry table per block: (row, i, j, value) over
        the upper triangle of a PSD block, (row, index, value) for a vector
        block, in any order, rows counted from 0 as in ``rhs``."""
        problem = cls.__new__(cls)
        problem.blocks = tuple(blocks)
        if len(tables) != len(problem.blocks):
            raise ValueError("one entry table per block required")
        problem._set_data(objective, tables, rhs)
        return problem

    def _set_data(self, objective, tables, rhs):
        self._rhs = np.array(rhs, dtype=float)
        if not len(self._rhs):
            raise ValueError("at least one constraint is required")
        if not np.isfinite(self._rhs).all():
            at = np.isfinite(self._rhs).argmin()
            raise ValueError(f"constraint {at}: right side {self._rhs[at]} not finite")
        check = self._check_coeff
        self.objective = {bi: check(bi, c, "objective") for bi, c in objective.items()}
        self.tables = {bi: self._table(bi, table) for bi, table in enumerate(tables)}

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
                # average rounding-level asymmetry only
                if np.abs(arr - arr.T).max() > 1e-12 * np.abs(arr).max():
                    raise ValueError(f"{where}: PSD coefficient matrix not symmetric")
                arr = 0.5 * (arr + arr.T)
        else:
            if arr.shape != (block.size,):
                raise ValueError(f"{where}: expected vector of length {block.size}")
        return arr

    def _table(self, block_index: int, table) -> _Table:
        """The entries of one block, checked, sorted and without zeros."""
        n, m = self.blocks[block_index].size, len(self._rhs)
        psd = self.blocks[block_index].kind is BlockKind.PSD
        if len(table) != 3 + psd or len(set(map(len, table))) > 1:
            shape = "(row, i, j, value)" if psd else "(row, index, value)"
            raise ValueError(f"block {block_index}: expected {shape} arrays of one length")
        row, i, j = (np.asarray(a) for a in (table[0], table[1], table[-2]))
        value = np.asarray(table[-1], dtype=float)
        if any(a.dtype.kind not in "iu" for a in (row, i, j)):
            raise ValueError(f"block {block_index}: entry index not an integer")
        key = (row * n + i) * n + j
        order = np.argsort(key, kind="stable")
        repeated = np.zeros(len(key), bool)
        repeated[order[1:]] = np.diff(key[order]) == 0
        for bad, what in (
            ((row < 0) | (row >= m), f"row outside 0..{m - 1}"),
            (~np.isfinite(value), "coefficient not finite"),
            ((i < 0) | (j < 0) | (i >= n) | (j >= n), "index outside the block"),
            (i > j, "entry below the diagonal"),
            (repeated, "repeated entry"),
        ):
            if bad.any():
                at = bad.argmax()
                raise ValueError(f"constraint {row[at]}: {what} at ({i[at]}, {j[at]})")
        order = order[value[order] != 0]
        return _Table(row[order], i[order], j[order], value[order])

    @property
    def num_constraints(self) -> int:
        return len(self._rhs)

    def rhs(self) -> np.ndarray:
        return self._rhs.copy()

    @functools.cached_property
    def constraints(self) -> List[SdpConstraint]:
        """The rows with dense coefficients, blocks in ascending index."""
        coeffs: List[Dict[int, np.ndarray]] = [{} for _ in range(self.num_constraints)]
        for bi, (row, i, j, value) in self.tables.items():
            touched, slot = np.unique(row, return_inverse=True)
            dense = _scatter(self.blocks[bi], slot, i, j, value, len(touched))
            for r, coeff in zip(touched.tolist(), dense):
                coeffs[r][bi] = coeff
        return [SdpConstraint(c, b) for c, b in zip(coeffs, self._rhs.tolist())]

    def _restricted(self, rows: np.ndarray) -> "SdpProblem":
        """The problem of ``rows`` alone, in ascending order, built from the
        tables' entries."""
        place = np.full(self.num_constraints, -1)
        place[rows] = np.arange(len(rows))
        tables = []
        for block, (row, i, j, value) in zip(self.blocks, self.tables.values()):
            keep = place[row] >= 0
            table = (place[row[keep]], i[keep], j[keep], value[keep])
            tables.append(table if block.kind is BlockKind.PSD else table[:2] + table[3:])
        return SdpProblem.from_tables(self.blocks, self.objective, tables, self._rhs[rows])

    def dump(self) -> str:
        """Sparse text form for differential testing against other solvers.

        Header lines give block kinds/sizes and the right-hand side; each
        following line is ``constraint block row col value`` with
        constraint index 0 reserved for the objective (vector blocks use
        col = 0).
        """
        lines = [
            "blocks " + " ".join(f"{b.kind.value}:{b.size}" for b in self.blocks),
            "rhs " + " ".join(repr(b) for b in self._rhs.tolist()),
        ]
        parts = [(np.full(len(t.row), bi), *t) for bi, t in self.tables.items()]
        for bi, coeff in sorted(self.objective.items()):
            *index, value = _nonzero(coeff, coeff.ndim == 2)
            i, j = index[0], index[-1]
            parts.append((np.full(len(i), bi), np.full(len(i), -1), i, j, value))
        bis, row, i, j, value = (np.concatenate(a) for a in zip(*parts))
        psd = np.array([b.kind is BlockKind.PSD for b in self.blocks])
        j[~psd[bis]] = 0
        order = np.argsort(row, kind="stable")  # the objective is row -1
        for fields in zip(*(a[order].tolist() for a in (row + 1, bis, i, j, value))):
            lines.append("{} {} {} {} {!r}".format(*fields))
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


def _apply_tables(problem: SdpProblem, values: Sequence[np.ndarray]) -> np.ndarray:
    """The vector of sum_B <A_iB, X_B> over every row, one np.bincount per
    block, for the block values X_B."""
    ax = np.zeros(problem.num_constraints)
    for (row, i, j, value), X in zip(problem.tables.values(), values):
        X = np.asarray(X, dtype=float)
        x = X[i] if X.ndim == 1 else X[i, j] + X[j, i] * (i != j)
        ax += np.bincount(row, value * x, len(ax))
    return ax


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
    for name, values in (("primal", primal), ("slack", s)):
        if values is None:
            continue
        if len(values) != len(blocks):
            raise ValueError(f"one {name} value per block required")
        for bi, block in enumerate(blocks):
            want = (block.size,) * (2 if block.kind is BlockKind.PSD else 1)
            if np.asarray(values[bi]).shape != want:
                raise ValueError(f"{name} block {bi} has wrong shape")
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.num_constraints,):
        raise ValueError("dual vector length mismatch")

    b = problem.rhs()
    ax = _apply_tables(problem, primal)
    c_norm_sq = 0.0
    pobj = 0.0
    dual_gap_blocks = []
    for bi, block in enumerate(blocks):
        X, (row, i, j, value) = np.asarray(primal[bi], dtype=float), problem.tables[bi]
        coeff = problem.objective.get(bi, 0.0)
        c_norm_sq += float(np.sum(coeff**2))
        pobj += float(np.sum(coeff * X))
        resid = coeff - _scatter(block, 0 * row, i, j, y[row] * value)[0]
        if s is not None:
            resid -= np.asarray(s[bi], dtype=float)
            dual_gap_blocks.append(resid)
        elif block.kind is BlockKind.FREE:
            # free blocks carry no slack: C - A^T y must vanish on its own
            dual_gap_blocks.append(resid)
        else:
            # slack defaults to C - A^T y, so the equation holds exactly
            dual_gap_blocks.append(np.zeros_like(resid))
    p_res = np.linalg.norm(ax - b) / (1.0 + np.linalg.norm(b))
    d_res = math.sqrt(sum(float(np.sum(r**2)) for r in dual_gap_blocks)) / (
        1.0 + math.sqrt(c_norm_sq)
    )
    dobj = float(b @ y)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return p_res, d_res, gap


# ----------------------------------------------------------------------
# solver internals


# entries of the scaled matrices formed at once: a group of _CHUNK // n^2
# rows (128 KB) stays in cache through the product that forms it and the
# svec gather after it
_CHUNK = 1 << 14


class _PsdStack:
    """Constraint data of k PSD blocks of one size n, in svec coordinates.

    Matrices carry a leading member axis.  svec stacks the upper triangle
    row by row, off-diagonal entries times sqrt(2), so <A, X> =
    svec(A)'svec(X).  Each member brings the upper entries of its rows;
    their svec entries are triples (svec row j*dim + r of member j, row i,
    value), and their mirror into both triangles, made here alone, forms
    R'A_iR, in groups of (member, row) pairs of like entry count.
    Member j is cone block ``order[j]``, owns ``rows[j]`` of the scaled
    constraint matrix and is public block ``index[j]`` (its coordinate
    ``entry[j]`` if nonnegative, else -1).
    """

    def __init__(self, members, order: np.ndarray, offsets: np.ndarray, m: int):
        # members[o] for o in order: (n, index, entry, C, (row, i, j, value))
        # for one size n, the upper entries sorted by (row, i, j)
        self.order = order
        self.offsets = offsets[order]
        sizes, self.index, self.entry, Cs, tables = zip(*(members[o] for o in order))
        n, k = sizes[0], len(order)
        self.size, self.count, self.m = n, k, m
        self.iu = np.triu_indices(n)
        self.flat = self.iu[0] * n + self.iu[1]
        self.weight = np.where(self.iu[0] == self.iu[1], 1.0, math.sqrt(2.0))
        self.dim = dim = len(self.weight)
        self.rows = self.offsets[:, None] + np.arange(dim)
        self.C = np.array(Cs)

        member = np.repeat(np.arange(k), [len(t[0]) for t in tables])
        row, js, ks, vals = (np.concatenate(a) for a in zip(*tables))
        pos = js * n - js * (js - 1) // 2 + ks - js  # svec place
        self.svec_rows, self.cols = member * dim + pos, row
        self.vals = vals * self.weight[pos]
        self.bins = member * m + row  # (member, row) of an entry
        off = js != ks
        # each entry's place in a flattened n x n matrix, its value counted
        # once per triangle (`flat_rows`)
        self.upper = (member, row, js * n + ks, np.where(off, 2 * vals, vals))

        # the entries of both triangles, row-major in each (member, row)
        # pair; pair p, in (member, row) order, is row cons[p] of owner[p]
        both = [np.concatenate([a, b[off]]) for a, b in
                ((self.bins, self.bins), (js, ks), (ks, js), (vals, vals))]
        order = np.argsort((both[0] * n + both[1]) * n + both[2], kind="stable")
        bins, js, ks, vals = (a[order] for a in both)
        keys, per_pair = np.unique(bins, return_counts=True)
        owner, self.cons = np.divmod(keys, m)

        # The pairs in order of entry count, cut into groups of _CHUNK // n^2.
        # A group lists its pairs by member and row, each padded to the
        # widest of the group with repeats of its first entry, of value 0.
        # Per group: the rows of the stacked R that a and b of each entry
        # pick, the values, and a run (member, first, last, rows) of the
        # group's pairs per member.
        width = max(1, _CHUNK // (n * n))
        first = np.cumsum(per_pair) - per_pair  # entries run pair by pair
        by_count = np.argsort(per_pair, kind="stable")
        self.groups = []
        for lo in range(0, len(by_count), width):
            pairs = np.sort(by_count[lo : lo + width])
            place = np.arange(per_pair[pairs].max())
            real = place < per_pair[pairs, None]
            e = first[pairs, None] + np.where(real, place, 0)
            base = owner[pairs, None] * n
            a, b = base + js[e], base + ks[e]
            v = np.where(real, vals[e], 0.0)
            cut = np.flatnonzero(np.diff(owner[pairs])) + 1
            runs = [
                (owner[pairs[f]], f, t, self.cons[pairs[f:t]])
                for f, t in zip(np.r_[0, cut], np.r_[cut, len(pairs)])
            ]
            self.groups.append((a, b, v[..., None], runs))

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

    def _congruences(self, V: np.ndarray):
        """Yield (runs, V'A_iV of each pair flattened to n*n), group by
        group: V'A_iV = sum_e v_e V[a_e]'V[b_e] over the entries e of row i,
        both triangles, as one batched product P'Q with P = V[a], Q = v V[b]."""
        n = self.size
        stacked = V.reshape(-1, n)
        for a, b, v, runs in self.groups:
            Q = stacked[b]
            Q *= v
            yield runs, (_t(stacked[a]) @ Q).reshape(len(a), n * n)

    def scaled_columns(self, R: np.ndarray):
        """Yield (member, rows, svec(R'A_iR) of those rows), group by group."""
        for runs, stack in self._congruences(R):
            part = np.take(stack, self.flat, axis=1)
            part *= self.weight
            for j, first, last, rows in runs:
                yield j, rows, part[first:last]

    @functools.cached_property
    def flat_rows(self):
        """Per member: the places its entries take in a flattened n x n
        matrix, and its rows on those places as an m-row sparse matrix, so
        that row k times a symmetric F's entries at the places is <A_k, F>."""
        # imported here alone: at module level it would add to the
        # package's import time, and only this route uses it
        import scipy.sparse

        member, row, place, value = self.upper
        out = []
        for j in range(self.count):
            mine = member == j
            places, at = np.unique(place[mine], return_inverse=True)
            entries = (value[mine], (row[mine], at))
            out.append((places, scipy.sparse.csr_array(entries, (self.m, len(places)))))
        return out

    def add_schur(self, W: np.ndarray, M: np.ndarray):
        """Add <A_k, W_j A_i W_j> to M[i, k] for every member j: each
        group's products W A_i W read at the places of member j's entries,
        times its sparse rows, one sparse product per run."""
        for runs, stack in self._congruences(W):
            for j, first, last, rows in runs:
                places, rows_j = self.flat_rows[j]
                M[rows] += (rows_j @ stack[first:last].T[places]).T


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
        blocks, tables = problem.blocks, problem.tables
        m = problem.num_constraints

        # each row's sum of squares, an off-diagonal entry counting twice
        rows = np.concatenate([t.row for t in tables.values()])
        squares = [t.value**2 * (2 - (t.i == t.j)) for t in tables.values()]
        norms = np.sqrt(np.bincount(rows, np.concatenate(squares), m))
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
            t = tables[bi]
            A_f[t.row, cols.start + t.i] = t.value / norms[t.row]
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

        self.m = len(free.rest)
        # each row's place among the rest rows and among the pivot rows, or -1
        rest, pivot = np.full(m, -1), np.full(m, -1)
        rest[free.rest] = np.arange(self.m)
        pivot[free.pivot] = np.arange(len(free.pivot))
        # multiples of the original pivot rows that row k loses, in the
        # scale of row k
        mix = free.M * self.row_scale[:, None] / norms[free.pivot]
        members = []  # (size, index, entry, C, upper entries) in block order
        for bi, block in enumerate(blocks):
            if block.kind is BlockKind.FREE:
                continue
            n, t = block.size, tables[bi]
            # the pivot rows' entries, in pivot order; C loses their multiples v
            at = np.flatnonzero(pivot[t.row] >= 0)
            at = at[np.argsort(pivot[t.row[at]], kind="stable")]
            l = pivot[t.row[at]]
            w = free.v[l] / norms[t.row[at]] * t.value[at]
            C = problem.objective.get(bi, 0.0)
            C = C - _scatter(block, 0 * l, t.i[at], t.j[at], w)[0]
            own = rest[t.row] >= 0
            k, i, j, value = rest[t.row[own]], t.i[own], t.j[own], t.value[own]
            if mix.any():  # fold the pivot rows into the rest rows, densely
                pivot_rows = (l, t.i[at], t.j[at], t.value[at], len(free.pivot))
                dense = _scatter(block, k, i, j, value, self.m)
                for p, pivot_row in enumerate(_scatter(block, *pivot_rows)):
                    dense -= np.multiply.outer(mix[:, p], pivot_row)
                index = np.nonzero(np.triu(dense) if dense.ndim == 3 else dense)
                k, i, j, value = index[0], index[1], index[-1], dense[index]
            value = value / self.row_scale[k]
            if block.kind is BlockKind.PSD:
                members.append((n, bi, -1, C, (k, i, j, value)))
                continue
            order = np.argsort(i, kind="stable")  # by coordinate, rows ascending
            split = np.searchsorted(i[order], np.arange(1, n))
            columns = zip(np.split(k[order], split), np.split(value[order], split))
            for c, (kc, vc) in enumerate(columns):  # coordinate c is a 1x1 block
                members.append((1, bi, c, C[c : c + 1, None], (kc, 0 * kc, 0 * kc, vc)))

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


class _ScaledOperator:
    """The scaled constraint matrix G of the scaling points ``Rs`` (one
    array per stack), never formed: G y = svec(R'(sum_i y_i A_i)R) and
    G'x = [sum_b <A_ib, R smat(x_b) R'>], read off the stacks' entries."""

    def __init__(self, cone: "_Cone", Rs, adjoint: bool = False):
        self.cone, self.Rs, self.adjoint = cone, Rs, adjoint

    @property
    def T(self) -> "_ScaledOperator":
        return _ScaledOperator(self.cone, self.Rs, not self.adjoint)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        pairs = list(zip(self.cone.stacks, self.Rs))
        if self.adjoint:
            return self.cone.apply([R @ s.smat(v[s.rows]) @ _t(R) for s, R in pairs])
        out = np.empty(self.cone.scaled_size)
        for s, R in pairs:
            out[s.rows] = s.svec(_t(R) @ s.combine(v) @ R)
        return out


class _SchurFactor:
    """Upper triangle U with U'U = G'G, the Schur complement of the scaled
    columns, and the one solve of the Newton system through it.

    dsyrk forms G'G reading the Fortran-ordered G in place, at half the
    flops of a general product, and dpotrf factors it.  Or G'G comes in as
    ``schur``, formed from the sparse rows (`_HsdSolver._sparse_schur`),
    and G is a `_ScaledOperator`.  ``failed`` is set when dpotrf stops at a
    pivot that is not positive (G'G indefinite in rounding); U is then the
    QR's triangle R of a formed G, unshifted, and the caller of a failed
    ``schur`` forms G.  A solve through U'U loses about log10 cond(G'G)
    digits, so it is refined against G'xh = h (the corrected semi-normal
    equations, Bjorck 1987) until the residual r = h - G'xh, read as the
    stopping test reads a primal residual, ||row_scale o r||, is at most
    ``target``, or until a step fails to halve it.
    """

    def __init__(self, G, row_scale: np.ndarray, target: float, schur=None):
        self.G, self.row_scale, self.target = G, row_scale, target
        formed = schur is None
        if formed:
            schur = sla.blas.dsyrk(1.0, G, trans=1) if G.shape[1] else np.zeros((0, 0))
        self.U, info = sla.lapack.dpotrf(schur)
        self.failed = info != 0
        if self.failed and formed:
            self.U = np.linalg.qr(G, mode="r")

    def solve(self, e: np.ndarray, h: np.ndarray, extra_step: bool = False):
        """(xh, dy) with xh - G dy = e and G'xh = h: dy = (G'G)^{-1}(h - G'e),
        then, while r = h - G'xh misses the target and the last step halved
        ||row_scale o r||, dy += (G'G)^{-1} r and xh += G times that
        correction.  ``extra_step`` takes one more step, from the last r,
        once the refinement stops."""
        if not len(h):  # dpotrs rejects the 0x0 factor
            return e.copy(), np.zeros(0)
        dy, _ = sla.lapack.dpotrs(self.U, h - self.G.T @ e)
        xh = e + self.G @ dy
        last = math.inf
        while True:
            r = h - self.G.T @ xh
            norm = float(np.linalg.norm(self.row_scale * r))
            # written so that a NaN norm stops too
            stop = norm <= self.target or not norm <= 0.5 * last
            if stop and not extra_step:
                return xh, dy
            ddy, _ = sla.lapack.dpotrs(self.U, r)
            xh, dy = xh + self.G @ ddy, dy + ddy
            if stop:
                return xh, dy
            last = norm


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
    def __init__(
        self,
        problem: SdpProblem,
        options: SolverOptions,
        accept: Optional[Callable[[List[np.ndarray]], bool]] = None,
    ):
        self.problem = problem
        self.opts = options
        self.accept = accept
        self.cone = _Cone(problem)
        self.state = _State(self.cone)
        self.mu_history: List[float] = []
        # scaled constraint matrix, refilled in place each iteration; nothing
        # writes the entries of the rows a block misses, which stay zero
        self.G = np.zeros((self.cone.scaled_size, self.cone.m), order="F")
        self.schur_dominates = self._schur_dominates()

    def _schur_dominates(self) -> bool:
        """Whether forming and factoring the Schur complement dominates an
        iteration, read off the sizes alone.  Where it does, each iteration
        tries a centrality corrector and forms G'G from the sparse rows.

        As in Gondzio (1996), the flops of forming and factoring the Schur
        complement (dsyrk of the N x m matrix G, dpotrf of G'G) are weighed
        against those of one corrector: a solve refined twice (six products
        with G, three with the factor) and, per block of size n, 24n^3 of
        dense work (its trial product, the eigh of it, the correction and
        the step bound, weighed as when a direction carried two congruences).
        The solve's weight is kept from when every corrector was refined
        twice, though most now stop at their target after three products,
        so that the rule still picks the SDPs it picked then.
        """
        m, N = self.cone.m, self.cone.scaled_size
        schur = N * m * m + m**3 / 3
        blocks = sum(s.count * s.size**3 for s in self.cone.stacks)
        corrector = 12 * N * m + 6 * m * m + 24 * blocks
        return schur >= CENTRALITY_RATIO * corrector

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
    # Lam o (dX~ + dS~) = Rc is diagonal in these coordinates, so dS~ is
    # Rc o/ J - dX~, J the Jordan weights (Todd, Toh and Tutuncu 1998).  The
    # 1x1 block of a nonnegative coordinate has R^2 = x/s and Lam = sqrt(xs),
    # so its scaled column is A_i sqrt(x/s) and its step bound x/(-dx).
    # Each stack computes these for all its members at once and writes
    # their rows of G, c_hat and e at the members' offsets, in block order.
    # The free blocks are solved out of the data at set-up, so with G the
    # stacked scaled constraints the Newton equations become the
    # least-squares system xh - G dy = e, G'xh = h, solved through
    # `_SchurFactor`.

    def _factorize(self, st: _State):
        """Scaled constraint data and its factorization, whose solves refine
        until their primal error is a tenth of what the stopping test
        allows at this iterate.  Where the Schur complement dominates, G'G
        comes from the sparse rows and G is formed only if its Cholesky
        factor fails."""
        cone = self.cone
        c_hat = np.empty(cone.scaled_size)
        blocks = []
        for s, X, S in zip(cone.stacks, st.X, st.S):
            R, lam = _nt_scaling(X, S)
            c_hat[s.rows] = s.svec(_t(R) @ s.C @ R)
            blocks.append((R, lam, 0.5 * (lam[:, :, None] + lam[:, None, :])))
        target = 0.1 * self.opts.feas_tol * st.tau * (1.0 + cone.b_norm)
        Rs = [R for R, _, _ in blocks]
        factor = None
        if self.schur_dominates:
            G = _ScaledOperator(cone, Rs)
            factor = _SchurFactor(G, cone.row_scale, target, self._sparse_schur(Rs))
        if factor is None or factor.failed:
            factor = _SchurFactor(self._scaled_matrix(Rs), cone.row_scale, target)
        return {"blocks": blocks, "factor": factor, "c_hat": c_hat}

    def _scaled_matrix(self, Rs) -> np.ndarray:
        """G of the scaling points ``Rs`` (one array per stack), in place."""
        cone, G = self.cone, self.G
        for s, R in zip(cone.stacks, Rs):
            for j, cons, part in s.scaled_columns(R):
                G[s.offsets[j] : s.offsets[j] + s.dim, cons] = part.T
        return G

    def _sparse_schur(self, Rs) -> np.ndarray:
        """G'G as sum_b <A_kb, W_b A_ib W_b> with W = RR' (Fujisawa, Kojima
        and Nakata 1997; SDPT3), from the stacks' sparse rows, without G."""
        M = np.zeros((self.cone.m, self.cone.m))
        for s, R in zip(self.cone.stacks, Rs):
            s.add_schur(R @ _t(R), M)
        return M

    def _direction(self, st: _State, fact, rhs, Rc, rc_tau):
        """Newton direction for the scaled complementarity targets, in scaled
        coordinates alone: dX~ from the solve through the factor, refined
        until its primal error meets the factor's target, and
        dS~ = Rc o/ J - dX~.  rhs is (r_p, r_g, R' r_d R); Rc holds, per
        stack, the targets of Lam o (dX~ + dS~).
        """
        cone = self.cone
        r_p, r_g, rd_t = rhs
        targets = [Rc_s / jordan for (_, _, jordan), Rc_s in zip(fact["blocks"], Rc)]
        # e = Lam o^{-1} Rc - R' r_d R, block by block
        e = np.empty(cone.scaled_size)
        for s, target, rdt in zip(cone.stacks, targets, rd_t):
            e[s.rows] = s.svec(target - rdt)
        xh, d_y = fact["factor"].solve(e, r_p)

        vx, vy = fact["tau_col"]
        numer = r_g + rc_tau / st.tau - float(cone.b @ d_y) + float(fact["c_hat"] @ xh)
        d_tau = numer / fact["tau_pivot"]
        xh = xh + d_tau * vx
        d_y = d_y + d_tau * vy

        Xt = [s.smat(xh[s.rows]) for s in cone.stacks]
        St = [target - dXt for target, dXt in zip(targets, Xt)]
        kappa = (rc_tau - st.kappa * d_tau) / st.tau
        return {"Xt": Xt, "St": St, "y": d_y, "tau": d_tau, "kappa": kappa}

    def _max_step(self, st: _State, fact, d) -> float:
        """Largest step keeping the iterate in the cone: a block stays PSD
        while diag(lam) + a*dZ (scaled coordinates) does, for a up to -1 over
        the least eigenvalue of Lam^{-1/2} dZ Lam^{-1/2}, dZ = dX~ or dS~.
        LAPACK's dsyevr finds it alone, from the lower triangle as eigvalsh."""
        low = math.inf
        for (_, lam, _), dXt, dSt in zip(fact["blocks"], d["Xt"], d["St"]):
            root = np.tile(1.0 / np.sqrt(lam), (2, 1))
            for scaled in root[:, :, None] * np.concatenate([dXt, dSt]) * root[:, None, :]:
                w, _, found, _, info = sla.lapack.dsyevr(
                    scaled, compute_v=0, range="I", il=1, iu=1, lower=1
                )
                if info:
                    raise np.linalg.LinAlgError(f"dsyevr failed ({info})")
                low = w[:found].min(initial=low)
        alpha = math.inf if low >= -1e-16 else 1.0 / (-low)
        if d["tau"] < 0:
            alpha = min(alpha, -st.tau / d["tau"])
        if d["kappa"] < 0:
            alpha = min(alpha, -st.kappa / d["kappa"])
        return alpha

    def _apply_step(self, st: _State, d, alpha: float):
        # new lists, so a shallow copy (the best iterate) and the state it
        # was taken from never share a step
        st.X = [X + alpha * dX for X, dX in zip(st.X, d["X"])]
        st.S = [S + alpha * dS for S, dS in zip(st.S, d["S"])]
        st.y = st.y + alpha * d["y"]
        st.tau += alpha * d["tau"]
        st.kappa += alpha * d["kappa"]

    # -- termination -------------------------------------------------------

    def _convergence_metrics(self, st: _State, resid):
        cone = self.cone
        r_p, r_d, _, ctx = resid
        pobj = ctx / st.tau + cone.offset
        dobj = float(cone.b @ st.y) / st.tau + cone.offset
        # the pivot rows and the free block's dual rows hold exactly
        tau = st.tau
        p_res = np.linalg.norm(cone.row_scale * r_p) / (tau * (1.0 + cone.b_norm))
        d_res = math.sqrt(cone.inner(r_d, r_d)) / (tau * (1.0 + cone.c_norm))
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
            num = [C * st.tau - rd for C, rd in zip(cone.C, r_d)]
            out["primal"] = math.sqrt(cone.inner(num, num)) / bty
        if ctx < 0:
            ax = cone.row_scale * (cone.b * st.tau - r_p)
            out["dual"] = float(np.linalg.norm(ax)) / (-ctx)
        return out

    def _settle_rows(self, st: _State, fact):
        """The solution that dependent rows decide at the start, or None.

        At X = S = I, G'G is the well-scaled Gram matrix of the unit rows, so
        a wide start triangle U, or a squared pivot at most sqrt(eps) times
        the largest, flags the rows.  `_FreeElimination` of G's columns at
        cost b decides them: its ray gives y = -ray, Gy = 0 and b'y = 1, a
        Farkas ray with S = 0; else the rows it keeps are solved alone, and
        the others get y = 0.  G is formed here, as the factor's may be an
        operator.
        """
        U = fact["factor"].U
        pivots = np.diag(U) ** 2
        low, top = pivots.min(initial=math.inf), pivots.max(initial=0.0)
        if U.shape[0] >= U.shape[1] and low > math.sqrt(np.finfo(float).eps) * top:
            return None
        G = self._scaled_matrix([R for R, _, _ in fact["blocks"]])
        rows = _FreeElimination(G, self.cone.b)
        if rows.ray is not None:
            ray = copy.copy(st)
            ray.y, ray.tau, ray.S = -rows.ray, 0.0, [0 * S for S in st.S]
            cert = self._certificates(ray, self._residuals(ray))["primal"]
            return self._package(ray, SdpStatus.PRIMAL_INFEASIBLE, 0, cert)
        if len(rows.columns) == self.cone.m:
            return None
        free, problem = self.cone.free, self.problem
        kept = np.sort(np.concatenate([free.pivot, free.rest[rows.columns]]))
        sol = solve(problem._restricted(kept), self.opts)
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
        mu = st.mu(cone)

        for iterations in range(MAX_ITERATIONS + 1):
            resid = self._residuals(st)
            self.mu_history.append(mu)
            p_res, d_res, gap, _, _ = self._convergence_metrics(st, resid)

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
            # the caller's own proof of the ray ends the solve where it holds
            if self.accept is not None and certs.get("dual", math.inf) < 1:
                cert = certs["dual"]
                ray = self._package(st, SdpStatus.DUAL_INFEASIBLE, iterations, cert)
                if self.accept(ray.primal):
                    return ray

            if iterations == MAX_ITERATIONS:
                stall = "iteration limit"
                st = best_state
                break

            try:
                fact = self._factorize(st)
                settled = None if iterations else self._settle_rows(st, fact)
                if settled is not None:
                    return settled
                step, alpha = self._search_direction(st, fact, resid, mu)
                alpha = min(STEP_FRACTION * alpha, 1.0)
                if not math.isfinite(alpha) or alpha <= 0:
                    raise np.linalg.LinAlgError("no step inside the cone")
                self._apply_step(st, step, alpha)
                mu = st.mu(cone)
                if not math.isfinite(mu):
                    raise np.linalg.LinAlgError("iterate not finite")
            except (np.linalg.LinAlgError, ValueError) as exc:
                status = SdpStatus.NUMERICAL_TROUBLE
                stall = str(exc)
                st = best_state
                break

        return self._package(st, status, iterations, cert_residual, stall)

    def _search_direction(self, st: _State, fact, resid, mu: float):
        """Mehrotra predictor-corrector step from the factorization ``fact``.

        Returns the direction and the largest step that keeps the iterate
        in the cone.  Targets, directions, step bounds and mu after the
        predictor's trial step are read in the scaled coordinates, where the
        iterate is diag(lam); only the direction taken gets its unscaled
        dX = sym(R dX~ R') and dS from the dual row.
        The predictor only sets sigma and the corrector's second-order term,
        so it is solved once (Mehrotra 1992): three solves through the factor
        (tau column, predictor, corrector).  Each is refined until its
        primal error meets the factor's target; every direction inherits
        the tau column's error, so its solve takes one step more, from the
        residual its last test already formed.

        Where `_schur_dominates`, a fourth solve follows: one centrality
        corrector (Gondzio 1996; Colombo and Gondzio 2008).  At the trial
        step a = min(1, 1.5 alpha + 0.1) the complementarity of each block,
        V = sym((Lam + a dX~)(Lam + a dS~)), and tau kappa have their
        eigenvalues projected onto [0.1, 10] sigma mu, a fall capped at
        10 sigma mu; the projection's change joins the corrector's targets,
        whose direction is solved anew, to the same target as the others.
        It is kept if its step is at least 1% longer.
        """
        # The tau column of the elimination does not depend on the residuals.
        # Its pivot kappa/tau + (b - u)'K^{-1}(b + u) + c'Pc equals
        # kappa/tau + ||xh_tau||^2, where xh_tau is the scaled primal step
        # of the column: a sum of squares, with no cancellation to clamp.
        tau_col = fact["factor"].solve(-fact["c_hat"], self.cone.b, extra_step=True)
        pivot = st.kappa / st.tau + float(tau_col[0] @ tau_col[0])
        if not (pivot > 0 and math.isfinite(pivot)):
            raise np.linalg.LinAlgError("singular tau pivot")
        fact.update(tau_col=tau_col, tau_pivot=pivot)
        cone = self.cone
        Lams = [_diag(lam) for _, lam, _ in fact["blocks"]]
        r_p, r_d, r_g, _ = resid
        rd_t = [_t(R) @ rd @ R for (R, _, _), rd in zip(fact["blocks"], r_d)]
        rhs = (r_p, r_g, rd_t)
        # predictor: pure Newton step onto complementarity target 0
        Rc_aff = [_diag(-(lam * lam)) for _, lam, _ in fact["blocks"]]
        aff = self._direction(st, fact, rhs, Rc_aff, -(st.tau * st.kappa))
        a = min(1.0, self._max_step(st, fact, aff))
        X, S = ([Lam + a * dZ for Lam, dZ in zip(Lams, aff[k])] for k in ("Xt", "St"))
        tk = (st.tau + a * aff["tau"]) * (st.kappa + a * aff["kappa"])
        mu_aff = cone.inner(X, S, tk) / (cone.nu + 1)
        sigma = min(max((mu_aff / mu) ** 3, 1e-8), 1.0 - 1e-8)

        Rc = [
            _diag(sigma * mu - lam * lam) - _sym(dXt @ dSt)
            for (_, lam, _), dXt, dSt in zip(fact["blocks"], aff["Xt"], aff["St"])
        ]
        rc_t = sigma * mu - st.tau * st.kappa - aff["tau"] * aff["kappa"]
        d = self._direction(st, fact, rhs, Rc, rc_t)
        alpha = self._max_step(st, fact, d)
        if self.schur_dominates:  # the centrality corrector
            a = min(1.0, 1.5 * min(alpha, 1.0) + 0.1)
            low, high = 0.1 * sigma * mu, 10.0 * sigma * mu

            def correction(v):
                return np.maximum(np.clip(v, low, high) - v, -high)

            Rc_c = []
            for Lam, dXt, dSt, rc in zip(Lams, d["Xt"], d["St"], Rc):
                v, Q = np.linalg.eigh(_sym((Lam + a * dXt) @ (Lam + a * dSt)))
                Rc_c.append(rc + (Q * correction(v)[..., None, :]) @ _t(Q))
            v_t = (st.tau + a * d["tau"]) * (st.kappa + a * d["kappa"])
            d_c = self._direction(st, fact, rhs, Rc_c, rc_t + float(correction(v_t)))
            alpha_c = self._max_step(st, fact, d_c)
            if alpha_c >= 1.01 * alpha:
                d, alpha = d_c, alpha_c

        d_y, d_tau = d["y"], d["tau"]
        d["X"] = [_sym(R @ dXt @ _t(R)) for (R, _, _), dXt in zip(fact["blocks"], d["Xt"])]
        d["S"] = [rd - s.combine(d_y) + s.C * d_tau for s, rd in zip(cone.stacks, r_d)]
        return d, alpha

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
            pivot = cone.free.pivot
            ax = _apply_tables(self.problem, out)[pivot] / cone.norms[pivot]
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


def solve(
    problem: SdpProblem,
    options: Optional[SolverOptions] = None,
    *,
    accept: Optional[Callable[[List[np.ndarray]], bool]] = None,
) -> SdpSolution:
    """Solve the block SDP; deterministic for identical inputs and options.

    ``accept``, if given, is the caller's test of a primal ray.  At every
    iterate that is not optimal and whose dual-ray estimate (the
    ``certificate_residual`` a DualInfeasible end would report) is below 1,
    it receives the primal blocks exactly as a DualInfeasible solution at
    that iterate would carry them; when it returns True the solve ends
    there, DualInfeasible, with that solution.  It never changes the
    iterate, so a solve it never accepts is the solve without it.
    """
    return _HsdSolver(problem, options or SolverOptions(), accept).run()
