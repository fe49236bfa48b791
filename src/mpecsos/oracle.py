"""Brute-force ground truth at desk scale.

Two reference computations: the inner value function (minimum of the
coupling polynomial over the inner feasible slice, by dense grid search
with nested refinement) and a reference solve of the perturbed problem
(outer grid search that keeps points satisfying every constraint within
the perturbation, then locally refines the incumbent).

Grids are symmetric with an exactly representable zero at the center and
exact endpoints, so boundary-feasible optima (which all bundled instances
have) are hit exactly.  Everything is vectorized and deterministic; the
reductions use first-index argmin, so results do not depend on chunking.
The module refuses instances with more than four outer dimensions: this
is a verification tool, not a solver.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .problems import MpecProblem

MAX_TOTAL_DIMS = 4
_CHUNK_BUDGET = 4_000_000

# Cache of inner-value grids keyed by (problem fingerprint, grid shape);
# the inner value function does not depend on the perturbation, so sweeps
# over epsilon reuse one scan.  It keeps the most recently used grids only
# and is shared by every thread of the process, hence the lock.
_VALUE_GRID_CACHE_SIZE = 4
_VALUE_GRID_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_VALUE_GRID_LOCK = threading.Lock()


class _EmptyInner:
    """Sentinel: the inner feasible slice contained no sampled point."""

    def __repr__(self):
        return "EMPTY_INNER"


class _Infeasible:
    """Sentinel: no outer grid point satisfied the perturbed constraints."""

    def __repr__(self):
        return "INFEASIBLE"


EMPTY_INNER = _EmptyInner()
INFEASIBLE = _Infeasible()


@dataclass(frozen=True)
class OracleConfig:
    inner_grid: Optional[int] = None
    outer_grid: Optional[int] = None
    refinement_rounds: int = 2
    refine_grid: int = 41

    def __post_init__(self):
        for value in (self.inner_grid, self.outer_grid):
            if value is not None and value < 3:
                raise ValueError("grid counts must be at least 3")
        if self.refine_grid < 3:
            raise ValueError("refine_grid must be at least 3")

    def inner_count(self, m: int) -> int:
        if self.inner_grid is not None:
            return self.inner_grid
        return 2001 if m == 1 else 201

    def outer_count(self, dims: int) -> int:
        if self.outer_grid is not None:
            return self.outer_grid
        return {1: 401, 2: 401, 3: 61, 4: 31}[dims]


@dataclass(frozen=True)
class PerturbedReference:
    value: float
    point: Tuple[float, ...]


def sym_grid(halfwidth: float, count: int) -> np.ndarray:
    """Symmetric grid with exact endpoints and an exact zero when odd."""
    grid = np.linspace(-halfwidth, halfwidth, count)
    if count % 2 == 1:
        grid[count // 2] = 0.0
    return grid


def _check_dims(problem: MpecProblem):
    dims = problem.n + problem.m
    if dims > MAX_TOTAL_DIMS:
        raise ValueError(
            f"oracle supports at most {MAX_TOTAL_DIMS} outer dimensions, "
            f"got {dims}; this is a desk-scale verification tool"
        )


def _inner_nodes(problem: MpecProblem, count: int) -> np.ndarray:
    axes = [sym_grid(c, count) for c in problem.y_halfwidths()]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def _masked_inner_scan(
    problem: MpecProblem, points: np.ndarray, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Minimum of phi over the feasible inner nodes, per outer point.

    Returns (values, argmin_index); empty slices give +inf and index -1.
    """
    n, m = problem.n, problem.m
    h_xv = problem.h_in_xv()
    phi = problem.coupling_full()
    num_points = points.shape[0]
    num_nodes = nodes.shape[0]
    values = np.full(num_points, np.inf)
    arg = np.full(num_points, -1, dtype=int)
    chunk = max(1, _CHUNK_BUDGET // max(num_nodes, 1))
    for start in range(0, num_points, chunk):
        block = points[start : start + chunk]
        arrays = [block[:, i][:, None] for i in range(n + m)]
        arrays += [nodes[:, j][None, :] for j in range(m)]
        feasible = np.ones((block.shape[0], num_nodes), dtype=bool)
        for h in h_xv:
            feasible &= h.evaluate_broadcast(arrays) >= 0.0
        vals = phi.evaluate_broadcast(arrays)
        vals = np.where(feasible, vals, np.inf)
        idx = np.argmin(vals, axis=1)
        best = vals[np.arange(block.shape[0]), idx]
        values[start : start + chunk] = best
        arg[start : start + chunk] = np.where(np.isfinite(best), idx, -1)
    return values, arg


def inner_value_grid(
    problem: MpecProblem,
    points: np.ndarray,
    config: OracleConfig = OracleConfig(),
) -> np.ndarray:
    """Inner value at each outer point; NaN where the slice is empty."""
    _check_dims(problem)
    nodes = _inner_nodes(problem, config.inner_count(problem.m))
    values, _ = _masked_inner_scan(problem, np.asarray(points, float), nodes)
    return np.where(np.isfinite(values), values, np.nan)


def inner_value(
    problem: MpecProblem,
    x: Sequence[float],
    y: Sequence[float],
    config: OracleConfig = OracleConfig(),
) -> Union[float, _EmptyInner]:
    """Inner value at one point, with nested grid refinement.

    Refinement shrinks the sampling window tenfold per round around the
    incumbent inner minimizer, clipped to the inner box, and never
    extrapolates: an empty slice is reported as EMPTY_INNER, not patched.
    """
    _check_dims(problem)
    point = np.array([*x, *y], dtype=float).reshape(1, -1)
    count = config.inner_count(problem.m)
    widths = np.array(problem.y_halfwidths())

    nodes = _inner_nodes(problem, count)
    values, arg = _masked_inner_scan(problem, point, nodes)
    if arg[0] < 0:
        return EMPTY_INNER
    best_val = float(values[0])
    best_node = nodes[arg[0]]

    for round_index in range(1, config.refinement_rounds + 1):
        half = widths / (10.0**round_index)
        axes = []
        for j in range(problem.m):
            lo = max(best_node[j] - half[j], -widths[j])
            hi = min(best_node[j] + half[j], widths[j])
            axes.append(np.linspace(lo, hi, count))
        mesh = np.meshgrid(*axes, indexing="ij")
        local = np.stack([g.ravel() for g in mesh], axis=-1)
        values, arg = _masked_inner_scan(problem, point, local)
        if arg[0] >= 0 and values[0] < best_val:
            best_val = float(values[0])
            best_node = local[arg[0]]
    return best_val


def _outer_grid_points(problem: MpecProblem, count: int) -> np.ndarray:
    axes = [sym_grid(c, count) for c in problem.box.halfwidths]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def _cached_value_grid(problem: MpecProblem, config: OracleConfig):
    key = (
        problem.cache_key(),
        config.inner_count(problem.m),
        config.outer_count(problem.n + problem.m),
    )
    with _VALUE_GRID_LOCK:
        hit = _VALUE_GRID_CACHE.get(key)
        if hit is not None:
            _VALUE_GRID_CACHE.move_to_end(key)
            return hit
    # the scan runs unlocked: two threads may compute the same grid, and
    # the later one simply replaces an identical entry
    points = _outer_grid_points(problem, config.outer_count(problem.n + problem.m))
    values = inner_value_grid(problem, points, config)
    with _VALUE_GRID_LOCK:
        _VALUE_GRID_CACHE[key] = (points, values)
        _VALUE_GRID_CACHE.move_to_end(key)
        while len(_VALUE_GRID_CACHE) > _VALUE_GRID_CACHE_SIZE:
            _VALUE_GRID_CACHE.popitem(last=False)
    return points, values


def _feasible_mask(problem: MpecProblem, points, j_values, eps: float):
    mask = ~np.isnan(j_values)
    mask &= j_values >= -eps
    for g in problem.constraints_g:
        mask &= g.evaluate_array(points) >= -eps
    for h in problem.constraints_h:
        mask &= h.evaluate_array(points) >= -eps
    return mask


def solve_perturbed_reference(
    problem: MpecProblem,
    eps: float,
    config: OracleConfig = OracleConfig(),
) -> Union[PerturbedReference, _Infeasible]:
    """Grid-search reference value and minimizer of the perturbed problem.

    Keeps outer grid points with every g_i, h_j and the inner value at
    least -eps, minimizes the objective over them, then refines around the
    incumbent with tenfold-shrinking windows.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    _check_dims(problem)
    points, j_values = _cached_value_grid(problem, config)
    mask = _feasible_mask(problem, points, j_values, eps)
    if not mask.any():
        return INFEASIBLE
    f_vals = problem.objective_f.evaluate_array(points)
    f_vals = np.where(mask, f_vals, np.inf)
    idx = int(np.argmin(f_vals))
    best_val = float(f_vals[idx])
    best_point = points[idx]

    widths = np.array(problem.box.halfwidths)
    for round_index in range(1, config.refinement_rounds + 1):
        half = widths / (10.0**round_index)
        axes = []
        for i in range(len(widths)):
            lo = max(best_point[i] - half[i], -widths[i])
            hi = min(best_point[i] + half[i], widths[i])
            axes.append(np.linspace(lo, hi, config.refine_grid))
        mesh = np.meshgrid(*axes, indexing="ij")
        local = np.stack([g.ravel() for g in mesh], axis=-1)
        local_j = inner_value_grid(problem, local, config)
        local_mask = _feasible_mask(problem, local, local_j, eps)
        if not local_mask.any():
            continue
        local_f = problem.objective_f.evaluate_array(local)
        local_f = np.where(local_mask, local_f, np.inf)
        li = int(np.argmin(local_f))
        if local_f[li] < best_val:
            best_val = float(local_f[li])
            best_point = local[li]
    return PerturbedReference(value=best_val, point=tuple(float(v) for v in best_point))
