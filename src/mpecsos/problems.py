"""Problem instances: variable partition, constraint sets and the box.

An instance couples an objective f(x, y) with inequality families
g_i(x, y) >= 0 and h_j(x, y) >= 0 and a coupling polynomial
phi(x, y, v) that must stay nonnegative for every v in the inner set
B(x) = {v : h_j(x, v) >= 0}.  The working box Omega is a product of
symmetric intervals, one per (x, y) coordinate, with per-coordinate
bounds M_i (half-width sqrt(M_i)); every coordinate shares a single M
when the instance document gives a scalar.

Instance documents are YAML with sections ``variables.x``, ``variables.y``,
``objective``, ``A`` (list of g_i), ``B`` (list of h_j), ``phi`` and ``M``.
Polynomial values are expression strings in the documented grammar.  The
inner variables mirror the y-variables and are named ``v`` when there is a
single y-variable and ``v1, v2, ...`` otherwise.  The product grids over
the box that the oracle and the diagnostics sample are built here too.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import yaml

from .polynomials import ParseError, Polynomial, parse_polynomial

BUNDLED_INSTANCES = ("p1_mpec", "p2_bilevel", "p3_sip")


class ProblemFormatError(ValueError):
    """Raised when an instance document is missing or malformed."""


@dataclass(frozen=True)
class OmegaBox:
    """Product of symmetric intervals [-c_i, c_i] around the origin."""

    halfwidths: Tuple[float, ...]

    def __post_init__(self):
        if not all(0 < c < math.inf for c in self.halfwidths):
            raise ProblemFormatError("box half-widths must be positive and finite")

    @property
    def dimension(self) -> int:
        return len(self.halfwidths)

    @property
    def bounds(self) -> Tuple[float, ...]:
        """Per-coordinate M_i = c_i^2 (so the box constraint is M_i - z_i^2)."""
        return tuple(c * c for c in self.halfwidths)

    def polynomials(self, variables: Sequence[str]) -> List[Polynomial]:
        """The box constraints M_i - z_i^2 >= 0 over the given variables."""
        variables = tuple(variables)
        if len(variables) != self.dimension:
            raise ValueError("one variable per box coordinate required")
        out = []
        for name, m in zip(variables, self.bounds):
            sq = Polynomial.variable(variables, name) ** 2
            out.append(Polynomial.constant(variables, m) - sq)
        return out


@dataclass(frozen=True)
class MpecProblem:
    """A fully parsed instance; immutable and safe to share.

    The equilibrium condition is  min over v in B(x) of phi(x, y, v)
    minus offset(x, y)  being nonnegative.  Plain instances leave the
    offset at zero and write the whole coupling into phi; bilevel
    reductions put the inner objective at the decision variable into the
    offset (phi then only involves x and v), which keeps the fitted value
    polynomial a function of the outer variables alone.
    """

    x_vars: Tuple[str, ...]
    y_vars: Tuple[str, ...]
    v_vars: Tuple[str, ...]
    objective_f: Polynomial            # over (x, y)
    constraints_g: Tuple[Polynomial, ...]  # g_i >= 0, over (x, y)
    constraints_h: Tuple[Polynomial, ...]  # h_j >= 0, over (x, y)
    phi: Polynomial                    # over (x, y, v)
    box: OmegaBox                      # over (x, y)
    offset: Optional[Polynomial] = None  # over (x, y); zero when omitted
    name: str = "instance"

    def __post_init__(self):
        if self.offset is None:
            object.__setattr__(self, "offset", Polynomial.zero(self.z_vars))

    @property
    def n(self) -> int:
        return len(self.x_vars)

    @property
    def m(self) -> int:
        return len(self.y_vars)

    @property
    def z_vars(self) -> Tuple[str, ...]:
        return self.x_vars + self.y_vars

    @property
    def ambient_vars(self) -> Tuple[str, ...]:
        return self.x_vars + self.y_vars + self.v_vars

    def h_in_xv(self) -> List[Polynomial]:
        """The h_j rewritten over (x, y, v) with each y_i renamed v_i."""
        return [
            Polynomial(self.x_vars + self.v_vars, h.terms).in_variables(self.ambient_vars)
            for h in self.constraints_h
        ]

    def x_halfwidths(self) -> Tuple[float, ...]:
        return self.box.halfwidths[: self.n]

    def y_halfwidths(self) -> Tuple[float, ...]:
        return self.box.halfwidths[self.n :]

    def coupling_full(self) -> Polynomial:
        """phi minus the offset, over the full (x, y, v) variable list."""
        return self.phi.in_variables(self.ambient_vars) - self.offset.in_variables(
            self.ambient_vars
        )

    def fit_variables(self) -> Tuple[str, ...]:
        """Outer variables the value polynomial ranges over.

        All x-variables plus exactly the y-variables that phi itself
        mentions; y-variables that only appear through the offset stay out
        of the fit.
        """
        used = set()
        for alpha in self.phi.terms:
            for name, e in zip(self.phi.variables, alpha):
                if e:
                    used.add(name)
        return self.x_vars + tuple(y for y in self.y_vars if y in used)

    def min_order(self) -> int:
        """Smallest admissible relaxation order for the value-function fit."""
        k = math.ceil(self.phi.degree / 2)
        for h in self.constraints_h:
            k = max(k, math.ceil(h.degree / 2))
        return max(k, 1)

    def degree_report(self) -> Dict[str, object]:
        return {
            "objective": self.objective_f.degree,
            "phi": self.phi.degree,
            "g": [g.degree for g in self.constraints_g],
            "h": [h.degree for h in self.constraints_h],
            "min_order": self.min_order(),
        }

    def cache_key(self) -> str:
        payload = "|".join(
            [
                ",".join(self.x_vars),
                ",".join(self.y_vars),
                self.objective_f.render(),
                ";".join(g.render() for g in self.constraints_g),
                ";".join(h.render() for h in self.constraints_h),
                self.phi.render(),
                self.offset.render(),
                ",".join(repr(c) for c in self.box.halfwidths),
            ]
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def _require(doc: dict, key: str):
    if key not in doc:
        raise ProblemFormatError(f"missing section {key!r}")
    return doc[key]


def _names(variables: dict, key: str) -> Tuple[str, ...]:
    names = _require(variables, key)
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ProblemFormatError(f"'variables.{key}' must be a list of names")
    return tuple(names)


def _bound(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFormatError(f"{where} must be a number, got {value!r}")
    return float(value)


def _parse_section(text, variables, section: str) -> Polynomial:
    if not isinstance(text, str):
        raise ProblemFormatError(f"section {section!r} must be an expression string")
    try:
        return parse_polynomial(text, variables)
    except ParseError as err:
        raise ProblemFormatError(f"in section {section!r}: {err}") from err


def _inner_names(y_vars: Sequence[str]) -> Tuple[str, ...]:
    if len(y_vars) == 1:
        names = ("v",)
    else:
        names = tuple(f"v{i + 1}" for i in range(len(y_vars)))
    return names


def load_problem(source: Union[str, Path], name: str = "") -> MpecProblem:
    """Load an instance from a YAML document (path or literal text)."""
    text = source
    if isinstance(source, Path) or (
        isinstance(source, str) and "\n" not in source and source.endswith((".yaml", ".yml"))
    ):
        path = Path(source)
        text = path.read_text()
        name = name or path.stem
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ProblemFormatError(f"invalid document: {err}") from err
    if not isinstance(doc, dict):
        raise ProblemFormatError("document must be a mapping")

    variables = _require(doc, "variables")
    if not isinstance(variables, dict):
        raise ProblemFormatError("'variables' must contain x and y lists")
    x_vars = _names(variables, "x")
    y_vars = _names(variables, "y")
    if not x_vars or not y_vars:
        raise ProblemFormatError("need at least one x and one y variable")
    v_vars = _inner_names(y_vars)
    z_vars = x_vars + y_vars
    ambient = z_vars + v_vars
    repeated = sorted({v for v in ambient if ambient.count(v) > 1})
    if repeated:
        raise ProblemFormatError(
            f"variable names {repeated} repeated or reserved for the inner variables"
        )

    objective = _parse_section(_require(doc, "objective"), z_vars, "objective")
    g_list = _require(doc, "A")
    h_list = _require(doc, "B")
    if not isinstance(g_list, list) or not isinstance(h_list, list):
        raise ProblemFormatError("'A' and 'B' must be lists of expressions")
    if not h_list:
        raise ProblemFormatError("'B' must contain at least one constraint")
    gs = tuple(
        _parse_section(s, z_vars, f"A[{i}]") for i, s in enumerate(g_list)
    )
    hs = tuple(
        _parse_section(s, z_vars, f"B[{i}]") for i, s in enumerate(h_list)
    )
    phi = _parse_section(_require(doc, "phi"), ambient, "phi")
    offset = Polynomial.zero(z_vars)
    if "offset" in doc and doc["offset"] is not None:
        offset = _parse_section(doc["offset"], z_vars, "offset")

    m_value = _require(doc, "M")
    if isinstance(m_value, dict):
        missing = [v for v in z_vars if v not in m_value]
        if missing:
            raise ProblemFormatError(f"M missing entries for {missing}")
        bounds = [_bound(m_value[v], f"M[{v!r}]") for v in z_vars]
    else:
        bounds = [_bound(m_value, "M")] * len(z_vars)
    if not all(0 < b < math.inf for b in bounds):
        raise ProblemFormatError("M must be positive and finite")
    box = OmegaBox(halfwidths=tuple(math.sqrt(b) for b in bounds))

    return MpecProblem(
        x_vars=x_vars,
        y_vars=y_vars,
        v_vars=v_vars,
        objective_f=objective,
        constraints_g=gs,
        constraints_h=hs,
        phi=phi,
        box=box,
        offset=offset,
        name=name or "instance",
    )


def bundled_path(name: str) -> Path:
    """Filesystem path of one of the bundled golden instances."""
    if name not in BUNDLED_INSTANCES:
        raise KeyError(f"unknown bundled instance {name!r}; have {BUNDLED_INSTANCES}")
    return Path(str(resources.files("mpecsos").joinpath(f"instances/{name}.yaml")))


def bundled_instance(name: str) -> MpecProblem:
    return load_problem(bundled_path(name), name=name)


# ----------------------------------------------------------------------
# product grids


def sym_grid(halfwidth: float, count: int) -> np.ndarray:
    """Symmetric grid with exact endpoints and an exact zero when odd."""
    grid = np.linspace(-halfwidth, halfwidth, count)
    if count % 2 == 1:
        grid[count // 2] = 0.0
    return grid


def grid_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Every point of the product of the axes, one row each, last axis fastest."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def box_grid(halfwidths: Sequence[float], count: int) -> np.ndarray:
    """The product of one ``sym_grid`` of ``count`` points per half-width."""
    return grid_points([sym_grid(c, count) for c in halfwidths])


# ----------------------------------------------------------------------
# sampled assumption checks


@dataclass
class ValidationCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    checks: List[ValidationCheck] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def warnings(self) -> List[str]:
        return [f"{c.name}: {c.detail}" for c in self.checks if not c.passed]


def validate_assumptions(problem: MpecProblem, sample_count: int = 4000) -> ValidationReport:
    """Sampled diagnostics for the standing assumptions.

    These are spot checks, not proofs: failures are reported as warnings
    and never raise.  Sampling uses a fixed seed so reports are
    reproducible.  A ``sample_count`` below 1 checks nothing and is
    refused with a ValueError.
    """
    if sample_count < 1:
        raise ValueError(f"sample_count must be at least 1, got {sample_count}")
    rng = np.random.default_rng(20240 + problem.n + problem.m)
    report = ValidationReport()

    # (a) every sampled point of B lies inside the box.  Candidates are
    # drawn from a 1.5x inflation of the box so escapes are visible; only
    # coordinates that some h_j actually constrains are inflated (the rest
    # are unbounded in B by construction and bounded only by the box).
    widths = np.array(problem.box.halfwidths)
    constrained = np.zeros(len(widths), dtype=bool)
    for h in problem.constraints_h:
        for alpha in h.terms:
            constrained |= np.array(alpha) > 0
    inflate = np.where(constrained, 1.5, 1.0)
    pts = rng.uniform(-inflate, inflate, size=(sample_count, len(widths))) * widths
    in_b = np.ones(sample_count, dtype=bool)
    for h in problem.constraints_h:
        in_b &= h.evaluate_array(pts) >= 0.0
    outside = in_b & (np.abs(pts) > widths + 1e-12).any(axis=1)
    n_out = int(outside.sum())
    report.checks.append(
        ValidationCheck(
            name="containment_in_box",
            passed=n_out == 0,
            detail=(
                "all sampled feasible points inside the box"
                if n_out == 0
                else f"{n_out}/{int(in_b.sum())} sampled feasible points escape the box"
            ),
        )
    )

    # (b) the inner set B(x) is nonempty over a grid of x inside the box.
    nx = max(3, int(round(sample_count ** (1.0 / max(problem.n, 1)))))
    nx = min(nx, 41)
    x_grid = grid_points([np.linspace(-c, c, nx) for c in problem.x_halfwidths()])
    nv = max(9, int(round(sample_count ** (1.0 / max(problem.m, 1)))))
    nv = min(nv, 201)
    v_grid = grid_points([np.linspace(-c, c, nv) for c in problem.y_halfwidths()])
    h_xv = problem.h_in_xv()
    ambient = problem.ambient_vars
    empty_count = 0
    for xp in x_grid:
        arrays = [np.full(1, val) for val in xp]
        arrays += [np.zeros(1)] * problem.m  # y slot unused by h(x, v)
        arrays += [v_grid[:, j] for j in range(problem.m)]
        feas = np.ones(v_grid.shape[0], dtype=bool)
        for h in h_xv:
            feas &= h.evaluate_broadcast(arrays) >= 0.0
        if not feas.any():
            empty_count += 1
    report.checks.append(
        ValidationCheck(
            name="inner_set_nonempty",
            passed=empty_count == 0,
            detail=(
                f"inner set nonempty on all {len(x_grid)} sampled x"
                if empty_count == 0
                else f"inner set empty at {empty_count}/{len(x_grid)} sampled x"
            ),
        )
    )

    report.notes.append(
        "compactness certificates are assumed; when the h_j do not already "
        "bound the variables, add a redundant ball constraint R^2 - |z|^2 "
        "to the B section"
    )
    return report
