"""Spans and counters recorded from outside the solver.

The tracer replaces public functions by wrappers in the module where each
name is looked up at call time (``mpecsos.driver`` imported
``certify_feasibility`` by name, so wrapping it in ``mpecsos.sos`` would miss
every call the driver makes).  Each call becomes one span with its name,
start, end, parent and a few facts read off its arguments and result.

With ``timed=False`` the same wrappers run with a clock that always reads
zero: the counts are still recorded but no time is taken, which is how the
untraced run gets the counts the self-check compares.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

SDP_STATUSES = (
    "Optimal",
    "IterationLimit",
    "PrimalInfeasible",
    "DualInfeasible",
    "NumericalTrouble",
)

# span names whose nearest enclosing span attributes an SDP solve to a role
ROLES = {"valuefn.fit": "fit", "sos.certify": "certify", "sos.hierarchy": "hierarchy"}


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _describe_sdp(args, kwargs, sol) -> dict:
    problem = args[0]
    arrays = [a for con in problem.constraints for a in con.coeffs.values()]
    return {
        "m": problem.num_constraints,
        "coeff_entries": sum(a.size for a in arrays),
        "coeff_nnz": sum(int(np.count_nonzero(a)) for a in arrays),
        "status": sol.status.value,
        "iterations": sol.iterations,
    }


def _describe_certify(args, kwargs, res) -> dict:
    return {"status": res.status.value, "residual": res.certificate_residual}


# (module, attribute, span name, describe) -- every name wrapped where the
# caller looks it up; ``mpecsos.sos.solve`` also catches the value fit's SDP,
# which reaches it through ``solve_sos_identity``
WRAPPED = (
    ("mpecsos.driver", "solve_mpec", "driver", lambda a, k, r: {"orders": len(r.records)}),
    ("mpecsos.driver", "compute_value_approximation", "valuefn.fit",
     lambda a, k, r: {"identity_error": r.identity_error}),
    ("mpecsos.valuefn", "compute_value_approximation", "valuefn.fit",
     lambda a, k, r: {"identity_error": r.identity_error}),
    ("mpecsos.valuefn", "build_value_program", "valuefn.build", None),
    ("mpecsos.driver", "certify_feasibility", "sos.certify", _describe_certify),
    ("mpecsos.driver", "minimize_hierarchy", "sos.hierarchy", None),
    ("mpecsos.sos", "build_moment_relaxation", "sos.relax_build", None),
    ("mpecsos.sos", "solve_moment_relaxation", "sos.relax_solve", None),
    ("mpecsos.sos", "check_flatness", "sos.flatness", lambda a, k, r: {"flat": bool(r[0])}),
    ("mpecsos.sos", "extract_atoms", "sos.extract", lambda a, k, r: {"atoms": len(r)}),
    ("mpecsos.sos", "solve", "sdp.solve", _describe_sdp),
)


class Tracer:
    """Installs the wrappers and keeps the spans of the current pass.

    A call that raises keeps its span but records no facts.
    """

    def __init__(self, timed: bool):
        self.clock: Callable[[], float] = time.perf_counter if timed else (lambda: 0.0)
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._originals = []

    def install(self) -> None:
        for module_name, attr, name, describe in WRAPPED:
            module = importlib.import_module(module_name)
            inner = getattr(module, attr)
            self._originals.append((module, attr, inner))
            setattr(module, attr, self._wrap(inner, name, describe))

    def uninstall(self) -> None:
        for module, attr, inner in reversed(self._originals):
            setattr(module, attr, inner)
        self._originals.clear()

    def reset(self) -> None:
        self.spans = []

    def _wrap(self, inner, name, describe):
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = self.clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if describe is not None:
                span.info = describe(args, kwargs, result)
            return result

        return traced


def _role(spans: List[Span], span: Span) -> Optional[str]:
    parent = span.parent
    while parent is not None:
        role = ROLES.get(spans[parent].name)
        if role:
            return role
        parent = spans[parent].parent
    return None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of one pass, by the names in ``LAYER_METRICS``.

    ``problems.load_s`` is not a span: the worker times the load itself.
    """

    def named(name):
        return [s for s in spans if s.name == name]

    def seconds(name):
        return sum(s.seconds for s in named(name))

    child_seconds = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_seconds[s.parent] += s.seconds

    driver = [i for i, s in enumerate(spans) if s.name == "driver"]
    fits = named("valuefn.fit")
    certs = named("sos.certify")
    flats = named("sos.flatness")
    sdps = named("sdp.solve")
    roles = [_role(spans, s) for s in sdps]
    iterations = sum(s.info.get("iterations", 0) for s in sdps)
    solve_s = seconds("sdp.solve")
    residuals = [s.info.get("residual", math.nan) for s in certs]
    residuals = [r for r in residuals if not math.isnan(r)]

    out = {
        "driver.self_s": sum(spans[i].seconds - child_seconds[i] for i in driver),
        "driver.orders": sum(spans[i].info.get("orders", 0) for i in driver),
        "valuefn.fit_s": seconds("valuefn.fit"),
        "valuefn.fits": len(fits),
        "valuefn.build_s": seconds("valuefn.build"),
        "valuefn.identity_error_max": max(
            (s.info.get("identity_error", 0.0) for s in fits), default=0.0
        ),
        "sos.certify_s": seconds("sos.certify"),
        "sos.certify_calls": len(certs),
        "sos.certify_sdps": _ratio(roles.count("certify"), len(certs)),
        "sos.certify_decided_frac": _ratio(
            sum(s.info.get("status", "Unknown") != "Unknown" for s in certs), len(certs)
        ),
        "sos.certificate_residual_max": max(residuals, default=0.0),
        "sos.hierarchy_s": seconds("sos.hierarchy"),
        "sos.hierarchy_orders": sum(
            _role(spans, s) == "hierarchy" for s in named("sos.relax_build")
        ),
        "sos.relax_build_s": seconds("sos.relax_build"),
        "sos.flat_frac": _ratio(sum(s.info.get("flat", False) for s in flats), len(flats)),
        "sos.flatness_s": seconds("sos.flatness"),
        "sos.extract_s": seconds("sos.extract"),
        "sos.atoms": sum(s.info.get("atoms", 0) for s in named("sos.extract")),
        "sdp.solve_s": solve_s,
        "sdp.solves": len(sdps),
        "sdp.iterations": iterations,
        "sdp.s_per_iteration": _ratio(solve_s, iterations),
        "sdp.limit_iterations": sum(
            s.info["iterations"] for s in sdps if s.info.get("status") == "IterationLimit"
        ),
        "sdp.m_max": max((s.info.get("m", 0) for s in sdps), default=0),
        "sdp.coeff_entries": sum(s.info.get("coeff_entries", 0) for s in sdps),
        "sdp.coeff_nnz": sum(s.info.get("coeff_nnz", 0) for s in sdps),
    }
    for role in ROLES.values():
        out[f"sdp.solve_s.{role}"] = sum(
            s.seconds for s, r in zip(sdps, roles) if r == role
        )
    for status in SDP_STATUSES:
        out[f"sdp.status.{status}"] = sum(s.info.get("status") == status for s in sdps)
    return out


# name -> (unit, better); times are in "s" and everything else is exact
# given the BLAS thread count, which is what the self-check compares
LAYER_METRICS = {
    "driver.self_s": ("s", "lower"),
    "driver.orders": ("count", "lower"),
    "valuefn.fit_s": ("s", "lower"),
    "valuefn.fits": ("count", "lower"),
    "valuefn.build_s": ("s", "lower"),
    "valuefn.identity_error_max": ("abs", "lower"),
    "sos.certify_s": ("s", "lower"),
    "sos.certify_calls": ("count", "lower"),
    "sos.certify_sdps": ("sdp/call", "lower"),
    "sos.certify_decided_frac": ("frac", "higher"),
    "sos.certificate_residual_max": ("norm", "lower"),
    "sos.hierarchy_s": ("s", "lower"),
    "sos.hierarchy_orders": ("count", "lower"),
    "sos.relax_build_s": ("s", "lower"),
    "sos.flat_frac": ("frac", "higher"),
    "sos.flatness_s": ("s", "lower"),
    "sos.extract_s": ("s", "lower"),
    "sos.atoms": ("count", "higher"),
    "sdp.solve_s": ("s", "lower"),
    "sdp.solve_s.fit": ("s", "lower"),
    "sdp.solve_s.certify": ("s", "lower"),
    "sdp.solve_s.hierarchy": ("s", "lower"),
    "sdp.solves": ("count", "lower"),
    "sdp.iterations": ("count", "lower"),
    "sdp.s_per_iteration": ("s", "lower"),
    "sdp.status.Optimal": ("count", "higher"),
    "sdp.status.IterationLimit": ("count", "lower"),
    "sdp.status.PrimalInfeasible": ("count", "higher"),
    "sdp.status.DualInfeasible": ("count", "lower"),
    "sdp.status.NumericalTrouble": ("count", "lower"),
    "sdp.limit_iterations": ("count", "lower"),
    "sdp.m_max": ("count", "lower"),
    "sdp.coeff_entries": ("count", "lower"),
    "sdp.coeff_nnz": ("count", "lower"),
    "problems.load_s": ("s", "lower"),
}

EXACT_METRICS = tuple(name for name, (unit, _) in LAYER_METRICS.items() if unit != "s")
