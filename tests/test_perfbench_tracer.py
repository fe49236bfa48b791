"""The benchmark tracer wraps public names of the package by name.

A rename in ``mpecsos`` would make every traced benchmark operation fail,
so these tests load ``perfbench/tracer.py`` as it stands and check that
each name it wraps resolves, that a traced solve reaches the wrappers as
often as its call structure says, and that its SDP description runs.  The
description reads every constraint coefficient as a dense array; its
counts on p1's value programs are pinned, so a change to the coefficient
format fails here before it changes the benchmark's ``sdp.coeff_*``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from mpecsos import driver
from mpecsos.driver import AlgoConfig
from mpecsos.polynomials import parse_polynomial
from mpecsos.problems import bundled_instance
from mpecsos.sdp import SdpStatus, solve
from mpecsos.sos import build_moment_relaxation
from mpecsos.valuefn import build_value_program

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_every_wrapped_name_resolves(tracer):
    for module_name, attr, *_ in tracer.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_traced_solve_counts_every_layer(tracer):
    # a call made through a local alias bypasses the wrapper, which the
    # name check above cannot see; these counts depend on call structure only
    traced = tracer.Tracer(timed=False)
    traced.install()
    try:
        driver.solve_mpec(bundled_instance("p1_mpec"), AlgoConfig(5e-4, 3, 4))
    finally:
        traced.uninstall()
    metrics = tracer.layer_metrics(traced.spans)
    want = {
        "driver.orders": 2,
        "valuefn.fits": 2,
        "sos.hierarchy_orders": 3,
        "sdp.solves": 5,
    }
    assert {name: metrics[name] for name in want} == want


def test_describe_sdp_reads_a_moment_relaxation(tracer):
    f = parse_polynomial("x", ["x"])
    g = parse_polynomial("1 - x^2", ["x"])
    _, sdp = build_moment_relaxation(f, [g], 2)
    sol = solve(sdp)
    info = tracer._describe_sdp((sdp,), {}, sol)
    assert info["m"] == sdp.num_constraints
    assert 0 < info["coeff_nnz"] <= info["coeff_entries"]
    assert info["status"] == sol.status.value
    assert info["iterations"] == sol.iterations


@pytest.mark.parametrize(
    "order, m, entries, nnz",
    [(3, 84, 52_384, 1_028), (4, 165, 363_750, 3_670), (5, 286, 1_805_302, 10_552)],
)
def test_describe_sdp_counts_on_value_programs(tracer, order, m, entries, nnz):
    _, sdp = build_value_program(bundled_instance("p1_mpec"), order)
    sol = SimpleNamespace(status=SdpStatus.OPTIMAL, iterations=0)
    info = tracer._describe_sdp((sdp,), {}, sol)
    assert (info["m"], info["coeff_entries"], info["coeff_nnz"]) == (m, entries, nnz)
