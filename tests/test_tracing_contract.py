"""The benchmark traces package functions by name; each name must exist.

``bench/tracing.py`` lists, per module of the package, the functions the
benchmark wraps. A name that is deleted or renamed still lets an untraced
benchmark run pass, so the contract is checked here. A traced function is
timed only while something the benchmark runs still calls it, so the kernels
that reach traced names only through one another keep those calls.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from helpers import fresh_python

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_the_benchmark_imports_load_every_traced_layer():
    # bench/run.py imports these before Tracer.install looks each layer up in sys.modules
    code = "import sys, nhrlc, nhrlc.cli, nhrlc.report; print(*sorted(sys.modules))"
    loaded = fresh_python("-c", code).stdout.split()
    assert not [layer for layer in _traced() if f"nhrlc.{layer}" not in loaded]


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in _traced().items() for name in names]
)
def test_traced_name_is_a_callable_of_its_layer(layer, name):
    module = importlib.import_module(f"nhrlc.{layer}")
    assert callable(getattr(module, name, None)), f"nhrlc.{layer}.{name}"


def _count_calls(monkeypatch, module, name) -> list:
    """Count the calls a module makes through its global ``name``."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_kernels_still_call_their_traced_callees(monkeypatch):
    # the benchmark reaches these traced names only through the kernels that call them
    from nhrlc import CircuitParams, eigensystem, gain_hamiltonian, metric, positive_pair
    from nhrlc import pseudofermion

    params = CircuitParams.from_rates(0.3, 1.0)
    system = eigensystem(params)
    construct = _count_calls(monkeypatch, pseudofermion, "pf_construct")
    pf = pseudofermion.pf_identify(params, "plus")
    assert len(construct) == 1
    roots = _count_calls(monkeypatch, pseudofermion, "sqrt_pos_hermitian")
    partner = _count_calls(monkeypatch, pseudofermion, "susy_partner")
    pseudofermion.fermionize(pf, positive_pair(system))
    assert (len(roots), len(partner)) == (2, 1)
    maps = _count_calls(monkeypatch, metric, "antilinear_u")
    metric.similar_hamiltonian_via_u(system, gain_hamiltonian(params))
    assert len(maps) == 4


def test_the_traced_rk_bound_is_the_one_route_agreement_calls(monkeypatch):
    # the tracer swaps report.rk_tolerance by identity, so it is the dynamics function,
    # and the benchmark reaches it only through route_agreement's call per RK pair
    from nhrlc import CircuitParams, InitialData, dynamics, errors, report, uniform_grid

    assert report.rk_tolerance is dynamics.rk_tolerance
    assert report.TOLERANCES is errors.TOLERANCES and report.exceeds is errors.exceeds
    bounds = _count_calls(monkeypatch, dynamics, "rk_tolerance")
    init, grid = InitialData(1.0, 0.0, 1.0), uniform_grid(1.0, 0.1)
    _, pairs = dynamics.cross_check(CircuitParams.from_rates(0.3, 1.0), init, grid)
    rk_pairs = [pair for pair in pairs if "rk" in pair[:2]]
    assert len(rk_pairs) == len(bounds) == 2
