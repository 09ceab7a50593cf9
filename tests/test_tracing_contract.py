"""The benchmark traces package functions by name; each name must exist.

``bench/tracing.py`` lists, per module of the package, the functions the
benchmark wraps. A name that is deleted or renamed still lets an untraced
benchmark run pass, so the contract is checked here.
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
