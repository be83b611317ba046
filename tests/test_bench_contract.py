"""The traced benchmark's contract with the package: every entry point
``perfbench/tracer.py`` wraps still exists, and its counters still read
the results they wrap.  The tracer file is loaded as it is, not edited."""

import importlib.util
from pathlib import Path

import metanov
from metanov import oracle

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _tracer()
    for mod, attr in tracer.SPANS.keys() | tracer.COUNTED.keys() | tracer.PRODUCTS.keys():
        assert callable(getattr(getattr(metanov, mod), attr)), (mod, attr)


def test_tracer_counts_one_oracle_component():
    tracer = _tracer()
    with tracer.Tracer() as t:
        dim = oracle.quotient_dimension(oracle.preset("wnov2"), {1: 1, 2: 1, 3: 1})
    assert dim == 9
    layer = t.per_layer()
    assert layer["oracle.cols"] == 12
    assert layer["oracle.rank"] == 3
    assert layer["oracle.components"] == 1
    # uninstalled: the package's own functions are back
    assert oracle.quotient_dimension.__module__ == "metanov.oracle"
