"""The benchmark's tracer (perfbench/tracing.py) wraps package functions at
the module attributes their callers bind. Removing or renaming one of those
names must fail here, with the names listed, rather than as an
AttributeError in a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    table = load_tracing().bindings()
    assert table
    missing = sorted({
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in table
        if attr not in owner.__dict__
    })
    assert not missing, (
        "perfbench/tracing.py wraps names the package no longer defines: "
        + ", ".join(missing)
    )
