"""The benchmark's tracer (perfbench/tracing.py) wraps package functions at
the module attributes their callers bind. Removing or renaming one of those
names must fail here, with the names listed, rather than as an
AttributeError in a traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

from traceaug import augment
from traceaug.augment import AugmentConfig
from traceaug.distributions import BurstSizeDistribution
from traceaug.rng import RandomSource
from traceaug.traces import fit_length

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


def test_a_net_batch_call_records_one_span_per_stage():
    tracer = load_tracing().Tracer()
    row = fit_length(np.array([-1] * 25 + [1] * 2 + [-1] * 12 + [1] + [-1] * 9), 60)
    dist = BurstSizeDistribution(np.array([1, 2]), np.array([1, 1]))
    tracer.install()
    try:
        augment.net_augment_batch(np.stack([row] * 4), AugmentConfig(), dist, RandomSource(0))
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    for stage in ("augment.resize", "augment.insert", "augment.merge"):
        assert names.count(stage) == 1, names
