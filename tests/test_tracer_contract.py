"""The benchmark's tracer patches frameflow attributes by name.

``bench/tracing.py`` wraps layer functions under the module attributes
through which frameflow calls them.  Installing it here, in the tier-1
suite, makes a renamed or removed attribute fail these tests and not only
the benchmark's own.
"""

import importlib.util
from pathlib import Path

import numpy as np

import frameflow
import frameflow.cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_installs_runs_and_uninstalls():
    hom = frameflow.homogenize
    before = dict(vars(hom)), dict(vars(frameflow.perturbed_geodesic)), dict(vars(frameflow.cli))
    tracer = load_tracer()
    tracer.install(frameflow)
    try:
        out, alive = hom.oracle_hyperbolic_bm(2.0, np.array([0.1, 0.2]), 50, np.random.default_rng(0))
    finally:
        tracer.uninstall()
    after = dict(vars(hom)), dict(vars(frameflow.perturbed_geodesic)), dict(vars(frameflow.cli))
    assert all(a == b for a, b in zip(before, after))
    assert alive.all() and out.shape == (50, 2, 2)
    # One transition per row and interval, each kept.
    assert tracer.counts["homogenize.oracle.proposals"] == 100
    assert tracer.counts["homogenize.oracle.kept"] == 100
