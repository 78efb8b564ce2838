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


def test_tracer_counts_two_group_half_steps_per_hyperbolic2_step():
    # The benchmark's own tests count two traced `_advance` calls per
    # hyperbolic2 step: the chain forms its turns a sub-block at a time,
    # and `_advance` still applies each half-step.  The traced results
    # must be bitwise those of an untraced run.
    pg = frameflow.perturbed_geodesic
    make = lambda: frameflow.SimConfig(chart="hyperbolic2", epsilon=0.2, t_final=0.2, seed=9)  # noqa: E731
    steps = 50                                  # t_final / (h0 eps^2)
    plain = frameflow.simulate_paths(make(), range(3), record_group=True)
    before = [dict(vars(m)) for m in (frameflow.homogenize, pg, frameflow.group_process,
                                      frameflow.cli)]
    tracer = load_tracer()
    tracer.install(frameflow)
    try:
        traced = pg.simulate_paths(make(), range(3), record_group=True)
    finally:
        tracer.uninstall()
    after = [dict(vars(m)) for m in (frameflow.homogenize, pg, frameflow.group_process,
                                     frameflow.cli)]
    assert all(a == b for a, b in zip(before, after))
    for field in ("xs", "us", "gs", "alive"):
        assert np.array_equal(getattr(plain, field), getattr(traced, field))
    assert tracer.counts["perturbed_geodesic.path_steps"] == 3 * steps
    assert tracer.self_times(0, tracer.mark())["group_process.advance"][0] == 2 * steps


def test_tracer_sees_the_batched_simulate_command(tmp_path, capsys):
    # `frameflow simulate` reaches the engine through the module attribute
    # the tracer wraps: one simulate_paths span for all three paths, every
    # path-step counted, and files byte-identical to an untraced run.
    argv = ["simulate", "--manifold", "hyperbolic2", "--epsilon", "0.2", "--t-final", "0.2",
            "--seed", "9", "--frames", "--group", "--output-times", "51", "--paths", "3"]
    steps = 50                                  # t_final / (h0 eps^2)
    assert frameflow.cli.main(argv + ["--output-dir", str(tmp_path / "plain")]) == 0
    tracer = load_tracer()
    tracer.install(frameflow)
    try:
        code = frameflow.cli.main(argv + ["--output-dir", str(tmp_path / "traced")])
    finally:
        tracer.uninstall()
    assert code == 0
    spans = tracer.self_times(0, tracer.mark())
    assert tracer.counts["perturbed_geodesic.path_steps"] == 3 * steps
    assert spans["perturbed_geodesic.simulate_paths"][0] == 1
    assert spans["cli.write"][0] == 3 and len(tracer.written) == 3
    names = [f"path_{p:04d}.csv" for p in range(3)]
    for name in names:
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_tracer_sees_one_noise_draw_per_chunk():
    # Each path draws a 128-step chunk of noise per call: on 3 hyperbolic2
    # paths of 300 steps the largest block is 3 x 128 steps of 2 normals,
    # and the block lengths add up to every path-step.
    cfg = frameflow.SimConfig(chart="hyperbolic2", epsilon=0.2, t_final=300 * 0.1 * 0.2**2,
                              seed=9)
    tracer = load_tracer()
    tracer.install(frameflow)
    try:
        frameflow.perturbed_geodesic.simulate_paths(cfg, range(3))
    finally:
        tracer.uninstall()
    assert tracer.counts["perturbed_geodesic.noise.bytes"] == 3 * 128 * 2 * 8
    assert tracer.counts["perturbed_geodesic.path_steps"] == 3 * 300
