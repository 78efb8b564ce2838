"""Tests of the benchmark's exact references, its checks and its tracer.

    python3 -m pytest bench/test_bench.py -q

The references are tested against independent computations (Monte Carlo
with scipy.linalg.expm, brute-force sums, closed-form kernel moments).
The negative tests run frameflow and show that each diffusivity-dependent
check rejects a reference whose diffusivity is scaled by 0.9 or 1.1.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import references as ref  # noqa: E402
import workloads as wls  # noqa: E402
from tracing import Tracer  # noqa: E402

ff = wls.require_checkout()


def random_half_steps(n, v, count, rng):
    """Skew matrices whose (i, j), i < j, entries are independent N(0, v)."""
    a = np.zeros((count, n, n))
    iu = np.triu_indices(n, 1)
    a[:, iu[0], iu[1]] = np.sqrt(v) * rng.standard_normal((count, len(iu[0])))
    return a - np.swapaxes(a, 1, 2)


# ----------------------------------------------------------------- flat


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("v", [0.025, 0.5, 2.0])
def test_kappa_matches_expm_monte_carlo(n, v):
    rng = np.random.default_rng(11)
    e = expm(random_half_steps(n, v, 40_000, rng))
    mean = e.mean(axis=0)
    se = e.std(axis=0) / np.sqrt(len(e))
    kappa = ref.half_step_kappa(n, v)
    assert np.all(np.abs(mean - kappa * np.eye(n)) <= 5 * se + 1e-12)


@pytest.mark.parametrize("epsilon", [0.01, 0.05, 0.2])
def test_half_step_variance_gives_documented_step_variance(epsilon):
    # The README of frameflow: per-step group noise variance is h0 in every
    # basis coefficient, uniformly in epsilon.  A step is two half steps and
    # a half step's coefficient variance is twice its angle variance.
    h0 = 0.1
    assert 2 * (2 * ref.half_step_angle_variance(epsilon, h0)) == pytest.approx(h0, rel=1e-15)


@pytest.mark.parametrize("n", [2, 3])
def test_flat_formula_matches_brute_force_sums(n):
    epsilon, h0 = 0.05, 0.1
    h = h0 * epsilon
    kappa = ref.half_step_kappa(n, ref.half_step_angle_variance(epsilon, h0))
    steps = np.arange(0, 12)
    msd, mean = ref.flat_msd_and_mean(n, epsilon, h0, steps)
    for m_steps, got_msd, got_mean in zip(steps, msd, mean):
        idx = np.arange(m_steps)
        brute = h * h * sum(kappa ** (2 * abs(i - j)) for i in idx for j in idx)
        assert got_msd == pytest.approx(brute, rel=1e-12, abs=1e-300)
        assert got_mean == pytest.approx(h * sum(kappa ** (2 * i + 1) for i in idx),
                                         rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("n", [2, 3])
def test_flat_formula_matches_expm_random_walk(n):
    """Monte Carlo of the discrete scheme itself, built from scipy's expm."""
    epsilon, h0, m_steps, count = 0.05, 0.1, 10, 10_000
    h = h0 * epsilon
    v = 50 * ref.half_step_angle_variance(epsilon, h0)   # large v: visible decorrelation
    rng = np.random.default_rng(5)
    g = np.broadcast_to(np.eye(n), (count, n, n)).copy()
    x = np.zeros((count, n))
    for _ in range(m_steps):
        g = g @ expm(random_half_steps(n, v, count, rng))
        x += h * g[:, :, 0]
        g = g @ expm(random_half_steps(n, v, count, rng))
    msd, mean = ref.flat_msd_and_mean(n, epsilon, h0, [m_steps], v=v)
    d2 = np.sum(x**2, axis=1)
    assert abs(d2.mean() - msd[0]) <= 5 * d2.std() / np.sqrt(count)
    assert abs(x[:, 0].mean() - mean[0]) <= 5 * x[:, 0].std() / np.sqrt(count)


def test_flat_reference_figures():
    msd2, mean2 = ref.flat_msd_and_mean(2, 0.05, 0.1, [4000])
    msd3, _ = ref.flat_msd_and_mean(3, 0.05, 0.1, [4000])
    assert msd2[0] == pytest.approx(7.9204, abs=5e-5)
    assert msd3[0] == pytest.approx(3.9726, abs=5e-5)
    assert mean2[0] == pytest.approx(0.200, abs=5e-4)


# ----------------------------------------------------------- hyperbolic


@pytest.mark.parametrize("t", [0.01, 0.1, 0.5, 1.0, 2.0])
def test_heat_kernel_normalisation_and_cosh_moment(t):
    total, cosh = ref.h2_heat_moments(t, [np.ones_like, np.cosh])[:, 0]
    assert total == pytest.approx(1.0, abs=1e-10)
    assert cosh == pytest.approx(np.exp(2 * t), rel=1e-10)


def test_heat_kernel_reference_figures_at_ct_1():
    total, cosh, rho2 = ref.h2_heat_moments(1.0, [np.ones_like, np.cosh, np.square])[:, 0]
    assert total == pytest.approx(1.0, abs=1e-10)
    assert cosh == pytest.approx(7.38906, abs=5e-6)
    assert rho2 == pytest.approx(5.2268, abs=5e-5)
    finer = ref.h2_heat_moments(1.0, [np.square], n_s=800, n_u=400)[0, 0]
    assert rho2 == pytest.approx(finer, rel=1e-10)


def test_heat_kernel_small_time_is_euclidean():
    # E rho^2 -> 4 t (planar heat flow of the Laplacian) as t -> 0.
    for t in (1e-4, 1e-3):
        rho2 = ref.h2_heat_moments(t, [np.square])[0, 0]
        assert rho2 / (4 * t) == pytest.approx(1.0, abs=2 * t)


# ---------------------------------------------------- checks on real output


@pytest.fixture(scope="module")
def flat_runs():
    out = {}
    for n in (2, 3):
        sim = ff.SimConfig(chart=f"euclidean:{n}", epsilon=0.05, t_final=0.25, seed=3)
        out[n] = ff.run_ensemble(ff.EnsembleSpec(sim=sim, paths=4000, jobs=1))
    return out


@pytest.fixture(scope="module")
def h2_run():
    # Four times the benchmark's paths: at 2000 paths a 10% error in c moves
    # E rho_T^2 by only 5-6 standard errors.
    wl = wls.EnsembleWorkload("hyp2-ensemble-x4", "hyperbolic2", 0.05, 0.5, 8000)
    spec = wl.prepare(ff, 7)
    return wl, spec, wl.call(ff, spec)


@pytest.mark.parametrize("n", [2, 3])
def test_flat_check_accepts_program_and_rejects_wrong_diffusivity(flat_runs, n):
    stats = flat_runs[n]
    v = ref.half_step_angle_variance(0.05, wls.H0)
    c = 4.0 / (n * (n - 1))
    assert wls.check_flat_ensemble(stats, n=n, epsilon=0.05, paths=4000) == []
    # The limiting diffusivity scales like 1/v.
    for scale in (0.9, 1.1):
        assert wls.check_flat_ensemble(stats, n=n, epsilon=0.05, paths=4000, v=v / scale)
        assert wls.check_flat_ensemble(stats, n=n, epsilon=0.05, paths=4000, c=c * scale)


def test_h2_check_accepts_program_and_rejects_wrong_diffusivity(h2_run):
    wl, spec, stats = h2_run
    assert wl.check(ff, spec, stats) == []
    for scale in (0.9, 1.1):
        fails = wls.check_h2_ensemble(stats, epsilon=wl.epsilon, paths=wl.paths, c=2.0 * scale)
        assert any("simulated E rho_T^2" in f for f in fails), fails
        assert any("oracle" in f for f in fails), fails


def test_simulate_check_accepts_program_and_rejects_tampered_files(tmp_path, monkeypatch):
    wl = wls.SimulateWorkload("hyp2-simulate-test", 0.05, 0.05, 2)
    monkeypatch.setattr(wls, "RESULTS", tmp_path)
    argv = wl.prepare(ff, 4)
    printed = wl.call(ff, argv)
    assert wl.check(ff, argv, printed) == []
    path = wl.out_dir / "path_0001.csv"
    lines = path.read_text().splitlines()
    cells = lines[7].split(",")
    cells[1] = repr(float(np.nextafter(float(cells[1]), np.inf)))  # x1 off by one ulp
    lines[7] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert any("batched" in f for f in wl.check(ff, argv, printed))
    cells[3] = repr(float(cells[3]) * (1 + 1e-6))                  # frame off by 1e-6
    lines[7] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert any("frame defect" in f for f in wl.check(ff, argv, printed))


# ----------------------------------------------------------------- tracer


def test_tracer_self_time_subtracts_children():
    tr = Tracer()
    inner = tr.wrap("inner", lambda: sum(range(20_000)))
    outer = tr.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    spans = tr.self_times(0, tr.mark())
    start, end = np.frombuffer(tr.start), np.frombuffer(tr.end)
    assert spans["inner"][0] == 3 and spans["outer"][0] == 1
    assert spans["outer"][1] + spans["inner"][1] == pytest.approx(end[0] - start[0], rel=1e-9)


def test_tracing_leaves_results_bitwise_unchanged_and_restores_modules():
    originals = {name: getattr(ff.perturbed_geodesic, name)
                 for name in ("_advance", "simulate_paths", "philox_stream", "chart_by_name")}
    make = lambda: ff.SimConfig(chart="hyperbolic2", epsilon=0.2, t_final=0.5, seed=9)  # noqa: E731
    plain = ff.simulate_paths(make(), range(3), record_group=True)
    tr = Tracer()
    tr.install(ff)
    try:
        traced = ff.perturbed_geodesic.simulate_paths(make(), range(3), record_group=True)
    finally:
        tr.uninstall()
    for name, fn in originals.items():
        assert getattr(ff.perturbed_geodesic, name) is fn
    assert np.array_equal(plain.xs, traced.xs) and np.array_equal(plain.gs, traced.gs)
    steps = wls.steps_for(0.2, 0.5)
    assert tr.counts["perturbed_geodesic.path_steps"] == 3 * steps
    assert tr.self_times(0, tr.mark())["group_process.advance"][0] == 2 * steps


# -------------------------------------------------------------- contract


def test_benchmark_names_every_metric_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "path_steps_per_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(wls.WORKLOADS)


def test_runner_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "flat2-ensemble",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
