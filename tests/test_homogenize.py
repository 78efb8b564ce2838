import concurrent.futures
import dataclasses
import logging
import os
import re
import time

import numpy as np
import pytest
from scipy import integrate, stats

from frameflow import (
    ConfigError,
    EnsembleSpec,
    NumericalAbort,
    SimConfig,
    effective_diffusivity,
    epsilon_sweep,
    hyperbolic_distance,
    ks_two_sample,
    msd_rate,
    oracle_euclidean_bm,
    oracle_hyperbolic_bm,
    perturbed_geodesic,
    philox_stream,
    run_ensemble,
    simulate_paths,
)
from frameflow.homogenize import (
    _advance_half_plane,
    _kolmogorov_sf,
    _radial_table,
    ks_vs_standard_normal,
    linear_fit,
)


def spec_for(chart="euclidean:2", epsilon=0.05, t_final=1.0, paths=400, seed=7, **kw):
    sim = SimConfig(chart=chart, epsilon=epsilon, t_final=t_final, seed=seed)
    return EnsembleSpec(sim=sim, paths=paths, **kw)


class TestConstants:
    def test_diffusivity_values(self):
        assert effective_diffusivity(2) == pytest.approx(2.0)
        assert effective_diffusivity(3) == pytest.approx(2.0 / 3.0)

    def test_msd_rates(self):
        assert msd_rate(2) == pytest.approx(8.0)
        assert msd_rate(3) == pytest.approx(4.0)


class TestEuclideanOracle:
    def test_msd_matches_gaussian_identity(self):
        rng = np.random.default_rng(0)
        n, c, m = 3, 0.7, 20_000
        times = np.array([0.25, 1.0])
        paths = oracle_euclidean_bm(n, c, times, m, rng)
        for k, t in enumerate(times):
            d2 = np.sum(paths[:, k, :] ** 2, axis=1)
            se = d2.std(ddof=1) / np.sqrt(m)
            assert abs(d2.mean() - 2 * n * c * t) < 4 * se

    def test_c2_gives_msd_8(self):
        rng = np.random.default_rng(1)
        paths = oracle_euclidean_bm(2, 2.0, np.array([1.0]), 40_000, rng)
        d2 = np.sum(paths[:, 0, :] ** 2, axis=1)
        se = d2.std(ddof=1) / np.sqrt(len(d2))
        assert abs(d2.mean() - 8.0) < 4 * se

    def test_coordinates_uncorrelated(self):
        rng = np.random.default_rng(2)
        paths = oracle_euclidean_bm(2, 1.0, np.array([1.0]), 40_000, rng)
        x, y = paths[:, 0, 0], paths[:, 0, 1]
        cov = np.mean(x * y)
        se = np.std(x * y, ddof=1) / np.sqrt(len(x))
        assert abs(cov) < 4 * se

    def test_x0_offset(self):
        rng = np.random.default_rng(3)
        x0 = np.array([5.0, -1.0])
        paths = oracle_euclidean_bm(2, 1e-12, np.array([1.0]), 10, rng, x0=x0)
        assert np.max(np.abs(paths[:, 0, :] - x0)) < 1e-5


def mckean_moment(t, f):
    """E f(rho_t) from McKean's kernel in its original form, by nested quad.

    p_t(rho) = sqrt(2) e^(-t/4) (4 pi t)^(-3/2)
               * int_rho^inf s e^(-s^2/(4t)) / sqrt(cosh s - cosh rho) ds,
    with area element 2 pi sinh(rho) d rho; s = rho + w^2 removes the
    inverse square root at s = rho.
    """
    top = t + 12.0 * np.sqrt(t) + 1.0

    def kernel(rho):
        def inner(w):
            s = rho + w * w
            gap = 2.0 * np.sinh(0.5 * (s + rho)) * np.sinh(0.5 * w * w)  # cosh s - cosh rho
            return s * np.exp(-s * s / (4.0 * t)) * 2.0 * w / np.sqrt(gap)
        val = integrate.quad(inner, 0.0, np.sqrt(top), limit=200, epsrel=1e-12)[0]
        return np.sqrt(2.0) * np.exp(-t / 4.0) * (4.0 * np.pi * t) ** -1.5 * val

    return integrate.quad(lambda r: f(r) * 2.0 * np.pi * np.sinh(r) * kernel(r), 0.0, top,
                          limit=200, epsrel=1e-10)[0]


def table_moment(radius, survival, antiderivative):
    """E f(rho) under the sampled law, which is uniform on each table cell."""
    return float(np.sum(np.diff(survival) * np.diff(antiderivative(radius)) / np.diff(radius)))


def advance(x, span, c, seed):
    """One transition of every row of ``x`` (in place); returns (alive, rho drawn)."""
    tables = {}
    alive = np.ones(len(x), dtype=bool)
    _advance_half_plane(x, alive, span, c, np.random.default_rng(seed), tables)
    (radius, survival), = tables.values()
    z = np.random.default_rng(seed).standard_normal((len(x), 2))
    rho = np.interp(np.exp(-0.5 * np.sum(z * z, axis=1)), survival, radius)
    return alive, rho


class TestHyperbolicOracle:
    @pytest.mark.parametrize("t", [1e-6, 0.05, 1.0, 10.0, 2000.0])
    def test_table_is_normalised(self, t):
        radius, survival = _radial_table(t)
        assert np.all(np.diff(survival) >= 0.0) and np.all(np.diff(radius) < 0.0)
        assert survival[-1] == pytest.approx(1.0, abs=1e-12)
        assert survival[0] < 1e-15

    @pytest.mark.parametrize("t", [0.05, 1.0])
    def test_table_moments_match_heat_kernel(self, t):
        radius, survival = _radial_table(t)
        # Laplacian(cosh rho) = 2 cosh rho, so E cosh rho_t = e^(2t).
        assert table_moment(radius, survival, np.sinh) == pytest.approx(np.exp(2 * t), rel=1e-5)
        assert table_moment(radius, survival, lambda r: r**3 / 3) == pytest.approx(
            mckean_moment(t, np.square), rel=1e-5)
        # The sampler draws from that law at heat time c dt: E cosh rho over 10^5 samples.
        out, alive = oracle_hyperbolic_bm(2.0, np.array([t / 2]), 100_000, np.random.default_rng(4))
        cosh = np.cosh(hyperbolic_distance(np.array([0.0, 1.0]), out[:, 0, :]))
        assert alive.all()
        assert abs(cosh.mean() - np.exp(2 * t)) < 5 * cosh.std() / np.sqrt(cosh.size)

    def test_short_time_locally_euclidean(self):
        # As t -> 0 the law tends to the planar Rayleigh law, P(rho > r) = e^(-r^2/(4t)),
        # with an O(t) correction.
        for t in (1e-6, 1e-4, 1e-3):
            radius, survival = _radial_table(t)
            assert np.max(np.abs(survival - np.exp(-radius**2 / (4 * t)))) < 0.2 * t

    def test_transition_moves_by_sampled_distance(self):
        rng = np.random.default_rng(5)
        x = np.column_stack([rng.uniform(-5.0, 5.0, 5000), np.exp(rng.uniform(-5.0, 5.0, 5000))])
        start = x.copy()
        alive, rho = advance(x, 0.25, 2.0, seed=6)
        assert alive.all() and np.all(x[:, 1] > 0.0)
        np.testing.assert_allclose(hyperbolic_distance(start, x), rho, rtol=0, atol=1e-12)

    def test_chapman_kolmogorov(self):
        # 20 exact transitions of t/20 have the law of one transition of t.
        c, t, m = 2.0, 0.5, 20_000
        x0 = np.array([0.0, 1.0])
        one, _ = oracle_hyperbolic_bm(c, np.array([t]), m, np.random.default_rng(7))
        many, _ = oracle_hyperbolic_bm(c, np.linspace(t / 20, t, 20), m, np.random.default_rng(8))
        _, p = ks_two_sample(hyperbolic_distance(x0, one[:, -1]), hyperbolic_distance(x0, many[:, -1]))
        assert p > 0.01

    def test_law_invariant_under_isometries(self):
        # (0,1) -> (5,3) is an isometry image; the radial law is unchanged.
        rng = np.random.default_rng(6)
        c, t = 2.0, 0.25
        a, alive_a = oracle_hyperbolic_bm(c, np.array([t]), 4000, rng)
        b, alive_b = oracle_hyperbolic_bm(c, np.array([t]), 4000, rng, x0=np.array([5.0, 3.0]))
        rho_a = hyperbolic_distance(np.array([0.0, 1.0]), a[alive_a][:, 0, :])
        rho_b = hyperbolic_distance(np.array([5.0, 3.0]), b[alive_b][:, 0, :])
        stat, p = ks_two_sample(rho_a, rho_b)
        assert p > 0.01

    def test_tiny_diffusivity_freezes(self):
        rng = np.random.default_rng(4)
        out, alive = oracle_hyperbolic_bm(1e-14, np.array([1.0]), 100, rng)
        assert alive.all()
        np.testing.assert_allclose(out[:, 0, 0], 0.0, atol=1e-5)
        np.testing.assert_allclose(out[:, 0, 1], 1.0, atol=1e-5)

    def test_huge_span_stays_on_half_plane(self):
        # Heat time 10: distances near 10, every row on the half-plane.
        out, alive = oracle_hyperbolic_bm(2.0, np.array([5.0]), 200, np.random.default_rng(17))
        assert alive.all()
        assert np.all(np.isfinite(out)) and np.all(out[:, 0, 1] > 0.0)
        # Heat time 2000: e^rho overflows, so every row is dropped, and it
        # keeps the last position it had.
        out, alive = oracle_hyperbolic_bm(2.0, np.array([5.0, 1005.0]), 200, np.random.default_rng(17))
        assert not alive.any()
        np.testing.assert_array_equal(out[:, 1], out[:, 0])
        assert np.all(out[:, 0, 1] > 0.0)


class TestKsTwoSample:
    def test_identical_samples(self):
        a = np.linspace(0.0, 1.0, 100)
        stat, p = ks_two_sample(a, a)
        assert stat == 0.0 and p == 1.0

    def test_disjoint_supports(self):
        stat, _ = ks_two_sample(np.arange(100.0), np.arange(200.0, 300.0))
        assert stat == 1.0

    def test_size_floor(self):
        with pytest.raises(ConfigError):
            ks_two_sample(np.arange(10.0), np.arange(100.0))
        with pytest.raises(ConfigError):
            ks_two_sample(np.array([]), np.arange(100.0))

    def test_calibration_under_null(self):
        # two independent N(0,1) samples of size 1e4: p > 0.01 in >= 95/100
        rng = np.random.default_rng(8)
        rejections = 0
        for _ in range(100):
            _, p = ks_two_sample(rng.standard_normal(10_000), rng.standard_normal(10_000))
            if p <= 0.01:
                rejections += 1
        assert rejections <= 5

    def test_constant_equal_samples(self):
        stat, p = ks_two_sample(np.zeros(100), np.zeros(100))
        assert stat == 0.0 and p == 1.0


def kolmogorov_edges(n):
    """d at each threshold where _kolmogorov_sf changes method, with its two
    float neighbours: n d = 0.5, 1 and n - 1; n d^2 = 0.754693, 2.2 and 4;
    n d^1.5 = 1.4; d = 0.5 and 1."""
    edges = [0.5 / n, 1.0 / n, (n - 1.0) / n, np.sqrt(0.754693 / n), np.sqrt(2.2 / n),
             np.sqrt(4.0 / n), (1.4 / n) ** (2.0 / 3.0), 0.5, 1.0]
    return [x for d in edges for x in (np.nextafter(d, 0.0), d, np.nextafter(d, 1.0))]


class TestKolmogorovTail:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 25, 140, 141, 1000, 2000, 10_000, 100_000, 100_001])
    def test_matches_scipy_kstwo_at_every_branch_edge(self, n):
        # Past n = 10^4 the edges alone: scipy's Durbin loop is per point there.
        grid = 41 if n <= 10_000 else 0
        ds = kolmogorov_edges(n) + list(np.linspace(0.0, 1.0, grid)) + \
            list(np.sqrt(np.linspace(0.01, 30.0, grid) / n))
        for d in ds:
            ref = stats.kstwo.sf(d, n)
            got = _kolmogorov_sf(n, float(d))
            assert 0.0 <= got <= 1.0
            if ref >= 1e-12:
                assert got == pytest.approx(ref, rel=1e-9), (n, d)
            else:
                assert got < 2e-12, (n, d)

    def test_pelz_good_below_q_underflow(self):
        # n > 100000 and sqrt(n) d < 0.0418: exp(-pi^2 / (8 n d^2)) underflows.
        n = 10**7
        assert _kolmogorov_sf(n, 0.04 / np.sqrt(n)) == stats.kstwo.sf(0.04 / np.sqrt(n), n) == 1.0


class TestKsInputs:
    # Both helpers read their samples through one check; before it, an empty
    # or NaN sample returned (nan, nan), with a scipy warning for kstest.
    @pytest.mark.parametrize("bad", [[], [0.1, np.nan, 0.3], [np.inf, 0.0]])
    def test_one_sample_rejects_empty_and_non_finite(self, bad):
        with pytest.raises(ConfigError):
            ks_vs_standard_normal(np.array(bad, dtype=float))

    @pytest.mark.parametrize("side", [0, 1])
    def test_two_sample_rejects_non_finite(self, side):
        good = np.linspace(-1.0, 1.0, 100)
        bad = good.copy()
        bad[17] = np.nan
        with pytest.raises(ConfigError):
            ks_two_sample(*((bad, good) if side == 0 else (good, bad)))

    def test_one_sample_is_scipy_kstest(self):
        z = np.random.default_rng(4).normal(0.05, 1.0, size=2000)
        res = stats.kstest(z, "norm")
        stat, p = ks_vs_standard_normal(z)
        # The normal CDF is math.erfc's, scipy's is its own: D agrees to an ulp of the CDF.
        assert stat == pytest.approx(res.statistic, abs=4.5e-16)
        assert p == pytest.approx(res.pvalue, rel=1e-9)


class TestRunEnsemble:
    def test_path_floor_enforced(self):
        with pytest.raises(ConfigError):
            spec_for(paths=50)

    def test_flat_msd_slope(self):
        stats = run_ensemble(spec_for(paths=400, epsilon=0.05, seed=7))
        slope, _, r2 = linear_fit(stats.times[1:], stats.msd[1:])
        assert abs(slope - 8.0) / 8.0 < 0.10
        assert r2 > 0.99
        assert stats.paths == 400
        assert stats.positions.shape == (21, 400, 2)
        assert np.all(stats.msd >= 0.0)

    def test_oracle_columns_present_for_flat_chart(self):
        stats = run_ensemble(spec_for(paths=150, epsilon=0.1, seed=1))
        assert stats.oracle_msd is not None
        np.testing.assert_allclose(stats.oracle_msd, 8.0 * stats.times, atol=1e-12)
        assert stats.ks_p is not None and len(stats.ks_p) == len(stats.times)
        assert stats.ks_p[0] == 1.0  # identical point masses at t = 0

    def test_flat_ks_rows_are_one_sample_against_the_finite_epsilon_mean(self):
        # Against oracle samples centred on x0, the last row read p = 7.0e-7.
        eps, n, t = 0.05, 3, 0.5
        stats = run_ensemble(spec_for(chart="euclidean:3", epsilon=eps, t_final=t,
                                      paths=2000, seed=2, jobs=1), record_frames=False)
        assert stats.ks_p[-1] > 0.01
        # x0 = 0, u0 = I, e0 = e1: the mean is (4 eps/(n-1)) e1.
        z = (stats.positions[-1, :, 0] - 4.0 * eps / (n - 1)) / np.sqrt(
            2.0 * effective_diffusivity(n) * t)
        stat, p = ks_vs_standard_normal(z)
        assert stats.ks_stat[-1] == pytest.approx(stat, rel=1e-12)
        assert stats.ks_p[-1] == pytest.approx(p, rel=1e-9)
        assert (stats.ks_stat[0], stats.ks_p[0]) == (0.0, 1.0)
        assert stats.oracle_scalar is None

    def test_paper_constant_at_n4(self):
        # The MSD slope 8/(n-1) = 8/3 and the normal law of x1 at n = 4, on
        # the two-pair group chain: 2000 paths of 2000 steps.
        stats = run_ensemble(spec_for(chart="euclidean:4", epsilon=0.05, t_final=0.5,
                                      paths=2000, seed=4417, jobs=1), record_frames=False)
        positive = stats.times > 0
        slope, _, r2 = linear_fit(stats.times[positive], stats.msd[positive])
        assert abs(slope - 8.0 / 3.0) / (8.0 / 3.0) < 0.10
        assert r2 > 0.99
        assert stats.ks_p[-1] > 0.01

    def test_jobs_do_not_change_results(self):
        spec1 = spec_for(paths=120, epsilon=0.1, seed=3, jobs=1)
        spec2 = spec_for(paths=120, epsilon=0.1, seed=3, jobs=3)
        a = run_ensemble(spec1)
        b = run_ensemble(spec2)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.msd, b.msd)

    def test_abort_fraction_fails_run(self):
        sim = SimConfig(chart="strip-test", epsilon=0.2, t_final=1.0, seed=0)
        spec = EnsembleSpec(sim=sim, paths=100)
        with pytest.raises(NumericalAbort):
            run_ensemble(spec)

    def test_flat_frames_parallel_transported(self):
        stats = run_ensemble(spec_for(paths=120, epsilon=0.1, seed=9))
        # trivial transport: every recorded frame equals u0 = I
        assert np.max(np.abs(stats.frames - np.eye(2))) < 1e-6


def run_logged(spec, caplog, **kw):
    """run_ensemble(spec) and the engine calls its simulate line reports."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="frameflow"):
        stats = run_ensemble(spec, **kw)
    [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("simulate:")]
    return stats, int(re.search(r"in (\d+) engine call\(s\)", line).group(1))


# An n = 2 path with frames holds 21 rows of x and u (6 values), 8 bytes
# each, its Philox stream, and its chunk arrays: on flat charts the angle
# chain's row of 257 numbers, which holds the noise and the directions too,
# the carried half-angle and the running sum of 2 directions; on
# hyperbolic2, 128 noise steps of 2 normals, 2 rows of 129 for the chunk
# directions, the 2 x 2 g of the matrix chain and its 16 steps of 2 turns
# (complex) and their tangents, and the 2 x 2 F and 16 steps of 3
# step-matrix entries of the half-plane stage.
PATH_BYTES = {chart: 8 * (21 * 6 + values) + perturbed_geodesic.STREAM_BYTES
              for chart, values in (("euclidean:2", 257 + 1 + 2),
                                    ("hyperbolic2",
                                     128 * 2 + 2 * 129 + 4 + 16 * 2 * 3 + 4 + 16 * 3))}


class TestFanOut:
    @pytest.mark.parametrize("chart", ["euclidean:2", "hyperbolic2"])
    def test_batches_and_jobs_leave_results_bitwise_unchanged(self, chart, monkeypatch, caplog):
        spec = spec_for(chart=chart, epsilon=0.1, t_final=0.5, paths=120, seed=5)
        one, calls = run_logged(spec, caplog)
        assert calls == 1
        monkeypatch.setattr(perturbed_geodesic, "BATCH_BYTES", 30 * PATH_BYTES[chart])
        # 30 paths a call: 4 calls, or 3 parts of 40 paths cut 30 + 10.
        for jobs, expected_calls in ((1, 4), (3, 6)):
            stats, calls = run_logged(dataclasses.replace(spec, jobs=jobs), caplog)
            assert calls == expected_calls
            for field in ("times", "positions", "frames", "msd", "msd_stderr", "oracle_msd",
                          "ks_stat", "ks_p"):
                np.testing.assert_array_equal(getattr(stats, field), getattr(one, field))
            assert (stats.oracle_scalar is None) == (chart == "euclidean:2")
            if stats.oracle_scalar is not None:
                np.testing.assert_array_equal(stats.oracle_scalar, one.oracle_scalar)

    def test_stage_seconds_add_up_over_the_engine_calls(self, monkeypatch):
        # 4 calls of 30 paths, 10 chunks each: every stage is timed, and the
        # stages fit in the run's wall time.
        monkeypatch.setattr(perturbed_geodesic, "BATCH_BYTES", 30 * PATH_BYTES["euclidean:2"])
        spec = spec_for(epsilon=0.1, t_final=1.2, paths=120, seed=5)
        t0 = time.perf_counter()
        stats = run_ensemble(spec)
        wall = time.perf_counter() - t0
        assert list(stats.stage_s) == ["draw", "chain", "frame", "record"]
        assert all(s >= 0.0 for s in stats.stage_s.values())
        assert 0.0 < sum(stats.stage_s.values()) <= wall

    def test_engine_calls_follow_the_byte_budget(self, monkeypatch, engine_calls):
        monkeypatch.setattr(perturbed_geodesic, "BATCH_BYTES", 30 * PATH_BYTES["euclidean:2"])
        spec = spec_for(epsilon=0.1, t_final=0.5, paths=120, seed=5)
        run_ensemble(spec)
        assert engine_calls == [30, 30, 30, 30]
        batches = perturbed_geodesic.path_batches(spec.sim, 120, True, False, parts=3)
        assert [len(b) for b in batches] == [30, 10, 30, 10, 30, 10]

    def test_pool_runs_under_a_patched_engine(self, engine_calls):
        # A pool pickles its task function; a partial of the patched
        # simulate_paths (this fixture's, or the bench tracer's wrapper)
        # raised "Can't pickle local object".
        spec = spec_for(epsilon=0.2, t_final=0.5, paths=120, seed=5)
        one = run_ensemble(spec)
        assert engine_calls == [120]
        two = run_ensemble(dataclasses.replace(spec, jobs=2))
        np.testing.assert_array_equal(two.positions, one.positions)

    def test_pool_workers_are_capped_by_the_cpu_count(self, monkeypatch):
        # 1000 jobs over 120 paths make 120 one-path calls; under fork a pool
        # starts all of its max_workers at once, so it must not ask for 120.
        # The fake pool runs the calls in this process and starts none.
        workers = []

        class FakePool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        spec = spec_for(epsilon=0.2, t_final=0.5, paths=120, seed=5)
        many = run_ensemble(dataclasses.replace(spec, jobs=1000))
        assert workers == [3]
        np.testing.assert_array_equal(many.positions, run_ensemble(spec).positions)

    def test_abort_record_does_not_depend_on_batches_or_jobs(self, monkeypatch):
        # Path 72 leaves the strip first, at t = 0.031.  One call lists the
        # aborts in step order; three calls concatenated listed path 6 first.
        sim = SimConfig(chart="strip-test", epsilon=0.1, t_final=0.2, seed=2)
        first = simulate_paths(sim, range(100)).aborts[0]
        messages = []
        for jobs, budget in ((1, None), (1, 7 * PATH_BYTES["euclidean:2"]), (3, None)):
            if budget is not None:
                monkeypatch.setattr(perturbed_geodesic, "BATCH_BYTES", budget)
            with pytest.raises(NumericalAbort) as abort:
                run_ensemble(EnsembleSpec(sim=sim, paths=100, jobs=jobs))
            messages.append(str(abort.value))
        assert messages == [messages[0]] * 3
        assert first[0] == 72 and messages[0].endswith(f"first record: {first}")

    def test_stats_read_the_step_grid_times(self):
        # At eps = 0.2 the t = 0.05 row is reached at step 12, t = 0.048; the
        # oracle MSD and the KS variance 2ct used 0.05, 4% off.
        eps = 0.2
        sim = SimConfig(chart="euclidean:2", epsilon=eps, t_final=1.0, seed=3,
                        output_times=(0.0, 0.05, 0.5, 1.0))
        stats = run_ensemble(EnsembleSpec(sim=sim, paths=400), record_frames=False)
        grid = simulate_paths(sim, [0], record_frames=False).times
        np.testing.assert_array_equal(stats.times, grid)
        assert stats.times[1] == pytest.approx(0.048, rel=1e-12)
        c = effective_diffusivity(2)
        np.testing.assert_array_equal(stats.oracle_msd, 2.0 * 2 * c * grid)
        # x0 = 0, u0 = I, e0 = e1: the mean is (4 eps/(n-1)) e1.
        for k in (1, 2, 3):
            z = (stats.positions[k, :, 0] - 4.0 * eps) / np.sqrt(2.0 * c * grid[k])
            stat, p = ks_vs_standard_normal(z)
            assert stats.ks_stat[k] == pytest.approx(stat, rel=1e-12)
            assert stats.ks_p[k] == pytest.approx(p, rel=1e-9)


class TestEpsilonSweep:
    def test_requires_epsilon_list(self):
        with pytest.raises(ConfigError):
            epsilon_sweep(spec_for(paths=150), ())

    def test_monotone_validation(self):
        with pytest.raises(ConfigError):
            epsilon_sweep(spec_for(paths=150), (0.05, 0.1))

    def test_non_finite_epsilon_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            epsilon_sweep(spec_for(paths=150), (np.inf, 0.1))

    def test_reproducible_table(self):
        spec = spec_for(paths=150, seed=12)
        rows_a = epsilon_sweep(spec, (0.2, 0.1))
        rows_b = epsilon_sweep(spec, (0.2, 0.1))
        assert [dataclasses.asdict(r) for r in rows_a] == \
               [dataclasses.asdict(r) for r in rows_b]
        assert [r.epsilon for r in rows_a] == [0.2, 0.1]
        for row in rows_a:
            assert np.isfinite(row.msd_rel_err)
            assert 0.0 <= row.ks_p <= 1.0

    def test_final_row_within_tolerances(self):
        # Discrepancies shrink toward the limit; only the smallest-epsilon
        # row is gated (no rate asserted).
        spec = spec_for(paths=800, seed=6)
        rows = epsilon_sweep(spec, (0.2, 0.1, 0.05, 0.02))
        final = rows[-1]
        assert final.msd_rel_err < 0.10
        assert final.ks_p > 0.01

    @pytest.mark.parametrize("chart", ["euclidean:2", "hyperbolic2"])
    def test_row_reads_the_last_output_time_of_its_run(self, chart):
        # Against the flat rate 8/(n-1), the hyperbolic2 row read 0.2545:
        # E rho^2 at c T = 1 is 5.23, not 4.
        spec = spec_for(chart=chart, epsilon=0.05, t_final=0.5, paths=1000, seed=1)
        row, = epsilon_sweep(spec, (0.05,))
        stats = run_ensemble(spec, record_frames=False)
        target = stats.oracle_msd[-1]
        assert row.msd_rel_err == abs(stats.msd[-1] - target) / target
        assert (row.ks_stat, row.ks_p) == (stats.ks_stat[-1], stats.ks_p[-1])
        assert row.msd_rel_err < 0.10


def test_linear_fit_recovers_line():
    x = np.linspace(0.0, 1.0, 11)
    slope, intercept, r2 = linear_fit(x, 3.0 * x + 0.5)
    assert slope == pytest.approx(3.0)
    assert intercept == pytest.approx(0.5)
    assert r2 == pytest.approx(1.0)


def test_ks_vs_standard_normal_calibrates():
    rng = np.random.default_rng(13)
    _, p = ks_vs_standard_normal(rng.standard_normal(5000))
    assert p > 0.01
