import tracemalloc

import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp

from frameflow import (
    ConfigError,
    SimConfig,
    apply_generator_linear,
    canonical_basis,
    haar_sample,
    orthogonality_defect,
    poisson_h,
    simulate_paths,
)
from frameflow.group_process import (MAX_DRIFT_EXPONENT, _advance, _half_step_factors,
                                     haar_moment_stats)
from frameflow.lie_algebra import BATCH_BYTES
from frameflow.lie_algebra import group_exp
from frameflow.perturbed_geodesic import direction_moments


class ZeroNoise:
    """Stand-in generator for ``simulate_paths(rngs=...)``: noise off."""

    def standard_normal(self, shape, out=None):
        out.fill(0.0)
        return out


def group_run(n, t_final, **kw):
    """The group diffusion at epsilon = 1, the equation clock, as the
    engine's chain on ``euclidean:n``: step h0, half-step drift h0 Abar / 2."""
    return SimConfig(chart=f"euclidean:{n}", epsilon=1.0, t_final=t_final, **kw)


def linear_averages(n, times, reps, seed):
    """Time averages of w_1 = <g e1, e1> up to each of ``times`` (rows) for
    ``reps`` paths (columns): on euclidean:n from the origin with u0 = I,
    x_t = h sum w_mid, so x_t / t averages w_1 by the midpoint rule."""
    cfg = group_run(n, times[-1], seed=seed, output_times=tuple(times))
    out = simulate_paths(cfg, range(reps), record_frames=False)
    return out.xs[:, :, 0] / out.times[:, None]


class TestGroupSdeConfig:
    """The group diffusion's parameters, h0 and abar, checked as SimConfig
    takes them for a run at epsilon = 1."""

    def test_cfl_violation_rejected(self):
        with pytest.raises(ConfigError, match=r"h0 must lie in \(0, 0.1\]"):
            group_run(2, 1.0, h0=0.5)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ConfigError):
            group_run(2, 1.0, h0=0.0)

    def test_non_skew_drift_rejected(self):
        with pytest.raises(ConfigError, match="abar must be skew-symmetric"):
            simulate_paths(group_run(2, 1.0, abar=np.eye(2)), [0])

    @pytest.mark.parametrize("kw", [{"h0": np.inf},
                                    {"abar": np.array([[0.0, np.nan], [np.nan, 0.0]])}])
    def test_non_finite_inputs_rejected(self, kw):
        with pytest.raises(ConfigError):
            group_run(2, 1.0, **kw)


def drift_of_size(n, size, h):
    """A skew drift whose half-step exponent 0.5 h abar has Frobenius norm ``size``."""
    return (2.0 * size / h) * canonical_basis(n)[0]


class TestDriftBound:
    """0.5 h |abar| is bounded: at 1e20 euclidean:5 returned g off SO(5) by 1
    with every path alive, and at 1e100 NaN positions on live paths."""

    @pytest.mark.parametrize("chart,n", [("euclidean:3", 3), ("euclidean:5", 5),
                                         ("hyperbolic2", 2)])
    def test_drift_above_the_bound_rejected(self, chart, n):
        abar = drift_of_size(n, 1.001 * MAX_DRIFT_EXPONENT, h=0.05)
        cfg = SimConfig(chart=chart, epsilon=0.5, t_final=0.05, abar=abar)
        with pytest.raises(ConfigError, match="abar is too large"):
            simulate_paths(cfg, [0])

    def test_drift_at_the_bound_keeps_g_on_the_group(self):
        # 999 steps of h = 0.05, one short of the matrix chain's re-projection.
        t_final = 999 * 0.1 * 0.5**2
        cfg = SimConfig(chart="euclidean:5", epsilon=0.5, t_final=t_final, output_times=(t_final,),
                        abar=drift_of_size(5, 0.999999 * MAX_DRIFT_EXPONENT, h=0.05))
        out = simulate_paths(cfg, range(8), record_frames=False, record_group=True)
        assert out.steps == 999 and out.alive.all() and np.isfinite(out.xs).all()
        assert orthogonality_defect(out.gs[-1]) < 1e-8


class TestStepGroup:
    """The group steps of the engine's chains at epsilon = 1."""

    def test_zero_noise_zero_drift_is_identity(self):
        cfg = group_run(3, 1.0, output_times=(0.5, 1.0))
        out = simulate_paths(cfg, range(2), record_group=True, rngs=[ZeroNoise()] * 2)
        assert np.array_equal(out.gs, np.broadcast_to(np.eye(3), out.gs.shape))

    def test_output_stays_orthogonal(self):
        cfg = group_run(4, 2.0, seed=1, output_times=tuple(np.linspace(0.0, 2.0, 21)))
        out = simulate_paths(cfg, range(500), record_frames=False, record_group=True)
        assert orthogonality_defect(out.gs) < 1e-12

    def test_wrong_noise_length_rejected(self):
        with pytest.raises(ConfigError, match="rngs must match path_indices in length"):
            simulate_paths(group_run(3, 1.0), range(3), rngs=[ZeroNoise()] * 2)

    def test_planar_angle_distribution(self):
        # n = 2: the accumulated rotation angle after fast time tau is
        # N(0, tau/2): each half-step adds sqrt(h/2) xi / sqrt(2) to the angle.
        paths, tau = 10_000, 4.0
        cfg = group_run(2, tau, seed=42, output_times=tuple(np.linspace(0.0, tau, 41)))
        gs = simulate_paths(cfg, range(paths), record_frames=False, record_group=True).gs
        angle = np.unwrap(np.arctan2(gs[:, :, 0, 1], gs[:, :, 0, 0]), axis=0)[-1]
        stat, p = kstest(angle / np.sqrt(tau / 2.0), "norm")
        assert p > 0.01

    def test_drift_only_rotates_deterministically(self):
        abar = np.sqrt(2.0) * canonical_basis(2)[0]  # angle rate 1
        expected = np.array([[np.cos(1.0), np.sin(1.0)], [-np.sin(1.0), np.cos(1.0)]])
        # The angle chain on euclidean:2, the matrix chain on hyperbolic2.
        for chart in ("euclidean:2", "hyperbolic2"):
            cfg = SimConfig(chart=chart, epsilon=1.0, t_final=1.0, abar=abar, output_times=(1.0,))
            g = simulate_paths(cfg, [0], record_group=True, rngs=[ZeroNoise()]).gs[0, 0]
            np.testing.assert_allclose(g, expected, atol=1e-12)

    @pytest.mark.parametrize("with_drift", [False, True])
    @pytest.mark.parametrize("layout", ["stacked", "single", "transposed"])
    def test_planar_step_matches_the_general_route(self, layout, with_drift):
        # n = 2 turns each row of g, read as a complex number, by e^(i theta),
        # formed from tan(theta / 2); the general route multiplies g by
        # group_exp of the whole exponent.
        rng = np.random.default_rng(11)
        basis = canonical_basis(2)
        h = 0.05
        drift = h * 0.9 * basis[0] if with_drift else None
        stack = haar_sample(2, rng, size=40)
        g, xi = {"stacked": (stack, rng.standard_normal((40, 1))),
                 "single": (stack[0], rng.standard_normal(1)),
                 "transposed": (stack.transpose(0, 2, 1), rng.standard_normal((40, 1)))}[layout]
        before = g.copy()
        exponent = np.sqrt(h) * np.einsum("...k,kij->...ij", xi, basis)
        if with_drift:
            exponent = exponent + drift
        expected = g @ group_exp(exponent)
        out = _advance(g, _half_step_factors(xi, basis, np.sqrt(h), drift))
        assert out.shape == expected.shape
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(g, before)


    @pytest.mark.parametrize("theta", [0.0, np.pi, -np.pi, 1.0, -2.5, 0.7 * MAX_DRIFT_EXPONENT,
                                       -MAX_DRIFT_EXPONENT / np.sqrt(2.0)])
    def test_turn_is_the_unit_complex_number_of_its_angle(self, theta):
        # The turn of a half-step that is all drift: theta = 0, the tan pole
        # at +-pi, and the largest |theta| the drift bound lets through,
        # |0.5 h abar| / sqrt(2).  Its sine is formed as t (2 / (1 + t^2)),
        # so at the pole it is the rounding of pi's sine and not 0.
        drift = np.sqrt(2.0) * theta * canonical_basis(2)[0]
        turn = _half_step_factors(np.zeros((3, 1)), canonical_basis(2), 0.1, drift)
        assert turn.shape == (3,) and turn.dtype == complex
        assert np.max(np.abs(np.abs(turn) - 1.0)) <= 4e-16
        np.testing.assert_allclose(turn, np.cos(theta) + 1j * np.sin(theta), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("theta", [np.pi, -np.pi])
    def test_half_turns_at_the_pole_keep_g(self, theta):
        # Each half-step turns hyperbolic2's matrix chain by theta = +-pi, so
        # a step turns it by 2 pi and g stays I to rounding, on the group.
        h = 0.1
        abar = (2.0 * theta / h) * np.array([[0.0, 1.0], [-1.0, 0.0]])
        cfg = SimConfig(chart="hyperbolic2", epsilon=1.0, t_final=40 * h, abar=abar,
                        output_times=(h, 20 * h, 40 * h))
        out = simulate_paths(cfg, range(2), record_group=True, rngs=[ZeroNoise()] * 2)
        assert out.alive.all()
        np.testing.assert_allclose(out.gs, np.broadcast_to(np.eye(2), out.gs.shape),
                                   rtol=0, atol=1e-13)
        assert orthogonality_defect(out.gs) < 1e-14


class TestPoissonIdentities:
    def test_poisson_h_values(self):
        e1 = np.array([1.0, 0.0, 0.0])
        assert poisson_h(np.eye(3), e1, 0) == pytest.approx(-2.0)
        assert poisson_h(np.eye(2), np.array([1.0, 0.0]), 0) == pytest.approx(-4.0)
        assert poisson_h(np.eye(3), e1, 1) == 0.0

    def test_generator_value_at_identity(self):
        val = apply_generator_linear(np.eye(2), np.array([1.0, 0.0]), 0, canonical_basis(2))
        assert val == pytest.approx(-0.25, abs=1e-15)

    def test_generator_off_alignment_vanishes(self):
        val = apply_generator_linear(np.eye(3), np.array([1.0, 0.0, 0.0]), 1, canonical_basis(3))
        assert val == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_eigenfunction_identity_at_random_rotations(self, n):
        # L_G <g e0, e_i> = -((n-1)/4) <g e0, e_i>, pointwise.
        rng = np.random.default_rng(13)
        basis = canonical_basis(n)
        gs = haar_sample(n, rng, size=334)
        e0 = np.zeros(n)
        e0[0] = 1.0
        for g in gs:
            i = int(rng.integers(n))
            lhs = apply_generator_linear(g, e0, i, basis)
            alpha = float((g @ e0)[i])
            assert abs(lhs + ((n - 1) / 4.0) * alpha) < 1e-12

    def test_generator_inverts_poisson_solution(self):
        # L_G h_i(g) = <g e0, e_i>: the Poisson solution h_i is
        # -(4/(n-1)) alpha_i, and alpha_i is an eigenfunction.
        rng = np.random.default_rng(14)
        n = 3
        basis = canonical_basis(n)
        e0 = np.array([0.6, 0.8, 0.0])
        for g in haar_sample(n, rng, size=100):
            i = int(rng.integers(n))
            scale = poisson_h(g, e0, i) / float((g @ e0)[i])
            lhs = scale * apply_generator_linear(g, e0, i, basis)
            assert abs(lhs - float((g @ e0)[i])) < 1e-12


class TestErgodicAverages:
    """Time averages along the engine's group chains at epsilon = 1."""

    def test_constant_functional_is_exact(self):
        # |w|^2 = 1 at every step, so the moment matrix has trace 1.
        moments = direction_moments(group_run(3, 7.0), range(4))
        np.testing.assert_allclose(np.trace(moments, axis1=1, axis2=2), 1.0, rtol=0, atol=1e-12)

    def test_lln_bound_n3_t400(self):
        # E(avg^2) <= sqrt(N) * Osc(f) * t^(-1/2) for f(g) = <g e1, e1>,
        # Osc(f) = 2, N = 3: bound sqrt(3) * 2 / 20 at t = 400.
        avgs = linear_averages(3, [400.0], reps=200, seed=21)
        bound = np.sqrt(3.0) * 2.0 / np.sqrt(400.0)
        assert np.mean(avgs[0] ** 2) <= bound

    def test_lln_bound_grid(self):
        # same bound at t in {100, 400, 1600} for n in {2, 3, 4}
        times = [100.0, 400.0, 1600.0]
        for n in (2, 3, 4):
            avgs = linear_averages(n, times, reps=200, seed=22)
            n_basis = n * (n - 1) // 2
            for row, t in zip(avgs, times):
                assert np.mean(row**2) <= np.sqrt(n_basis) * 2.0 / np.sqrt(t)

    def test_squared_statistic_averages_to_one_over_n(self):
        # f(g) = <g e1, e1>^2 time-averages to 1/n.
        n = 3
        avgs = direction_moments(group_run(n, 3200.0, seed=23), range(32))[:, 0, 0]
        est = avgs.mean()
        se = avgs.std(ddof=1) / np.sqrt(len(avgs))
        assert abs(est - 1.0 / n) < 4 * se

    def test_single_path_average_matches_moment(self):
        avg = direction_moments(group_run(2, 2000.0, seed=24), [0])[0, 0, 0]
        assert abs(avg - 0.5) < 0.05

    def test_non_finite_checkpoints_rejected(self):
        # The times averaged up to are a run's output times.
        with pytest.raises(ConfigError, match="finite"):
            group_run(2, 200.0, output_times=(100.0, np.inf))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_moments_read_the_simulated_paths(self, n):
        # On euclidean:n each step moves x by h w_mid, so the positions at
        # every step give the directions the moments average.  300 steps
        # cross two chunk ends; a path's moments do not depend on its batch.
        rot = np.roll(np.eye(n), 1, axis=0)
        cfg = group_run(n, 30.0, seed=5, e0=np.full(n, n**-0.5), abar=0.7 * (rot - rot.T),
                        output_times=tuple(np.linspace(0.0, 30.0, 301)))
        w = np.diff(simulate_paths(cfg, range(4), record_frames=False).xs, axis=0) / cfg.h0
        moments = direction_moments(cfg, range(4))
        np.testing.assert_allclose(moments, np.einsum("kpi,kpj->pij", w, w) / 300,
                                   rtol=0, atol=1e-11)
        assert np.array_equal(moments[2:3], direction_moments(cfg, [2]))


class TestHaarMoments:
    def test_diagonal_value_n2(self):
        rng = np.random.default_rng(31)
        est, se = haar_moment_stats(2, np.array([1.0, 0.0]), 100_000, rng)
        assert abs(est[0, 0] - 2.0) < 4 * se[0, 0]
        assert abs(est[1, 1] - 2.0) < 4 * se[1, 1]

    def test_diagonal_and_off_diagonal_n4(self):
        rng = np.random.default_rng(32)
        e0 = np.array([1.0, 0.0, 0.0, 0.0])
        est, se = haar_moment_stats(4, e0, 100_000, rng)
        for i in range(4):
            for j in range(4):
                target = (1.0 / 3.0) if i == j else 0.0
                assert abs(est[i, j] - target) < 4 * se[i, j]

    def test_independent_of_direction(self):
        rng = np.random.default_rng(34)
        n = 3
        e_a = np.array([1.0, 0.0, 0.0])
        e_b = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        est_a, se_a = haar_moment_stats(n, e_a, 50_000, rng)
        est_b, se_b = haar_moment_stats(n, e_b, 50_000, rng)
        joint = np.hypot(se_a, se_b)
        assert np.all(np.abs(est_a - est_b) < 4 * joint)

    def test_sample_floor(self):
        with pytest.raises(ConfigError):
            haar_moment_stats(2, np.array([1.0, 0.0]), 10, np.random.default_rng(0))

    def test_chunk_fits_the_batch_budget(self):
        # Chunks of 50,000 samples whatever n peaked at 134.5 MB at n = 8.
        e0 = np.eye(8)[0]
        haar_moment_stats(8, e0, 1000, np.random.default_rng(0))    # warm numpy up
        tracemalloc.start()
        try:
            haar_moment_stats(8, e0, 20_000, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= BATCH_BYTES

    def test_later_chunks_peak_as_one_chunk(self):
        # Holding the last chunk's products while drawing the next raised the
        # peak over 3 chunks to 14.75 MB at n = 8, against 11.60 MB for one.
        n = 8
        e0 = np.eye(n)[0]
        chunk = BATCH_BYTES // (48 * n * n)
        haar_moment_stats(n, e0, 1000, np.random.default_rng(0))    # warm numpy up
        peaks = []
        for chunks in (1, 3):
            tracemalloc.start()
            try:
                haar_moment_stats(n, e0, chunks * chunk, np.random.default_rng(1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.02 * peaks[0]


def test_terminal_law_matches_haar():
    # After a long run the path marginal <g e1, e1> agrees with fresh Haar
    # draws (two-sample KS).
    n = 3
    cfg = group_run(n, 40.0, seed=35, output_times=(40.0,))
    ends = simulate_paths(cfg, range(500), record_frames=False, record_group=True).gs[-1]
    ref = haar_sample(n, np.random.default_rng(36), size=500)
    stat, p = ks_2samp(ends[:, 0, 0], ref[:, 0, 0])
    assert p > 0.01
    assert orthogonality_defect(ends) < 1e-12
