import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp

from frameflow import (
    ConfigError,
    GroupSdeConfig,
    apply_generator_linear,
    canonical_basis,
    ergodic_average_repetitions,
    haar_sample,
    orthogonality_defect,
    poisson_h,
    step_group,
)
from frameflow.group_process import _advance, haar_moment_stats
from frameflow.lie_algebra import group_exp


def cfg_for(n, h=0.1, abar=None):
    return GroupSdeConfig(basis=canonical_basis(n), abar=abar, h=h)


class TestGroupSdeConfig:
    def test_cfl_violation_rejected(self):
        with pytest.raises(ConfigError, match=r"h0 must lie in \(0, 0.1\]"):
            GroupSdeConfig(basis=canonical_basis(2), h=0.5)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ConfigError):
            GroupSdeConfig(basis=canonical_basis(2), h=0.0)

    def test_non_skew_drift_rejected(self):
        with pytest.raises(ConfigError):
            GroupSdeConfig(basis=canonical_basis(2), abar=np.eye(2), h=0.1)

    @pytest.mark.parametrize("kw", [{"h": np.inf},
                                    {"abar": np.array([[0.0, np.nan], [np.nan, 0.0]])}])
    def test_non_finite_inputs_rejected(self, kw):
        with pytest.raises(ConfigError):
            GroupSdeConfig(basis=canonical_basis(2), **kw)


class TestStepGroup:
    def test_zero_noise_zero_drift_is_identity(self):
        cfg = cfg_for(3)
        g = haar_sample(3, np.random.default_rng(0))
        out = step_group(g, cfg, np.zeros(3))
        np.testing.assert_array_equal(out, g)

    def test_output_stays_orthogonal(self):
        cfg = cfg_for(4)
        rng = np.random.default_rng(1)
        g = np.broadcast_to(np.eye(4), (500, 4, 4)).copy()
        for _ in range(20):
            g = step_group(g, cfg, rng.standard_normal((500, 6)))
        assert orthogonality_defect(g) < 1e-12

    def test_wrong_noise_length_rejected(self):
        cfg = cfg_for(3)
        with pytest.raises(ConfigError):
            step_group(np.eye(3), cfg, np.zeros(2))

    def test_planar_angle_distribution(self):
        # n = 2: the accumulated rotation angle after fast time tau is
        # N(0, tau/2): each step adds sqrt(h) xi / sqrt(2) to the angle.
        cfg = cfg_for(2, h=0.1)
        rng = np.random.default_rng(42)
        paths, tau = 10_000, 4.0
        n_steps = int(round(tau / cfg.h))
        g = np.broadcast_to(np.eye(2), (paths, 2, 2)).copy()
        angle = np.zeros(paths)
        prev = np.zeros(paths)
        for _ in range(n_steps):
            g = step_group(g, cfg, rng.standard_normal((paths, 1)))
            now = np.arctan2(g[:, 0, 1], g[:, 0, 0])
            delta = now - prev
            delta = (delta + np.pi) % (2.0 * np.pi) - np.pi  # unwrap
            angle += delta
            prev = now
        stat, p = kstest(angle / np.sqrt(tau / 2.0), "norm")
        assert p > 0.01

    def test_drift_only_rotates_deterministically(self):
        basis = canonical_basis(2)
        abar = np.sqrt(2.0) * basis.mats[0]  # angle rate 1
        cfg = GroupSdeConfig(basis=basis, abar=abar, h=0.1)
        g = np.eye(2)
        for _ in range(10):
            g = step_group(g, cfg, np.zeros(1))
        expected = np.array([[np.cos(1.0), np.sin(1.0)], [-np.sin(1.0), np.cos(1.0)]])
        np.testing.assert_allclose(g, expected, atol=1e-12)

    @pytest.mark.parametrize("with_drift", [False, True])
    @pytest.mark.parametrize("layout", ["stacked", "single", "transposed"])
    def test_planar_step_matches_the_general_route(self, layout, with_drift):
        # n = 2 turns each row of g, read as a complex number, by e^(i theta);
        # the general route multiplies g by group_exp of the whole exponent.
        rng = np.random.default_rng(11)
        basis = canonical_basis(2)
        cfg = cfg_for(2, h=0.05, abar=0.9 * basis.mats[0] if with_drift else None)
        stack = haar_sample(2, rng, size=40)
        g, xi = {"stacked": (stack, rng.standard_normal((40, 1))),
                 "single": (stack[0], rng.standard_normal(1)),
                 "transposed": (stack.transpose(0, 2, 1), rng.standard_normal((40, 1)))}[layout]
        before = g.copy()
        exponent = cfg.noise_scale * np.einsum("...k,kij->...ij", xi, basis.mats)
        if with_drift:
            exponent = exponent + cfg.drift_term()
        expected = g @ group_exp(exponent)
        for out in (step_group(g, cfg, xi),
                    _advance(g, xi, basis.mats, cfg.noise_scale, cfg.drift_term())):
            assert out.shape == expected.shape
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(g, before)


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
    def test_constant_functional_is_exact(self):
        cfg = cfg_for(3)
        avg = ergodic_average_repetitions(lambda gs: np.full(len(gs), 2.5), cfg, [3.0, 7.0],
                                          reps=1, rng=np.random.default_rng(0))
        np.testing.assert_allclose(avg, 2.5, atol=1e-12)

    def test_lln_bound_n3_t400(self):
        # E(avg^2) <= sqrt(N) * Osc(f) * t^(-1/2) for f(g) = <g e1, e1>,
        # Osc(f) = 2, N = 3: bound sqrt(3) * 2 / 20 at t = 400.
        cfg = cfg_for(3)
        rng = np.random.default_rng(21)
        avgs = ergodic_average_repetitions(
            lambda gs: gs[:, 0, 0], cfg, [400.0], reps=200, rng=rng)
        bound = np.sqrt(3.0) * 2.0 / np.sqrt(400.0)
        assert np.mean(avgs[0] ** 2) <= bound

    def test_lln_bound_grid(self):
        # same bound at t in {100, 400, 1600} for n in {2, 3, 4}
        rng = np.random.default_rng(22)
        times = [100.0, 400.0, 1600.0]
        for n in (2, 3, 4):
            cfg = cfg_for(n)
            avgs = ergodic_average_repetitions(
                lambda gs: gs[:, 0, 0], cfg, times, reps=200, rng=rng)
            n_basis = n * (n - 1) // 2
            for row, t in zip(avgs, times):
                assert np.mean(row**2) <= np.sqrt(n_basis) * 2.0 / np.sqrt(t)

    def test_squared_statistic_averages_to_one_over_n(self):
        # f(g) = <g e1, e1>^2 time-averages to 1/n.
        n = 3
        cfg = cfg_for(n)
        rng = np.random.default_rng(23)
        avgs = ergodic_average_repetitions(
            lambda gs: gs[:, 0, 0] ** 2, cfg, [3200.0], reps=32, rng=rng)
        est = avgs[0].mean()
        se = avgs[0].std(ddof=1) / np.sqrt(avgs.shape[1])
        assert abs(est - 1.0 / n) < 4 * se

    def test_single_path_average_matches_moment(self):
        cfg = cfg_for(2)
        rng = np.random.default_rng(24)
        avg = ergodic_average_repetitions(lambda gs: gs[:, 0, 0] ** 2, cfg, [2000.0],
                                          reps=1, rng=rng)
        assert abs(avg[0, 0] - 0.5) < 0.05

    def test_checkpoints_off_grid_rejected(self):
        cfg = cfg_for(2)
        with pytest.raises(ConfigError):
            ergodic_average_repetitions(lambda gs: gs[:, 0, 0], cfg, [100.05],
                                        reps=4, rng=np.random.default_rng(0))

    def test_non_finite_checkpoints_rejected(self):
        cfg = cfg_for(2)
        with pytest.raises(ConfigError, match="finite"):
            ergodic_average_repetitions(lambda gs: gs[:, 0, 0], cfg, [100.0, np.inf],
                                        reps=4, rng=np.random.default_rng(0))

    def test_component_stack_functional(self):
        # f may return (..., reps): each component is averaged on the same paths.
        cfg = cfg_for(2)
        both = ergodic_average_repetitions(lambda gs: np.stack([gs[:, 0, 0], gs[:, 0, 1]]),
                                           cfg, [5.0, 10.0], reps=3, rng=np.random.default_rng(1))
        first = ergodic_average_repetitions(lambda gs: gs[:, 0, 0], cfg, [5.0, 10.0], reps=3,
                                            rng=np.random.default_rng(1))
        assert both.shape == (2, 2, 3)
        np.testing.assert_array_equal(both[:, 0], first)


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


def test_terminal_law_matches_haar():
    # After a long run the path marginal <g e1, e1> agrees with fresh Haar
    # draws (two-sample KS).
    n = 3
    cfg = cfg_for(n)
    rng = np.random.default_rng(35)
    ends = np.broadcast_to(np.eye(n), (500, n, n)).copy()
    for _ in range(400):  # t = 40 at h = 0.1
        ends = step_group(ends, cfg, rng.standard_normal((500, len(cfg.basis))))
    ref = haar_sample(n, np.random.default_rng(36), size=500)
    stat, p = ks_2samp(ends[:, 0, 0], ref[:, 0, 0])
    assert p > 0.01
    assert orthogonality_defect(ends) < 1e-12
