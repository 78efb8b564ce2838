import numpy as np
import pytest

from frameflow import (
    ConfigError,
    DomainExitError,
    SimConfig,
    chart_by_name,
    holder_modulus,
    hyperbolic_distance,
    simulate_paths,
    simulate_rescaled_path,
)


class ZeroNoise:
    """Stand-in generator for ``simulate_paths(rngs=...)``: noise off."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def every_step(steps, **kw):
    """Config whose run is ``steps`` steps long, with an output at every step."""
    slow_dt = kw.get("h0", 0.1) * kw["epsilon"] ** 2
    return SimConfig(t_final=steps * slow_dt,
                     output_times=tuple(np.arange(steps + 1) * slow_dt), **kw)


class TestSimConfig:
    def test_bad_epsilon(self):
        with pytest.raises(ConfigError):
            SimConfig(chart="euclidean:2", epsilon=0.0, t_final=1.0)

    def test_bad_h0(self):
        with pytest.raises(ConfigError):
            SimConfig(chart="euclidean:2", epsilon=0.1, t_final=1.0, h0=0.2)

    def test_bad_output_times(self):
        with pytest.raises(ConfigError):
            SimConfig(chart="euclidean:2", epsilon=0.1, t_final=1.0,
                      output_times=(0.0, 2.0))

    def test_non_unit_e0_rejected(self):
        with pytest.raises(ConfigError, match="unit vector"):
            SimConfig(chart="euclidean:2", epsilon=0.1, t_final=1.0, e0=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("field,value", [
        ("epsilon", np.inf), ("t_final", np.inf),
        ("x0", [np.nan, 0.0]), ("u0", [[1.0, 0.0], [0.0, np.inf]]),
        ("e0", [np.nan, 1.0]), ("abar", [[0.0, np.nan], [np.nan, 0.0]]),
        ("output_times", (0.0, np.nan)),
    ])
    def test_non_finite_inputs_rejected(self, field, value):
        # Checked when the config is built: a NaN x0 used to run to the end
        # as a live path of NaN positions.
        kw = {"chart": "euclidean:2", "epsilon": 0.1, "t_final": 1.0, field: value}
        with pytest.raises(ConfigError):
            SimConfig(**kw)

    def test_default_output_grid(self):
        cfg = SimConfig(chart="euclidean:2", epsilon=0.1, t_final=2.0)
        times = cfg.resolved_output_times()
        assert len(times) == 21
        assert times[0] == 0.0 and times[-1] == 2.0


class TestStep:
    """Single Strang steps, observed through one output per step."""

    def test_noise_off_flat_is_straight_line(self):
        cfg = every_step(100, chart="euclidean:2", epsilon=0.05)
        out = simulate_paths(cfg, [0], rngs=[ZeroNoise()])
        # 100 steps of equation time h0 * eps each, velocity u0 e0 = e1.
        expected = 100 * 0.1 * 0.05
        np.testing.assert_allclose(out.xs[-1, 0], [expected, 0.0], rtol=1e-14)
        np.testing.assert_array_equal(out.us[-1, 0], np.eye(2))

    def test_noise_off_h2_vertical_geodesic(self):
        # 10,000 steps: equation time 1.0 at step 1e-4.
        cfg = SimConfig(chart="hyperbolic2", epsilon=1e-3, t_final=1e-3,
                        e0=np.array([0.0, 1.0]), output_times=(1e-3,))
        out = simulate_paths(cfg, [0], rngs=[ZeroNoise()])
        x = out.xs[-1, 0]
        np.testing.assert_allclose(x, [0.0, np.e], rtol=1e-6)
        d = hyperbolic_distance(np.array([0.0, 1.0]), x)
        assert abs(d - 1.0) < 1e-6

    def test_chart_speed_identity_with_noise(self):
        # |xdot| = x2 on the half-plane: unit metric speed in chart terms.
        cfg = every_step(500, chart="hyperbolic2", epsilon=0.05, seed=5)
        out = simulate_paths(cfg, [0], record_group=True)
        v = np.einsum("kij,kjl,l->ki", out.us[:, 0], out.gs[:, 0], np.array([1.0, 0.0]))
        x2 = out.xs[:, 0, 1]
        assert np.all(np.abs(np.linalg.norm(v, axis=-1) - x2) < 1e-6 * x2)


class TestSimulateRescaledPath:
    def test_deterministic_given_seed(self):
        cfg = SimConfig(chart="euclidean:2", epsilon=0.05, t_final=1.0, seed=7)
        a = simulate_rescaled_path(cfg)
        b = simulate_rescaled_path(cfg)
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.us, b.us)
        # a fresh but identical config reproduces the records too
        cfg2 = SimConfig(chart="euclidean:2", epsilon=0.05, t_final=1.0, seed=7)
        c = simulate_rescaled_path(cfg2)
        np.testing.assert_array_equal(a.xs, c.xs)

    def test_seed_changes_path(self):
        cfg = SimConfig(chart="euclidean:2", epsilon=0.05, t_final=1.0, seed=7)
        other = SimConfig(chart="euclidean:2", epsilon=0.05, t_final=1.0, seed=8)
        assert not np.array_equal(simulate_rescaled_path(cfg).xs,
                                  simulate_rescaled_path(other).xs)

    def test_flat_frame_stays_initial(self):
        cfg = SimConfig(chart="euclidean:3", epsilon=0.05, t_final=0.5, seed=3)
        rec = simulate_rescaled_path(cfg)
        for k in range(len(rec.times)):
            np.testing.assert_array_equal(rec.us[k], np.eye(3))

    def test_group_records_are_rotations(self):
        cfg = SimConfig(chart="euclidean:2", epsilon=0.05, t_final=0.5, seed=3)
        rec = simulate_rescaled_path(cfg, record_group=True)
        assert rec.gs is not None
        gram = np.einsum("kji,kjl->kil", rec.gs, rec.gs)
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12

    def test_domain_exit_propagates(self):
        cfg = SimConfig(chart="strip-test", epsilon=0.2, t_final=1.0, seed=0)
        with pytest.raises(DomainExitError):
            simulate_rescaled_path(cfg)

    def test_h2_frame_constraint_along_path(self):
        cfg = SimConfig(chart="hyperbolic2", epsilon=0.05, t_final=0.5, seed=11)
        chart = chart_by_name("hyperbolic2")
        rec = simulate_rescaled_path(cfg)
        for k in range(len(rec.times)):
            g = chart.metric(rec.xs[k])
            gram = rec.us[k].T @ g @ rec.us[k]
            assert np.max(np.abs(gram - np.eye(2))) < 1e-8


class TestSimulatePathsBatch:
    def test_batch_matches_single(self):
        cfg = SimConfig(chart="hyperbolic2", epsilon=0.1, t_final=0.5, seed=19)
        batch = simulate_paths(cfg, [0, 1, 2])
        for p in range(3):
            single = simulate_rescaled_path(cfg, path_index=p)
            np.testing.assert_array_equal(batch.xs[:, p, :], single.xs)

    def test_disjoint_batches_concatenate(self):
        cfg = SimConfig(chart="euclidean:2", epsilon=0.1, t_final=0.5, seed=19)
        whole = simulate_paths(cfg, range(6))
        left = simulate_paths(cfg, range(3))
        right = simulate_paths(cfg, range(3, 6))
        np.testing.assert_array_equal(whole.xs, np.concatenate([left.xs, right.xs], axis=1))

    def test_aborts_recorded_and_frozen(self):
        cfg = SimConfig(chart="strip-test", epsilon=0.2, t_final=1.0, seed=0)
        out = simulate_paths(cfg, range(8))
        assert not out.alive.all()
        assert len(out.aborts) == (~out.alive).sum()
        for path_index, t, x in out.aborts:
            assert 0.0 < t <= 1.0
            assert abs(x[0]) >= 0.3


class TestHolderModulus:
    def test_straight_line_alpha_one_gives_speed(self):
        times = np.linspace(0.0, 2.0, 9)
        speed = 1.7
        xs = np.outer(times, np.array([speed, 0.0]))
        assert holder_modulus(times, xs, 1.0) == pytest.approx(speed, rel=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(ConfigError):
            holder_modulus(np.array([0.0]), np.zeros((1, 2)), 0.5)

    def test_refinement_diagnostics(self):
        # One path, nested output grids (81 = 4-fold refinement of 21).
        # Below 1/2 the modulus is stable under refinement; at 0.9 the
        # diffusive roughness makes it grow.
        fine_times = tuple(np.linspace(0.0, 1.0, 81))
        cfg = SimConfig(chart="euclidean:2", epsilon=0.012, t_final=1.0, seed=9,
                        output_times=fine_times)
        rec = simulate_rescaled_path(cfg)
        coarse_t, coarse_x = rec.times[::4], rec.xs[::4]
        ratio_04 = (holder_modulus(rec.times, rec.xs, 0.4)
                    / holder_modulus(coarse_t, coarse_x, 0.4))
        ratio_09 = (holder_modulus(rec.times, rec.xs, 0.9)
                    / holder_modulus(coarse_t, coarse_x, 0.9))
        assert 0.5 <= ratio_04 <= 2.0
        assert ratio_09 >= 2.0


def test_h2_runs_are_conservative_at_desk_scale():
    # 1000 paths at eps = 0.05, T = 1: nobody leaves the chart and the
    # height coordinate stays bounded away from zero (numerical health
    # check; the dynamics cannot cross x2 = 0).
    cfg = SimConfig(chart="hyperbolic2", epsilon=0.05, t_final=1.0, seed=31)
    out = simulate_paths(cfg, range(1000), record_frames=False)
    assert out.alive.all()
    assert len(out.aborts) == 0
    assert float(out.xs[..., 1].min()) > 1e-6


def test_slow_displacement_bound():
    # chart speed is unitary, so per-step displacement on a flat chart is
    # exactly the equation-time step h0 * eps.
    cfg = every_step(200, chart="euclidean:2", epsilon=0.05, seed=2)
    out = simulate_paths(cfg, [0])
    h = cfg.h0 * cfg.epsilon
    steps = np.linalg.norm(np.diff(out.xs[:, 0], axis=0), axis=-1)
    assert len(steps) == 200
    assert np.all(steps <= h * (1.0 + 1e-9))


def test_batch_invariance_n4():
    # The n >= 4 exponential scales each matrix by its own norm, so a path
    # does not depend on the batch it runs in.
    cfg = SimConfig(chart="euclidean:4", epsilon=0.2, t_final=0.05, seed=1)
    whole = simulate_paths(cfg, range(16), record_group=True)
    alone = simulate_paths(cfg, [11], record_group=True)
    np.testing.assert_array_equal(whole.xs[:, 11], alone.xs[:, 0])
    np.testing.assert_array_equal(whole.gs[:, 11], alone.gs[:, 0])
