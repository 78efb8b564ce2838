import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from frameflow import (
    ConfigError,
    DomainExitError,
    SimConfig,
    canonical_basis,
    chart_by_name,
    group_exp,
    hyperbolic2_chart,
    hyperbolic_distance,
    simulate_paths,
    simulate_rescaled_path,
)
from frameflow import manifold, perturbed_geodesic
from frameflow.manifold import Chart, frame_transport, gram_schmidt_metric
from frameflow.perturbed_geodesic import path_batches, philox_stream, resolve_start


class ZeroNoise:
    """Stand-in generator for ``simulate_paths(rngs=...)``: noise off."""

    def standard_normal(self, shape, out=None):
        if out is None:
            return np.zeros(shape)
        out.fill(0.0)
        return out


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

    @pytest.mark.parametrize("field,value,message", [
        ("x0", [0.0, 0.0, 0.0], r"x0 must have shape \(2,\)"),
        ("u0", np.eye(3), r"u0 must have shape \(2, 2\)"),
    ], ids=["x0", "u0"])
    def test_start_shape_mismatch_rejected(self, field, value, message):
        # Both used to end in a numpy broadcast ValueError inside the run.
        cfg = SimConfig(chart="euclidean:2", epsilon=0.1, t_final=0.01, **{field: value})
        with pytest.raises(ConfigError, match=message):
            simulate_paths(cfg, [0])

    @pytest.mark.parametrize("field,value,message", [
        ("x0", np.array([0.0, 1e-300]), "the metric at x0 = .* is not finite"),
        ("u0", np.zeros((2, 2)), "u0 cannot be orthonormalized in the metric at x0 = "),
        ("u0", np.ones((2, 2)), "u0 cannot be orthonormalized in the metric at x0 = "),
    ], ids=["metric-overflow", "zero-u0", "rank-one-u0"])
    def test_start_frame_that_cannot_be_built_rejected(self, field, value, message):
        # The first two used to end in a ValueError traceback from
        # gram_schmidt_metric; the rank-one u0 passed it on a rounding
        # residue and ran with both frame columns equal.
        cfg = SimConfig(chart="hyperbolic2", epsilon=1.0, t_final=400.0, **{field: value})
        with pytest.raises(ConfigError, match=message):
            simulate_paths(cfg, range(20))

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

    def test_aborted_path_held_at_start(self):
        cfg = SimConfig(chart="strip-test", epsilon=0.2, t_final=1.0, seed=0)
        out = simulate_paths(cfg, range(8))
        assert {p: t for p, t, _ in out.aborts}[0] == pytest.approx(0.068)
        for path_index, t, _ in out.aborts:
            before, after = out.times < t, out.times >= t
            assert np.all(np.abs(out.xs[before, path_index, 0]) < 0.3)
            assert np.all(out.xs[after, path_index] == 0.0)
            assert np.all(out.us[after, path_index] == np.eye(2))


class TestPathBatches:
    @pytest.mark.parametrize("paths, parts, width", [
        (10, 1, 3), (10, 3, 3), (10, 3, 100), (5, 4, 2), (3, 5, 1), (2000, 2, 1172), (1, 1, 1)])
    def test_ranges_are_contiguous_and_cover_every_path(self, paths, parts, width, monkeypatch):
        cfg = SimConfig(chart="euclidean:3", epsilon=0.1, t_final=0.5)
        # A path of euclidean:3 holds 21 rows of x and u (12 values), 128
        # steps of 2 x 3 normals, 3 rows of 129 for the chunk directions and
        # the running sum of 3, 8 bytes each, 3,040 bytes of the pair
        # chain's pair and sub-block arrays, and its Philox stream.
        monkeypatch.setattr(perturbed_geodesic, "BATCH_BYTES", width * (
            8 * (21 * 12 + 128 * 6 + 3 * 129 + 3) + 3040 + perturbed_geodesic.STREAM_BYTES))
        batches = perturbed_geodesic.path_batches(cfg, paths, True, False, parts=parts)
        assert [p for b in batches for p in b] == list(range(paths))
        assert all(b.step == 1 and 1 <= len(b) <= width for b in batches)
        assert len(batches) >= min(parts, paths)
        assert len(batches) == sum(-(-len(part) // width) for part in np.array_split(
            np.arange(paths), min(parts, paths)))

    @pytest.mark.parametrize("chart, eps, t_final, times, frames, group, paths, sizes", [
        ("euclidean:2", 0.05, 1.0, None, True, False, 2000, [2000]),     # flat2-ensemble
        ("euclidean:3", 0.05, 0.5, None, True, False, 2000, [1116, 884]),  # flat3-ensemble
        ("hyperbolic2", 0.05, 0.5, None, True, False, 2000, [2000]),     # hyp2-ensemble
        ("hyperbolic2", 0.05, 1.0, 4001, True, True, 6, [6]),             # hyp2-simulate
        ("euclidean:3", 0.05, 0.5, None, False, False, 2000, [1241, 759]),  # no frames
    ])
    def test_sizes_of_the_bench_configs(self, chart, eps, t_final, times, frames, group, paths,
                                        sizes):
        out_times = None if times is None else tuple(np.linspace(0.0, t_final, times))
        cfg = SimConfig(chart=chart, epsilon=eps, t_final=t_final, output_times=out_times)
        batches = perturbed_geodesic.path_batches(cfg, paths, frames, group)
        assert [len(b) for b in batches] == sizes


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


def strang_reference(cfg, path_indices):
    """The Strang step written out one step at a time with matrix exponentials.

    Draws each path's noise in one call, where the engine draws 128 steps
    at a time (a Philox stream gives the same normals however its draws
    are split), and records (x, u, g) at the output
    steps; the block engine must agree with it up to rounding.  The frame takes a Heun step, except on
    hyperbolic2, where the Moebius matrix is multiplied by the
    ``scipy.linalg.expm`` of h X(w) and x and u are read from the map and
    its derivative at i.
    """
    chart = chart_by_name(cfg.chart)
    n = chart.dim
    mats = canonical_basis(n)
    h = cfg.h0 * cfg.epsilon
    scale = np.sqrt(0.5 * h / cfg.epsilon)
    drift = np.zeros((n, n)) if cfg.abar is None else 0.5 * h * np.asarray(cfg.abar)
    x0, u0, e0 = resolve_start(cfg, chart)
    steps = int(round(cfg.t_final / (cfg.h0 * cfg.epsilon**2)))
    out_steps = np.rint(np.asarray(cfg.output_times) / (cfg.h0 * cfg.epsilon**2)).astype(int)
    xi = np.stack([philox_stream(cfg.seed, p).standard_normal((steps, 2, len(mats)))
                   for p in path_indices])
    x = np.tile(x0, (len(path_indices), 1))
    u = np.tile(u0, (len(path_indices), 1, 1))
    g = np.tile(np.eye(n), (len(path_indices), 1, 1))
    if cfg.chart == "hyperbolic2":
        F = np.tile(moebius_from_frame(x0, u0), (len(path_indices), 1, 1))
    xs, us, gs = {}, {}, {}
    for m in range(steps + 1):
        if m > 0:
            g_mid = g @ group_exp(scale * np.einsum("pk,kij->pij", xi[:, m - 1, 0], mats) + drift)
            e_dir = g_mid @ e0
            if cfg.chart == "hyperbolic2":
                w1, w2 = e_dir[:, 0], e_dir[:, 1]
                F = F @ scipy.linalg.expm(0.5 * h * np.stack([np.stack([w2, w1], -1),
                                                              np.stack([w1, -w2], -1)], -2))
                x, u = moebius_point_and_frame(F)
            else:
                v1 = np.einsum("pij,pj->pi", u, e_dir)
                udot1 = frame_transport(chart, x, v1) @ u
                xp, up = x + h * v1, u + h * udot1
                v2 = np.einsum("pij,pj->pi", up, e_dir)
                udot2 = frame_transport(chart, xp, v2) @ up
                x, u = x + 0.5 * h * (v1 + v2), u + 0.5 * h * (udot1 + udot2)
                u = gram_schmidt_metric(chart, x, u)
            g = g_mid @ group_exp(scale * np.einsum("pk,kij->pij", xi[:, m - 1, 1], mats) + drift)
        if m in out_steps:
            xs[m], us[m], gs[m] = x, u, g
    return (np.array([xs[k] for k in out_steps]), np.array([us[k] for k in out_steps]),
            np.array([gs[k] for k in out_steps]))


def moebius_from_frame(x0, u0):
    """F in SL(2,R) whose Moebius map sends i to x0 with derivative u0 there.

    F'(i) = 1/(ci + d)^2 fixes ci + d up to sign, and F(i) = x0 then fixes
    ai + b = x0 (ci + d).
    """
    assert np.linalg.det(u0) > 0
    zeta = 1.0 / np.sqrt(complex(u0[0, 0], u0[1, 0]))
    omega = complex(*x0) * zeta
    return np.array([[omega.imag, omega.real], [zeta.imag, zeta.real]])


def moebius_point_and_frame(F):
    """Point F(i) and frame F'(i) (as a conformal matrix) of stacked 2 x 2 matrices."""
    a, b, c, d = F[:, 0, 0], F[:, 0, 1], F[:, 1, 0], F[:, 1, 1]
    z = (a * 1j + b) / (c * 1j + d)
    dz = (a * d - b * c) / (c * 1j + d) ** 2
    return (np.stack([z.real, z.imag], -1),
            np.stack([np.stack([dz.real, -dz.imag], -1), np.stack([dz.imag, dz.real], -1)], -2))


def _rotation(n, angle):
    """A rotation by ``angle`` in the (0, n-1) plane."""
    r = np.eye(n)
    r[0, 0] = r[-1, -1] = np.cos(angle)
    r[0, -1], r[-1, 0] = -np.sin(angle), np.sin(angle)
    return r


@pytest.mark.parametrize("chart", ["euclidean:2", "euclidean:3", "euclidean:4", "euclidean:5",
                                   "hyperbolic2"])
def test_block_engine_matches_per_step_reference(chart):
    # 2,500 steps cross many chunk edges; outputs fall mid-chunk, on both
    # sides of the 16-step sub-chunk and 128-step chunk edges, and on
    # 1024-step edges.
    n = chart_by_name(chart).dim
    x0 = [0.3, 1.5] if chart == "hyperbolic2" else [0.3, -0.2, 0.1, 0.0, 0.0][:n]
    e0 = _rotation(n, 0.7)[:, 0]
    abar = 0.8 * (_rotation(n, np.pi / 2) - _rotation(n, np.pi / 2).T)
    slow_dt = 0.1 * 0.05**2
    out_steps = [0, 1, 15, 16, 17, 127, 128, 129, 255, 256, 257, 500, 1023, 1024, 1500, 2048,
                 2049, 2500]
    cfg = SimConfig(chart=chart, epsilon=0.05, t_final=2500 * slow_dt, seed=21, e0=e0, abar=abar,
                    x0=np.array(x0), u0=_rotation(n, -0.4),
                    output_times=tuple(k * slow_dt for k in out_steps))
    ref_x, ref_u, ref_g = strang_reference(cfg, [0, 5, 9])
    out = simulate_paths(cfg, [0, 5, 9], record_group=True)
    np.testing.assert_allclose(out.xs, ref_x, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out.us, ref_u, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out.gs, ref_g, rtol=0, atol=1e-12)


def test_simulate_paths_memory_is_bounded_by_its_workspaces():
    # 500 paths of 1,200 steps on euclidean:3.  The workspaces (a 128-step
    # noise buffer, the chunk's directions, the pair chain's 16-step
    # sub-block arrays) peak at 7.9 MB; with the real quaternion chain they
    # peaked at 8.4 MB, with 256-step noise blocks at 11.4 MB, and with
    # 1024-step blocks and chain temporaries made afresh for every chunk at
    # 47.6 MB.
    cfg = SimConfig(chart="euclidean:3", epsilon=0.1, t_final=1.2, seed=2)
    simulate_paths(cfg, range(2))
    tracemalloc.start()
    try:
        simulate_paths(cfg, range(500))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def full_width_batch_peak(chart):
    """tracemalloc peak of one path_batches-wide call of 150 steps without frames."""
    cfg = SimConfig(chart=chart, epsilon=0.1, t_final=0.15, seed=4)
    batch = path_batches(cfg, 100_000, record_frames=False, record_group=False)[0]
    simulate_paths(cfg, range(2), record_frames=False)
    tracemalloc.start()
    try:
        simulate_paths(cfg, batch, record_frames=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("chart,bound_mib", [("hyperbolic2", 32.0), ("euclidean:5", 26.0)])
def test_full_width_batch_memory_on_the_matrix_chain(chart, bound_mib):
    # 2,978 and 611 paths, their Philox streams priced, peak at 19.4 and
    # 17.3 MiB; 3,426 and 627 peaked at 21.9 and 17.7 MiB.  Before the half-plane
    # stage was priced, hyperbolic2 ran 3,744 paths and peaked at 24.0 MiB
    # (24.1 and 17.8 MiB at 3,771 and 633 paths, before g was priced); a
    # (128, P, n, n) block of midpoint rotations held per chunk made
    # hyperbolic2 peak at 38.9 MiB and adds 15.5 MiB at n = 5.
    assert full_width_batch_peak(chart) < bound_mib * 2**20


@pytest.mark.parametrize("chart,bound_mib", [("euclidean:3", 24.5), ("euclidean:4", 20.0)])
def test_full_width_batch_memory_on_the_pair_chain(chart, bound_mib):
    # 1,238 and 865 paths, priced with the pair chain's arrays and their
    # Philox streams, peak at 17.3 and 17.2 MiB (18.2 and 17.7 MiB at 1,309
    # and 899 paths, the streams unpriced); at 1,721 and 981 paths, with the
    # chain's arrays unpriced too, the SU(2) pair chain peaked at 23.8 and
    # 19.3 MiB.  The real quaternion chain peaked at 25.3 MiB on
    # euclidean:3; the matrix chain held 18.1 MiB on euclidean:4, at 7
    # times the time a step.
    assert full_width_batch_peak(chart) < bound_mib * 2**20


def test_full_width_batch_memory_on_the_angle_chain():
    # 5,322 paths, priced with the chain's row of 257 numbers, which also
    # holds their noise and directions, its carry and their Philox streams,
    # peak at 19.1 MiB.  With the streams unpriced, 6,944 paths peaked at
    # 24.9 MiB.  When the noise and directions had arrays of their own,
    # 2,570 paths peaked at 19.0 MiB, and with the angles unpriced, a call
    # of 3,771 paths at 27.8 MiB.
    assert full_width_batch_peak("euclidean:2") < 24.0 * 2**20


@pytest.mark.parametrize("chart", ["euclidean:2", "euclidean:3", "euclidean:4", "euclidean:5",
                                   "hyperbolic2", "strip-test"])
def test_path_price_is_what_the_workspaces_hold_per_path(chart):
    # path_batches prices a path's share of the run's arrays by scanning
    # the workspaces it builds for 2 paths and for 1.  Built for 1,000
    # paths they take 1,000 times that share as tracemalloc sees it, to
    # 0.04% (the constants), so no array escapes the scan: the cumsum
    # stage's running sum, 2 numbers a path, is 0.26% of euclidean:2's.
    n = chart_by_name(chart).dim
    rot = _rotation(n, np.pi / 2)
    cfg = SimConfig(chart=chart, epsilon=0.1, t_final=0.2, abar=rot - rot.T)
    eng = perturbed_geodesic._Engine(cfg)
    n_steps = perturbed_geodesic.output_steps(cfg)[0]
    price = (perturbed_geodesic._workspace_bytes(eng, 2, n_steps)
             - perturbed_geodesic._workspace_bytes(eng, 1, n_steps))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = perturbed_geodesic._workspaces(eng, 1000, n_steps)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held[1].shape == (1000, n, 128)
    assert grown == pytest.approx(1000 * price, rel=1e-3)


@pytest.mark.parametrize("chart,width", [("euclidean:2", 5370), ("euclidean:3", 1241),
                                         ("euclidean:4", 866), ("euclidean:5", 611),
                                         ("hyperbolic2", 2632)])
def test_full_width_batch_sizes(chart, width):
    # With each stream priced at 736 B, before its key dropped its
    # __dict__, the calls ran 5,322, 1,238, 865, 611 and 2,978 paths.
    # Before each path's Philox stream was priced, the calls ran 2,570,
    # 1,309, 899, 627 and 3,426 paths; euclidean:2 ran 2,570 because its
    # noise and directions had arrays of their own besides the angle
    # chain's row.  hyperbolic2 ran 3,744 paths a call before its half-plane stage's F
    # and step matrices, 4 + 16 x 3 numbers a path, were priced; the flat
    # charts ran 2,576, 1,312, 900 and 628 before the cumsum stage's
    # running sum, n numbers a path, was.  hyperbolic2 ran 2,993 before the
    # matrix chain's sub-block of 16 turns and their tangents, 96 numbers
    # a path, were priced.
    cfg = SimConfig(chart=chart, epsilon=0.1, t_final=0.15, seed=4)
    assert len(path_batches(cfg, 100_000, record_frames=False, record_group=False)[0]) == width


def run_angle_chain(xi, abar=None):
    """An euclidean:2 angle chain run over one chunk of noise xi (P, steps, 2, 1), and the
    midpoint directions (P, 2, steps) it wrote."""
    eng = perturbed_geodesic._Engine(SimConfig(chart="euclidean:2", epsilon=0.05, t_final=1.0,
                                               abar=abar))
    chain = perturbed_geodesic._AngleChain(eng, xi.shape[0])
    e_dir = np.empty((xi.shape[0], 2, xi.shape[1]))
    chain.run(xi, np.arange(0), e_dir)
    return chain, e_dir


def test_angle_chain_is_exact_across_the_tangent_pole():
    # Half-steps of 1e-11 walk the half-angle b = a / 2 (e0 = e1) from
    # 1.3e-9 below pi/2 to 1.3e-9 above it, where |tan b| exceeds 7e8 and
    # passes 1e11; each path starts at its own offset.
    eng = perturbed_geodesic._Engine(SimConfig(chart="euclidean:2", epsilon=0.05, t_final=1.0))
    scale = eng.noise_scale * eng.basis[0, 0, 1]        # angle per unit normal
    offsets = np.linspace(-1.3e-9, -1.2e-9, 7)
    half_steps = np.full((7, 256), 2e-11)
    half_steps[:, 0] = np.pi + 2 * offsets
    xi = (half_steps / scale).reshape(7, 128, 2, 1)
    _, e_dir = run_angle_chain(xi)
    angle = np.cumsum(scale * xi.reshape(7, 256), axis=1)[:, ::2]
    assert np.abs(angle - np.pi).min() < 1e-11 and np.ptp(angle) > 4e-9
    assert np.all(np.isfinite(e_dir))
    np.testing.assert_allclose(np.hypot(e_dir[:, 0], e_dir[:, 1]), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(e_dir[:, 0], np.cos(angle), rtol=0, atol=1e-15)
    np.testing.assert_allclose(e_dir[:, 1], -np.sin(angle), rtol=0, atol=1e-15)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_angle_chain_carries_its_half_angle_modulo_pi(sign):
    # 10^5 steps with a drift that turns g about 2,400 times: after every
    # chunk the carried half-angle is back in [0, pi).  np.remainder may
    # return the float pi, which is below pi, for a tiny negative angle.
    rot = _rotation(2, np.pi / 2)
    chain, e_dir = run_angle_chain(np.zeros((4, 128, 2, 1)), abar=sign * 30.0 * (rot - rot.T))
    rng = np.random.default_rng(5)
    for _ in range(10**5 // 128):
        chain.run(rng.standard_normal((4, 128, 2, 1)), np.arange(0), e_dir)
        assert np.all((chain.half >= 0.0) & (chain.half <= np.pi))
    assert np.all(np.isfinite(e_dir))


def test_angle_chain_rows_hold_the_noise_and_directions():
    # On flat n = 2 the run's noise and directions are views of the angle
    # chain's rows, so a chunk holds no other array per path.
    eng = perturbed_geodesic._Engine(SimConfig(chart="euclidean:2", epsilon=0.1, t_final=0.2))
    noise, dirs, chain, _ = perturbed_geodesic._workspaces(eng, 10, 2000)
    assert noise.shape == (10, 128, 2, 1) and dirs.shape == (10, 2, 128)
    for view in (noise, dirs):
        assert view.base is chain.halves and np.shares_memory(view, chain.halves)


@pytest.mark.parametrize("chart", ["euclidean:2", "strip-test"])
def test_angle_chain_rows_give_the_numbers_of_separate_arrays(chart, monkeypatch):
    # 300 paths, two blocks of the chain's tangent scratch, of 300 steps, a
    # partial last chunk, with a drift and a rotated e0: bitwise the same
    # whether the noise and directions are views of the chain's rows or
    # arrays of their own.
    rot = _rotation(2, np.pi / 2)
    slow_dt = 0.1 * 0.05**2
    cfg = SimConfig(chart=chart, epsilon=0.05, t_final=300 * slow_dt, seed=3,
                    e0=_rotation(2, 0.7)[:, 0], abar=0.8 * (rot - rot.T),
                    output_times=tuple(np.linspace(0.0, 300 * slow_dt, 7)))
    shared = simulate_paths(cfg, range(300), record_group=True)

    def own_arrays(chain, steps):
        n_paths = len(chain.halves)
        return np.empty((n_paths, steps, 2, 1)), np.empty((n_paths, 2, steps + 1))[:, :, :steps]

    monkeypatch.setattr(perturbed_geodesic._AngleChain, "buffers", own_arrays)
    alone = simulate_paths(cfg, range(300), record_group=True)
    for field in ("xs", "us", "gs", "alive"):
        assert getattr(shared, field).tobytes() == getattr(alone, field).tobytes()
    assert [(p, t) for p, t, _ in shared.aborts] == [(p, t) for p, t, _ in alone.aborts]


@pytest.mark.parametrize("seed,stream", [(0, 0), (7, 12), (2**64 + 5, 3), (2**70, 2**48 + 1),
                                         (-1, 9)])
def test_philox_stream_is_the_stream_of_its_philox_key(seed, stream):
    mask = (1 << 64) - 1
    key = np.array([seed & mask, stream & mask], dtype=np.uint64)
    keyed = np.random.Generator(np.random.Philox(key=key))
    assert (philox_stream(seed, stream).standard_normal(1000).tobytes()
            == keyed.standard_normal(1000).tobytes())


def test_stream_price_is_what_a_stream_holds():
    # path_batches prices each path's Philox stream at STREAM_BYTES; 2,000
    # streams hold that, to 5%, as tracemalloc sees them.
    philox_stream(12345, 0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        streams = [philox_stream(12345, p) for p in range(2000)]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown == pytest.approx(len(streams) * perturbed_geodesic.STREAM_BYTES, rel=0.05)


@pytest.mark.parametrize("chart", ["euclidean:3", "euclidean:4"])
def test_zero_rotation_vector_leaves_g_at_the_identity(chart):
    # 300 steps cross two chunk ends, where the pairs are renormalised.
    n = chart_by_name(chart).dim
    cfg = every_step(300, chart=chart, epsilon=0.05)
    out = simulate_paths(cfg, range(3), rngs=[ZeroNoise()] * 3, record_group=True)
    assert np.array_equal(out.gs, np.broadcast_to(np.eye(n), out.gs.shape))
    np.testing.assert_allclose(out.xs[-1, :, 0], 300 * 0.1 * 0.05, rtol=1e-13)
    assert np.all(out.xs[:, :, 1:] == 0.0)


def test_pair_chain_runs_generators_that_leave_a_component_uncovered(monkeypatch):
    # Two of euclidean:3's three generators, A_01 and A_12, turn about the
    # first and third axes only, so the middle component of every rotation
    # vector has no term; it raised ValueError when its row was unpacked.
    monkeypatch.setattr(perturbed_geodesic, "canonical_basis",
                        lambda n: canonical_basis(n)[[0, 2]])
    cfg = SimConfig(chart="euclidean:3", epsilon=0.1, t_final=0.3, seed=5)
    eng = perturbed_geodesic._Engine(cfg)
    assert eng.n_noise == 2
    noise, dirs, chain, _ = perturbed_geodesic._workspaces(eng, 4, 300)
    # The pairs are renormalised at chunk ends, so a chunk's first
    # direction is unit to rounding; the products of a chunk move the norm
    # by up to 1.2e-14 with all three generators too.
    rng = np.random.default_rng(5)
    for _ in range(3):
        rng.standard_normal(noise.shape, out=noise)
        chain.run(noise, np.arange(0), dirs)
        assert np.isfinite(dirs).all()
        norms = np.linalg.norm(dirs, axis=1)
        np.testing.assert_allclose(norms[:, 0], 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=2e-14)
    out = simulate_paths(cfg, range(4), record_group=True)
    assert out.alive.all() and np.isfinite(out.xs).all() and np.isfinite(out.gs).all()


@pytest.mark.parametrize("chart", ["euclidean:2", "euclidean:3", "euclidean:5", "hyperbolic2"])
def test_batch_invariance(chart):
    # 1,200 steps: a path's numbers, across a block edge, do not depend on
    # the paths that share its batch.
    cfg = SimConfig(chart=chart, epsilon=0.1, t_final=1.2, seed=3)
    whole = simulate_paths(cfg, range(16), record_group=True)
    alone = simulate_paths(cfg, [11], record_group=True)
    np.testing.assert_array_equal(whole.xs[:, 11], alone.xs[:, 0])
    np.testing.assert_array_equal(whole.us[:, 11], alone.us[:, 0])
    np.testing.assert_array_equal(whole.gs[:, 11], alone.gs[:, 0])


def _rk4_frame_step(chart, x, u, w, h, substeps=1000):
    """The frame ODE x' = u w, u' = B(x, u w) u over time h by classical RK4."""
    def rate(x, u):
        v = u @ w
        return v, frame_transport(chart, x, v) @ u

    dt = h / substeps
    for _ in range(substeps):
        k1 = rate(x, u)
        k2 = rate(x + 0.5 * dt * k1[0], u + 0.5 * dt * k1[1])
        k3 = rate(x + 0.5 * dt * k2[0], u + 0.5 * dt * k2[1])
        k4 = rate(x + dt * k3[0], u + dt * k3[1])
        x = x + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        u = u + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return x, u


@pytest.mark.parametrize("x0,u0,angle", [
    ([0.0, 1.0], np.eye(2), 0.0),
    ([0.3, 1.5], 1.5 * _rotation(2, -0.4), 0.7),
    ([-2.0, 0.2], 0.2 * np.array([[0.0, 1.0], [1.0, 0.0]]), 2.5),   # reverses orientation
], ids=["base", "rotated", "reflected"])
def test_exact_h2_step_matches_rk4(x0, u0, angle):
    # Noise off, so one step runs the geodesic along w = e0 for time
    # h = h0 eps = 0.1, where a Heun step is off by about 1e-4.
    e0 = _rotation(2, angle)[:, 0]
    cfg = every_step(1, chart="hyperbolic2", epsilon=1.0, e0=e0, x0=np.array(x0), u0=u0)
    out = simulate_paths(cfg, [0], rngs=[ZeroNoise()])
    x, u = _rk4_frame_step(chart_by_name("hyperbolic2"), np.array(x0, dtype=float), u0, e0, 0.1)
    np.testing.assert_allclose(out.xs[-1, 0], x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.us[-1, 0], u, rtol=0, atol=1e-12)


def test_h2_mirror_start_gives_mirrored_paths():
    # x1 -> -x1 is an isometry: the run from the mirrored start is the
    # mirror image of the run, whichever of the two frames reverses
    # orientation.
    mirror = np.diag([-1.0, 1.0])
    kw = dict(chart="hyperbolic2", epsilon=0.1, t_final=0.3, seed=8, e0=_rotation(2, 0.3)[:, 0])
    x0, u0 = np.array([0.4, 0.7]), 0.7 * _rotation(2, 1.1)
    out = simulate_paths(SimConfig(x0=x0, u0=u0, **kw), range(4))
    flip = simulate_paths(SimConfig(x0=mirror @ x0, u0=mirror @ u0, **kw), range(4))
    np.testing.assert_allclose(flip.xs, out.xs @ mirror, rtol=0, atol=1e-12)
    np.testing.assert_allclose(flip.us, mirror @ out.us, rtol=0, atol=1e-12)


def test_h2_overflow_aborts_at_the_failing_step():
    # A geodesic straight down from x2 = 1e-150: at step m, c^2 + d^2 =
    # e^(m h) / x2_0, which overflows at the step computed below (mid-chunk).
    # The failing step's state is never shown as alive, and the path is then
    # held at its start.
    x0, h = np.array([0.0, 1e-150]), 0.1
    fail = int(np.ceil(np.log(np.finfo(float).max * x0[1]) / h))
    steps = fail + 100
    cfg = every_step(steps, chart="hyperbolic2", epsilon=1.0, e0=np.array([0.0, -1.0]), x0=x0)
    out = simulate_paths(cfg, [0], rngs=[ZeroNoise()])
    assert not out.alive[0]
    [(path, t, x_bad)] = out.aborts
    assert path == 0 and abs(t / (cfg.h0 * cfg.epsilon**2) - fail) <= 1
    assert not (np.all(np.isfinite(x_bad)) and x_bad[1] > 0.0)
    step = int(round(t / (cfg.h0 * cfg.epsilon**2)))
    shown = out.xs[:step, 0]
    assert np.all(np.isfinite(shown)) and np.all(shown[:, 1] > 0.0)
    assert np.all(np.isfinite(out.us[:step, 0]))
    np.testing.assert_array_equal(out.xs[step:, 0], np.broadcast_to(x0, (steps + 1 - step, 2)))
    u0 = resolve_start(cfg, chart_by_name("hyperbolic2"))[1]
    np.testing.assert_array_equal(out.us[step:, 0], np.broadcast_to(u0, (steps + 1 - step, 2, 2)))


class ScaledNoise:
    """A generator's standard normals multiplied by ``scale``."""

    def __init__(self, gen, scale):
        self.gen, self.scale = gen, scale

    def standard_normal(self, shape, out=None):
        out = self.gen.standard_normal(shape, out=out)
        out *= self.scale
        return out


def test_h2_paths_near_the_axis_stay_alive():
    # Heading down from x2 = 1e-150, the paths pass x2 ~ 1e-173 by t = 51,
    # where F's rows are ~1e86 and ~1e-66: a det formed there as ad - bc
    # cancels to 0, and F rescaled by it made every path abort at a chunk
    # start with x1 = nan although its state was finite and above the axis.
    t_final = 100.0
    cfg = SimConfig(chart="hyperbolic2", epsilon=1.0, t_final=t_final, x0=np.array([0.0, 1e-150]),
                    e0=np.array([0.0, -1.0]), output_times=tuple(np.linspace(0.0, t_final, 101)))
    rngs = [ScaledNoise(philox_stream(0, p), 0.3) for p in range(8)]
    out = simulate_paths(cfg, range(8), rngs=rngs)
    assert out.aborts == [] and out.alive.all()
    x2 = out.xs[..., 1]
    assert np.all(np.isfinite(out.xs)) and np.all(x2 > 0.0) and x2.min() < 1e-173
    v = out.us / x2[..., None, None]                 # orthonormal in the Euclidean sense
    assert np.max(np.abs(np.einsum("...ji,...jk->...ik", v, v) - np.eye(2))) < 1e-8


def test_heun_loop_converges_to_exact_h2_step(monkeypatch):
    # A copy of the half-plane with its model cleared runs the Heun loop;
    # its gap to the exact step is the Heun error, which shrinks like eps^2.
    monkeypatch.setitem(manifold._CUSTOM_CHARTS, "hyperbolic2-heun",
                        dataclasses.replace(hyperbolic2_chart(), name="hyperbolic2-heun",
                                            model=None))
    gaps = {}
    for eps in (0.1, 0.05):
        kw = dict(epsilon=eps, t_final=0.5, seed=12, x0=np.array([0.0, 1.0]), output_times=(0.5,))
        exact = simulate_paths(SimConfig(chart="hyperbolic2", **kw), range(20), record_frames=False)
        heun = simulate_paths(SimConfig(chart="hyperbolic2-heun", **kw), range(20), record_frames=False)
        gaps[eps] = float(np.median(hyperbolic_distance(exact.xs[-1], heun.xs[-1])))
    assert gaps[0.05] < 1e-3
    assert gaps[0.1] >= 3.0 * gaps[0.05]


@pytest.mark.parametrize("abar", [None, [[0.0, 0.9], [-0.9, 0.0]]])
def test_renamed_half_plane_takes_the_exact_step(abar, monkeypatch):
    # The frame step follows the chart's model, not its name: picked by
    # name, this copy ran the Heun loop, up to 5.6e-5 off the exact step.
    monkeypatch.setitem(manifold._CUSTOM_CHARTS, "h2copy",
                        dataclasses.replace(hyperbolic2_chart(), name="h2copy"))
    runs = [simulate_paths(SimConfig(chart=chart, epsilon=0.1, t_final=0.5, seed=4, abar=abar),
                           range(6), record_group=True) for chart in ("hyperbolic2", "h2copy")]
    for field in ("xs", "us", "gs", "alive"):
        assert np.array_equal(getattr(runs[0], field), getattr(runs[1], field)), field


def test_renamed_chart_starts_at_its_base_point(monkeypatch):
    # The default x0 comes from the chart's model, not from its name: a
    # renamed copy of the half-plane starts at (0, 1), on its own domain.
    monkeypatch.setitem(manifold._CUSTOM_CHARTS, "h2copy",
                        dataclasses.replace(hyperbolic2_chart(), name="h2copy"))
    cfg = SimConfig(chart="h2copy", epsilon=0.1, t_final=0.01)
    x0, _, _ = resolve_start(cfg, chart_by_name("h2copy"))
    assert np.array_equal(x0, [0.0, 1.0])
    out = simulate_paths(cfg, [0])
    assert out.alive.all() and not out.aborts
    assert np.array_equal(out.xs[0, 0], [0.0, 1.0])


def _strip(x):
    return np.abs(np.asarray(x)[..., 0]) < 0.3


@pytest.fixture
def h2_strip(monkeypatch):
    """The strip |x1| < 0.3, registered for one test only, as charts that
    give their domain and nothing else that says how to check it: the
    half-plane with its model cleared (``h2-strip``), the half-plane's
    metric and symbols alone (``curved-strip``) and the euclidean model
    (``flat-strip``, as ``strip-test`` is built)."""
    h2 = hyperbolic2_chart()
    for chart in (dataclasses.replace(h2, name="h2-strip", model=None, in_domain=_strip),
                  Chart("curved-strip", dim=2, metric=h2.metric, christoffel=h2.christoffel,
                        in_domain=_strip),
                  Chart("flat-strip", dim=2, model="euclidean", in_domain=_strip)):
        monkeypatch.setitem(manifold._CUSTOM_CHARTS, chart.name, chart)


def test_model_less_half_plane_needs_an_x0(h2_strip):
    # With its model cleared, the cut half-plane starts by default at the
    # origin, on the axis, where its metric is not defined.
    cfg = SimConfig(chart="h2-strip", epsilon=0.2, t_final=0.04, seed=0)
    with pytest.raises(ConfigError, match="pass x0"):
        simulate_paths(cfg, range(2))
    out = simulate_paths(dataclasses.replace(cfg, x0=np.array([0.1, 1.2])), range(2))
    assert out.xs.shape[1] == 2


@pytest.mark.parametrize("chart", ["strip-test", "flat-strip", "h2-strip", "curved-strip"])
def test_heun_frame_holds_aborted_paths_at_their_start(chart, h2_strip):
    # Every chart runs the Heun loop, flat and curved, and most paths leave
    # the strip within 250 steps: a chart with a domain checks it, with no
    # flag to say so (curved-strip ran on past the cut, as flat-strip did
    # in the cumsum frame).  At this x0 the metric Gram-Schmidt moves
    # u0 by rounding, so a held frame must be put back, not re-orthonormalized.
    cfg = every_step(250, chart=chart, epsilon=0.2, seed=0, x0=np.array([0.1, 1.2]))
    out = simulate_paths(cfg, range(8))
    in_domain = chart_by_name(chart).in_domain
    x0, u0, _ = resolve_start(cfg, chart_by_name(chart))
    steps = [int(round(t / (cfg.h0 * cfg.epsilon**2))) for _, t, _ in out.aborts]
    assert len(steps) >= 3 and steps == sorted(steps)
    assert sorted(p for p, _, _ in out.aborts) == list(np.nonzero(~out.alive)[0])
    # Output row k is step k; a path is alive up to the step it failed at.
    alive = np.ones(out.xs.shape[:2], dtype=bool)
    for (p, _, x_bad), step in zip(out.aborts, steps):
        assert not in_domain(x_bad)
        alive[step:, p] = False
        assert np.all(out.xs[step:, p] == x0) and np.all(out.us[step:, p] == u0)
    assert np.all(in_domain(out.xs[alive]))


def test_flat_chart_with_a_domain_aborts_like_strip_test(h2_strip):
    # A euclidean chart that gives in_domain is checked, bitwise as the
    # strip-test chart: it ran the cumsum frame unchecked (0 of 50 paths
    # aborted at epsilon 0.2, T 1, and |x1| reached 4.30 against the cut).
    runs = [simulate_paths(SimConfig(chart=chart, epsilon=0.2, t_final=1.0, seed=0), range(8),
                           record_frames=True) for chart in ("flat-strip", "strip-test")]
    for field in ("xs", "us", "alive"):
        assert np.array_equal(getattr(runs[0], field), getattr(runs[1], field)), field
    assert len(runs[0].aborts) >= 3
    assert [(p, t, list(x)) for p, t, x in runs[0].aborts] == \
        [(p, t, list(x)) for p, t, x in runs[1].aborts]
    assert np.all(np.abs(runs[0].xs[..., 0]) < 0.3)


def test_heun_frame_aborts_paths_whose_frame_overflows(monkeypatch):
    # Symbols of 1e200 keep x finite while u overflows: the Heun check read
    # x alone, and the metric Gram-Schmidt then raised "frame columns are
    # not linearly independent".  Every path aborts, held at its start.
    flat = manifold.euclidean_chart(2)
    chart = Chart("huge-symbols", dim=2, metric=flat.metric,
                  christoffel=lambda x: np.full(np.shape(x)[:-1] + (2, 2, 2), 1e200))
    monkeypatch.setitem(manifold._CUSTOM_CHARTS, chart.name, chart)
    cfg = SimConfig(chart=chart.name, epsilon=0.2, t_final=0.05, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        out = simulate_paths(cfg, range(4), record_frames=True)
    assert not out.alive.any() and sorted(p for p, _, _ in out.aborts) == [0, 1, 2, 3]
    assert np.all(out.xs[1:] == 0.0) and np.all(out.us[1:] == np.eye(2))
