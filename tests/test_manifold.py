import dataclasses

import numpy as np
import pytest

from frameflow import (
    ConfigError,
    DomainExitError,
    chart_by_name,
    euclidean_chart,
    frame_transport,
    gram_schmidt_metric,
    hyperbolic2_chart,
    hyperbolic_distance,
    manifold,
    numeric_christoffel,
    register_chart,
)


def hyperbolic_points(rng, count):
    """Domain points kept away from the boundary so FD stencils behave."""
    x1 = rng.uniform(-2.0, 2.0, size=count)
    x2 = rng.uniform(0.5, 3.0, size=count)
    return np.column_stack([x1, x2])


def frame_defect(chart, x, u):
    """Largest entry of u^T G(x) u - I (metric-orthonormality defect)."""
    gram = np.einsum("...ji,...jk,...kl->...il", u, chart.metric(x), u)
    return float(np.max(np.abs(gram - np.eye(chart.dim))))


def horizontal_velocity(chart, x, u, e):
    """Base velocity v = u e and the frame's transport rate along it."""
    v = u @ e
    return v, frame_transport(chart, x, v) @ u


class TestEuclideanChart:
    def test_metric_is_identity(self):
        chart = euclidean_chart(3)
        x = np.array([0.3, -1.0, 2.0])
        np.testing.assert_array_equal(chart.metric(x), np.eye(3))

    def test_christoffel_vanishes(self):
        chart = euclidean_chart(2)
        assert np.all(chart.christoffel(np.array([5.0, -2.0])) == 0.0)

    def test_frame_invariant_reduces_to_orthogonality(self):
        chart = euclidean_chart(2)
        theta = 0.7
        u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        assert frame_defect(chart, np.zeros(2), u) < 1e-14


class TestHyperbolicChart:
    def test_christoffel_values(self):
        chart = hyperbolic2_chart()
        gamma = chart.christoffel(np.array([0.0, 2.0]))
        assert gamma[0, 0, 1] == pytest.approx(-0.5)
        assert gamma[0, 1, 0] == pytest.approx(-0.5)
        assert gamma[1, 1, 1] == pytest.approx(-0.5)
        assert gamma[1, 0, 0] == pytest.approx(0.5)
        # all other entries vanish
        mask = np.zeros((2, 2, 2), dtype=bool)
        mask[0, 0, 1] = mask[0, 1, 0] = mask[1, 1, 1] = mask[1, 0, 0] = True
        assert np.all(gamma[~mask] == 0.0)

    def test_metric_at_unit_height(self):
        chart = hyperbolic2_chart()
        np.testing.assert_allclose(chart.metric(np.array([0.0, 1.0])), np.eye(2), atol=1e-15)

    def test_frame_columns_have_euclidean_norm_x2(self):
        # u^T G u = I with G = I/x2^2 forces |u_l| = x2 per column.
        chart = hyperbolic2_chart()
        rng = np.random.default_rng(0)
        for x in hyperbolic_points(rng, 10):
            u = gram_schmidt_metric(chart, x, rng.standard_normal((2, 2)))
            norms = np.linalg.norm(u, axis=0)
            np.testing.assert_allclose(norms, x[1], rtol=1e-12)
            assert u[:, 0] @ u[:, 1] == pytest.approx(0.0, abs=1e-12)

    def test_domain_error_below_axis(self):
        chart = hyperbolic2_chart()
        with pytest.raises(DomainExitError):
            chart.metric(np.array([0.0, -1.0]))
        assert not chart.in_domain(np.array([0.0, 0.0]))


class TestNumericChristoffel:
    def test_euclidean_all_zero(self):
        chart = euclidean_chart(2)
        gamma = numeric_christoffel(chart.metric, np.array([0.4, 1.7]))
        np.testing.assert_allclose(gamma, 0.0, atol=1e-12)

    def test_matches_analytic_hyperbolic(self):
        chart = hyperbolic2_chart()
        rng = np.random.default_rng(1)
        worst = 0.0
        for x in hyperbolic_points(rng, 100):
            num = numeric_christoffel(chart.metric, x, h_fd=1e-5)
            worst = max(worst, float(np.max(np.abs(num - chart.christoffel(x)))))
        assert worst < 1e-6

    def test_symmetric_in_lower_indices(self):
        chart = hyperbolic2_chart()
        gamma = numeric_christoffel(chart.metric, np.array([1.0, 0.8]))
        np.testing.assert_array_equal(gamma, np.swapaxes(gamma, 1, 2))

    def test_singular_metric_raises(self):
        def degenerate(x):
            return np.zeros((2, 2))

        with pytest.raises(np.linalg.LinAlgError):
            numeric_christoffel(degenerate, np.zeros(2))


class TestHorizontalVelocity:
    def test_euclidean_transport_is_trivial(self):
        chart = euclidean_chart(3)
        u = np.eye(3)
        e = np.array([0.0, 1.0, 0.0])
        v, udot = horizontal_velocity(chart, np.zeros(3), u, e)
        np.testing.assert_array_equal(v, u @ e)
        np.testing.assert_array_equal(udot, 0.0)

    def test_hyperbolic_transport_at_base_point(self):
        # At x = (0,1), u = I, e = e1: the transport equation with the
        # chart's symbols gives column l rate (u[1,l], -u[0,l]).
        chart = hyperbolic2_chart()
        v, udot = horizontal_velocity(chart, np.array([0.0, 1.0]), np.eye(2),
                                      np.array([1.0, 0.0]))
        np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(udot, np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-15)

    def test_first_order_orthonormality_preservation(self):
        # d/dt (u^T G(x(t)) u) = 0 along (v, udot), by central differences
        # with step 1e-6.  The difference quotient runs in extended
        # precision with a test-local metric: in double precision the
        # rounding floor eps/dt of the quotient alone is ~2e-10, above the
        # defect bound being checked.
        chart = hyperbolic2_chart()
        rng = np.random.default_rng(2)
        dt = np.longdouble(1e-6)

        def metric_ld(x):
            return np.eye(2, dtype=np.longdouble) / np.longdouble(x[1]) ** 2

        for x in hyperbolic_points(rng, 20):
            u = gram_schmidt_metric(chart, x, rng.standard_normal((2, 2)))
            e = rng.standard_normal(2)
            e /= np.linalg.norm(e)
            v, udot = horizontal_velocity(chart, x, u, e)
            x_ld, u_ld = x.astype(np.longdouble), u.astype(np.longdouble)
            v_ld, udot_ld = v.astype(np.longdouble), udot.astype(np.longdouble)
            uplus, uminus = u_ld + dt * udot_ld, u_ld - dt * udot_ld
            gram_plus = uplus.T @ metric_ld(x_ld + dt * v_ld) @ uplus
            gram_minus = uminus.T @ metric_ld(x_ld - dt * v_ld) @ uminus
            rate = (gram_plus - gram_minus) / (2.0 * dt)
            assert np.max(np.abs(rate)) < 1e-10

    def test_out_of_domain_rejected(self):
        # Without a closed form the transport evaluates the Christoffel
        # symbols, which reject points off the chart.
        chart = dataclasses.replace(hyperbolic2_chart(), transport_rate=None)
        with pytest.raises(DomainExitError):
            frame_transport(chart, np.array([0.0, -1.0]), np.array([1.0, 0.0]))


class TestGramSchmidtMetric:
    def test_orthonormal_input_unchanged(self):
        chart = hyperbolic2_chart()
        x = np.array([0.5, 2.0])
        u = 2.0 * np.eye(2)  # metric-orthonormal at x2 = 2
        out = gram_schmidt_metric(chart, x, u)
        np.testing.assert_allclose(out, u, atol=1e-12)

    def test_scaled_input_renormalized(self):
        chart = euclidean_chart(2)
        out = gram_schmidt_metric(chart, np.zeros(2), 2.0 * np.eye(2))
        assert frame_defect(chart, np.zeros(2), out) < 1e-12

    def test_perturbed_frame_repaired(self):
        chart = hyperbolic2_chart()
        rng = np.random.default_rng(3)
        x = np.array([1.0, 1.5])
        u = gram_schmidt_metric(chart, x, rng.standard_normal((2, 2)))
        noisy = u + 1e-4 * rng.standard_normal((2, 2))
        fixed = gram_schmidt_metric(chart, x, noisy)
        assert frame_defect(chart, x, fixed) < 1e-12

    @pytest.mark.parametrize("chart_name", ["hyperbolic2", "spd3"])
    def test_matches_einsum_reference(self, chart_name):
        # The modified Gram-Schmidt loop with einsum quadratic forms, as the
        # reference for the component-wise products; on hyperbolic2 and on
        # a chart with a full, point-dependent metric.
        rng = np.random.default_rng(21)
        if chart_name == "hyperbolic2":
            chart, x = hyperbolic2_chart(), hyperbolic_points(rng, 500)
        else:
            a = rng.standard_normal((3, 3))

            def metric(x):
                s = 1.0 + np.sum(np.asarray(x) ** 2, axis=-1)[..., None, None]
                return s * (a @ a.T + np.eye(3))

            chart, x = dataclasses.replace(euclidean_chart(3), metric=metric), rng.standard_normal((500, 3))
        u = rng.standard_normal((500, chart.dim, chart.dim))
        g = chart.metric(x)
        q = u.copy()
        for l in range(chart.dim):
            col = q[..., :, l]
            for m in range(l):
                prev = q[..., :, m]
                col = col - np.einsum("...i,...ij,...j->...", col, g, prev)[..., None] * prev
            q[..., :, l] = col / np.sqrt(np.einsum("...i,...ij,...j->...", col, g, col))[..., None]
        out = gram_schmidt_metric(chart, x, u)
        assert out.flags.c_contiguous
        np.testing.assert_allclose(out, q, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(gram_schmidt_metric(chart, x[7], u[7]), q[7], rtol=1e-10, atol=1e-12)

    def test_rank_deficient_rejected(self):
        chart = euclidean_chart(2)
        u = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            gram_schmidt_metric(chart, np.zeros(2), u)


class TestHyperbolicDistance:
    def test_zero_iff_same_point(self):
        p = np.array([0.3, 1.2])
        assert hyperbolic_distance(p, p) == 0.0

    def test_vertical_segment_unit_length(self):
        d = hyperbolic_distance(np.array([0.0, 1.0]), np.array([0.0, np.e]))
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        p = hyperbolic_points(rng, 100)
        q = hyperbolic_points(rng, 100)
        np.testing.assert_allclose(hyperbolic_distance(p, q), hyperbolic_distance(q, p),
                                   atol=1e-13)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(5)
        p = hyperbolic_points(rng, 100)
        q = hyperbolic_points(rng, 100)
        r = hyperbolic_points(rng, 100)
        lhs = hyperbolic_distance(p, r)
        rhs = hyperbolic_distance(p, q) + hyperbolic_distance(q, r)
        assert np.all(lhs <= rhs + 1e-12)

    def test_domain_violation(self):
        with pytest.raises(ConfigError):
            hyperbolic_distance(np.array([0.0, 1.0]), np.array([0.0, -1.0]))


class TestChartRegistry:
    def test_named_charts(self):
        assert chart_by_name("euclidean:4").dim == 4
        assert chart_by_name("hyperbolic2").name == "hyperbolic2"

    def test_unknown_chart_rejected(self):
        with pytest.raises(ConfigError):
            chart_by_name("sphere:2")
        with pytest.raises(ConfigError):
            chart_by_name("euclidean:x")

    @pytest.mark.parametrize("changes", [{"model": "hyperbolc"}, {"model": "flat"},
                                         {"model": "hyperbolic", "dim": 3}])
    def test_unknown_or_misfit_model_rejected(self, changes):
        # A misspelt model would run the Heun loop with no reference law,
        # and the exact half-plane step exists for dim 2 only.
        with pytest.raises(ConfigError, match="model"):
            dataclasses.replace(hyperbolic2_chart(), **changes)

    @pytest.mark.parametrize("in_domain", [
        lambda x: abs(x[..., 0]) < 0.3,
        lambda x: (np.abs(x[..., 0]) < 0.3) & (x[..., 1] > 0.0),
        lambda x: (x[..., 1] > 0.0) & (x[..., 1] < 10.0),
        lambda x: x[..., 1] >= 0.0,
    ])
    def test_cut_half_plane_must_clear_its_model(self, in_domain):
        # The exact half-plane step never reads in_domain: a cut copy that
        # kept the model ran past its cut with no abort (0 of 8 paths at
        # epsilon 0.2, T = 1, max |x1| = 4.44 against a cut at 0.3).
        with pytest.raises(ConfigError, match="must clear its model"):
            dataclasses.replace(hyperbolic2_chart(), name="cut", in_domain=in_domain)
        cut = dataclasses.replace(hyperbolic2_chart(), name="cut", in_domain=in_domain,
                                  model=None, unbounded=False)
        assert cut.model is None

    def test_wrapped_half_plane_keeps_its_model(self):
        # A wrapper that answers as the half-plane does, as a call counter
        # would, is the whole half-plane.
        base = hyperbolic2_chart()
        chart = dataclasses.replace(base, in_domain=lambda x: base.in_domain(x))
        assert chart.model == "hyperbolic"

    def test_built_in_models(self):
        assert euclidean_chart(3).model == "euclidean"
        assert hyperbolic2_chart().model == "hyperbolic"

    def test_custom_registration(self, monkeypatch):
        chart = euclidean_chart(2)
        # Mark the key as patched so that it is removed after the test.
        monkeypatch.setitem(manifold._CUSTOM_CHARTS, "my-flat", None)
        register_chart("my-flat", chart)
        assert chart_by_name("my-flat") is chart


class TestGeodesics:
    """Noise-off transport integrated with a plain Heun loop."""

    @staticmethod
    def integrate(chart, x, u, e, t_final, h):
        n_steps = int(round(t_final / h))
        for _ in range(n_steps):
            v1, ud1 = horizontal_velocity(chart, x, u, e)
            v2, ud2 = horizontal_velocity(chart, x + h * v1, u + h * ud1, e)
            x = x + 0.5 * h * (v1 + v2)
            u = u + 0.5 * h * (ud1 + ud2)
        return x, u

    def test_vertical_geodesic_on_h2(self):
        chart = hyperbolic2_chart()
        x, u = self.integrate(chart, np.array([0.0, 1.0]), np.eye(2),
                              np.array([0.0, 1.0]), 1.0, 1e-4)
        np.testing.assert_allclose(x, [0.0, np.e], rtol=1e-6)
        d = hyperbolic_distance(np.array([0.0, 1.0]), x)
        assert abs(d - 1.0) < 1e-6

    def test_unit_speed_along_transport(self):
        chart = hyperbolic2_chart()
        rng = np.random.default_rng(6)
        x = np.array([0.0, 1.0])
        u = np.eye(2)
        e = rng.standard_normal(2)
        e /= np.linalg.norm(e)
        h = 1e-3
        for _ in range(2000):
            v1, ud1 = horizontal_velocity(chart, x, u, e)
            speed = np.sqrt(v1 @ chart.metric(x) @ v1)
            assert abs(speed - 1.0) < 1e-8
            v2, ud2 = horizontal_velocity(chart, x + h * v1, u + h * ud1, e)
            x = x + 0.5 * h * (v1 + v2)
            u = u + 0.5 * h * (ud1 + ud2)
            u = gram_schmidt_metric(chart, x, u)
