"""Single-chart Riemannian geometry: metrics, Christoffel symbols, frames.

A :class:`Chart` bundles the metric field g_ij(x), the Christoffel field
Gamma^k_ij(x) of the Levi-Civita connection, and a domain predicate.  All
chart callables are vectorized: they accept points of shape (..., n) and
return arrays with matching leading axes.  The Christoffel array is
indexed ``Gamma[..., k, i, j]`` (upper index first) and is symmetric in
(i, j).

Frames are stored as coefficient matrices u whose column l holds the
chart components of the l-th frame vector; metric-orthonormality means
u^T G(x) u = I.  The transport law for a frame carried along a base
velocity v is

    du[k, l]/dt = - sum_ij v[i] Gamma[k, i, j] u[j, l],

and :func:`frame_transport` returns the matrix B that makes it du/dt = B u.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainExitError
from .lie_algebra import check_dim


@dataclass(frozen=True)
class Chart:
    """A global coordinate chart with its metric data.

    ``model`` is the model space the chart is, which picks its frame step,
    reference law and default x0: "euclidean" (no frame transport, the flat
    Brownian limit, the origin), "hyperbolic" (the whole upper half-plane:
    the exact PSL(2,R) step, McKean's law, (0, 1)) or None (any other
    chart: the Heun loop, no reference law, the origin).  A renamed copy
    keeps its model.  The exact half-plane step never reads ``in_domain``,
    so a "hyperbolic" chart whose ``in_domain`` is not the upper half-plane
    at a grid of probe points raises :class:`ConfigError`: a cut half-plane
    must clear its model, and, as the origin is off it, be given an x0.
    ``distance``, when present, is the model-space distance used for
    displacement statistics.
    """

    name: str
    dim: int
    metric: Callable[[np.ndarray], np.ndarray]
    christoffel: Callable[[np.ndarray], np.ndarray]
    in_domain: Callable[[np.ndarray], np.ndarray]
    model: str | None = None
    unbounded: bool = True
    distance: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    # Optional closed form of B[k, j] = -sum_i v_i Gamma[k, i, j]; lets the
    # integrator skip assembling the full Christoffel array per step.
    transport_rate: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.model not in (None, "euclidean", "hyperbolic"):
            raise ConfigError(f"chart {self.name!r}: unknown model {self.model!r}")
        if self.model == "hyperbolic" and self.dim != 2:
            raise ConfigError(f"chart {self.name!r}: the hyperbolic model needs dim 2, "
                              f"not {self.dim}")
        if self.model == "hyperbolic":
            _require_whole_half_plane(self)

    def require_in_domain(self, x: np.ndarray, t: float = 0.0) -> None:
        ok = np.asarray(self.in_domain(np.asarray(x, dtype=float)))
        if not bool(np.all(ok)):
            raise DomainExitError(t, np.asarray(x, dtype=float))


def euclidean_chart(n: int) -> Chart:
    """Flat R^n, for 2 <= n <= MAX_DIM (see :func:`lie_algebra.check_dim`):
    identity metric, vanishing Christoffel symbols."""
    check_dim(n)

    def metric(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.eye(n), x.shape[:-1] + (n, n)).copy()

    def christoffel(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (n, n, n))

    def in_domain(x):
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1], dtype=bool)

    def distance(p, q):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        return np.sqrt(np.sum((p - q) ** 2, axis=-1))

    return Chart(
        name=f"euclidean:{n}",
        dim=n,
        metric=metric,
        christoffel=christoffel,
        in_domain=in_domain,
        model="euclidean",
        distance=distance,
    )


def hyperbolic2_chart() -> Chart:
    """Upper half-plane {x2 > 0} with metric delta_ij / x2^2.

    The non-zero Christoffel symbols are
    Gamma^1_12 = Gamma^1_21 = -1/x2, Gamma^2_22 = -1/x2, Gamma^2_11 = 1/x2.
    """

    def metric(x):
        x = np.asarray(x, dtype=float)
        _require_upper(x)
        out = np.zeros(x.shape[:-1] + (2, 2))
        inv_y2 = 1.0 / x[..., 1] ** 2
        out[..., 0, 0] = inv_y2
        out[..., 1, 1] = inv_y2
        return out

    def christoffel(x):
        x = np.asarray(x, dtype=float)
        _require_upper(x)
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        inv_y = 1.0 / x[..., 1]
        out[..., 0, 0, 1] = -inv_y
        out[..., 0, 1, 0] = -inv_y
        out[..., 1, 1, 1] = -inv_y
        out[..., 1, 0, 0] = inv_y
        return out

    return Chart(
        name="hyperbolic2",
        dim=2,
        metric=metric,
        christoffel=christoffel,
        in_domain=_in_upper_half_plane,
        model="hyperbolic",
        unbounded=False,
        distance=hyperbolic_distance,
    )


def _in_upper_half_plane(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x[..., 1] > 0.0


def _require_whole_half_plane(chart: Chart) -> None:
    """Raise ConfigError unless ``chart.in_domain`` is the upper half-plane
    on a grid of points 1e-6 to 1e6 from the axes, on both sides of x2 = 0."""
    scales = 10.0 ** np.arange(-6, 7)
    x1 = np.concatenate([-scales, [0.0], scales])
    x2 = np.concatenate([scales, [0.0, -1.0]])
    probes = np.stack(np.meshgrid(x1, x2), axis=-1).reshape(-1, 2)
    inside = np.asarray(chart.in_domain(probes), dtype=bool)
    wrong = np.nonzero(inside != _in_upper_half_plane(probes))[0]
    if wrong.size:
        x = probes[wrong[0]]
        raise ConfigError(f"chart {chart.name!r}: the hyperbolic model is the whole upper "
                          f"half-plane, but in_domain is {bool(inside[wrong[0]])} at "
                          f"({x[0]:g}, {x[1]:g}); a cut half-plane must clear its model")


def _require_upper(x: np.ndarray) -> None:
    if np.any(x[..., 1] <= 0.0):
        bad = np.asarray(x, dtype=float).reshape(-1, x.shape[-1])
        bad = bad[bad[:, 1] <= 0.0][0]
        raise DomainExitError(0.0, bad)


def hyperbolic_distance(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distance on the upper half-plane: cosh(rho) = 1 + |p-q|^2 / (2 p2 q2)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any(p[..., 1] <= 0.0) or np.any(q[..., 1] <= 0.0):
        raise ConfigError("hyperbolic_distance requires points with positive second coordinate")
    arg = 1.0 + np.sum((p - q) ** 2, axis=-1) / (2.0 * p[..., 1] * q[..., 1])
    # Rounding can push the argument a hair below 1 for nearby points.
    return np.arccosh(np.maximum(arg, 1.0))


def numeric_christoffel(metric: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                        h_fd: float = 1e-5) -> np.ndarray:
    """Christoffel symbols of a metric field by central differences.

    Evaluates Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij) with
    a second-order stencil of width ``h_fd`` scaled by max(1, |x|_inf).
    The result is symmetric in (i, j) by construction.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    step = h_fd * max(1.0, float(np.max(np.abs(x))))
    dg = np.empty((n, n, n))  # dg[l] = d g / d x_l
    for l in range(n):
        e = np.zeros(n)
        e[l] = step
        dg[l] = (np.asarray(metric(x + e), dtype=float) - np.asarray(metric(x - e), dtype=float)) / (2.0 * step)
    g_inv = np.linalg.inv(np.asarray(metric(x), dtype=float))
    # bracket[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    bracket = np.einsum("ijl->lij", dg) + np.einsum("jil->lij", dg) - dg
    return 0.5 * np.einsum("kl,lij->kij", g_inv, bracket)


def frame_transport(chart: Chart, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """B[..., k, j] = -sum_i v_i Gamma[k, i, j]: a frame carried along v moves as du/dt = B u.

    Uses the chart's closed form ``transport_rate`` when it has one, and
    contracts the Christoffel symbols otherwise.  Works on stacked inputs.
    """
    if chart.transport_rate is not None:
        return chart.transport_rate(x, v)
    return -np.einsum("...i,...kij->...kj", v, chart.christoffel(x))


def gram_schmidt_metric(chart: Chart, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Re-orthonormalize frame columns in the G(x) inner product.

    Modified Gram-Schmidt; an already orthonormal frame passes through
    unchanged up to rounding.  Works on stacked inputs x (..., n) and
    u (..., n, n) with the same leading axes.  Raises on (numerically)
    rank-deficient frames.
    """
    g = np.asarray(chart.metric(x), dtype=float)
    # Component-major copies, so that every product below is one multiply
    # over the stacked axes at unit stride: gt[i, j] = g_ij (G is
    # symmetric) and ut[l, i] = u_il.
    gt = np.ascontiguousarray(g.T)
    ut = np.ascontiguousarray(np.asarray(u, dtype=float).T)
    g_cols = []                        # G times each finished column
    for l, col in enumerate(ut):
        for m, g_prev in enumerate(g_cols):
            col = col - _component_dot(col, g_prev) * ut[m]
        g_col = gt[:, 0] * col[0]
        for j in range(1, len(col)):
            g_col += gt[:, j] * col[j]
        norm2 = _component_dot(col, g_col)
        if not (0.0 < norm2.min() and norm2.max() < np.inf):
            raise ValueError("frame columns are not linearly independent")
        inv = 1.0 / np.sqrt(norm2)
        np.multiply(col, inv, out=ut[l])
        g_cols.append(g_col * inv)
    return np.ascontiguousarray(ut.T)


def _component_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[i] b[i] over the leading (component) axis."""
    total = a[0] * b[0]
    for i in range(1, len(a)):
        total = total + a[i] * b[i]
    return total


# Registry of charts reachable by name from configuration files and the CLI.
_CUSTOM_CHARTS: dict[str, Chart] = {}


def register_chart(name: str, chart: Chart) -> None:
    """Make a custom chart available to chart_by_name under ``name``."""
    _CUSTOM_CHARTS[name] = chart


def chart_by_name(name: str) -> Chart:
    """Resolve "euclidean:<n>", "hyperbolic2", or a registered custom name."""
    if name in _CUSTOM_CHARTS:
        return _CUSTOM_CHARTS[name]
    if name == "hyperbolic2":
        return hyperbolic2_chart()
    if name.startswith("euclidean:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad euclidean chart name {name!r}; expected euclidean:<n>") from None
        return euclidean_chart(n)
    raise ConfigError(f"unknown chart {name!r}; expected euclidean:<n>, hyperbolic2, or a registered name")
