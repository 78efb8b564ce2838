"""Two-scale integration of the noise-perturbed geodesic system.

The system factorizes into a slow frame ODE driven by a fast rotation:

    d(x, u)/ds = horizontal velocity of the frame in direction g_s e0,
    dg = (1/sqrt(eps)) sum_k g A_k o dw^k + g Abar ds,

in the equation clock s.  The observable of interest is the rescaled
position x at s = t/eps for slow times t in [0, T], so one path covers
equation time T/eps with step h = h0 * eps (noise variance h0 per group
step, uniformly in eps) and T/(h0 eps^2) steps in total.

Each step is a Strang splitting: half a group step, a Heun (order 2) step
of the frame ODE with the rotation frozen at its midpoint value, then the
second half group step.  Group iterates are rotations by construction;
the frame is re-orthonormalized in the point's metric every
``renorm_every`` steps and the group factor re-projected on a fixed long
cadence to shed accumulated rounding.  :func:`simulate_paths` is the one
stepping loop; :func:`simulate_rescaled_path` is its one-path view.

Randomness is counter-based: path p of a run with seed s draws from a
Philox stream keyed by (s, p), consuming, per step, one vector of N
standard normals for the first group half-step and one for the second.
Results are therefore identical however paths are batched or distributed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainExitError, require_finite
from .lie_algebra import canonical_basis, project_rotation
from .group_process import _advance, check_direction, check_drift, check_h0
from .manifold import Chart, chart_by_name, frame_transport, gram_schmidt_metric

# Steps per noise block (per-path pre-draw granularity).  Fixed constant:
# consumption order must not depend on batch composition.
_NOISE_BLOCK = 1024
# Cadence of the polar re-projection of the group factor.
_GROUP_PROJECT_EVERY = 1000


def philox_stream(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for sub-stream ``stream`` of a seeded run."""
    mask = (1 << 64) - 1
    key = np.array([seed & mask, stream & mask], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Oracle and auxiliary consumers use stream indices far above any path index.
ORACLE_STREAM_BASE = 1 << 48


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Configuration of one rescaled-path simulation.

    ``t_final`` is the horizon of the rescaled observation (slow clock);
    ``output_times`` defaults to 21 equispaced times in [0, t_final], and
    ``x0``/``u0``/``e0`` to the values :func:`resolve_start` fills in.
    Every value is checked, finiteness included, when the config is built;
    shapes, which depend on the chart, are checked when a run starts.
    """

    chart: str
    epsilon: float
    t_final: float
    e0: np.ndarray | None = None
    abar: np.ndarray | None = None
    h0: float = 0.1
    renorm_every: int = 1
    seed: int = 0
    output_times: tuple[float, ...] | None = None
    x0: np.ndarray | None = None
    u0: np.ndarray | None = None

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ConfigError("epsilon must be positive")
        if not self.t_final > 0.0:
            raise ConfigError("t_final must be positive")
        for name in ("epsilon", "t_final", "x0", "u0", "abar"):
            if getattr(self, name) is not None:
                require_finite(name, getattr(self, name))
        check_h0(self.h0)
        if self.e0 is not None:
            check_direction(self.e0)
        if self.renorm_every < 1:
            raise ConfigError("renorm_every must be a positive integer")
        times = self.output_times
        if times is not None:
            times = tuple(float(t) for t in times)
            arr = require_finite("output_times", times)
            if arr.size == 0:
                raise ConfigError("output_times must be non-empty")
            if np.any(np.diff(arr) < 0):
                raise ConfigError("output_times must be non-decreasing")
            if arr[0] < -1e-12 or arr[-1] > self.t_final * (1 + 1e-12):
                raise ConfigError("output_times must lie within [0, t_final]")
            object.__setattr__(self, "output_times", times)

    def resolved_output_times(self) -> np.ndarray:
        if self.output_times is not None:
            return np.asarray(self.output_times, dtype=float)
        return np.linspace(0.0, self.t_final, 21)


@dataclass
class PathRecord:
    """States of one path sampled at the requested output times."""

    times: np.ndarray
    xs: np.ndarray
    us: np.ndarray
    gs: np.ndarray | None = None


@dataclass
class EnsemblePaths:
    """Output-time snapshots of a batch of paths plus abort bookkeeping."""

    times: np.ndarray                 # (K,) slow-clock grid times actually hit
    xs: np.ndarray                    # (K, P, n)
    us: np.ndarray | None             # (K, P, n, n)
    gs: np.ndarray | None             # (K, P, n, n)
    alive: np.ndarray                 # (P,) bool
    aborts: list                      # (path_index, t, x) records


def resolve_start(cfg: SimConfig, chart: Chart) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial point, frame and direction (x0, u0, e0) of ``cfg`` on ``chart``.

    x0 defaults to the chart's base point (the origin; (0, 1) on
    hyperbolic2), u0 to the identity, orthonormalized in the metric at x0,
    and e0 to the first coordinate vector.  Raises :class:`ConfigError` on
    a shape mismatch and :class:`DomainExitError` when x0 is off the chart.
    """
    n = chart.dim
    e0 = np.eye(n)[0] if cfg.e0 is None else np.asarray(cfg.e0, dtype=float)
    if e0.shape != (n,):
        raise ConfigError(f"e0 must have shape ({n},)")
    if cfg.x0 is None:
        x0 = np.zeros(n)
        if chart.name == "hyperbolic2":
            x0[1] = 1.0
    else:
        x0 = np.asarray(cfg.x0, dtype=float)
    chart.require_in_domain(x0)
    u0 = np.eye(n) if cfg.u0 is None else np.asarray(cfg.u0, dtype=float)
    return x0, gram_schmidt_metric(chart, x0, u0), e0


class _Engine:
    """Precomputed per-config pieces of the Strang step, batched over paths."""

    def __init__(self, cfg: SimConfig):
        self.chart: Chart = chart_by_name(cfg.chart)
        n = self.chart.dim
        self.n = n
        self.basis = canonical_basis(n)
        self.n_noise = len(self.basis)
        self.h = cfg.h0 * cfg.epsilon                      # equation-clock step
        self.slow_dt = cfg.h0 * cfg.epsilon**2             # slow-clock advance per step
        self.noise_scale = float(np.sqrt(0.5 * self.h / cfg.epsilon))
        self.drift_half = None if cfg.abar is None else 0.5 * self.h * check_drift(cfg.abar, n)
        self.x0, self.u0, self.e0 = resolve_start(cfg, self.chart)

    def group_half(self, g: np.ndarray, xi: np.ndarray) -> np.ndarray:
        return _advance(g, xi, self.basis.mats, self.noise_scale, self.drift_half)

    def frame_step(self, x: np.ndarray, u: np.ndarray, g_mid: np.ndarray):
        e_dir = np.einsum("...ij,j->...i", g_mid, self.e0)
        h = self.h
        if self.chart.flat:
            return x + h * np.einsum("...ij,...j->...i", u, e_dir), u
        v1 = np.einsum("...ij,...j->...i", u, e_dir)
        udot1 = frame_transport(self.chart, x, v1) @ u
        xp = x + h * v1
        up = u + h * udot1
        v2 = np.einsum("...ij,...j->...i", up, e_dir)
        udot2 = frame_transport(self.chart, xp, v2) @ up
        return x + 0.5 * h * (v1 + v2), u + 0.5 * h * (udot1 + udot2)

    def strang(self, x, u, g, xi1, xi2):
        g_mid = self.group_half(g, xi1)
        x, u = self.frame_step(x, u, g_mid)
        return x, u, self.group_half(g_mid, xi2)

    def renorm_frame(self, x, u):
        if self.chart.flat:
            return u
        return gram_schmidt_metric(self.chart, x, u)


def simulate_paths(cfg: SimConfig, path_indices: Sequence[int],
                   record_frames: bool = True, record_group: bool = False,
                   rngs: Sequence[np.random.Generator] | None = None,
                   monitor: Callable | None = None) -> EnsemblePaths:
    """Integrate a batch of paths and snapshot them at the output times.

    Paths are independent; path ``p`` consumes the Philox stream keyed by
    (cfg.seed, p) in a fixed per-step order, so any partition of the index
    list over calls or processes reproduces the same numbers.  A path that
    leaves the chart domain is recorded in ``aborts``, frozen at a dummy
    in-domain state, and flagged dead in ``alive``.

    ``rngs``, one generator per path, replaces the Philox streams (noise
    injection in the test-suite).  ``monitor(step_index, x, u, g, alive)``
    is invoked after every step when provided (constraint-defect tracking
    in the test-suite).
    """
    eng = _Engine(cfg)
    n, n_noise = eng.n, eng.n_noise
    paths = list(int(p) for p in path_indices)
    n_paths = len(paths)
    if rngs is None:
        rngs = [philox_stream(cfg.seed, p) for p in paths]
    elif len(rngs) != n_paths:
        raise ConfigError("rngs must match path_indices in length")

    n_steps = max(1, int(round(cfg.t_final / eng.slow_dt)))
    out_idx = np.clip(np.rint(cfg.resolved_output_times() / eng.slow_dt).astype(int), 0, n_steps)
    grid_times = out_idx * eng.slow_dt

    x = np.tile(eng.x0, (n_paths, 1))
    u = np.tile(eng.u0, (n_paths, 1, 1))
    g = np.tile(np.eye(n), (n_paths, 1, 1))
    alive = np.ones(n_paths, dtype=bool)
    aborts: list = []
    safe_x = eng.x0

    k_out = len(out_idx)
    xs = np.empty((k_out, n_paths, n))
    us = np.empty((k_out, n_paths, n, n)) if record_frames else None
    gs = np.empty((k_out, n_paths, n, n)) if record_group else None

    def record(slot: int):
        xs[slot] = x
        if us is not None:
            us[slot] = u
        if gs is not None:
            gs[slot] = g

    next_out = 0
    while next_out < k_out and out_idx[next_out] == 0:
        record(next_out)
        next_out += 1

    check_domain = not eng.chart.unbounded
    m = 0
    while m < n_steps:
        block = min(_NOISE_BLOCK, n_steps - m)
        # One draw per path per block keeps per-path stream order fixed.
        xi = np.stack([r.standard_normal((block, 2, n_noise)) for r in rngs])
        for j in range(block):
            x, u, g = eng.strang(x, u, g, xi[:, j, 0, :], xi[:, j, 1, :])
            m += 1
            if check_domain:
                ok = eng.chart.in_domain(x) & np.all(np.isfinite(x), axis=-1)
                newly_dead = alive & ~ok
                if np.any(newly_dead):
                    t_now = m * eng.slow_dt
                    for p in np.nonzero(newly_dead)[0]:
                        aborts.append((paths[p], t_now, x[p].copy()))
                    alive &= ok
                    x[newly_dead] = safe_x
                    u[newly_dead] = eng.u0
            if m % cfg.renorm_every == 0:
                u = eng.renorm_frame(x, u)
            if m % _GROUP_PROJECT_EVERY == 0:
                g = project_rotation(g)
            if monitor is not None:
                monitor(m, x, u, g, alive)
            while next_out < k_out and out_idx[next_out] == m:
                record(next_out)
                next_out += 1

    return EnsemblePaths(times=grid_times, xs=xs, us=us, gs=gs, alive=alive, aborts=aborts)


def simulate_rescaled_path(cfg: SimConfig, path_index: int = 0,
                           record_group: bool = False) -> PathRecord:
    """One rescaled path sampled at the output times.

    Deterministic given (cfg, seed): the noise stream is the one keyed by
    (cfg.seed, path_index).  Domain exits raise :class:`DomainExitError`.
    """
    out = simulate_paths(cfg, [path_index], record_frames=True, record_group=record_group)
    if not out.alive[0]:
        _, t, xbad = out.aborts[0]
        raise DomainExitError(t, xbad, path_index)
    return PathRecord(
        times=out.times,
        xs=out.xs[:, 0, :],
        us=out.us[:, 0, :, :],
        gs=None if out.gs is None else out.gs[:, 0, :, :],
    )


def holder_modulus(times: np.ndarray, xs: np.ndarray, alpha: float,
                   distance: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None) -> float:
    """sup over sample pairs of d(x_s, x_t) / |t - s|^alpha.

    ``distance`` defaults to the Euclidean norm of the chart coordinates;
    pass the chart's model distance for curved charts.  Requires at least
    two samples and alpha in (0, 1].
    """
    times = np.asarray(times, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if times.size < 2:
        raise ConfigError("holder_modulus needs at least two samples")
    if not 0.0 < alpha <= 1.0:
        raise ConfigError("alpha must lie in (0, 1]")
    if distance is None:
        distance = lambda p, q: np.sqrt(np.sum((p - q) ** 2, axis=-1))
    best = 0.0
    for i in range(times.size - 1):
        dt = times[i + 1:] - times[i]
        good = dt > 0
        if not np.any(good):
            continue
        d = np.asarray(distance(xs[i + 1:][good], xs[i][None, :]))
        best = max(best, float(np.max(d / dt[good] ** alpha)))
    return best
