"""Ensemble harness: verify the diffusive limit against reference processes.

The rescaled position process has limiting generator c * Laplacian with
c = 4 / (n (n-1)), so its mean squared displacement grows like 2 n c t =
8 t / (n - 1) on flat charts and its law matches a Brownian motion run at
diffusivity c on curved model charts.  This module runs an ensemble of
independent paths in the engine calls ``path_batches`` sizes (one code
path for every job count: in process, or over a process pool), reduces
them to marginal samples at the step-grid times the paths reached, and
runs one Kolmogorov-Smirnov test per output time against the law of the
limit there.  On flat charts that test is one-sample: the first
coordinate against the exact normal law N(m_1, 2 c t), centred on the
finite-epsilon mean m.  On the half-plane it is two-sample: the distance
from x0 against exact samples of the limiting Brownian motion
(heat-kernel transitions).  ``homogenize`` and ``sweep`` gate on the last
of those rows.

Only the KS tests need scipy, so ``scipy.stats`` is imported inside
:func:`ks_two_sample` and :func:`ks_vs_standard_normal`: importing
frameflow loads numpy and the standard library alone, and a process pays
for scipy once, at its first KS test.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalAbort, require_finite
from .group_process import poisson_h
from .manifold import Chart, chart_by_name
from .perturbed_geodesic import (
    ORACLE_STREAM_BASE,
    SimConfig,
    path_batches,
    philox_stream,
    resolve_start,
    simulate_paths,
)

_log = logging.getLogger(__name__)

MIN_ENSEMBLE_PATHS = 100
ABORT_FRACTION_LIMIT = 0.01


def effective_diffusivity(n: int) -> float:
    """The limiting generator constant c = 4 / (n (n-1))."""
    return 4.0 / (n * (n - 1))


def msd_rate(n: int) -> float:
    """Slope of the limiting mean squared displacement, 2 n c = 8/(n-1)."""
    return 2.0 * n * effective_diffusivity(n)


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """An ensemble experiment: a base path config, its path count and workers.

    The reference law its KS rows test against is not a setting: it
    follows from the chart, see :func:`reference_law`.
    """

    sim: SimConfig
    paths: int
    jobs: int = 1

    def __post_init__(self):
        if self.paths < MIN_ENSEMBLE_PATHS:
            raise ConfigError(f"statistical runs need at least {MIN_ENSEMBLE_PATHS} paths")
        if self.jobs < 1:
            raise ConfigError("jobs must be a positive integer")


def reference_law(chart: Chart) -> str:
    """The limiting Brownian motion a run on ``chart`` is tested against:
    "euclidean" on flat charts (its exact normal law) and "hyperbolic" on
    the chart named ``hyperbolic2`` (its exact samples), the name by which
    the engine picks its exact step.

    Raises :class:`ConfigError` on any other chart, whose KS criterion
    would have nothing to test against.
    """
    if chart.flat:
        return "euclidean"
    if chart.name == "hyperbolic2":
        return "hyperbolic"
    raise ConfigError(f"no reference law for the curved chart {chart.name!r}: "
                      "only flat charts and hyperbolic2 have one")


def check_epsilon_list(values) -> tuple[float, ...]:
    """``values`` as a tuple; raises :class:`ConfigError` unless finite, positive and strictly decreasing."""
    eps = tuple(float(e) for e in values)
    if len(eps) == 0 or any(not e > 0 for e in eps):
        raise ConfigError("epsilon_list must be positive")
    require_finite("epsilon_list", eps)
    if not all(b < a for a, b in zip(eps, eps[1:])):
        raise ConfigError("epsilon_list must be strictly decreasing")
    return eps


@dataclass
class EnsembleStats:
    """Marginal samples and derived statistics at each output time."""

    times: np.ndarray                   # (K,) the step-grid times the paths reached
    positions: np.ndarray               # (K, M, n), surviving paths only
    frames: np.ndarray | None           # (K, M, n, n)
    msd: np.ndarray                     # (K,)
    msd_stderr: np.ndarray              # (K,)
    oracle_msd: np.ndarray              # (K,) the limit's E|x_t - x0|^2 (flat: exact 2nct)
    oracle_scalar: np.ndarray | None    # (K, M_oracle) oracle distances; None on flat charts
    # One KS row per time.  Flat: one-sample, x_1 against N(m_1, 2ct) with m the
    # finite-epsilon mean.  hyperbolic2: two-sample, distance from x0 against the
    # oracle's.  The t = 0 row reads (0, 1); homogenize and sweep gate on the last.
    ks_stat: np.ndarray                 # (K,)
    ks_p: np.ndarray                    # (K,)
    paths: int
    aborts: list


def _simulate_batch(cfg: SimConfig, record_frames: bool, batch: range):
    # simulate_paths by name when run: a pool never pickles a patched wrapper.
    return simulate_paths(cfg, batch, record_frames=record_frames)


def run_ensemble(spec: EnsembleSpec, record_frames: bool = True) -> EnsembleStats:
    """Simulate the ensemble and reduce it to per-time statistics.

    Deterministic given the config seed, and independent of ``jobs`` and
    of the :func:`path_batches` calls: each path owns a counter-based
    stream keyed by its index, and aborts are listed by step, then path.
    Raises :class:`ConfigError`, before any step, on a chart with no
    :func:`reference_law`, and :class:`NumericalAbort` when more than 1% of
    paths leave the chart.  Logs its two phases, simulate and KS
    reduction, at INFO.
    """
    t_start = time.perf_counter()
    cfg = spec.sim
    chart = chart_by_name(cfg.chart)
    reference = reference_law(chart)
    m_paths = spec.paths

    batches = path_batches(cfg, m_paths, record_frames, record_group=False, parts=spec.jobs)
    engine = functools.partial(_simulate_batch, cfg, record_frames)
    if spec.jobs == 1:
        outs = list(map(engine, batches))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(spec.jobs, len(batches))) as pool:
            outs = list(pool.map(engine, batches))
    xs = np.concatenate([out.xs for out in outs], axis=1)
    us = np.concatenate([out.us for out in outs], axis=1) if record_frames else None
    alive = np.concatenate([out.alive for out in outs])
    aborts = sorted((rec for out in outs for rec in out.aborts), key=lambda rec: (rec[1], rec[0]))
    times = outs[0].times
    t_simulated = time.perf_counter()
    seconds = t_simulated - t_start
    _log.info("simulate: %d path(s) in %d engine call(s), %.0f path-steps/s, %.3f s",
              m_paths, len(outs), outs[0].steps * m_paths / max(seconds, 1e-9), seconds)
    del outs  # the calls' own copies of the outputs

    if len(aborts) > ABORT_FRACTION_LIMIT * m_paths:
        raise NumericalAbort(
            f"{len(aborts)} of {m_paths} paths aborted (> {ABORT_FRACTION_LIMIT:.0%}); "
            f"first record: {aborts[0]}"
        )
    xs = xs[:, alive, :]
    if us is not None:
        us = us[:, alive, :, :]
    survivors = int(alive.sum())

    x0 = resolve_start(cfg, chart)[0]
    d = chart.distance(xs, x0) if chart.distance is not None else np.sqrt(
        np.sum((xs - x0) ** 2, axis=-1))
    d2 = d**2
    msd = d2.mean(axis=1)
    msd_stderr = d2.std(axis=1, ddof=1) / np.sqrt(survivors)

    n = chart.dim
    c = effective_diffusivity(n)
    ks_stat = np.zeros(len(times))
    ks_p = np.ones(len(times))
    if reference == "euclidean":
        oracle_msd = 2.0 * n * c * times
        oracle_scalar = None
        # The t = 0 row is the point mass x0: it keeps (0, 1).
        m1 = _finite_epsilon_mean(cfg, chart)[0]
        for k in np.flatnonzero(times > 0):
            z = (xs[k, :, 0] - m1) / np.sqrt(2.0 * c * times[k])
            ks_stat[k], ks_p[k] = ks_vs_standard_normal(z)
    else:
        rng = philox_stream(cfg.seed, ORACLE_STREAM_BASE)
        ref, ref_alive = oracle_hyperbolic_bm(c, times, m_paths, rng, x0=x0)
        ref = ref[ref_alive]
        rho_ref = chart.distance(ref, x0)
        oracle_msd = (rho_ref**2).mean(axis=0)
        oracle_scalar = rho_ref.T
        for k in range(len(times)):
            ks_stat[k], ks_p[k] = ks_two_sample(d[k], oracle_scalar[k])
    _log.info("KS reduction: %d output times, %.3f s", len(times), time.perf_counter() - t_simulated)

    return EnsembleStats(
        times=times,
        positions=xs,
        frames=us,
        msd=msd,
        msd_stderr=msd_stderr,
        oracle_msd=oracle_msd,
        oracle_scalar=oracle_scalar,
        ks_stat=ks_stat,
        ks_p=ks_p,
        paths=survivors,
        aborts=aborts,
    )


def oracle_euclidean_bm(n: int, c: float, times: np.ndarray, m: int,
                        rng: np.random.Generator, x0: np.ndarray | None = None) -> np.ndarray:
    """Exact samples of a flat Brownian motion with generator c * Laplacian.

    Per-coordinate increment variance is 2 c dt.  Returns positions with
    shape (m, len(times), n).
    """
    if not c > 0:
        raise ConfigError("diffusivity c must be positive")
    times = np.asarray(times, dtype=float)
    dts = np.diff(np.concatenate([[0.0], times]))
    if np.any(dts < 0):
        raise ConfigError("times must be non-decreasing")
    incs = rng.standard_normal((m, len(times), n)) * np.sqrt(2.0 * c * dts)[None, :, None]
    paths = np.cumsum(incs, axis=1)
    if x0 is not None:
        paths = paths + np.asarray(x0, dtype=float)
    return paths


def oracle_hyperbolic_bm(c: float, times: np.ndarray, m: int, rng: np.random.Generator,
                         x0: np.ndarray = (0.0, 1.0)) -> tuple[np.ndarray, np.ndarray]:
    """Exact samples of the half-plane Brownian motion with generator c * x2^2 (d11 + d22).

    A Markov chain over the output times: each interval is one exact
    transition at heat time c * dt (see :func:`_advance_half_plane`), so the
    samples have the law of the diffusion at every output time, with no
    step bias.  Returns (positions (m, K, 2), alive mask (m,)); a row whose
    position overflows is dropped from ``alive``.
    """
    if not c > 0:
        raise ConfigError("diffusivity c must be positive")
    times = np.asarray(times, dtype=float)
    x = np.tile(np.asarray(x0, dtype=float), (m, 1))
    if np.any(x[:, 1] <= 0):
        raise ConfigError("x0 must lie in the upper half-plane")
    alive = np.ones(m, dtype=bool)
    out = np.empty((m, len(times), 2))
    tables: dict = {}
    t_prev = 0.0
    for k, t in enumerate(times):
        span = t - t_prev
        if span < 0:
            raise ConfigError("times must be non-decreasing")
        if span > 0:
            _advance_half_plane(x, alive, span, c, rng, tables)
        out[:, k, :] = x
        t_prev = t
    return out, alive


def _advance_half_plane(x, alive, span, c, rng, tables) -> None:
    """Move the live rows of ``x`` in place by one exact transition over ``span``.

    The distance rho travelled has McKean's law at heat time c * span,
    drawn by inverse CDF from a table cached in ``tables``; the direction
    is uniform.  With (z1, z2) = (cos phi, sin phi) |z| a standard normal
    pair, u = exp(-|z|^2 / 2) is uniform and independent of phi, so rho =
    S^-1(u) and the direction theta = 2 phi.  The isometry z -> a + b z,
    which sends i to x = (a, b), maps the point at distance rho from i in
    direction theta to

        (a + b sinh(rho) sin(theta) / D, b / D),
        D = cosh(rho) - sinh(rho) cos(theta) = e^-rho cos^2 phi + e^rho sin^2 phi,

    which lies on the half-plane.  The half-angle form of D has no
    cancellation.  A row whose new position is not finite (rho so large
    that e^rho overflows) keeps its old position and is marked dead.
    """
    # Spans that differ only by the rounding of the output grid share a table.
    heat_time = float(f"{c * span:.12g}")
    if heat_time not in tables:
        tables[heat_time] = _radial_table(heat_time)
    radius, survival = tables[heat_time]
    z = rng.standard_normal((x.shape[0], 2))
    z1_sq, z2_sq = z[:, 0] ** 2, z[:, 1] ** 2
    rho = np.interp(np.exp(-0.5 * (z1_sq + z2_sq)), survival, radius)
    with np.errstate(over="ignore", invalid="ignore"):
        # |z|^2 D, and |z|^2 sin(theta) = 2 z1 z2.
        d = np.exp(-rho) * z1_sq + np.exp(rho) * z2_sq
        new = np.column_stack([x[:, 0] + x[:, 1] * 2.0 * np.sinh(rho) * z[:, 0] * z[:, 1] / d,
                               x[:, 1] * (z1_sq + z2_sq) / d])
        ok = np.isfinite(new).all(axis=1) & (new[:, 1] > 0.0)
    alive &= ok
    x[alive] = new[alive]


# Radial grid points of a table, and Gauss-Legendre nodes per grid point.
_TABLE_POINTS = 2048
_TABLE_NODES = 64


def _radial_table(t: float) -> tuple[np.ndarray, np.ndarray]:
    """Survival function S(r) = P(rho_t > r) of the H^2 heat kernel at time t.

    Returns (r, S(r)) on a uniform grid, both ordered by increasing S, as
    :func:`numpy.interp` reads them.  McKean's kernel (J. Differential
    Geom. 4, 1970) for the heat equation du/dt = Laplacian u gives, after
    its inner integral over rho is done in closed form,

        S(r) = 4 pi (4 pi t)^(-3/2) int_r^inf s e^(-(s - t)^2 / (4t))
               sqrt((1 - e^(r - s)) (1 - e^(-r - s))) ds,

    which is evaluated by Gauss-Legendre in v = sqrt(s - r) (smooth where
    s = r) over the window |s - t| <= 2 sqrt(40 t), outside which the
    weight is below e^-40.  S(0) = 1 to rounding, and the sampled law
    (linear in S between grid points) is off the exact CDF by about 2e-6.
    """
    reach = 2.0 * np.sqrt(40.0 * t)
    s_lo, s_hi = t - reach, t + reach
    r = np.linspace(max(s_lo, 0.0), s_hi, _TABLE_POINTS)[:, None]
    nodes, weights = np.polynomial.legendre.leggauss(_TABLE_NODES)
    v_lo = np.sqrt(np.maximum(s_lo - r, 0.0))
    half = 0.5 * (np.sqrt(s_hi - r) - v_lo)
    v = v_lo + half * (nodes + 1.0)
    s = r + v * v
    f = s * np.exp(-(s - t) ** 2 / (4.0 * t)) * np.sqrt(np.expm1(-v * v) * np.expm1(-(s + r))) * v
    survival = 8.0 * np.pi * (4.0 * np.pi * t) ** -1.5 * ((half * f) @ weights)
    # Increasing in S, as numpy.interp requires, also where rounding wobbles near 1.
    return r[::-1, 0].copy(), np.maximum.accumulate(survival[::-1])


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise ConfigError("KS test requires non-empty samples")
    if a.size < 50 or b.size < 50:
        raise ConfigError("KS test requires at least 50 samples per side")
    if np.ptp(a) == 0.0 and np.ptp(b) == 0.0 and a[0] == b[0]:
        # Degenerate but well-defined: identical point masses.
        return 0.0, 1.0
    from scipy import stats

    res = stats.ks_2samp(a, b, method="asymp")
    return float(res.statistic), float(res.pvalue)


def ks_vs_standard_normal(z: np.ndarray) -> tuple[float, float]:
    """One-sample KS of a scalar sample against the standard normal law."""
    from scipy import stats

    res = stats.kstest(np.asarray(z, dtype=float).ravel(), "norm")
    return float(res.statistic), float(res.pvalue)


def _finite_epsilon_mean(sim: SimConfig, chart: Chart) -> np.ndarray:
    """The mean m of the flat finite-epsilon process, which is not x0.

    With h = group_process.poisson_h, x_t - x0 = eps u0 (h(g_t) - h(g_0))
    plus a martingale, and E h(g_t) vanishes once g_t has mixed, so
    m = x0 - eps u0 h(I) = x0 + (4 eps/(n-1)) u0 e0.
    """
    n = chart.dim
    x0, u0, e0 = resolve_start(sim, chart)
    h_start = np.array([poisson_h(np.eye(n), e0, i) for i in range(n)])
    return x0 - sim.epsilon * (u0 @ h_start)


def linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line fit; returns (slope, intercept, r_squared)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    pred = design @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


@dataclass
class SweepRow:
    epsilon: float
    msd_rel_err: float
    ks_stat: float
    ks_p: float


def epsilon_sweep(spec: EnsembleSpec, epsilon_list) -> list[SweepRow]:
    """Run the ensemble at each epsilon of ``epsilon_list`` and tabulate discrepancies.

    Each row reads the last output time of its run: the MSD error against
    the reference law's ``oracle_msd``, and the last KS row.  The
    discrepancy columns are reported, never fitted: no convergence rate
    in epsilon is asserted.  Rows reuse the same seed, so the table is
    reproducible run to run.
    """
    rows = []
    for eps in check_epsilon_list(epsilon_list):
        sub = dataclasses.replace(spec, sim=dataclasses.replace(spec.sim, epsilon=eps))
        stats = run_ensemble(sub, record_frames=False)
        target = stats.oracle_msd[-1]
        rows.append(SweepRow(epsilon=eps, msd_rel_err=float(abs(stats.msd[-1] - target) / target),
                             ks_stat=float(stats.ks_stat[-1]), ks_p=float(stats.ks_p[-1])))
    return rows
