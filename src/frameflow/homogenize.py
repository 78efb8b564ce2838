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

Every KS p-value is the exact tail P(D_n >= d) of the one-sample
statistic, computed here with numpy and ``math`` (:func:`_kolmogorov_sf`):
Simard and L'Ecuyer's choice of method (J. Stat. Softw. 39(11), 2011),
with Durbin's matrix as Marsaglia, Tsang and Wang evaluate it (J. Stat.
Softw. 8(18), 2003), the Pelz-Good series and the Birnbaum-Tingey sum.
So no command loads scipy.  Its ``scipy.stats`` import cost 1.15 s and
69 MB; on a shared two-core x86-64 machine, fresh ``homogenize
--manifold euclidean:2 --epsilon 0.05 --paths 2000`` processes went from
2.23 s and 106 MB of peak RSS to 1.26 s and 56 MB (median of six).
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
import os
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
    """The limiting Brownian motion a run on ``chart`` is tested against,
    the chart's model: "euclidean" (its exact normal law) or "hyperbolic"
    (exact samples of McKean's law), whatever the chart's name.

    Raises :class:`ConfigError`, naming the chart, when it has no model,
    as its KS criterion would have nothing to test against.
    """
    if chart.model is None:
        raise ConfigError(f"no reference law for the chart {chart.name!r}: "
                          "only the euclidean and hyperbolic models have one")
    return chart.model


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
    stage_s: dict                       # engine seconds per stage, over every call


def _simulate_batch(cfg: SimConfig, record_frames: bool, batch: range):
    # simulate_paths by name when run: a pool never pickles a patched wrapper.
    return simulate_paths(cfg, batch, record_frames=record_frames)


def log_engine_calls(stage_s: list, n_paths: int, steps: int, seconds: float) -> dict:
    """Log the simulate line of the engine calls whose stage seconds are
    ``stage_s``, one dict a call, and return those seconds summed by stage.
    Its throughput is path-steps per engine second, the stage seconds
    summed; ``seconds`` is the phase's wall time."""
    total = {key: sum(call[key] for call in stage_s) for key in stage_s[0]}
    _log.info("simulate: %d path(s) in %d engine call(s), %s, %.0f path-steps/s, %.3f s",
              n_paths, len(stage_s), ", ".join(f"{key} {s:.3f} s" for key, s in total.items()),
              steps * n_paths / max(sum(total.values()), 1e-9), seconds)
    return total


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

        workers = min(spec.jobs, len(batches), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outs = list(pool.map(engine, batches))
    xs = np.concatenate([out.xs for out in outs], axis=1)
    us = np.concatenate([out.us for out in outs], axis=1) if record_frames else None
    alive = np.concatenate([out.alive for out in outs])
    aborts = sorted((rec for out in outs for rec in out.aborts), key=lambda rec: (rec[1], rec[0]))
    times = outs[0].times
    t_simulated = time.perf_counter()
    stage_s = log_engine_calls([out.stage_s for out in outs], m_paths, outs[0].steps,
                               t_simulated - t_start)
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
    d = chart.distance(xs, x0)
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
        stage_s=stage_s,
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


def _ks_sample(x) -> np.ndarray:
    """``x`` sorted, as a flat float array; raises :class:`ConfigError` if it
    is empty or not finite."""
    x = np.sort(np.asarray(x, dtype=float).ravel())
    if x.size == 0:
        raise ConfigError("KS test requires non-empty samples")
    require_finite("KS sample", x)
    return x


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    The statistic is the largest gap between the two empirical CDFs; the
    p-value is the exact one-sample tail :func:`_kolmogorov_sf` at the
    effective size round(m n / (m + n)), as in
    ``scipy.stats.ks_2samp(method="asymp")``.
    """
    a, b = _ks_sample(a), _ks_sample(b)
    if a.size < 50 or b.size < 50:
        raise ConfigError("KS test requires at least 50 samples per side")
    both = np.concatenate([a, b])
    gap = (np.searchsorted(a, both, side="right") / a.size
           - np.searchsorted(b, both, side="right") / b.size)
    d = float(max(gap.max(), -gap.min()))
    return d, _kolmogorov_sf(round(a.size * b.size / (a.size + b.size)), d)


def ks_vs_standard_normal(z: np.ndarray) -> tuple[float, float]:
    """One-sample KS of a scalar sample against the standard normal law:
    D = max(D+, D-) and its exact p-value P(D_n >= D), n the sample size."""
    z = _ks_sample(z)
    n = z.size
    cdf = 0.5 * np.fromiter(map(math.erfc, (z / -math.sqrt(2.0)).tolist()), float, n)
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    d = float(max(d_minus, d_plus))
    return d, _kolmogorov_sf(n, d)


def _kolmogorov_sf(n: int, d: float) -> float:
    """P(D_n >= d) for the two-sided KS statistic D_n of n points of a continuous law.

    The method for each (n, d) is Simard and L'Ecuyer's (J. Stat. Softw.
    39(11), 2011), at the thresholds of ``scipy.stats.kstwo.sf``: the
    exact closed forms of Ruben and Gambino at either end, twice the
    one-sided tail in the upper tail (exact for d >= 1/2; below, the
    event that both one-sided statistics reach d is left out), Durbin's
    exact matrix for n <= 140 and where n d^1.5 <= 1.4 (scipy takes
    Pomeranz's exact recursion for part of n <= 140), and the Pelz-Good
    series otherwise.
    """
    t = n * d
    if d >= 1.0:
        return 0.0
    if t <= 0.5:
        return 1.0
    if t <= 1.0:
        return 1.0 - math.exp(_log_factorial_ratio(n) + n * math.log(2.0 * t - 1.0))
    if t >= n - 1:
        return 2.0 * (1.0 - d) ** n
    if d >= 0.5 or t * d >= (4.0 if n <= 140 else 2.2):
        return 2.0 * _smirnov_sf(n, d)
    if n <= 140 or (n <= 100_000 and n * d**1.5 <= 1.4):
        return 1.0 - _durbin_cdf(n, d)
    return 1.0 - _pelz_good_cdf(n, d)


def _log_factorial_ratio(n: int) -> float:
    """log(n! / n^n), summed exactly rounded."""
    return math.fsum(np.log(np.arange(1.0, n + 1) / n))


def _smirnov_sf(n: int, d: float) -> float:
    """P(D_n^+ >= d), the one-sided tail, by the Birnbaum-Tingey sum

        d sum_{j <= n (1 - d)} C(n, j) (d + j/n)^(j - 1) (1 - d - j/n)^(n - j),

    all terms at once in logs, log C(n, j) being one cumulative sum.
    """
    j = np.arange(math.floor(n * (1.0 - d)) + 1)
    log_binom = np.concatenate([[0.0], np.cumsum(np.log((n + 1 - j[1:]) / j[1:]))])
    # The last term is 0^(n - j) when n (1 - d) is whole, or rounds as if it were.
    rest = np.maximum(1.0 - d - j / n, 0.0)
    with np.errstate(divide="ignore"):
        log_terms = log_binom + (j - 1) * np.log(d + j / n) + (n - j) * np.log(rest)
    return d * float(np.exp(log_terms).sum())


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_n < d) by Durbin's matrix, as Marsaglia, Tsang and Wang compute it
    (J. Stat. Softw. 8(18), 2003).

    With d = (k - h)/n, 0 <= h < 1, it is n!/n^n times the centre entry
    of H^n, H the (2k - 1)-square matrix of 1/(i - j + 1)! with its first
    column and last row corrected by h; H^n is taken by squaring, and
    rescaled by powers of two so that it does not overflow.
    """
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    inv_fact = np.concatenate([[1.0], np.cumprod(1.0 / np.arange(1.0, m + 1))])
    lag = np.subtract.outer(np.arange(m), np.arange(m)) + 1
    H = np.where(lag >= 0, inv_fact[np.maximum(lag, 0)], 0.0)
    edge = h ** np.arange(1.0, m + 1) * inv_fact[1:]
    H[:, 0] -= edge
    H[-1, :] -= edge[::-1]
    H[-1, 0] += max(2.0 * h - 1.0, 0.0) ** m * inv_fact[m]
    power, power_exp, h_exp, e = np.eye(m), 0, 0, n
    while e:
        if e & 1:
            power = power @ H
            power_exp += h_exp
        H = H @ H
        h_exp *= 2
        if H[k - 1, k - 1] > 2.0**128:
            H *= 2.0**-128
            h_exp += 128
        e >>= 1
    return math.exp(math.log(power[k - 1, k - 1]) + power_exp * math.log(2.0)
                    + _log_factorial_ratio(n))


def _pelz_good_cdf(n: int, d: float) -> float:
    """P(D_n < d) by the Pelz-Good series (J. R. Stat. Soc. B 38(2), 1976).

    The first four terms of the Li-Chien-Korolyuk expansion in powers of
    1/sqrt(n), each turned by Jacobi's theta identity into a series in
    q = exp(-pi^2 / (8 z^2)), z = sqrt(n) d, that converges fast for
    small z; the series are cut after 16 z / pi terms.
    """
    z = math.sqrt(n) * d
    z2 = z * z
    log_q = -math.pi**2 / (8.0 * z2)
    if log_q < -708.0:  # q underflows: z < 0.0418
        return 0.0
    pi2, pi4, pi6 = math.pi**2, math.pi**4, math.pi**6
    z4, z6 = z2 * z2, z2 * z2 * z2
    k = np.arange(1.0, math.ceil(16.0 * z / math.pi) + 1)
    m2 = (2.0 * k - 1.0) ** 2
    # Row i: the polynomial in m^2 that multiplies q^(m^2) in K_i, m = 2k - 1.
    coef = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [-z2, pi2 / 4.0, 0.0, 0.0],
        [6.0 * z6 + 2.0 * z4, (2.0 * z4 - 5.0 * z2) * pi2 / 4.0, pi4 * (1.0 - 2.0 * z2) / 16.0, 0.0],
        [-30.0 * z6 - 90.0 * z4 * z4, pi2 * (135.0 * z4 - 96.0 * z6) / 4.0,
         pi4 * (212.0 * z4 - 60.0 * z2) / 16.0, pi6 * (5.0 - 30.0 * z2) / 64.0],
    ])
    series = coef @ (m2 ** np.arange(4.0)[:, None] @ np.exp(log_q * m2))
    root_2pi = math.sqrt(2.0 * math.pi)
    series *= root_2pi / np.array([z, 6.0 * z4, 72.0 * z6 * z, 6480.0 * z6 * z4])
    # K_2 and K_3 also carry a theta series over all k in exp(-pi^2 k^2 / (2 z^2)).
    w = k * k * np.exp(-pi2 * k * k / (2.0 * z2))
    series[2] -= w.sum() * pi2 * root_2pi / (36.0 * z2 * z)
    series[3] += ((3.0 * z2 - pi2 * k * k) * w).sum() * pi2 * root_2pi / (216.0 * z6)
    return float(series @ float(n) ** -(np.arange(4.0) / 2.0))


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
