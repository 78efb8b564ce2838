"""Two-scale integration of the noise-perturbed geodesic system.

The system factorizes into a slow frame ODE driven by a fast rotation:

    d(x, u)/ds = horizontal velocity of the frame in direction g_s e0,
    dg = (1/sqrt(eps)) sum_k g A_k o dw^k + g Abar ds,

in the equation clock s.  The observable of interest is the rescaled
position x at s = t/eps for slow times t in [0, T], so one path covers
equation time T/eps with step h = h0 * eps (noise variance h0 per group
step, uniformly in eps) and T/(h0 eps^2) steps in total.

Each step is a Strang splitting: half a group step, a step of the frame
ODE with the rotation frozen at its midpoint value g_mid (exact on the
euclidean and hyperbolic models, Heun, of order 2, on other charts), then
the second half group step.  The group chain never reads the point or
the frame; only the direction g_mid e0 reaches them.  So
:func:`simulate_paths`, the one stepping routine, takes the steps in
chunks of 128, each in four stages:

1. Draw: each path fills its row of the run's noise buffer with the
   chunk's normals from its own stream, in one call.
2. Group chain: the directions g_mid e0 of the chunk's steps, and g
   itself where an output needs it, computed in a representation chosen
   by the dimension n and the chart:

   - n = 2 on the euclidean model: g is a rotation by an angle and
     half-steps add angles, so one cumsum gives every half-angle
     (a - phi0) / 2, for e0 = (cos phi0, sin phi0), and one vectorised
     tan of it every direction, by the half-angle formulas;
   - n = 3 and 4: unit quaternions held as SU(2) pairs of complex
     numbers, one pair q for n = 3 (g v = q v conj(q)) and two, l and s,
     for n = 4 (g v = l v conj(s) on R^4 = H), each multiplied at a
     half-step by the exponential of its rotation vector: a sub-block's
     exponentials at once, then a loop of complex products vectorised
     over paths, and the directions from the pairs in closed form;
   - otherwise (n >= 5, and other n = 2 charts): rotation matrices,
     multiplied at each half-step by its factor through ``_advance``,
     with each step's direction written as soon as g_mid is formed.  One
     loop over sub-blocks forms each sub-block's factors in one call: for
     n = 2 sub-blocks of 16 steps, whose factors are the turns e^(i theta)
     of each row of g, read as a complex number, from one vectorised tan of
     the half-angles theta / 2; for n >= 5 sub-blocks of one step, whose
     two exponentials come from one call.

   An angle is a rotation whatever its rounding, and quaternion pairs
   renormalised once per chunk give a matrix orthogonal to the rounding
   of their norms, so only the matrix chain drifts off SO(n); it alone is
   re-projected (polar decomposition) every 1000 steps.
3. Frame, by one of three stages that share one contract (see
   :func:`_frame_stage`):

   - the euclidean model with no ``in_domain``: the frame stays u0 and the
     point is x0 plus h u0 times the running sum of the directions
     g_mid e0, formed from sums over the segments between output steps;
   - the hyperbolic model: the oriented orthonormal frame bundle of the
     half-plane is PSL(2,R), a frame (x, u) being the Moebius map F with
     F(i) = x and F'(i) = u, and geodesic motion along w = g_mid e0 with
     parallel transport is right multiplication by exp(h X(w)),
     X(w) = [[w2, w1], [w1, -w2]] / 2.  As X(w)^2 = I/4 the step is the
     exact product F <- F [[C + S w2, S w1], [S w1, C - S w2]] with
     C = cosh(h/2), S = sinh(h/2): no step error, no drift off the frame
     constraint and no way off the half-plane.  F is brought back to
     det 1 once per chunk by rebuilding its top row from its bottom row
     and x1, and x and u are formed only where they are read;
   - other charts: one loop over the steps does the Heun frame step, the
     check that x and u are finite and, where the chart has ``in_domain``,
     that x is on it, and the metric re-orthonormalization of the frame,
     every step.

   Every stage dates a path's failure (its state off the chart or not
   finite) to the step and restarts the path at (x0, u0); from that step
   on the path is recorded as aborted and shown at (x0, u0), whichever
   stage ran it.
4. Record: the states at the chunk's output steps go to the outputs.

Every stage writes into arrays that :func:`_workspaces` allocates once
per run, so a run of P paths holds the noise buffer, P * 128 * 2N * 8
bytes, the chunk's directions, P * n * 129 * 8 bytes, and workspaces of
one step (the matrix chain's g, the frame stages' states) or a sub-block
of 16 steps (the pair chain, 4 for n = 4, the n = 2 matrix chain's turns
and the hyperbolic2 step matrices), however many steps it takes.  On flat
n = 2 one row of 257 numbers a path holds the chunk's noise, its
half-angles and then its directions, in turn, and is all the chunk memory
of the run.
:func:`path_batches` prices a path by what those arrays and its Philox
stream hold for it, and splits the paths of a command into calls that
each hold at most ``BATCH_BYTES`` of outputs and workspaces.

:func:`simulate_rescaled_path` is the one-path view of the routine, and
:func:`direction_moments` reads the same group chains for their time
averages of w w^T, chunk by chunk, without the frame stage.

Randomness is counter-based: path p of a run with seed s draws from a
Philox stream keyed by (s, p), consuming, per step, one vector of N
standard normals for the first group half-step and one for the second.
A stream yields the same normals however its draws are split, and every
stage works on each path by itself, at chunk boundaries that depend on
the step count alone, so results are identical however paths are batched
or distributed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainExitError, require_finite
from .lie_algebra import (BATCH_BYTES, _as_pair, _as_vector, _multiply, _pair_product,
                          _pair_vectors, _rotate, canonical_basis, project_rotation)
from .group_process import (_advance, _half_step_factors, check_direction, check_drift, check_h0,
                            horizon_steps, step_counts)
from .manifold import Chart, chart_by_name, frame_transport, gram_schmidt_metric

# Steps per chunk: each path draws a chunk's noise at once, and the chain
# and frame stages take a chunk at a time, so it sizes the noise buffer and
# the workspaces.  The quaternion pairs' renormalisation and the hyperbolic2
# return to det 1 happen at chunk ends, so chunks start at multiples of it.
_CHUNK = 128
# Cadence, in steps, of the polar re-projection of the matrix chain.
_GROUP_PROJECT_EVERY = 1000
# Steps whose per-step factors (one quaternion pair's exponentials,
# hyperbolic2 step matrices) are formed at once.
_SUB = 16


def philox_stream(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for sub-stream ``stream`` of a seeded run: the
    stream of ``Philox(key=[seed, stream])``, both taken modulo 2**64."""
    from ._stream_key import StreamKey     # loads numpy.random at the first stream
    return np.random.Generator(np.random.Philox(StreamKey(seed, stream)))


# Bytes a philox_stream holds, as tracemalloc counts them (numpy 2.4, CPython
# 3.11); path_batches prices one a path.
STREAM_BYTES = 708


# Oracle and auxiliary consumers use stream indices far above any path index.
ORACLE_STREAM_BASE = 1 << 48


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Configuration of one rescaled-path simulation.

    ``t_final`` is the horizon of the rescaled observation (slow clock);
    ``output_times`` defaults to 21 equispaced times in [0, t_final], and
    ``x0``/``u0``/``e0`` to the values :func:`resolve_start` fills in.
    Which frame step runs follows from the chart alone (see the module
    notes).  Every value is checked, finiteness included, when the config
    is built; shapes, which depend on the chart, are checked when a run
    starts.
    """

    chart: str
    epsilon: float
    t_final: float
    e0: np.ndarray | None = None
    abar: np.ndarray | None = None
    h0: float = 0.1
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
    steps: int                        # integrator steps taken by each path
    stage_s: dict                     # seconds in each stage: draw, chain, frame, record


def resolve_start(cfg: SimConfig, chart: Chart) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial point, frame and direction (x0, u0, e0) of ``cfg`` on ``chart``.

    x0 defaults to (0, 1) on the hyperbolic model and to the origin on
    any other chart, u0 to the identity, orthonormalized in the metric at
    x0, and e0 to the first coordinate vector.  Raises :class:`ConfigError` on
    a shape mismatch, on a default x0 off the chart or its metric's domain
    (pass x0 then), on a metric at x0 that is not finite and on a u0 that
    cannot be orthonormalized there, and :class:`DomainExitError` when a
    given x0 is off the chart.
    """
    n = chart.dim
    e0 = np.eye(n)[0] if cfg.e0 is None else np.asarray(cfg.e0, dtype=float)
    if e0.shape != (n,):
        raise ConfigError(f"e0 must have shape ({n},)")
    default = [0.0, 1.0] if chart.model == "hyperbolic" else np.zeros(n)
    x0 = np.array(default if cfg.x0 is None else cfg.x0, dtype=float)
    if x0.shape != (n,):
        raise ConfigError(f"x0 must have shape ({n},), got {x0.shape}")
    try:
        if chart.in_domain is not None and not np.all(chart.in_domain(x0)):
            raise DomainExitError(0.0, x0)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            metric = chart.metric(x0)
    except DomainExitError:
        if cfg.x0 is not None:
            raise
        raise ConfigError(f"chart {chart.name!r}: the default x0 = {tuple(x0)} is off "
                          "the chart; pass x0") from None
    u0 = np.eye(n) if cfg.u0 is None else np.asarray(cfg.u0, dtype=float)
    if u0.shape != (n, n):
        raise ConfigError(f"u0 must have shape {(n, n)}, got {u0.shape}")
    if not np.all(np.isfinite(metric)):
        raise ConfigError(f"the metric at x0 = {x0} is not finite")
    try:
        u0 = gram_schmidt_metric(chart, x0, u0)
    except ValueError:
        u0 = None
    # A rank-deficient u0 can pass Gram-Schmidt on a rounding residue.
    if u0 is None or np.max(np.abs(u0.T @ metric @ u0 - np.eye(n))) > 1e-8:
        raise ConfigError(f"u0 cannot be orthonormalized in the metric at x0 = {x0}")
    return x0, u0, e0


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
        self.drift_half = None if cfg.abar is None else check_drift(cfg.abar, n, self.h)
        self.x0, self.u0, self.e0 = resolve_start(cfg, self.chart)


# Group chains.  ``run(xi, keep, e_dir)`` advances every path over a chunk
# of noise xi (P, steps, 2, N), writes the midpoint directions g_mid e0
# into e_dir (P, n, steps) and returns g after each chunk-local step listed
# in ``keep`` (sorted) as (len(keep), P, n, n).  On flat n = 2, xi and e_dir
# are views of the angle chain's own rows (see _AngleChain.buffers).

# Paths whose midpoint tangents the angle chain forms at once, in a scratch
# block it allocates per chunk (256 KiB), outside the priced workspaces.
_TAN_BLOCK = 256


class _AngleChain:
    """n = 2: g = [[cos a, sin a], [-sin a, cos a]] and each half-step adds to the angle a.

    For e0 = (cos phi0, sin phi0), g e0 = (cos 2b, -sin 2b) with the
    half-angle b = (a - phi0) / 2, which the chain carries instead of a,
    modulo pi.  Each direction comes from t = tan b as ((1 - t^2), -2t) /
    (1 + t^2): numpy vectorises its float64 tan but not sin and cos (3 ns
    against 17 ns each an element, at 8M elements on an AVX-512 x86).
    Near the pole, t is at most about 1.6e16, so t^2 stays finite and the
    direction is (-1, -2/t) to rounding.  Only g at the kept steps takes
    cos and sin, of a = 2b + phi0.

    A path's one row of 2 * 128 + 1 numbers is all the run's chunk memory
    on flat n = 2 (see :meth:`buffers`): slot 0 holds the start half-angle
    and slots 1..2 * steps the chunk's noise, which is scaled and summed in
    place into the half-angle after each half-step; once the carry and g
    at the kept steps are read, the midpoint directions are written over
    them, cos in slots 1..steps and sin in slots 129..128 + steps.
    """

    def __init__(self, eng: _Engine, n_paths: int):
        self.scale = 0.5 * eng.noise_scale * eng.basis[0, 0, 1]
        self.drift = 0.0 if eng.drift_half is None else 0.5 * eng.drift_half[0, 1]
        self.phi0 = float(np.arctan2(eng.e0[1], eng.e0[0]))
        self.half = np.full(n_paths, np.remainder(-0.5 * self.phi0, np.pi))
        self.halves = np.empty((n_paths, 2 * _CHUNK + 1))

    def buffers(self, steps: int):
        """The noise (P, steps, 2, 1) and directions (P, 2, steps) of a run
        of chunks of at most ``steps`` steps, as views of the rows."""
        n_paths = len(self.halves)
        chunk = self.halves[:, 1:]
        return (chunk[:, :2 * steps].reshape(n_paths, steps, 2, 1),
                chunk.reshape(n_paths, 2, _CHUNK)[:, :, :steps])

    def run(self, xi: np.ndarray, keep: np.ndarray, e_dir: np.ndarray):
        n_paths, steps = xi.shape[:2]
        # Start half-angle, then the half-angle after each half-step.
        halves = self.halves[:, :2 * steps + 1]
        halves[:, 0] = self.half
        np.multiply(xi.reshape(n_paths, 2 * steps), self.scale, out=halves[:, 1:])
        if self.drift:
            halves[:, 1:] += self.drift
        np.cumsum(halves, axis=1, out=halves)
        # Carried modulo pi, so its rounding does not grow with the walk.
        np.remainder(halves[:, -1], np.pi, out=self.half)
        full = 2.0 * halves[:, 2::2][:, keep].T + self.phi0
        ck, sk = np.cos(full), np.sin(full)
        g = np.stack([np.stack([ck, sk], axis=-1), np.stack([-sk, ck], axis=-1)], axis=-2)
        # The midpoint tangents of a block of paths go through a scratch
        # block, as the directions may be written over the midpoints.
        tan = np.empty((min(n_paths, _TAN_BLOCK), steps))
        for p in range(0, n_paths, _TAN_BLOCK):
            block = slice(p, p + _TAN_BLOCK)
            t = tan[:n_paths - p]
            np.tan(halves[block, 1::2], out=t)
            cos, sin = e_dir[block, 0], e_dir[block, 1]
            np.multiply(t, t, out=cos)
            cos += 1.0
            np.divide(-2.0, cos, out=cos)           # -2 / (1 + t^2)
            np.multiply(t, cos, out=sin)
            np.subtract(-1.0, cos, out=cos)
        return g


# Paths per block of the chain's transposes between path-major and
# step-major layouts: few enough that a block stays in cache.
_PATH_BLOCK = 32


class _PairChain:
    """n = 3 and 4: g as unit quaternions held as SU(2) pairs.

    n = 3: g v = q v conj(q) for one pair q; n = 4: g v = l v conj(s) for
    two pairs (l, s).  A half-step with exponent x multiplies each pair on
    the right by the unit quaternion of a rotation vector w linear in x
    (see :func:`_pair_vectors`), (cos(|w|/2), (sin(|w|/2)/|w|) w): q <-
    q e^(w/2) on n = 3, l <- l e^a and s <- s e^-b on n = 4.

    A sub-block of steps takes four passes over step-major arrays: the
    noise, transposed in blocks of paths and mapped to rotation vectors;
    every exponential at once; the products in turn, each written over the
    factor it used, so that the factors' array ends up holding the pairs
    after every half-step; and the midpoint directions, transposed back
    in blocks of paths.
    """

    def __init__(self, eng: _Engine, n_paths: int):
        n, n_noise = eng.n, eng.n_noise
        self.n, self.e0 = n, eng.e0
        vectors = np.array([_pair_vectors(a) for a in eng.basis])    # (N, K, 3)
        k = vectors.shape[1]
        self.map = eng.noise_scale * vectors.reshape(n_noise, 3 * k).T    # (3K, N)
        self.drift = None if eng.drift_half is None else _pair_vectors(eng.drift_half)
        self.q = np.zeros((k, 2, n_paths), dtype=complex)
        self.q[:, 0] = 1.0
        # Two pairs take sub-blocks of 4 steps, which keeps a full-width
        # batch of n = 4 below what the matrix chain held.
        self.sub = _SUB // k**2
        # The transposed noise, then per half-step |w|, tan(|w|/4) and 1 +
        # tan(|w|/4)^2; N = 3K for the canonical basis.
        self.scratch = np.empty((max(n_noise, 3 * k), self.sub * 2 * n_paths))
        self.w = np.empty((3 * k, self.sub * 2 * n_paths))
        self.e = np.empty((self.sub, 2, k, 2, n_paths), dtype=complex)
        self.tmp = np.empty((2, 2, n_paths), dtype=complex)
        self.dirs = np.empty((n, self.sub, n_paths))

    def run(self, xi: np.ndarray, keep: np.ndarray, e_dir: np.ndarray):
        n_paths, steps = xi.shape[:2]
        n, k = self.n, self.q.shape[0]
        g = np.empty((len(keep), n_paths, n, n))
        for lo in range(0, steps, self.sub):
            sub = min(self.sub, steps - lo)
            e = self.e[:sub]
            self.exponentials(xi[:, lo:lo + sub], e)
            q = self.q
            for j in range(sub):
                for half in (0, 1):
                    for c in range(k):
                        _pair_product(q[c], e[j, half, c], e[j, half, c], self.tmp)
                    q = e[j, half]
            np.copyto(self.q, q)
            dirs = self.dirs[:, :sub]
            self.apply(np.moveaxis(e[:, 0], 0, -2), self.e0, dirs)
            for p in range(0, n_paths, _PATH_BLOCK):
                block = slice(p, p + _PATH_BLOCK)
                np.copyto(e_dir[block, :, lo:lo + sub], dirs[:, :, block].transpose(2, 0, 1))
            first, last = np.searchsorted(keep, [lo, lo + sub])
            if last > first:
                ends = np.moveaxis(e[keep[first:last] - lo, 1], 0, -2)    # (K, 2, kept, P)
                cols = np.empty((n, last - first, n_paths))
                for m, basis in enumerate(np.eye(n)):
                    self.apply(ends, basis, cols)
                    g[first:last, :, :, m] = np.moveaxis(cols, 0, -1)
        self.q = self.q / np.sqrt(np.sum(self.q.real**2 + self.q.imag**2, axis=1, keepdims=True))
        return g

    def exponentials(self, xi: np.ndarray, e: np.ndarray) -> None:
        """The factors e (sub, 2, K, 2, P) of the half-steps of noise xi (P, sub, 2, N)."""
        n_paths, sub, _, n_noise = xi.shape
        k = self.q.shape[0]
        size = sub * 2 * n_paths
        noise = self.scratch[:n_noise, :size]
        for p in range(0, n_paths, _PATH_BLOCK):
            block = slice(p, p + _PATH_BLOCK)
            np.copyto(noise.reshape(n_noise, sub, 2, n_paths)[..., block],
                      xi[block].transpose(3, 1, 2, 0))
        w = self.w[:, :size]
        # Row by row, not as a BLAS product, whose rounding may depend on
        # the number of paths; a component no generator reaches stays 0.
        for row, out in zip(self.map, w):
            terms = np.flatnonzero(row)
            if terms.size == 0:
                out.fill(0.0)
                continue
            first, *rest = terms
            np.multiply(noise[first], row[first], out=out)
            for i in rest:
                out += row[i] * noise[i]
        w = w.reshape(k, 3, size)
        if self.drift is not None:
            w += self.drift[:, :, None]
        angle, tan, den = self.scratch[:3 * k, :size].reshape(3, k, size)
        np.multiply(w[:, 0], w[:, 0], out=angle)
        for m in (1, 2):
            np.multiply(w[:, m], w[:, m], out=tan)
            angle += tan
        np.sqrt(angle, out=angle)
        # cos(|w|/2) and sin(|w|/2) from t = tan(|w|/4), as 2/(1 + t^2) - 1
        # and 2t/(1 + t^2): numpy vectorises its float64 tan but not sin
        # and cos (1.8 ns against 10 and 6 ns an element on an AVX-512 x86).
        np.multiply(angle, 0.25, out=tan)
        np.tan(tan, out=tan)
        np.multiply(tan, tan, out=den)
        den += 1.0
        moving = angle > 0.0
        angle *= den
        tan += tan
        shape = (k, sub, 2, n_paths)
        alpha, beta = np.moveaxis(e, (2, 3), (1, 0))    # each (K, sub, 2, P)
        cos = alpha.real
        np.divide(2.0, den.reshape(shape), out=cos)
        cos -= 1.0
        # sin(|w|/2)/|w| = 2t / (|w| (1 + t^2)), which tends to 1/2 as |w| vanishes.
        den.fill(0.5)
        np.divide(tan, angle, out=den, where=moving)
        factor = den.reshape(shape)
        for m, out in enumerate((alpha.imag, beta.real, beta.imag)):
            np.multiply(w[:, m].reshape(shape), factor, out=out)

    def apply(self, q: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
        """out (n, ...) = g v for the pairs q (K, 2, ...) of g and a fixed n-vector v."""
        if self.n == 3:
            for i, c in enumerate(_rotate(q[0], v)):
                out[i] = c
        else:
            l, s = q
            conj_s = [np.conj(s[0]), -s[1]]
            out[...] = _as_vector(_multiply(_multiply(l, _as_pair(v)), conj_s))


class _MatrixChain:
    """g as a matrix, multiplied at each half-step by the factor of
    :func:`_half_step_factors`, whose factors it forms a sub-block of steps
    at a time: 16 steps of turns of g's rows for n = 2, and one step's two
    exponentials otherwise."""

    def __init__(self, eng: _Engine, n_paths: int):
        self.eng = eng
        self.g = np.tile(np.eye(eng.n), (n_paths, 1, 1))
        self.steps = 0
        self.sub = 1
        if eng.n == 2:
            # A sub-block's turns and their tan(theta / 2), path-major like
            # the noise, so that neither is transposed; kept for the run.
            self.sub = _SUB
            self.turns = np.empty((n_paths, _SUB, 2), dtype=complex)
            self.tan = np.empty((n_paths, _SUB, 2))

    def run(self, xi: np.ndarray, keep: np.ndarray, e_dir: np.ndarray):
        eng, n = self.eng, self.eng.n
        n_paths, steps = xi.shape[:2]
        kept = np.empty((len(keep), n_paths, n, n))
        i = 0
        for lo in range(0, steps, self.sub):
            sub = min(self.sub, steps - lo)
            buffers = {} if n > 2 else {"out": self.turns[:, :sub], "work": self.tan[:, :sub]}
            f = _half_step_factors(xi[:, lo:lo + sub], eng.basis, eng.noise_scale,
                                   eng.drift_half, **buffers)
            for j in range(sub):
                mid = _advance(self.g, f[:, j, 0])
                e_dir[:, :, lo + j] = (mid.reshape(-1, n) @ eng.e0).reshape(n_paths, n)
                self.g = _advance(mid, f[:, j, 1])
                self.steps += 1
                if self.steps % _GROUP_PROJECT_EVERY == 0:
                    self.g = project_rotation(self.g)
                if i < len(keep) and keep[i] == lo + j:
                    kept[i] = self.g
                    i += 1
        return kept


def _group_chain(eng: _Engine, n_paths: int):
    if eng.n == 2 and eng.chart.model == "euclidean":
        return _AngleChain(eng, n_paths)
    if eng.n in (3, 4):
        return _PairChain(eng, n_paths)
    return _MatrixChain(eng, n_paths)


# Frame stages.  ``run(dirs, wanted, need_u)`` advances every path over the
# chunk's directions dirs (P, n, steps), and returns x (len(wanted), P, n)
# and u (len(wanted), P, n, n) (None unless ``need_u``) after each
# chunk-local step in ``wanted`` (sorted), then each path's first local
# step whose state is off the chart or not finite (``steps`` if none) and
# its position there.  A stage restarts a failed path at (x0, u0) itself;
# what it returns for that path from then on is not read.

def _frame_stage(eng: _Engine, n_paths: int):
    if eng.chart.model == "euclidean" and eng.chart.in_domain is None:
        return _CumsumFrame(eng, n_paths)
    if eng.chart.model == "hyperbolic":
        return _HalfPlaneFrame(eng, n_paths)
    return _HeunFrame(eng, n_paths)


class _CumsumFrame:
    """The euclidean model with no ``in_domain``: u stays u0 and x is x0 + h u0
    (sum of the directions so far), formed only where it is read, from sums
    over the segments between wanted steps; ``total`` carries the sum from
    chunk to chunk.  No path can fail here, so u is a read-only view of u0."""

    def __init__(self, eng: _Engine, n_paths: int):
        self.eng = eng
        self.total = np.zeros((n_paths, eng.n))

    def run(self, dirs: np.ndarray, wanted: np.ndarray, need_u: bool):
        eng, total = self.eng, self.total
        n_paths, n, steps = dirs.shape
        x = np.empty((len(wanted), n_paths, n))
        start = 0
        for k, j in enumerate(wanted):
            total += dirs[:, :, start:j + 1].sum(axis=2)
            start = j + 1
            x[k] = eng.x0 + eng.h * np.einsum("ij,pj->pi", eng.u0, total)
        total += dirs[:, :, start:].sum(axis=2)
        u = np.broadcast_to(eng.u0, (len(wanted), n_paths, n, n)) if need_u else None
        return x, u, np.full(n_paths, steps), np.full((n_paths, n), np.nan)


class _HalfPlaneFrame:
    """The hyperbolic model: the frame as a matrix F = [[a, b], [c, d]] of SL(2,R),
    stored as (2, 2, P), stepped by the exact product of the module notes.

    The start is F0 = [[sqrt(y), x/sqrt(y)], [0, 1/sqrt(y)]] K(theta/2)
    for x0 = (x, y) and u0 = y R(theta), with K the rotation fixing i.
    A u0 that reverses orientation is run through the mirror x1 -> -x1,
    an isometry, and its states are mirrored back.
    """

    def __init__(self, eng: _Engine, n_paths: int):
        (x, y), u = eng.x0, eng.u0 / eng.x0[1]
        self.mirror = bool(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0] < 0.0)
        if self.mirror:
            x, u = -x, u * [[-1.0], [1.0]]
        half = 0.5 * np.arctan2(u[1, 0], u[0, 0])
        r = np.sqrt(y)
        cs, sn = np.cos(half), np.sin(half)
        self.f0 = np.array([[r, x / r], [0.0, 1.0 / r]]) @ np.array([[cs, sn], [-sn, cs]])
        self.F = np.repeat(self.f0[:, :, None], n_paths, axis=2)
        self.cosh, self.sinh = np.cosh(0.5 * eng.h), np.sinh(0.5 * eng.h)
        # Step matrices of a few steps at a time, kept for the whole run.
        self.mats = np.empty((_SUB, 3, n_paths))

    def run(self, e_dir: np.ndarray, wanted: np.ndarray, need_u: bool):
        n_paths, _, steps = e_dir.shape
        fail = np.full(n_paths, steps)
        x_fail = np.full((n_paths, 2), np.nan)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            end, kept = self.products(self.F, e_dir, wanted)
            ok = _sl2_valid(end, self.state(end, False)[0])
            bad = np.nonzero(~ok)[0]
            if bad.size:
                # Replay the failed paths step by step to find where they failed.
                _, trail = self.products(self.F[..., bad], e_dir[bad], np.arange(steps))
                x_trail = self.state(trail, False)[0]
                fail[bad] = np.argmin(_sl2_valid(trail, x_trail), axis=0)
                x_fail[bad] = x_trail[fail[bad], np.arange(bad.size)]
            # Back to det 1 by rebuilding the top row from the bottom row
            # (c, d), which alone gives x2 and the frame, and from x1.  A det
            # formed as ad - bc cancels to 0 as a path nears the axis.
            (a, b), (c, d) = end
            r2 = c * c + d * d
            x1 = (a * c + b * d) / r2
            self.F = np.stack([np.stack([x1 * c + d / r2, x1 * d - c / r2]), end[1]])
            self.F[..., bad] = self.f0[:, :, None]
            x, u = self.state(kept, need_u)
        return x, u, fail, x_fail

    def products(self, F: np.ndarray, e_dir: np.ndarray, keep: np.ndarray):
        """F (2, 2, P) times the step matrix of each direction in e_dir (P, 2, steps) in turn.

        Returns the final F and F after each step in ``keep``, as
        (2, 2, len(keep), P).
        """
        n_paths, _, steps = e_dir.shape
        kept = np.empty((2, 2, len(keep), n_paths))
        # Entries [m00, m01, m11] of each symmetric step matrix, so that its
        # rows are mat[:2] and mat[1:].
        mats = self.mats[:, :, :n_paths]
        i = 0
        for j in range(steps):
            if j % _SUB == 0:
                w = e_dir[:, :, j:j + _SUB]
                sub = mats[:w.shape[2]]
                np.multiply(w[:, 1].T, self.sinh, out=sub[:, 0])
                np.subtract(self.cosh, sub[:, 0], out=sub[:, 2])
                sub[:, 0] += self.cosh
                np.multiply(w[:, 0].T, self.sinh, out=sub[:, 1])
            mat = mats[j % _SUB]
            F = F[:, :1] * mat[:2] + F[:, 1:] * mat[1:]
            if i < len(keep) and keep[i] == j:
                kept[:, :, i] = F
                i += 1
        return F, kept

    def state(self, F: np.ndarray, need_u: bool):
        """Point F(i) (..., 2) and frame F'(i) (..., 2, 2) of F (2, 2, ...) with det 1."""
        (a, b), (c, d) = F
        r = 1.0 / (c * c + d * d)                       # x2
        x = np.stack([(a * c + b * d) * r, r], axis=-1)
        u = None
        if need_u:
            # F'(i) = 1/(ci + d)^2 = r (p + i s), as a conformal frame.
            p = (d * d - c * c) * r
            s = -2.0 * (c * d) * r
            u = np.stack([np.stack([p, -s], axis=-1), np.stack([s, p], axis=-1)], axis=-2)
            u *= r[..., None, None]
        if self.mirror:
            x[..., 0] *= -1.0
            if u is not None:
                u[..., 0, :] *= -1.0
        return x, u


def _sl2_valid(F: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Finite F (2, 2, ...) whose point x (..., 2) is finite and above the axis."""
    return np.isfinite(F).all(axis=(0, 1)) & np.isfinite(x).all(axis=-1) & (x[..., 1] > 0.0)


class _HeunFrame:
    """Other charts: (x, u) as arrays, advanced by a Heun step of the frame
    ODE (x + h v1 exactly, and u unchanged, where the Christoffel symbols
    vanish), checked (x and u finite, x in ``in_domain`` where given) and
    re-orthonormalized in the metric, every step."""

    def __init__(self, eng: _Engine, n_paths: int):
        self.eng = eng
        self.x = np.tile(eng.x0, (n_paths, 1))
        self.u = np.tile(eng.u0, (n_paths, 1, 1))

    def run(self, dirs: np.ndarray, wanted: np.ndarray, need_u: bool):
        eng, chart, h = self.eng, self.eng.chart, self.eng.h
        n_paths, n, steps = dirs.shape
        fail = np.full(n_paths, steps)
        x_fail = np.full((n_paths, n), np.nan)
        xk = np.empty((len(wanted), n_paths, n))
        uk = np.empty((len(wanted), n_paths, n, n)) if need_u else None
        x, u = self.x, self.u
        i = 0
        for j in range(steps):
            e_dir = dirs[:, :, j]
            v1 = np.einsum("...ij,...j->...i", u, e_dir)
            udot1 = frame_transport(chart, x, v1) @ u
            xp = x + h * v1
            up = u + h * udot1
            v2 = np.einsum("...ij,...j->...i", up, e_dir)
            udot2 = frame_transport(chart, xp, v2) @ up
            x, u = x + 0.5 * h * (v1 + v2), u + 0.5 * h * (udot1 + udot2)
            bad = ~(np.isfinite(x).all(axis=-1) & np.isfinite(u).all(axis=(-2, -1)))
            if chart.in_domain is not None:
                bad |= ~chart.in_domain(x)
            if bad.any():
                first = bad & (fail == steps)
                fail[first] = j
                x_fail[first] = x[first]
                x[bad] = eng.x0
                u[bad] = eng.u0
            u = gram_schmidt_metric(chart, x, u)
            if i < len(wanted) and wanted[i] == j:
                xk[i] = x
                if uk is not None:
                    uk[i] = u
                i += 1
        self.x, self.u = x, u
        return xk, uk, fail, x_fail


def _workspaces(eng: _Engine, n_paths: int, n_steps: int):
    """The arrays a run of ``n_paths`` paths of ``n_steps`` steps works in:
    the noise buffer (P, steps, 2, N) and the directions (P, n, steps) of
    one chunk, the group chain and the frame stage.  On flat n = 2 the
    noise and the directions are views of the angle chain's rows."""
    steps = min(n_steps, _CHUNK)
    chain = _group_chain(eng, n_paths)
    if isinstance(chain, _AngleChain):
        noise, dirs = chain.buffers(steps)
    else:
        noise = np.empty((n_paths, steps, 2, eng.n_noise))
        # One spare number a row: rows of 128 start a power of two apart, on
        # a few cache sets, and made the hyperbolic2 chain and frame 30% slower.
        dirs = np.empty((n_paths, eng.n, steps + 1))[:, :, :steps]
    return noise, dirs, chain, _frame_stage(eng, n_paths)


def _workspace_bytes(eng: _Engine, n_paths: int, n_steps: int) -> int:
    """Bytes of the arrays :func:`_workspaces` builds, the chain's and the
    stage's array attributes included, each base array counted once."""
    noise, dirs, *stages = _workspaces(eng, n_paths, n_steps)
    held = [a for stage in stages for a in vars(stage).values() if isinstance(a, np.ndarray)]
    bases = {id(b): b for b in (a if a.base is None else a.base for a in [noise, dirs, *held])}
    return sum(b.nbytes for b in bases.values())


def _draw(xi: np.ndarray, rngs) -> None:
    """Fill each path's row of the chunk's noise xi (P, steps, 2, N) from its generator."""
    shape = xi.shape[1:]
    for row, r in zip(xi, rngs):
        # Shape passed by position: stand-in generators read it there.
        r.standard_normal(shape, out=row)


def simulate_paths(cfg: SimConfig, path_indices: Sequence[int],
                   record_frames: bool = True, record_group: bool = False,
                   rngs: Sequence[np.random.Generator] | None = None) -> EnsemblePaths:
    """Integrate a batch of paths and snapshot them at the output times.

    Paths are independent; path ``p`` consumes the Philox stream keyed by
    (cfg.seed, p) in a fixed per-step order, so any partition of the index
    list over calls or processes reproduces the same numbers.  A path that
    leaves the chart domain, or whose state stops being finite, is recorded
    in ``aborts`` (with the time of the step at which it failed; records
    in step order, then path order) and flagged dead in ``alive``; from
    that step on it is held at its start state (x0, u0), which its output
    rows show exactly.

    ``rngs``, one generator per path, replaces the Philox streams (noise
    injection in the test-suite).  Each is called as
    ``standard_normal(size, out=...)``, with the size by position, and must
    fill ``out`` with that many standard normals, as
    :class:`numpy.random.Generator` does.
    """
    eng = _Engine(cfg)
    n = eng.n
    paths = list(int(p) for p in path_indices)
    n_paths = len(paths)
    if rngs is None:
        rngs = [philox_stream(cfg.seed, p) for p in paths]
    elif len(rngs) != n_paths:
        raise ConfigError("rngs must match path_indices in length")

    n_steps, out_idx = output_steps(cfg)
    grid_times = out_idx * eng.slow_dt

    alive = np.ones(n_paths, dtype=bool)
    aborts: list = []

    k_out = len(out_idx)
    xs = np.empty((k_out, n_paths, n))
    us = np.empty((k_out, n_paths, n, n)) if record_frames else None
    gs = np.empty((k_out, n_paths, n, n)) if record_group else None

    # Output slots at step 0 show the start.
    next_out = int(np.searchsorted(out_idx, 0, side="right"))
    xs[:next_out] = eng.x0
    if us is not None:
        us[:next_out] = eng.u0
    if gs is not None:
        gs[:next_out] = np.eye(n)

    noise, dirs, chain, stage = _workspaces(eng, n_paths, n_steps)
    # Seconds per stage, read once per chunk.
    stage_s = dict.fromkeys(("draw", "chain", "frame", "record"), 0.0)
    for m in range(0, n_steps, _CHUNK):
        t0 = time.perf_counter()
        steps = min(_CHUNK, n_steps - m)
        xi = noise[:, :steps]
        _draw(xi, rngs)
        t1 = time.perf_counter()
        # Output slots next_out..last-1 fall in this chunk, at the local
        # steps wanted[k].
        last = int(np.searchsorted(out_idx, m + steps, side="right"))
        wanted, k = np.unique(out_idx[next_out:last] - m - 1, return_inverse=True)
        e_dir = dirs[:, :, :steps]
        g_kept = chain.run(xi, wanted if record_group else wanted[:0], e_dir)
        t2 = time.perf_counter()
        xk, uk, fail, x_fail = stage.run(e_dir, wanted, record_frames)
        t3 = time.perf_counter()
        # Local step from which each path is held at (x0, u0).
        dead_from = np.where(alive, fail, -1)
        failed = np.nonzero(alive & (fail < steps))[0]
        for p in failed[np.argsort(fail[failed], kind="stable")]:
            aborts.append((paths[p], float((m + fail[p] + 1) * eng.slow_dt), x_fail[p]))
        alive &= fail >= steps
        if not alive.all():
            held = wanted[:, None] >= dead_from
            xk[held] = eng.x0
            if uk is not None:
                uk[held] = eng.u0
        xs[next_out:last] = xk[k]
        if us is not None:
            us[next_out:last] = uk[k]
        if gs is not None:
            gs[next_out:last] = g_kept[k]
        next_out = last
        t4 = time.perf_counter()
        for key, start, end in zip(stage_s, (t0, t1, t2, t3), (t1, t2, t3, t4)):
            stage_s[key] += end - start

    return EnsemblePaths(times=grid_times, xs=xs, us=us, gs=gs, alive=alive, aborts=aborts,
                         steps=n_steps, stage_s=stage_s)


def direction_moments(cfg: SimConfig, path_indices: Sequence[int]) -> np.ndarray:
    """Time averages of w w^T over each path's group chain, w = g e0 its
    direction, up to the horizon ``t_final`` on the step grid: (P, n, n).

    The averages use midpoint directions: each step's g_mid e0, the
    direction its frame step reads, stands for the whole step, so an
    average is the mean of w_mid w_mid^T over the steps.  The chains start
    at g = I and draw the normals of :func:`simulate_paths`, so a path's
    moments belong to its simulated path and do not depend on the batch.
    """
    eng = _Engine(cfg)
    n = eng.n
    rngs = [philox_stream(cfg.seed, p) for p in path_indices]
    n_steps = output_steps(cfg)[0]
    noise, dirs, chain, _ = _workspaces(eng, len(rngs), n_steps)
    sums = np.zeros((len(rngs), n, n))
    for m in range(0, n_steps, _CHUNK):
        steps = min(_CHUNK, n_steps - m)
        xi = noise[:, :steps]
        _draw(xi, rngs)
        e_dir = dirs[:, :, :steps]
        chain.run(xi, np.arange(0), e_dir)
        for i in range(n):
            for j in range(n):
                sums[:, i, j] += (e_dir[:, i] * e_dir[:, j]).sum(axis=1)
    return sums / n_steps


def output_steps(cfg: SimConfig) -> tuple[int, np.ndarray]:
    """Steps a path of ``cfg`` takes, and the step at which each output time
    is recorded: the time rounded to the step grid of slow_dt = h0 eps^2.
    Raises :class:`ConfigError` when slow_dt underflows to 0 or a count
    reaches 2**63 (see :func:`horizon_steps`)."""
    slow_dt = cfg.h0 * cfg.epsilon**2
    n_steps = horizon_steps("t_final", cfg.t_final, slow_dt)
    marks = step_counts("output_times", cfg.resolved_output_times(), slow_dt)
    return n_steps, np.clip(marks, 0, n_steps)


def path_batches(cfg: SimConfig, n_paths: int, record_frames: bool, record_group: bool,
                 parts: int = 1) -> list[range]:
    """Consecutive ranges of paths 0..n_paths-1, one per engine call: ``parts``
    near-equal parts (fewer if paths run out), each cut into ranges that fit
    in ``BATCH_BYTES``, the largest first.  A path is priced at its
    recorded outputs, 8 bytes a number, at its Philox stream,
    ``STREAM_BYTES``, and at its share of the run's arrays: what
    :func:`_workspaces` holds for 2 paths less what it holds for 1, which
    leaves out the constants (the pair chain's map, e0, the hyperbolic2
    start frame)."""
    eng = _Engine(cfg)
    n = eng.n
    n_steps, out_idx = output_steps(cfg)
    fields = n + n * n * (int(record_frames) + int(record_group))
    per_path = (8 * len(out_idx) * fields + STREAM_BYTES
                + _workspace_bytes(eng, 2, n_steps) - _workspace_bytes(eng, 1, n_steps))
    width = max(1, BATCH_BYTES // per_path)
    bounds = [n_paths * i // parts for i in range(parts + 1)]
    return [range(lo, min(lo + width, hi))
            for start, hi in zip(bounds, bounds[1:]) for lo in range(start, hi, width)]


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

