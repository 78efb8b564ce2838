"""The fast rotational diffusion on SO(n) and its invariant-measure checks.

The noise process solves the Stratonovich equation

    dg = (1/sqrt(eps)) sum_k g A_k o dw^k + g Abar dt,   g(0) = I,

for an orthonormal skew basis {A_k}.  :class:`GroupSdeConfig` runs it at
eps = 1, the equation clock; the rescaled simulation of
:mod:`perturbed_geodesic` runs it at the eps of its paths.  One
integrator step multiplies g by the exponential of the sampled increment,
so every iterate is a rotation matrix by construction (geometric
exponential Euler, weak order 1).  For n = 2 the increment turns the
plane by an angle theta, and the step multiplies each row of g, read as
a complex number, by cos theta + i sin theta.

The companion functions expose the identities that pin down the effective
diffusion constant: the linear statistic alpha_i(g) = <g e0, e_i> is an
eigenfunction of the generator with eigenvalue -(n-1)/4, its Poisson
solution is -(4/(n-1)) alpha_i, and Haar second moments of alpha are
delta_ij / n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, require_finite
from .lie_algebra import SkewBasis, group_exp, haar_sample, skewness_defect, SKEW_TOL

# Ceiling of the fast-clock step h/epsilon, the noise variance of one group
# step, below which the single-exponential step stays accurate.
MAX_H0 = 0.1
# Largest tolerated deviation of |e0| from 1.
UNIT_TOL = 1e-9


def check_h0(h0: float) -> float:
    """``h0`` itself; raises :class:`ConfigError` unless it lies in (0, MAX_H0]."""
    if not 0.0 < h0 <= MAX_H0:
        raise ConfigError(f"h0 must lie in (0, {MAX_H0}]")
    return h0


def check_direction(e0) -> np.ndarray:
    """``e0`` as a float vector; raises :class:`ConfigError` unless it is a finite unit vector."""
    e0 = require_finite("e0", e0)
    norm = float(np.linalg.norm(e0))
    if abs(norm - 1.0) > UNIT_TOL:
        raise ConfigError(f"e0 must be a unit vector (|e0| = {norm:.6g})")
    return e0


def check_drift(abar, n: int) -> np.ndarray:
    """``abar`` as a float matrix; raises :class:`ConfigError` unless it is a finite skew n x n matrix."""
    abar = require_finite("abar", abar)
    if abar.shape != (n, n):
        raise ConfigError(f"abar must have shape {(n, n)}, got {abar.shape}")
    if skewness_defect(abar) > SKEW_TOL:
        raise ConfigError("abar must be skew-symmetric")
    return abar


def step_counts(name: str, times, h: float) -> np.ndarray:
    """The whole numbers of steps of ``h`` nearest ``times``; raises
    :class:`ConfigError`, naming ``name`` and the count, unless ``h`` is
    positive and each count is below 2**63."""
    if not h > 0.0:
        raise ConfigError(f"{name} cannot be reached in steps of h = {h:g}; "
                          f"the step must be positive")
    with np.errstate(over="ignore"):
        marks = np.rint(np.asarray(times, dtype=float) / h)
    if not np.max(marks) < 2.0**63:
        raise ConfigError(f"{name} needs {np.max(marks):.3g} steps of h = {h:g}; "
                          f"a step count must be below 2**63")
    return marks.astype(int)


def horizon_steps(name: str, t: float, h: float) -> int:
    """Steps of ``h`` that run to the horizon ``t``: the nearest whole
    number, at least 1 (see :func:`step_counts`)."""
    return max(1, int(step_counts(name, t, h)))


@dataclass(frozen=True)
class GroupSdeConfig:
    """Parameters of the group diffusion at epsilon = 1 and its integrator.

    ``h`` is the integration step and so the noise variance of one step;
    :func:`check_h0` bounds it by MAX_H0 so that the single-exponential
    step stays accurate.
    """

    basis: SkewBasis
    abar: np.ndarray | None = None
    h: float = 0.1

    def __post_init__(self):
        check_h0(self.h)
        if self.abar is not None:
            object.__setattr__(self, "abar", check_drift(self.abar, self.basis.dim))

    @property
    def noise_scale(self) -> float:
        return float(np.sqrt(self.h))

    def drift_term(self) -> np.ndarray | None:
        """h * Abar, the deterministic part of the per-step exponent."""
        if self.abar is None:
            return None
        return self.h * self.abar


def step_group(g: np.ndarray, cfg: GroupSdeConfig, xi: np.ndarray) -> np.ndarray:
    """One geometric integrator step: g <- g exp(sqrt(h) sum xi_k A_k + h Abar).

    ``g`` may be a stack (..., n, n) with matching leading axes on ``xi``
    (..., N); standard normals in ``xi`` are the caller's responsibility.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != len(cfg.basis):
        raise ConfigError(f"xi must have length {len(cfg.basis)}, got {xi.shape[-1]}")
    return _advance(np.asarray(g, dtype=float), xi, cfg.basis.mats, cfg.noise_scale, cfg.drift_term())


def _advance(g, xi, basis_mats, noise_scale, drift):
    if g.shape[-1] == 2:
        # exp(theta A) turns the plane by theta, which multiplies each row
        # of g, read as the complex number g[r, 0] + i g[r, 1], by e^(i theta).
        theta = noise_scale * (xi @ basis_mats[:, 0, 1])
        if drift is not None:
            theta = theta + drift[0, 1]
        turn = np.empty(np.shape(theta), dtype=complex)
        np.cos(theta, out=turn.real)
        np.sin(theta, out=turn.imag)
        rows = np.ascontiguousarray(g).view(complex)
        return (rows * turn[..., None, None]).view(float)
    exponent = noise_scale * np.einsum("...k,kij->...ij", xi, basis_mats)
    if drift is not None:
        exponent = exponent + drift
    return g @ group_exp(exponent)


def poisson_h(g: np.ndarray, e0: np.ndarray, i: int) -> float:
    """-(4/(n-1)) <g e0, e_i>: the centred solution of L_G h = <g e0, e_i>."""
    g = np.asarray(g, dtype=float)
    n = g.shape[-1]
    return float(-(4.0 / (n - 1)) * (g @ np.asarray(e0, dtype=float))[i])


def apply_generator_linear(g: np.ndarray, e0: np.ndarray, i: int, basis: SkewBasis) -> float:
    """The diffusion generator applied to <g e0, e_i>, i.e. (1/2) sum_k <g A_k^2 e0, e_i>.

    Summing the per-element terms keeps this an independent route to the
    eigenfunction identity (the sum collapses to -((n-1)/4) <g e0, e_i>).
    """
    g = np.asarray(g, dtype=float)
    e0 = np.asarray(e0, dtype=float)
    # A_k^2 e0 for each k, then the per-element inner products <g A_k^2 e0, e_i>.
    a2e0 = np.einsum("kij,kjl,l->ki", basis.mats, basis.mats, e0)
    terms = (g @ a2e0.T)[i]
    return 0.5 * float(np.sum(terms))


def ergodic_average_repetitions(f: Callable[[np.ndarray], np.ndarray], cfg: GroupSdeConfig,
                                checkpoints, reps: int, rng: np.random.Generator) -> np.ndarray:
    """Left-rectangle time averages over ``reps`` independent paths started at I.

    ``f`` receives the (reps, n, n) stack and returns a (..., reps) array;
    the result has shape (len(checkpoints), ..., reps) and row j holds the
    averages (1/t_j) int_0^{t_j} f(g_s) ds.  Checkpoints must sit on the
    step grid, fewer than 2**63 steps out.  Like every
    :class:`GroupSdeConfig` run, the paths run at epsilon = 1, the
    equation clock in which the law-of-large-numbers bound is stated.
    """
    checkpoints = require_finite("checkpoints", np.atleast_1d(checkpoints))
    if np.any(checkpoints <= 0) or np.any(np.diff(checkpoints) <= 0):
        raise ConfigError("checkpoints must be positive and strictly increasing")
    n = cfg.basis.dim
    n_basis = len(cfg.basis)

    marks = step_counts("checkpoints", checkpoints, cfg.h)
    if np.max(np.abs(marks * cfg.h - checkpoints)) > 1e-9 * max(1.0, checkpoints[-1]):
        raise ConfigError("checkpoints must sit on the step grid")
    g = np.broadcast_to(np.eye(n), (reps, n, n)).copy()
    acc = 0.0
    out = []
    for m in range(marks[-1]):
        acc = acc + f(g) * cfg.h
        g = step_group(g, cfg, rng.standard_normal((reps, n_basis)))
        while len(out) < len(marks) and m + 1 == marks[len(out)]:
            out.append(acc / checkpoints[len(out)])
    return np.array(out)


def haar_moment_stats(n: int, e0: np.ndarray, samples: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimate of a_ij = (4/(n-1)) E_Haar[<g e0, e_i><g e0, e_j>].

    Returns (estimate, standard error), both (n, n).  The estimate
    converges to (4/((n-1) n)) I: off-diagonal Haar moments vanish and the
    diagonal ones equal 1/n.
    """
    if samples < 1000:
        raise ConfigError("haar moment estimation needs at least 1000 samples")
    e0 = np.asarray(e0, dtype=float)
    chunk = 50_000
    total = 0
    s1 = np.zeros((n, n))
    s2 = np.zeros((n, n))
    while total < samples:
        k = min(chunk, samples - total)
        w = haar_sample(n, rng, size=k) @ e0
        prod = w[:, :, None] * w[:, None, :]
        s1 += prod.sum(axis=0)
        s2 += (prod**2).sum(axis=0)
        total += k
    mean = s1 / samples
    var = np.maximum(s2 / samples - mean**2, 0.0)
    scale = 4.0 / (n - 1)
    return scale * mean, scale * np.sqrt(var / samples)
