"""The fast rotational diffusion on SO(n) and its invariant-measure checks.

The noise process solves the Stratonovich equation

    dg = (1/sqrt(eps)) sum_k g A_k o dw^k + g Abar dt,   g(0) = I,

for an orthonormal skew basis {A_k}.  The group chains of
:mod:`perturbed_geodesic` step it in Strang half-steps: at the eps of
their paths in a simulation, and at eps = 1, the equation clock, for the
ergodic averages (:func:`perturbed_geodesic.direction_moments`).  The
matrix chain's half-step is split in two: ``_half_step_factors`` forms
the exponential of each sampled increment, and ``_advance`` multiplies g
by it, so every iterate is a rotation matrix by construction.  For n = 2
the increment turns the plane by an angle theta, its factor is the turn
e^(i theta), formed for a sub-block of steps at once from one vectorised
tan(theta / 2), and the half-step multiplies each row of g, read as a
complex number, by it.  The checks of h0, e0, the drift and the step
counts that every run passes through live here too.

The companion functions expose the identities that pin down the effective
diffusion constant: the linear statistic alpha_i(g) = <g e0, e_i> is an
eigenfunction of the generator with eigenvalue -(n-1)/4, its Poisson
solution is -(4/(n-1)) alpha_i, and Haar second moments of alpha are
delta_ij / n.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, require_finite
from .lie_algebra import BATCH_BYTES, group_exp, haar_sample, skewness_defect, SKEW_TOL

# Ceiling of the fast-clock step h/epsilon, the noise variance of one group step.
MAX_H0 = 0.1
# Largest tolerated deviation of |e0| from 1.
UNIT_TOL = 1e-9
# Largest Frobenius norm X = |0.5 h Abar| of a half-step's drift exponent.
# The exponential squares about log2(X) times, and the matrix chain's
# orthogonality defect over 999 steps (8 paths, eps = 0.5) grew with X:
# 2.5e-11 at X = 250, 8.2e-10 at 2,500, 7.0e-9 at 25,000 and 1.6e-6 at
# 2.5e6.  At X = 1e20 g was off SO(n) by 1, at 1e100 the positions were NaN
# on paths still counted alive, and an X that overflows ended the run in an
# OverflowError.  At X = 1e3 the defect read 1.0e-10 on euclidean:5, well
# below the 1e-8 of the constraint gates; the tests' largest X is about 0.21.
MAX_DRIFT_EXPONENT = 1e3


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


def check_drift(abar, n: int, h: float) -> np.ndarray:
    """The drift exponent 0.5 h abar of a half-step of ``h``; raises
    :class:`ConfigError` unless ``abar`` is a finite skew n x n matrix and
    the exponent's Frobenius norm is at most ``MAX_DRIFT_EXPONENT``."""
    abar = require_finite("abar", abar)
    if abar.shape != (n, n):
        raise ConfigError(f"abar must have shape {(n, n)}, got {abar.shape}")
    if skewness_defect(abar) > SKEW_TOL:
        raise ConfigError("abar must be skew-symmetric")
    with np.errstate(over="ignore"):
        half = 0.5 * h * abar
        size = float(np.linalg.norm(half))
    if not size <= MAX_DRIFT_EXPONENT:
        raise ConfigError(f"abar is too large: the half-step drift exponent 0.5 h abar has "
                          f"norm {size:.3g} at h = {h:g}, above {MAX_DRIFT_EXPONENT:g}")
    return half


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


def _half_step_factors(xi, basis, noise_scale, drift, out=None, work=None):
    """The factors by which :func:`_advance` multiplies g at the half-steps
    of noise xi (..., N): exp(noise_scale sum_k xi_k A_k + drift).

    n = 2: the exponential turns the plane by an angle theta, so the
    factor is the turn e^(i theta) (...), complex, formed from t =
    tan(theta / 2) as ((1 - t^2) + 2 i t) / (1 + t^2): numpy vectorises its
    float64 tan but not sin and cos (2.5 ns against 10 and 5 ns an element
    on an x86-64 with AVX-512).  Near the pole, theta = pi, t is at most
    about 1.6e16, so t^2 stays finite and the turn is -1 + 2i / t to
    rounding.  ``out`` receives the turns and ``work``, a float array of
    their shape, holds t; each is allocated if not given.  Otherwise the
    factors are the matrices (..., n, n) of :func:`group_exp`.
    """
    if basis.shape[-1] != 2:
        exponent = noise_scale * np.einsum("...k,kij->...ij", xi, basis)
        if drift is not None:
            exponent = exponent + drift
        return group_exp(exponent)
    t = np.asarray(np.einsum("...k,k->...", xi, basis[:, 0, 1], out=work))
    t *= noise_scale
    if drift is not None:
        t += drift[0, 1]
    t *= 0.5
    np.tan(t, out=t)
    turn = np.empty(t.shape, dtype=complex) if out is None else out
    cos, sin = turn.real, turn.imag
    np.multiply(t, t, out=cos)
    cos += 1.0
    np.divide(2.0, cos, out=cos)            # 2 / (1 + t^2)
    np.multiply(t, cos, out=sin)
    cos -= 1.0
    return turn


def _advance(g, factor):
    """g times the half-step factor of :func:`_half_step_factors`: for n = 2
    each row of g, read as the complex number g[r, 0] + i g[r, 1], times
    the turn, otherwise the matrix product g @ factor."""
    if g.shape[-1] == 2:
        rows = np.ascontiguousarray(g).view(complex)
        return (rows * factor[..., None, None]).view(float)
    return g @ factor


def poisson_h(g: np.ndarray, e0: np.ndarray, i: int) -> float:
    """-(4/(n-1)) <g e0, e_i>: the centred solution of L_G h = <g e0, e_i>."""
    g = np.asarray(g, dtype=float)
    n = g.shape[-1]
    return float(-(4.0 / (n - 1)) * (g @ np.asarray(e0, dtype=float))[i])


def apply_generator_linear(g: np.ndarray, e0: np.ndarray, i: int, basis: np.ndarray) -> float:
    """The diffusion generator applied to <g e0, e_i>, i.e. (1/2) sum_k <g A_k^2 e0, e_i>.

    Summing the per-element terms keeps this an independent route to the
    eigenfunction identity (the sum collapses to -((n-1)/4) <g e0, e_i>).
    """
    g = np.asarray(g, dtype=float)
    e0 = np.asarray(e0, dtype=float)
    # A_k^2 e0 for each k, then the per-element inner products <g A_k^2 e0, e_i>.
    a2e0 = np.einsum("kij,kjl,l->ki", basis, basis, e0)
    terms = (g @ a2e0.T)[i]
    return 0.5 * float(np.sum(terms))


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
    # Samples a chunk: at most 50,000 and as many as fit in BATCH_BYTES at 48 n^2
    # bytes, six n x n matrices of doubles, a sample.  A chunk's arrays are
    # freed before the next is drawn, so however many chunks a run takes,
    # tracemalloc's peak is that of one chunk: 32 n^2 + 8 n bytes a sample
    # plus about 70 kB at n = 2..12.
    chunk = min(50_000, BATCH_BYTES // (48 * n * n))
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
        del w, prod
    mean = s1 / samples
    var = np.maximum(s2 / samples - mean**2, 0.0)
    scale = 4.0 / (n - 1)
    return scale * mean, scale * np.sqrt(var / samples)
