"""Exact finite-epsilon references for the benchmark's correctness checks.

Everything here is derived from the model, not from frameflow's code, so
the checks compare the program against an independent computation.

Flat charts.  One integrator step advances x by h u0 g_mid e0, where
g_mid is the group factor after an odd number of half-step rotations
exp(X), X = s sum_k xi_k A_k, s^2 = h / (2 eps), A_k = (E_ij - E_ji)/sqrt(2).
Each rotation-angle coordinate of X then has variance v = h / (4 eps).
By isotropy E[exp X] = kappa I, so with q = kappa^2 and x0 = 0, u0 = I,

    E x_M      = h sum_{m<M} kappa^(2m+1) e0,
    E |x_M|^2  = h^2 sum_{m,m'<M} kappa^(2|m-m'|),

exactly, for every step count M and every epsilon.

Hyperbolic half-plane.  Brownian motion with generator c * Laplacian on
H^2 is the heat flow at time t = c T.  McKean's kernel (J. Differential
Geom. 4, 1970) gives the law of the distance rho_t from the start:

    p_t(rho) = sqrt(2) e^(-t/4) (4 pi t)^(-3/2)
               * int_rho^inf s e^(-s^2/(4t)) / sqrt(cosh s - cosh rho) ds,

with area element 2 pi sinh(rho) d rho.  E cosh(rho_t) = e^(2t) because
Laplacian(cosh rho) = 2 cosh rho.
"""

from __future__ import annotations

import numpy as np

# Recorded finite-epsilon gap of the simulated E[rho_T^2] on hyperbolic2
# against the heat kernel: -3.0% at eps = 0.05 (5.0675 +- 0.0192 over
# 8 x 2000 paths at c T = 1), -14% at eps = 0.1.  It shrinks like eps^2.
H2_GAP_AT_EPS_005 = 0.030


def half_step_angle_variance(epsilon: float, h0: float) -> float:
    """Variance v = h / (4 eps) of each rotation-angle coordinate of a half step."""
    h = h0 * epsilon
    return h / (4.0 * epsilon)


def half_step_kappa(n: int, v: float) -> float:
    """E[exp X]_11 for one half-step exponent X with angle variance v.

    n = 2: the angle is N(0, v), so E cos = exp(-v/2).
    n = 3: E exp X = I - (2/3) E[1 - cos theta] I with theta = sqrt(v) chi_3,
    and E cos(sqrt(v) chi_3) = (1 - v) exp(-v/2).
    """
    if n == 2:
        return float(np.exp(-v / 2.0))
    if n == 3:
        return float((1.0 + 2.0 * (1.0 - v) * np.exp(-v / 2.0)) / 3.0)
    raise ValueError(f"no closed form for n = {n}")


def flat_msd_and_mean(n: int, epsilon: float, h0: float, steps, v: float | None = None):
    """Exact E|x_M|^2 and E<x_M, e0> of the discrete scheme at each step count M.

    ``v`` overrides the half-step angle variance (the negative tests pass
    a wrong one).
    """
    h = h0 * epsilon
    v = half_step_angle_variance(epsilon, h0) if v is None else v
    kappa = half_step_kappa(n, v)
    q = kappa * kappa
    steps = np.asarray(steps, dtype=np.int64)
    m_max = int(steps.max()) if steps.size else 0
    # E|x_M|^2 = h^2 (M + 2 sum_{d=1}^{M-1} (M - d) q^d)
    d = np.arange(1, max(m_max, 1), dtype=float)
    qd = q ** d
    s1 = np.concatenate([[0.0], np.cumsum(qd)])          # s1[M-1] = sum_{d<M} q^d
    s2 = np.concatenate([[0.0], np.cumsum(d * qd)])
    idx = np.maximum(steps - 1, 0)
    msd = h * h * (steps + 2.0 * (steps * s1[idx] - s2[idx]))
    msd = np.where(steps > 0, msd, 0.0)
    mean = h * kappa * (1.0 - q ** steps) / (1.0 - q)
    return msd, mean


def h2_heat_moments(t, funcs, n_s: int = 400, n_u: int = 200) -> np.ndarray:
    """E f(rho_t) under McKean's kernel for each f in ``funcs`` and each t.

    Swapping the order of integration and substituting
    cosh rho = 1 + (cosh s - 1)(1 - u^2) turns the kernel into a smooth
    double integral over s in [0, s_max] and u in [0, 1], done by
    Gauss-Legendre rules.  Valid for f smooth in cosh rho (1, cosh, rho^2,
    rho^4, cosh^k).  Returns shape (len(funcs), len(t)); t = 0 gives f(0).
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty((len(funcs), ts.size))
    xs, ws = np.polynomial.legendre.leggauss(n_s)
    xu, wu = np.polynomial.legendre.leggauss(n_u)
    u = 0.5 * (xu + 1.0)
    wu = 0.5 * wu
    for j, tj in enumerate(ts):
        if tj == 0.0:
            out[:, j] = [float(f(np.zeros(1))[0]) for f in funcs]
            continue
        # Beyond s_max the weight s e^(s/2 - s^2/(4t)) is below e^-50.
        s_max = tj + np.sqrt(tj * tj + 200.0 * tj)
        s = 0.5 * s_max * (xs + 1.0)
        w = 0.5 * s_max * ws
        cm1 = 2.0 * np.sinh(s / 2.0) ** 2                  # cosh s - 1
        rho = np.arccosh(1.0 + cm1[:, None] * (1.0 - u[None, :] ** 2))
        norm = 2.0 * np.pi * np.sqrt(2.0) * np.exp(-tj / 4.0) * (4.0 * np.pi * tj) ** -1.5
        outer = w * s * np.exp(-s * s / (4.0 * tj)) * 2.0 * np.sqrt(cm1)
        for i, f in enumerate(funcs):
            out[i, j] = norm * float(outer @ (f(rho) @ wu))
    return out


def h2_rho2_mean_sd(t) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation of rho_t^2 under the heat kernel."""
    m = h2_heat_moments(t, [np.square, lambda r: r**4])
    return m[0], np.sqrt(np.maximum(m[1] - m[0] ** 2, 0.0))


def h2_cosh_sd(t) -> np.ndarray:
    """Standard deviation of cosh rho_t under the heat kernel (its mean is e^(2t))."""
    m = h2_heat_moments(t, [lambda r: np.cosh(r) ** 2])[0]
    return np.sqrt(np.maximum(m - np.exp(4.0 * np.asarray(t, dtype=float)), 0.0))
