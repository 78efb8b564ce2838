"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines inline.  Ensembles are shared between criteria through module-scoped
fixtures; all seeds are fixed, so every number here is reproducible.
"""

import time

import numpy as np
import pytest

from frameflow import (
    EnsembleSpec,
    SimConfig,
    canonical_basis,
    casimir_sum,
    gram_defect,
    haar_sample,
    hyperbolic_distance,
    ks_two_sample,
    msd_rate,
    philox_stream,
    run_ensemble,
    simulate_paths,
)
from frameflow.group_process import apply_generator_linear, haar_moment_stats, poisson_h
from frameflow.homogenize import linear_fit
from frameflow.manifold import chart_by_name

BASE_SEED = 42


def report(name, passed, detail, elapsed):
    line = f"criterion {name}: {'PASS' if passed else 'FAIL'} ({elapsed:.1f}s) {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def flat_ensemble_n2():
    sim = SimConfig(chart="euclidean:2", epsilon=0.01, t_final=1.0, seed=BASE_SEED)
    return run_ensemble(EnsembleSpec(sim=sim, paths=2000), record_frames=True)


@pytest.fixture(scope="module")
def flat_ensemble_n3():
    sim = SimConfig(chart="euclidean:3", epsilon=0.01, t_final=1.0, seed=BASE_SEED)
    return run_ensemble(EnsembleSpec(sim=sim, paths=2000), record_frames=False)


@pytest.fixture(scope="module")
def hyperbolic_ensemble():
    sim = SimConfig(chart="hyperbolic2", epsilon=0.01, t_final=0.5, seed=BASE_SEED)
    return run_ensemble(EnsembleSpec(sim=sim, paths=2000), record_frames=False)


def test_criterion_1_algebraic_identities():
    t0 = time.perf_counter()
    worst_casimir = worst_gram = 0.0
    for n in range(2, 9):
        basis = canonical_basis(n)
        worst_gram = max(worst_gram, gram_defect(basis))
        target = -((n - 1) / 2.0) * np.eye(n)
        worst_casimir = max(worst_casimir, float(np.max(np.abs(casimir_sum(basis) - target))))
    elapsed = time.perf_counter() - t0
    report("1 algebraic-identities",
           worst_casimir < 1e-12 and worst_gram < 1e-12 and elapsed < 1.0,
           f"casimir defect {worst_casimir:.2e}, gram defect {worst_gram:.2e}", elapsed)


def test_criterion_2_poisson_eigenfunction():
    t0 = time.perf_counter()
    rng = philox_stream(BASE_SEED, 2)
    worst_eigen = worst_poisson = 0.0
    for n in (2, 3, 4):
        basis = canonical_basis(n)
        e0 = np.zeros(n)
        e0[0] = 1.0
        for g in haar_sample(n, rng, size=334):
            i = int(rng.integers(n))
            alpha = float((g @ e0)[i])
            gen = apply_generator_linear(g, e0, i, basis)
            worst_eigen = max(worst_eigen, abs(gen + ((n - 1) / 4.0) * alpha))
            # L_G h_i = alpha_i: h_i is -(4/(n-1)) alpha_i
            worst_poisson = max(worst_poisson, abs(-(4.0 / (n - 1)) * gen - alpha))
    elapsed = time.perf_counter() - t0
    report("2 poisson-eigenfunction",
           worst_eigen < 1e-12 and worst_poisson < 1e-12 and elapsed < 1.0,
           f"eigen defect {worst_eigen:.2e}, poisson defect {worst_poisson:.2e}", elapsed)


def test_criterion_3_haar_moments():
    t0 = time.perf_counter()
    rng = philox_stream(BASE_SEED, 3)
    ok = True
    details = []
    for n in (2, 3, 4):
        e0 = np.zeros(n)
        e0[0] = 1.0
        est, se = haar_moment_stats(n, e0, 100_000, rng)
        scale = 4.0 / (n - 1)
        moment = est / scale      # E <g e0, e_i><g e0, e_j>
        moment_se = se / scale
        target_moment = np.eye(n) / n
        dev_moment = float(np.max(np.abs(moment - target_moment) / np.maximum(moment_se, 1e-300)))
        target_a = (4.0 / (n * (n - 1))) * np.eye(n)
        dev_diag = float(np.max(np.abs(np.diag(est) - np.diag(target_a)) / np.diag(se)))
        ok = ok and dev_moment < 4.0 and dev_diag < 4.0
        details.append(f"n={n}: {dev_moment:.2f}/{dev_diag:.2f} se")
    elapsed = time.perf_counter() - t0
    report("3 haar-moments", ok and elapsed < 10.0, "; ".join(details), elapsed)


def test_criterion_4_ergodic_rate_bound():
    t0 = time.perf_counter()
    times = [100.0, 400.0, 1600.0]
    ok = True
    details = []
    for n in (2, 3):
        # The group diffusion at epsilon = 1 is the engine's chain on
        # euclidean:n, and x_t = h sum w_mid from the origin with u0 = I,
        # so x_t / t is the midpoint-rule average of f(g) = <g e1, e1>.
        sim = SimConfig(chart=f"euclidean:{n}", epsilon=1.0, t_final=times[-1], seed=BASE_SEED,
                        output_times=tuple(times))
        out = simulate_paths(sim, range(200), record_frames=False)
        avgs = out.xs[:, :, 0] / out.times[:, None]
        n_basis = n * (n - 1) // 2
        for row, t in zip(avgs, times):
            bound = np.sqrt(n_basis) * 2.0 / np.sqrt(t)
            val = float(np.mean(row**2))
            ok = ok and val <= bound
            details.append(f"n={n},t={t:g}: {val:.4f}<={bound:.4f}")
    elapsed = time.perf_counter() - t0
    report("4 ergodic-rate-bound", ok and elapsed < 120.0, "; ".join(details), elapsed)


def _flat_criterion(stats, n):
    positive = stats.times > 0
    slope, _, r2 = linear_fit(stats.times[positive], stats.msd[positive])
    target = msd_rate(n)
    rel_err = abs(slope - target) / target
    # The ensemble's own last KS row: x1 against N(m1, 2ct), centred on the
    # finite-eps mean, the row homogenize gates.
    return slope, rel_err, r2, float(stats.ks_p[-1])


def test_criterion_5_flat_homogenization(flat_ensemble_n2, flat_ensemble_n3):
    t0 = time.perf_counter()
    slope2, rel2, r2_2, p2 = _flat_criterion(flat_ensemble_n2, 2)
    slope3, rel3, r2_3, p3 = _flat_criterion(flat_ensemble_n3, 3)
    ok = rel2 < 0.10 and rel3 < 0.10 and p2 > 0.01 and p3 > 0.01 \
        and r2_2 > 0.99 and r2_3 > 0.99
    elapsed = time.perf_counter() - t0
    report("5 flat-homogenization-constant", ok,
           f"n=2 slope {slope2:.3f} (target 8, err {rel2:.1%}, R2 {r2_2:.4f}, ks p {p2:.3f}); "
           f"n=3 slope {slope3:.3f} (target 4, err {rel3:.1%}, R2 {r2_3:.4f}, ks p {p3:.3f})",
           elapsed)


def test_criterion_6_hyperbolic_homogenization(hyperbolic_ensemble):
    t0 = time.perf_counter()
    stats = hyperbolic_ensemble
    ks_stat = float(stats.ks_stat[-1])
    ks_p = float(stats.ks_p[-1])
    elapsed = time.perf_counter() - t0
    report("6 hyperbolic-homogenization", ks_p > 0.01,
           f"KS vs c=2 oracle at T=0.5: stat {ks_stat:.4f}, p {ks_p:.3f}", elapsed)


def test_criterion_7_invariance_suite(flat_ensemble_n2):
    t0 = time.perf_counter()
    base = flat_ensemble_n2.positions[-1, :, 0]

    sim_e2 = SimConfig(chart="euclidean:2", epsilon=0.01, t_final=1.0,
                       seed=BASE_SEED + 1, e0=np.array([0.0, 1.0]))
    alt_e0 = run_ensemble(EnsembleSpec(sim=sim_e2, paths=1000), record_frames=False)
    _, p_e0 = ks_two_sample(base, alt_e0.positions[-1, :, 0])

    abar = np.sqrt(2.0) * canonical_basis(2)[0]  # unit norm under tr(A B^T)
    sim_drift = SimConfig(chart="euclidean:2", epsilon=0.01, t_final=1.0,
                          seed=BASE_SEED + 2, abar=abar)
    alt_drift = run_ensemble(EnsembleSpec(sim=sim_drift, paths=1000), record_frames=False)
    _, p_drift = ks_two_sample(base, alt_drift.positions[-1, :, 0])

    elapsed = time.perf_counter() - t0
    report("7 invariance-suite", p_e0 > 0.01 and p_drift > 0.01,
           f"e0-independence p {p_e0:.3f}; drift-independence p {p_drift:.3f}", elapsed)


def _structural_defects(cfg, paths, e0):
    """Largest frame, group and speed defects of ``paths`` over every step
    of ``cfg`` (its output times), the path-steps seen and the aborts.

    Output row k is step k; a path's rows count while it is alive, that
    is, before the step it aborted at.
    """
    chart = chart_by_name(cfg.chart)
    slow_dt = cfg.h0 * cfg.epsilon**2
    out = simulate_paths(cfg, paths, record_group=True)
    alive = np.ones(out.xs.shape[:2], dtype=bool)
    for p, t, _ in out.aborts:
        alive[int(round(t / slow_dt)):, paths.index(p)] = False
    alive[0] = False                                 # the start, not a step
    x, u, g = out.xs[alive], out.us[alive], out.gs[alive]
    gm = chart.metric(x)
    gram_u = np.einsum("pji,pjk,pkl->pil", u, gm, u)
    gram_g = np.einsum("pji,pjk->pik", g, g)
    v = np.einsum("pij,pjk,k->pi", u, g, e0)
    speed = np.sqrt(np.einsum("pi,pij,pj->p", v, gm, v))
    defects = [float(np.max(np.abs(d))) for d in (gram_u - np.eye(2), gram_g - np.eye(2),
                                                  speed - 1.0)]
    return defects, (out.xs.shape[0] - 1) * len(paths), out.aborts


def test_criterion_8_structural_invariants(hyperbolic_ensemble):
    t0 = time.perf_counter()
    e0 = np.array([1.0, 0.0])
    maxima = {"frame": 0.0, "group": 0.0, "speed": 0.0}
    steps_seen = 0
    aborts = []

    # 10 paths of 100,000 steps with an output at every step, run as two
    # calls of 5 paths (40 MB of states each).
    slow_dt = 0.1 * 0.01**2
    cfg = SimConfig(chart="hyperbolic2", epsilon=0.01, t_final=1.0, seed=BASE_SEED + 3,
                    output_times=tuple(np.arange(100_001) * slow_dt))
    for paths in (range(5), range(5, 10)):
        defects, seen, path_aborts = _structural_defects(cfg, paths, e0)
        for key, value in zip(maxima, defects):
            maxima[key] = max(maxima[key], value)
        steps_seen += seen
        aborts += path_aborts
    defects_ok = max(maxima.values()) < 1e-8 and steps_seen >= 1_000_000

    # determinism: identical config and seed reproduce records bit for bit
    cfg_det = SimConfig(chart="hyperbolic2", epsilon=0.05, t_final=0.5, seed=BASE_SEED + 4)
    rec_a = simulate_paths(cfg_det, range(4), record_group=True)
    rec_b = simulate_paths(cfg_det, range(4), record_group=True)
    deterministic = (np.array_equal(rec_a.xs, rec_b.xs)
                     and np.array_equal(rec_a.us, rec_b.us)
                     and np.array_equal(rec_a.gs, rec_b.gs))

    no_exits = len(hyperbolic_ensemble.aborts) == 0 and len(aborts) == 0

    elapsed = time.perf_counter() - t0
    report("8 structural-invariants",
           defects_ok and deterministic and no_exits,
           f"defects frame {maxima['frame']:.2e} group {maxima['group']:.2e} "
           f"speed {maxima['speed']:.2e} over {steps_seen} steps; "
           f"deterministic={deterministic}; domain exits={len(hyperbolic_ensemble.aborts)}",
           elapsed)
