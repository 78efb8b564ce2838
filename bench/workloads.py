"""The benchmark's workloads: inputs made from a seed, one timed call, checks.

A round is one call into frameflow on inputs made from (seed, round).
Every check compares the call's outputs with a computation made here,
apart from the program (see ``references``), never with stored output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import references as ref

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"

H0 = 0.1
# Tolerance, in standard errors, for sample means of light-tailed statistics.
Z_LIGHT = 5.0
# cosh(rho) has a heavy right tail (skewness 19, kurtosis 2366 at c T = 1,
# by quadrature): a 2000-sample mean exceeds +6 exact standard errors about
# once in 15,000 rounds, but never falls below -4 in 100,000.
Z_COSH_LOW, Z_COSH_HIGH = 5.0, 12.0
DEFECT_TOL = 1e-8
REL_EXACT = 1e-12


def require_checkout():
    """Import frameflow from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "frameflow" / "__init__.py").is_file():
        raise SystemExit(f"bench: no frameflow sources under {src}")
    sys.path.insert(0, str(src))
    import frameflow
    import frameflow.cli
    if Path(frameflow.__file__).resolve().parent != (src / "frameflow").resolve():
        raise SystemExit(f"bench: imported frameflow from {frameflow.__file__}, not {src}")
    return frameflow


def round_seed(seed: int, r: int) -> int:
    """Seed of round ``r`` of a run started with ``seed``."""
    digest = hashlib.blake2b(f"{seed}:{r}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def steps_for(epsilon: float, t_final: float) -> int:
    """Integrator steps to slow time T: T / (h0 eps^2)."""
    return max(1, int(round(t_final / (H0 * epsilon**2))))


def _close(a, b, rel=REL_EXACT) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b))))


def _mean_se(samples: np.ndarray):
    """Per-row sample mean and standard error of a (K, M) array."""
    m = samples.shape[1]
    return samples.mean(axis=1), samples.std(axis=1, ddof=1) / np.sqrt(m)


def _within(value, target, se, z) -> np.ndarray:
    return np.abs(np.asarray(value) - np.asarray(target)) <= z * np.asarray(se)


# ------------------------------------------------------------------ ensembles


@dataclass(frozen=True)
class EnsembleWorkload:
    """``run_ensemble`` with ``jobs=1``, set up the way ``homogenize`` sets it up."""

    name: str
    chart: str
    epsilon: float
    t_final: float
    paths: int

    @property
    def path_steps(self) -> int:
        return self.paths * steps_for(self.epsilon, self.t_final)

    def prepare(self, ff, seed: int):
        n = ff.chart_by_name(self.chart).dim
        sim = ff.SimConfig(chart=self.chart, epsilon=self.epsilon, t_final=self.t_final,
                           e0=np.eye(n)[0], h0=H0, seed=seed)
        return ff.EnsembleSpec(sim=sim, paths=self.paths, jobs=1)

    setup = prepare

    def call(self, ff, spec):
        return ff.homogenize.run_ensemble(spec)

    def check(self, ff, spec, stats) -> list[str]:
        if self.chart == "hyperbolic2":
            return check_h2_ensemble(stats, epsilon=self.epsilon, paths=self.paths)
        n = ff.chart_by_name(self.chart).dim
        return check_flat_ensemble(stats, n=n, epsilon=self.epsilon, paths=self.paths)


def check_flat_ensemble(stats, *, n: int, epsilon: float, paths: int,
                        v: float | None = None, c: float | None = None) -> list[str]:
    """Flat-chart ensemble against the exact discrete-scheme MSD and mean.

    ``v`` (half-step angle variance) and ``c`` (diffusivity of the
    limiting oracle) default to the model's values; the negative tests
    pass wrong ones.
    """
    fails = []
    c = 4.0 / (n * (n - 1)) if c is None else c
    x = np.asarray(stats.positions)
    if stats.aborts or stats.paths != paths or x.shape[1] != paths:
        fails.append(f"{len(stats.aborts)} aborts, {stats.paths} of {paths} paths survived")
        return fails
    if not np.all(np.isfinite(x)):
        fails.append("non-finite positions")
        return fails
    times = np.asarray(stats.times, dtype=float)
    steps = np.rint(times / (H0 * epsilon**2)).astype(np.int64)
    msd_ref, mean_ref = ref.flat_msd_and_mean(n, epsilon, H0, steps, v=v)
    d2 = np.sum(x**2, axis=-1)
    msd, msd_se = _mean_se(d2)
    if not (_close(stats.msd, msd) and _close(stats.msd_stderr, msd_se)):
        fails.append("msd/stderr columns differ from |x|^2 recomputed from positions")
    bad = ~_within(stats.msd, msd_ref, stats.msd_stderr, Z_LIGHT)
    if np.any(bad):
        k = int(np.argmax(bad))
        fails.append(f"msd {stats.msd[k]:.5g} +- {stats.msd_stderr[k]:.2g} at t={times[k]:g} "
                     f"vs exact {msd_ref[k]:.5g}")
    mean, mean_se = _mean_se(x[:, :, 0])
    bad = ~_within(mean, mean_ref, mean_se, Z_LIGHT)
    if np.any(bad):
        k = int(np.argmax(bad))
        fails.append(f"mean along e0 {mean[k]:.5g} +- {mean_se[k]:.2g} at t={times[k]:g} "
                     f"vs exact {mean_ref[k]:.5g}")
    if stats.oracle_msd is None or not _close(stats.oracle_msd, 2.0 * n * c * times):
        fails.append("oracle_msd differs from 2 n c t")
    return fails


def check_h2_ensemble(stats, *, epsilon: float, paths: int, c: float = 2.0) -> list[str]:
    """Half-plane ensemble against McKean's heat kernel at c t.

    ``c`` defaults to the model's 4 / (n (n-1)) = 2; the negative tests
    pass a wrong one.
    """
    fails = []
    x = np.asarray(stats.positions)
    u = np.asarray(stats.frames)
    if stats.aborts or stats.paths != paths or x.shape[1] != paths:
        fails.append(f"{len(stats.aborts)} aborts, {stats.paths} of {paths} paths survived")
        return fails
    if not (np.all(np.isfinite(x)) and np.all(x[..., 1] > 0.0)):
        fails.append("positions non-finite or off the half-plane")
        return fails
    # u^T G(x) u = I with G = I / x2^2.
    gram = np.einsum("...ji,...jk->...ik", u, u) / (x[..., 1] ** 2)[..., None, None]
    defect = float(np.max(np.abs(gram - np.eye(2))))
    if defect > DEFECT_TOL:
        fails.append(f"frame defect {defect:.3g}")
    times = np.asarray(stats.times, dtype=float)
    rho = np.arccosh(np.maximum(1.0 + (x[..., 0] ** 2 + (x[..., 1] - 1.0) ** 2)
                                / (2.0 * x[..., 1]), 1.0))
    msd, msd_se = _mean_se(rho**2)
    if not (_close(stats.msd, msd) and _close(stats.msd_stderr, msd_se)):
        fails.append("msd/stderr columns differ from arccosh distances recomputed from positions")

    r2_mean, r2_sd = ref.h2_rho2_mean_sd(c * times)
    rho_or = np.asarray(stats.oracle_scalar, dtype=float)        # (K, M_oracle)
    m_or = rho_or.shape[1]
    or_r2 = (rho_or**2).mean(axis=1)
    if stats.oracle_msd is None or not _close(stats.oracle_msd, or_r2):
        fails.append("oracle_msd differs from the mean square of the oracle distances")
    bad = ~_within(or_r2, r2_mean, r2_sd / np.sqrt(m_or), Z_LIGHT)
    if np.any(bad):
        k = int(np.argmax(bad))
        fails.append(f"oracle E rho^2 {or_r2[k]:.5g} at t={times[k]:g} vs heat kernel {r2_mean[k]:.5g}")
    t_end = times[-1]
    cosh_se = float(ref.h2_cosh_sd(c * t_end)[0]) / np.sqrt(m_or)
    z = (float(np.cosh(rho_or[-1]).mean()) - np.exp(2.0 * c * t_end)) / cosh_se
    if not -Z_COSH_LOW <= z <= Z_COSH_HIGH:
        fails.append(f"oracle E cosh rho at T is {z:+.2f} standard errors from e^(2cT)")

    # The finite-eps process sits below the limit law by a gap that shrinks
    # like eps^2; allow 1.5x the recorded gap below and none above.
    gap = 1.5 * ref.H2_GAP_AT_EPS_005 * (epsilon / 0.05) ** 2
    lo = r2_mean[-1] * (1.0 - gap) - Z_LIGHT * stats.msd_stderr[-1]
    hi = r2_mean[-1] + Z_LIGHT * stats.msd_stderr[-1]
    if not lo <= stats.msd[-1] <= hi:
        fails.append(f"simulated E rho_T^2 {stats.msd[-1]:.5g} outside [{lo:.5g}, {hi:.5g}]")
    return fails


# -------------------------------------------------------------- CLI simulate


@dataclass(frozen=True)
class SimulateWorkload:
    """``frameflow simulate`` on hyperbolic2 with an output row at every step."""

    name: str
    epsilon: float
    t_final: float
    paths: int
    chart = "hyperbolic2"

    @property
    def steps(self) -> int:
        return steps_for(self.epsilon, self.t_final)

    @property
    def path_steps(self) -> int:
        return self.paths * self.steps

    @property
    def out_dir(self) -> Path:
        return RESULTS / f"{self.name}-out"

    def argv(self, seed: int) -> list[str]:
        return ["simulate", "--manifold", self.chart, "--epsilon", repr(self.epsilon),
                "--t-final", repr(self.t_final), "--paths", str(self.paths),
                "--seed", str(seed), "--frames", "--group",
                "--output-times", str(self.steps + 1), "--output-dir", str(self.out_dir)]

    def setup(self, ff, seed: int):
        """What ``frameflow.cli.main`` does before its first step."""
        args = ff.cli.build_parser().parse_args(self.argv(seed))
        flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        return ff.cli.parse_config(file=args.config, flags=flags).sim_config()

    def prepare(self, ff, seed: int):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return self.argv(seed)

    def call(self, ff, argv):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = ff.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"frameflow {' '.join(argv)} exited {code}")
        return text.getvalue()

    def check(self, ff, argv, printed) -> list[str]:
        seed = int(argv[argv.index("--seed") + 1])
        return check_h2_paths(ff, self, seed, printed)


def read_path_csv(path: Path):
    lines = path.read_text().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows)


def check_h2_paths(ff, wl: SimulateWorkload, seed: int, printed: str) -> list[str]:
    """Per-path CSVs: grid, invariants, and bitwise equality with one batched call."""
    fails = []
    if f"wrote {wl.paths} path file(s)" not in printed:
        fails.append(f"unexpected CLI output {printed!r}")
    expected = [f"path_{p:04d}.csv" for p in range(wl.paths)]
    found = sorted(f.name for f in wl.out_dir.glob("path_*.csv"))
    if found != expected:
        return fails + [f"path files {found} != {expected}"]
    e0 = np.array([1.0, 0.0])
    sim = ff.SimConfig(chart=wl.chart, epsilon=wl.epsilon, t_final=wl.t_final, e0=e0, h0=H0,
                       seed=seed, output_times=tuple(np.linspace(0.0, wl.t_final, wl.steps + 1)))
    batch = ff.simulate_paths(sim, range(wl.paths), record_frames=True, record_group=True)
    header = ["t", "x1", "x2", "u11", "u12", "u21", "u22", "g11", "g12", "g21", "g22"]
    grid = np.arange(wl.steps + 1) * (H0 * wl.epsilon**2)
    for p, name in enumerate(expected):
        head, rows = read_path_csv(wl.out_dir / name)
        if head != header or rows.shape != (wl.steps + 1, len(header)):
            fails.append(f"{name}: header {head} / shape {rows.shape}")
            continue
        t, x = rows[:, 0], rows[:, 1:3]
        u = rows[:, 3:7].reshape(-1, 2, 2)
        g = rows[:, 7:11].reshape(-1, 2, 2)
        if not _close(t, grid):
            fails.append(f"{name}: time column is not the step grid k h0 eps^2")
        if not (np.all(np.isfinite(rows)) and np.all(x[:, 1] > 0.0)):
            fails.append(f"{name}: non-finite values or x2 <= 0")
            continue
        inv_y2 = 1.0 / x[:, 1] ** 2
        frame = np.einsum("kji,kjl->kil", u, u) * inv_y2[:, None, None] - np.eye(2)
        group = np.einsum("kji,kjl->kil", g, g) - np.eye(2)
        det = np.abs(np.linalg.det(g) - 1.0)
        vel = np.einsum("kij,kjl,l->ki", u, g, e0)
        speed = np.abs(np.sqrt(np.sum(vel**2, axis=-1) * inv_y2) - 1.0)
        worst = {"frame": np.max(np.abs(frame)), "group": max(np.max(np.abs(group)), np.max(det)),
                 "speed": np.max(speed)}
        for what, val in worst.items():
            if val > DEFECT_TOL:
                fails.append(f"{name}: {what} defect {val:.3g}")
        if not (np.array_equal(x, batch.xs[:, p]) and np.array_equal(u, batch.us[:, p])
                and np.array_equal(g, batch.gs[:, p])):
            fails.append(f"{name}: differs from path {p} of one batched simulate_paths call")
    return fails


WORKLOADS = {
    wl.name: wl
    for wl in (
        EnsembleWorkload("flat2-ensemble", "euclidean:2", 0.05, 1.0, 2000),
        EnsembleWorkload("flat3-ensemble", "euclidean:3", 0.05, 0.5, 2000),
        EnsembleWorkload("hyp2-ensemble", "hyperbolic2", 0.05, 0.5, 2000),
        SimulateWorkload("hyp2-simulate", 0.05, 1.0, 6),
    )
}
