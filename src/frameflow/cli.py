"""Command-line front end: config parsing, commands, deterministic output.

Configuration values come, in increasing priority, from built-in defaults,
the FRAMEFLOW_SEED environment variable (seed only), a flat key=value
config file, and command-line flags.  Each input key is declared once,
as a :class:`RunConfig` field: its default, its parser, its flag's help and
whether a config file may set it.  The flags, ``CONFIG_KEYS`` and
:func:`parse_config` are derived from those fields, so a flag, a file value
and the environment seed go through the same parser and a bad value gives
the same one-line :class:`ConfigError`.  The library's config objects and
check functions validate the values before any work starts.

Exit codes: 0 success, 1 criterion failure, 2 configuration error,
3 numerical abort.  Under ``-v`` each phase of a run logs one line with
its seconds to stderr.  ``simulate``, ``homogenize``, ``sweep`` and
``ergodic`` split their paths into engine calls by
``perturbed_geodesic.path_batches``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainExitError, NumericalAbort, require_finite
from .group_process import check_direction, check_h0, haar_moment_stats
from .homogenize import (
    EnsembleSpec,
    check_epsilon_list,
    epsilon_sweep,
    linear_fit,
    log_engine_calls,
    msd_rate,
    reference_law,
    run_ensemble,
)
from . import perturbed_geodesic
from .lie_algebra import canonical_basis, casimir_sum, check_dim, gram_defect, haar_sample
from .manifold import chart_by_name
from .perturbed_geodesic import ORACLE_STREAM_BASE, SimConfig, philox_stream
# Unused here; bench/tracing.py wraps it under this module's name.
from .perturbed_geodesic import simulate_rescaled_path  # noqa: F401

_log = logging.getLogger(__name__)

MSD_TOLERANCE = 0.10
KS_P_FLOOR = 0.01
# summary.json name of the KS criterion, by reference law; both read the last KS row.
KS_CRITERION = {"euclidean": "marginal_normal_ks", "hyperbolic": "distance_oracle_ks"}
R2_THRESHOLD = 0.99


def _parse_int(key: str, value, minimum: int | None = None) -> int:
    try:
        out = int(str(value).strip())
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None
    if minimum is not None and out < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {out}")
    return out


def _parse_float(key: str, value, positive: bool = False) -> float:
    try:
        out = float(str(value).strip())
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    require_finite(key, out)
    if positive and not out > 0:
        raise ConfigError(f"{key} must be positive")
    return out


_positive = functools.partial(_parse_float, positive=True)


def _parse_epsilon_list(key: str, value) -> tuple[float, ...]:
    if isinstance(value, (tuple, list)):
        parts = [str(v) for v in value]
    else:
        parts = str(value).split(",")
    return check_epsilon_list(_parse_float(key, v) for v in parts)


def _text(key: str, value) -> str:
    return str(value)


def _key(default, parse, help=None, in_file=True, flag=True):
    """A :class:`RunConfig` field that is an input key: its default, the
    ``parse(key, value)`` that every value of it goes through (flag, config
    file or ``FRAMEFLOW_SEED``), the help of its ``--key-with-dashes`` flag,
    whether a config file may set it, and whether :func:`build_parser`
    adds that flag (not for the switches it declares by hand)."""
    return dataclasses.field(default=default, metadata={
        "parse": parse, "help": help, "in_file": in_file, "flag": flag})


@dataclass
class RunConfig:
    """Every tunable the subcommands share, each field the one declaration
    of its input key."""

    manifold: str = _key("euclidean:2", _text, "euclidean:<n> or hyperbolic2")
    dim: int | None = _key(None, lambda key, v: check_dim(_parse_int(key, v)),
                           "group dimension for algebra-level commands")
    epsilon: float = _key(0.05, _positive, "time-scale ratio (positive)")
    epsilon_list: tuple[float, ...] | None = _key(None, _parse_epsilon_list,
                                                  "comma list, strictly decreasing")
    e0: str = _key("e1", _text, "direction vector: e<k> or comma components")
    abar: str = _key("0", _text, "drift: 0, canonical:<k>, or basis coefficients")
    t_final: float | None = _key(None, _positive, "slow-clock horizon")
    h0: float = _key(0.1, lambda key, v: check_h0(_positive(key, v)),
                     "fast-clock step factor in (0, 0.1]")
    seed: int = _key(0, _parse_int, "64-bit integer that keys the run's Philox streams")
    paths: int | None = _key(None, functools.partial(_parse_int, minimum=1),
                             "ensemble size (statistical commands need >= 100)")
    output_times: str | None = _key(None, _text,
                                    "integer count, or comma list of times in [0, t_final]")
    output_dir: str = _key("out", _text, "where CSV/JSON results go")
    jobs: int | None = _key(None, functools.partial(_parse_int, minimum=1),
                            "parallel workers for homogenize and sweep (results identical)",
                            in_file=False)
    samples: int = _key(100_000, functools.partial(_parse_int, minimum=1000),
                        "sample count for haar", in_file=False)
    reps: int = _key(16, functools.partial(_parse_int, minimum=2),
                     "repetition count for ergodic", in_file=False)
    with_frames: bool = _key(False, lambda key, v: bool(v), in_file=False, flag=False)
    with_group: bool = _key(False, lambda key, v: bool(v), in_file=False, flag=False)
    verbose: int = _key(0, _parse_int, in_file=False, flag=False)

    def resolve_dim(self) -> int:
        return self.dim if self.dim is not None else chart_by_name(self.manifold).dim

    def output_times_tuple(self, t_final: float) -> tuple[float, ...] | None:
        if self.output_times is None:
            return None
        text = self.output_times.strip()
        if text.lstrip("+-").isdigit():         # an integer literal is a count
            count = _parse_int("output_times", text, minimum=2)
            return tuple(np.linspace(0.0, t_final, count))
        return tuple(_parse_float("output_times", v) for v in text.split(","))

    def sim_config(self) -> SimConfig:
        n = chart_by_name(self.manifold).dim
        t_final = 1.0 if self.t_final is None else self.t_final
        return SimConfig(
            chart=self.manifold,
            epsilon=self.epsilon,
            t_final=t_final,
            e0=_parse_e0(self.e0, n),
            abar=_parse_abar(self.abar, n),
            h0=self.h0,
            seed=self.seed,
            output_times=self.output_times_tuple(t_final),
        )

    def ensemble_spec(self, default_paths: int = 2000) -> EnsembleSpec:
        return EnsembleSpec(
            sim=self.sim_config(),
            paths=self.paths if self.paths is not None else default_paths,
            jobs=self.jobs if self.jobs is not None else (os.cpu_count() or 1),
        )


# Each input key, with its parser and flag help; config files accept those with in_file.
KEYS = {f.name: f.metadata for f in dataclasses.fields(RunConfig) if f.metadata}
CONFIG_KEYS = tuple(key for key, meta in KEYS.items() if meta["in_file"])


def _parse_e0(spec: str, n: int) -> np.ndarray:
    spec = spec.strip()
    if spec.startswith("e") and spec[1:].isdigit():
        idx = int(spec[1:])
        if not 1 <= idx <= n:
            raise ConfigError(f"e0: index out of range for dimension {n}: {spec}")
        out = np.zeros(n)
        out[idx - 1] = 1.0
        return out
    try:
        vec = np.array([float(v) for v in spec.split(",")], dtype=float)
    except ValueError:
        raise ConfigError(f"e0: expected e<k> or a comma list, got {spec!r}") from None
    if vec.shape != (n,):
        raise ConfigError(f"e0: expected {n} components, got {vec.size}")
    return check_direction(vec)


def _parse_abar(spec: str, n: int) -> np.ndarray | None:
    """Skew drift given as 0/none, canonical:<k>, or basis coefficients."""
    spec = spec.strip().lower()
    if spec in ("0", "none", ""):
        return None
    basis = canonical_basis(n)
    if spec.startswith("canonical:"):
        k = _parse_int("abar", spec.split(":", 1)[1], minimum=1)
        if k > len(basis):
            raise ConfigError(f"abar: canonical index {k} out of range (N = {len(basis)})")
        return basis[k - 1].copy()
    try:
        coef = np.array([float(v) for v in spec.split(",")], dtype=float)
    except ValueError:
        raise ConfigError(f"abar: expected 0, canonical:<k>, or coefficients, got {spec!r}") from None
    if coef.size != len(basis):
        raise ConfigError(f"abar: expected {len(basis)} coefficients, got {coef.size}")
    return np.einsum("k,kij->ij", coef, basis)


def read_config_file(path: str | Path) -> dict:
    """Flat key=value file; '#' starts a comment; unknown keys are errors."""
    out: dict = {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


def parse_config(file: str | None = None, flags: dict | None = None,
                 env: dict | None = None) -> RunConfig:
    """Merge defaults, environment seed, config file, and flag overrides."""
    env = os.environ if env is None else env
    merged: dict = {}
    if "FRAMEFLOW_SEED" in env:
        merged["seed"] = env["FRAMEFLOW_SEED"]
    if file:
        merged.update(read_config_file(file))
    for key, value in (flags or {}).items():
        if value is not None:
            merged[key] = value

    cfg = RunConfig()
    for key, value in merged.items():
        if key not in KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        setattr(cfg, key, KEYS[key]["parse"](key, value))
    # Chart name sanity (raises with the offending name).
    chart_by_name(cfg.manifold)
    return cfg


def _cell(value) -> str:
    """Integers as integers, other numbers as their shortest round-trip decimal."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return repr(float(value)) if isinstance(value, (bool, float, np.floating)) else str(value)


# Rows of a path file formatted and written at a time.
_CSV_BLOCK = 512


def _write_csv(path: Path, header: list[str], rows) -> None:
    """``rows``: a 2-D float array (the path files), written ``_CSV_BLOCK``
    rows at a time, or rows of :func:`_cell` values."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            for lo in range(0, len(rows), _CSV_BLOCK):
                # repr of a Python float is what _cell writes, without the per-value checks.
                f.write("".join(",".join(map(repr, row)) + "\n"
                                for row in rows[lo:lo + _CSV_BLOCK].tolist()))
        else:
            f.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def _moment_table(cfg: RunConfig, name: str, est: np.ndarray, se: np.ndarray,
                  target: np.ndarray) -> tuple[Path, float]:
    """Write the (i, j, estimate, stderr) rows of an n x n moment estimate
    to ``<name>.csv``; its path and the worst deviation from ``target`` in
    standard errors."""
    n = len(est)
    out = Path(cfg.output_dir) / f"{name}.csv"
    _write_csv(out, ["i", "j", "estimate", "stderr"],
               [(i, j, est[i, j], se[i, j]) for i in range(n) for j in range(n)])
    return out, float(np.max(np.abs(est - target) / np.maximum(se, 1e-300)))


def _write_summary(out_dir: Path, command: str, spec: EnsembleSpec, criteria: dict,
                   **fields) -> bool:
    """Write ``summary.json``: the command, chart, paths and seed of the run,
    ``fields``, the criteria and whether every criterion passes, which it
    returns."""
    overall = all(c["pass"] for c in criteria.values())
    summary = {"command": command, "chart": spec.sim.chart, "paths": spec.paths,
               "seed": spec.sim.seed, **fields, "criteria": criteria, "pass": overall}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return overall


# ----------------------------------------------------------------- commands


def cmd_verify_algebra(cfg: RunConfig) -> int:
    n = cfg.resolve_dim()
    basis = canonical_basis(n)
    basis_defect = gram_defect(basis)
    target = -((n - 1) / 2.0) * np.eye(n)
    casimir_defect = float(np.max(np.abs(casimir_sum(basis) - target)))
    print(f"basis gram defect: {basis_defect:.3e}")
    print(f"casimir defect:    {casimir_defect:.3e}")
    ok = basis_defect < 1e-12 and casimir_defect < 1e-12
    print("verify-algebra:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_haar(cfg: RunConfig) -> int:
    n = cfg.resolve_dim()
    e0 = _parse_e0(cfg.e0, n)
    rng = philox_stream(cfg.seed, 0)
    est, se = haar_moment_stats(n, e0, cfg.samples, rng)
    out, worst = _moment_table(cfg, "haar", est, se, (4.0 / ((n - 1) * n)) * np.eye(n))
    print(f"wrote {out}; worst deviation {worst:.2f} stderr from 4/((n-1)n) I")
    return 0 if worst <= 4.0 else 1


def cmd_ergodic(cfg: RunConfig) -> int:
    """Time averages of w_i w_j, w = g e0, over ``reps`` group paths, each
    the chain of path p of a run on ``euclidean:n`` at epsilon = 1, whose
    step is h0 and whose half-step drift is h0 Abar / 2.

    The averages use midpoint directions (see
    :func:`perturbed_geodesic.direction_moments`).  Rep p starts at a Haar
    rotation g0 drawn from stream ORACLE_STREAM_BASE + p: the SDE is
    left-invariant, so its path from g0 is g0 times its path from I and its
    moment matrix is g0 M g0^T.  The reps run in ``path_batches`` calls, and
    ``ergodic.csv`` does not depend on how they are split.
    """
    n = cfg.resolve_dim()
    sim = SimConfig(chart=f"euclidean:{n}", epsilon=1.0,
                    t_final=400.0 if cfg.t_final is None else cfg.t_final,
                    e0=_parse_e0(cfg.e0, n), abar=_parse_abar(cfg.abar, n), h0=cfg.h0,
                    seed=cfg.seed)
    moments = np.empty((cfg.reps, n, n))
    for batch in perturbed_geodesic.path_batches(sim, cfg.reps, False, False):
        g0 = np.array([haar_sample(n, philox_stream(cfg.seed, ORACLE_STREAM_BASE + p))
                       for p in batch])
        m = g0 @ perturbed_geodesic.direction_moments(sim, batch) @ g0.transpose(0, 2, 1)
        # Symmetric to the last bit, as w_i w_j = w_j w_i.
        moments[batch.start:batch.stop] = 0.5 * (m + m.transpose(0, 2, 1))
    est = moments.mean(axis=0)
    se = moments.std(axis=0, ddof=1) / np.sqrt(cfg.reps)
    out, worst = _moment_table(cfg, "ergodic", est, se, np.eye(n) / n)
    # The horizon on the step grid, a whole number of steps of h0.
    t_grid = perturbed_geodesic.output_steps(sim)[0] * sim.h0
    print(f"wrote {out}; worst deviation {worst:.3g} stderr from delta_ij/n at t={t_grid:g}")
    return 0 if worst <= 4.0 else 1


def cmd_simulate(cfg: RunConfig) -> int:
    t_start = time.perf_counter()
    sim = cfg.sim_config()
    n_paths = cfg.paths if cfg.paths is not None else 1
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n = chart_by_name(sim.chart).dim
    header = ["t"] + [f"x{i+1}" for i in range(n)]
    if cfg.with_frames:
        header += [f"u{i+1}{j+1}" for i in range(n) for j in range(n)]
    if cfg.with_group:
        header += [f"g{i+1}{j+1}" for i in range(n) for j in range(n)]
    # The numbers do not depend on how paths are batched.
    batches = perturbed_geodesic.path_batches(sim, n_paths, cfg.with_frames, cfg.with_group)
    _log.info("set-up: %.3f s", time.perf_counter() - t_start)
    simulate_s = write_s = 0.0
    stage_s = []
    for batch in batches:
        t0 = time.perf_counter()
        out = perturbed_geodesic.simulate_paths(
            sim, batch, record_frames=cfg.with_frames, record_group=cfg.with_group)
        t1 = time.perf_counter()
        simulate_s += t1 - t0
        stage_s.append(out.stage_s)
        fields = [out.xs] + [f.reshape(f.shape[:2] + (-1,)) for f in (out.us, out.gs)
                             if f is not None]
        table = np.empty((len(out.times), len(header)))
        table[:, 0] = out.times
        for i, p in enumerate(batch):
            if not out.alive[i]:
                # As one path per call would: the files before it, then its abort.
                _, t, xbad = next(rec for rec in out.aborts if rec[0] == p)
                raise DomainExitError(t, xbad, p)
            np.concatenate([f[:, i] for f in fields], axis=1, out=table[:, 1:])
            _write_csv(out_dir / f"path_{p:04d}.csv", header, table)
        write_s += time.perf_counter() - t1
    log_engine_calls(stage_s, n_paths, out.steps, simulate_s)
    _log.info("write: %d path file(s), %.3f s", n_paths, write_s)
    print(f"wrote {n_paths} path file(s) to {out_dir}")
    return 0


def cmd_homogenize(cfg: RunConfig) -> int:
    spec = cfg.ensemble_spec()
    chart = chart_by_name(spec.sim.chart)
    n = chart.dim
    law = reference_law(chart)
    if law == "euclidean":
        # The msd_slope fit runs through the positive output times, as reached on the step grid.
        out_idx = perturbed_geodesic.output_steps(spec.sim)[1]
        if len(np.unique(out_idx[out_idx > 0])) < 2:
            raise ConfigError("the msd_slope fit needs at least two distinct positive output "
                              "times on the step grid")
    stats = run_ensemble(spec, record_frames=False)
    t_reduced = time.perf_counter()
    out_dir = Path(cfg.output_dir)

    _write_csv(out_dir / "msd.csv", ["t", "msd", "stderr", "oracle_msd"],
               zip(stats.times, stats.msd, stats.msd_stderr, stats.oracle_msd))
    _write_csv(out_dir / "ks.csv", ["t", "statistic", "p"],
               zip(stats.times, stats.ks_stat, stats.ks_p))

    criteria: dict = {}
    if law == "euclidean":
        positive = stats.times > 0
        slope, _, r2 = linear_fit(stats.times[positive], stats.msd[positive])
        target = msd_rate(n)
        rel_err = abs(slope - target) / target
        criteria["msd_slope"] = {
            "value": slope, "target": target, "rel_err": rel_err,
            "tolerance": MSD_TOLERANCE, "pass": bool(rel_err < MSD_TOLERANCE),
        }
        criteria["msd_linearity"] = {
            "r2": r2, "threshold": R2_THRESHOLD, "pass": bool(r2 > R2_THRESHOLD),
        }
    ks_p = float(stats.ks_p[-1])
    criteria[KS_CRITERION[law]] = {
        "statistic": float(stats.ks_stat[-1]), "p_value": ks_p, "floor": KS_P_FLOOR,
        "pass": bool(ks_p > KS_P_FLOOR),
    }
    criteria["aborts"] = {
        "count": len(stats.aborts), "paths": spec.paths,
        "pass": bool(len(stats.aborts) == 0),
    }
    overall = _write_summary(out_dir, "homogenize", spec, criteria, epsilon=spec.sim.epsilon)
    _log.info("write: criteria and output files, %.3f s", time.perf_counter() - t_reduced)
    for name, crit in criteria.items():
        print(f"{name}: {'PASS' if crit['pass'] else 'FAIL'}")
    print(f"wrote msd.csv, ks.csv, summary.json to {out_dir}")
    return 0 if overall else 1


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.epsilon_list is None:
        raise ConfigError("sweep requires epsilon_list")
    spec = cfg.ensemble_spec()
    rows = epsilon_sweep(spec, cfg.epsilon_list)
    t_swept = time.perf_counter()
    out_dir = Path(cfg.output_dir)
    _write_csv(out_dir / "sweep.csv", ["epsilon", "msd_rel_err", "ks_stat", "ks_p"],
               ((r.epsilon, r.msd_rel_err, r.ks_stat, r.ks_p) for r in rows))
    final = rows[-1]
    criteria = {
        "final_msd_rel_err": {"value": final.msd_rel_err, "tolerance": MSD_TOLERANCE,
                              "pass": bool(final.msd_rel_err < MSD_TOLERANCE)},
        "final_ks": {"p_value": final.ks_p, "floor": KS_P_FLOOR,
                     "pass": bool(final.ks_p > KS_P_FLOOR)},
    }
    overall = _write_summary(out_dir, "sweep", spec, criteria,
                             epsilon_list=list(cfg.epsilon_list),
                             final_row=dataclasses.asdict(final))
    _log.info("write: output files, %.3f s", time.perf_counter() - t_swept)
    for row in rows:
        print(f"epsilon={row.epsilon:g}  msd_rel_err={row.msd_rel_err:.4f}  "
              f"ks_stat={row.ks_stat:.4f}  ks_p={row.ks_p:.4f}")
    print(f"wrote sweep.csv, summary.json to {out_dir}")
    return 0 if overall else 1


# Each command's function and help, in the order ``frameflow --help`` lists them.
COMMANDS = {
    "verify-algebra": (cmd_verify_algebra, "check the skew-basis identities and print defects"),
    "haar": (cmd_haar, "estimate Haar second moments of the direction statistic"),
    "ergodic": (cmd_ergodic,
                "time-average the direction moments along Haar-started group paths"),
    "simulate": (cmd_simulate, "integrate rescaled paths and write per-path CSVs"),
    "homogenize": (cmd_homogenize, "ensemble statistics against the diffusive limit"),
    "sweep": (cmd_sweep, "repeat the ensemble across an epsilon list"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frameflow",
        description="Simulate geodesic motion with rotationally stirred velocity "
                    "and verify its diffusive scaling limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        for key, meta in KEYS.items():
            if meta["flag"]:
                p.add_argument("--" + key.replace("_", "-"), help=meta["help"])
        p.add_argument("--verbose", "-v", action="count", default=None,
                       help="log each phase of the run, with its seconds, to stderr")

    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        if name == "simulate":
            p.add_argument("--frames", dest="with_frames", action="store_true",
                           default=None, help="include frame columns")
            p.add_argument("--group", dest="with_group", action="store_true",
                           default=None, help="include group-factor columns")
    return parser


@contextlib.contextmanager
def _phase_log(verbose: int):
    """Send frameflow's phase lines to stderr while a command runs, if ``verbose``."""
    if not verbose:
        yield
        return
    logger = logging.getLogger("frameflow")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("frameflow: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        cfg = parse_config(file=args.config, flags=flags)
        with _phase_log(cfg.verbose):
            return COMMANDS[args.command][0](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DomainExitError, NumericalAbort) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
