"""Compare the outputs of two checkouts, entry by entry, by SHA-256.

    python3 scripts/output_digests.py PARENT CHANGE [--seed 80001] [--paths 300] \\
        [--t-final 0.5] [--epsilon 0.05] [--json PATH]

Each checkout runs one fixed matrix in a process of its own, one at a
time, with its ``src`` first on the path: ``simulate_paths`` on
``euclidean:2`` to ``euclidean:5``, ``hyperbolic2``, ``digest-strip``
(a flat strip |x1| < 0.3 that this script registers, where paths abort)
and ``digest-h2-heun`` (the half-plane with its model cleared, which
takes the Heun frame step, from x0 = (0.1, 1.2)), each without and with
a drift, frames and g recorded, and
``direction_moments`` on each of them.  An entry is one output array
(``xs``, ``us``, ``gs``, ``alive``, the aborts as rows of path, time and
position, or the moments).

The same process then runs ``frameflow.cli.main`` on each of ``CLI_RUNS``:
every command at small fixed sizes and the run's ``--seed``, each writing
to ``cli/<label>`` under the process's working directory (the same
relative path in both checkouts, so stdout lines compare), and ``--help``
of the program and of each command of its ``COMMANDS`` table.  Its
entries are the bytes of every file a run writes, its stdout and stderr,
and its exit code, named ``cli/<label>/<file>``; the largest deviation of
two texts is that of their numbers, where the texts differ in nothing
else.

The script prints each entry's SHA-256 on both sides and, where they
differ, the largest absolute deviation; ``--json PATH`` writes the same
rows there.  It exits 0 when every entry is equal and 1 otherwise.
Nothing else is kept: the outputs pass through a temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CHARTS = ("euclidean:2", "euclidean:3", "euclidean:4", "euclidean:5", "hyperbolic2",
          "digest-strip", "digest-h2-heun")
# x0 of the charts whose default start is off the chart.
X0 = {"digest-h2-heun": (0.1, 1.2)}
_ENSEMBLE = ["--paths", "100", "--t-final", "0.05", "--jobs", "1"]
# (label, argv) of each command run; each also gets --seed and --output-dir cli/<label>.
CLI_RUNS = (
    ("verify-algebra", ["verify-algebra", "--dim", "5"]),
    ("haar", ["haar", "--dim", "3", "--samples", "2000"]),
    ("ergodic", ["ergodic", "--dim", "3", "--reps", "4", "--t-final", "5",
                 "--abar", "canonical:2"]),
    ("simulate", ["simulate", "--manifold", "hyperbolic2", "--paths", "3", "--t-final", "0.05",
                  "--output-times", "5", "--abar", "canonical:1", "--frames", "--group"]),
    ("homogenize-euclidean2", ["homogenize", "--output-times", "3", *_ENSEMBLE]),
    ("homogenize-hyperbolic2", ["homogenize", "--manifold", "hyperbolic2", "--output-times", "3",
                                *_ENSEMBLE]),
    ("sweep", ["sweep", "--manifold", "euclidean:3", "--epsilon-list", "0.2,0.1", *_ENSEMBLE]),
)
_NUMBER = re.compile(rb"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|Infinity|inf|NaN|nan)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--seed", type=int, default=80001)
    p.add_argument("--paths", type=int, default=300)
    p.add_argument("--t-final", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--json", type=Path, help="also write the rows to this JSON file")
    return p.parse_args(argv)


def _drift(n: int) -> np.ndarray:
    """A fixed skew drift: 0.8 (R - R^T) for the rotation R by pi/2 in the first plane."""
    r = np.eye(n)
    r[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
    return 0.8 * (r - r.T)


def run_matrix(seed: int, paths: int, t_final: float, epsilon: float) -> dict:
    """The matrix's output arrays by entry name, from the frameflow on the path."""
    import dataclasses

    import frameflow as ff
    from frameflow.manifold import Chart
    from frameflow.perturbed_geodesic import direction_moments

    flat = ff.euclidean_chart(2)
    # Checkouts whose Chart has an ``unbounded`` flag check a domain only when it is False.
    flag = {"unbounded": False} if "unbounded" in Chart.__dataclass_fields__ else {}
    ff.register_chart("digest-strip", Chart(
        name="digest-strip", dim=2, metric=flat.metric, christoffel=flat.christoffel,
        in_domain=lambda x: np.abs(np.asarray(x)[..., 0]) < 0.3, model="euclidean",
        distance=flat.distance, **flag))
    ff.register_chart("digest-h2-heun", dataclasses.replace(
        ff.hyperbolic2_chart(), name="digest-h2-heun", model=None))
    out = {}
    for chart in CHARTS:
        n = ff.chart_by_name(chart).dim
        for label, abar in (("plain", None), ("drift", _drift(n))):
            cfg = ff.SimConfig(chart=chart, epsilon=epsilon, t_final=t_final, seed=seed,
                               abar=abar, x0=X0.get(chart))
            run = ff.simulate_paths(cfg, range(paths), record_frames=True, record_group=True)
            key = f"{chart}/{label}"
            for field in ("xs", "us", "gs", "alive"):
                out[f"{key}/{field}"] = getattr(run, field)
            out[f"{key}/aborts"] = np.array([[p, t, *x] for p, t, x in run.aborts],
                                            dtype=float).reshape(-1, 2 + n)
            out[f"{key}/moments"] = direction_moments(cfg, range(paths))
    return out


def run_cli(seed: int) -> None:
    """Run ``CLI_RUNS`` and each ``--help`` through the frameflow on the path,
    in this process, writing each run's files, stdout, stderr and exit code
    under ``cli/<label>``."""
    from frameflow.cli import COMMANDS, main

    runs = [(label, [*argv, "--seed", str(seed), "--output-dir", f"cli/{label}"])
            for label, argv in CLI_RUNS]
    runs += [("help", ["--help"])] + [(f"help-{c}", [c, "--help"]) for c in COMMANDS]
    for label, argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        folder = Path("cli", label)
        folder.mkdir(parents=True, exist_ok=True)
        for name, text in (("stdout", out.getvalue()), ("stderr", err.getvalue()),
                           ("exit", f"{code}\n")):
            (folder / name).write_text(text)


def outputs(checkout: Path, seed: int, paths: int, t_final: float, epsilon: float) -> dict:
    """The matrix's arrays and the CLI runs' bytes as ``checkout`` computes
    them, in a process of its own."""
    src = Path(checkout).resolve() / "src"
    if not (src / "frameflow").is_dir():
        raise SystemExit(f"output_digests: no src/frameflow under {checkout}")
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "outputs.npz"
        code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
                f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
                "import numpy as np, frameflow, output_digests as od; "
                f"assert frameflow.__file__.startswith({str(src)!r}), frameflow.__file__; "
                f"np.savez({str(dump)!r}, **od.run_matrix({seed}, {paths}, {t_final!r}, "
                f"{epsilon!r})); od.run_cli({seed})")
        # A fixed width, so that argparse wraps --help the same way in any terminal.
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", COLUMNS="100")
        for name in ("PYTHONPATH", "FRAMEFLOW_SEED"):
            env.pop(name, None)
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"output_digests: {checkout} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
        with np.load(dump) as data:
            out = {name: data[name] for name in data.files}
        for path in sorted(Path(tmp, "cli").rglob("*")):
            if path.is_file():
                out[path.relative_to(tmp).as_posix()] = path.read_bytes()
        return out


def digest(a: np.ndarray | bytes) -> str:
    """SHA-256 of bytes, or of an array's dtype, shape and bytes."""
    if isinstance(a, bytes):
        return hashlib.sha256(a).hexdigest()
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def deviation(a: np.ndarray | bytes, b: np.ndarray | bytes) -> float | None:
    """Largest |a - b| over equal shapes (NaNs in the same places count as
    equal); None when the shapes differ.  Texts compare by their numbers,
    and give None unless they differ in their numbers alone."""
    if isinstance(a, bytes) and isinstance(b, bytes):
        if _NUMBER.sub(b"#", a) != _NUMBER.sub(b"#", b):
            return None
        a, b = (np.array(_NUMBER.findall(t), dtype=float) for t in (a, b))
    if isinstance(a, bytes) or isinstance(b, bytes) or a.shape != b.shape:
        return None
    a, b = a.astype(float), b.astype(float)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        return float(np.max(np.where(same, 0.0, np.abs(a - b)), initial=0.0))


def compare(left: dict, right: dict) -> list[tuple]:
    """Rows (entry, left digest, right digest, deviation or None) over both
    sides' entries; the deviation is 0.0 where the digests agree."""
    rows = []
    for name in sorted(set(left) | set(right)):
        a, b = left.get(name), right.get(name)
        da = "-" if a is None else digest(a)
        db = "-" if b is None else digest(b)
        dev = 0.0 if da == db else (None if a is None or b is None else deviation(a, b))
        rows.append((name, da, db, dev))
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = [outputs(path, args.seed, args.paths, args.t_final, args.epsilon)
             for path in (args.parent, args.change)]
    rows = compare(*sides)
    for name, da, db, dev in rows:
        if da == db:
            print(f"{name:<36} {da}  equal")
        else:
            shown = "shape or text differs" if dev is None else f"max |dev| {dev:.3g}"
            print(f"{name:<36} {da}\n{'':<36} {db}  {shown}")
    differ = sum(da != db for _, da, db, _ in rows)
    print(f"{differ} of {len(rows)} entries differ (seed {args.seed}, {args.paths} paths, "
          f"T = {args.t_final:g}, epsilon = {args.epsilon:g})")
    if args.json:
        args.json.write_text(json.dumps({
            "parent": str(args.parent), "change": str(args.change), "seed": args.seed,
            "paths": args.paths, "t_final": args.t_final, "epsilon": args.epsilon,
            "differ": differ,
            "entries": {name: {"parent": da, "change": db, "max_abs_dev": dev}
                        for name, da, db, dev in rows},
        }, indent=2) + "\n")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
