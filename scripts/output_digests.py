"""Compare the outputs of two checkouts, entry by entry, by SHA-256.

    python3 scripts/output_digests.py PARENT CHANGE [--seed 80001] [--paths 300] \\
        [--t-final 0.5] [--epsilon 0.05]

Each checkout runs one fixed matrix in a process of its own, one at a
time, with its ``src`` first on the path: ``simulate_paths`` on
``euclidean:2`` to ``euclidean:5``, ``hyperbolic2`` and ``digest-strip``
(a flat strip |x1| < 0.3 that this script registers, where paths abort),
each without and with a drift, frames and g recorded, and
``direction_moments`` on each of them.  An entry is one output array
(``xs``, ``us``, ``gs``, ``alive``, the aborts as rows of path, time and
position, or the moments).  The script prints each entry's SHA-256 on both
sides and, where they differ, the largest absolute deviation; it exits 0
when every entry is equal and 1 otherwise.  Nothing is kept: the arrays
pass through a temporary directory.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CHARTS = ("euclidean:2", "euclidean:3", "euclidean:4", "euclidean:5", "hyperbolic2",
          "digest-strip")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--seed", type=int, default=80001)
    p.add_argument("--paths", type=int, default=300)
    p.add_argument("--t-final", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, default=0.05)
    return p.parse_args(argv)


def _drift(n: int) -> np.ndarray:
    """A fixed skew drift: 0.8 (R - R^T) for the rotation R by pi/2 in the first plane."""
    r = np.eye(n)
    r[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
    return 0.8 * (r - r.T)


def run_matrix(seed: int, paths: int, t_final: float, epsilon: float) -> dict:
    """The matrix's output arrays by entry name, from the frameflow on the path."""
    import frameflow as ff
    from frameflow.manifold import Chart
    from frameflow.perturbed_geodesic import direction_moments

    flat = ff.euclidean_chart(2)
    ff.register_chart("digest-strip", Chart(
        name="digest-strip", dim=2, metric=flat.metric, christoffel=flat.christoffel,
        in_domain=lambda x: np.abs(np.asarray(x)[..., 0]) < 0.3, model="euclidean",
        unbounded=False, distance=flat.distance))
    out = {}
    for chart in CHARTS:
        n = ff.chart_by_name(chart).dim
        for label, abar in (("plain", None), ("drift", _drift(n))):
            cfg = ff.SimConfig(chart=chart, epsilon=epsilon, t_final=t_final, seed=seed,
                               abar=abar)
            run = ff.simulate_paths(cfg, range(paths), record_frames=True, record_group=True)
            key = f"{chart}/{label}"
            for field in ("xs", "us", "gs", "alive"):
                out[f"{key}/{field}"] = getattr(run, field)
            out[f"{key}/aborts"] = np.array([[p, t, *x] for p, t, x in run.aborts],
                                            dtype=float).reshape(-1, 2 + n)
            out[f"{key}/moments"] = direction_moments(cfg, range(paths))
    return out


def outputs(checkout: Path, seed: int, paths: int, t_final: float, epsilon: float) -> dict:
    """The matrix's arrays as ``checkout`` computes them, in a process of its own."""
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
                f"{epsilon!r}))")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPATH", None)
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"output_digests: {checkout} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
        with np.load(dump) as data:
            return {name: data[name] for name in data.files}


def digest(a: np.ndarray) -> str:
    """SHA-256 of an array's dtype, shape and bytes."""
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def deviation(a: np.ndarray, b: np.ndarray) -> float | None:
    """Largest |a - b| over equal shapes (NaNs in the same places count as
    equal); None when the shapes differ."""
    if a.shape != b.shape:
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
            print(f"{name:<28} {da}  equal")
        else:
            shown = "shape differs" if dev is None else f"max |dev| {dev:.3g}"
            print(f"{name:<28} {da}\n{'':<28} {db}  {shown}")
    differ = sum(da != db for _, da, db, _ in rows)
    print(f"{differ} of {len(rows)} entries differ (seed {args.seed}, {args.paths} paths, "
          f"T = {args.t_final:g}, epsilon = {args.epsilon:g})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
