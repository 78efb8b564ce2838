"""Run the benchmark on two checkouts in alternated pairs and write a BENCH file.

    python3 scripts/bench_pairs.py PARENT CHANGE --out BENCH_15.json \\
        --seed 150101 --pairs 10 [--workload hyp2-ensemble ...] [--seconds 20] \\
        [--note change="what the change does" ...]

Pair i runs ``bench/run.py --workload W --seed SEED+i --seconds S --trace 0``
once in each checkout, one process at a time, with PYTHONDONTWRITEBYTECODE=1;
the parent goes first in even pairs and the change in odd ones.  The file
gives, per workload and end-to-end metric of BENCHMARK.json, each side's
median and quartiles, how many pairs the change won, the ratio of the
medians (change / parent), whether that ratio is within the metric's
bound, whether it is better than 1 by more than the bound (what a
claimed gain must show), the parent's spread (q3 - q1) / median, and
whether the comparison is unresolved: a spread wider than the bound, with
some run of the change no better than some run of the parent, cannot tell
an unchanged metric from one moved by up to the bound.  Then the line counts of ``src/frameflow/*.py``
and of ``tests/*.py`` on each side.  It is rewritten after every pair, so an interrupted run
leaves what it measured; each pair prints every metric's running ratio.
Each ``--note key=text`` adds a top-level string (what changed, tier-1
time, output checks, ...).  Nothing under either checkout changes except
the result log ``bench/run.py`` appends to.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _load_compare():
    """bench/compare.py, for its quartiles and bound verdict, loaded without
    writing its bytecode into bench/."""
    spec = importlib.util.spec_from_file_location("bench_compare", ROOT / "bench" / "compare.py")
    module = importlib.util.module_from_spec(spec)
    write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
    return module


compare = _load_compare()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int, required=True, help="seed of pair 0; pair i uses seed + i")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--workload", action="append", help="default: every workload of BENCHMARK.json")
    p.add_argument("--note", action="append", default=[], metavar="KEY=TEXT")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    for note in args.note:
        if "=" not in note:
            p.error(f"--note takes KEY=TEXT, got {note!r}")
    return args


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``bench/run.py`` run in ``checkout``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """One workload's entry from its paired results, ``runs[side][i]``."""
    pairs = len(runs["change"])
    out = {"runs": {side: {"correct": all(r["correct"] for r in runs[side]),
                           "failed": sum(r["failed"] for r in runs[side]),
                           "attempted": sum(r["attempted"] for r in runs[side]),
                           "pairs": pairs} for side in SIDES}}
    for m in metrics:
        values = {side: [r["metrics"][m["name"]]["value"] for r in runs[side]]
                  for side in SIDES}
        entry = {}
        for side in SIDES:
            q1, median, q3 = compare.quartiles(values[side])
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        sign = 1.0 if m["better"] == "lower" else -1.0
        won = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        ratio = entry["change"]["median"] / entry["parent"]["median"]
        gain = 1.0 - ratio if m["better"] == "lower" else ratio - 1.0
        parent = entry["parent"]
        spread = (parent["q3"] - parent["q1"]) / parent["median"]
        separated = (max(sign * c for c in values["change"])
                     < min(sign * p for p in values["parent"]))
        entry.update(change_better=f"{won}/{pairs}", ratio_median=round(ratio, 4),
                     within_bound=compare.verdict(m, ratio) != "REGRESSED",
                     beyond_bound=gain > m["bound"], parent_spread=round(spread, 4),
                     unresolved=spread > m["bound"] and not separated)
        out[m["name"]] = entry
    return out


def source_lines(checkout: Path, pattern: str = "src/frameflow/*.py") -> int:
    """``wc -l <pattern>``: newlines over the matching files of ``checkout``."""
    return sum(p.read_bytes().count(b"\n") for p in checkout.glob(pattern))


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for path in checkouts.values():
        if not (path / "bench" / "run.py").is_file():
            raise SystemExit(f"bench_pairs: no bench/run.py under {path}")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    record = {
        "machine": f"{platform.machine()}, {os.cpu_count()} cores, Python "
                   f"{platform.python_version()}, numpy {np.__version__}, "
                   "one benchmark process at a time",
        "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   f"--trace 0 (PYTHONDONTWRITEBYTECODE=1), parent and change checkouts "
                   f"alternated, {args.pairs} pairs per workload, seeds {args.seed}-"
                   f"{args.seed + args.pairs - 1}, the side that runs first alternating",
        "end_to_end": {},
        "wc_l_src_frameflow": {side: source_lines(path) for side, path in checkouts.items()},
        "wc_l_tests": {side: source_lines(path, "tests/*.py") for side, path in checkouts.items()},
    }
    record.update(note.split("=", 1) for note in args.note)
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(run_once(checkouts[side], workload, args.seed + i,
                                           args.seconds))
            entry = record["end_to_end"][workload] = summarize(runs, spec["end_to_end"])
            args.out.write_text(json.dumps(record, indent=1) + "\n")
            ratios = ", ".join(f"{m['name']} {entry[m['name']]['ratio_median']} "
                               f"({entry[m['name']]['change_better']})"
                               for m in spec["end_to_end"])
            print(f"{workload} pair {i + 1}/{args.pairs}: ratio (change better) {ratios}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
