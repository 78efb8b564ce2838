"""Compare two benchmark result files, metric by metric.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records as ``bench/run.py`` appends them to
``bench/results/runs.jsonl``.  For every workload and metric present on
both sides the table gives each side's median with its quartiles and run
count, the ratio of medians NEW / BASE, and, for end-to-end metrics, a
verdict against the bound of BENCHMARK.json.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """{(workload, metric): [values]} over the runs of a result file."""
    out = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                out[(rec["workload"], name)].append(m["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric: dict, ratio: float) -> str:
    """Worse by more than the bound, or not, given the metric's direction."""
    worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
    if worse > metric["bound"]:
        return "REGRESSED"
    return "better" if worse < 0 else "within bound"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(argv[0]), load(argv[1])
    print(f"{'workload':16} {'metric':42} {'base median [q1, q3] (n)':36} "
          f"{'new median [q1, q3] (n)':36} {'ratio':>7}  verdict")
    regressed = False
    for key in sorted(set(base) & set(new)):
        workload, name = key
        b, n = base[key], new[key]
        bq, nq = quartiles(b), quartiles(n)
        ratio = nq[1] / bq[1] if bq[1] else float("nan")
        note = verdict(bounded[name], ratio) if name in bounded else ""
        regressed |= note == "REGRESSED"
        print(f"{workload:16} {name:42} "
              f"{f'{bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}] ({len(b)})':36} "
              f"{f'{nq[1]:.4g} [{nq[0]:.4g}, {nq[2]:.4g}] ({len(n)})':36} "
              f"{ratio:7.3f}  {note}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
