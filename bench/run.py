"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 bench/run.py --workload flat2-ensemble --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the line holds the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics.  Each run also appends a record
to ``bench/results/runs.jsonl``; ``bench/compare.py`` compares two such
files.  See ``bench/README.md`` for the workloads and what each metric
should move.
"""

import os

# One BLAS/OpenMP thread: frameflow's matrices are 2x2 and 3x3, and a
# single thread keeps runs on a shared two-core machine steady.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MIN_ROUNDS = 3
# Rounds of a traced run go untraced, traced, traced, untraced, ...
TRACE_PATTERN = (False, True, True, False)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Spawn-to-ready time and import time of fresh interpreters."""
    setup, imports = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.communicate()
        if proc.returncode != 0 or not line:
            raise SystemExit(f"bench: set-up probe for {workload} exited {proc.returncode}")
        setup.append(ready)
        imports.append(json.loads(line)["import_s"])
    return setup, imports


def run_rounds(ff, wl, seed: int, seconds: float, tracer=None):
    """Whole rounds until ``seconds`` of timed calls are spent.

    Returns one record per round (its wall time, whether it was traced,
    whether the call raised, and for traced rounds its layer figures),
    the failed output checks and the tracebacks of calls that raised.
    """
    from workloads import round_seed

    rounds, wrong, errors = [], [], []
    body = 0.0
    r = 0
    while True:
        traced = tracer is not None and TRACE_PATTERN[r % len(TRACE_PATTERN)]
        inputs = wl.prepare(ff, round_seed(seed, r))
        if traced:
            mark = tracer.mark()
            tracer.counts.clear()
            tracer.written.clear()
            tracer.install(ff)
        t0 = time.perf_counter()
        try:
            out = wl.call(ff, inputs)
            raised = False
        except Exception:
            out = None
            raised = True
            errors.append(f"round {r}: {traceback.format_exc()}")
        wall = time.perf_counter() - t0
        record = {"wall_s": wall, "traced": traced, "raised": raised,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if traced:
            tracer.uninstall()
            record["layers"] = layer_figures(tracer, mark)
        if out is not None:
            wrong += [f"round {r}: {msg}" for msg in wl.check(ff, inputs, out)]
        del out
        rounds.append(record)
        body += wall
        r += 1
        if r >= (len(TRACE_PATTERN) if tracer else MIN_ROUNDS) and \
                body + statistics.median(x["wall_s"] for x in rounds) > seconds:
            return rounds, wrong, errors


def layer_figures(tracer, mark: int) -> dict:
    """Per-layer calls, self time and counts of the round whose spans start at ``mark``."""
    spans = tracer.self_times(mark, tracer.mark())
    out = {f"{name}.self_s": self_s for name, (_, self_s) in spans.items()}
    out["group_process.advance.calls"] = spans.get("group_process.advance", (0, 0.0))[0]
    counts = tracer.counts
    for key in ("perturbed_geodesic.path_steps", "perturbed_geodesic.noise.normals",
                "perturbed_geodesic.noise.bytes", "lie_algebra.group_exp.matrices",
                "homogenize.oracle.proposals"):
        out[key] = counts[key]
    tried = counts["homogenize.oracle.proposals"]
    out["homogenize.oracle.accept_ratio"] = counts["homogenize.oracle.kept"] / tried if tried else 1.0
    out["cli.bytes_written"] = sum(Path(p).stat().st_size for p in tracer.written)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    if not (ROOT / "src" / "frameflow" / "__init__.py").is_file():
        raise SystemExit(f"bench: no frameflow sources under {ROOT / 'src'}")
    setup, imports = measure_setup(wl.name, args.seed)
    ff = workloads.require_checkout()

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    rounds, wrong, errors = run_rounds(ff, wl, args.seed, args.seconds, tracer)

    plain = [x["wall_s"] for x in rounds if not x["traced"]]
    if args.trace:
        traced = [x for x in rounds if x["traced"]]
        values = {}
        for key in traced[0]["layers"]:
            per_round = [x["layers"][key] for x in traced]
            # Counts are those of the first traced round, so they repeat
            # exactly at a fixed seed; times are medians over traced rounds.
            values[key] = per_round[0] if not key.endswith("_s") else statistics.median(per_round)
        values["setup.import_s"] = statistics.median(imports)
        values["trace.overhead_s"] = (statistics.median(x["wall_s"] for x in traced)
                                      - statistics.median(plain))
        tracer.write(workloads.RESULTS / f"trace-{wl.name}",
                     {"workload": wl.name, "seed": args.seed,
                      "rounds": [x.get("layers") for x in rounds]})
        wanted = spec["per_layer"]
    else:
        wall = statistics.median(plain)
        # Peak RSS through the first call, as one command would see it: over
        # later rounds glibc's heap sometimes kept a freed 32 MB noise block
        # resident, so the high-water mark of the whole run jumped by
        # 31 MB in about one run in five.
        values = {"setup_s": statistics.median(setup), "wall_s": wall,
                  "path_steps_per_s": wl.path_steps / wall,
                  "peak_rss_mb": rounds[0]["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    for m in wanted:
        # A layer the round never entered has no span and spent no time there.
        if m["name"] not in values and m["name"].endswith(".self_s"):
            values[m["name"]] = 0.0
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}

    for line in wrong + errors:
        print(f"bench: {line}", file=sys.stderr)
    result = {"correct": not wrong, "attempted": len(rounds),
              "failed": sum(x["raised"] for x in rounds), "metrics": metrics}
    workloads.RESULTS.mkdir(parents=True, exist_ok=True)
    with open(workloads.RESULTS / "runs.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                             "trace": args.trace, "setup_s": setup, "import_s": imports,
                             "rounds": [{k: v for k, v in x.items() if k != "layers"}
                                        for x in rounds],
                             "wrong": wrong, "errors": errors, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
