import importlib.util
import json
import shutil
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# A stand-in for bench/run.py: logs its side and seed, and reports a wall
# time of base + seed % 3 and a fixed peak RSS.
FAKE_RUN = textwrap.dedent("""
    import json, sys
    from pathlib import Path
    here = Path(__file__).resolve().parent.parent
    seed = int(sys.argv[sys.argv.index("--seed") + 1])
    side = (here / "side").read_text()
    with open(here.parent / "order.log", "a") as fh:
        fh.write(f"{side} {seed}\\n")
    wall = {"parent": 2.0, "change": 1.0}[side] + seed % 3
    metrics = {"setup_s": 0.2, "wall_s": wall, "path_steps_per_s": 100.0 / wall,
               "peak_rss_mb": {"parent": 50.0, "change": 60.0}[side]}
    print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                      "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}))
""")


@pytest.fixture
def checkouts(tmp_path):
    for side, lines in (("parent", 5), ("change", 3)):
        root = tmp_path / side
        (root / "bench").mkdir(parents=True)
        (root / "src" / "frameflow").mkdir(parents=True)
        (root / "tests").mkdir()
        (root / "tests" / "test_a.py").write_text("y = 2\n" * (lines + 4))
        (root / "tests" / "data.txt").write_text("not counted\n")
        (root / "bench" / "run.py").write_text(FAKE_RUN)
        (root / "side").write_text(side)
        (root / "src" / "frameflow" / "a.py").write_text("x = 1\n" * lines)
        shutil.copy(ROOT / "BENCHMARK.json", root)
    return tmp_path


def test_alternated_pairs_are_summarised_per_metric(checkouts, capsys):
    out = checkouts / "BENCH.json"
    assert bench_pairs.main([str(checkouts / "parent"), str(checkouts / "change"),
                             "--out", str(out), "--seed", "10", "--pairs", "3",
                             "--seconds", "1", "--workload", "hyp2-ensemble",
                             "--note", "change=fake"]) == 0
    # The side that runs first alternates, and both sides of a pair share its seed.
    assert (checkouts / "order.log").read_text().split("\n")[:-1] == [
        "parent 10", "change 10", "change 11", "parent 11", "parent 12", "change 12"]
    record = json.loads(out.read_text())
    assert record["change"] == "fake"
    assert record["wc_l_src_frameflow"] == {"parent": 5, "change": 3}
    assert record["wc_l_tests"] == {"parent": 9, "change": 7}
    entry = record["end_to_end"]["hyp2-ensemble"]
    assert entry["runs"]["change"] == {"correct": True, "failed": 0, "attempted": 9, "pairs": 3}
    # Walls 3, 4, 2 (parent) and 2, 3, 1 (change): the change wins every pair.
    wall = entry["wall_s"]
    assert wall["parent"]["median"] == 3.0 and wall["change"]["median"] == 2.0
    assert wall["change_better"] == "3/3" and wall["ratio_median"] == pytest.approx(2 / 3, abs=1e-4)
    assert wall["within_bound"]
    # 1/3 less wall time, against a bound of 0.25.
    assert wall["beyond_bound"]
    steps = entry["path_steps_per_s"]
    assert steps["change_better"] == "3/3" and steps["ratio_median"] == pytest.approx(1.5)
    assert steps["beyond_bound"]
    # Peak RSS 20% higher on every pair, against a bound of 10%.
    rss = entry["peak_rss_mb"]
    assert rss["change_better"] == "0/3" and not rss["within_bound"]
    assert not rss["beyond_bound"]
    assert entry["setup_s"]["change_better"] == "0/3" and entry["setup_s"]["within_bound"]
    assert not entry["setup_s"]["beyond_bound"]
    # The parent's walls spread over (4 - 2) / 3 of their median, wider
    # than the bound, and a change run ties a parent run: unresolved.
    assert wall["parent_spread"] == pytest.approx(2 / 3, abs=1e-4) and wall["unresolved"]
    assert entry["setup_s"]["parent_spread"] == 0.0 and not entry["setup_s"]["unresolved"]
    assert not rss["unresolved"]
    # Each pair prints the running ratio of every end-to-end metric.
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[-1] == ("hyp2-ensemble pair 3/3: ratio (change better) setup_s 1.0 (0/3), "
                         "wall_s 0.6667 (3/3), path_steps_per_s 1.5 (3/3), "
                         "peak_rss_mb 1.2 (0/3)")


def test_a_failing_run_stops_the_script(checkouts):
    (checkouts / "change" / "bench" / "run.py").write_text("import sys; sys.exit(3)\n")
    with pytest.raises(SystemExit, match="exited 3"):
        bench_pairs.main([str(checkouts / "parent"), str(checkouts / "change"),
                          "--out", str(checkouts / "B.json"), "--seed", "1", "--pairs", "1",
                          "--workload", "flat2-ensemble"])


def test_a_wide_spread_is_resolved_only_by_separated_runs():
    # Walls spread over 2/3 of the parent's median; the change's runs all
    # below the parent's resolve it, one run among them does not.
    metric = {"name": "wall_s", "better": "lower", "bound": 0.25}

    def entry(change):
        runs = {side: [{"correct": True, "failed": 0, "attempted": 1,
                        "metrics": {"wall_s": {"value": v}}} for v in walls]
                for side, walls in (("parent", [3.0, 4.0, 2.0]), ("change", change))}
        return bench_pairs.summarize(runs, [metric])["wall_s"]

    assert not entry([1.0, 1.5, 1.9])["unresolved"]
    assert entry([1.0, 1.5, 2.0])["unresolved"]
