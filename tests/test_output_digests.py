import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("output_digests",
                                              ROOT / "scripts" / "output_digests.py")
output_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digests)

SMALL = {"paths": 3, "t_final": 0.02, "epsilon": 0.1}


def test_a_checkout_against_itself_gives_equal_digests(capsys, tmp_path):
    argv = [str(ROOT), str(ROOT), "--seed", "7", "--paths", "3", "--t-final", "0.02",
            "--epsilon", "0.1", "--json", str(tmp_path / "digests.json")]
    assert output_digests.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    # Six entries (xs, us, gs, alive, aborts, moments) for each of seven
    # charts without and with a drift, then 55 of the CLI: stdout, stderr
    # and the exit code of 7 command runs and 7 --help runs, and the 13
    # files the command runs write.
    assert lines[-1].startswith("0 of 139 entries differ (seed 7")
    assert all(line.endswith("  equal") for line in lines[:-1]) and len(lines) == 140
    record = json.loads((tmp_path / "digests.json").read_text())
    assert record["differ"] == 0 and len(record["entries"]) == 139
    cli = {name: row for name, row in record["entries"].items() if name.startswith("cli/")}
    assert len(cli) == 55 and "cli/simulate/path_0002.csv" in cli
    assert all(row["parent"] == row["change"] and row["max_abs_dev"] == 0.0
               for row in cli.values())


def test_a_changed_seed_gives_a_difference():
    rows = output_digests.compare(output_digests.outputs(ROOT, 7, **SMALL),
                                  output_digests.outputs(ROOT, 8, **SMALL))
    differ = {name: dev for name, left, right, dev in rows if left != right}
    # Every path's noise changes, so every recorded position does; the
    # strip's aborts and alive flags may or may not.
    assert all(f"{chart}/{label}/xs" in differ for chart in output_digests.CHARTS
               for label in ("plain", "drift"))
    assert all(dev is None or dev > 0.0 for dev in differ.values())
    # Every file a seeded command writes changes, in its numbers alone; the
    # help texts and verify-algebra, which read no seed, do not.
    written = [name for name, *_ in rows if name.startswith("cli/") and
               name.rsplit("/", 1)[1] not in ("stdout", "stderr", "exit")]
    assert len(written) == 13
    assert all(differ.get(name, 0.0) > 0.0 for name in written)
    assert not any(name.startswith(("cli/help", "cli/verify-algebra/")) for name in differ)
