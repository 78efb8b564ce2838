import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("output_digests",
                                              ROOT / "scripts" / "output_digests.py")
output_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digests)

SMALL = {"paths": 3, "t_final": 0.02, "epsilon": 0.1}


def test_a_checkout_against_itself_gives_equal_digests(capsys):
    argv = [str(ROOT), str(ROOT), "--seed", "7", "--paths", "3", "--t-final", "0.02",
            "--epsilon", "0.1"]
    assert output_digests.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    # Six entries (xs, us, gs, alive, aborts, moments) for each of six
    # charts without and with a drift.
    assert lines[-1].startswith("0 of 72 entries differ (seed 7")
    assert all(line.endswith("  equal") for line in lines[:-1]) and len(lines) == 73


def test_a_changed_seed_gives_a_difference():
    rows = output_digests.compare(output_digests.outputs(ROOT, 7, **SMALL),
                                  output_digests.outputs(ROOT, 8, **SMALL))
    differ = {name: dev for name, left, right, dev in rows if left != right}
    # Every path's noise changes, so every recorded position does; the
    # strip's aborts and alive flags may or may not.
    assert all(f"{chart}/{label}/xs" in differ for chart in output_digests.CHARTS
               for label in ("plain", "drift"))
    assert all(dev is None or dev > 0.0 for dev in differ.values())
