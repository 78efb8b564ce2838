import pytest

from frameflow.cli import main


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--t-final", "inf"], "t_final must be finite"),
    (["ergodic", "--dim", "2", "--t-final", "inf"], "t_final must be finite"),
    (["haar", "--e0", "1,1"], "e0 must be a unit vector (|e0| = 1.41421)"),
    (["ergodic", "--e0", "1,1"], "e0 must be a unit vector (|e0| = 1.41421)"),
    # | |e0| - 1 | = 1.7e-9 is over the one unit-norm tolerance, 1e-9.
    (["haar", "--e0", "0.70710678,0.70710678"], "e0 must be a unit vector (|e0| = 1)"),
    (["haar", "--h0", "0.5"], "h0 must lie in (0, 0.1]"),
])
def test_invalid_input_exits_2_with_reason(argv, message, tmp_path, capsys):
    # Checked by the library before any work starts: no traceback, exit 2.
    assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
