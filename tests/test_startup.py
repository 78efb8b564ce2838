"""Start-up cost: frameflow runs on numpy and the standard library only.

No command loads scipy: the KS p-values are frameflow's own, so
``homogenize`` and ``sweep`` run with scipy blocked from import.  The
import checks run in a fresh interpreter, because this one has already
imported scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from frameflow import ks_two_sample

SRC = Path(__file__).resolve().parent.parent / "src"

COLD_START = """
import sys

import frameflow
import frameflow.cli

sim = frameflow.SimConfig(chart="hyperbolic2", epsilon=0.1, t_final=0.01)
frameflow.EnsembleSpec(sim=sim, paths=100)
rc = frameflow.cli.main(["simulate", "--manifold", "hyperbolic2", "--epsilon", "0.1",
                         "--t-final", "0.01", "--output-dir", "out"])
loaded = sorted(m for m in sys.modules
                if m == "scipy" or m.startswith("scipy.") or m == "concurrent.futures.process")
print("loaded:", loaded)
sys.exit(rc if rc else int(bool(loaded)))
"""


# homogenize on a flat chart and on hyperbolic2, and sweep, with every scipy
# import refused; each exits 0 and no scipy module is loaded.
SCIPY_BLOCKED = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"import of {name} blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
import frameflow.cli

ensemble = ["--paths", "400", "--seed", "1"]
rcs = [
    frameflow.cli.main(["homogenize", "--manifold", "euclidean:2", "--epsilon", "0.1",
                        "--output-dir", "flat", *ensemble]),
    frameflow.cli.main(["homogenize", "--manifold", "hyperbolic2", "--epsilon", "0.1",
                        "--t-final", "0.5", "--output-dir", "hyp", *ensemble]),
    frameflow.cli.main(["sweep", "--manifold", "euclidean:2", "--epsilon-list", "0.2,0.1",
                        "--output-dir", "sweep", *ensemble]),
]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print("exit codes:", rcs, "loaded:", loaded)
sys.exit(int(any(rcs) or bool(loaded)))
"""


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_import_and_simulate_load_no_scipy_and_no_process_pool(tmp_path):
    proc = run_python(["-c", COLD_START], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "loaded: []" in proc.stdout
    assert (tmp_path / "out" / "path_0000.csv").exists()


def test_import_leaves_numpy_random_to_the_first_stream(tmp_path):
    # numpy.random takes about 19 ms to import; building configs and charts
    # does not need it, and philox_stream loads it when a run first draws.
    code = ("import sys, frameflow, frameflow.cli\n"
            "frameflow.SimConfig(chart='hyperbolic2', epsilon=0.1, t_final=0.01)\n"
            "print('numpy.random' in sys.modules)\n"
            "frameflow.perturbed_geodesic.philox_stream(0, 0)\n"
            "print('numpy.random' in sys.modules)")
    proc = run_python(["-c", code], tmp_path)
    assert proc.stdout.split() == ["False", "True"], proc.stderr


def test_python_m_frameflow_simulate(tmp_path):
    proc = run_python(["-m", "frameflow", "simulate", "--manifold", "euclidean:2",
                       "--epsilon", "0.1", "--t-final", "0.01", "--output-dir", "out"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "path_0000.csv").exists()


def test_homogenize_and_sweep_run_with_scipy_blocked(tmp_path):
    proc = run_python(["-c", SCIPY_BLOCKED], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "exit codes: [0, 0, 0] loaded: []" in proc.stdout
    for out, name in (("flat", "ks.csv"), ("hyp", "ks.csv"), ("sweep", "sweep.csv")):
        assert (tmp_path / out / name).exists()


def test_ks_two_sample_is_scipy_asymptotic_ks():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=200), rng.normal(0.1, 1.0, size=300)
    res = stats.ks_2samp(a, b, method="asymp")
    stat, p = ks_two_sample(a, b)
    assert stat == float(res.statistic)
    # The tail is frameflow's own: it agrees with scipy's to rounding.
    assert p == pytest.approx(float(res.pvalue), rel=1e-12)
