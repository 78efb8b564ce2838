"""Start-up cost: importing frameflow loads numpy and the standard library only.

scipy.stats is imported at a process's first KS test, so commands that run
none (``simulate``, ``haar``, ``ergodic``, ``verify-algebra``) never load
it.  The import checks run in a fresh interpreter, because this one has
already imported scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_import_and_simulate_load_no_scipy_and_no_process_pool(tmp_path):
    proc = run_python(["-c", COLD_START], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "loaded: []" in proc.stdout
    assert (tmp_path / "out" / "path_0000.csv").exists()


def test_python_m_frameflow_simulate(tmp_path):
    proc = run_python(["-m", "frameflow", "simulate", "--manifold", "euclidean:2",
                       "--epsilon", "0.1", "--t-final", "0.01", "--output-dir", "out"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "path_0000.csv").exists()


def test_ks_two_sample_is_scipy_asymptotic_ks():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=200), rng.normal(0.1, 1.0, size=300)
    res = stats.ks_2samp(a, b, method="asymp")
    assert ks_two_sample(a, b) == (float(res.statistic), float(res.pvalue))
