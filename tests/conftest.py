import numpy as np
import pytest

from frameflow import homogenize, perturbed_geodesic, register_chart
from frameflow.manifold import Chart


def strip_chart(half_width=0.3):
    """Flat chart with a bounded domain, for exercising abort handling."""
    return Chart(name="strip-test", dim=2, model="euclidean",
                 in_domain=lambda x: np.abs(np.asarray(x)[..., 0]) < half_width)


register_chart("strip-test", strip_chart())


@pytest.fixture
def engine_calls(monkeypatch):
    """Path counts of each simulate_paths call made through the module
    attributes the CLI and run_ensemble call it by."""
    calls = []
    engine = perturbed_geodesic.simulate_paths

    def counting(cfg, path_indices, *args, **kwargs):
        calls.append(len(path_indices))
        return engine(cfg, path_indices, *args, **kwargs)

    for module in (perturbed_geodesic, homogenize):
        monkeypatch.setattr(module, "simulate_paths", counting)
    return calls
