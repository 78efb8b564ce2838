"""Exception types shared across the package, and the finiteness check."""

import numpy as np


class ConfigError(ValueError):
    """A configuration value violates one of its documented constraints."""


def require_finite(name: str, value) -> np.ndarray:
    """``value`` as a float array; raises :class:`ConfigError` on NaN or infinity."""
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must be finite")
    return arr


class DomainExitError(RuntimeError):
    """A simulated path left its chart domain.

    Carries the diagnostic record of the failure: the slow-clock time and
    the last in-chart position.
    """

    def __init__(self, t: float, x, path_index: int = 0):
        self.t = float(t)
        self.x = x
        self.path_index = int(path_index)
        super().__init__(f"path {path_index} left the chart domain at t={t:.6g}, x={x}")


class NumericalAbort(RuntimeError):
    """An ensemble run exceeded its tolerated fraction of aborted paths."""
