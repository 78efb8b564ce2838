"""frameflow: geodesic motion with rotationally stirred velocity.

A two-scale simulator for the coupled system of a fast isotropic rotation
noise on SO(n) and the slow horizontal (parallel-transported) frame
motion it drives, together with the statistical harness that checks the
diffusive scaling limit of the rescaled position process.
"""

from .errors import ConfigError, DomainExitError, NumericalAbort
from .group_process import apply_generator_linear, haar_moment_stats, poisson_h
from .homogenize import (
    EnsembleSpec,
    EnsembleStats,
    effective_diffusivity,
    epsilon_sweep,
    ks_two_sample,
    msd_rate,
    oracle_euclidean_bm,
    oracle_hyperbolic_bm,
    run_ensemble,
)
from .lie_algebra import (
    canonical_basis,
    casimir_sum,
    gram_defect,
    group_exp,
    haar_sample,
    orthogonality_defect,
    project_rotation,
    rotation_defect,
    skewness_defect,
)
from .manifold import (
    Chart,
    chart_by_name,
    euclidean_chart,
    frame_transport,
    gram_schmidt_metric,
    hyperbolic2_chart,
    hyperbolic_distance,
    register_chart,
)
from .perturbed_geodesic import (
    EnsemblePaths,
    PathRecord,
    SimConfig,
    philox_stream,
    simulate_paths,
    simulate_rescaled_path,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
