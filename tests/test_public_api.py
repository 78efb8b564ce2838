"""The public API is pinned: adding or removing a name of ``frameflow.__all__``
is an edit of this set, made on purpose and reviewed."""

import frameflow

PUBLIC = {
    # Submodules the package imports, which ``__all__`` lists as it lists
    # every public name of the package namespace.
    "errors", "group_process", "homogenize", "lie_algebra", "manifold", "perturbed_geodesic",
    # errors
    "ConfigError", "DomainExitError", "NumericalAbort",
    # group_process
    "apply_generator_linear", "haar_moment_stats", "poisson_h",
    # homogenize
    "EnsembleSpec", "EnsembleStats", "effective_diffusivity", "epsilon_sweep", "ks_two_sample",
    "msd_rate", "oracle_euclidean_bm", "oracle_hyperbolic_bm", "run_ensemble",
    # lie_algebra
    "canonical_basis", "casimir_sum", "gram_defect", "group_exp", "haar_sample",
    "orthogonality_defect", "project_rotation", "rotation_defect", "skewness_defect",
    # manifold
    "Chart", "chart_by_name", "euclidean_chart", "frame_transport", "gram_schmidt_metric",
    "hyperbolic2_chart", "hyperbolic_distance", "register_chart",
    # perturbed_geodesic
    "EnsemblePaths", "PathRecord", "SimConfig", "philox_stream", "simulate_paths",
    "simulate_rescaled_path",
}


def test_all_is_the_pinned_public_api():
    assert len(frameflow.__all__) == len(set(frameflow.__all__))
    assert set(frameflow.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(frameflow, name), name
