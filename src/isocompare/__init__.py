"""Isoperimetric-profile machinery for sharp volume comparison bounds on
warped-product model manifolds."""

__version__ = "0.1.0"

from .football import (alpha_oracle, alpha_result, as_written_bound,
                       cylinder_growth, epsilon0, oracle_path)
from .gmt import (ambient_h_bound, area_ratio_constant, check_monotone,
                  cone_over_circle, cutoff_budget, monotonicity_profile,
                  unit_circle, unit_sphere)
from .phase_plane import (bishop_bound, extremal_path, phase_curve, ricci_mass,
                          start_height, volume_from_path)
from .variation import (check_first_variation, check_mean_curvature_evolution,
                        check_second_variation, convergence_order,
                        variation_report)
from .warped import (candidate_profile, curvature_at, curvature_bounds,
                     cylinder, eval_warp, football, round_sphere, slice_at,
                     sphere_area, tabulated, total_volume)

__all__ = [
    "__version__",
    "alpha_oracle", "alpha_result", "as_written_bound", "cylinder_growth",
    "epsilon0", "oracle_path",
    "ambient_h_bound", "area_ratio_constant", "check_monotone",
    "cone_over_circle", "cutoff_budget", "monotonicity_profile",
    "unit_circle", "unit_sphere",
    "bishop_bound", "extremal_path", "phase_curve", "ricci_mass",
    "start_height", "volume_from_path",
    "check_first_variation", "check_mean_curvature_evolution",
    "check_second_variation", "convergence_order", "variation_report",
    "candidate_profile", "curvature_at", "curvature_bounds", "cylinder",
    "eval_warp", "football", "round_sphere", "slice_at", "sphere_area",
    "tabulated", "total_volume",
]
