"""Isoperimetric-profile machinery for sharp volume comparison bounds on
warped-product model manifolds."""

__version__ = "0.1.0"

from .football import alpha_oracle, as_written_bound, cylinder_growth, epsilon0
from .gmt import (cone_over_circle, cutoff_budget, monotonicity_profile,
                  unit_circle, unit_sphere)
from .phase_plane import (bishop_bound, extremal_path, phase_curve, ricci_mass,
                          start_height, volume_from_path)
from .variation import stencil_table
from .warped import (candidate_profile, curvature_bounds, cylinder, football,
                     pointwise, round_sphere, sphere_area, tabulated,
                     total_volume)

__all__ = [
    "__version__",
    "alpha_oracle", "as_written_bound", "cylinder_growth", "epsilon0",
    "cone_over_circle", "cutoff_budget", "monotonicity_profile",
    "unit_circle", "unit_sphere",
    "bishop_bound", "extremal_path", "phase_curve", "ricci_mass",
    "start_height", "volume_from_path",
    "stencil_table",
    "candidate_profile", "curvature_bounds", "cylinder", "football",
    "pointwise", "round_sphere", "sphere_area", "tabulated", "total_volume",
]
