"""Numerical toolkit for weighted minimal surfaces with height density.

Construction (profile shooting, graph Newton) and desk-scale audits of
the structure identities, stability spectrum, area/density estimates,
curvature ratios, convexity and rescaling limits of surfaces that are
minimal for the weighted area  int e^phi dA  with phi a function of
height.
"""

__version__ = "0.1.0"

from .potential import (PotentialSpec, PotentialEval, ConditionReport,
                        BoundedGeometryReport, eval_potential, check_conditions,
                        asymptotics, bounded_geometry_check,
                        normalized_for_window)
from .ilmanen import ambient_curvatures
from .surface_geometry import (ProfileCurve, GraphPatch, GeometryField,
                               ResidualReport, sample_geometry,
                               phi_minimal_residual,
                               fundamental_identity_residuals,
                               drift_laplacian,
                               curvature_evolution_residuals)
from .solvers import (ShootingConfig, NewtonConfig, SolveResult, AxisRegular,
                      PointStart, solve_rotational_profile,
                      solve_translation_profile, solve_graph)
from .stability import (StabilityAssembly, SpectrumResult, quadratic_form,
                        first_eigenvalue, jacobi_residual, build_assembly)
from .estimates import (AreaReport, DensityReport, ConvexityReport,
                        BlowupResult, geodesic_disk_area_check,
                        density_monotonicity, curvature_ratio_sup,
                        convexity_report, ilmanen_estimate_report,
                        blowup_rescale, omori_gamma_check, rescale_profile)

__all__ = [name for name in dir() if not name.startswith("_")]
