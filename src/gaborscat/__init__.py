"""2D TE scattering from finite dielectric objects in a homogeneous medium.

Domain-integral-equation solver discretized with a Gabor frame in x and
triangle functions in z; the Green function is Ewald-split and every coupling
integral reduces to a one-dimensional complex-path quadrature.  Validated
against a brute-force volume method-of-moments reference.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DimensionMismatch, DomainError, GaborscatError,
                     GridMismatch, GridTooCoarse, IllConditionedFit,
                     NonConvergence, OverflowGuard, QuadratureFailure,
                     SingularFrame, SingularMatrix, SizeCap)
from .frame import (DualWindow, FrameParams, analysis_grid, analysis_matrix,
                    analyze, dual_window_value, fit_dual_coeffs, frame_element,
                    frame_matrix, lstsq_dual_window, spectral_dual_coeffs,
                    spectral_frame_element, spectral_window_value,
                    synthesis_matrix, synthesize, window_value,
                    zak_dual_window)
from .green import (EwaldConfig, green_exact, green_spatial, green_spectral,
                    optimal_split, split_identity_error, xi_path, zeta_path,
                    zeta_path_derivative)
from .kernels import (ZGrid, erf_complex, erf_diff, f_spatial, f_spectral,
                      g_z_spatial, g_z_spectral, h_z_spatial, h_z_spectral,
                      triangle_value)
from .operators import (DiscreteOperator, active_slices, assemble_dense,
                        assemble_green_matrix, build_operator, coeff_shape,
                        contrast_multiply, forward_residual, green_apply)
from .oracle import (MoMConfig, MoMResult, compare_fields, interior_mask,
                     cylinder_reference_field, mom_solve)
from .scene import (Circle, Grating, Rectangle, Scene, contrast_at,
                    incident_field, project_source, validate_scene)
from .solver import Solution, solve, synthesize_field, synthesize_points
from .tables import (KernelTable, build_spatial_table, build_spectral_table,
                     build_tables, cache_key, cache_path, index_bounds,
                     load_or_build, load_table, save_table, truncation_point)
