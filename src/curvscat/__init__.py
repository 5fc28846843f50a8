"""Scattering construction of self-consistent Gauss curvature surfaces.

The radial conformal-factor/curvature problem reduces to Newtonian potential
scattering of a single particle; this package integrates that motion from
past-infinity data, shoots for prescribed deflection angles, reconstructs
the radial pair (u, K), and checks the identities and bounds the
construction must satisfy.
"""

__version__ = "0.1.0"

from .closed_forms import (AsymptoticData, BoundsReport, ETA_CRIT_UPPER,
                           deflection_deep, eta_first_iterate, explicit_bounds,
                           free_motion_expansion, lncosh, t0_state_bounds,
                           xi_subsolution, xi_supersolution)
from .dynamics import (GAUGE_LOAD, Homologous, PhasePoint, Symmetry,
                       TimeReverse, TimeTranslate, Zone, apply_symmetry,
                       energy, in_forbidden_zone, rhs)
from .geometry import (AsymptoticFit, RadialSolution, asymptotic_fit,
                       curvature_area_quadrature, pde_residual,
                       pokhozaev_residual, scale_radial, theta_identities,
                       to_radial)
from .integrator import (BlowUpRecord, NotConvergedError, SolverConfig,
                         Trajectory, TrajectoryEvents, deflection,
                         deflection_of, detect_events, integrate)
from .picard import (GridFunction, MonotonicityReport, NewtonNotConvergedError,
                     PicardRun, iterate_future, iterate_past,
                     monotonicity_report)
from .shooting import (BracketNotFoundError, ShootingResult, SweepRow, shoot,
                       sweep)
from .analysis import (GradientFlowResult, GradientFlowState, InflectionReport,
                       SpectrumSample, estimate_delta0, gradient_flow_run,
                       inflection_diagnostics, linearization_spectrum,
                       spectrum_along)
