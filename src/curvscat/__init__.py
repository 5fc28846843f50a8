"""Scattering construction of self-consistent Gauss curvature surfaces.

The radial conformal-factor/curvature problem reduces to Newtonian potential
scattering of a single particle; this package integrates that motion from
past-infinity data, shoots for prescribed deflection angles, reconstructs
the radial pair (u, K), and checks the identities and bounds the
construction must satisfy.
"""

__version__ = "0.1.0"

from .closed_forms import (AsymptoticData, BoundsReport, ETA_CRIT_UPPER,
                           explicit_bounds, free_motion_expansion, lncosh,
                           t0_state_bounds, xi_subsolution, xi_supersolution)
from .dynamics import PhasePoint
from .geometry import (AsymptoticFit, RadialSolution, asymptotic_fit,
                       curvature_area_quadrature, pokhozaev_residual,
                       relative_pokhozaev_residual, theta_identities,
                       to_radial)
from .integrator import (NotConvergedError, Outcome, SolverConfig,
                         Trajectory, TrajectoryEvents, deflection,
                         deflection_of, integrate)
from .picard import (NewtonNotConvergedError, PicardRun, iterate_future,
                     iterate_past, monotonicity_report)
from .shooting import (BracketNotFoundError, ShootingResult, SweepRow, shoot,
                       sweep)
from .analysis import (GradientFlowResult, GradientFlowState, InflectionReport,
                       gradient_flow_run, inflection_diagnostics)
