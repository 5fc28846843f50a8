"""Newtonian scattering dynamics behind the self-consistent curvature system.

A unit-mass particle at Cartesian position (xi, eta) moves in the fixed
external potential V(xi, eta) = eta * exp(2*xi) / 2, so the equations of
motion are

    xi''  = -eta * exp(2*xi)
    eta'' = -(1/2) * exp(2*xi)

with conserved total energy 2E = xi'^2 + eta'^2 + eta*exp(2*xi).  Every
admitted scattering motion has E = 1/2 exactly, which confines it to the
region eta < exp(-2*xi); the complement is the forbidden zone and its
boundary eta = exp(-2*xi) is the locus of zero-velocity (singular) points.
The equations are written once, as the source RHS_SHARED and RHS_SOURCE,
from which the stepper generates every evaluation of the right-hand side.

The load parameter of the underlying plate problem is gauge-fixed to 1
(``GAUGE_LOAD``).  Other load values are reachable only through the
homologous symmetry xi -> xi + xi_h, t -> exp(-xi_h) t, which rescales the
energy by exp(2*xi_h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Union

import numpy as np

if TYPE_CHECKING:  # only for annotations; Trajectory lives in integrator
    from .integrator import Trajectory

#: Load parameter of the plate equation, gauge-fixed.  Not a knob: general
#: loads are represented by applying the homologous symmetry to E = 1/2 runs.
GAUGE_LOAD: float = 1.0

#: Half-width of the forbidden zone's boundary band eta*exp(2*xi) = 1.
BOUNDARY_TOL: float = 1e-9


@dataclass(frozen=True)
class PhasePoint:
    """Instantaneous state (t, xi, eta, xi_dot, eta_dot) of the particle."""

    t: float
    xi: float
    eta: float
    xi_dot: float
    eta_dot: float

    def __post_init__(self):
        for name in ("t", "xi", "eta", "xi_dot", "eta_dot"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"PhasePoint field {name} must be finite, got {v!r}")


#: The right-hand side of the equations of motion in solver form, as
#: expression source over y = (xi, xi_dot, eta, eta_dot) for the stepper's
#: generated code (dop853.System): the shared e2 = exp(2*xi), then
#: (xi', xi'', eta', eta'').  The exponent is clamped at 700 (min(a, b)
#: being b if b < a else a) so that embedded-stage evaluations of a trial
#: step stay finite; the integrator stops non-scattering runs at the
#: certificate, long before xi nears the clamp.
RHS_SHARED = (("e2", "exp(700.0 if 700.0 < 2.0 * y0 else 2.0 * y0)"),)
RHS_SOURCE = ("y1", "-y2 * e2", "y3", "-0.5 * e2")

#: Floor on the exponent of the exponentials taken over sampled windows
#: (exp_floored).  Below about -708 np.exp returns subnormal results, which
#: cost some hundred times a normal one per element, and an escaped run's
#: window reaches 2*xi < -708 from eta_in ~ 19 on.  e^-700 ~ 1e-304 is
#: still a normal double, and at every site a floored value is absorbed:
#: added to terms of order 1, it is far below half an ulp of them.
EXP_FLOOR = -700.0


def exp_floored(x) -> np.ndarray:
    """e^x with the exponent x floored at EXP_FLOOR, in one new array."""
    x = np.asarray(x, dtype=float)
    out = np.maximum(x, EXP_FLOOR, out=np.empty_like(x))
    return np.exp(out, out=out)


# --- symmetry transformations -------------------------------------------------


@dataclass(frozen=True)
class TimeTranslate:
    t0: float


@dataclass(frozen=True)
class TimeReverse:
    pass


@dataclass(frozen=True)
class Homologous:
    xi_h: float


Symmetry = Union[TimeTranslate, TimeReverse, Homologous]


def transform_point(p: PhasePoint, s: Symmetry) -> PhasePoint:
    """Apply a symmetry to a single phase point."""
    if isinstance(s, TimeTranslate):
        return replace(p, t=p.t + s.t0)
    if isinstance(s, TimeReverse):
        return PhasePoint(-p.t, p.xi, p.eta, -p.xi_dot, -p.eta_dot)
    if isinstance(s, Homologous):
        scale = math.exp(s.xi_h)
        return PhasePoint(p.t / scale, p.xi + s.xi_h, p.eta,
                          p.xi_dot * scale, p.eta_dot * scale)
    raise TypeError(f"unknown symmetry {s!r}")


def apply_symmetry(traj: "Trajectory", s: Symmetry) -> "Trajectory":
    """Transform a whole trajectory under a symmetry of the equations of motion.

    Sample energies are unchanged by time translation and time reversal and
    scaled by exp(2*xi_h) under the homologous map; a mapped trajectory's
    drift is measured from E = 1/2.  Event times are remapped, and time
    reversal maps off-grid sample k of n to n-1-k.  The asymptotics field
    keeps echoing the data that generated the original samples (a reversed or
    homologously scaled trajectory is not in E = 1/2 scattering normal form).
    """
    from .integrator import Trajectory, TrajectoryEvents  # local: avoid cycle

    ev = traj.events

    def map_time(x):
        if x is None:
            return None
        if isinstance(s, TimeTranslate):
            return x + s.t0
        if isinstance(s, TimeReverse):
            return -x
        return x * math.exp(-s.xi_h)

    def map_point(p):
        return None if p is None else transform_point(p, s)

    new_ev = TrajectoryEvents(map_time(ev.t0), map_time(ev.t_half), map_time(ev.t_m),
                              map_point(ev.blowup), map_point(ev.escape))

    if isinstance(s, TimeTranslate):
        return replace(traj, t=traj.t + s.t0, events=new_ev)
    if isinstance(s, TimeReverse):
        sl = slice(None, None, -1)
        return replace(
            traj,
            t=-traj.t[sl],
            xi=traj.xi[sl].copy(),
            eta=traj.eta[sl].copy(),
            xi_dot=-traj.xi_dot[sl],
            eta_dot=-traj.eta_dot[sl],
            events=new_ev,
            off_grid=tuple(len(traj) - 1 - k for k in reversed(traj.off_grid)),
        )
    if isinstance(s, Homologous):
        scale = math.exp(s.xi_h)
        return replace(
            traj,
            t=traj.t / scale,
            xi=traj.xi + s.xi_h,
            xi_dot=traj.xi_dot * scale,
            eta_dot=traj.eta_dot * scale,
            events=new_ev,
        )
    raise TypeError(f"unknown symmetry {s!r}")


def energy_array(xi: np.ndarray, eta: np.ndarray,
                 xi_dot: np.ndarray, eta_dot: np.ndarray) -> np.ndarray:
    """Vectorized energy along sampled arrays.

    e^{2 xi} is floored at e^EXP_FLOOR (exp_floored).  Where the floor
    acts, |eta*e^{2 xi}| <= |eta|*1e-304, far below an ulp of
    xi_dot^2 + eta_dot^2 ~ 1, so the energy is the unfloored one to the bit.
    """
    return 0.5 * (xi_dot**2 + eta_dot**2 + eta * exp_floored(2.0 * xi))
