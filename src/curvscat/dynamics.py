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
With E = exp(2*xi) they are polynomial (xi' = p, p' = -eta*E, eta' = q,
q' = -E/2, E' = 2*p*E), and the stepper (taylor) generates their Taylor
recurrence from that form.

The load parameter of the underlying plate problem is gauge-fixed to 1.
Other load values are reachable only through the homologous symmetry
xi -> xi + xi_h, t -> exp(-xi_h) t, which rescales the energy by
exp(2*xi_h); every run here stays in the gauge E = 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def energy_array(xi: np.ndarray, eta: np.ndarray,
                 xi_dot: np.ndarray, eta_dot: np.ndarray) -> np.ndarray:
    """Vectorized energy along sampled arrays.

    e^{2 xi} is floored at e^EXP_FLOOR (exp_floored).  Where the floor
    acts, |eta*e^{2 xi}| <= |eta|*1e-304, far below an ulp of
    xi_dot^2 + eta_dot^2 ~ 1, so the energy is the unfloored one to the bit.
    """
    return 0.5 * (xi_dot**2 + eta_dot**2 + eta * exp_floored(2.0 * xi))
