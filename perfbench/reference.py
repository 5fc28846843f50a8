"""Independent deflection-angle reference for the benchmark's checks.

Integrates xi'' = -eta e^{2 xi}, eta'' = -e^{2 xi}/2 with scipy's DOP853 at
tight tolerances and imports nothing from curvscat, so a defect in the
package's integrator cannot hide in its own yardstick.

The start state is the free-motion expansion written out here: with
w = e^{2(xi_in + t)},

    xi = xi_in + t - eta_in w / 4,   xi' = 1 - eta_in w / 2,
    eta = eta_in - w / 8,            eta' = -w / 4,

which satisfies 2E = 1 up to O(w^2).  The run starts where w is about
e^-50 / eta_in and stops once the potential term eta e^{2 xi} has fallen
below 1e-18 on the outbound leg; the impulse the potential still imparts
after that is below 1e-15 even at the shallow end of the shooting range.
Theta does not depend on xi_in (a shift of xi_in is a time translation),
so the reference is computed at xi_in = 0 and cached per eta_in.
"""

from __future__ import annotations

import math

from scipy.integrate import solve_ivp

REL_TOL = 1e-13
ABS_TOL = 1e-15
POTENTIAL_TOL = 1e-18
MAX_DURATION = 1e5


def _rhs(t, y):
    e2 = math.exp(2.0 * y[0])
    return (y[1], -y[2] * e2, y[3], -0.5 * e2)


def _outbound_potential(t, y):
    if y[1] >= 0.0:
        return 1.0
    return abs(y[2] * math.exp(2.0 * y[0])) - POTENTIAL_TOL


_outbound_potential.terminal = True
_outbound_potential.direction = -1


def deflection_reference(eta_in: float) -> float:
    """Theta for asymptotic data (xi_in = 0, eta_in); raises if no escape."""
    if not eta_in > 0.0:
        raise ValueError(f"eta_in must be positive, got {eta_in}")
    t = -0.5 * math.log(eta_in) - 25.0
    w = math.exp(2.0 * t)
    y0 = [t - 0.25 * eta_in * w, 1.0 - 0.5 * eta_in * w,
          eta_in - 0.125 * w, -0.25 * w]
    sol = solve_ivp(_rhs, (t, t + MAX_DURATION), y0, method="DOP853",
                    rtol=REL_TOL, atol=ABS_TOL, events=[_outbound_potential])
    if sol.status != 1:
        raise RuntimeError(f"reference run for eta_in = {eta_in!r} did not escape: "
                           f"{sol.message}")
    y = sol.y[:, -1]
    return math.atan2(float(y[3]), float(y[1]))


class Reference:
    """Per-run cache of reference angles, keyed by eta_in."""

    def __init__(self):
        self._theta: dict[float, float] = {}

    def theta(self, eta_in: float) -> float:
        if eta_in not in self._theta:
            self._theta[eta_in] = deflection_reference(eta_in)
        return self._theta[eta_in]
