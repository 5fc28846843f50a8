"""Diagnostics mirroring the convergence machinery: the gradient-flow
recurrence that `flow` runs and the convexity check that `verify` runs.

The future-zone linear-bound recurrence

    mu_{n+1} = mu_n + eps*(mu0 - delta*nu_n/mu_n^2 - mu_n)
    nu_{n+1} = nu_n + eps*(nu0 + delta/mu_n      - nu_n)

is forward Euler for the gradient flow of
W(mu, nu) = ((mu-mu0)^2 + (nu-nu0)^2)/2 - delta*nu/mu, run in the open
quadrant mu < 0, nu < 0 from its anchor (mu0, nu0) on the unit circle.

Trajectory convexity: g(t) = xi_dot - 2*eta*eta_dot equals
1 - 2*int eta_dot^2 and decreases strictly, so it changes sign exactly once;
the crossing level eta_sim splits the path xi = f(eta) into a strictly
concave part (eta > eta_sim) and a strictly convex part (eta < eta_sim),
with f'' = e^{2 xi} (xi_dot - 2 eta eta_dot) / (2 eta_dot^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .integrator import Trajectory


# --- gradient-flow recurrence ---------------------------------------------

DEFAULT_EPSILON = 0.1
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100000


@dataclass(frozen=True)
class GradientFlowState:
    """The recurrence's inputs: the anchor's mu0, the coupling delta and the
    damping epsilon.  The anchor (mu0, nu0) sits on the unit circle in the
    open quadrant, so mu0 lies in (-1, 0)."""

    mu0: float
    delta: float
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if not (-1.0 < self.mu0 < 0.0):
            raise ValueError(f"mu0 must lie in (-1, 0), got {self.mu0!r}")
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise ValueError(f"delta must be finite and nonnegative, got {self.delta!r}")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")

    @property
    def nu0(self) -> float:
        """The anchor's nu0 = -sqrt(1 - mu0^2), on the unit circle."""
        return -math.sqrt(1.0 - self.mu0 * self.mu0)


def potential_gradient(s: GradientFlowState, mu: float, nu: float) -> tuple[float, float]:
    """Grad W = (mu - mu0 + delta*nu/mu^2, nu - nu0 - delta/mu)."""
    return (mu - s.mu0 + s.delta * nu / mu**2,
            nu - s.nu0 - s.delta / mu)


@dataclass
class GradientFlowResult:
    fixed_point: tuple[float, float]
    iterations: int
    stayed_in_quadrant: bool
    converged: bool
    grad_norm: float
    history: list[tuple[float, float, float]] = field(default_factory=list)


def gradient_flow_run(s0: GradientFlowState, tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> GradientFlowResult:
    """Run the damped recurrence from the anchor until ||Grad W|| <= tol.

    If an iterate leaves the open quadrant mu < 0, nu < 0 (coupling too
    large for the anchor), the run stops with stayed_in_quadrant False;
    callers probing the exit threshold treat that as a normal outcome.
    history holds (mu, nu, ||Grad W||) of each iterate tested against tol,
    and the run ends on the last of them: after max_iter steps it stops
    there, unconverged.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be at least 0, got {max_iter}")
    mu, nu = s0.mu0, s0.nu0
    history: list[tuple[float, float, float]] = []
    for n in range(max_iter + 1):
        gmu, gnu = potential_gradient(s0, mu, nu)
        gn = math.hypot(gmu, gnu)
        history.append((mu, nu, gn))
        if gn <= tol:
            return GradientFlowResult((mu, nu), n, True, True, gn, history)
        mu_next = mu - s0.epsilon * gmu
        nu_next = nu - s0.epsilon * gnu
        if mu_next >= 0.0 or nu_next >= 0.0:
            return GradientFlowResult((mu, nu), n, False, False, gn, history)
        mu, nu = mu_next, nu_next
    mu, nu, gn = history[-1]
    return GradientFlowResult((mu, nu), max_iter, True, False, gn, history)


# --- trajectory convexity diagnostics --------------------------------------


@dataclass(frozen=True)
class InflectionReport:
    eta_sim: float
    sign_pattern_ok: bool
    g_start: float
    crossings: int      # sign changes of g between samples, either way
    max_rise: float     # the largest increase of g between samples


def g_values(traj: Trajectory) -> np.ndarray:
    """g(t) = xi_dot - 2*eta*eta_dot along the samples.

    Starts at 1 (the integral term vanishes in the far past) and decreases
    strictly; its derivative is -2*eta_dot^2.
    """
    return traj.xi_dot - 2.0 * traj.eta * traj.eta_dot


def inflection_diagnostics(traj: Trajectory) -> InflectionReport:
    """Count the sign changes of g, locate the first and check the convexity.

    eta_sim is the eta level at the first crossing; below it the path
    xi = f(eta) is strictly convex, above it strictly concave.  Raises
    ValueError when no crossing is found (not expected on accepted runs).
    """
    g = g_values(traj)
    down = np.nonzero((g[:-1] > 0.0) & (g[1:] <= 0.0))[0]
    up = int(np.count_nonzero((g[:-1] < 0.0) & (g[1:] >= 0.0)))
    if len(down) == 0:
        raise ValueError("no sign change of xi_dot - 2*eta*eta_dot found")
    k = int(down[0])
    # linear interpolation of the crossing
    frac = g[k] / (g[k] - g[k + 1])
    eta_sim = float(traj.eta[k] + frac * (traj.eta[k + 1] - traj.eta[k]))

    # sign of f'' = e^{2 xi} g / (2 eta_dot^3); e^{2 xi} > 0 is left out
    # because it underflows to 0 on the late samples of long runs
    f2_sign = np.sign(g) * np.sign(traj.eta_dot)
    # skip a narrow band around the crossing where the sign is not resolved
    band = 1e-9 * max(1.0, abs(traj.asymptotics.eta_in))
    above = traj.eta > eta_sim + band
    below = traj.eta < eta_sim - band
    ok = bool(np.all(f2_sign[above] < 0.0) and np.all(f2_sign[below] > 0.0))
    return InflectionReport(eta_sim=eta_sim, sign_pattern_ok=ok,
                            g_start=float(g[0]), crossings=len(down) + up,
                            max_rise=float(np.diff(g).max()))
