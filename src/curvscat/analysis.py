"""Diagnostics mirroring the uniqueness and convergence machinery.

Linearizing the motion around a base point (xi1, eta2, phi) gives a first
order system whose characteristic polynomial is

    P(lambda) = lambda^4 + 2*eta2*e^{2 phi} lambda^2 - e^{2 phi + 2 xi1},

a quadratic in lambda^2 with one positive and one negative root (their
product is -e^{2 phi + 2 xi1} < 0), hence two real and two purely imaginary
eigenvalues.  The roots are computed in e^{2 phi}-factored form: for late
samples of long runs the unfactored product underflows while the factored
one stays representable.

The future-zone linear-bound recurrence

    mu_{n+1} = mu_n + eps*(mu0 - delta*nu_n/mu_n^2 - mu_n)
    nu_{n+1} = nu_n + eps*(nu0 + delta/mu_n      - nu_n)

is forward Euler for the gradient flow of
W(mu, nu) = ((mu-mu0)^2 + (nu-nu0)^2)/2 - delta*nu/mu, run in the open
quadrant mu < 0, nu < 0 from an anchor on the unit circle.

Trajectory convexity: g(t) = xi_dot - 2*eta*eta_dot equals
1 - 2*int eta_dot^2 and decreases strictly, so it changes sign exactly once;
the crossing level eta_sim splits the path xi = f(eta) into a strictly
concave part (eta > eta_sim) and a strictly convex part (eta < eta_sim),
with f'' = e^{2 xi} (xi_dot - 2 eta eta_dot) / (2 eta_dot^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .integrator import Trajectory


@dataclass(frozen=True)
class SpectrumSample:
    """Eigenvalue data of the linearization at one base point.

    mu_plus/mu_minus are the lambda^2 roots; nu_plus/nu_minus the same roots
    with the e^{2 phi} factor removed, satisfying
    nu_plus * nu_minus = -e^{2(xi1 - phi)} exactly.  That product identity is
    the underflow-safe form of mu_plus * mu_minus = -e^{2 phi + 2 xi1} (equal
    to -1 on self-linearized trajectory samples, where xi1 = phi).
    """

    lambda_real: float
    lambda_imag: float
    mu_plus: float
    mu_minus: float
    nu_plus: float
    nu_minus: float
    xi1: float
    eta2: float
    phi: float
    t: float = 0.0


def linearization_spectrum(xi1: float, eta2: float, phi: float,
                           t: float = 0.0) -> SpectrumSample:
    """Roots of the linearization polynomial at a base point.

    Substituting lambda^2 = e^{2 phi} nu reduces the polynomial to
    nu^2 + 2*eta2*nu - e^{2(xi1 - phi)} = 0, solved with the
    cancellation-free quadratic formula before restoring the factor.
    """
    c = math.exp(2.0 * (xi1 - phi))
    s = math.hypot(eta2, math.sqrt(c))
    if eta2 >= 0.0:
        nu_minus = -(eta2 + s)
        nu_plus = -c / nu_minus
    else:
        nu_plus = -eta2 + s
        nu_minus = -c / nu_plus
    e2p = math.exp(2.0 * phi)
    ep = math.exp(phi)
    return SpectrumSample(
        lambda_real=ep * math.sqrt(nu_plus),
        lambda_imag=ep * math.sqrt(-nu_minus),
        mu_plus=e2p * nu_plus,
        mu_minus=e2p * nu_minus,
        nu_plus=nu_plus,
        nu_minus=nu_minus,
        xi1=xi1, eta2=eta2, phi=phi, t=t,
    )


def spectrum_along(traj: Trajectory) -> list[SpectrumSample]:
    """Self-linearization spectrum at every sample: xi1 = phi = xi, eta2 = eta."""
    return [
        linearization_spectrum(float(traj.xi[k]), float(traj.eta[k]),
                               float(traj.xi[k]), t=float(traj.t[k]))
        for k in range(len(traj))
    ]


# --- gradient-flow recurrence ---------------------------------------------


@dataclass(frozen=True)
class GradientFlowState:
    """Recurrence state with anchor (mu0, nu0) on the unit circle."""

    mu: float
    nu: float
    mu0: float
    nu0: float
    delta: float
    epsilon: float

    def __post_init__(self):
        if abs(self.mu0**2 + self.nu0**2 - 1.0) > 1e-12:
            raise ValueError("anchor (mu0, nu0) must sit on the unit circle")
        if self.delta < 0.0:
            raise ValueError("delta must be nonnegative")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")

    @classmethod
    def from_anchor(cls, mu0: float, delta: float, epsilon: float = 0.1,
                    nu0: Optional[float] = None) -> "GradientFlowState":
        """Start at the anchor; nu0 defaults to the circle point -sqrt(1-mu0^2)."""
        if nu0 is None:
            nu0 = -math.sqrt(max(0.0, 1.0 - mu0 * mu0))
        return cls(mu=mu0, nu=nu0, mu0=mu0, nu0=nu0, delta=delta, epsilon=epsilon)


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


def gradient_flow_run(s0: GradientFlowState, tol: float = 1e-10,
                      max_iter: int = 100000,
                      keep_history: bool = False) -> GradientFlowResult:
    """Run the damped recurrence until ||Grad W|| <= tol.

    Requires the start point in the open quadrant mu < 0, nu < 0.  If an
    iterate leaves the quadrant (coupling too large for the anchor), the run
    stops with stayed_in_quadrant False; callers probing the exit threshold
    treat that as a normal outcome.
    """
    if not (s0.mu < 0.0 and s0.nu < 0.0):
        raise ValueError("start point must lie in the open quadrant mu < 0, nu < 0")
    mu, nu = s0.mu, s0.nu
    history: list[tuple[float, float, float]] = []
    for n in range(max_iter + 1):
        gmu, gnu = potential_gradient(s0, mu, nu)
        gn = math.hypot(gmu, gnu)
        if keep_history:
            history.append((mu, nu, gn))
        if gn <= tol:
            return GradientFlowResult((mu, nu), n, True, True, gn, history)
        mu_next = mu - s0.epsilon * gmu
        nu_next = nu - s0.epsilon * gnu
        if mu_next >= 0.0 or nu_next >= 0.0:
            return GradientFlowResult((mu, nu), n, False, False, gn, history)
        mu, nu = mu_next, nu_next
    gmu, gnu = potential_gradient(s0, mu, nu)
    return GradientFlowResult((mu, nu), max_iter, True, False,
                              math.hypot(gmu, gnu), history)


def estimate_delta0(mu0: float, nu0: Optional[float] = None,
                    epsilon: float = 0.1, tol: float = 1e-10,
                    max_iter: int = 100000, bisections: int = 40) -> float:
    """Empirical quadrant-exit threshold delta0 for a given anchor.

    No closed form is available; the threshold is bracketed by doubling from
    a conservative seed and then bisected.  Returns the bracket midpoint.
    """
    def stays(delta: float) -> bool:
        s = GradientFlowState.from_anchor(mu0, delta, epsilon, nu0)
        r = gradient_flow_run(s, tol=tol, max_iter=max_iter)
        return r.stayed_in_quadrant and r.converged

    lo = 1e-3 * abs(mu0) ** 3
    if not stays(lo):
        lo_fail = lo
        lo = 0.0
        hi = lo_fail
    else:
        hi = lo
        while stays(hi):
            lo = hi
            hi *= 2.0
            if hi > 1e6:
                return lo  # no exit found below the cap
    for _ in range(bisections):
        mid = 0.5 * (lo + hi)
        if stays(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- trajectory convexity diagnostics --------------------------------------


@dataclass(frozen=True)
class InflectionReport:
    t_inflection: float
    eta_sim: float
    sign_pattern_ok: bool
    g_start: float


def g_values(traj: Trajectory) -> np.ndarray:
    """g(t) = xi_dot - 2*eta*eta_dot along the samples.

    Starts at 1 (the integral term vanishes in the far past) and decreases
    strictly; its derivative is -2*eta_dot^2.
    """
    return traj.xi_dot - 2.0 * traj.eta * traj.eta_dot


def inflection_diagnostics(traj: Trajectory) -> InflectionReport:
    """Locate the single sign change of g and check the convexity pattern.

    eta_sim is the eta level at the crossing; below it the path xi = f(eta)
    is strictly convex, above it strictly concave.  Raises ValueError when no
    crossing is found (not expected on accepted runs).
    """
    g = g_values(traj)
    down = np.nonzero((g[:-1] > 0.0) & (g[1:] <= 0.0))[0]
    if len(down) == 0:
        raise ValueError("no sign change of xi_dot - 2*eta*eta_dot found")
    k = int(down[0])
    # linear interpolation of the crossing
    frac = g[k] / (g[k] - g[k + 1])
    t_inf = float(traj.t[k] + frac * (traj.t[k + 1] - traj.t[k]))
    eta_sim = float(traj.eta[k] + frac * (traj.eta[k + 1] - traj.eta[k]))

    # sign of f'' = e^{2 xi} g / (2 eta_dot^3); e^{2 xi} > 0 is left out
    # because it underflows to 0 on the late samples of long runs
    f2_sign = np.sign(g) * np.sign(traj.eta_dot)
    # skip a narrow band around the crossing where the sign is not resolved
    band = 1e-9 * max(1.0, abs(traj.asymptotics.eta_in))
    above = traj.eta > eta_sim + band
    below = traj.eta < eta_sim - band
    ok = bool(np.all(f2_sign[above] < 0.0) and np.all(f2_sign[below] > 0.0))
    return InflectionReport(t_inflection=t_inf, eta_sim=eta_sim,
                            sign_pattern_ok=ok, g_start=float(g[0]))
