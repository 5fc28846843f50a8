"""Radial surface reconstruction and its integral/asymptotic diagnostics.

A scattering trajectory maps to a radial conformal-factor/curvature pair on
r = exp(t):

    u(r) = xi(ln r) - ln r - ln(2)/4,      K(r) = sqrt(2) * eta(ln r),

which solves the radial system -(1/r)(r u')' = K e^{2u} and
-(1/r)(r K')' = e^{2u}.  The surface functionals reduce to one-dimensional
integrals over t:

    kappa = 2*pi   * I[eta * e^{2 xi}]      (integral curvature)
    alpha = sqrt(2)*pi * I[e^{2 xi}]        (total area)

with I[] over the whole line.  The run's regular window (Trajectory.window)
is integrated by the composite Simpson rule for uniform spacing; the past
tail is the free past motion's (closed_forms.past_tails).
The future tail is momentum balance: by the equations of motion the
potential's impulse after the last regular sample T is the velocity change
from T to the outgoing line, xi_dot(T) - v_xi and 2*(eta_dot(T) - v_eta),
with the run's own velocities at T and the line's (v_xi, v_eta), which
closed_forms.free_asymptote gives at the escape state, where the deflection
angle is read.  The balance holds for any T, also one before escape.  It
makes kappa = 2*pi*(1 - cos Theta) and alpha = -2*sqrt(2)*pi*sin Theta
exact identities, and both satisfy alpha^2 = 2*kappa*(4*pi - kappa); the
window's quadrature is computed independently precisely so those
identities can be checked.

The logarithmic tails u ~ -(kappa/2pi) ln r and K ~ -(alpha/2pi) ln r are
not fitted: after escape the motion is the closed-form free leg, and
asymptotic_fit reads its outgoing line (closed_forms.free_asymptote) at the
escape state, as the deflection angle and the future tail are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .closed_forms import free_asymptote, past_tails
from .dynamics import exp_floored
from .integrator import Trajectory

_LN2_4 = 0.25 * math.log(2.0)
_SQRT2 = math.sqrt(2.0)
# a rise in u or K below this many ulp of its terms is round-off
_ROUNDOFF_ULPS = 4
TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
ALPHA_SUP = 2.0 ** 1.5 * math.pi
# the ln r range on which r = exp(t) is a normal finite double, ends included
_LN_R_RANGE = (math.log(np.finfo(float).tiny), math.log(np.finfo(float).max))


@dataclass(frozen=True)
class RadialSolution:
    """Log-uniform radial samples of (u, K) with derived scalars."""

    r_grid: np.ndarray
    u_values: np.ndarray
    k_values: np.ndarray
    kappa: float
    alpha: float
    k_star: float

    def __post_init__(self):
        for arr in (self.r_grid, self.u_values, self.k_values):
            arr.setflags(write=False)


@dataclass(frozen=True)
class AsymptoticFit:
    """Tail lines u ~ u_slope*ln r + u_intercept, K ~ k_slope*ln r + k_intercept."""

    u_slope: float
    u_intercept: float
    k_slope: float
    k_intercept: float


class QuadratureResult(NamedTuple):
    kappa: float
    alpha: float


def simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson's rule for samples y at uniform spacing h.

    h/3*(y0 + 4*(y1 + y3 + ...) + 2*(y2 + y4 + ...) + yN) over an odd number
    of samples.  With an even number, the rule runs over all but the last
    sample, and Cartwright's end term h*(5*y[-1] + 8*y[-2] - y[-3])/12, the
    parabola through the last three samples, adds the last interval, as
    scipy.integrate.simpson does; two samples give the trapezoid.
    """
    if len(y) == 2:
        return float(0.5 * h * (y[0] + y[1]))
    end = 0.0
    if len(y) % 2 == 0:
        end = h * (5.0 * y[-1] + 8.0 * y[-2] - y[-3]) / 12.0
        y = y[:-1]
    inner = 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2])
    return float(h / 3.0 * (y[0] + inner + y[-1]) + end)


def curvature_area_quadrature(traj: Trajectory) -> QuadratureResult:
    """Integral curvature and area of an escaped trajectory, by Simpson's
    rule on its regular window plus the closed-form past tail and the
    momentum balance after the window's last sample.

    e^{2 xi} is dynamics.exp_floored's: the samples where the floor acts
    add terms far below an ulp of the sums, as unfloored.
    """
    if not traj.escaped:
        raise ValueError("the quadrature needs an escaped trajectory")
    t, xi, eta, xi_dot, eta_dot = traj.window
    h = float(t[-1] - t[0]) / max(len(t) - 1, 1)    # one sample: h = 0, no area
    a = traj.asymptotics
    f_area = exp_floored(2.0 * xi)
    f_curv = eta * f_area

    # past tail: integrand ~ e^{2(xi_in+t)} (area), eta_in*e^{2(xi_in+t)} (curvature)
    area_past, _ = past_tails(float(t[0]), a)

    # future tail: xi'' = -eta*e^{2 xi} and eta'' = -e^{2 xi}/2, so the
    # integrals after T are the velocity changes from T to the outgoing line
    e = traj.events.escape
    v_xi, _, v_eta, _ = free_asymptote((e.xi, e.xi_dot, e.eta, e.eta_dot))
    curv_fut = float(xi_dot[-1]) - v_xi
    area_fut = 2.0 * (float(eta_dot[-1]) - v_eta)

    kappa = TWO_PI * (simpson(f_curv, h) + a.eta_in * area_past + curv_fut)
    alpha = _SQRT2 * math.pi * (simpson(f_area, h) + area_past + area_fut)
    return QuadratureResult(kappa=kappa, alpha=alpha)


def to_radial(traj: Trajectory) -> RadialSolution:
    """Map an escaped trajectory to the radial pair (u(r), K(r)).

    K changes sign exactly at r = exp(t0).  K(0) extrapolates to
    sqrt(2)*eta_in and u(0) to xi_in - ln(2)/4.  A window whose r = exp(t)
    is not a normal finite double raises ValueError.  u and K must decrease
    in r; near the start both are flat to round-off, so only a rise beyond a
    few ulp of their terms raises ValueError.
    """
    if not traj.escaped:
        raise ValueError("radial reconstruction needs an escaped trajectory")
    if traj.events.t0 is None:
        raise ValueError("radial reconstruction needs the eta = 0 crossing event")
    t, xi, eta, _, _ = traj.window
    if not _LN_R_RANGE[0] <= t[0] <= t[-1] <= _LN_R_RANGE[1]:
        raise ValueError(f"the window ln r in [{t[0]:.6g}, {t[-1]:.6g}] leaves "
                         f"[{_LN_R_RANGE[0]:.6g}, {_LN_R_RANGE[1]:.6g}], where "
                         "r = exp(ln r) is a normal double: radial data there "
                         "needs r stored as ln r (ROADMAP item 5)")
    # the quadrature's error grows with the grid step; no fixed step is
    # fine enough for every eta_in
    coarse = (f" on the grid dense_step = {traj.config.dense_step:g}; "
              "a smaller --dense-step resolves it")
    if len(t) < 2:
        raise ValueError(f"one regular sample is too few for the quadrature{coarse}")
    u = xi - t - _LN2_4
    K = _SQRT2 * eta
    u_terms = max(float(np.max(np.abs(xi))), abs(t[0]), abs(t[-1])) + _LN2_4
    for name, v, terms in (("u", u, u_terms), ("K", K, float(np.max(np.abs(K))))):
        rise = np.diff(v)
        k = int(np.argmax(rise))
        if not rise[k] <= _ROUNDOFF_ULPS * np.finfo(float).eps * terms:
            raise ValueError(f"{name} must decrease in r, but rises by "
                             f"{rise[k]:.3g} at ln r = {t[k + 1]:.12g}")
    quad = curvature_area_quadrature(traj)
    if not (TWO_PI < quad.kappa < FOUR_PI):
        raise ValueError(f"integral curvature {quad.kappa} outside (2*pi, 4*pi){coarse}")
    if not (0.0 < quad.alpha < ALPHA_SUP):
        raise ValueError(f"area {quad.alpha} outside (0, 2^(3/2)*pi){coarse}")
    a = traj.asymptotics
    return RadialSolution(
        r_grid=np.exp(t), u_values=u, k_values=K,
        kappa=quad.kappa, alpha=quad.alpha,
        k_star=_SQRT2 * a.eta_in,
    )


def theta_identities(theta: float) -> tuple[float, float]:
    """(kappa, alpha) determined by the deflection angle alone.

    kappa = 2*pi*(1 - cos theta), alpha = 2*sqrt(2)*pi*|sin theta|; the pair
    satisfies alpha^2 = 2*kappa*(4*pi - kappa) identically.
    """
    if not (-math.pi < theta < -0.5 * math.pi):
        raise ValueError(f"theta must lie in (-pi, -pi/2), got {theta}")
    return TWO_PI * (1.0 - math.cos(theta)), 2.0 * _SQRT2 * math.pi * abs(math.sin(theta))


def pokhozaev_residual(kappa: float, alpha: float) -> float:
    """Residual alpha^2 - 2*kappa*(4*pi - kappa) of the area/curvature identity."""
    return alpha**2 - 2.0 * kappa * (FOUR_PI - kappa)


def relative_pokhozaev_residual(kappa: float, alpha: float) -> float:
    """|pokhozaev_residual| over 16*pi^2."""
    return abs(pokhozaev_residual(kappa, alpha)) / (16.0 * math.pi**2)


def pde_residual(sol: RadialSolution) -> tuple[float, float]:
    """Max-norm residuals of the radial system by centered differences.

    Worked in t = ln r, where the system is exactly
    xi'' + eta*e^{2 xi} = 0 and eta'' + e^{2 xi}/2 = 0 for
    xi = u + t + ln(2)/4, eta = K/sqrt(2).  Second order: halving the grid
    step divides the residuals by about 4.
    """
    if len(sol.r_grid) < 5:
        raise ValueError("grid too coarse: need at least 5 points")
    t = np.log(sol.r_grid)
    h = np.diff(t)
    if not np.allclose(h, h[0], rtol=1e-8, atol=1e-12):
        raise ValueError("grid must be log-uniform")
    h = float(h[0])
    xi = sol.u_values + t + _LN2_4
    eta = sol.k_values / _SQRT2
    e2 = np.exp(2.0 * xi[1:-1])
    d2xi = (xi[2:] - 2.0 * xi[1:-1] + xi[:-2]) / h**2
    d2eta = (eta[2:] - 2.0 * eta[1:-1] + eta[:-2]) / h**2
    res_u = float(np.max(np.abs(d2xi + eta[1:-1] * e2)))
    res_k = float(np.max(np.abs(d2eta + 0.5 * e2)))
    return res_u, res_k


def asymptotic_fit(traj: Trajectory) -> AsymptoticFit:
    """The logarithmic tails of u and K: the lines the free leg approaches.

    The free leg from the escape state, events.escape, approaches the
    outgoing line that closed_forms.free_asymptote gives in closed form, so
    the sampling window cannot move it.  In ln r = t the slopes are
    v_xi - 1 = -kappa/(2*pi) and sqrt(2)*v_eta = -alpha/(2*pi).
    """
    if not traj.escaped:
        raise ValueError("tail lines need an escaped trajectory")
    e = traj.events.escape
    t = e.t
    v_xi, p_xi, v_eta, p_eta = free_asymptote((e.xi, e.xi_dot, e.eta, e.eta_dot))
    return AsymptoticFit(
        u_slope=v_xi - 1.0, u_intercept=p_xi - v_xi * t - _LN2_4,
        k_slope=_SQRT2 * v_eta, k_intercept=_SQRT2 * (p_eta - v_eta * t),
    )
