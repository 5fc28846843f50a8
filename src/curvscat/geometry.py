"""Radial surface reconstruction and its integral/asymptotic diagnostics.

A scattering trajectory maps to a radial conformal-factor/curvature pair on
r = exp(t):

    u(r) = xi(ln r) - ln r - ln(2)/4,      K(r) = sqrt(2) * eta(ln r),

which solves the radial system -(1/r)(r u')' = K e^{2u} and
-(1/r)(r K')' = e^{2u}.  The surface functionals reduce to one-dimensional
integrals over t:

    kappa = 2*pi   * I[eta * e^{2 xi}]      (integral curvature)
    alpha = sqrt(2)*pi * I[e^{2 xi}]        (total area)

with I[] over the whole line.  The sampled window is integrated by Simpson's
rule; the past tail uses the free-motion asymptotics of the integrand
(~ e^{2(xi_in+t)}), the future tail the impulse of the closed-form free leg
from the last sample, at the slope of the last two samples.  Momentum
balance along the run makes kappa = 2*pi*(1 - cos Theta) and
alpha = -2*sqrt(2)*pi*sin Theta exact identities, and both satisfy
alpha^2 = 2*kappa*(4*pi - kappa); the quadrature values are computed
independently precisely so those identities can be checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.integrate import simpson

from .closed_forms import AsymptoticData, free_leg
from .integrator import Trajectory

_LN2_4 = 0.25 * math.log(2.0)
_SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
ALPHA_SUP = 2.0 ** 1.5 * math.pi

#: tail-window fraction for the logarithmic tail fits
FIT_WINDOW_FRACTION = 0.3
#: required escape-leg depth beyond the eta = 0 crossing, in t units
MIN_TAIL_BEYOND_T0 = 10.0


class WindowTooShortError(ValueError):
    """Sampled range does not reach deep enough past the eta = 0 crossing."""


@dataclass(frozen=True)
class RadialSolution:
    """Log-uniform radial samples of (u, K) with derived scalars.

    center is the symmetry point in the plane, pinned to the origin; the
    translation freedom is pure bookkeeping in radial coordinates.
    """

    r_grid: np.ndarray
    u_values: np.ndarray
    k_values: np.ndarray
    kappa: float
    alpha: float
    k_star: float
    u_center: float
    asymptotics: AsymptoticData
    t0: float
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        for arr in (self.r_grid, self.u_values, self.k_values):
            arr.setflags(write=False)


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares tail fits of u and K against ln r."""

    u_slope: float
    u_intercept: float
    k_slope: float
    k_intercept: float
    fit_window: tuple[float, float]
    residual: float


class QuadratureResult(NamedTuple):
    kappa: float
    alpha: float


def _tail_arrays(traj: Trajectory):
    m = traj.uniform_mask
    return traj.t[m], traj.xi[m], traj.eta[m]


def curvature_area_quadrature(traj: Trajectory) -> QuadratureResult:
    """Integral curvature and area by windowed quadrature plus closed-form tails.

    Works on the trajectory's uniform samples.  Raises ValueError when the last two samples do not head
    outward (xi decreasing), since the future tail then does not decay.
    """
    t, xi, eta = _tail_arrays(traj)
    a = traj.asymptotics
    f_area = np.exp(2.0 * xi)
    f_curv = eta * f_area

    # past tail: integrand ~ e^{2(xi_in+t)} (area), eta_in*e^{2(xi_in+t)} (curvature)
    w0 = math.exp(2.0 * (a.xi_in + float(t[0])))
    area_past = 0.5 * w0
    curv_past = 0.5 * a.eta_in * w0

    # future tail: by the equations of motion the integrals are the free
    # leg's velocity changes, -(xi_dot(inf) - xi_dot_T) and -2*(eta_dot(inf) - eta_dot_T)
    h = float(t[-1] - t[-2])
    xi_dot_T = float(xi[-1] - xi[-2]) / h
    eta_dot_T = float(eta[-1] - eta[-2]) / h
    if not xi_dot_T < 0.0:
        raise ValueError(f"final xi slope {xi_dot_T} is not outgoing: no decaying future tail")
    _, xi_dot_inf, _, eta_dot_inf = free_leg((xi[-1], xi_dot_T, eta[-1], eta_dot_T), math.inf)
    curv_fut = xi_dot_T - float(xi_dot_inf)
    area_fut = 2.0 * (eta_dot_T - float(eta_dot_inf))

    kappa = TWO_PI * (float(simpson(f_curv, x=t)) + curv_past + curv_fut)
    alpha = _SQRT2 * math.pi * (float(simpson(f_area, x=t)) + area_past + area_fut)
    return QuadratureResult(kappa=kappa, alpha=alpha)


def to_radial(traj: Trajectory) -> RadialSolution:
    """Map an escaped trajectory to the radial pair (u(r), K(r)).

    K changes sign exactly at r = exp(t0).  K(0) extrapolates to
    sqrt(2)*eta_in and u(0) to xi_in - ln(2)/4.
    """
    if not traj.escaped:
        raise ValueError("radial reconstruction needs an escaped trajectory")
    if traj.events.t0 is None:
        raise ValueError("radial reconstruction needs the eta = 0 crossing event")
    t, xi, eta = _tail_arrays(traj)
    u = xi - t - _LN2_4
    K = _SQRT2 * eta
    if not (np.all(np.diff(u) < 0.0) and np.all(np.diff(K) < 0.0)):
        raise ValueError("u and K must be strictly decreasing in r")
    quad = curvature_area_quadrature(traj)
    if not (TWO_PI < quad.kappa < FOUR_PI):
        raise ValueError(f"integral curvature {quad.kappa} outside (2*pi, 4*pi)")
    if not (0.0 < quad.alpha < ALPHA_SUP):
        raise ValueError(f"area {quad.alpha} outside (0, 2^(3/2)*pi)")
    a = traj.asymptotics
    return RadialSolution(
        r_grid=np.exp(t), u_values=u, k_values=K,
        kappa=quad.kappa, alpha=quad.alpha,
        k_star=_SQRT2 * a.eta_in, u_center=a.xi_in - _LN2_4,
        asymptotics=a, t0=float(traj.events.t0),
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


def asymptotic_fit(sol: RadialSolution) -> AsymptoticFit:
    """Fit the logarithmic tails of u and K over the last window of the grid.

    Slopes reproduce -kappa/(2*pi) and -alpha/(2*pi).  Requires the sampled
    range to extend at least MIN_TAIL_BEYOND_T0 past the K sign change.
    """
    t = np.log(sol.r_grid)
    if float(t[-1]) < sol.t0 + MIN_TAIL_BEYOND_T0:
        raise WindowTooShortError(
            f"tail ends at t = {float(t[-1]):.3f}, need t0 + {MIN_TAIL_BEYOND_T0:g} "
            f"= {sol.t0 + MIN_TAIL_BEYOND_T0:.3f}")
    n = len(t)
    i0 = int((1.0 - FIT_WINDOW_FRACTION) * n)
    tw = t[i0:]
    us, ui = np.polyfit(tw, sol.u_values[i0:], 1)
    ks, ki = np.polyfit(tw, sol.k_values[i0:], 1)
    ru = sol.u_values[i0:] - (us * tw + ui)
    rk = sol.k_values[i0:] - (ks * tw + ki)
    residual = float(max(np.sqrt(np.mean(ru**2)), np.sqrt(np.mean(rk**2))))
    return AsymptoticFit(
        u_slope=float(us), u_intercept=float(ui),
        k_slope=float(ks), k_intercept=float(ki),
        fit_window=(float(sol.r_grid[i0]), float(sol.r_grid[-1])),
        residual=residual,
    )


def scale_radial(sol: RadialSolution, k: float) -> RadialSolution:
    """Apply the scaling covariance r -> r/k, u -> u + ln k (K unchanged).

    kappa and alpha are invariant; the asymptotic echo shifts to
    xi_in + ln k because the map is a time translation of the underlying run.
    """
    if not k > 0.0:
        raise ValueError("scale factor must be positive")
    lk = math.log(k)
    a = sol.asymptotics
    return replace(
        sol,
        r_grid=sol.r_grid / k,
        u_values=sol.u_values + lk,
        u_center=sol.u_center + lk,
        asymptotics=AsymptoticData(a.xi_in + lk, a.eta_in),
        t0=sol.t0 - lk,
    )

