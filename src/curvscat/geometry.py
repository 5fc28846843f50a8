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
rule; the past tail is the free past motion's (closed_forms.past_tails),
the future tail the impulse of the closed-form free leg from the last
sample, at the slope of the last two samples.  Momentum
balance along the run makes kappa = 2*pi*(1 - cos Theta) and
alpha = -2*sqrt(2)*pi*sin Theta exact identities, and both satisfy
alpha^2 = 2*kappa*(4*pi - kappa); the quadrature values are computed
independently precisely so those identities can be checked.

The logarithmic tails u ~ -(kappa/2pi) ln r and K ~ -(alpha/2pi) ln r are
not fitted: after escape the motion is the closed-form free leg, and
asymptotic_fit reads its outgoing line (closed_forms.free_asymptote) from
the final sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .closed_forms import AsymptoticData, free_asymptote, free_leg, past_tails
from .integrator import Trajectory

_LN2_4 = 0.25 * math.log(2.0)
_SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
ALPHA_SUP = 2.0 ** 1.5 * math.pi


@dataclass(frozen=True)
class RadialSolution:
    """Log-uniform radial samples of (u, K) with derived scalars."""

    r_grid: np.ndarray
    u_values: np.ndarray
    k_values: np.ndarray
    kappa: float
    alpha: float
    k_star: float
    u_center: float
    asymptotics: AsymptoticData

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


def _simpson_pairs(y: np.ndarray, h: np.ndarray, stop: int) -> float:
    """Simpson's rule over the interval pairs (x_2i, x_2i+2) for 2i < stop,
    on spacings h = diff(x)."""
    h0 = h[0:stop:2]
    h1 = h[1:stop + 1:2]
    hsum = h0 + h1
    h0divh1 = h0 / h1
    tmp = hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / h0divh1)
                        + y[1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
                        + y[2:stop + 2:2] * (2.0 - h0divh1))
    return np.sum(tmp)


def simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson's rule for samples y at strictly increasing x.

    The irregular-grid rule of scipy.integrate.simpson (scipy 1.17) for 1-D
    input, with the same arithmetic: Simpson's rule on interval pairs, and
    with an even number of samples Cartwright's correction for the last
    interval added to the rule on the pairs before it; two samples give the
    trapezoid.
    """
    n = len(y)
    if n == 2:
        return float(0.5 * (x[-1] - x[-2]) * (y[-1] + y[-2]))
    h = np.diff(x)
    if n % 2 == 1:
        return float(_simpson_pairs(y, h, n - 2))
    # 0-d arrays, as scipy's: their powers take numpy's ufunc loops
    h0, h1 = np.asarray(h[-2]), np.asarray(h[-1])
    alpha = (2 * h1 ** 2 + 3 * h0 * h1) / (6 * (h1 + h0))
    beta = (h1 ** 2 + 3.0 * h0 * h1) / (6 * h0)
    eta = 1 * h1 ** 3 / (6 * h0 * (h0 + h1))
    result = _simpson_pairs(y, h, n - 3)
    result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return float(result)


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
    area_past, _ = past_tails(float(t[0]), a)

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

    kappa = TWO_PI * (simpson(f_curv, t) + a.eta_in * area_past + curv_fut)
    alpha = _SQRT2 * math.pi * (simpson(f_area, t) + area_past + area_fut)
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
    # the quadrature's error grows with the grid step; no fixed step is
    # fine enough for every eta_in
    coarse = (f" on the grid dense_step = {traj.config.dense_step:g}; "
              "a smaller --dense-step resolves it")
    if not (TWO_PI < quad.kappa < FOUR_PI):
        raise ValueError(f"integral curvature {quad.kappa} outside (2*pi, 4*pi){coarse}")
    if not (0.0 < quad.alpha < ALPHA_SUP):
        raise ValueError(f"area {quad.alpha} outside (0, 2^(3/2)*pi){coarse}")
    a = traj.asymptotics
    return RadialSolution(
        r_grid=np.exp(t), u_values=u, k_values=K,
        kappa=quad.kappa, alpha=quad.alpha,
        k_star=_SQRT2 * a.eta_in, u_center=a.xi_in - _LN2_4,
        asymptotics=a,
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


def asymptotic_fit(traj: Trajectory) -> AsymptoticFit:
    """The logarithmic tails of u and K: the lines the free leg approaches.

    The final sample of an escaped run lies on the free leg, whose outgoing
    line closed_forms.free_asymptote gives in closed form.  In ln r = t the
    slopes are v_xi - 1 = -kappa/(2*pi) and sqrt(2)*v_eta = -alpha/(2*pi).
    """
    if not traj.escaped:
        raise ValueError("tail lines need an escaped trajectory")
    t = float(traj.t[-1])
    v_xi, p_xi, v_eta, p_eta = free_asymptote(
        (traj.xi[-1], traj.xi_dot[-1], traj.eta[-1], traj.eta_dot[-1]))
    return AsymptoticFit(
        u_slope=v_xi - 1.0, u_intercept=p_xi - v_xi * t - _LN2_4,
        k_slope=_SQRT2 * v_eta, k_intercept=_SQRT2 * (p_eta - v_eta * t),
    )
