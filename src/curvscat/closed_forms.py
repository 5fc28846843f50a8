"""Closed-form envelopes, explicit bounds, and the free legs of the motion.

For past-infinity data (xi_in, eta_in) with eta_in > 0 the zeroth iterate of
the past-zone fixed-point scheme has the closed form

    xi_sub(t) = -ln cosh(t + xi_in - ln(2/sqrt(eta_in))) - ln sqrt(eta_in)

which is a subsolution of xi, and the half-level supersolution is

    xi_sup(t) = -ln cosh(t + xi_in - ln(2 sqrt(2/eta_in))) - ln sqrt(eta_in/2),

valid as an upper bound while eta > eta_in/2.  Setting the n-independent
lower bound eta_in - exp(2*xi_in + 2*t)/8 to 0 and eta_in/2 yields the
explicit time bounds t0_lower and t_half_lower.

The motion is free in both limits: past_tails gives the integrals from -inf
of the free past motion, free_motion_expansion the start state built from
them at start_time, free_leg the motion after escape and free_asymptote the
line it approaches.  For large eta_in the whole deflection has a closed
form, deflection_deep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import PhasePoint, exp_floored

#: Upper estimate sqrt(2)*exp(arcosh 2) for the scattering-onset level of
#: eta_in; above it the position coordinate xi is guaranteed to attain an
#: interior maximum before the eta = 0 crossing.
ETA_CRIT_UPPER: float = math.sqrt(2.0) * (2.0 + math.sqrt(3.0))

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class AsymptoticData:
    """Past-infinity scattering data: xi - t -> xi_in, eta -> eta_in."""

    xi_in: float
    eta_in: float

    def __post_init__(self):
        if not (math.isfinite(self.xi_in) and math.isfinite(self.eta_in)):
            raise ValueError("asymptotic data must be finite")


@dataclass(frozen=True)
class BoundsReport:
    """Explicit lower bounds for event times."""

    t0_lower: float        # below the eta = 0 crossing time
    t_half_lower: float    # below the eta = eta_in/2 crossing time


def lncosh(z):
    """ln cosh z, overflow-safe: |z| - ln 2 + ln(1 + exp(-2|z|))."""
    z = np.abs(z)
    return z - _LN2 + np.log1p(np.exp(-2.0 * z))


def _require_positive_eta_in(a: AsymptoticData) -> None:
    if a.eta_in <= 0.0:
        raise ValueError(f"eta_in must be positive, got {a.eta_in}")


def xi_subsolution(t, a: AsymptoticData):
    """Closed-form lower envelope of xi(t), exact zeroth iterate."""
    _require_positive_eta_in(a)
    z = np.asarray(t, dtype=float) + a.xi_in - math.log(2.0 / math.sqrt(a.eta_in))
    out = -lncosh(z) - 0.5 * math.log(a.eta_in)
    return float(out) if np.isscalar(t) else out


def xi_supersolution(t, a: AsymptoticData):
    """Closed-form upper envelope of xi(t), valid while eta > eta_in/2."""
    _require_positive_eta_in(a)
    z = np.asarray(t, dtype=float) + a.xi_in - math.log(2.0 * math.sqrt(2.0 / a.eta_in))
    out = -lncosh(z) - 0.5 * math.log(0.5 * a.eta_in)
    return float(out) if np.isscalar(t) else out


def explicit_bounds(a: AsymptoticData) -> BoundsReport:
    """Explicit time bounds for the given data."""
    _require_positive_eta_in(a)
    e = a.eta_in
    return BoundsReport(
        t0_lower=math.log(2.0 * math.sqrt(2.0 * e)) - a.xi_in,
        t_half_lower=math.log(2.0 * math.sqrt(e)) - a.xi_in,
    )


def t0_state_bounds(a: AsymptoticData) -> tuple[float, float, float]:
    """Bounds on (xi, xi_dot, eta_dot) at the eta = 0 crossing time.

    Returns (xi_upper, xi_dot_upper, eta_dot_lower).  Valid in the regime
    eta_in > ETA_CRIT_UPPER where xi has an interior maximum before the
    crossing; xi_dot_upper is then negative.
    """
    _require_positive_eta_in(a)
    e = a.eta_in
    lc = float(lncosh(math.log(e / math.sqrt(2.0))))
    xi_upper = -lc - 0.5 * math.log(0.5 * e)
    xi_dot_upper = (-lc + 0.5 * _LN2) / math.log(e)
    eta_dot_lower = -math.sqrt(1.0 - ((lc - 0.5 * _LN2) / math.log(e)) ** 2)
    return xi_upper, xi_dot_upper, eta_dot_lower


def start_time(a: AsymptoticData) -> float:
    """Start of every run and of the past-zone grid: t0_lower - 14.

    There the expansion parameter eta_in*w of free_motion_expansion is
    5.5e-12*eta_in^2; above eta_in = 64 the start, -xi_in + ln(2^15/eta_in)/2
    - 14, holds it at its eta_in = 64 value, 2.3e-8.  Data with eta_in <= 0
    have no t0_lower and start at -xi_in - 14.
    """
    if a.eta_in <= 0.0:
        return -a.xi_in - 14.0
    if a.eta_in <= 64.0:
        return explicit_bounds(a).t0_lower - 14.0
    return -a.xi_in + 0.5 * math.log(2.0**15 / a.eta_in) - 14.0


def past_tails(t: float, a: AsymptoticData) -> tuple[float, float]:
    """(w/2, w/4), w = exp(2*(xi_in + t)): the integral and the double
    integral from -inf to t of exp(2*(xi_in + s)), the free past motion's
    exp(2*xi).  Their error against the true tails is O(eta_in*w^2)."""
    w = math.exp(2.0 * (a.xi_in + t))
    return 0.5 * w, 0.25 * w


def free_motion_expansion(t_start: float, a: AsymptoticData) -> PhasePoint:
    """Leading-order start state from the free past asymptotics, any eta_in.

    With (P, Q) = past_tails(t_start, a) = (w/2, w/4):
        xi      = xi_in + t_start - eta_in*Q
        eta     = eta_in - Q/2
        xi_dot  = 1 - eta_in*P
        eta_dot = -P/2
    The neglected terms are O((1 + eta_in^2)*w^2): second order in the
    expansion parameter eta_in*w once eta_in >= 1.
    """
    P, Q = past_tails(t_start, a)
    return PhasePoint(
        t=t_start,
        xi=a.xi_in + t_start - a.eta_in * Q,
        eta=a.eta_in - 0.5 * Q,
        xi_dot=1.0 - a.eta_in * P,
        eta_dot=-0.5 * P,
    )


def deflection_deep(eta_in):
    """Deep-end law Theta = -pi + 1/eta_in + (5/12)/eta_in^3 + O(eta_in^-5).

    With eps = 1/eta_in: eta_dot starts at 0 and eta'' = -exp(2*xi)/2, and
    the outgoing speed is 1, so pi + Theta = arcsin(I/2), I = int exp(2*xi) dt.

    Leading order, eta frozen at eta_in: xi'' = -eta_in*exp(2*xi) is the
    Liouville bounce xi = -ln cosh s - ln(eta_in)/2, s = t - t_m, so
    exp(2*xi) = sech^2(s)/eta_in and I = 2/eta_in; the eta velocity changes
    by -1/eta_in.

    Next order: during the bounce eta drifts by -(eps/2)*ln(1 + e^{2s}),
    which weakens the force on xi by that fraction of eta_in.  Writing
    xi = xi_0 + eps^2*chi, the response solves

        chi'' + 2 sech^2(s) chi = ln(1 + e^{2s}) sech^2(s) / 2,

    quiet as s -> -inf, and I = (2/eta_in)(1 + eps^2 * int sech^2 chi ds).
    Since 1/2 solves chi'' + 2 sech^2 chi = sech^2, Green's identity gives
    int sech^2 chi = (int of the right side)/2 - chi'(+inf)/2; with the
    Wronskian-1 pair tanh s, s*tanh s - 1, chi'(+inf) = int tanh(s) times
    the right side.  So int sech^2 chi = (1/4) int ln(1 + e^{2s}) sech^2(s)
    (1 - tanh s) ds = int_1^inf ln(v)/v^3 dv = 1/4 (v = 1 + e^{2s}), and

        pi + Theta = arcsin(eps + eps^3/4) = eps + (1/4 + 1/6) eps^3 + ...

    Measured against integrator.deflection_of, the remainder
    deflection - deflection_deep is 0.351-0.357/eta_in^5 for eta_in 8-64.
    """
    return -math.pi + 1.0 / eta_in + (5.0 / 12.0) / eta_in**3


def free_asymptote(y):
    """The line the free leg from escape state y = (xi0, a, eta0, b) approaches.

    Returns (v_xi, p_xi, v_eta, p_eta): the outgoing velocities and the
    limiting offsets, xi(s) - v_xi*s -> p_xi and eta(s) - v_eta*s -> p_eta
    as s -> inf.  With lam = -2a and E = exp(2*xi0), as in free_leg:

        v_xi  = a - E*(eta0/lam + b/lam^2),   p_xi  = xi0 + E*(eta0 + 2b/lam)/lam^2
        v_eta = b - E/(2 lam),                p_eta = eta0 + E/(2 lam^2)
    """
    xi0, a, eta0, b = (float(v) for v in y)
    lam = -2.0 * a
    E = math.exp(2.0 * xi0)
    return (a - E * (eta0 / lam + b / lam**2),
            xi0 + E * (eta0 + 2.0 * b / lam) / lam**2,
            b - 0.5 * E / lam,
            eta0 + 0.5 * E / lam**2)


def free_leg(y, s):
    """State (xi, xi_dot, eta, eta_dot) a finite time s >= 0 after escape
    state y.

    First order about the straight line from y = (xi0, a, eta0, b), a < 0:
    one undamped step of the future-zone map.  With lam = -2a,
    E = exp(2*xi0), q = exp(-lam*s), I0 = (1 - q)/lam, I1 = (I0 - s*q)/lam,
    J0 = (s - I0)/lam and J1 = (s - 2*I0 + s*q)/lam^2:

        xi  = xi0 + a*s - E*(eta0*J0 + b*J1),  xi_dot  = a - E*(eta0*I0 + b*I1)
        eta = eta0 + b*s - E*J0/2,             eta_dot = b - E*I0/2

    Positions are computed as lines at the outgoing velocity of
    free_asymptote plus bounded offsets; the limit s -> inf (I0 -> 1/lam,
    I1 -> 1/lam^2) is free_asymptote's line.  The neglected terms are second
    order in the potential eta*E.

    q is dynamics.exp_floored's, so the far tail makes no subnormal
    exponentials.  Wherever lam*s >= 700, 1 - q is 1 either way, and s*q
    stays below half an ulp of I0, so every sample keeps its bits.
    """
    xi0, a, eta0, b = (float(v) for v in y)
    lam = -2.0 * a
    E = math.exp(2.0 * xi0)
    v_xi, _, v_eta, _ = free_asymptote(y)
    s = np.asarray(s, dtype=float)
    q = exp_floored(-lam * s)
    sq = s * q
    I0 = (1.0 - q) / lam
    I1 = (I0 - sq) / lam
    return (xi0 + v_xi * s + E * (eta0 * I0 + b * (2.0 * I0 - sq) / lam) / lam,
            a - E * (eta0 * I0 + b * I1),
            eta0 + v_eta * s + 0.5 * E * I0 / lam,
            b - 0.5 * E * I0)
