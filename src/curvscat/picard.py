"""Fixed-point iteration schemes on discrete time grids.

Past zone (t below the explicit eta = 0 lower bound): the coupled integral
equations

    xi(t)  = xi_in + t - II[eta * e^{2 xi}](t)
    eta(t) = eta_in    - II[e^{2 xi}](t) / 2

with II[] the double integral from -infinity, are iterated starting from
eta_0 == eta_in.  Given the current eta, the xi equation is itself implicit;
its trapezoid discretisation is solved on the whole grid at once by Newton's
method.  Second differences turn each Newton system into a lower-triangular
banded one, solved in O(n) by LAPACK, and Newton stops once the update is at
roundoff.  Solving the discrete equation, rather than pasting in the
continuum closed form, keeps the discrete iterates monotone up to roundoff:
xi increases and eta decreases pointwise in the iteration index.  The
(-inf, t_min] tails are those of the free past motion
(closed_forms.past_tails), with error O(e^{4(xi_in+t_min)}); t_min defaults
to the integrator's start time, closed_forms.start_time.

Future zone (t above the eta = 0 crossing): the damped maps

    F_eps(X, Y) = X - eps*(X - linear_X + II_T0[Y e^{2X}])
    G_eps(X, Y) = Y - eps*(Y - linear_Y + II_T0[e^{2X}/2])

are iterated from the linear starting functions built from the crossing
state; X increases and Y decreases pointwise, and the limit solves the
equations of motion on [T0, t_max] with asymptotically linear behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .closed_forms import (AsymptoticData, explicit_bounds, past_tails,
                           start_time, xi_subsolution)
from .dynamics import PhasePoint


# Newton on the past-zone grid converges quadratically from a seed within
# O(h^2) (or one Picard step) of the solution, in at most four steps.
_NEWTON_MAX_STEPS = 20
_ROUNDOFF_ULPS = 16
# largest |eta| at which iterate_future takes p0 for an eta = 0 crossing state
_ETA_TOL = 1e-6


class NewtonNotConvergedError(RuntimeError):
    """Raised when the grid Newton solve of the past-zone xi equation stalls."""


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Values of one scalar function on a uniform time grid."""

    t_min: float
    t_max: float
    step: float
    values: np.ndarray

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        n = int(round((self.t_max - self.t_min) / self.step))
        if len(self.values) != n + 1:
            raise ValueError(
                f"expected {n + 1} values on [{self.t_min}, {self.t_max}] "
                f"at step {self.step}, got {len(self.values)}")
        self.values.setflags(write=False)

    @property
    def t(self) -> np.ndarray:
        return self.t_min + self.step * np.arange(len(self.values))


@dataclass
class PicardRun:
    """Iterate ladder of one fixed-point run.

    For the past zone, iterates_xi/iterates_eta hold the xi and eta ladders;
    for the future zone they hold the X and Y ladders (same orientation:
    the first component increases, the second decreases).
    """

    iterates_xi: list[GridFunction]
    iterates_eta: list[GridFunction]
    converged: bool
    sup_diff_history: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class MonotonicityReport:
    ordered: bool
    worst_violation: float
    node: int


def _cumtrapz(values: np.ndarray, step: float, initial: float,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """Cumulative trapezoid integrals from initial along the last axis."""
    if out is None:
        out = np.empty_like(values)
    out[..., 0] = initial
    np.cumsum(0.5 * step * (values[..., 1:] + values[..., :-1]), axis=-1,
              out=out[..., 1:])
    out[..., 1:] += initial
    return out


def _march_xi(t: np.ndarray, eta: np.ndarray, a: AsymptoticData,
              step: float, seed: np.ndarray) -> np.ndarray:
    """Solve the discrete implicit xi equation for a fixed eta grid function.

    The discrete equation is x = xi_in + t - Q[eta*e^{2x}], with Q the
    trapezoid double integral from the free-motion tails at t_min.  It is
    solved on the whole grid by Newton's method started from seed.  Second
    differences of the Newton system J*delta = F (then x -= delta) leave a
    lower-triangular matrix with two subdiagonals (d = 2*eta*e^{2x}):

        row 0:   delta_0 = 0   (x_0 is explicit)
        row 1:   (h^2/4) d_0 delta_0 + (1 + (h^2/4) d_1) delta_1 = F_1
        row j:   (1 + (h^2/4) d_{j-2}) delta_{j-2}
                 + (-2 + (h^2/2) d_{j-1}) delta_{j-1}
                 + (1 + (h^2/4) d_j) delta_j = F_j - 2 F_{j-1} + F_{j-2}

    solved by forward substitution in one LAPACK call per step (dtbtrs, the
    triangular banded solve; the matrix is already triangular, so a general
    banded LU would only add pivoting work).  Newton stops once the residual
    F or the update is at roundoff, within 16 ulps of the largest term of
    the equation, so the result is the discrete solution to roundoff and the
    ladder built from it is monotone to roundoff.  Checking F first returns
    a seed that already solves the equation unchanged, so a converged ladder
    reaches an exact fixed point.  Raises NewtonNotConvergedError if neither
    is at roundoff after _NEWTON_MAX_STEPS steps.
    """
    # imported here, so that only commands that march load scipy.linalg
    from scipy.linalg.lapack import dtbtrs

    # inner and outer integral tails at t_min
    P0, Q0 = (a.eta_in * v for v in past_tails(float(t[0]), a))
    c = a.xi_in + t
    roundoff = (_ROUNDOFF_ULPS * np.finfo(float).eps
                * max(1.0, float(np.max(np.abs(c)))))
    xi = np.array(seed, dtype=float)
    xi[0] = c[0] - Q0
    n = len(t)
    ab = np.zeros((3, n), order="F")  # LAPACK lower band storage
    ab[0, 0] = 1.0
    rhs = np.empty(n)
    for _ in range(_NEWTON_MAX_STEPS):
        g = eta * np.exp(2.0 * xi)
        F = xi - c + _cumtrapz(_cumtrapz(g, step, P0), step, Q0)
        F[0] = 0.0  # x_0 is exact; its rounding residual must not propagate
        if float(np.max(np.abs(F))) <= roundoff:
            return xi
        rhs[:2] = F[:2]
        rhs[2:] = F[2:] - 2.0 * F[1:-1] + F[:-2]
        hd = 0.5 * step * step * g  # (h^2/4) * d
        ab[0, 1:] = 1.0 + hd[1:]
        ab[1, 0] = hd[0]
        ab[1, 1:-1] = 2.0 * hd[1:-1] - 2.0
        ab[2, :-2] = 1.0 + hd[:-2]
        delta, info = dtbtrs(ab, rhs, uplo="L")
        if info != 0:
            raise NewtonNotConvergedError(
                f"singular Newton matrix at node {info - 1}")
        xi -= delta
        if float(np.max(np.abs(delta))) <= roundoff:
            return xi
    raise NewtonNotConvergedError(
        f"grid Newton residual and update still above roundoff "
        f"({roundoff:.1e}) after {_NEWTON_MAX_STEPS} steps")


def _uniform_grid(t_lo: float, t_hi: float, step: float,
                  lo_name: str, hi_name: str) -> np.ndarray:
    """Nodes t_lo + k*step up to t_hi; at least 3, as the schemes need."""
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and positive, got {step}")
    if not (math.isfinite(t_lo) and math.isfinite(t_hi)):
        raise ValueError(f"{lo_name} = {t_lo} and {hi_name} = {t_hi} "
                         "must be finite")
    n = int(round((t_hi - t_lo) / step))
    if n < 2:
        raise ValueError(
            f"{hi_name} = {t_hi} leaves fewer than 3 grid nodes from "
            f"{lo_name} = {t_lo} at step {step}")
    return t_lo + step * np.arange(n + 1)


def _eta_update(t: np.ndarray, xi: np.ndarray, a: AsymptoticData,
                step: float) -> np.ndarray:
    P0, Q0 = past_tails(float(t[0]), a)
    P = _cumtrapz(np.exp(2.0 * xi), step, initial=P0)
    Q = _cumtrapz(P, step, initial=Q0)
    return a.eta_in - 0.5 * Q


def iterate_past(a: AsymptoticData, t_handoff: float, step: float,
                 tol: float = 1e-10, max_iter: int = 50,
                 t_min: Optional[float] = None) -> PicardRun:
    """Monotone fixed-point iteration on the past zone grid [t_min, t_handoff].

    t_handoff must not exceed the explicit eta = 0 lower bound (the zone
    where the monotone sandwich holds).  Stops when the summed sup-norm of
    consecutive differences drops to tol, or after max_iter new iterate
    pairs (converged flag False, final sup-difference in the history).
    Raises ValueError unless step is finite and positive and the grid holds
    at least 3 nodes, and NewtonNotConvergedError if an xi solve stalls.
    """
    if a.eta_in <= 0.0:
        raise ValueError("iterate_past needs eta_in > 0")
    t0_lower = explicit_bounds(a).t0_lower
    if t_handoff > t0_lower + 1e-12:
        raise ValueError(
            f"t_handoff = {t_handoff} beyond the monotone zone bound {t0_lower}")
    if t_min is None:
        t_min = start_time(a)
    t = _uniform_grid(t_min, t_handoff, step, "t_min", "t_handoff")
    t_hi = float(t[-1])

    def gf(values):
        return GridFunction(float(t_min), t_hi, step, values)

    eta = np.full(len(t), a.eta_in, dtype=float)
    xi = _march_xi(t, eta, a, step, seed=xi_subsolution(t, a))
    xis = [gf(xi)]
    etas = [gf(eta)]
    history: list[float] = []
    converged = False
    for _ in range(max_iter):
        eta_next = _eta_update(t, xi, a, step)
        xi_next = _march_xi(t, eta_next, a, step, seed=xi)
        d = float(np.max(np.abs(xi_next - xi)) + np.max(np.abs(eta_next - eta)))
        history.append(d)
        xi, eta = xi_next, eta_next
        xis.append(gf(xi))
        etas.append(gf(eta))
        if d <= tol:
            converged = True
            break
    return PicardRun(iterates_xi=xis, iterates_eta=etas,
                     converged=converged, sup_diff_history=history)


def iterate_future(p0: PhasePoint, t_max: float, step: float,
                   epsilon: float = 0.1, tol: float = 1e-10,
                   max_iter: int = 500) -> PicardRun:
    """Damped fixed-point iteration on [p0.t, t_max] from an eta = 0 state.

    p0 must be the eta = 0 crossing state, to |eta| <= 1e-6, with
    xi_dot < 0 and eta_dot in (-1, 0).  Raises ValueError if an iterate of
    the second component turns positive, which signals data outside the
    monotone regime, and unless step is finite and positive and the grid
    holds at least 3 nodes.
    """
    if abs(p0.eta) > _ETA_TOL:
        raise ValueError(f"p0.eta = {p0.eta} is not an eta = 0 crossing state")
    if not p0.xi_dot < 0.0:
        raise ValueError("need xi_dot < 0 at the crossing state")
    if not (-1.0 - 1e-9 < p0.eta_dot < 0.0):
        raise ValueError("need eta_dot in (-1, 0) at the crossing state")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    T0 = p0.t
    t = _uniform_grid(T0, t_max, step, "p0.t", "t_max")
    t_hi = float(t[-1])
    dt = t - T0
    # (X, Y) as the rows of one array: each iteration makes one pass per
    # operation over both components
    L = np.stack([p0.xi_dot * dt + p0.xi, p0.eta_dot * dt])

    def gf(values):
        return GridFunction(float(T0), t_hi, step, values)

    Z = L.copy()
    xs = [gf(Z[0])]
    ys = [gf(Z[1])]
    history: list[float] = []
    converged = False
    g, P, II = (np.empty_like(L) for _ in range(3))
    for _ in range(max_iter):
        # g = (Y e^{2X}, e^{2X}/2); II its double trapezoid integral from T0
        np.exp(2.0 * Z[0], out=g[1])
        np.multiply(Z[1], g[1], out=g[0])
        g[1] *= 0.5
        _cumtrapz(g, step, 0.0, P)
        _cumtrapz(P, step, 0.0, II)
        Z_next = Z - L
        Z_next += II
        Z_next *= epsilon
        np.subtract(Z, Z_next, out=Z_next)
        if np.max(Z_next[1]) > 0.0:
            raise ValueError("second component turned positive: data outside "
                             "the monotone regime")
        dX, dY = np.max(np.abs(Z_next - Z), axis=1)
        d = float(dX + dY)
        history.append(d)
        Z = Z_next
        xs.append(gf(Z[0]))
        ys.append(gf(Z[1]))
        if d <= tol:
            converged = True
            break
    return PicardRun(iterates_xi=xs, iterates_eta=ys,
                     converged=converged, sup_diff_history=history)


def monotonicity_report(run: PicardRun, allowance: float = 0.0) -> MonotonicityReport:
    """Scan consecutive iterates for ordering violations.

    The first ladder must not decrease, the second must not increase; the
    worst signed violation and its node index are reported.  A single-iterate
    run is vacuously ordered.
    """
    worst = 0.0
    node = -1
    for ladder, sign in ((run.iterates_xi, 1.0), (run.iterates_eta, -1.0)):
        for prev, nxt in zip(ladder, ladder[1:]):
            viol = sign * (prev.values - nxt.values)
            k = int(np.argmax(viol))
            if viol[k] > worst:
                worst, node = float(viol[k]), k
    return MonotonicityReport(ordered=worst <= allowance,
                              worst_violation=worst, node=node)
