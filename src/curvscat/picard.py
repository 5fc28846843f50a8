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
from itertools import chain
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


def _trapezoid_sums(values: np.ndarray, step: float, out: np.ndarray,
                    pairs: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integrals from 0 along the last axis, into
    out[..., 1:]; out[..., 0] is left as it is.  pairs, one shorter along
    that axis, takes the trapezoids.  np.add.accumulate adds in np.cumsum's
    order, at less cost per call."""
    np.add(values[..., 1:], values[..., :-1], out=pairs)
    np.multiply(pairs, 0.5 * step, out=pairs)
    np.add.accumulate(pairs, axis=-1, out=out[..., 1:])
    return out


def _cumtrapz(values: np.ndarray, step: float, initial: float,
              out: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integrals from initial along the last axis, into
    out; pairs, one shorter along that axis, takes the trapezoids."""
    out[..., 0] = initial
    _trapezoid_sums(values, step, out, pairs)
    out[..., 1:] += initial
    return out


class _PastGrid:
    """The past-zone equations on one grid, with the work arrays that every
    march and eta update of an iterate_past run reuses.

    march(eta, seed) solves the discrete implicit xi equation for a fixed
    eta grid function; the discrete equation is x = xi_in + t - Q[eta*e^{2x}],
    with Q the trapezoid double integral from the free-motion tails at
    t_min.  It is solved on the whole grid by Newton's method started from
    seed.  Second differences of the Newton system J*delta = F (then
    x -= delta) leave a lower-triangular matrix with two subdiagonals
    (d = 2*eta*e^{2x}):

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
    reaches an exact fixed point; a NaN residual is never at roundoff.
    Raises NewtonNotConvergedError if neither is at roundoff after
    _NEWTON_MAX_STEPS steps.

    The arithmetic runs in the work arrays with out=, in the order of the
    plain expressions it replaces, so every iterate is the same to the bit.
    Only march's result and eta_update's are new arrays.
    """

    def __init__(self, t: np.ndarray, a: AsymptoticData, step: float):
        self.a, self.step = a, step
        # inner and outer integral tails at t_min, of e^{2 xi} and of eta*e^{2 xi}
        self.tails = past_tails(float(t[0]), a)
        self.P0, self.Q0 = (a.eta_in * v for v in self.tails)
        self.c = a.xi_in + t
        self.roundoff = (_ROUNDOFF_ULPS * np.finfo(float).eps
                         * max(1.0, float(np.max(np.abs(self.c)))))
        n = len(t)
        self.g, self.P, self.Q, self.F, self.rhs, self.hd = (np.empty(n) for _ in range(6))
        self.pairs = np.empty(n - 1)  # the trapezoids of one cumulative integral
        self.ab = np.zeros((3, n), order="F")  # LAPACK lower band storage
        self.ab[0, 0] = 1.0

    def _double_integral(self, values: np.ndarray, P0: float, Q0: float) -> np.ndarray:
        """Q: the trapezoid integral from Q0 of the one from P0 of values."""
        P = _cumtrapz(values, self.step, P0, self.P, self.pairs)
        return _cumtrapz(P, self.step, Q0, self.Q, self.pairs)

    def march(self, eta: np.ndarray, seed: np.ndarray) -> np.ndarray:
        # imported here, so that only commands that march load scipy.linalg
        from scipy.linalg.lapack import dtbtrs

        g, F, rhs, hd, ab = self.g, self.F, self.rhs, self.hd, self.ab
        xi = np.array(seed, dtype=float)
        xi[0] = self.c[0] - self.Q0
        for _ in range(_NEWTON_MAX_STEPS):
            # g = eta * e^{2 xi};  F = xi - c + Q[g]
            np.multiply(xi, 2.0, out=g)
            np.exp(g, out=g)
            np.multiply(eta, g, out=g)
            np.subtract(xi, self.c, out=F)
            F += self._double_integral(g, self.P0, self.Q0)
            F[0] = 0.0  # x_0 is exact; its rounding residual must not propagate
            if not _above_roundoff(F, hd, self.roundoff):
                return xi
            # rhs = F - 2 F_{-1} + F_{-2}
            rhs[:2] = F[:2]
            np.multiply(F[1:-1], 2.0, out=rhs[2:])
            np.subtract(F[2:], rhs[2:], out=rhs[2:])
            rhs[2:] += F[:-2]
            # hd = (h^2/4) * d
            np.multiply(g, 0.5 * self.step * self.step, out=hd)
            np.add(hd[1:], 1.0, out=ab[0, 1:])
            ab[1, 0] = hd[0]
            np.multiply(hd[1:-1], 2.0, out=ab[1, 1:-1])
            ab[1, 1:-1] -= 2.0
            np.add(hd[:-2], 1.0, out=ab[2, :-2])
            delta, info = dtbtrs(ab, rhs, uplo="L")
            if info != 0:
                raise NewtonNotConvergedError(
                    f"singular Newton matrix at node {info - 1}")
            xi -= delta
            if not _above_roundoff(delta, hd, self.roundoff):
                return xi
        raise NewtonNotConvergedError(
            f"grid Newton residual and update still above roundoff "
            f"({self.roundoff:.1e}) after {_NEWTON_MAX_STEPS} steps")

    def eta_update(self, xi: np.ndarray) -> np.ndarray:
        """eta_in - Q[e^{2 xi}]/2, from the free tails at t_min."""
        np.multiply(xi, 2.0, out=self.g)
        np.exp(self.g, out=self.g)
        Q = self._double_integral(self.g, *self.tails)
        return self.a.eta_in - 0.5 * Q


def _above_roundoff(x: np.ndarray, work: np.ndarray, roundoff: float) -> bool:
    """Whether max |x| exceeds roundoff or is NaN; work takes |x|."""
    np.abs(x, out=work)
    return not float(np.max(work)) <= roundoff


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

    grid = _PastGrid(t, a, step)
    eta = np.full(len(t), a.eta_in, dtype=float)
    xi = grid.march(eta, seed=xi_subsolution(t, a))
    xis = [gf(xi)]
    etas = [gf(eta)]
    history: list[float] = []
    converged = False
    for _ in range(max_iter):
        eta_next = grid.eta_update(xi)
        xi_next = grid.march(eta_next, seed=xi)
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

    Each iteration makes one pass per operation over both components, in
    work arrays allocated once; only the new iterate is a new array.  The
    integrals start from 0 at T0, so their first column is set once.
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
    g, P, II, diff = (np.empty_like(L) for _ in range(4))
    pairs = np.empty((2, len(t) - 1))
    P[:, 0] = II[:, 0] = 0.0
    for _ in range(max_iter):
        # g = (Y e^{2X}, e^{2X}/2); II its double trapezoid integral from T0
        np.multiply(Z[0], 2.0, out=g[1])
        np.exp(g[1], out=g[1])
        np.multiply(Z[1], g[1], out=g[0])
        g[1] *= 0.5
        _trapezoid_sums(g, step, P, pairs)
        _trapezoid_sums(P, step, II, pairs)
        Z_next = Z - L
        Z_next += II
        Z_next *= epsilon
        np.subtract(Z, Z_next, out=Z_next)
        if np.max(Z_next[1]) > 0.0:
            raise ValueError("second component turned positive: data outside "
                             "the monotone regime")
        np.subtract(Z_next, Z, out=diff)
        np.abs(diff, out=diff)
        dX, dY = np.max(diff, axis=1)
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
    worst signed violation and its node index are reported, the first one
    scanned among equals.  A single-iterate run is vacuously ordered.

    Each pair costs one subtraction into one reused buffer and one argmax:
    the operand order gives the violation its sign, prev - next on the first
    ladder and next - prev on the second.  IEEE subtraction is
    antisymmetric, so the worst violation and its node are the same doubles
    as those of -(prev - next).
    """
    xi, eta = run.iterates_xi, run.iterates_eta
    worst = 0.0
    node = -1
    viol = None
    for lhs, rhs in chain(zip(xi, xi[1:]), zip(eta[1:], eta)):
        if viol is None:
            viol = np.empty_like(lhs.values)
        np.subtract(lhs.values, rhs.values, out=viol)
        k = int(np.argmax(viol))
        if viol[k] > worst:
            worst, node = float(viol[k]), k
    return MonotonicityReport(ordered=worst <= allowance,
                              worst_violation=worst, node=node)
