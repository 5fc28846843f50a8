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
xi increases and eta decreases pointwise in the iteration index.  The grid
starts at the integrator's start time t_min (closed_forms.start_time); the
(-inf, t_min] tails are those of the free past motion
(closed_forms.past_tails), with error O(e^{4(xi_in+t_min)}).

Future zone (t above the eta = 0 crossing): the damped maps

    F_eps(X, Y) = X - eps*(X - linear_X + II_T0[Y e^{2X}])
    G_eps(X, Y) = Y - eps*(Y - linear_Y + II_T0[e^{2X}/2])

with eps = EPSILON = 0.1 are iterated from the linear starting functions
built from the crossing state; X increases and Y decreases pointwise, and
the limit solves the equations of motion on [T0, t_max] with asymptotically
linear behavior.

One loop builds both zones' ladders: each step forms the difference of the
new iterate pair and the last one once, and reads from it both the step's
ordering violations and its convergence step, so no second pass scans the
ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import (AsymptoticData, explicit_bounds, past_tails,
                           start_time, xi_subsolution)
from .dynamics import PhasePoint
from .integrator import grid_steps


# Newton on the past-zone grid converges quadratically from a seed within
# O(h^2) (or one Picard step) of the solution, in at most four steps.
_NEWTON_MAX_STEPS = 20
_ROUNDOFF_ULPS = 16
# largest |eta| at which iterate_future takes p0 for an eta = 0 crossing state
_ETA_TOL = 1e-6
# the future zone's damping eps
EPSILON = 0.1


class NewtonNotConvergedError(RuntimeError):
    """Raised when the grid Newton solve of the past-zone xi equation stalls."""


class _Iterate(np.ndarray):
    """One iterate of a ladder: a read-only float array on the run's grid.

    .values is the same array as a plain ndarray, for readers written
    against iterates that carried their grid (perfbench/tracing.py counts
    a run's nodes with it).
    """

    @property
    def values(self) -> np.ndarray:
        return self.view(np.ndarray)


@dataclass
class PicardRun:
    """Iterate ladders of one fixed-point run on the grid t.

    For the past zone, iterates_xi/iterates_eta hold the xi and eta ladders;
    for the future zone they hold the X and Y ladders (same orientation:
    the first component increases, the second decreases).  t and every
    iterate are read-only.  worst_violation is the largest ordering
    violation over all consecutive pairs, 0.0 if there is none.
    """

    t: np.ndarray
    iterates_xi: list[np.ndarray]
    iterates_eta: list[np.ndarray]
    converged: bool
    sup_diff_history: list[float]
    worst_violation: float


def monotonicity_report(run: PicardRun, allowance: float = 0.0) -> bool:
    """Whether run's ladders are ordered to within allowance: the first must
    not decrease, the second must not increase.  A single-iterate run is
    vacuously ordered."""
    return run.worst_violation <= allowance


def _ladder(t: np.ndarray, first: np.ndarray, advance, tol: float,
            max_iter: int) -> PicardRun:
    """The ladder of iterate pairs advance makes from first, on the grid t.

    Iterates are (2, n) arrays, the first and second component as rows;
    advance(pair) returns the next pair as a new array.  Stops when the
    step max|dx| + max|dy| drops to tol, or after max_iter new pairs
    (converged False, the last step in the history).

    Each step forms next - prev once, in one reused (2, n) buffer.  -min of
    row 0 and max of row 1 are the step's ordering violations; IEEE
    subtraction is antisymmetric, so -(next - prev) is exactly prev - next.
    A row holding a NaN has a NaN extreme, which never beats the worst
    violation so far.  |diff| then gives the step's row maxima.
    """
    t.setflags(write=False)
    first.setflags(write=False)
    ladder = [first]
    diff = np.empty_like(first)
    worst = 0.0
    history: list[float] = []
    for _ in range(max_iter):
        pair = advance(ladder[-1])
        pair.setflags(write=False)
        np.subtract(pair, ladder[-1], out=diff)
        for violation in (-diff[0].min(), diff[1].max()):
            if violation > worst:
                worst = float(violation)
        np.abs(diff, out=diff)
        dx, dy = diff.max(axis=1)
        history.append(float(dx + dy))
        ladder.append(pair)
        if history[-1] <= tol:
            break
    return PicardRun(t=t,
                     iterates_xi=[p[0].view(_Iterate) for p in ladder],
                     iterates_eta=[p[1].view(_Iterate) for p in ladder],
                     converged=bool(history) and history[-1] <= tol,
                     sup_diff_history=history, worst_violation=worst)


def _cumtrapz(values: np.ndarray, step: float, initial: float,
              out: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral of values from initial, into out;
    pairs, one shorter, takes the trapezoids.  np.add.accumulate adds in
    np.cumsum's order, at less cost per call."""
    out[0] = initial
    np.add(values[1:], values[:-1], out=pairs)
    np.multiply(pairs, 0.5 * step, out=pairs)
    np.add.accumulate(pairs, out=out[1:])
    out[1:] += initial
    return out


class _PastGrid:
    """The past-zone equations on one grid, with the work arrays that every
    march and eta update of an iterate_past run reuses.

    march(eta, seed, out) solves the discrete implicit xi equation for a fixed
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
    march and eta_update write their results into out, a row of the
    ladder's next iterate pair.
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

    def march(self, eta: np.ndarray, seed: np.ndarray,
              out: np.ndarray) -> np.ndarray:
        # imported here, so that only commands that march load scipy.linalg
        from scipy.linalg.lapack import dtbtrs

        g, F, rhs, hd, ab = self.g, self.F, self.rhs, self.hd, self.ab
        xi = out
        xi[:] = seed
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

    def eta_update(self, xi: np.ndarray, out: np.ndarray) -> np.ndarray:
        """eta_in - Q[e^{2 xi}]/2, from the free tails at t_min."""
        np.multiply(xi, 2.0, out=self.g)
        np.exp(self.g, out=self.g)
        Q = self._double_integral(self.g, *self.tails)
        np.multiply(Q, 0.5, out=out)
        return np.subtract(self.a.eta_in, out, out=out)


def _above_roundoff(x: np.ndarray, work: np.ndarray, roundoff: float) -> bool:
    """Whether max |x| exceeds roundoff or is NaN; work takes |x|."""
    np.abs(x, out=work)
    return not float(np.max(work)) <= roundoff


def _uniform_grid(t_lo: float, t_hi: float, step: float,
                  lo_name: str, hi_name: str) -> np.ndarray:
    """Nodes t_lo + k*step up to t_hi (integrator.grid_steps); at least 3,
    as the schemes need."""
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and positive, got {step}")
    if not (math.isfinite(t_lo) and math.isfinite(t_hi)):
        raise ValueError(f"{lo_name} = {t_lo} and {hi_name} = {t_hi} "
                         "must be finite")
    n = grid_steps(t_lo, t_hi, step)
    if n < 2:
        raise ValueError(
            f"{hi_name} = {t_hi} leaves fewer than 3 grid nodes from "
            f"{lo_name} = {t_lo} at step {step}")
    return t_lo + step * np.arange(n + 1)


def iterate_past(a: AsymptoticData, t_handoff: float, step: float,
                 tol: float = 1e-10, max_iter: int = 50) -> PicardRun:
    """Monotone fixed-point iteration on the past zone grid from the
    integrator's start time up to t_handoff.

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
    t = _uniform_grid(start_time(a), t_handoff, step, "start_time", "t_handoff")
    grid = _PastGrid(t, a, step)
    first = np.empty((2, len(t)))
    first[1] = a.eta_in
    grid.march(first[1], seed=xi_subsolution(t, a), out=first[0])

    def advance(pair):
        nxt = np.empty_like(pair)
        grid.eta_update(pair[0], out=nxt[1])
        grid.march(nxt[1], seed=pair[0], out=nxt[0])
        return nxt

    return _ladder(t, first, advance, tol, max_iter)


def iterate_future(p0: PhasePoint, t_max: float, step: float,
                   tol: float = 1e-10, max_iter: int = 500) -> PicardRun:
    """Damped fixed-point iteration on [p0.t, t_max] from an eta = 0 state,
    at damping EPSILON.

    p0 must be the eta = 0 crossing state, to |eta| <= 1e-6, with
    xi_dot < 0 and eta_dot in (-1, 0).  Raises ValueError if an iterate of
    the second component turns positive, which signals data outside the
    monotone regime, and unless step is finite and positive and the grid
    holds at least 3 nodes.

    (X, Y) are the rows of one array, and each iteration makes one pass per
    operation over both, in work arrays allocated once; only the new iterate
    is a new array.  The integrals start from 0 at T0, so their first column
    is set once.  The 1/2 of e^{2X}/2 is folded into its trapezoid weight,
    step/4: halving is exact away from subnormals.
    """
    if abs(p0.eta) > _ETA_TOL:
        raise ValueError(f"p0.eta = {p0.eta} is not an eta = 0 crossing state")
    if not p0.xi_dot < 0.0:
        raise ValueError("need xi_dot < 0 at the crossing state")
    if not (-1.0 - 1e-9 < p0.eta_dot < 0.0):
        raise ValueError("need eta_dot in (-1, 0) at the crossing state")
    T0 = p0.t
    t = _uniform_grid(T0, t_max, step, "p0.t", "t_max")
    dt = t - T0
    L = np.stack([p0.xi_dot * dt + p0.xi, p0.eta_dot * dt])
    g, P, II = (np.empty_like(L) for _ in range(3))
    pairs = np.empty((2, len(t) - 1))
    P[:, 0] = II[:, 0] = 0.0
    inner = np.array([[0.5 * step], [0.25 * step]])

    def advance(Z):
        # g = (Y e^{2X}, e^{2X}); II the double integral of (Y e^{2X}, e^{2X}/2)
        np.multiply(Z[0], 2.0, out=g[1])
        np.exp(g[1], out=g[1])
        np.multiply(Z[1], g[1], out=g[0])
        np.add(g[:, 1:], g[:, :-1], out=pairs)
        np.multiply(pairs, inner, out=pairs)
        np.add.accumulate(pairs, axis=1, out=P[:, 1:])
        np.add(P[:, 1:], P[:, :-1], out=pairs)
        np.multiply(pairs, 0.5 * step, out=pairs)
        np.add.accumulate(pairs, axis=1, out=II[:, 1:])
        Z_next = Z - L
        Z_next += II
        Z_next *= EPSILON
        np.subtract(Z, Z_next, out=Z_next)
        if Z_next[1].max() > 0.0:
            raise ValueError("second component turned positive: data outside "
                             "the monotone regime")
        return Z_next

    return _ladder(t, L, advance, tol, max_iter)
