"""Independent fixed-step reference integration for cross-checking.

Classical fourth-order Runge-Kutta with a fixed step, written directly
against the equations of motion; deliberately shares no code with the
package integrator.  The frozen constants below were produced with this
scheme before the package was built (step-halving leaves them stable to
about 5e-13) and pin the deflection values the adaptive integrator must
reproduce.  theta_tight and continue_tight are the tight-tolerance
references for the deflection angle and the free leg after escape: scipy's
DOP853 at rtol 1e-13 on the same equations, sharing no code with the package.
final_residual checks a Picard limit against the motion equations by
centered differences.  The documented right-hand side, the DOP853 stage
loops and the interpolant are the oracle for the stepper's generated
functions, the future-zone iteration on separate X and Y arrays for
picard's stacked one, the two-temporary scan of every iterate pair for the
ordering picard's ladder loop reads from each step's difference, the
unfloored exponentials for the floored ones
(free_leg, the energy, the quadrature and the forbidden-zone maximum), the
append-and-insert sample assembly for integrate's one insert, and the
row-by-row CSV writers for the CLI's block writer.

The last section holds what only the tests call, kept out of the package,
which carries only what a command or script runs: the energy of a phase
point, a forbidden-zone classifier, the closed-form first eta-iterate, the
radial scaling covariance, an event finder that works from the samples
alone (a cross-check on the stepper's own event roots), the linearization
spectrum and the gradient flow's empirical exit threshold.
"""

import csv
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy.integrate import simpson as scipy_simpson
from scipy.integrate import solve_ivp

from curvscat import dop853, integrator
from curvscat.analysis import GradientFlowState, gradient_flow_run
from curvscat.closed_forms import (AsymptoticData, _require_positive_eta_in,
                                   free_asymptote, lncosh, past_tails, start_time,
                                   xi_subsolution)
from curvscat.dynamics import BOUNDARY_TOL
from curvscat.geometry import RadialSolution, simpson
from curvscat.integrator import TrajectoryEvents

# eta_in = 8, xi_in = 0, h = 1e-4, t in [-15, 40]
ORACLE_THETA_ETA8 = -3.0157679511680
# same scheme, crossing times located on the h = 1e-4 grid
ORACLE_T0_ETA8 = 63.406544755
ORACLE_T_HALF_ETA8 = 31.532246459740
ORACLE_T_M_ETA8 = -0.34461117068
# h = 1e-4, t in [-15, 40]
ORACLE_THETA_ETA6 = -2.9729504286791
ORACLE_THETA_ETA12 = -3.0580167715957


def free_start(xi_in, eta_in, t0):
    w = math.exp(2.0 * (xi_in + t0))
    return [xi_in + t0 - 0.25 * eta_in * w,
            1.0 - 0.5 * eta_in * w,
            eta_in - 0.125 * w,
            -0.25 * w]


def _f(y):
    e2 = math.exp(2.0 * y[0])
    return (y[1], -y[2] * e2, y[3], -0.5 * e2)


def _step(y, h):
    k1 = _f(y)
    y2 = [y[j] + 0.5 * h * k1[j] for j in range(4)]
    k2 = _f(y2)
    y3 = [y[j] + 0.5 * h * k2[j] for j in range(4)]
    k3 = _f(y3)
    y4 = [y[j] + h * k3[j] for j in range(4)]
    k4 = _f(y4)
    return [y[j] + (h / 6.0) * (k1[j] + 2 * k2[j] + 2 * k3[j] + k4[j])
            for j in range(4)]


def rk4_final(xi_in, eta_in, t_start, t_end, h):
    """Final state [xi, xi_dot, eta, eta_dot] from the free start expansion."""
    y = free_start(xi_in, eta_in, t_start)
    n = int(round((t_end - t_start) / h))
    for _ in range(n):
        y = _step(y, h)
    return y


def rk4_on_grid(xi_in, eta_in, t_grid, substeps=2):
    """States at the nodes of a uniform grid; substeps refine each interval."""
    h = (t_grid[1] - t_grid[0]) / substeps
    y = free_start(xi_in, eta_in, float(t_grid[0]))
    out = np.empty((len(t_grid), 4))
    out[0] = y
    for j in range(len(t_grid) - 1):
        for _ in range(substeps):
            y = _step(y, h)
        out[j + 1] = y
    return out


def rk4_from_state(y0, t_start, t_end, h):
    """Integrate from an explicit state; returns the final state."""
    y = list(y0)
    n = int(round((t_end - t_start) / h))
    for _ in range(n):
        y = _step(y, h)
    return y


def rk4_grid_from_state(y0, t_grid, substeps=2):
    h = (t_grid[1] - t_grid[0]) / substeps
    y = list(y0)
    out = np.empty((len(t_grid), 4))
    out[0] = y
    for j in range(len(t_grid) - 1):
        for _ in range(substeps):
            y = _step(y, h)
        out[j + 1] = y
    return out


def march_xi_nodewise(t, eta, a, step):
    """Node-by-node solve of the discrete past-zone xi equation.

    The sequential form of the trapezoid march that `picard._PastGrid.march`
    solves on the whole grid at once: the node unknown satisfies
    x + (h^2/4)*eta_j*e^{2x} = c_j, solved by three Newton steps seeded
    from the previous node (the correction is O(h^2), so this is ample).
    Kept as an independent oracle for the grid solve.
    """
    h = step
    w_min = math.exp(2.0 * (a.xi_in + float(t[0])))
    xi = np.empty_like(eta)
    P = 0.5 * a.eta_in * w_min   # inner integral tail at t_min
    Q = 0.25 * a.eta_in * w_min  # outer integral tail at t_min
    xi[0] = a.xi_in + t[0] - Q
    g_prev = eta[0] * math.exp(2.0 * xi[0])
    xi_in = a.xi_in
    exp_ = math.exp
    for j in range(1, len(t)):
        c = xi_in + t[j] - (Q + h * P + 0.25 * h * h * g_prev)
        aj = 0.25 * h * h * eta[j]
        x = xi[j - 1]
        for _ in range(3):
            e = exp_(2.0 * x)
            x -= (x + aj * e - c) / (1.0 + 2.0 * aj * e)
        xi[j] = x
        g_new = eta[j] * exp_(2.0 * x)
        P_new = P + 0.5 * h * (g_prev + g_new)
        Q += 0.5 * h * (P + P_new)
        P = P_new
        g_prev = g_new
    return xi


def _rhs(t, y):
    return _f(y)


def _outbound_potential(t, y):
    # crosses zero once the potential term is below 1e-18 on the way out
    if y[1] >= 0.0:
        return 1.0
    return abs(y[2] * math.exp(2.0 * y[0])) - 1e-18


_outbound_potential.terminal = True
_outbound_potential.direction = -1


def theta_tight(eta_in):
    """Deflection angle at xi_in = 0 by DOP853 at rtol 1e-13.

    Runs from w = e^{2t} of about e^-50/eta_in until the potential term
    eta*e^{2 xi} is below 1e-18 on the outbound leg; the impulse left after
    that is below 1e-15.  Theta does not depend on xi_in.
    """
    t = -0.5 * math.log(eta_in) - 25.0
    sol = solve_ivp(_rhs, (t, t + 1e5), free_start(0.0, eta_in, t),
                    method="DOP853", rtol=1e-13, atol=1e-15,
                    events=[_outbound_potential])
    if sol.status != 1:
        raise RuntimeError(f"reference run for eta_in = {eta_in} did not escape")
    y = sol.y[:, -1]
    return math.atan2(y[3], y[1])


def continue_tight(y0, t_grid):
    """States [xi, xi_dot, eta, eta_dot] on t_grid by DOP853 at rtol 1e-13
    from y0 at t_grid[0]; one row per node."""
    sol = solve_ivp(_rhs, (t_grid[0], t_grid[-1]), list(y0), method="DOP853",
                    rtol=1e-13, atol=1e-15, t_eval=t_grid)
    return sol.y.T


def final_residual(xi, eta, h) -> tuple[float, float]:
    """Centered-difference residuals of a limit (xi, eta) on a grid of step h
    against the motion equations.

    Both are O(step^2) for a converged past-zone run; interior nodes only.
    """
    e2 = np.exp(2.0 * xi[1:-1])
    r_xi = (xi[2:] - 2 * xi[1:-1] + xi[:-2]) / h**2 + eta[1:-1] * e2
    r_eta = (eta[2:] - 2 * eta[1:-1] + eta[:-2]) / h**2 + 0.5 * e2
    return float(np.max(np.abs(r_xi))), float(np.max(np.abs(r_eta)))


# --- DOP853 stage loops -------------------------------------------------------
# The stepper's stage sums, error norm and dense-output coefficients as loops
# over the non-zeros of the tableau, its interpolant one component at a
# time, and its step loop with generic event callables, as the stepper
# computed them before it generated its functions from each system's
# source; those must equal them bit for bit.


def _advance(K, row, y, h):
    """y + h * sum_k a_k * K[k], componentwise: the state of a stage."""
    out = []
    for j, v in enumerate(y):
        s = 0.0
        for k, a in row:
            s += a * K[k][j]
        out.append(v + s * h)
    return out


def dop853_step(fun, t, y, f, h):
    """Stages 1-11 of a step from f = fun(t, y); (y_new, stages 0-11)."""
    K = [f]
    for c, row in dop853._STAGES:
        K.append(fun(t + c * h, _advance(K, row, y, h)))
    return _advance(K, dop853._B, y, h), K


def dop853_error_norm(K, h, y, y_new, rtol, atol):
    s5 = s3 = 0.0
    for j, (a, b) in enumerate(zip(y, y_new)):
        e5 = e3 = 0.0
        for k, c5, c3 in dop853._E:
            e5 += c5 * K[k][j]
            e3 += c3 * K[k][j]
        scale = atol + max(abs(a), abs(b)) * rtol
        s5 += (e5 / scale) ** 2
        s3 += (e3 / scale) ** 2
    if s5 == 0.0 and s3 == 0.0:
        return 0.0
    return abs(h) * s5 / math.sqrt((s5 + 0.01 * s3) * len(y))


def dop853_dense(fun, K, t_old, h, y_old, y_new):
    """Stages 13-15 and the interpolant's coefficients F_0..F_6 per component."""
    K = list(K)
    for c, row in dop853._EXTRA_STAGES:
        K.append(fun(t_old + c * h, _advance(K, row, y_old, h)))
    f_old, f_new = K[0], K[dop853.N_STAGES]
    coeffs = []
    for j, (a, b) in enumerate(zip(y_old, y_new)):
        d3 = d4 = d5 = d6 = 0.0
        for k, c3, c4, c5, c6 in dop853._D:
            v = K[k][j]
            d3 += c3 * v
            d4 += c4 * v
            d5 += c5 * v
            d6 += c6 * v
        dy = b - a
        coeffs.append((dy, h * f_old[j] - dy, 2 * dy - h * (f_new[j] + f_old[j]),
                       h * d3, h * d4, h * d5, h * d6))
    return coeffs


class Step(NamedTuple):
    """An accepted step (t_old, h, y_old, coeffs) and its 7th-order
    interpolant, step(t): coeffs[j] holds the polynomial coefficients
    F_0..F_6 of component j, evaluated in the nested form of dop853.f's
    CONTD8, one component at a time."""

    t_old: float
    h: float
    y_old: list
    coeffs: list

    def __call__(self, t):
        x = (t - self.t_old) / self.h
        x1 = 1 - x
        return [((((((c6 * x + c5) * x1 + c4) * x + c3) * x1 + c2) * x + c1) * x1 + c0)
                * x + a
                for a, (c0, c1, c2, c3, c4, c5, c6) in zip(self.y_old, self.coeffs)]


def _active_events(g, g_new, directions):
    """Indices of the events whose sign change over the step matches their
    direction (> 0 rising, < 0 falling, 0 either); a zero counts both ways."""
    active = []
    for i, (a, b, d) in enumerate(zip(g, g_new, directions)):
        up = a <= 0.0 <= b
        down = a >= 0.0 >= b
        if (up and d > 0) or (down and d < 0) or ((up or down) and d == 0):
            active.append(i)
    return active


def dop853_solve_loops(fun, t_span, y0, *, rtol, atol, dense_output=False, events=()):
    """dop853.solve_ivp as it stepped before the attempt kernel: any fun(t, y)
    and event callables ev(t, y) with terminal and direction attributes,
    the stages by the loops above, every event evaluated on the full state
    of the interpolant.  The attempt kernel must equal it bit for bit."""
    t, t_bound = float(t_span[0]), float(t_span[1])
    y = [float(v) for v in y0]
    rtol = max(rtol, 100 * dop853.EPS)
    directions = [getattr(ev, "direction", 0) for ev in events]
    terminal = [bool(getattr(ev, "terminal", False)) for ev in events]
    t_events = [[] for _ in events]
    g = [ev(t, y) for ev in events]
    f = fun(t, y)
    h_abs = dop853._initial_step(fun, t, y, f, t_bound, rtol, atol)
    nfev = 2
    ts, ys, steps = [t], [y], []
    status, message = None, None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status, message = -1, dop853.TOO_SMALL_STEP
                break
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            y_new, K = dop853_step(fun, t, y, f, h)
            K.append(fun(t_new, y_new))
            nfev += dop853.N_STAGES
            err = dop853_error_norm(K, h, y, y_new, rtol, atol)
            if err < 1:
                factor = (dop853.MAX_FACTOR if err == 0 else
                          min(dop853.MAX_FACTOR, dop853.SAFETY * err ** dop853.ERROR_EXPONENT))
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(dop853.MIN_FACTOR, dop853.SAFETY * err ** dop853.ERROR_EXPONENT)
            rejected = True
        if status == -1:
            break
        if t_new >= t_bound:
            status = 0
        t_old, y_old, t, y, f = t, y, t_new, y_new, K[dop853.N_STAGES]

        step = None
        if dense_output:
            step = Step(t_old, h, y_old, dop853_dense(fun, K, t_old, h, y_old, y))
            nfev += 3
            steps.append(step)
        t_end, y_end = t, y
        if events:
            g_new = [ev(t, y) for ev in events]
            active = _active_events(g, g_new, directions)
            if active:
                if step is None:
                    step = Step(t_old, h, y_old, dop853_dense(fun, K, t_old, h, y_old, y))
                    nfev += 3
                roots = []
                for i in active:
                    ev = events[i]
                    roots.append((dop853.brentq(lambda s: ev(s, step(s)), t_old, t,
                                                xtol=4 * dop853.EPS, rtol=4 * dop853.EPS), i))
                if any(terminal[i] for i in active):
                    roots.sort(key=lambda r: r[0])
                    cut = next(k for k, (_, i) in enumerate(roots) if terminal[i])
                    roots = roots[:cut + 1]
                    status = 1
                    t_end = roots[-1][0]
                    y_end = step(t_end)
                for root, i in roots:
                    t_events[i].append(root)
            g = g_new
        if dense_output and len(ts) > 1 and ts[-1] == t_end:
            steps.pop()
        else:
            ts.append(t_end)
            ys.append(y_end)

    return dop853.OdeResult(
        t=np.array(ts), y=np.array(ys, dtype=float).T,
        t_events=[np.array(te, dtype=float) for te in t_events], nfev=nfev,
        status=status, message=dop853.MESSAGES.get(status, message),
        sol=dop853.DenseSolution(ts, steps) if dense_output else None)


def escape_residual(y, tol):
    """integrator's escape test, written out: negative when
    y = (xi, xi_dot, eta, eta_dot) passes it.  The two terms are the order
    of what the free leg neglects, |eta*exp(2*xi)| and exp(4*xi); the speed
    defect |xi_dot^2 + eta_dot^2 - 1| is no term, since by the energy
    identity it is |eta*exp(2*xi)| plus the solver's drift."""
    if y[1] >= 0.0:
        return 1.0
    e2 = math.exp(min(2.0 * y[0], 700.0))
    return max(abs(y[2] * e2), e2 * e2) - tol


def rhs(t, y):
    """Right-hand side of the equations of motion in solver form, as
    documented: y = (xi, xi_dot, eta, eta_dot); returns (xi', xi'', eta',
    eta'').  Autonomous: t is unused.  The exponent is clamped at 700, as
    dynamics.RHS_SHARED clamps it."""
    e2 = math.exp(min(2.0 * y[0], 700.0))
    return (y[1], -y[2] * e2, y[3], -0.5 * e2)


def scipy_callables(system, params):
    """(fun, events) of a dop853.System for scipy's solve_ivp and for
    dop853_solve_loops, from the functions compiled from the system's
    source: fun(t, y) and one ev(t, y) per event with its terminal and
    direction attributes."""
    args = tuple(params[name] for name in system.params)
    functions = system.functions
    events = []
    for ev, value in zip(system.events, functions.values):
        def event(t, y, value=value):
            return value(y, *args)
        event.terminal, event.direction = ev.terminal, ev.direction
        events.append(event)
    return functions.fun, events


def _cumtrapz(values, step, initial):
    out = np.empty_like(values)
    out[0] = initial
    np.cumsum(0.5 * step * (values[1:] + values[:-1]), out=out[1:])
    out[1:] += initial
    return out


def iterate_past_allocating(a, t_handoff, step, tol, max_iter):
    """picard.iterate_past's ladder as it was computed before its marches
    reused one set of work arrays, each Newton step in fresh temporaries:
    (xi iterates, eta iterates, history)."""
    from scipy.linalg.lapack import dtbtrs

    t_min = start_time(a)
    n = math.floor((t_handoff - t_min) / step * (1.0 + 1e-12))
    t = t_min + step * np.arange(n + 1)

    def march(eta, seed):
        P0, Q0 = (a.eta_in * v for v in past_tails(float(t[0]), a))
        c = a.xi_in + t
        roundoff = 16 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(c))))
        xi = np.array(seed, dtype=float)
        xi[0] = c[0] - Q0
        ab = np.zeros((3, len(t)), order="F")
        ab[0, 0] = 1.0
        rhs = np.empty(len(t))
        for _ in range(20):
            g = eta * np.exp(2.0 * xi)
            F = xi - c + _cumtrapz(_cumtrapz(g, step, P0), step, Q0)
            F[0] = 0.0
            if float(np.max(np.abs(F))) <= roundoff:
                return xi
            rhs[:2] = F[:2]
            rhs[2:] = F[2:] - 2.0 * F[1:-1] + F[:-2]
            hd = 0.5 * step * step * g
            ab[0, 1:] = 1.0 + hd[1:]
            ab[1, 0] = hd[0]
            ab[1, 1:-1] = 2.0 * hd[1:-1] - 2.0
            ab[2, :-2] = 1.0 + hd[:-2]
            delta, info = dtbtrs(ab, rhs, uplo="L")
            assert info == 0
            xi -= delta
            if float(np.max(np.abs(delta))) <= roundoff:
                return xi
        raise AssertionError("Newton did not converge")

    def eta_update(xi):
        P0, Q0 = past_tails(float(t[0]), a)
        P = _cumtrapz(np.exp(2.0 * xi), step, initial=P0)
        return a.eta_in - 0.5 * _cumtrapz(P, step, initial=Q0)

    eta = np.full(len(t), a.eta_in)
    xi = march(eta, xi_subsolution(t, a))
    xis, etas, history = [xi], [eta], []
    for _ in range(max_iter):
        eta_next = eta_update(xi)
        xi_next = march(eta_next, xi)
        d = float(np.max(np.abs(xi_next - xi)) + np.max(np.abs(eta_next - eta)))
        history.append(d)
        xi, eta = xi_next, eta_next
        xis.append(xi)
        etas.append(eta)
        if d <= tol:
            break
    return xis, etas, history


def iterate_future_rowwise(p0, t_max, step, epsilon, tol, max_iter):
    """picard.iterate_future's ladder as it was computed before X and Y
    became the rows of one array: (X iterates, Y iterates, history)."""
    n = math.floor((t_max - p0.t) / step * (1.0 + 1e-12))
    dt = p0.t + step * np.arange(n + 1) - p0.t
    LX = p0.xi_dot * dt + p0.xi
    LY = p0.eta_dot * dt
    X, Y = LX.copy(), LY.copy()
    xs, ys, history = [X], [Y], []
    for _ in range(max_iter):
        e2x = np.exp(2.0 * X)
        IIy = _cumtrapz(_cumtrapz(Y * e2x, step, 0.0), step, 0.0)
        IIh = _cumtrapz(_cumtrapz(0.5 * e2x, step, 0.0), step, 0.0)
        X_next = X - epsilon * (X - LX + IIy)
        Y_next = Y - epsilon * (Y - LY + IIh)
        d = float(np.max(np.abs(X_next - X)) + np.max(np.abs(Y_next - Y)))
        history.append(d)
        X, Y = X_next, Y_next
        xs.append(X)
        ys.append(Y)
        if d <= tol:
            break
    return xs, ys, history


def monotonicity_two_temporaries(xs, ys, allowance):
    """The ordering of the ladders xs (must not decrease) and ys (must not
    increase) as it was scanned, ladder by ladder, before the ladder loop
    read it from each step's difference: sign * (prev - next) in two fresh
    temporaries per iterate pair.  Returns (ordered, worst_violation)."""
    worst = 0.0
    for ladder, sign in ((xs, 1.0), (ys, -1.0)):
        for prev, nxt in zip(ladder, ladder[1:]):
            viol = sign * (np.asarray(prev) - np.asarray(nxt))
            k = int(np.argmax(viol))
            if viol[k] > worst:
                worst = float(viol[k])
    return worst <= allowance, worst


# --- unfloored exponentials ---------------------------------------------------
# The sampled windows' exponentials as they were before their exponents were
# floored at dynamics.EXP_FLOOR: np.exp over the whole window, subnormal and
# underflowing results included.


def free_leg_unfloored(y, s):
    """closed_forms.free_leg with q = exp(-lam*s) unfloored."""
    xi0, a, eta0, b = (float(v) for v in y)
    lam = -2.0 * a
    E = math.exp(2.0 * xi0)
    v_xi, _, v_eta, _ = free_asymptote(y)
    s = np.asarray(s, dtype=float)
    q = np.exp(-lam * s)
    sq = s * q
    I0 = (1.0 - q) / lam
    I1 = (I0 - sq) / lam
    return (xi0 + v_xi * s + E * (eta0 * I0 + b * (2.0 * I0 - sq) / lam) / lam,
            a - E * (eta0 * I0 + b * I1),
            eta0 + v_eta * s + 0.5 * E * I0 / lam,
            b - 0.5 * E * I0)


def energy_unfloored(xi, eta, xi_dot, eta_dot):
    """dynamics.energy_array with e^{2 xi} unfloored."""
    return 0.5 * (xi_dot**2 + eta_dot**2 + eta * np.exp(2.0 * xi))


def potential_max_unfloored(traj) -> float:
    """The forbidden-zone check's max eta*e^{2 xi}, unfloored."""
    return float(np.max(traj.eta * np.exp(2.0 * traj.xi)))


def quadrature_unfloored(traj, irregular=False) -> tuple[float, float]:
    """geometry.curvature_area_quadrature's (kappa, alpha) with e^{2 xi}
    unfloored, over the window's first run (all of it when there is no
    gap); irregular integrates that run by scipy's irregular-grid Simpson
    rule on its own t."""
    t, xi, eta, xi_dot, eta_dot = traj.window
    if traj.gap is not None:
        keep = t <= traj.gap[0]
        t, xi, eta, xi_dot, eta_dot = (c[keep] for c in traj.window)
    h = float(t[-1] - t[0]) / (len(t) - 1)

    def rule(y):
        return float(scipy_simpson(y, x=t)) if irregular else simpson(y, h)
    a = traj.asymptotics
    f_area = np.exp(2.0 * xi)
    f_curv = eta * f_area
    area_past, _ = past_tails(float(t[0]), a)
    e = traj.events.escape
    v_xi, _, v_eta, _ = free_asymptote((e.xi, e.xi_dot, e.eta, e.eta_dot))
    curv_fut = float(xi_dot[-1]) - v_xi
    area_fut = 2.0 * (float(eta_dot[-1]) - v_eta)
    kappa = 2.0 * math.pi * (rule(f_curv) + a.eta_in * area_past + curv_fut)
    alpha = math.sqrt(2.0) * math.pi * (rule(f_area) + area_past + area_fut)
    return kappa, alpha


# --- sample assembly by appends and inserts -----------------------------------
# integrate's samples as they were assembled before one insert placed the
# extra times: an append and an insert per extra time, each copying the
# arrays, and the dense output gathered by fancy indexing.


def sample_times_loop(t_start, t_end, h, events):
    """(ts, mask) by appending t_last and inserting each event; mask is
    True on the regular grid."""
    n = int(math.floor((t_end - t_start) / h * (1.0 + 1e-12)))
    t_n = t_start + h * n
    t_last = t_end if t_end - t_n > 1e-9 * h else t_n
    ts = t_start + h * np.arange(n + 1)
    mask = np.ones(len(ts), dtype=bool)
    if t_last != ts[-1]:
        ts = np.append(ts, t_last)
        mask = np.append(mask, False)
    for t_ev in events:
        if t_ev is None or not (t_start <= t_ev <= t_end):
            continue
        k = int(np.searchsorted(ts, t_ev))
        near = (k < len(ts) and abs(ts[k] - t_ev) < 1e-12) or \
               (k > 0 and abs(ts[k - 1] - t_ev) < 1e-12)
        if not near:
            ts = np.insert(ts, k, t_ev)
            mask = np.insert(mask, k, False)
    return ts, mask


def dense_fancy(dense, t):
    """dop853.DenseSolution(t) with each step's coefficients gathered by
    fancy indexing."""
    t = np.asarray(t, dtype=float)
    k = np.clip(np.searchsorted(dense.ts, t, side="left") - 1, 0, len(dense._h) - 1)
    x = (t - dense._t_old[k]) / dense._h[k]
    x1 = 1 - x
    y = np.zeros((len(dense._y_old),) + t.shape)
    for p in range(6, -1, -1):
        y += dense._coeffs[p][:, k]
        y *= x if p % 2 == 0 else x1
    y += dense._y_old[:, k]
    return y


def integrate_samples_loop(a, cfg):
    """(t, mask, Y) of integrate(a, cfg), Y holding the rows xi,
    xi_dot, eta, eta_dot, assembled the old way from the same solver call."""
    p0, sol, outcome = integrator._solve(a, cfg, sampled=True)
    t_start = t_end = p0.t
    t_escape = t0 = t_half = t_m = None
    if sol is not None:
        t_escape, t0, t_half, t_m = (integrator._first(sol.t_events[k])
                                     for k in (0, 1, 3, 4))
        t_end = float(sol.t[-1])
    if outcome is integrator.Outcome.ESCAPED:
        budget = t_start + cfg.max_time
        y_e = sol.y[:, -1]
        if t0 is None:
            t0 = t_escape + integrator._free_leg_crossing(y_e, 0.0)
        if t_half is None:
            t_half = t_escape + integrator._free_leg_crossing(y_e, 0.5 * a.eta_in)
        t_end = min(max(t_escape + integrator.TAIL_PAD, t0 + integrator.MIN_TAIL), budget)
        t0 = t0 if t0 <= budget else None
        t_half = t_half if t_half <= budget else None
    ts, mask = sample_times_loop(t_start, t_end, cfg.dense_step, (t0, t_half, t_m))
    if sol is None:
        Y = np.array([[p0.xi], [p0.xi_dot], [p0.eta], [p0.eta_dot]])
    elif outcome is integrator.Outcome.ESCAPED:
        k = int(np.searchsorted(ts, t_escape, side="right"))
        Y = np.empty((4, len(ts)))
        Y[:, :k] = dense_fancy(sol.sol, ts[:k])
        Y[:, k:] = free_leg_unfloored(y_e, ts[k:] - t_escape)
    else:
        Y = dense_fancy(sol.sol, ts)
    return ts, mask, Y


def full_window(traj):
    """traj with the samples of integrate_samples_loop in place of its own:
    a window without a gap, whose gap nodes and event times there are
    evaluated as integrate evaluates the rest."""
    ts, mask, Y = integrate_samples_loop(traj.asymptotics, traj.config)
    return replace(traj, t=ts, xi=Y[0], xi_dot=Y[1], eta=Y[2], eta_dot=Y[3],
                   off_grid=tuple(int(k) for k in np.flatnonzero(~mask)), gap=None)


# --- row-by-row CSV writers ---------------------------------------------------
# The CLI's CSV emission before it rendered blocks of rows at once: one
# csv.writer row per record, each field format(x, ".12g").


def _csv_num(x) -> str:
    return format(float(x), ".12g")


def write_trajectory_csv(path, traj) -> None:
    en = traj.energy
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "xi", "eta", "xi_dot", "eta_dot", "energy"])
        for k in range(len(traj)):
            w.writerow([_csv_num(traj.t[k]), _csv_num(traj.xi[k]),
                        _csv_num(traj.eta[k]), _csv_num(traj.xi_dot[k]),
                        _csv_num(traj.eta_dot[k]), _csv_num(en[k])])


def write_radial_csv(path, sol) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["r", "u", "K"])
        for k in range(len(sol.r_grid)):
            w.writerow([_csv_num(sol.r_grid[k]), _csv_num(sol.u_values[k]),
                        _csv_num(sol.k_values[k])])


def write_sweep_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "eta_in", "kappa", "alpha", "k_star",
                    "pokhozaev_residual", "energy_drift"])
        for r in rows:
            w.writerow([_csv_num(r.theta), _csv_num(r.eta_in), _csv_num(r.kappa),
                        _csv_num(r.alpha), _csv_num(r.k_star),
                        _csv_num(r.pokhozaev_residual), _csv_num(r.energy_drift)])


def write_flow_csv(path, history) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "mu", "nu", "grad_norm"])
        for n, (mu, nu, gn) in enumerate(history):
            w.writerow([n, _csv_num(mu), _csv_num(nu), _csv_num(gn)])


def write_ladder_csv(t, values, path) -> None:
    """One Picard iterate on the grid t as t, value rows
    (scripts/monotone_ladder.py)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "value"])
        for tv, v in zip(t, values):
            w.writerow([format(tv, ".12g"), format(v, ".12g")])


# --- helpers only the tests use ----------------------------------------------


def energy(p) -> float:
    """Total energy E = (xi'^2 + eta'^2 + eta*exp(2*xi)) / 2 of a PhasePoint.

    Raises OverflowError when exp(2*xi) leaves the float64 range.
    """
    return 0.5 * (p.xi_dot**2 + p.eta_dot**2 + p.eta * math.exp(2.0 * p.xi))


# exp argument beyond which exp(2*xi) is not representable in float64
_EXP_ARG_LIMIT = 709.0


class Zone(Enum):
    ALLOWED = "allowed"
    BOUNDARY = "boundary"
    FORBIDDEN = "forbidden"


def in_forbidden_zone(xi: float, eta: float) -> Zone:
    """Classify a position against the E = 1/2 forbidden zone eta > exp(-2*xi).

    The test is on the product eta*exp(2*xi): the energy law makes it equal
    1 - speed^2 on admitted motions, so the boundary tolerance ties directly
    to energy drift; the boundary band is |q - 1| <= BOUNDARY_TOL.
    """
    if not (math.isfinite(xi) and math.isfinite(eta)):
        raise ValueError("in_forbidden_zone requires finite inputs")
    if 2.0 * xi > _EXP_ARG_LIMIT:
        # exp(-2*xi) underflows to 0: any eta > 0 is deep inside the zone
        q = math.inf if eta > 0 else -math.inf if eta < 0 else 0.0
    else:
        q = eta * math.exp(2.0 * xi)
    if abs(q - 1.0) <= BOUNDARY_TOL:
        return Zone.BOUNDARY
    return Zone.FORBIDDEN if q > 1.0 else Zone.ALLOWED


def eta_first_iterate(t, a: AsymptoticData):
    """Closed form of the first eta-iterate; tends to eta_in as t -> -inf.

    Integrating exp(2*xi_sub) twice, xi_sub = closed_forms.xi_subsolution.
    """
    _require_positive_eta_in(a)
    e = a.eta_in
    tv = np.asarray(t, dtype=float)
    z = tv + a.xi_in - math.log(2.0 / math.sqrt(e))
    out = (-lncosh(z) / (2.0 * e) - tv / (2.0 * e) - a.xi_in / (2.0 * e)
           + e - math.log(e) / (4.0 * e))
    return float(out) if np.isscalar(t) else out


def scale_radial(sol: RadialSolution, k: float) -> RadialSolution:
    """Apply the scaling covariance r -> r/k, u -> u + ln k (K unchanged).

    kappa and alpha are invariant: the map is the time translation
    t -> t - ln k of the underlying run, whose data become xi_in + ln k.
    """
    if not k > 0.0:
        raise ValueError("scale factor must be positive")
    return replace(sol, r_grid=sol.r_grid / k, u_values=sol.u_values + math.log(k))


def _hermite(t, t0, t1, y0, y1, d0, d1):
    # cubic Hermite on [t0, t1] through (y0, d0), (y1, d1)
    hh = t1 - t0
    s = (t - t0) / hh
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h10 * hh * d0 + h01 * y1 + h11 * hh * d1


def _refine_crossing(tl, tr, yl, yr, dl, dr, xtol=1e-12):
    # bisection of the +/- crossing on the Hermite model of the bracket
    lo, hi = tl, tr
    flo = yl

    def f(x):
        return _hermite(x, tl, tr, yl, yr, dl, dr)

    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def detect_events(traj) -> TrajectoryEvents:
    """Re-derive event times from the samples alone.

    Sign changes are located by scanning and refined by bisection (to 1e-12
    in t) on a local cubic Hermite model built from the sampled values and
    their sampled derivatives.  Absent events are reported absent; a stored
    blow-up or escape record is passed through.  A run certified on its eta
    side, -eta <= xi_dot at the last sample, stopped on the eta = 0
    crossing, so its last eta (zero to the event finder's roundoff, either
    sign) reads 0.
    """
    if len(traj) < 2:
        raise ValueError("need at least 2 samples to detect events")
    t, xi, eta, xi_dot, eta_dot = traj.t, traj.xi, traj.eta, traj.xi_dot, traj.eta_dot
    if traj.events.blowup is not None and -eta[-1] <= xi_dot[-1]:
        eta = eta.copy()
        eta[-1] = min(eta[-1], 0.0)
    xi_ddot = -eta * np.exp(2.0 * xi)
    ein = traj.asymptotics.eta_in

    def first_downward(y, d):
        ix = np.nonzero((y[:-1] > 0.0) & (y[1:] <= 0.0))[0]
        if len(ix) == 0:
            return None
        k = int(ix[0])
        return _refine_crossing(float(t[k]), float(t[k + 1]), float(y[k]), float(y[k + 1]),
                                float(d[k]), float(d[k + 1]))

    t0 = first_downward(eta, eta_dot)
    t_half = first_downward(eta - 0.5 * ein, eta_dot) if ein > 0.0 else None
    t_m = first_downward(xi_dot, xi_ddot)
    return TrajectoryEvents(t0=t0, t_half=t_half, t_m=t_m, blowup=traj.events.blowup,
                            escape=traj.events.escape)


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

    Linearizing the motion around (xi1, eta2, phi) gives a first-order system
    with characteristic polynomial
    P(lambda) = lambda^4 + 2*eta2*e^{2 phi} lambda^2 - e^{2 phi + 2 xi1},
    a quadratic in lambda^2 with one positive and one negative root, hence
    two real and two purely imaginary eigenvalues.  Substituting
    lambda^2 = e^{2 phi} nu reduces it to nu^2 + 2*eta2*nu - e^{2(xi1 - phi)}
    = 0, solved with the cancellation-free quadratic formula before restoring
    the factor: for late samples of long runs the unfactored product
    underflows while the factored one stays representable.
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


def spectrum_along(traj) -> list[SpectrumSample]:
    """Self-linearization spectrum at every sample: xi1 = phi = xi, eta2 = eta."""
    return [
        linearization_spectrum(float(traj.xi[k]), float(traj.eta[k]),
                               float(traj.xi[k]), t=float(traj.t[k]))
        for k in range(len(traj))
    ]


def estimate_delta0(mu0: float, epsilon: float = 0.1, tol: float = 1e-10,
                    max_iter: int = 100000, bisections: int = 40) -> float:
    """Empirical quadrant-exit threshold delta0 of the gradient-flow
    recurrence (analysis.gradient_flow_run) for a given anchor.

    No closed form is available; the threshold is bracketed by doubling from
    a conservative seed and then bisected.  Returns the bracket midpoint.
    """
    def stays(delta: float) -> bool:
        s = GradientFlowState(mu0, delta, epsilon)
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
