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
centered differences.  The DOP853 stage loops are the oracle for the
stepper's compiled kernels, the future-zone iteration on separate X and Y
arrays for picard's stacked one, and the row-by-row CSV writers for the
CLI's block writer.

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
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from curvscat import dop853
from curvscat.analysis import GradientFlowState, gradient_flow_run
from curvscat.closed_forms import (AsymptoticData, _require_positive_eta_in,
                                   lncosh)
from curvscat.dynamics import BOUNDARY_TOL
from curvscat.geometry import RadialSolution
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

    The sequential form of the trapezoid march that `picard._march_xi`
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


def final_residual(run) -> tuple[float, float]:
    """Centered-difference residuals of the limit against the motion equations.

    Both are O(step^2) for a converged past-zone run; interior nodes only.
    """
    xi = run.iterates_xi[-1].values
    eta = run.iterates_eta[-1].values
    h = run.iterates_xi[-1].step
    e2 = np.exp(2.0 * xi[1:-1])
    r_xi = (xi[2:] - 2 * xi[1:-1] + xi[:-2]) / h**2 + eta[1:-1] * e2
    r_eta = (eta[2:] - 2 * eta[1:-1] + eta[:-2]) / h**2 + 0.5 * e2
    return float(np.max(np.abs(r_xi))), float(np.max(np.abs(r_eta)))


# --- DOP853 stage loops -------------------------------------------------------
# The stepper's stage sums, error norm and dense-output coefficients as loops
# over the non-zeros of the tableau, as the stepper computed them before it
# compiled straight-line kernels; the kernels must equal them bit for bit.


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


def dop853_loops(n):
    """Stands in for dop853._kernels: the loops, for any system size."""
    return dop853._Kernels(dop853_step, dop853_error_norm, dop853_dense)


def _cumtrapz(values, step, initial):
    out = np.empty_like(values)
    out[0] = initial
    np.cumsum(0.5 * step * (values[1:] + values[:-1]), out=out[1:])
    out[1:] += initial
    return out


def iterate_future_rowwise(p0, t_max, step, epsilon, tol, max_iter):
    """picard.iterate_future's ladder as it was computed before X and Y
    became the rows of one array: (X iterates, Y iterates, history)."""
    n = int(round((t_max - p0.t) / step))
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


# --- row-by-row CSV writers ---------------------------------------------------
# The CLI's CSV emission before it rendered blocks of rows at once: one
# csv.writer row per record, each field format(x, ".12g").


def _csv_num(x) -> str:
    return format(float(x), ".12g")


def write_trajectory_csv(path, traj) -> None:
    en = traj.energies()
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


def write_ladder_csv(gf, path) -> None:
    """One Picard iterate as t, value rows (scripts/monotone_ladder.py)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "value"])
        for tv, v in zip(gf.t, gf.values):
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
    )


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
    blow-up record is passed through.  A run certified on its eta side,
    -eta <= xi_dot at the last sample, stopped on the eta = 0 crossing, so
    its last eta (zero to the event finder's roundoff, either sign) reads 0.
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
    return TrajectoryEvents(t0=t0, t_half=t_half, t_m=t_m, blowup=traj.events.blowup)


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


def estimate_delta0(mu0: float, nu0: Optional[float] = None,
                    epsilon: float = 0.1, tol: float = 1e-10,
                    max_iter: int = 100000, bisections: int = 40) -> float:
    """Empirical quadrant-exit threshold delta0 of the gradient-flow
    recurrence (analysis.gradient_flow_run) for a given anchor.

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
