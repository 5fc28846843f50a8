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
centered differences.  The row-by-row CSV writers at the end are the oracle
for the CLI's block writer.
"""

import csv
import math

import numpy as np
from scipy.integrate import solve_ivp

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
    xi = run.xi_limit.values
    eta = run.eta_limit.values
    h = run.xi_limit.step
    e2 = np.exp(2.0 * xi[1:-1])
    r_xi = (xi[2:] - 2 * xi[1:-1] + xi[:-2]) / h**2 + eta[1:-1] * e2
    r_eta = (eta[2:] - 2 * eta[1:-1] + eta[:-2]) / h**2 + 0.5 * e2
    return float(np.max(np.abs(r_xi))), float(np.max(np.abs(r_eta)))


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
