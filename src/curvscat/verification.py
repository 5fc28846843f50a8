"""Invariant suite: every proved property checked on computed solutions.

Each line item is one inequality or structure statement evaluated on a trio
(configurable) of eta_in values.  Items are named by what they check; the
suite returns structured results for the CLI to render and exit on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, geometry, picard
from .closed_forms import (ETA_CRIT_UPPER, AsymptoticData, explicit_bounds,
                           t0_state_bounds, xi_subsolution, xi_supersolution)
from .dynamics import BOUNDARY_TOL, exp_floored
from .integrator import NotConvergedError, SolverConfig, Trajectory, integrate

POKHOZAEV_REL_TOL = 1e-3
SLOPE_REL_TOL = 1e-3
SANDWICH_SLACK = -1e-8
_16PI2 = 16.0 * math.pi**2


@dataclass(frozen=True)
class CheckResult:
    name: str
    eta_in: float
    passed: bool
    detail: str


def _t0_sample_index(traj: Trajectory) -> int:
    return int(np.argmin(np.abs(traj.t - traj.events.t0)))


def _potential_max(traj: Trajectory) -> float:
    """max eta*e^{2 xi} over the samples.  It is of order 1, and the
    samples where dynamics.exp_floored acts sit far below it."""
    return float(np.max(traj.eta * exp_floored(2.0 * traj.xi)))


def _check_forbidden_zone(traj: Trajectory, a: AsymptoticData) -> CheckResult:
    q = _potential_max(traj)
    return CheckResult("forbidden-zone confinement", a.eta_in,
                       q <= 1.0 + BOUNDARY_TOL,
                       f"max eta*e^(2xi) = {q:.12f} (allowed {1.0 + BOUNDARY_TOL})")


def _check_inflection(traj: Trajectory, a: AsymptoticData) -> CheckResult:
    g = analysis.g_values(traj)
    crossings = int(np.sum((g[:-1] > 0.0) & (g[1:] <= 0.0))
                    + np.sum((g[:-1] < 0.0) & (g[1:] >= 0.0)))
    rep = analysis.inflection_diagnostics(traj)
    ok = (abs(rep.g_start - 1.0) <= 1e-6
          and float(np.max(np.diff(g))) <= 1e-9
          and crossings == 1
          and rep.eta_sim < a.eta_in
          and rep.sign_pattern_ok)
    return CheckResult(
        "single-inflection convexity", a.eta_in, ok,
        f"g(start) = {rep.g_start:.9f}, crossings = {crossings}, "
        f"eta_sim = {rep.eta_sim:.6f}, pattern_ok = {rep.sign_pattern_ok}")


def _check_past_iteration(a: AsymptoticData) -> CheckResult:
    run = picard.iterate_past(a, explicit_bounds(a).t0_lower - 1.0,
                              step=2e-3, tol=0.0, max_iter=6)
    rep = picard.monotonicity_report(run, allowance=1e-12)
    return CheckResult("monotone past iteration", a.eta_in, rep.ordered,
                       f"worst ordering violation = {rep.worst_violation:.3e} "
                       f"over {len(run.iterates_xi)} iterates")


def _check_t0_bound(traj: Trajectory, a: AsymptoticData) -> CheckResult:
    b = explicit_bounds(a)
    t0 = traj.events.t0
    early = traj.t < b.t0_lower
    eta_pos = bool(np.all(traj.eta[early] > 0.0))
    xi_below = bool(np.all(traj.xi[early] < a.xi_in + traj.t[early]))
    ok = t0 is not None and t0 > b.t0_lower and eta_pos and xi_below
    return CheckResult(
        "eta-zero time lower bound", a.eta_in, ok,
        f"t0 = {t0}, bound = {b.t0_lower:.6f}, eta>0 early: {eta_pos}, "
        f"xi<xi_in+t early: {xi_below}")


def _check_sandwich(traj: Trajectory, a: AsymptoticData) -> CheckResult:
    b = explicit_bounds(a)
    th = traj.events.t_half
    if th is None or not th > b.t_half_lower:
        return CheckResult("half-level bound and envelope sandwich", a.eta_in,
                           False, f"t_half = {th}, bound = {b.t_half_lower:.6f}")
    m = traj.t < th
    lo_slack = float(np.min(traj.xi[m] - xi_subsolution(traj.t[m], a)))
    hi_slack = float(np.min(xi_supersolution(traj.t[m], a) - traj.xi[m]))
    ok = lo_slack >= SANDWICH_SLACK and hi_slack >= SANDWICH_SLACK
    return CheckResult(
        "half-level bound and envelope sandwich", a.eta_in, ok,
        f"t_half = {th:.6f} > {b.t_half_lower:.6f}; "
        f"sandwich slacks = ({lo_slack:.3e}, {hi_slack:.3e})")


def _check_interior_max(traj: Trajectory, a: AsymptoticData) -> CheckResult:
    name = "interior-maximum regime bounds"
    if a.eta_in <= ETA_CRIT_UPPER:
        return CheckResult(name, a.eta_in, True,
                           f"eta_in <= {ETA_CRIT_UPPER:.6f}: not in regime, skipped")
    t_m, t0 = traj.events.t_m, traj.events.t0
    if t_m is None or t0 is None or not t_m < t0:
        return CheckResult(name, a.eta_in, False, f"t_m = {t_m}, t0 = {t0}")
    xi_up, xid_up, etad_lo = t0_state_bounds(a)
    k = _t0_sample_index(traj)
    ok = bool(traj.xi[k] < xi_up and traj.xi_dot[k] < xid_up and xid_up < 0.0
              and traj.eta_dot[k] > etad_lo)
    return CheckResult(
        name, a.eta_in, ok,
        f"t_m = {t_m:.6f} < t0 = {t0:.6f}; at t0: xi = {traj.xi[k]:.6f} < {xi_up:.6f}, "
        f"xi_dot = {traj.xi_dot[k]:.6f} < {xid_up:.6f}, "
        f"eta_dot = {traj.eta_dot[k]:.6f} > {etad_lo:.6f}")


def _check_future_iteration(traj: Trajectory, a: AsymptoticData) -> CheckResult:
    k = _t0_sample_index(traj)
    p0 = traj.point(k)
    run = picard.iterate_future(p0, t_max=p0.t + 5.0, step=2e-3,
                                epsilon=0.1, tol=1e-9, max_iter=400)
    rep = picard.monotonicity_report(run, allowance=1e-8)
    ok = rep.ordered and run.converged
    return CheckResult("monotone future iteration", a.eta_in, ok,
                       f"converged = {run.converged} in {len(run.sup_diff_history)} "
                       f"iterations, worst violation = {rep.worst_violation:.3e}")


def _check_pokhozaev(sol: geometry.RadialSolution, a: AsymptoticData) -> CheckResult:
    rel = abs(geometry.pokhozaev_residual(sol.kappa, sol.alpha)) / _16PI2
    return CheckResult("area-curvature identity", a.eta_in, rel <= POKHOZAEV_REL_TOL,
                       f"relative residual = {rel:.3e} (kappa = {sol.kappa:.6f}, "
                       f"alpha = {sol.alpha:.6f})")


def _check_slopes(traj: Trajectory, sol: geometry.RadialSolution,
                  a: AsymptoticData) -> CheckResult:
    fit = geometry.asymptotic_fit(traj)
    ru = abs(fit.u_slope + sol.kappa / (2 * math.pi)) / (sol.kappa / (2 * math.pi))
    rk = abs(fit.k_slope + sol.alpha / (2 * math.pi)) / (sol.alpha / (2 * math.pi))
    ok = ru <= SLOPE_REL_TOL and rk <= SLOPE_REL_TOL
    return CheckResult("logarithmic tail slopes", a.eta_in, ok,
                       f"u_slope rel err = {ru:.3e}, K_slope rel err = {rk:.3e}")


def run_suite(eta_values=(6.0, 8.0, 12.0),
              cfg: SolverConfig = SolverConfig()) -> list[CheckResult]:
    """Run every line item on each eta_in (xi_in = 0); returns all results.

    Data that gives no accepted scattering solution, a solver failure
    included, yields one failed line item naming why, not an exception.
    """
    results: list[CheckResult] = []
    for eta_in in eta_values:
        a = AsymptoticData(0.0, float(eta_in))
        try:
            traj = integrate(a, cfg)
            if not traj.escaped:
                raise NotConvergedError(traj.outcome)
            sol = geometry.to_radial(traj)
        except (ValueError, NotConvergedError) as exc:
            results.append(CheckResult("accepted scattering solution",
                                       a.eta_in, False, str(exc)))
            continue
        results += [
            _check_forbidden_zone(traj, a),
            _check_inflection(traj, a),
            _check_past_iteration(a),
            _check_t0_bound(traj, a),
            _check_sandwich(traj, a),
            _check_interior_max(traj, a),
            _check_future_iteration(traj, a),
            _check_pokhozaev(sol, a),
            _check_slopes(traj, sol, a),
        ]
    return results
