"""Inverse problem: find eta_in producing a prescribed deflection angle.

The deflection map is evaluated with xi_in pinned to 0 (a xi_in shift is a
pure time translation and leaves the angle unchanged, so the search space is
one-dimensional).  Empirically the map decreases from -pi/2 toward -pi as
eta_in grows, with a scattering onset somewhere below sqrt(2)*e^{arcosh 2};
none of that is assumed: the bracket is established by a multiplicative scan
(doubling upward, halving downward), non-scattering outcomes raise the scan
floor, and the root is then refined by the Illinois variant of regula falsi
(the kept end's function value is halved when the same end survives twice in
a row, so neither end stalls), with bisection whenever the step would leave
the bracket interior; only the sign change is needed.

Every evaluation is solver-only (integrator.deflection_of: no dense output,
no samples, and an early certificate for non-scattering data); only the
accepted root is integrated in full.  Refinement stops at a tenth of
root_tol, leaving room for the solver's own error in Theta; an iterate
within root_tol is still accepted when the bracket collapses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .closed_forms import AsymptoticData
from .integrator import (NotConvergedError, SolverConfig, Trajectory,
                         deflection, integrate)
from . import integrator
from . import geometry

DEFAULT_SEED = 8.0
DEFAULT_FLOOR = 1e-6
DEFAULT_CEILING = 1e6
THETA_MARGIN = 0.005 * math.pi
_SCAN_BUDGET = 80


class BracketNotFoundError(RuntimeError):
    """Scan exhausted its range without a sign change; carries the evals."""

    def __init__(self, message: str, scanned: list[tuple[float, Optional[float]]]):
        super().__init__(message)
        self.scanned = scanned


@dataclass(frozen=True)
class ShootingResult:
    theta_target: float
    eta_in_found: float
    theta_achieved: float
    iterations: int
    bracket: tuple[float, float]
    trajectory: Trajectory
    scanned: list[tuple[float, Optional[float]]]   # every evaluation, in order


def deflection_of(eta_in: float, xi_in: float = 0.0,
                  cfg: SolverConfig = SolverConfig()) -> float:
    """Deflection angle for given data; raises NotConvergedError otherwise."""
    return integrator.deflection_of(AsymptoticData(xi_in, eta_in), cfg)


def shoot(theta_target: float, cfg: SolverConfig = SolverConfig(),
          root_tol: float = 1e-8, margin: float = THETA_MARGIN,
          seed: float = DEFAULT_SEED, floor: float = DEFAULT_FLOOR,
          ceiling: float = DEFAULT_CEILING, max_iter: int = 200) -> ShootingResult:
    """Find eta_in whose deflection hits theta_target to within root_tol.

    theta_target must keep the configured margin to the interval ends
    (-pi, -pi/2).  Non-scattering evaluations (blow-up or no escape within
    budget) raise the lower scan edge; bisection is the convergence
    guarantee and Illinois proposals are accepted only strictly inside the
    bracket.  The search stops at |dtheta| <= root_tol/10.  Deterministic:
    identical inputs produce identical results.
    """
    if not (-math.pi + margin < theta_target < -0.5 * math.pi - margin):
        raise ValueError(
            f"theta_target {theta_target} outside (-pi + {margin:g}, -pi/2 - {margin:g})")

    scanned: list[tuple[float, Optional[float]]] = []
    good: dict[float, float] = {}   # eta -> theta(eta) - theta_target
    lo_fail = floor                 # largest eta known (or assumed) non-scattering

    def evaluate(eta: float) -> bool:
        nonlocal lo_fail
        if eta in good:
            return True
        try:
            theta = deflection_of(eta, 0.0, cfg)
        except NotConvergedError:
            scanned.append((eta, None))
            lo_fail = max(lo_fail, eta)
            return False
        scanned.append((eta, theta))
        good[eta] = theta - theta_target
        return True

    def fail(why: str) -> BracketNotFoundError:
        return BracketNotFoundError(
            f"no bracket for theta = {theta_target}: {why}", scanned)

    def sign_change_pair():
        es = sorted(good)
        for e1, e2 in zip(es, es[1:]):
            if good[e1] * good[e2] <= 0.0:
                return e1, e2
        return None

    # --- multiplicative scan for a sign change -----------------------------
    eta = seed
    while not evaluate(eta):
        eta *= 2.0
        if eta > ceiling:
            raise fail("no scattering outcome up to the ceiling")

    while sign_change_pair() is None:
        if len(scanned) > _SCAN_BUDGET:
            raise fail("scan budget exhausted")
        es = sorted(good)
        if good[es[0]] < 0.0:
            # every achieved angle too deep: explore smaller eta
            lo_min = es[0]
            cand = 0.5 * lo_min
            if cand <= lo_fail:
                cand = math.sqrt(lo_fail * lo_min)
            if cand <= lo_fail * (1.0 + 1e-12) or cand >= lo_min * (1.0 - 1e-12):
                raise fail("lower edge pinned by non-scattering outcomes")
            evaluate(cand)
        else:
            # every achieved angle too shallow: explore larger eta
            cand = 2.0 * es[-1]
            if cand > ceiling:
                raise fail("upper edge reached the ceiling")
            if not evaluate(cand):
                raise fail("non-scattering outcome above a scattering point")

    lo, hi = sign_change_pair()
    f_lo, f_hi = good[lo], good[hi]

    # --- Illinois steps, safeguarded by bisection ----------------------------
    # g_lo, g_hi are the end values the secant formula uses; the end kept
    # twice in a row gets its value halved
    g_lo, g_hi = f_lo, f_hi
    kept = 0                        # -1: lo kept last step, +1: hi kept
    best_eta, best_f = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
    iterations = 0
    while abs(best_f) > 0.1 * root_tol and iterations < max_iter:
        iterations += 1
        cand = None
        if g_hi != g_lo:
            sec = hi - g_hi * (hi - lo) / (g_hi - g_lo)
            if lo < sec < hi and min(sec - lo, hi - sec) > 1e-15 * hi:
                cand = sec
        if cand is None:
            cand = 0.5 * (lo + hi)
        if not evaluate(cand):
            # interior point below the scattering onset: recover by moving
            # toward the known-scattering upper end
            cand = math.sqrt(cand * hi)
            if not evaluate(cand):
                raise fail("bracket interior stopped scattering")
        fc = good[cand]
        if abs(fc) < abs(best_f):
            best_eta, best_f = cand, fc
        if fc == 0.0:
            break
        if (fc > 0.0) == (f_lo > 0.0):
            lo, f_lo, g_lo = cand, fc, fc
            if kept == 1:
                g_hi *= 0.5
            kept = 1
        else:
            hi, f_hi, g_hi = cand, fc, fc
            if kept == -1:
                g_lo *= 0.5
            kept = -1
        if hi - lo <= 1e-15 * hi:
            break

    if abs(best_f) > root_tol:
        raise fail(f"root refinement stalled at |dtheta| = {abs(best_f):.3e}")
    traj = integrate(AsymptoticData(0.0, best_eta), cfg)
    return ShootingResult(
        theta_target=theta_target, eta_in_found=best_eta,
        theta_achieved=deflection(traj), iterations=iterations,
        bracket=(lo, hi), trajectory=traj, scanned=scanned,
    )


@dataclass(frozen=True)
class SweepRow:
    theta_target: float
    theta: float
    eta_in: float
    kappa: float
    alpha: float
    k_star: float
    pokhozaev_residual: float
    energy_drift: float
    status: str = "ok"


def sweep(theta_grid, cfg: SolverConfig = SolverConfig(),
          root_tol: float = 1e-8, *, on_row: Optional[Callable[[SweepRow], None]] = None,
          **shoot_kw) -> list[SweepRow]:
    """One shoot plus geometry evaluation per grid angle, in grid order.

    Row failures are recorded in the status field (values NaN) and the sweep
    continues.  on_row, when given, is called with each row as it is done.
    """
    rows: list[SweepRow] = []
    for theta_t in theta_grid:
        theta_t = float(theta_t)
        try:
            res = shoot(theta_t, cfg, root_tol=root_tol, **shoot_kw)
            sol = geometry.to_radial(res.trajectory)
            rows.append(SweepRow(
                theta_target=theta_t,
                theta=res.theta_achieved,
                eta_in=res.eta_in_found,
                kappa=sol.kappa,
                alpha=sol.alpha,
                k_star=sol.k_star,
                pokhozaev_residual=geometry.pokhozaev_residual(sol.kappa, sol.alpha),
                energy_drift=res.trajectory.max_energy_drift,
            ))
        except (BracketNotFoundError, NotConvergedError, ValueError) as exc:
            nan = float("nan")
            rows.append(SweepRow(theta_target=theta_t, theta=nan, eta_in=nan,
                                 kappa=nan, alpha=nan, k_star=nan,
                                 pokhozaev_residual=nan, energy_drift=nan,
                                 status=f"failed: {exc}"))
        if on_row is not None:
            on_row(rows[-1])
    return rows
