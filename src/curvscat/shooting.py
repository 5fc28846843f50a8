"""Inverse problem: find eta_in producing a prescribed deflection angle.

The deflection map is evaluated with xi_in pinned to 0 (a xi_in shift is a
pure time translation and leaves the angle unchanged, so the search space is
one-dimensional).  Empirically the map decreases from -pi/2 toward -pi as
eta_in grows, above a scattering onset near eta_in = 1.2998; none of that is
assumed, and only a sign change is needed.

The scan for it starts at the series inverse of the deep-end law
(closed_forms.deflection_deep_inverse), clamped to [floor, ceiling], which
lands within 1.0e-6 relative of the root at eta_in = 8 and closer above.
The next probe is the law's Newton step, with the slope of its series
inverse at the angle seen; over the benchmark's targets its residual is at
most about 20*f0^2 above roundoff, where f0 is the seed's.  Each later
probe is the secant through the two scattering points nearest the root,
overshot 2x so that it lands across the root; every step is at most a
factor of 2 in eta.  Which way to step comes from the signs seen.
Non-scattering outcomes raise the scan floor: a step that would pass it
goes to the geometric mean of the floor and the lowest scattering point,
and a step toward it is not overshot, as past the root lies the onset.  A
non-scattering first probe (the law's inverse never falls below
2*sqrt(5/12) = 1.2910, just under the onset) is followed by probes
climbing by _ONSET_STEP, doubling.  A probe within a tenth of root_tol
ends the search, bracketed or not.

Otherwise the root is refined by Brent's method (scipy.optimize.brentq) on
the scan's bracket: inverse quadratic and secant steps, with bisection
whenever they would not shrink the bracket fast enough.  Refinement stops
at a tenth of root_tol, leaving room for the solver's own error in Theta;
an iterate within root_tol is still accepted when the bracket collapses to
a few ulps.  A non-scattering point inside the bracket ends the search with
a BracketNotFoundError.

Evaluations are solver-only (integrator.deflection_of: no dense output, no
samples, and an early certificate for non-scattering data), except for an
un-overshot probe that _predicts_last expects to end the search: it is
integrated in full (integrator.integrate) and its trajectory kept, so the
accepted root is not solved twice.  deflection_of equals deflection of the
integrated trajectory bit for bit, so a guess changes cost only, never the
iterates; when no kept trajectory is the root, the root is integrated once
more at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from scipy.optimize import brentq

from .closed_forms import (AsymptoticData, deflection_deep_inverse,
                           deflection_deep_inverse_slope)
from .integrator import (NotConvergedError, SolverConfig, Trajectory,
                         deflection, deflection_of, integrate)
from . import geometry

DEFAULT_FLOOR = 1e-6
DEFAULT_CEILING = 1e6
THETA_MARGIN = 0.005 * math.pi
_SCAN_BUDGET = 80
# least relative scan step: a tiny Newton or secant step still moves
_EPS = 2.0**-52
# relative step after a non-scattering probe: the least power of 2 that lifts
# the law inverse's lowest value, 1.29099, past the scattering onset (1.29982
# at the default budget, 1.29981 at max_time 3000), so one step clears it
_ONSET_STEP = 2.0**-7


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


def check_search(root_tol: float, floor: float, ceiling: float) -> None:
    """Raise ValueError, naming the argument, unless root_tol, floor and
    ceiling are finite and positive with floor < ceiling."""
    for name, value in (("root_tol", root_tol), ("floor", floor),
                        ("ceiling", ceiling)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if floor >= ceiling:
        raise ValueError(f"floor {floor!r} must lie below ceiling {ceiling!r}")


def _predicts_last(fs: list[float], tol: float) -> bool:
    """Whether the next un-overshot probe is expected to land within tol,
    from the residuals fs of the last one or two scattering evaluations.

    After one residual the probe is the law's Newton step, whose residual
    stays within about 20*f0^2; later probes are secant-like steps, whose
    residual is about |f_n|*|f_n/f_{n-1}|.  A guess decides only whether a
    probe is integrated in full, never where it lies."""
    f = abs(fs[-1])
    if len(fs) == 1:
        return 10.0 * f * f <= tol
    return f * min(1.0, f / abs(fs[-2])) <= tol


def shoot(theta_target: float, cfg: SolverConfig = SolverConfig(),
          root_tol: float = 1e-8, floor: float = DEFAULT_FLOOR,
          ceiling: float = DEFAULT_CEILING) -> ShootingResult:
    """Find eta_in whose deflection hits theta_target to within root_tol.

    theta_target must keep THETA_MARGIN to the interval ends (-pi, -pi/2).
    Non-scattering evaluations (blow-up or no escape within budget) raise
    the lower scan edge.  The search stops at |dtheta| <= root_tol/10.
    A scan probe that lands there is accepted at once, with iterations 0
    and bracket (eta, eta).  Otherwise iterations counts the evaluations
    made after the scan found its bracket, and bracket is the first pair of
    neighbouring evaluations (in eta order) whose residuals change sign once
    refinement is done.  Deterministic: identical inputs produce identical
    results.  Bad search arguments (check_search) and targets outside the
    margin raise ValueError.
    """
    check_search(root_tol, floor, ceiling)
    if not (-math.pi + THETA_MARGIN < theta_target < -0.5 * math.pi - THETA_MARGIN):
        raise ValueError(f"theta_target {theta_target} outside (-pi + "
                         f"{THETA_MARGIN:g}, -pi/2 - {THETA_MARGIN:g})")

    tol = 0.1 * root_tol
    scanned: list[tuple[float, Optional[float]]] = []
    good: dict[float, float] = {}   # eta -> theta - theta_target, in evaluation order
    kept: dict[float, Trajectory] = {}   # probes integrated in full
    lo_fail = floor                 # largest eta known (or assumed) non-scattering

    def evaluate(eta: float, last: bool = False) -> bool:
        # a probe predicted to be the last is integrated in full and its
        # trajectory kept; deflection_of gives the same angle bit for bit
        nonlocal lo_fail
        if eta in good:
            return True
        a = AsymptoticData(0.0, eta)
        try:
            if last:
                traj = integrate(a, cfg)
                theta = deflection(traj)
                kept[eta] = traj
            else:
                theta = deflection_of(a, cfg)
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

    # --- scan for a sign change, seeded by the deep-end law ------------------
    eta = min(max(deflection_deep_inverse(theta_target), floor), ceiling)
    rel = _ONSET_STEP
    while not evaluate(eta):
        if eta >= ceiling:
            raise fail("no scattering outcome up to the ceiling")
        eta = min(eta * (1.0 + rel), ceiling)
        rel = min(2.0 * rel, 1.0)

    # each probe steps from the scattering point nearest the root, up to a
    # factor of 2 in eta: first the law's Newton step, with the slope of its
    # series inverse at the angle seen, then the secant through the two
    # nearest points, overshot 2x to land across the root, except toward a
    # non-scattering outcome, as past the root lies the onset
    def predicts_last() -> bool:
        return _predicts_last(list(good.values())[-2:], tol)

    while abs(good[next(reversed(good))]) > tol and sign_change_pair() is None:
        if len(scanned) > _SCAN_BUDGET:
            raise fail("scan budget exhausted")
        es = sorted(good)
        # every achieved angle too deep: explore smaller eta
        down = good[es[0]] < 0.0
        near = es[0] if down else es[-1]
        f = good[near]
        if len(es) == 1:
            step = abs(f * deflection_deep_inverse_slope(theta_target + f))
            over = 1.0
        else:
            far = es[1] if down else es[-2]
            df = f - good[far]
            step = abs(f * (near - far) / df) if df != 0.0 else math.inf
            over = 1.0 if down and lo_fail > floor else 2.0
        step = max(over * step, _EPS * near)
        last = over == 1.0 and predicts_last()
        if down:
            cand = near - min(step, 0.5 * near)
            if cand <= lo_fail:
                cand = math.sqrt(lo_fail * near)
                if cand <= lo_fail * (1.0 + 1e-12) or cand >= near * (1.0 - 1e-12):
                    raise fail("lower edge pinned by non-scattering outcomes")
            evaluate(cand, last)
        else:
            if near >= ceiling:
                raise fail("upper edge reached the ceiling")
            if not evaluate(min(near + min(step, near), ceiling), last):
                raise fail("non-scattering outcome above a scattering point")

    best_eta = next(reversed(good))
    if abs(good[best_eta]) <= tol:
        # a scan probe landed within tol: no refinement
        n_refine, bracket = 0, (best_eta, best_eta)
    else:
        # --- Brent's method on the bracket ----------------------------------
        # a residual within tol reads as an exact zero, on which brentq
        # stops; its rtol floor, 4*2^-52, stops it once the bracket collapses
        def residual(eta: float) -> float:
            if not evaluate(eta, predicts_last()):
                raise fail("bracket interior stopped scattering")
            f = good[eta]
            return 0.0 if abs(f) <= tol else f

        n_scan = len(scanned)
        best_eta = brentq(residual, *sign_change_pair(), xtol=math.ulp(0.0),
                          rtol=4.0 * _EPS, disp=False)
        best_f = good[best_eta]
        if abs(best_f) > root_tol:
            raise fail(f"root refinement stalled at |dtheta| = {abs(best_f):.3e}")
        n_refine, bracket = len(scanned) - n_scan, sign_change_pair()
    traj = kept.get(best_eta)
    if traj is None:
        traj = integrate(AsymptoticData(0.0, best_eta), cfg)
    return ShootingResult(
        theta_target=theta_target, eta_in_found=best_eta,
        theta_achieved=deflection(traj), iterations=n_refine,
        bracket=bracket, trajectory=traj, scanned=scanned,
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
    continues; bad search arguments raise ValueError before the first row.
    on_row, when given, is called with each row as it is done.
    """
    check_search(root_tol, shoot_kw.get("floor", DEFAULT_FLOOR),
                 shoot_kw.get("ceiling", DEFAULT_CEILING))
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
