"""Inverse problem: find eta_in producing a prescribed deflection angle.

The deflection map is evaluated with xi_in pinned to 0 (a xi_in shift is a
pure time translation and leaves the angle unchanged, so the search space is
one-dimensional).  Empirically the map decreases from -pi/2 toward -pi as
eta_in grows, above a scattering onset near eta_in = 1.2998.

The search starts at the tabulated inverse map (deflection_table.eta_in_of),
clamped to CEILING.  At the default SolverConfig the seed lands within
deflection_table.MISS = 2e-10 of the target, so at the default root_tol it
is the root: one solver call per shot.  Other solver settings move the map,
and the seed can then miss; a miss changes only the cost.

Every later probe follows one rule (Newton's method inside a bracket, as in
Numerical Recipes' rtsafe): the Newton step eta - f * eta_in'(theta) from the
latest scattering point, where f = theta - theta_target and eta_in'(theta)
is the table's slope at the angle seen there.  Each evaluation narrows the
bracket (lo, hi): f > 0 or a non-scattering outcome raises lo, f < 0 lowers
hi.  lo starts at 0, since eta_in <= 0 is certified non-scattering
(integrator._solve), and hi at CEILING.  A step that leaves the bracket
goes to its log-midpoint, or to hi/2 while lo is 0.  Before any angle is
seen there is no slope: a non-scattering probe (a budget shorter than the
default raises the onset) is followed by one _ONSET_STEP higher, relative,
the step doubling each time.

A probe within a tenth of root_tol ends the search, leaving room for the
solver's own error in Theta.  When the next probe would lie within
_COLLAPSE, relative, of a bracket end, the bracket has collapsed: the better
scattering end is accepted if it lies within root_tol, and otherwise the
search fails, naming why: no root up to the ceiling, the lower edge pinned
by non-scattering outcomes, or a stalled refinement.  When the lower end's
runs were budget stops, either of the first two names max_time instead.  A
non-scattering outcome above a scattering point ends the search with a
BracketNotFoundError, a solver failure at once.

Evaluations are solver-only (integrator.deflection_of: no dense output, no
samples, and an early certificate for non-scattering data), except for a
probe expected to end the search: the seed when MISS is within a tenth of
root_tol, and a Newton probe that _predicts_last picks.  It is integrated in
full (integrator.integrate) and its trajectory kept, so the accepted root is
not solved twice.  deflection_of equals deflection of the integrated
trajectory bit for bit, so a guess changes cost only, never the probes; when
the kept trajectory is not the root's, the root is integrated once more at
the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .closed_forms import AsymptoticData
from .deflection_table import MISS as SEED_MISS, eta_in_of
from .integrator import (NotConvergedError, Outcome, SolverConfig, Trajectory,
                         deflection, deflection_of, integrate)
from . import geometry

# the bracket's upper end: the deepest target, -pi + THETA_MARGIN, has its
# root near eta_in 63.7.  Above eta_in 64 closed_forms.start_time holds
# eta_in*w fixed, and a run escapes 18.247 after its start at every eta_in
# (measured at 64, 128, 1e3, 1e5 and 1e6), so a budget stop at the ceiling
# stands for every larger eta_in
CEILING = 128.0
DEFAULT_ROOT_TOL = 1e-8
THETA_MARGIN = 0.005 * math.pi
_EVAL_BUDGET = 80
# relative step after a non-scattering probe, doubling: a shorter budget
# raises the onset (1.29982 at the default, 1.30103 at max_time 100), and one
# step lifts the shallowest seed, 1.29983, past the onset at max_time 100
_ONSET_STEP = 2.0**-7
# a probe this close to a bracket end, relative, would barely narrow it: the
# bracket has collapsed
_COLLAPSE = 1e-12


class BracketNotFoundError(RuntimeError):
    """The search ended without a root; carries the evaluations."""

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


def check_search(root_tol: float) -> None:
    """Raise ValueError unless root_tol is finite and positive."""
    if not (math.isfinite(root_tol) and root_tol > 0.0):
        raise ValueError(f"root_tol must be finite and positive, got {root_tol!r}")


def _predicts_last(f: float, tol: float) -> bool:
    """Whether the Newton probe from a scattering point with residual f is
    expected to land within tol.

    With the table's slope its residual is about 2*f^2 mid-range and 64*f^2
    at the deep end (10*f^2 is taken).  A guess decides only whether a probe
    is integrated in full, never where it lies."""
    return 10.0 * f * f <= tol


def shoot(theta_target: float, cfg: SolverConfig = SolverConfig(),
          root_tol: float = DEFAULT_ROOT_TOL) -> ShootingResult:
    """Find eta_in whose deflection hits theta_target to within root_tol.

    theta_target must keep THETA_MARGIN to the interval ends (-pi, -pi/2).
    The search stops at a probe within root_tol/10, where bracket is
    (eta, eta), or at a bracket end within root_tol once the bracket
    collapses, where bracket holds the nearest evaluated scattering points
    below and above the root (residual > 0 and < 0), the root standing in
    for a side with none.  iterations counts the evaluations after the
    seed: an accepted seed gives 0 and (eta, eta).  Deterministic: identical
    inputs produce identical results.  Bad search arguments (check_search)
    and targets outside the margin raise ValueError, a solver failure
    NotConvergedError.
    """
    check_search(root_tol)
    if not (-math.pi + THETA_MARGIN < theta_target < -0.5 * math.pi - THETA_MARGIN):
        raise ValueError(f"theta_target {theta_target} outside (-pi + "
                         f"{THETA_MARGIN:g}, -pi/2 - {THETA_MARGIN:g})")

    tol = 0.1 * root_tol
    scanned: list[tuple[float, Optional[float]]] = []
    kept: Optional[Trajectory] = None   # the latest probe integrated in full
    # bracket ends as (eta, theta - theta_target); the residual is None at an
    # end that was not evaluated or did not scatter
    lo: tuple[float, Optional[float]] = (0.0, None)
    hi: tuple[float, Optional[float]] = (CEILING, None)
    lo_why = None                        # how the lower end's run ended
    near = None                          # (eta, f) of the latest scattering probe

    def fail(why: str) -> BracketNotFoundError:
        return BracketNotFoundError(
            f"no bracket for theta = {theta_target}: {why}", scanned)

    def pinned(why: str) -> BracketNotFoundError:
        # the lower end found no angle: name the budget when its runs hit it
        if lo_why is Outcome.OUT_OF_BUDGET:
            why = (f"lower edge pinned by runs up to eta_in = {lo[0]:.9g} that "
                   f"find no escape within max_time = {cfg.max_time:g}; "
                   "raise --max-time")
        return fail(why)

    seed = eta_in_of(theta_target)[0]
    eta = min(seed, CEILING)
    # the seed misses by at most SEED_MISS at the default SolverConfig: when
    # that is within tol, it is integrated in full, as it should be the root
    full = eta == seed and SEED_MISS <= tol
    rel = _ONSET_STEP
    while True:
        a = AsymptoticData(0.0, eta)
        try:
            if full:
                kept = integrate(a, cfg)
                theta = deflection(kept)
            else:
                theta = deflection_of(a, cfg)
        except NotConvergedError as exc:
            # a solver failure ends the search; any other run with no
            # angle is a non-scattering lower end
            if exc.outcome is Outcome.SOLVER_FAILURE:
                raise
            scanned.append((eta, None))
            if lo[1] is not None:
                raise fail("bracket interior stopped scattering")
            lo, lo_why = (eta, None), exc.outcome
        else:
            scanned.append((eta, theta))
            f = theta - theta_target
            if abs(f) <= tol:
                root, bracket = eta, (eta, eta)
                break
            near = (eta, f)
            if f > 0.0:
                lo = near
            else:
                hi = near
        if len(scanned) > _EVAL_BUDGET:
            raise fail("evaluation budget exhausted")

        if near is None:
            # no angle seen yet: climb past the onset
            if eta >= CEILING:
                raise pinned("no root up to the ceiling")
            eta, full = min(eta * (1.0 + rel), CEILING), False
            rel = min(2.0 * rel, 1.0)
            continue
        e, f = near
        eta, full = e - f * eta_in_of(theta_target + f)[1], _predicts_last(f, tol)
        if not lo[0] < eta < hi[0]:
            eta = math.sqrt(lo[0] * hi[0]) if lo[0] > 0.0 else 0.5 * hi[0]
            full = False
        if eta <= lo[0] * (1.0 + _COLLAPSE) or eta >= hi[0] * (1.0 - _COLLAPSE):
            # a scattering end is never replaced by a non-scattering one, and
            # near is one of them
            root, f = min((end for end in (lo, hi) if end[1] is not None),
                          key=lambda end: abs(end[1]))
            if abs(f) <= root_tol:
                bracket = (lo[0] if lo[1] is not None else root,
                           hi[0] if hi[1] is not None else root)
                break
            if hi[1] is None:
                raise fail("no root up to the ceiling")
            if lo[1] is not None:
                raise fail(f"root refinement stalled at |dtheta| = {abs(f):.3e}")
            raise pinned("lower edge pinned by non-scattering outcomes")

    if kept is None or kept.asymptotics.eta_in != root:
        kept = integrate(AsymptoticData(0.0, root), cfg)
    return ShootingResult(
        theta_target=theta_target, eta_in_found=root,
        theta_achieved=deflection(kept), iterations=len(scanned) - 1,
        bracket=bracket, trajectory=kept, scanned=scanned,
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
          root_tol: float = DEFAULT_ROOT_TOL, *,
          on_row: Optional[Callable[[SweepRow], None]] = None) -> list[SweepRow]:
    """One shoot plus geometry evaluation per grid angle, in grid order.

    Row failures are recorded in the status field (values NaN) and the sweep
    continues; bad search arguments raise ValueError before the first row.
    on_row, when given, is called with each row as it is done.
    """
    check_search(root_tol)
    rows: list[SweepRow] = []
    for theta_t in theta_grid:
        theta_t = float(theta_t)
        try:
            res = shoot(theta_t, cfg, root_tol=root_tol)
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
            rows.append(SweepRow(theta_t, *[math.nan] * 7, status=f"failed: {exc}"))
        if on_row is not None:
            on_row(rows[-1])
    return rows
