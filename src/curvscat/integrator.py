"""Adaptive integration of the scattering equations from asymptotic data.

Runs start from the free-motion expansion at closed_forms.start_time, where
its expansion parameter eta_in*w, w = exp(2*(xi_in + t_start)), is at most
2.3e-8 at every eta_in.  Stepping uses the embedded adaptive Runge-Kutta
pair DOP853 with dense output (dop853.solve_ivp, which takes scipy's steps
on plain floats); the scheme is incidental, the contract is the tolerances.
The equations are written once, as source (dynamics.RHS_SHARED and
RHS_SOURCE), and so are the events below: escape, eta = 0 and the
certificate, and for integrate also eta = eta_in/2 and xi_dot = 0.  The
stepper compiles each of the two systems into one module and checks the
events inside its kernel on every accepted step; the escape event is the
one escape test.

A run ends in one of four ways, its Outcome:
  * ESCAPED: |eta*exp(2*xi)|, |speed^2 - 1| and exp(4*xi), the order of the
    free leg's neglected terms, all below escape_tol while xi_dot < 0 (the
    gate keeps the criterion from firing on the inbound leg);
  * CERTIFIED non-scattering: eta < 0 with xi_dot > 0.  eta_dot < 0
    throughout, so from there xi'' = -eta*exp(2*xi) > 0 keeps xi_dot > 0,
    the escape gate never opens and xi diverges.  The run stops there and
    keeps the state in events.blowup.  Data with eta_in <= 0 start inside
    it and make no solver call;
  * OUT_OF_BUDGET: no escape within max_time after t_start.  A budget
    below the spacing of floats at t_start makes no solver call;
  * SOLVER_FAILURE: a step below 10 ulp of t, which raises NotConvergedError
    with the stepper's message in place of a trajectory.
A run that did not escape gives no angle: NotConvergedError carries how.

The solver stops at escape and keeps the state there in events.escape.
After it, samples and the eta crossings come from the closed-form free leg
(closed_forms.free_leg), and the deflection angle is the direction of the
line it approaches (closed_forms.free_asymptote), read from the escape
state alone: no sampling flag moves it.  Escaped runs are sampled up
to max(t0 + MIN_TAIL, t_escape + TAIL_PAD), capped by the budget, so the
eta = 0 crossing (which scales like eta_in/|sin Theta|) and the asymptotic
tail are inside the window.

Samples are taken on a uniform grid at dense_step spacing, with t_end and
the refined event times placed among them by one insert, each unless within
1e-12 of a time already placed.  Trajectory.off_grid names the at most four
placed samples, and Trajectory.window gives the regular ones, which radial
reconstruction and the quadrature read.  The dense output gives the
samples up to escape, and the free leg the ones after it.  From eta_in ~ 19
on, the window's far tail reaches
2*xi < -708, where np.exp makes subnormal results at some hundred times the
cost of normal ones; the free leg and the energy floor their exponents at
dynamics.EXP_FLOOR, which changes no sample and no energy.

deflection_of(a, cfg) gives deflection(integrate(a, cfg)) bit for bit from
the same solver call without dense output or samples.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .closed_forms import (AsymptoticData, free_asymptote, free_leg,
                           free_motion_expansion, start_time)
from .dop853 import MIN_RTOL, Event, System, solve_ivp
from .dynamics import RHS_SHARED, RHS_SOURCE, PhasePoint, energy_array

MIN_TAIL, TAIL_PAD = 12.0, 6.0     # the window past t0 and past escape


class Outcome(enum.Enum):
    """How a run ended; the value is the reason a command reports."""

    ESCAPED = "escaped"
    CERTIFIED = "eta < 0 with xi_dot > 0, so escape is impossible"
    OUT_OF_BUDGET = "no escape within the time budget"
    SOLVER_FAILURE = "solver failure"


class NotConvergedError(Exception):
    """No deflection angle from a run that ended in outcome, which is not
    ESCAPED.  detail is the stepper's message of a solver failure."""

    def __init__(self, outcome: Outcome, detail: str = ""):
        super().__init__({
            Outcome.CERTIFIED: f"blow-up: {outcome.value}",
            Outcome.OUT_OF_BUDGET: outcome.value,
            Outcome.SOLVER_FAILURE: f"{outcome.value}: {detail}"}[outcome])
        self.outcome = outcome


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances, budget and sample spacing for integrate().

    max_time is a duration budget measured from the start time.  Every field
    must be finite and positive, and rel_tol at least the stepper's floor
    MIN_RTOL; each field is one command-line flag (rel_tol is --rel-tol).
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    escape_tol: float = 1e-7
    max_time: float = 600.0
    dense_step: float = 0.01

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"SolverConfig.{name} must be finite and positive")
        if self.rel_tol < MIN_RTOL:
            raise ValueError(f"SolverConfig.rel_tol must be at least 100 eps = {MIN_RTOL!r}")


@dataclass(frozen=True)
class TrajectoryEvents:
    """Detected event times: eta = 0 (t0), eta = eta_in/2 (t_half), xi_dot = 0
    (t_m), plus the state at which a run stopped: at the non-scattering
    certificate (blowup) or at escape (escape).  Absent events stay None."""

    t0: Optional[float] = None
    t_half: Optional[float] = None
    t_m: Optional[float] = None
    blowup: Optional[PhasePoint] = None
    escape: Optional[PhasePoint] = None


@dataclass(frozen=True)
class Trajectory:
    """Dense time-ordered samples of one run, with its events."""

    t: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    xi_dot: np.ndarray
    eta_dot: np.ndarray
    events: TrajectoryEvents
    asymptotics: AsymptoticData
    outcome: Outcome
    config: SolverConfig
    off_grid: tuple[int, ...] = ()    # sorted indices of the samples off the grid

    def __post_init__(self):
        if len(self.t) and np.any(np.diff(self.t) <= 0.0):
            raise ValueError("trajectory samples must be strictly increasing in t")
        for arr in (self.t, self.xi, self.eta, self.xi_dot, self.eta_dot):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def escaped(self) -> bool:
        return self.outcome is Outcome.ESCAPED

    def point(self, k: int) -> PhasePoint:
        return PhasePoint(float(self.t[k]), float(self.xi[k]), float(self.eta[k]),
                          float(self.xi_dot[k]), float(self.eta_dot[k]))

    @cached_property
    def window(self) -> tuple[np.ndarray, ...]:
        """The regular samples (t, xi, eta, xi_dot, eta_dot), read-only: the
        runs between the off_grid samples, joined."""
        ends = (-1, *self.off_grid, len(self.t))
        window = tuple(np.concatenate([c[lo + 1:hi] for lo, hi in zip(ends, ends[1:])])
                       for c in (self.t, self.xi, self.eta, self.xi_dot, self.eta_dot))
        for arr in window:
            arr.setflags(write=False)
        return window

    @cached_property
    def energy(self) -> np.ndarray:
        """The energy at each sample, read-only."""
        e = energy_array(self.xi, self.eta, self.xi_dot, self.eta_dot)
        e.setflags(write=False)
        return e

    @cached_property
    def max_energy_drift(self) -> float:
        """max over the samples of |2E - 1|, the drift from E = 1/2."""
        return float(np.max(np.abs(2.0 * self.energy - 1.0)))


# The events, as source over the state y0..y3 = (xi, xi_dot, eta, eta_dot)
# and the shared e2 = exp(2*xi) of dynamics.RHS_SHARED.  Escape is negative
# when the state passes the escape test.  The certificate turns positive
# once eta < 0 and xi_dot > 0: eta_dot < 0 always, so from there
# xi'' = -eta*e^{2 xi} > 0 keeps xi_dot > 0 and the escape gate xi_dot < 0
# never opens.
_ESCAPE = Event("1.0 if y1 >= 0.0 else "
                "max(abs(y2 * e2), abs(y1 * y1 + y3 * y3 - 1.0), e2 * e2) - escape_tol",
                direction=-1, terminal=True)
_STOPS = (_ESCAPE, Event("y2", direction=-1),
          Event("min(-y2, y1)", direction=1, terminal=True))

# Events 0-2 are escape (terminal), eta = 0 and the certificate (terminal).
# eta = 0 is listed ahead of the certificate, which fires at that same root
# when xi_dot > 0 there, so the crossing is kept.  A sampled run also
# watches eta = eta_in/2 and xi_dot = 0 (events 3 and 4).
_SOLVER = System(RHS_SOURCE, RHS_SHARED, _STOPS, ("escape_tol",))
_SAMPLED = System(RHS_SOURCE, RHS_SHARED,
                  _STOPS + (Event("y2 - half", direction=-1), Event("y1", direction=-1)),
                  ("escape_tol", "half"))


def _free_leg_crossing(y_e, level: float) -> float:
    """Time after escape state y_e at which the free leg's eta falls to level.

    Newton from the straight-line guess, which the small potential makes close.
    """
    s = (y_e[2] - level) / -y_e[3]
    for _ in range(4):
        _, _, eta, eta_dot = free_leg(y_e, s)
        ds = float(eta - level) / float(eta_dot)
        s -= ds
        if abs(ds) <= 1e-15 * max(1.0, s):
            break
    return float(s)


def _solve(a: AsymptoticData, cfg: SolverConfig, sampled: bool):
    """One solver call from the free start state to escape, the
    non-scattering certificate or the end of the budget, and its stop.

    A sampled run keeps the dense output and watches all five events
    (_SAMPLED), otherwise only the three stops.  Returns (p0, sol, outcome):
    the start state, the solve_ivp result and how the run ended.  Data with
    eta_in <= 0 start certified and make no call (sol is None), and so does
    a budget too small to move t off the start time, out of budget.  A
    solver failure raises NotConvergedError with the stepper's message.
    """
    p0 = free_motion_expansion(start_time(a), a)
    if a.eta_in <= 0.0:
        return p0, None, Outcome.CERTIFIED
    if p0.t + cfg.max_time == p0.t:
        return p0, None, Outcome.OUT_OF_BUDGET
    sol = solve_ivp(_SAMPLED if sampled else _SOLVER, (p0.t, p0.t + cfg.max_time),
                    [p0.xi, p0.xi_dot, p0.eta, p0.eta_dot], rtol=cfg.rel_tol,
                    atol=cfg.abs_tol, dense_output=sampled,
                    params={"escape_tol": cfg.escape_tol, "half": 0.5 * a.eta_in})
    if sol.status == -1:
        raise NotConvergedError(Outcome.SOLVER_FAILURE, sol.message)
    if len(sol.t_events[0]):
        return p0, sol, Outcome.ESCAPED
    return p0, sol, Outcome.CERTIFIED if len(sol.t_events[2]) else Outcome.OUT_OF_BUDGET


def _first(ev_list) -> Optional[float]:
    return float(ev_list[0]) if len(ev_list) else None


def _stop_state(sol) -> PhasePoint:
    """The state at which the solver call ended."""
    return PhasePoint(float(sol.t[-1]), *(float(sol.y[k, -1]) for k in (0, 2, 1, 3)))


def grid_steps(t_lo: float, t_hi: float, step: float) -> int:
    """The last k with t_lo + k*step in [t_lo, t_hi], to a relative slack of
    1e-12 in k: the node count of the sample grid and both Picard grids."""
    return math.floor((t_hi - t_lo) / step * (1.0 + 1e-12))


def _sample_times(t_start: float, t_end: float, h: float, events):
    """A run's sample times on [t_start, t_end] and its off_grid indices.

    The regular grid t_start + h*k for k <= n, then t_end itself unless the
    grid already ends there, then each event time inside [t_start, t_end],
    in the order given, unless within 1e-12 of a time already placed.  One
    insert places the extra times.  Raises ValueError when the grid does not
    fit in memory.
    """
    n = grid_steps(t_start, t_end, h)
    t_n = t_start + h * n
    t_last = t_end if t_end - t_n > 1e-9 * h else t_n
    try:
        grid = t_start + h * np.arange(n + 1)
    except MemoryError:
        raise ValueError(f"{n + 1} samples at dense_step = {h:g} do not fit in "
                         "memory: raise --dense-step") from None
    extra = [t_last] if t_last != grid[-1] else []
    for t_ev in events:
        if t_ev is None or not (t_start <= t_ev <= t_end):
            continue
        # the nearest placed times are the grid's neighbours and the extras
        k = int(np.searchsorted(grid, t_ev))
        if not any(abs(x - t_ev) < 1e-12 for x in [*grid[max(k - 1, 0):k + 1], *extra]):
            extra.append(t_ev)
    extra.sort()
    at = np.searchsorted(grid, extra)
    return np.insert(grid, at, extra), tuple(int(k) + i for i, k in enumerate(at))


def integrate(a: AsymptoticData, cfg: SolverConfig = SolverConfig()) -> Trajectory:
    """Integrate the scattering equations for the given asymptotic data.

    One solver call runs to escape, the non-scattering certificate or the
    end of the budget; data with eta_in <= 0, or a budget below the spacing
    of floats at the start time, make none and give the start state as the
    only sample.  Returns a Trajectory, whose outcome says how the run
    ended; a certified one keeps the state there in events.blowup, an
    escaped one in events.escape.
    Raises ValueError when the sample grid does not fit in memory.
    """
    p0, sol, outcome = _solve(a, cfg, sampled=True)
    t_start = t_end = p0.t
    t_escape = t0 = t_half = t_m = None
    if sol is not None:
        t_escape, t0, t_half, t_m = (_first(sol.t_events[k]) for k in (0, 1, 3, 4))
        t_end = float(sol.t[-1])
    if outcome is Outcome.ESCAPED:
        budget = t_start + cfg.max_time
        y_e = sol.y[:, -1]
        if t0 is None:
            t0 = t_escape + _free_leg_crossing(y_e, 0.0)
        if t_half is None:
            t_half = t_escape + _free_leg_crossing(y_e, 0.5 * a.eta_in)
        t_end = min(max(t_escape + TAIL_PAD, t0 + MIN_TAIL), budget)
        # crossings are reported only inside the budget
        t0 = t0 if t0 <= budget else None
        t_half = t_half if t_half <= budget else None

    ts, off_grid = _sample_times(t_start, t_end, cfg.dense_step, (t0, t_half, t_m))
    if sol is None:
        Y = np.array([[p0.xi], [p0.xi_dot], [p0.eta], [p0.eta_dot]])
    elif outcome is Outcome.ESCAPED:
        k = int(np.searchsorted(ts, t_escape, side="right"))
        Y = np.empty((4, len(ts)))
        Y[:, :k] = sol.sol(ts[:k])
        Y[:, k:] = free_leg(y_e, ts[k:] - t_escape)
    else:
        Y = sol.sol(ts)

    blowup = escape = None
    if outcome is Outcome.CERTIFIED:
        blowup = p0 if sol is None else _stop_state(sol)
    elif outcome is Outcome.ESCAPED:
        escape = _stop_state(sol)

    return Trajectory(
        t=ts, xi=Y[0], eta=Y[2], xi_dot=Y[1], eta_dot=Y[3],
        events=TrajectoryEvents(t0=t0, t_half=t_half, t_m=t_m, blowup=blowup,
                                escape=escape),
        asymptotics=a, outcome=outcome, config=cfg, off_grid=off_grid,
    )


def deflection(traj: Trajectory) -> float:
    """Deflection angle Theta, the direction in which the particle leaves.

    Theta = atan2(v_eta, v_xi) of the outgoing line that
    closed_forms.free_asymptote gives at the escape state, events.escape.
    Accepted scattering runs land in (-pi, -pi/2): both outgoing velocities
    are negative.  Raises NotConvergedError when the run did not escape.
    """
    if not traj.escaped:
        raise NotConvergedError(traj.outcome)
    e = traj.events.escape
    v_xi, _, v_eta, _ = free_asymptote((e.xi, e.xi_dot, e.eta, e.eta_dot))
    return math.atan2(v_eta, v_xi)


def deflection_of(a: AsymptoticData, cfg: SolverConfig = SolverConfig()) -> float:
    """deflection(integrate(a, cfg)) without building the trajectory.

    Runs the same solver call with no dense output and no sampling and reads
    the same escape state, its last, so the two agree bit for bit.  Raises
    the same NotConvergedError as deflection(integrate(a, cfg)) wherever
    that raises.
    """
    _, sol, outcome = _solve(a, cfg, sampled=False)
    if outcome is not Outcome.ESCAPED:
        raise NotConvergedError(outcome)
    v_xi, _, v_eta, _ = free_asymptote(sol.y[:, -1])
    return math.atan2(v_eta, v_xi)
