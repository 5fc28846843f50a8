"""Adaptive integration of the scattering equations from asymptotic data.

Runs start from the free-motion expansion at closed_forms.start_time, where
its expansion parameter eta_in*w, w = exp(2*(xi_in + t_start)), is at most
2.3e-8 at every eta_in.  Stepping uses the embedded adaptive Runge-Kutta
pair DOP853 with dense output (dop853.solve_ivp, which takes scipy's steps
on plain floats); the scheme is incidental, the contract is the tolerances.

A run ends in one of four ways, its Outcome:
  * ESCAPED: |eta*exp(2*xi)|, |speed^2 - 1| and exp(4*xi), the order of the
    free leg's neglected terms, all below escape_tol while xi_dot < 0 (the
    gate keeps the criterion from firing on the inbound leg);
  * CERTIFIED non-scattering: eta < 0 with xi_dot > 0.  eta_dot < 0
    throughout, so from there xi'' = -eta*exp(2*xi) > 0 keeps xi_dot > 0,
    the escape gate never opens and xi diverges.  The run stops there and
    keeps the state in events.blowup.  Data with eta_in <= 0 start inside
    it and make no solver call;
  * OUT_OF_BUDGET: no escape within max_time after t_start;
  * SOLVER_FAILURE: a step below 10 ulp of t, which raises NotConvergedError
    with the stepper's message in place of a trajectory.
A run that did not escape gives no angle: NotConvergedError carries how.

The solver stops at escape; after it, samples, the eta crossings and the
deflection angle come from the closed-form free leg (closed_forms.free_leg).
Escaped runs are sampled up to max(t0 + min_tail, t_escape + tail_pad),
capped by the budget, so the eta = 0 crossing (which scales like
eta_in/|sin Theta|) and the asymptotic tail are inside the window.

Samples are taken on a uniform grid at dense_step spacing, with the refined
event times inserted as extra sample points (uniform_mask marks the regular
subgrid, which downstream radial reconstruction uses).

deflection_of(a, cfg) gives deflection(integrate(a, cfg)) bit for bit from
the same solver call without dense output or samples: it evaluates the free
leg only at the final sample time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .closed_forms import (AsymptoticData, free_leg, free_motion_expansion,
                           start_time)
from .dop853 import solve_ivp
from .dynamics import PhasePoint, energy_array, rhs


class Outcome(enum.Enum):
    """How a run ended; the value is the reason a command reports."""

    ESCAPED = "escaped"
    CERTIFIED = "eta < 0 with xi_dot > 0, so escape is impossible"
    OUT_OF_BUDGET = "no escape within the time budget"
    SOLVER_FAILURE = "solver failure"


class NotConvergedError(Exception):
    """No deflection angle from a run that ended in outcome; with ESCAPED,
    its final sample fails the escape criterion.  detail is the stepper's
    message of a solver failure."""

    def __init__(self, outcome: Outcome, detail: str = ""):
        super().__init__({
            Outcome.ESCAPED: "final sample fails the escape criterion",
            Outcome.CERTIFIED: f"blow-up: {outcome.value}",
            Outcome.OUT_OF_BUDGET: outcome.value,
            Outcome.SOLVER_FAILURE: f"{outcome.value}: {detail}"}[outcome])
        self.outcome = outcome


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and windowing for integrate().

    max_time is a duration budget measured from the start time.  min_tail and
    tail_pad control how far past the eta = 0 crossing and the escape point a
    run is extended.  Every field must be finite and positive; each is one
    command-line flag (rel_tol is --rel-tol).
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    escape_tol: float = 1e-7
    max_time: float = 600.0
    dense_step: float = 0.01
    min_tail: float = 12.0
    tail_pad: float = 6.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"SolverConfig.{name} must be finite and positive")


@dataclass(frozen=True)
class TrajectoryEvents:
    """Detected event times: eta = 0 (t0), eta = eta_in/2 (t_half), xi_dot = 0
    (t_m), plus the state at which a run stopped at the non-scattering
    certificate (blowup).  Absent events stay None."""

    t0: Optional[float] = None
    t_half: Optional[float] = None
    t_m: Optional[float] = None
    blowup: Optional[PhasePoint] = None


@dataclass(frozen=True)
class Trajectory:
    """Dense time-ordered samples of one run, with events and drift metrics."""

    t: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    xi_dot: np.ndarray
    eta_dot: np.ndarray
    uniform_mask: np.ndarray          # True on the dense_step subgrid
    events: TrajectoryEvents
    max_energy_drift: float
    asymptotics: AsymptoticData
    outcome: Outcome
    config: SolverConfig

    def __post_init__(self):
        if len(self.t) and np.any(np.diff(self.t) <= 0.0):
            raise ValueError("trajectory samples must be strictly increasing in t")
        for arr in (self.t, self.xi, self.eta, self.xi_dot, self.eta_dot, self.uniform_mask):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def escaped(self) -> bool:
        return self.outcome is Outcome.ESCAPED

    def point(self, k: int) -> PhasePoint:
        return PhasePoint(float(self.t[k]), float(self.xi[k]), float(self.eta[k]),
                          float(self.xi_dot[k]), float(self.eta_dot[k]))

    def energies(self) -> np.ndarray:
        return energy_array(self.xi, self.eta, self.xi_dot, self.eta_dot)


def _escape_residual(y, tol: float) -> float:
    """Negative when state y = (xi, xi_dot, eta, eta_dot) passes the escape test."""
    if y[1] >= 0.0:
        return 1.0
    e2 = math.exp(min(2.0 * y[0], 700.0))
    speed_defect = abs(y[1] * y[1] + y[3] * y[3] - 1.0)
    return max(abs(y[2] * e2), speed_defect, e2 * e2) - tol


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


def _ev_certificate(t, y):
    # eta_dot < 0 always, so once eta < 0 and xi_dot > 0, xi'' = -eta*e^{2 xi}
    # > 0 keeps xi_dot > 0 and the escape gate xi_dot < 0 never opens
    return min(-y[2], y[1])


_ev_certificate.terminal = True
_ev_certificate.direction = 1


def _solve(a: AsymptoticData, cfg: SolverConfig, extra_events, dense_output: bool):
    """One solver call from the free start state to escape, the
    non-scattering certificate or the end of the budget, and its stop.

    Events 0-2 are escape (terminal), eta = 0 and the certificate
    (terminal); extra_events follow.  eta = 0 is listed ahead of the
    certificate, which fires at that same root when xi_dot > 0 there, so
    the crossing is kept.  Returns (p0, sol, outcome): the start state, the
    solve_ivp result and how the run ended.  Data with eta_in <= 0 start
    certified and make no call (sol is None).  A solver failure raises
    NotConvergedError with the stepper's message.
    """
    p0 = free_motion_expansion(start_time(a), a)
    if a.eta_in <= 0.0:
        return p0, None, Outcome.CERTIFIED

    def ev_escape(t, y):
        return _escape_residual(y, cfg.escape_tol)
    ev_escape.terminal = True
    ev_escape.direction = -1

    def ev_eta0(t, y):
        return y[2]
    ev_eta0.direction = -1

    sol = solve_ivp(rhs, (p0.t, p0.t + cfg.max_time),
                    [p0.xi, p0.xi_dot, p0.eta, p0.eta_dot], rtol=cfg.rel_tol,
                    atol=cfg.abs_tol, dense_output=dense_output,
                    events=[ev_escape, ev_eta0, _ev_certificate, *extra_events])
    if sol.status == -1:
        raise NotConvergedError(Outcome.SOLVER_FAILURE, sol.message)
    if len(sol.t_events[0]):
        return p0, sol, Outcome.ESCAPED
    return p0, sol, Outcome.CERTIFIED if len(sol.t_events[2]) else Outcome.OUT_OF_BUDGET


def _first(ev_list) -> Optional[float]:
    return float(ev_list[0]) if len(ev_list) else None


def _window_end(cfg: SolverConfig, t_start: float, t_escape: float, y_e,
                t0: Optional[float]) -> tuple[float, float]:
    """(t0, t_end) of an escaped run: the eta = 0 crossing, from the free leg
    when the solver stopped before it, and the end of the sampling window."""
    if t0 is None:
        t0 = t_escape + _free_leg_crossing(y_e, 0.0)
    return t0, min(max(t_escape + cfg.tail_pad, t0 + cfg.min_tail),
                   t_start + cfg.max_time)


def _grid_end(t_start: float, t_end: float, h: float) -> tuple[int, float]:
    """(n, t_last): the regular grid is t_start + h*k for k <= n; t_last is
    the final sample time, t_end itself unless the grid already ends there."""
    n = int(math.floor((t_end - t_start) / h * (1.0 + 1e-12)))
    t_n = t_start + h * n
    return n, (t_end if t_end - t_n > 1e-9 * h else t_n)


def integrate(a: AsymptoticData, cfg: SolverConfig = SolverConfig()) -> Trajectory:
    """Integrate the scattering equations for the given asymptotic data.

    One solver call runs to escape, the non-scattering certificate or the
    end of the budget; data with eta_in <= 0 make none and give the start
    state as the only sample.  Returns a Trajectory, whose outcome says how
    the run ended; a certified one keeps the state there in events.blowup.
    Raises ValueError when the sample grid does not fit in memory.
    """
    def ev_half(t, y):
        return y[2] - 0.5 * a.eta_in
    ev_half.direction = -1

    def ev_xidot(t, y):
        return y[1]
    ev_xidot.direction = -1

    p0, sol, outcome = _solve(a, cfg, [ev_half, ev_xidot], dense_output=True)
    t_start = t_end = p0.t
    t_escape = t0 = t_half = t_m = None
    if sol is not None:
        t_escape, t0, t_half, t_m = (_first(sol.t_events[k]) for k in (0, 1, 3, 4))
        t_end = float(sol.t[-1])
    if outcome is Outcome.ESCAPED:
        budget = t_start + cfg.max_time
        y_e = sol.y[:, -1]
        t0, t_end = _window_end(cfg, t_start, t_escape, y_e, t0)
        if t_half is None:
            t_half = t_escape + _free_leg_crossing(y_e, 0.5 * a.eta_in)
        # crossings are reported only inside the budget
        t0 = t0 if t0 <= budget else None
        t_half = t_half if t_half <= budget else None

    # --- sampling ---------------------------------------------------------
    h = cfg.dense_step
    n, t_last = _grid_end(t_start, t_end, h)
    try:
        ts = t_start + h * np.arange(n + 1)
    except MemoryError:
        raise ValueError(f"{n + 1} samples at dense_step = {h:g} do not fit in "
                         "memory: raise --dense-step") from None
    mask = np.ones(len(ts), dtype=bool)
    if t_last != ts[-1]:
        ts = np.append(ts, t_last)
        mask = np.append(mask, False)
    for t_ev in (t0, t_half, t_m):
        if t_ev is None or not (t_start <= t_ev <= t_end):
            continue
        k = int(np.searchsorted(ts, t_ev))
        near = (k < len(ts) and abs(ts[k] - t_ev) < 1e-12) or \
               (k > 0 and abs(ts[k - 1] - t_ev) < 1e-12)
        if not near:
            ts = np.insert(ts, k, t_ev)
            mask = np.insert(mask, k, False)

    if sol is None:
        Y = np.array([[p0.xi], [p0.xi_dot], [p0.eta], [p0.eta_dot]])
    elif outcome is Outcome.ESCAPED:
        k = int(np.searchsorted(ts, t_escape, side="right"))
        Y = np.empty((4, len(ts)))
        Y[:, :k] = sol.sol(ts[:k])
        Y[:, k:] = free_leg(y_e, ts[k:] - t_escape)
    else:
        Y = sol.sol(ts)

    xi, xi_dot, eta, eta_dot = Y[0], Y[1], Y[2], Y[3]
    drift = float(np.max(np.abs(2.0 * energy_array(xi, eta, xi_dot, eta_dot) - 1.0)))
    blowup = None
    if outcome is Outcome.CERTIFIED:
        blowup = p0 if sol is None else PhasePoint(
            float(sol.t[-1]), *(float(sol.y[k, -1]) for k in (0, 2, 1, 3)))

    return Trajectory(
        t=ts, xi=xi, eta=eta, xi_dot=xi_dot, eta_dot=eta_dot, uniform_mask=mask,
        events=TrajectoryEvents(t0=t0, t_half=t_half, t_m=t_m, blowup=blowup),
        max_energy_drift=drift, asymptotics=a, outcome=outcome, config=cfg,
    )


def _outgoing_angle(y, escape_tol: float) -> float:
    """Theta from an escaped state y = (xi, xi_dot, eta, eta_dot): the atan2
    of the free leg's outgoing velocity.  Raises NotConvergedError when y
    fails the escape criterion."""
    if not _escape_residual(y, escape_tol) < 0.0:
        raise NotConvergedError(Outcome.ESCAPED)
    _, xi_dot, _, eta_dot = free_leg(y, math.inf)
    return math.atan2(float(eta_dot), float(xi_dot))


def deflection(traj: Trajectory) -> float:
    """Deflection angle Theta, the direction in which the particle leaves.

    Theta = atan2 of the outgoing velocity that closed_forms.free_leg gives
    from the final sample.  Accepted scattering runs land in (-pi, -pi/2):
    both outgoing velocities are negative.  Raises NotConvergedError when
    the run did not escape or the final sample fails the escape criterion.
    """
    if not traj.escaped:
        raise NotConvergedError(traj.outcome)
    y = (traj.xi[-1], traj.xi_dot[-1], traj.eta[-1], traj.eta_dot[-1])
    return _outgoing_angle(y, traj.config.escape_tol)


def deflection_of(a: AsymptoticData, cfg: SolverConfig = SolverConfig()) -> float:
    """deflection(integrate(a, cfg)) without building the trajectory.

    Runs the same solver call with no dense output and no sampling, and
    applies deflection's arithmetic to the state integrate would put in its
    final sample, so the two agree bit for bit.  Raises the same
    NotConvergedError as deflection(integrate(a, cfg)) wherever that raises.
    """
    p0, sol, outcome = _solve(a, cfg, [], dense_output=False)
    if outcome is not Outcome.ESCAPED:
        raise NotConvergedError(outcome)
    t_escape, y_e = float(sol.t_events[0][0]), sol.y[:, -1]
    _, t_end = _window_end(cfg, p0.t, t_escape, y_e, _first(sol.t_events[1]))
    _, t_last = _grid_end(p0.t, t_end, cfg.dense_step)
    y = free_leg(y_e, np.array([t_last - t_escape]))
    return _outgoing_angle(tuple(v[0] for v in y), cfg.escape_tol)
