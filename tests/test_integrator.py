import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvscat import (AsymptoticData, NotConvergedError, SolverConfig,
                      Trajectory, TrajectoryEvents, deflection,
                      explicit_bounds, integrate, integrator, t0_state_bounds)
from curvscat.dynamics import PhasePoint
from curvscat.integrator import TAIL_PAD, Outcome, _sample_times, deflection_of

from _reference import (ORACLE_T0_ETA8, ORACLE_T_HALF_ETA8, ORACLE_T_M_ETA8,
                        ORACLE_THETA_ETA8, ORACLE_THETA_ETA6, certified,
                        continue_tight, detect_events, escape_residual,
                        integrate_samples_loop, sample_times_loop, theta_tight)

A8 = AsymptoticData(0.0, 8.0)


def test_start_time_and_truncation(cfg):
    # up to eta_in 64 every run starts 14 below the eta = 0 bound, exactly
    for eta_in in (1.31, 8.0, 63.7, 64.0):
        a = AsymptoticData(0.0, eta_in)
        assert integrate(a, cfg).t[0] == explicit_bounds(a).t0_lower - 14.0, eta_in


@pytest.mark.parametrize("eta_in", [1e3, 1e4, 1e5, 1e6])
def test_deep_start_keeps_expansion_small(eta_in, cfg):
    # past eta_in 64 the start moves down with eta_in, so the start state's
    # expansion error stays at its eta_in 64 size
    traj = integrate(AsymptoticData(0.0, eta_in), cfg)
    assert abs(deflection(traj) - theta_tight(eta_in)) <= 1e-10
    assert traj.max_energy_drift <= 1e-9


def test_escape_and_events_present(traj8):
    assert traj8.escaped
    ev = traj8.events
    assert ev.blowup is None
    assert ev.t0 is not None and ev.t_half is not None and ev.t_m is not None
    assert ev.t_half < ev.t0
    assert ev.t_m < ev.t0


def test_events_match_fixed_step_oracle(traj8):
    ev = traj8.events
    assert abs(ev.t0 - ORACLE_T0_ETA8) < 1e-6
    assert abs(ev.t_half - ORACLE_T_HALF_ETA8) < 1e-6
    assert abs(ev.t_m - ORACLE_T_M_ETA8) < 1e-6


def test_deflection_matches_fixed_step_oracle(traj8):
    assert abs(deflection(traj8) - ORACLE_THETA_ETA8) < 1e-6


def test_deflection_eta6_matches_oracle(traj6):
    assert abs(deflection(traj6) - ORACLE_THETA_ETA6) < 1e-6


@pytest.mark.parametrize("eta_in", [1.31, 1.35, 1.6, 3.0, 8.0, 30.0, 64.0])
def test_deflection_matches_tight_reference(eta_in, cfg):
    theta = deflection(integrate(AsymptoticData(0.0, eta_in), cfg))
    assert abs(theta - theta_tight(eta_in)) <= 5e-13


def test_deflection_at_shallow_end_matches_tight_reference(cfg):
    # eta_in of the -0.505 pi root, the shallowest target the CLI accepts:
    # escape comes late and the impulse after it is largest here (the free
    # leg's remainder at escape_tol 1e-7, 9.0e-11; 1.8e-9 with DOP853)
    eta_in = 1.29983435648
    theta = deflection(integrate(AsymptoticData(0.0, eta_in), cfg))
    assert abs(theta - theta_tight(eta_in)) <= 1e-10


def test_deflection_at_the_shallowest_shots_matches_tight_reference(cfg):
    # near Theta = -0.5052 pi DOP853 was off by +1.65e-9; theta_tight's own
    # error is 2.7e-12 here, and at escape_tol 1e-10 the gap falls to it
    theta = deflection_of(AsymptoticData(0.0, 1.29984), cfg)
    assert abs(theta - theta_tight(1.29984)) <= 1.5e-11


# the eta_in bands where DOP853 declared escape near the eta = 0 crossing,
# off theta_tight by up to 7.4e-10, and one where a step end falls in the
# crossing's dip, which a bound on exp(4*xi) in place of exp(2*xi) let
# pass, 2.3e-10 off
CROSSING_BANDS = [(2.3249069, 2.3256613), (2.4816, 2.4861), (2.5475, 2.5477),
                  (2.7199, 2.7522), (2.38232, 2.38272)]


@pytest.mark.parametrize("band", CROSSING_BANDS, ids=lambda b: f"{b[0]}-{b[1]}")
def test_no_false_escape_near_the_crossing(band, cfg):
    # the escape test is read at step ends, none of which falls in the dip
    # at the crossing: Theta stays at round-off across each band
    for eta_in in np.linspace(*band, 40):
        theta = deflection_of(AsymptoticData(0.0, float(eta_in)), cfg)
        assert abs(theta - theta_tight(float(eta_in))) <= 1e-12, eta_in


class _SolverSpy:
    """Stands in for integrator.solve_ivp; records every call's result."""

    def __init__(self, monkeypatch):
        import curvscat.integrator as integrator
        self.calls = []
        self._solve_ivp = integrator.solve_ivp
        monkeypatch.setattr(integrator, "solve_ivp", self)

    def __call__(self, *args, **kwargs):
        sol = self._solve_ivp(*args, **kwargs)
        self.calls.append(sol)
        return sol


@pytest.mark.parametrize("eta_in", [1.31, 8.0, 64.0])
def test_free_leg_samples_match_tight_continuation(eta_in, cfg, monkeypatch):
    spy = _SolverSpy(monkeypatch)
    traj = integrate(AsymptoticData(0.0, eta_in), cfg)
    assert traj.escaped and len(spy.calls) == 1
    sol = spy.calls[0]
    t_escape = float(sol.t[-1])
    k = int(np.searchsorted(traj.t, t_escape, side="right"))
    assert len(traj) - k > 100
    ref = continue_tight(sol.y, np.concatenate([[t_escape], traj.t[k:]]))[1:]
    got = np.stack([traj.xi[k:], traj.xi_dot[k:], traj.eta[k:], traj.eta_dot[k:]], axis=1)
    assert np.max(np.abs(got - ref)) <= 1e-11


@pytest.mark.parametrize("eta_in, max_time, escaped", [
    (8.0, 600.0, True),     # escape, t0 beyond it
    (1.31, 600.0, True),    # escape, t0 before it
    (64.0, 600.0, True),    # escape, t0 beyond the budget
    (8.0, 19.0, False),     # budget exhausted
    (1.0, 600.0, False),    # certified non-scattering
    (-1.0, 600.0, False),   # certified at the start
    (0.0, 600.0, False),    # certified at the start
])
def test_one_solver_call_per_run(eta_in, max_time, escaped, monkeypatch):
    # data with eta_in <= 0 start inside the certificate and make no call
    spy = _SolverSpy(monkeypatch)
    traj = integrate(AsymptoticData(0.0, eta_in), SolverConfig(max_time=max_time))
    assert traj.escaped is escaped
    assert len(spy.calls) == (1 if eta_in > 0.0 else 0)


EVALUATOR_ETAS = sorted(set(np.geomspace(1.2999, 70.0, 40).tolist())
                        | {1.29983, 1.3, 1.31})


@pytest.mark.parametrize("xi_in", [0.0, -0.7, 0.9])
def test_evaluator_matches_deflection_of_trajectory(xi_in, cfg):
    # the solver-only evaluator reads the same escape state as deflection:
    # equal bit for bit
    for eta_in in EVALUATOR_ETAS:
        a = AsymptoticData(xi_in, eta_in)
        assert deflection_of(a, cfg) == deflection(integrate(a, cfg)), eta_in


def test_deflection_does_not_depend_on_the_window(cfg, monkeypatch):
    # Theta is read at the escape state, which neither the sample spacing
    # nor the window constants move
    windows = (("TAIL_PAD", 30.0), ("MIN_TAIL", 40.0))
    lengthened = set()
    for eta_in in (1.2999, 1.31, 2.3252, 8.0):
        a = AsymptoticData(0.0, eta_in)
        theta = deflection_of(a, cfg)
        t_end = integrate(a, cfg).t[-1]
        assert theta == deflection(integrate(a, cfg)), eta_in
        moved = dataclasses.replace(cfg, dense_step=0.005)
        assert deflection_of(a, moved) == theta, eta_in
        assert deflection(integrate(a, moved)) == theta, eta_in
        for name, value in windows:
            with monkeypatch.context() as m:
                m.setattr(integrator, name, value)
                traj = integrate(a, cfg)
                assert deflection_of(a, cfg) == theta, (eta_in, name)
                assert deflection(traj) == theta, (eta_in, name)
                if traj.t[-1] > t_end:
                    lengthened.add(name)
    # each constant sets the window's end somewhere: the patches act
    assert lengthened == {"TAIL_PAD", "MIN_TAIL"}


def test_escape_state_is_where_the_solver_stopped(traj8):
    p = traj8.events.escape
    assert traj8.events.blowup is None and p.xi_dot < 0.0
    assert p.t < traj8.t[-1]
    y = (p.xi, p.xi_dot, p.eta, p.eta_dot)
    assert escape_residual(y, traj8.config.escape_tol) <= 0.0


@pytest.mark.parametrize("eta_in", [-0.5, 0.0, 0.5, 1.0, 1.2, 1.2998])
@pytest.mark.parametrize("xi_in", [0.0, -0.7, 0.9])
def test_evaluator_nonscattering_raises_like_deflection(eta_in, xi_in, cfg):
    # both entry points stop at the certificate and raise the same message;
    # the samples end there, before the drift can grow
    a = AsymptoticData(xi_in, eta_in)
    traj = integrate(a, cfg)
    assert traj.max_energy_drift <= 1e-8
    with pytest.raises(NotConvergedError) as full:
        deflection(traj)
    with pytest.raises(NotConvergedError, match="blow-up") as evaluator:
        deflection_of(a, cfg)
    assert str(full.value) == str(evaluator.value) == f"blow-up: {Outcome.CERTIFIED.value}"
    assert full.value.outcome is evaluator.value.outcome is Outcome.CERTIFIED


@pytest.mark.parametrize("eta_in", [0.5, 1.0, 1.2998])
def test_certified_run_ends_at_certificate(eta_in, cfg, monkeypatch):
    # the last sample is the first step end inside the certificate,
    # eta < 0 with xi_dot > 0; the eta = 0 crossing lies before it
    spy = _SolverSpy(monkeypatch)
    traj = integrate(AsymptoticData(0.0, eta_in), cfg)
    sol, = spy.calls
    assert traj.t[-1] == sol.t[-1] and certified(sol.y)
    assert not certified(sol(sol.t[-2]))
    assert traj.events.blowup == traj.point(len(traj) - 1)
    assert traj.events.t0 is not None and traj.events.t0 < traj.t[-1]


def test_solver_failure_is_not_a_blowup(cfg, failing_solver):
    # a solve_ivp failure keeps solve_ivp's message in both entry points
    for run in (integrate, deflection_of):
        with pytest.raises(NotConvergedError,
                           match="^solver failure: Required step size") as exc:
            run(AsymptoticData(0.0, 1.0), cfg)
        assert exc.value.outcome is Outcome.SOLVER_FAILURE


@pytest.mark.parametrize("eta_in", [1.31, 1.6])
def test_eta_crossing_is_not_an_escape(eta_in, cfg):
    # at the eta = 0 crossing the potential term vanishes, but exp(4*xi)
    # keeps the test from passing: the free leg does not hold there
    traj = integrate(AsymptoticData(0.0, eta_in), cfg)
    k = int(np.argmin(np.abs(traj.t - traj.events.t0)))
    y = (traj.xi[k], traj.xi_dot[k], 0.0, traj.eta_dot[k])
    assert y[1] < 0.0 and math.exp(2.0 * y[0]) > 0.04
    assert escape_residual(y, cfg.escape_tol) > 0.0


def test_evaluator_budget_exhaustion_raises():
    with pytest.raises(NotConvergedError, match="no escape"):
        deflection_of(A8, SolverConfig(max_time=19.0))


def test_evaluator_takes_the_steps_of_integrate(cfg, monkeypatch):
    # both entry points stop at the same certificate
    spy = _SolverSpy(monkeypatch)
    for eta_in in (0.5, 1.0, 1.2998):
        a = AsymptoticData(0.0, eta_in)
        assert integrate(a, cfg).events.blowup is not None
        with pytest.raises(NotConvergedError):
            deflection_of(a, cfg)
        full, evaluator = spy.calls[-2:]
        assert len(evaluator.t) == len(full.t), eta_in


def test_deflection_agrees_with_position_slopes(traj8):
    # slope fits of the positions over the sampled tail reproduce the
    # velocity-based angle up to escape_tol-driven error
    m = traj8.t > traj8.events.t0
    sxi = np.polyfit(traj8.t[m], traj8.xi[m], 1)[0]
    seta = np.polyfit(traj8.t[m], traj8.eta[m], 1)[0]
    theta_pos = math.atan2(seta, sxi)
    assert abs(theta_pos - deflection(traj8)) < 1e-5


def test_energy_drift_small(traj8):
    assert traj8.max_energy_drift <= 1e-8
    assert _drift(traj8) == traj8.max_energy_drift


def test_eta_strictly_decreasing(traj8):
    assert np.all(np.diff(traj8.eta) < 0.0)


def test_xi_dot_monotonicity_pattern(traj8):
    # xi_dot <= 1 everywhere; non-increasing while eta > 0, non-decreasing
    # after (the step increments fall below float resolution once the
    # potential has died, so strictness is only asserted where resolvable)
    assert np.all(traj8.xi_dot <= 1.0)
    ulp = 4e-16  # dense-output polynomial wobble once increments underflow
    before = traj8.t < traj8.events.t0 - 1e-9
    after = traj8.t > traj8.events.t0 + 1e-9
    assert np.all(np.diff(traj8.xi_dot[before]) <= ulp)
    assert np.all(np.diff(traj8.xi_dot[after]) >= -ulp)
    core = (traj8.t > traj8.events.t_m - 2.0) & (traj8.t < traj8.events.t_m + 2.0)
    assert np.all(np.diff(traj8.xi_dot[core]) < 0.0)


def test_final_speed_near_unity(traj8, cfg):
    speed = math.hypot(traj8.xi_dot[-1], traj8.eta_dot[-1])
    assert abs(speed - 1.0) <= cfg.escape_tol


def test_forbidden_zone_confinement(trio):
    from _reference import Zone, in_forbidden_zone
    for traj in trio:
        q = traj.eta * np.exp(2.0 * traj.xi)
        assert np.max(q) <= 1.0 + 1e-9
        k = int(np.argmax(q))
        assert in_forbidden_zone(float(traj.xi[k]),
                                 float(traj.eta[k])) is not Zone.FORBIDDEN


def test_t0_state_bounds_hold(traj8):
    xi_up, xid_up, etad_lo = t0_state_bounds(A8)
    k = int(np.argmin(np.abs(traj8.t - traj8.events.t0)))
    assert abs(traj8.eta[k]) < 1e-9
    assert traj8.xi[k] < xi_up
    assert traj8.xi_dot[k] < xid_up < 0.0
    assert traj8.eta_dot[k] > etad_lo


def test_tolerance_self_consistency():
    # tightening the escape tolerance moves theta by less than the previous
    # change, and below 1e-7 by nothing
    thetas = {}
    for tol in (1e-3, 1e-5, 1e-7, 1e-9):
        thetas[tol] = deflection(integrate(A8, SolverConfig(escape_tol=tol)))
    d_coarse = abs(thetas[1e-3] - thetas[1e-5])
    d_fine = abs(thetas[1e-5] - thetas[1e-7])
    assert d_fine < d_coarse and thetas[1e-7] == thetas[1e-9]


def test_xi_in_translation_family(traj8, cfg):
    # data (xi_in - d, eta_in) is the original run translated by +d in time
    d = 1.0
    traj_b = integrate(AsymptoticData(-d, 8.0), cfg)
    shifted = dataclasses.replace(traj8, t=traj8.t + d)
    n = min(len(traj_b.t), len(shifted.t))
    assert np.max(np.abs(traj_b.t[:n] - shifted.t[:n])) < 1e-9
    assert np.max(np.abs(traj_b.xi[:n] - shifted.xi[:n])) < 1e-8
    assert np.max(np.abs(traj_b.eta[:n] - shifted.eta[:n])) < 1e-8


def test_blowup_for_negative_eta_in(cfg):
    traj = integrate(AsymptoticData(0.0, -1.0), cfg)
    assert traj.outcome is Outcome.CERTIFIED and not traj.escaped
    assert traj.events.blowup == traj.point(0)
    assert len(traj) == 1  # the start state is already certified
    assert np.all(traj.xi_dot >= 1.0 - 1e-12)  # repulsive: never turns back
    with pytest.raises(NotConvergedError):
        deflection(traj)


@pytest.mark.parametrize("eta_in", [1e-30, 1e-100, 1e-200])
def test_tiny_eta_in_is_certified_where_eta_turns(eta_in, cfg):
    # far out on the inbound leg E = exp(2*xi) is too small for the last
    # coefficients to show its growth; the step bound from E's own series
    # keeps the steps short of the interaction, so eta turns negative near
    # xi = ln(eta_in)/2 and the run is certified there, its energy kept
    traj = integrate(AsymptoticData(0.0, eta_in), cfg)
    assert traj.outcome is Outcome.CERTIFIED
    assert traj.max_energy_drift <= 1e-13
    assert 0.5 * math.log(eta_in) < traj.events.blowup.xi < 0.5 * math.log(eta_in) + 6.0


def test_blowup_for_zero_eta_in(cfg):
    traj = integrate(AsymptoticData(0.0, 0.0), cfg)
    assert traj.outcome is Outcome.CERTIFIED and not traj.escaped
    assert traj.events.blowup is not None
    assert traj.events.t0 is None  # eta starts at 0^- and never crosses downward


def test_no_escape_within_budget():
    cfg = SolverConfig(max_time=19.0)
    traj = integrate(A8, cfg)
    assert traj.outcome is Outcome.OUT_OF_BUDGET and not traj.escaped
    assert traj.events.blowup is None
    with pytest.raises(NotConvergedError, match="no escape") as exc:
        deflection(traj)
    assert exc.value.outcome is Outcome.OUT_OF_BUDGET


def test_detect_events_agrees_with_integrate(traj8):
    ev = detect_events(traj8)
    assert abs(ev.t0 - traj8.events.t0) < 1e-6
    assert abs(ev.t_half - traj8.events.t_half) < 1e-6
    assert abs(ev.t_m - traj8.events.t_m) < 1e-6


def test_detect_events_finds_t0_at_a_certified_crossing(cfg):
    # these runs are certified at the first step end past the eta = 0
    # crossing: the samples hold the crossing, placed at the stepper's root
    for eta_in in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
        traj = integrate(AsymptoticData(0.0, eta_in), cfg)
        assert traj.eta[-1] < 0.0 < traj.xi_dot[-1], eta_in
        ev = detect_events(traj)
        assert ev.t0 is not None and abs(ev.t0 - traj.events.t0) <= 1e-9, eta_in


def test_detect_events_absent_reported_absent(cfg):
    # the budget ends the run before xi turns
    traj = integrate(A8, SolverConfig(max_time=10.0))
    ev = detect_events(traj)
    assert ev.t0 is None and ev.t_half is None and ev.t_m is None
    # a stored blow-up record is passed through
    traj = integrate(AsymptoticData(0.0, 1.0), cfg)
    assert detect_events(traj).blowup is traj.events.blowup is not None


def _drift(traj):
    # max over samples of |2 E - 1|
    return float(np.max(np.abs(2.0 * traj.energy - 1.0)))


def _free_trajectory(ts, eta_in):
    xi = ts.copy()
    return Trajectory(
        t=ts, xi=xi, eta=np.full_like(ts, eta_in),
        xi_dot=np.ones_like(ts), eta_dot=np.zeros_like(ts),
        events=TrajectoryEvents(),
        asymptotics=AsymptoticData(0.0, eta_in), outcome=Outcome.OUT_OF_BUDGET,
        config=SolverConfig(),
    )


def test_energy_drift_free_motion():
    ts = np.linspace(-20.0, -10.0, 101)
    traj = _free_trajectory(ts, 8.0)
    # drift is the neglected potential term, worst at the last sample;
    # (1 + x) - 1 rounding limits the agreement to ~1e-8 relative
    assert math.isclose(_drift(traj), 8.0 * math.exp(-20.0), rel_tol=1e-6)


def test_energy_drift_single_boundary_sample():
    ts = np.array([0.0])
    traj = Trajectory(
        t=ts, xi=np.array([0.0]), eta=np.array([1.0]),
        xi_dot=np.array([0.0]), eta_dot=np.array([0.0]),
        events=TrajectoryEvents(),
        asymptotics=AsymptoticData(0.0, 1.0), outcome=Outcome.OUT_OF_BUDGET,
        config=SolverConfig(),
    )
    assert _drift(traj) == 0.0


def test_samples_strictly_increasing_validated():
    ts = np.array([0.0, 0.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(t=ts, xi=ts, eta=ts, xi_dot=ts, eta_dot=ts,
                   events=TrajectoryEvents(),
                   asymptotics=AsymptoticData(0.0, 1.0), outcome=Outcome.OUT_OF_BUDGET,
                   config=SolverConfig())


def test_event_samples_inserted(traj8):
    # refined event times are sample points, flagged off the uniform grid;
    # at eta_in 8 t_half lies in the gap, where only the window without a
    # gap places it
    lo, hi = traj8.gap
    assert lo < traj8.events.t_half < hi
    assert np.min(np.abs(traj8.t - traj8.events.t_half)) > 1e-3
    full_t, _, _ = integrate_samples_loop(traj8.asymptotics, traj8.config)
    for t_ev in (traj8.events.t0, traj8.events.t_half, traj8.events.t_m):
        t = full_t if lo < t_ev < hi else traj8.t
        assert np.min(np.abs(t - t_ev)) < 1e-11
    assert traj8.off_grid
    h = traj8.config.dense_step
    step = np.diff(traj8.window[0])
    jump = step > 1.5 * h                 # the one step over the gap's nodes
    assert np.count_nonzero(jump) == 1
    assert np.allclose(step[~jump], h, rtol=0, atol=1e-9)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def test_sample_times_equal_the_append_insert_loop():
    h, t0 = 0.01, -3.0
    on_grid = t0 + h * 250
    t_end = 5.0055                       # off the grid: t_last is placed
    ev = 1.2345678
    cases = [
        (t_end, (None, None, None)),
        (t0 + h * 800, (None, 2.0, None)),                 # t_end on the grid
        # within 1e-12 of a grid point, above and below, and not
        (t_end, (on_grid + 4e-13, on_grid - 4e-13, on_grid + 2e-12)),
        # within 1e-12 of t_last, and between the grid's end and t_last
        (t_end, (t_end - 3e-13, 5.0051, 5.0052)),
        (t_end, (5.0051, 5.0051 + 5e-13, t_end)),
        # within 1e-12 of each other: a chain A, A + 0.8e-12, A + 1.6e-12
        # keeps A and the third, which is 1.6e-12 from A
        (t_end, (ev, ev + 6e-13, ev - 6e-13)),
        (t_end, (ev, ev + 8e-13, ev + 1.6e-12)),
        # outside the window and on its ends
        (t_end, (t0 - 1.0, 6.0, t0)),
        (t_end, (t_end, None, t0 + 1e-13)),
        (t0, (t0, None, None)),                            # one sample
    ]
    for step in (h, 0.0137):
        for end, events in cases:
            ts, off_grid = _sample_times(t0, end, step, events)
            want_ts, want_mask = sample_times_loop(t0, end, step, events)
            assert np.array_equal(_bits(ts), _bits(want_ts)), (step, end, events)
            assert off_grid == tuple(np.flatnonzero(~want_mask)), (step, end, events)


_ASSEMBLY_CASES = [
    (1.31, 0.0, {}), (8.0, 0.4, {}), (21.0, 0.0, {}),
    (8.0, 0.0, {"dense_step": 0.0137}), (1.5, -1.0, {"dense_step": 0.0137}),
    (8.0, 0.0, {"max_time": 60.0}),      # the budget cuts the window before t0
    (8.0, 0.0, {"max_time": 19.0}),      # out of budget
    (1.0, 0.0, {}),                      # certified
    (-1.0, 0.0, {}),                     # no solver call
]


def _assert_gap_left_out(traj, ts, mask, Y):
    """traj against the oracle's (ts, mask, Y) of a window without a gap:
    traj keeps the oracle's samples outside the gap bit for bit."""
    ev, e = traj.events, traj.events.escape
    if traj.gap is not None:
        assert traj.gap[0] == e.t + TAIL_PAD
        assert ev.t0 is None or traj.gap[1] == ev.t0 - TAIL_PAD
    elif traj.escaped and ev.t0 is not None:      # the runs overlap: one run
        assert ev.t0 - TAIL_PAD <= e.t + TAIL_PAD
    lo, hi = traj.gap if traj.gap is not None else (math.inf, math.inf)
    kept = ~((ts > lo) & (ts < hi))
    assert np.array_equal(_bits(traj.t), _bits(ts[kept]))
    for got, want in zip((traj.xi, traj.xi_dot, traj.eta, traj.eta_dot), Y):
        assert np.array_equal(_bits(got), _bits(want[kept]))
    # the window is the regular samples the mask picks, less the gap's
    assert traj.off_grid == tuple(np.flatnonzero(~mask[kept]))
    for got, want in zip(traj.window, (ts, Y[0], Y[2], Y[1], Y[3])):
        assert np.array_equal(_bits(got), _bits(want[mask & kept]))


@pytest.mark.parametrize("eta_in, xi_in, overrides", _ASSEMBLY_CASES)
def test_samples_equal_the_append_insert_assembly(eta_in, xi_in, overrides):
    a, cfg = AsymptoticData(xi_in, eta_in), SolverConfig(**overrides)
    _assert_gap_left_out(integrate(a, cfg), *integrate_samples_loop(a, cfg))


@settings(max_examples=40)
@given(eta_in=st.floats(min_value=1.31, max_value=40.0),
       xi_in=st.floats(min_value=-1.0, max_value=1.0),
       dense_step=st.sampled_from([0.005, 0.01, 0.02]))
def test_gapped_samples_equal_the_full_assembly(eta_in, xi_in, dense_step):
    # the gap holds exactly the grid nodes strictly inside
    # (t_escape + TAIL_PAD, t0 - TAIL_PAD), and t_half when it lies there
    a, cfg = AsymptoticData(xi_in, eta_in), SolverConfig(dense_step=dense_step)
    _assert_gap_left_out(integrate(a, cfg), *integrate_samples_loop(a, cfg))


def test_capped_escape_ends_its_samples_after_escape(cfg):
    # at eta_in 30 the crossing lies past the budget: the second run would
    # start after the budget's end, so the samples end at t_escape + TAIL_PAD
    traj = integrate(AsymptoticData(0.0, 30.0), cfg)
    e, (lo, hi) = traj.events.escape, traj.gap
    assert traj.escaped and traj.events.t0 is None
    assert lo == e.t + TAIL_PAD and hi > traj.t[0] + cfg.max_time
    assert lo - cfg.dense_step < traj.t[-1] <= lo
    assert len(traj) < 3000


@pytest.mark.parametrize("eta_in, xi_in, overrides", _ASSEMBLY_CASES)
def test_off_grid_names_the_end_and_event_samples(eta_in, xi_in, overrides):
    traj = integrate(AsymptoticData(xi_in, eta_in), SolverConfig(**overrides))
    ev = traj.events
    placed = {float(traj.t[k]) for k in traj.off_grid}
    assert len(placed) == len(traj.off_grid) <= 4
    assert list(traj.off_grid) == sorted(traj.off_grid)
    # the window is the grid itself, its nodes consecutive but for one jump
    # over the gap's, and the end is on it or placed
    t_w, h = traj.window[0], traj.config.dense_step
    k = np.rint((t_w - traj.t[0]) / h).astype(np.int64)
    assert np.array_equal(_bits(t_w), _bits(traj.t[0] + h * k))
    jumps = np.flatnonzero(np.diff(k) != 1)
    lo, hi = traj.gap if traj.gap is not None else (math.inf, math.inf)
    assert all(t_w[j] <= lo and hi <= t_w[j + 1] for j in jumps) and len(jumps) <= 1
    assert placed <= {float(traj.t[-1]), ev.t0, ev.t_half, ev.t_m}
    assert float(traj.t[-1]) in placed or traj.t[-1] == t_w[-1]
    # an event inside a run is placed, or within 1e-12 of a grid sample
    for t_ev in (ev.t0, ev.t_half, ev.t_m):
        if t_ev is not None and t_ev <= traj.t[-1] and not lo < t_ev < hi:
            assert t_ev in placed or np.min(np.abs(t_w - t_ev)) < 1e-12


def test_window_and_energy_are_read_only(traj8):
    for arr in (*traj8.window, traj8.energy):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_run_without_solver_call_has_a_one_sample_window(cfg):
    traj = integrate(AsymptoticData(0.0, -1.0), cfg)
    assert traj.off_grid == ()
    assert [len(c) for c in traj.window] == [1] * 5


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(escape_tol=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(dense_step=0.0)
    # infinities used to crash inside the run or read as non-scattering
    for field in ("escape_tol", "max_time"):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: math.inf})
    # the certificate stops non-scattering runs: there is no blow-up level;
    # the start comes from the data, the boundary band and the window past
    # escape are constants, and the Taylor steps keep the motion to
    # round-off, so there is no tolerance to set
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "escape_tol", "max_time", "dense_step"]
    for field in ("blowup_xi", "t_start_offset", "boundary_tol", "min_tail", "tail_pad",
                  "abs_tol", "rel_tol"):
        with pytest.raises(TypeError):
            SolverConfig(**{field: 1.0})
    with pytest.raises(TypeError):
        dataclasses.replace(SolverConfig(), rel_tol=1e-12)


def _escaped_stub(xi_dot_f, eta_dot_f):
    ts = np.array([0.0, 1.0])
    return Trajectory(
        t=ts, xi=np.array([-20.0, -21.0]), eta=np.array([-0.5, -1.0]),
        xi_dot=np.array([xi_dot_f, xi_dot_f]),
        eta_dot=np.array([eta_dot_f, eta_dot_f]),
        events=TrajectoryEvents(escape=PhasePoint(1.0, -21.0, -1.0, xi_dot_f, eta_dot_f)),
        asymptotics=AsymptoticData(0.0, 1.0), outcome=Outcome.ESCAPED,
        config=SolverConfig(),
    )


def test_deflection_atan2_values():
    s = -math.sqrt(2.0) / 2.0
    assert math.isclose(deflection(_escaped_stub(s, s)), -0.75 * math.pi,
                        rel_tol=1e-15)
    # grazing limit: velocities (-1, 0^-) give theta -> -pi
    th = deflection(_escaped_stub(-1.0, -1e-12))
    assert math.isclose(th, -math.pi, abs_tol=1e-11)


def test_frozen_oracle_reproducible():
    # recompute the frozen fixed-step reference (h = 1e-4 over [-15, 40])
    from _reference import rk4_final
    y = rk4_final(0.0, 8.0, -15.0, 40.0, 1e-4)
    theta = math.atan2(y[3], y[1])
    assert abs(theta - ORACLE_THETA_ETA8) < 1e-12
