"""The owned DOP853 stepper against scipy's solve_ivp(method="DOP853"),
and its generated attempt kernel against the stage loops and the step loop
of tests/_reference.py.

scipy serves only as an oracle here, with callables built from each
system's source.  The two take the same accepted steps and make the same
number of right-hand-side calls; their values differ by round-off, because
the stage sums run in another order.  The kernel keeps the loops' order, so
it equals them bit for bit.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_tableau

import _reference as ref
import curvscat.integrator as integrator
from curvscat import AsymptoticData, SolverConfig, dop853, integrate
from curvscat.dop853 import (EPS, MIN_RTOL, TOO_SMALL_STEP, Event, System, brentq,
                             solve_ivp)
from curvscat.integrator import _SAMPLED, _SOLVER, deflection_of

ORACLE_ETAS = [1.31, 1.6, 2.3252, 8.0, 64.0, 1000.0]


def test_tableau_is_scipys():
    # the sparse float literals rebuild scipy's coefficient arrays exactly
    A = np.zeros((16, 16))
    C = np.zeros(16)
    stages = dop853._STAGES + ((1.0, dop853._B),) + dop853._EXTRA_STAGES
    for i, (c, row) in enumerate(stages, start=1):
        C[i] = c
        for j, a in row:
            A[i, j] = a
    assert np.array_equal(A, scipy_tableau.A) and np.array_equal(C, scipy_tableau.C)
    E5, E3, D = np.zeros(13), np.zeros(13), np.zeros((4, 16))
    for j, e5, e3 in dop853._E:
        E5[j], E3[j] = e5, e3
    for j, *d in dop853._D:
        D[:, j] = d
    assert np.array_equal(E5, scipy_tableau.E5) and np.array_equal(E3, scipy_tableau.E3)
    assert np.array_equal(D, scipy_tableau.D)


def _callables(args, kwargs):
    """(fun, events) for scipy and the loops, from a call's system source."""
    return ref.scipy_callables(args[0], kwargs.get("params") or {})


def _oracle(args, kwargs):
    fun, events = _callables(args, kwargs)
    return scipy_solve_ivp(fun, *args[1:], method="DOP853", rtol=kwargs["rtol"],
                           atol=kwargs["atol"], dense_output=kwargs.get("dense_output", False),
                           events=events)


class _Recorder:
    """Stands in for integrator.solve_ivp; keeps each call with its result."""

    def __init__(self, monkeypatch):
        self.calls = []
        monkeypatch.setattr(integrator, "solve_ivp", self)

    def __call__(self, *args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        self.calls.append((args, kwargs, sol))
        return sol


def _rejected(sol):
    # a dense run makes 2 start calls, 12 per attempted step and 3 per
    # accepted step for its interpolant
    attempts, rest = divmod(sol.nfev - 2 - 3 * (len(sol.t) - 1), 12)
    assert rest == 0
    return attempts - (len(sol.t) - 1)


@pytest.mark.parametrize("xi_in", [0.0, 0.9])
@pytest.mark.parametrize("eta_in", ORACLE_ETAS)
def test_integrator_calls_match_scipy(eta_in, xi_in, cfg, monkeypatch):
    rec = _Recorder(monkeypatch)
    a = AsymptoticData(xi_in, eta_in)
    integrate(a, cfg)
    deflection_of(a, cfg)
    assert len(rec.calls) == 2
    for args, kwargs, sol in rec.calls:
        ref = _oracle(args, kwargs)
        assert sol.status == ref.status == 1
        assert len(sol.t) == len(ref.t) and sol.nfev == ref.nfev
        assert len(sol.t_events) == len(ref.t_events)
        escape = _callables(args, kwargs)[1][0]
        for k, (got, want) in enumerate(zip(sol.t_events, ref.t_events)):
            assert len(got) == len(want), k
            if k > 0:
                assert np.max(np.abs(got - want), initial=0.0) <= 1e-12, k
        # the escape residual falls like exp(-2t) from 1e-7, so the round-off
        # in its speed defect |xi_dot^2 + eta_dot^2 - 1| moves the root by
        # ~1e-9; instead the oracle's residual must vanish at this root to
        # a few ulps of that defect's O(1) terms
        t_esc = float(sol.t_events[0][0])
        dense = _oracle(args, dict(kwargs, dense_output=True)).sol
        assert abs(escape(t_esc, dense(t_esc))) <= 8 * EPS
    full = rec.calls[0][2]
    assert _rejected(full) == _rejected(_oracle(*rec.calls[0][:2])) > 0


@pytest.mark.parametrize("xi_in", [0.0, 0.9])
@pytest.mark.parametrize("eta_in", ORACLE_ETAS)
def test_theta_matches_scipy(eta_in, xi_in, cfg, monkeypatch):
    a = AsymptoticData(xi_in, eta_in)
    theta = deflection_of(a, cfg)
    monkeypatch.setattr(integrator, "solve_ivp",
                        lambda *args, **kwargs: _oracle(args, kwargs))
    assert abs(theta - deflection_of(a, cfg)) <= 1e-14


def test_budget_stop_matches_scipy(monkeypatch):
    # at max_time 19 the run reaches the end of its interval unescaped
    rec = _Recorder(monkeypatch)
    traj = integrate(AsymptoticData(0.0, 8.0), SolverConfig(max_time=19.0))
    assert not traj.escaped
    (args, kwargs, sol), = rec.calls
    ref = _oracle(args, kwargs)
    assert sol.status == ref.status == 0
    assert sol.message == ref.message
    assert sol.t[-1] == ref.t[-1] == args[1][1]
    assert len(sol.t) == len(ref.t) and sol.nfev == ref.nfev
    assert np.max(np.abs(sol.y[:, -1] - ref.y[:, -1])) <= 1e-12


def test_rejected_steps_match_scipy(cfg, monkeypatch):
    # the certified run at 1.2998 rejects many steps near the onset
    rec = _Recorder(monkeypatch)
    integrate(AsymptoticData(0.0, 1.2998), cfg)
    (args, kwargs, sol), = rec.calls
    ref = _oracle(args, kwargs)
    assert sol.status == ref.status == 1
    assert len(sol.t) == len(ref.t) and sol.nfev == ref.nfev
    assert _rejected(sol) == _rejected(ref) > 10


def test_finite_time_blowup_fails_with_a_message():
    # y' = y^2 from y(0) = 1 is 1/(1 - t): the step falls below 10 ulp at t = 1
    system = System(("y0 * y0",))
    for dense_output in (False, True):
        sol = solve_ivp(system, (0.0, 2.0), [1.0], rtol=1e-10, atol=1e-12,
                        dense_output=dense_output)
        ref = _oracle((system, (0.0, 2.0), [1.0]),
                      dict(rtol=1e-10, atol=1e-12, dense_output=dense_output))
        assert sol.status == ref.status == -1
        assert sol.message == ref.message == TOO_SMALL_STEP
        assert len(sol.t) == len(ref.t) and sol.nfev == ref.nfev
        assert abs(sol.t[-1] - 1.0) <= 1e-10 and sol.y[0, -1] > 1e12


def test_failure_before_the_first_step_has_no_dense_output():
    # y' = y^2 from y(1) = 1e20 blows up 1e-20 after the start, below 10 ulp
    # of t: no step is accepted, so there is no interpolant to build
    system = System(("y0 * y0",))
    for dense_output in (False, True):
        sol = solve_ivp(system, (1.0, 2.0), [1e20], rtol=1e-10, atol=1e-12,
                        dense_output=dense_output)
        assert sol.status == -1 and sol.message == TOO_SMALL_STEP
        assert sol.t.tolist() == [1.0] and sol.sol is None


def test_too_small_rtol_is_refused():
    # scipy raises such an rtol to its floor with a warning; the stepper
    # refuses it, so no run is made at a tolerance other than the one given
    system = System(("-y0",))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="rtol 1e-20 is below the floor MIN_RTOL"):
            solve_ivp(system, (0.0, 1.0), [1.0], rtol=1e-20, atol=1e-30)
        with pytest.raises(ValueError, match="MIN_RTOL"):
            solve_ivp(system, (0.0, 1.0), [1.0], rtol=np.nextafter(MIN_RTOL, 0.0),
                      atol=1e-30)
        sol = solve_ivp(system, (0.0, 1.0), [1.0], rtol=MIN_RTOL, atol=1e-30)
    assert MIN_RTOL == 100 * EPS and sol.status == 0


def test_vectorised_samples_equal_scalar_dense_output(cfg, monkeypatch):
    rec = _Recorder(monkeypatch)
    integrate(AsymptoticData(0.3, 8.0), cfg)
    (args, kwargs, sol), = rec.calls
    # step ends, interior points and both ends of the run
    ts = np.sort(np.concatenate([sol.t, np.linspace(sol.t[0], sol.t[-1], 997)]))
    ys = sol.sol(ts)
    assert ys.shape == (4, len(ts))
    dense = sol.sol
    for k, t in enumerate(ts):
        assert np.array_equal(ys[:, k], dense(float(t))), t
        # the nested form one component at a time, on the step t belongs to
        i = min(max(int(np.searchsorted(sol.t, t)) - 1, 0), len(sol.t) - 2)
        step = ref.Step(float(dense._t_old[i]), float(dense._h[i]),
                        dense._y_old[:, i].tolist(), dense._coeffs[:, :, i].T.tolist())
        assert np.array_equal(_bits(ys[:, k]), _bits(step(float(t)))), t
    # the samples agree with scipy's to round-off, at the step ends exactly
    # where both solutions start a step
    oracle = _oracle(args, kwargs).sol
    assert np.max(np.abs(ys - oracle(ts))) <= 1e-13
    assert np.array_equal(sol.sol(sol.t[:1]), sol.y[:, :1])


def test_dense_output_equals_the_fancy_gather(cfg, monkeypatch):
    # step ends, interior points, and points beyond both ends of the run
    rec = _Recorder(monkeypatch)
    integrate(AsymptoticData(0.0, 21.0), cfg)
    (_, _, sol), = rec.calls
    ts = np.sort(np.concatenate([sol.t, np.linspace(sol.t[0] - 1.0, sol.t[-1] + 1.0, 1999)]))
    assert np.array_equal(_bits(sol.sol(ts)), _bits(ref.dense_fancy(sol.sol, ts)))
    for t in (ts[0], ts[len(ts) // 2], ts[-1]):
        assert np.array_equal(_bits(sol.sol(t)), _bits(ref.dense_fancy(sol.sol, t)))


def test_brentq_locates_roots():
    assert brentq(lambda x: x * x - 2.0, 0.0, 2.0, xtol=4 * EPS,
                  rtol=4 * EPS) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert brentq(lambda x: x, 0.0, 1.0, xtol=1e-12, rtol=4 * EPS) == 0.0
    assert abs(brentq(math.cos, 1.0, 2.0, xtol=4 * EPS, rtol=4 * EPS) - 0.5 * math.pi) <= 1e-15
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12, rtol=4 * EPS)


def _bits(x):
    """The bit patterns of floats: equal only where the signs of zeros are."""
    return np.asarray(x, dtype=float).view(np.uint64)


def _random_values(rng, shape, zeros=0.2):
    """Mixed magnitudes 1e-100..1e100 of both signs; a share zeros of them
    +0.0 or -0.0."""
    x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-100, 100, shape)
    zero = rng.random(shape) < zeros
    x[zero] = rng.choice([-0.0, 0.0], shape)[zero]
    return x


def _signed_zeros(rng, x, share):
    """x with a share of its entries replaced by +0.0 or -0.0."""
    x = np.array(x, dtype=float)
    zero = rng.random(x.shape) < share
    x[zero] = rng.choice([-0.0, 0.0], x.shape)[zero]
    return x


# a system of each size with events of every direction; 4 is the scattering
# system with all five of integrate's events
SYSTEMS = {
    1: (System(("y0 * y0 - 0.3",),
               events=(Event("y0 - c", -1, True), Event("y0", 0), Event("c - y0", 1)),
               params=("c",)), {"c": 0.3}),
    2: (System(("y1", "-y0 * e"), shared=(("e", "exp(-abs(y1))"),),
               events=(Event("min(y0, e - 0.5)", 1, True), Event("y1 * e", -1))), {}),
    4: (_SAMPLED, {"escape_tol": 1e-7, "half": 4.0}),
}


def _attempt_by_the_loops(system, params, t, h, y, f, g, rtol, atol, dense):
    """What the attempt kernel returns, by the stage loops and the events'
    callables."""
    fun, events = ref.scipy_callables(system, params)
    y_new, K = ref.dop853_step(fun, t, y, f, h)
    K.append(fun(t + h, y_new))
    err = ref.dop853_error_norm(K, h, y, y_new, rtol, atol)
    if not err < 1.0:
        return err, None, None, None, None, None
    values = tuple(ev(t + h, y_new) for ev in events)
    active = ref._active_events(g, values, [ev.direction for ev in system.events])
    coeffs = ref.dop853_dense(fun, K, t, h, y, y_new) if dense or active else None
    return err, y_new, K[dop853.N_STAGES], values, active, coeffs


@pytest.mark.parametrize("n", [1, 2, 4])
def test_kernels_equal_the_loops_bit_for_bit(n):
    # wild draws span 1e-100..1e100 and mostly fail the error test; tame
    # ones are accepted and reach the events and the interpolant
    rng = np.random.default_rng(n)
    system, params = SYSTEMS[n]
    args = tuple(params[name] for name in system.params)
    attempt, state = system.functions.attempt, system.functions.state
    m = len(system.events)
    accepted = 0
    for k in range(400):
        # plain floats, as the stepper passes: numpy scalars would warn
        t = float(rng.uniform(-10, 10))
        g = _random_values(rng, m, zeros=0.3).tolist()
        dense = bool(rng.integers(2))
        if k % 2:
            h = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6, 1))
            y, f = _random_values(rng, (2, n), zeros=rng.choice([0.2, 0.9])).tolist()
            rtol, atol = (10.0 ** rng.uniform(-13, -3, 2)).tolist()
        else:
            h = float(10.0 ** rng.uniform(-4, -1))
            y = _signed_zeros(rng, rng.normal(0.0, 1.0, n), 0.3).tolist()
            f = _signed_zeros(rng, rng.normal(0.0, 1.0, n), 0.3).tolist()
            rtol, atol = (10.0 ** rng.uniform(-6, -2, 2)).tolist()
        got = attempt(h, y, f, g, rtol, atol, dense, *args)
        want = _attempt_by_the_loops(system, params, t, h, y, f, g, rtol, atol, dense)
        assert _bits(got[0]) == _bits(want[0])
        assert (got[1] is None) is (want[1] is None)
        if got[1] is None:
            assert got[1:] == want[1:]
            continue
        accepted += 1
        for a, b in zip(got[1:4], want[1:4]):
            assert np.array_equal(_bits(a), _bits(b))
        assert got[4] == want[4]
        assert (got[5] is None) is (want[5] is None)
        if got[5] is None:
            continue
        assert np.array_equal(_bits(got[5]), _bits(want[5]))
        # the interpolant at both ends of the step, inside it and beyond
        step = ref.Step(t, h, y, got[5])
        for s in (t, t + h, t + h * float(rng.uniform(0.0, 1.0)),
                  t + h * float(rng.uniform(-0.5, 1.5))):
            assert np.array_equal(_bits(state(s, t, h, y, got[5])), _bits(step(s))), s
    assert accepted > 100
    assert system.functions is system.functions


@pytest.mark.parametrize("xi_in", [0.0, 0.9])
@pytest.mark.parametrize("eta_in", ORACLE_ETAS)
def test_runs_equal_the_loops_bit_for_bit(eta_in, xi_in, cfg, monkeypatch):
    rec = _Recorder(monkeypatch)
    a = AsymptoticData(xi_in, eta_in)
    integrate(a, cfg)
    deflection_of(a, cfg)
    for args, kwargs, sol in rec.calls:
        fun, events = _callables(args, kwargs)
        want = ref.dop853_solve_loops(fun, *args[1:], rtol=kwargs["rtol"], atol=kwargs["atol"],
                                      dense_output=kwargs["dense_output"], events=events)
        assert sol.nfev == want.nfev and sol.status == want.status
        assert np.array_equal(_bits(sol.t), _bits(want.t))
        assert np.array_equal(_bits(sol.y), _bits(want.y))
        assert len(sol.t_events) == len(want.t_events)
        for got, ev in zip(sol.t_events, want.t_events):
            assert np.array_equal(_bits(got), _bits(ev))
        if kwargs["dense_output"]:
            ts = np.linspace(sol.t[0], sol.t[-1], 1001)
            assert np.array_equal(_bits(sol.sol(ts)), _bits(want.sol(ts)))


def _states(rng, count):
    """States (xi, xi_dot, eta, eta_dot) of every sign, with +-0.0 entries,
    negative eta and 2*xi beyond the clamp at 700."""
    y = rng.normal(0.0, 3.0, (count, 4)) * 10.0 ** rng.integers(-3, 3, (count, 4))
    y[::7, 0] = rng.uniform(350.0, 1e4, len(y[::7]))      # 2*xi > 700
    y[1::7, 0] = -rng.uniform(350.0, 1e4, len(y[1::7]))
    y[::5, 2] = -np.abs(y[::5, 2])                          # eta < 0
    return _signed_zeros(rng, y, 0.15)


def test_rhs_source_equals_rhs_bit_for_bit():
    # the source compiled as fun and in the attempt kernel's stages, in both
    # systems, against the documented equations
    rng = np.random.default_rng(7)
    for system, args in ((_SOLVER, (1e-7,)), (_SAMPLED, (1e-7, 4.0))):
        fun, attempt = system.functions.fun, system.functions.attempt
        for y in _states(rng, 2000).tolist():
            assert np.array_equal(_bits(fun(0.0, y)), _bits(ref.rhs(0.0, y))), y
        # stage 12 is the right-hand side at y_new
        accepted = 0
        for y in _states(rng, 200).tolist():
            got = attempt(1e-3, y, ref.rhs(0.0, y), (1.0,) * len(system.events), 1e3, 1e3,
                          False, *args)
            if got[1] is not None:
                accepted += 1
                assert np.array_equal(_bits(got[2]), _bits(ref.rhs(0.0, got[1])))
        assert accepted > 100


def test_each_system_compiles_once(monkeypatch):
    # fresh copies carry no compiled functions; a dense and a solver-only
    # run of each generate and compile one module per system
    labels = []
    compile_module = dop853._compile

    def counted(source, label):
        labels.append(label)
        return compile_module(source, label)

    monkeypatch.setattr(dop853, "_compile", counted)
    params = {"escape_tol": 1e-7, "half": 4.0}
    y0 = [-20.0, 1.0, 8.0, 0.0]
    for system in (_SOLVER, _SAMPLED):
        fresh = dataclasses.replace(system)
        assert fresh == system and "functions" not in vars(fresh)
        for dense_output in (True, False):
            sol = solve_ivp(fresh, (-20.0, 580.0), y0, rtol=1e-10, atol=1e-12,
                            dense_output=dense_output, params=params)
            assert sol.status == 1 and len(sol.t_events[0]) == 1
    assert labels == ["<dop853 system of 4>"] * 2


def test_event_values_equal_their_definitions():
    rng = np.random.default_rng(8)
    tol, eta_in = 1e-7, 8.0
    values = _SAMPLED.functions.values
    for y in _states(rng, 2000).tolist():
        want = [ref.escape_residual(y, tol), y[2], min(-y[2], y[1]),
                y[2] - 0.5 * eta_in, y[1]]
        got = [value(y, tol, 0.5 * eta_in) for value in values]
        assert np.array_equal(_bits(got), _bits(want)), y
        assert _bits(_SOLVER.functions.values[0](y, tol)) == _bits(want[0])
    assert _SOLVER.events == _SAMPLED.events[:3]
    assert [(ev.direction, ev.terminal) for ev in _SAMPLED.events] == [
        (-1, True), (-1, False), (1, True), (-1, False), (-1, False)]
