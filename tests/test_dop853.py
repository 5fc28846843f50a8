"""The Taylor stepper (curvscat.taylor) against scipy's
solve_ivp(method="DOP853") at rtol 1e-13, an independent method, and its
generated kernel against the recurrence written as loops in
tests/_reference.py.

scipy serves only as an oracle here, on the documented right-hand side.
The stepper's steps keep the motion to round-off, so its states, event
times, samples and Theta agree with the tight DOP853 run to its own
accuracy.  The kernel keeps the loops' order of operations, so it equals
them bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp as scipy_solve_ivp

import _reference as ref
import curvscat.integrator as integrator
from curvscat import AsymptoticData, SolverConfig, integrate, taylor
from curvscat.integrator import deflection_of

ORACLE_ETAS = [1.31, 1.6, 2.3252, 8.0, 64.0, 1000.0]
N = taylor.ORDER + 1


class _Recorder:
    """Stands in for integrator.solve_ivp; keeps each call with its result."""

    def __init__(self, monkeypatch):
        self.calls = []
        monkeypatch.setattr(integrator, "solve_ivp", self)

    def __call__(self, *args, **kwargs):
        sol = taylor.solve_ivp(*args, **kwargs)
        self.calls.append((args, kwargs, sol))
        return sol


def _tight(t_span, y0, events=()):
    """scipy's DOP853 at rtol 1e-13 on the documented equations."""
    return scipy_solve_ivp(ref._rhs, t_span, list(y0), method="DOP853", rtol=1e-13,
                           atol=1e-15, events=events, dense_output=True)


def _falling(value):
    def event(t, y):
        return value(y)
    event.direction = -1
    return event


def _bits(x):
    """The bit patterns of floats: equal only where the signs of zeros are."""
    return np.asarray(x, dtype=float).view(np.uint64)


def _near(got, want, tol):
    """|got - want| <= tol * max(1, |want|), componentwise."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


@pytest.mark.parametrize("xi_in", [0.0, 0.9])
@pytest.mark.parametrize("eta_in", ORACLE_ETAS)
def test_integrator_calls_match_scipy(eta_in, xi_in, cfg, monkeypatch):
    # integrate and deflection_of take the same steps, one kernel evaluation
    # each, to the same stop; scipy's tight run over the same interval ends
    # in the same state and finds the same crossings
    rec = _Recorder(monkeypatch)
    a = AsymptoticData(xi_in, eta_in)
    traj = integrate(a, cfg)
    deflection_of(a, cfg)
    (args, _, full), (_, _, evaluator) = rec.calls
    assert full.status == evaluator.status == taylor.ESCAPED
    assert full.nfev == evaluator.nfev == len(full.t) - 1
    assert np.array_equal(_bits(full.t), _bits(evaluator.t)) and full.y == evaluator.y
    want = _tight((full.t[0], full.t[-1]), args[1],
                  [_falling(lambda y: y[2]), _falling(lambda y: y[2] - 0.5 * eta_in),
                   _falling(lambda y: y[1])])
    assert want.status == 0
    assert _near(full.y, want.y[:, -1], 1e-11)
    ev = traj.events
    for got, roots in zip((ev.t0, ev.t_half, ev.t_m), want.t_events):
        if len(roots):
            assert abs(got - roots[0]) <= 1e-10 * max(1.0, abs(roots[0]))
        else:       # past escape: from the free leg
            assert got is None or got > full.t[-1]


@pytest.mark.parametrize("xi_in", [0.0, 0.9])
@pytest.mark.parametrize("eta_in", ORACLE_ETAS)
def test_theta_matches_scipy(eta_in, xi_in, cfg):
    # Theta at round-off: DOP853 at the default rel_tol 1e-10 was off by up
    # to 7.4e-10 here; theta_tight is itself good to about 1.5e-13
    theta = deflection_of(AsymptoticData(xi_in, eta_in), cfg)
    assert abs(theta - ref.theta_tight(eta_in)) <= 5e-13


def test_budget_stop_matches_scipy(monkeypatch):
    # at max_time 19 the run reaches the end of its interval unescaped, its
    # last step clipped to the end exactly
    rec = _Recorder(monkeypatch)
    traj = integrate(AsymptoticData(0.0, 8.0), SolverConfig(max_time=19.0))
    assert not traj.escaped
    (args, _, sol), = rec.calls
    assert sol.status == taylor.END
    assert sol.message == taylor.MESSAGES[taylor.END]
    assert sol.t[-1] == args[0][1] == traj.t[-1]
    want = _tight(args[0], args[1])
    assert want.t[-1] == sol.t[-1] and _near(sol.y, want.y[:, -1], 1e-11)


# xi'' = -eta*exp(2*xi) = e^20 at rest: a state headed for blow-up, which
# the certificate (eta < 0 with xi_dot > 0) catches after one step
BLOWUP = (10.0, 0.0, -1.0, 0.0)


def test_finite_time_blowup_fails_with_a_message():
    # at t = 1e12 the motion's time scale, e^-10, lies below 10 ulp of t:
    # the first step is too small, with or without dense output
    for dense_output in (False, True):
        sol = taylor.solve_ivp((1e12, 1e12 + 600.0), BLOWUP, 1e-7, dense_output)
        assert sol.status == taylor.FAILED and sol.message == taylor.TOO_SMALL_STEP
        assert sol.nfev == 1 and sol.t.tolist() == [1e12] and sol.y == BLOWUP
        sol = taylor.solve_ivp((0.0, 600.0), BLOWUP, 1e-7, dense_output)
        assert sol.status == taylor.CERTIFIED and sol.nfev == len(sol.t) - 1 == 1
        assert ref.certified(sol.y)
        # at xi = 300 the coefficients overflow: a failure, not a step on
        # NaN, and so is exp(2*xi) beyond the float range
        for xi in (300.0, 400.0):
            sol = taylor.solve_ivp((0.0, 600.0), (xi, 0.0, -1.0, 0.0), 1e-7, dense_output)
            assert sol.status == taylor.FAILED and sol.message == taylor.OVERFLOW
            assert sol.t.tolist() == [0.0]


def test_failure_before_the_first_step_has_no_dense_output():
    # no step is taken, so there is no polynomial to evaluate; integrate
    # raises the message before it samples
    sol = taylor.solve_ivp((1e12, 1e12 + 600.0), BLOWUP, 1e-7, dense_output=True)
    assert sol.status == taylor.FAILED and sol.t.tolist() == [1e12]
    assert sol._coeffs is None
    with pytest.raises(integrator.NotConvergedError, match=taylor.TOO_SMALL_STEP):
        integrate(AsymptoticData(-1e15, 8.0))


def test_vectorised_samples_equal_scalar_dense_output(cfg, monkeypatch):
    rec = _Recorder(monkeypatch)
    integrate(AsymptoticData(0.3, 8.0), cfg)
    (args, _, sol), = rec.calls
    # step ends, interior points and both ends of the run
    ts = np.sort(np.concatenate([sol.t, np.linspace(sol.t[0], sol.t[-1], 997)]))
    ys = sol(ts)
    assert ys.shape == (4, len(ts))
    # each step's polynomial by the loops from the state at its start, and
    # evaluated one component at a time; a step end is the kernel's state
    starts = [tuple(args[1])] + [tuple(sol(t).tolist()) for t in sol.t[1:-1]]
    assert tuple(sol(sol.t[-1]).tolist()) == sol.y
    for k, t in enumerate(ts):
        assert np.array_equal(_bits(ys[:, k]), _bits(sol(float(t)))), t
        i = min(max(int(np.searchsorted(sol.t, t)) - 1, 0), len(sol.t) - 2)
        c = ref.taylor_coefficients(starts[i], math.exp(2.0 * starts[i][0]))
        s = float(t) - float(sol.t[i])
        assert np.array_equal(_bits(ys[:, k]), _bits([ref.horner(cj, s) for cj in c])), t
    # the samples agree with scipy's tight dense output
    assert _near(ys, _tight((sol.t[0], sol.t[-1]), args[1]).sol(ts), 1e-11)


_state = dict(xi=st.floats(-40.0, 4.0), xi_dot=st.floats(-2.0, 2.0),
              eta=st.floats(-60.0, 60.0), eta_dot=st.floats(-2.0, 2.0))


@pytest.mark.parametrize("n", [1, 2, 4])
@settings(max_examples=40)
@given(t=st.floats(-100.0, 100.0), budget=st.floats(1e-3, 1e3), **_state)
def test_kernels_equal_the_loops_bit_for_bit(n, t, budget, xi, xi_dot, eta, eta_dot):
    # n successive steps from a drawn state: coefficients, step size, step
    # end and state equal the loop form's, bit for bit
    step = taylor.kernel()
    state, t_bound = (xi, xi_dot, eta, eta_dot), t + budget
    for _ in range(n):
        e = math.exp(2.0 * state[0])
        got = step(*state, e, t, t_bound)
        want = ref.taylor_step(state, e, t, t_bound)
        assert np.array_equal(_bits(got[:6]), _bits(want[:6]))
        assert np.array_equal(_bits(got[6]), _bits(want[6])) and len(got[6]) == 4 * N
        t, state = got[1], got[2:6]


@settings(max_examples=60)
@given(**_state)
def test_truncated_series_satisfies_the_ode(xi, xi_dot, eta, eta_dot):
    # the step's polynomials satisfy xi' = p, p' = -eta*E, eta' = q and
    # q' = -E/2 with E = exp(2*xi) across the step, to round-off: the
    # series is the motion to order ORDER, and the step size leaves the
    # rest below an ulp
    # a step that keeps all the terms (a state near rest, E ~ 1e-35) is
    # clipped, here to 10
    h, t_new, *_, coeffs = taylor.kernel()(xi, xi_dot, eta, eta_dot,
                                           math.exp(2.0 * xi), 0.0, 10.0)
    assert t_new == min(h, 10.0)
    h = t_new
    c = [coeffs[k * N:(k + 1) * N] for k in range(4)]
    d = [[j * cj[j] for j in range(1, N)] for cj in c]
    for s in (0.0, 0.25 * h, 0.5 * h, h):
        x, p, y, q = (ref.horner(cj, s) for cj in c)
        dx, dp, dy, dq = (ref.horner(dj, s) for dj in d)
        e = math.exp(2.0 * x)
        scale = 1.0 + abs(p) + abs(q) + abs(y * e) + e
        for residual in (dx - p, dp + y * e, dy - q, dq + 0.5 * e):
            assert abs(residual) <= 1e-12 * scale, (s / h, residual)


@pytest.mark.parametrize("xi_in", [0.0, 0.9])
@pytest.mark.parametrize("eta_in", ORACLE_ETAS)
def test_runs_equal_the_loops_bit_for_bit(eta_in, xi_in, cfg, monkeypatch):
    # whole runs with the loop form in place of the generated kernel: the
    # same samples, events and Theta, bit for bit
    a = AsymptoticData(xi_in, eta_in)
    traj, theta = integrate(a, cfg), deflection_of(a, cfg)

    def loops(x, p, y, q, e, t, t_bound):
        return ref.taylor_step((x, p, y, q), e, t, t_bound)
    monkeypatch.setattr(taylor, "kernel", lambda: loops)
    want = integrate(a, cfg)
    assert deflection_of(a, cfg) == theta
    for got, arr in zip((traj.t, traj.xi, traj.eta, traj.xi_dot, traj.eta_dot),
                        (want.t, want.xi, want.eta, want.xi_dot, want.eta_dot)):
        assert np.array_equal(_bits(got), _bits(arr))
    assert traj.events == want.events and traj.gap == want.gap


def _states(rng, count):
    """States (xi, xi_dot, eta, eta_dot) of every sign, with +-0.0 entries,
    negative eta and 2*xi from far below the subnormal range to 700."""
    y = rng.normal(0.0, 3.0, (count, 4)) * 10.0 ** rng.integers(-3, 3, (count, 4))
    y[::7, 0] = rng.uniform(-1e4, 350.0, len(y[::7]))
    y[:, 0] = np.minimum(y[:, 0], 350.0)
    y[::5, 2] = -np.abs(y[::5, 2])                          # eta < 0
    zero = rng.random(y.shape) < 0.15
    y[zero] = rng.choice([-0.0, 0.0], y.shape)[zero]
    return y


def test_rhs_source_equals_rhs_bit_for_bit():
    # the kernel's order-1 coefficients are the documented equations
    rng = np.random.default_rng(7)
    step = taylor.kernel()
    for y in _states(rng, 2000).tolist():
        coeffs = step(*y, math.exp(2.0 * y[0]), 0.0, 1.0)[-1]
        got = [coeffs[k * N + 1] for k in range(4)]
        assert np.array_equal(_bits(got), _bits(ref.rhs(0.0, y))), y


def test_each_system_compiles_once(monkeypatch):
    # the one kernel is generated and compiled on first use, once per
    # process, whatever mix of dense and solver-only runs follows
    labels = []
    compile_source = taylor._compile

    def counted(source, label):
        labels.append(label)
        return compile_source(source, label)

    monkeypatch.setattr(taylor, "_compile", counted)
    taylor.kernel.cache_clear()
    for eta_in in (1.31, 8.0):
        a = AsymptoticData(0.0, eta_in)
        assert integrate(a).escaped
        deflection_of(a)
    assert labels == [f"<taylor kernel of order {taylor.ORDER}>"]
    assert taylor.kernel() is taylor.kernel()


def test_event_values_equal_their_definitions(monkeypatch):
    # a run stops at the first step end that passes the escape test or the
    # certificate, as tests/_reference.py writes them out, and only there:
    # escaped, certified and budget-stopped runs, and escape_tol far from
    # its default
    rec = _Recorder(monkeypatch)
    runs = [(1.31, {}), (2.3252, {}), (2.3825, {}), (64.0, {}), (0.5, {}), (1.2998, {}),
            (8.0, {"max_time": 19.0}), (8.0, {"escape_tol": 1e-3}),
            (1.6, {"escape_tol": 1e-13})]
    for eta_in, overrides in runs:
        cfg = SolverConfig(**overrides)
        integrate(AsymptoticData(0.0, eta_in), cfg)
        sol = rec.calls[-1][2]
        ends = sol(sol.t[1:]).T.tolist()
        assert tuple(ends[-1]) == sol.y
        escapes = [ref.escape_residual(y, cfg.escape_tol) <= 0.0 for y in ends]
        certificates = [ref.certified(y) for y in ends]
        assert not any(escapes[:-1]) and not any(certificates[:-1]), eta_in
        assert escapes[-1] == (sol.status == taylor.ESCAPED), eta_in
        assert certificates[-1] == (sol.status == taylor.CERTIFIED), eta_in
    assert {sol.status for _, _, sol in rec.calls} == {
        taylor.ESCAPED, taylor.CERTIFIED, taylor.END}
