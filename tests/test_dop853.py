"""The owned DOP853 stepper against scipy's solve_ivp(method="DOP853").

scipy serves only as the oracle here.  The two take the same accepted
steps and make the same number of right-hand-side calls; their values
differ by round-off, because the stage sums run in another order.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_tableau

import curvscat.integrator as integrator
from curvscat import AsymptoticData, SolverConfig, dop853, integrate
from curvscat.dop853 import EPS, TOO_SMALL_STEP, brentq, solve_ivp
from curvscat.integrator import deflection_of

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


def _oracle(args, kwargs):
    return scipy_solve_ivp(*args, method="DOP853", **kwargs)


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
        escape = kwargs["events"][0]
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
    def fun(t, y):
        return [y[0] * y[0]]
    for dense_output in (False, True):
        sol = solve_ivp(fun, (0.0, 2.0), [1.0], rtol=1e-10, atol=1e-12,
                        dense_output=dense_output)
        ref = scipy_solve_ivp(fun, (0.0, 2.0), [1.0], method="DOP853", rtol=1e-10,
                              atol=1e-12, dense_output=dense_output)
        assert sol.status == ref.status == -1
        assert sol.message == ref.message == TOO_SMALL_STEP
        assert len(sol.t) == len(ref.t) and sol.nfev == ref.nfev
        assert abs(sol.t[-1] - 1.0) <= 1e-10 and sol.y[0, -1] > 1e12


def test_too_small_rtol_is_raised_with_a_warning():
    def fun(t, y):
        return [-y[0]]
    with pytest.warns(UserWarning, match="rtol 1e-20 is too small"):
        sol = solve_ivp(fun, (0.0, 1.0), [1.0], rtol=1e-20, atol=1e-30)
    ref = solve_ivp(fun, (0.0, 1.0), [1.0], rtol=100 * EPS, atol=1e-30)
    assert np.array_equal(sol.y, ref.y) and sol.status == 0


def test_vectorised_samples_equal_scalar_dense_output(cfg, monkeypatch):
    rec = _Recorder(monkeypatch)
    integrate(AsymptoticData(0.3, 8.0), cfg)
    (args, kwargs, sol), = rec.calls
    # step ends, interior points and both ends of the run
    ts = np.sort(np.concatenate([sol.t, np.linspace(sol.t[0], sol.t[-1], 997)]))
    ys = sol.sol(ts)
    assert ys.shape == (4, len(ts))
    for k, t in enumerate(ts):
        assert np.array_equal(ys[:, k], sol.sol(float(t))), t
    # the samples agree with scipy's to round-off, at the step ends exactly
    # where both solutions start a step
    ref = _oracle(args, kwargs).sol
    assert np.max(np.abs(ys - ref(ts))) <= 1e-13
    assert np.array_equal(sol.sol(sol.t[:1]), sol.y[:, :1])


def test_brentq_locates_roots():
    assert brentq(lambda x: x * x - 2.0, 0.0, 2.0, xtol=4 * EPS,
                  rtol=4 * EPS) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert brentq(lambda x: x, 0.0, 1.0, xtol=1e-12, rtol=4 * EPS) == 0.0
    assert abs(brentq(math.cos, 1.0, 2.0, xtol=4 * EPS, rtol=4 * EPS) - 0.5 * math.pi) <= 1e-15
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12, rtol=4 * EPS)
