import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from curvscat import (ETA_CRIT_UPPER, AsymptoticData, SolverConfig,
                      explicit_bounds, free_motion_expansion, lncosh,
                      t0_state_bounds, xi_subsolution, xi_supersolution)
from curvscat.closed_forms import (deflection_deep, free_asymptote, free_leg,
                                   past_tails, start_time)
from curvscat.dynamics import PhasePoint
from curvscat.integrator import deflection_of

from _reference import energy, eta_first_iterate, free_leg_unfloored

A04 = AsymptoticData(0.0, 4.0)
A08 = AsymptoticData(0.0, 8.0)

eta_pos = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
xi_any = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def test_lncosh_matches_log_cosh_moderate():
    z = np.linspace(-20.0, 20.0, 401)
    assert np.max(np.abs(lncosh(z) - np.log(np.cosh(z)))) < 1e-13


@given(z=st.floats(min_value=-5000.0, max_value=5000.0, allow_nan=False))
def test_lncosh_no_overflow_and_even(z):
    v = float(lncosh(z))
    assert math.isfinite(v)
    assert v == float(lncosh(-z))
    if abs(z) > 30.0:
        assert math.isclose(v, abs(z) - math.log(2.0), rel_tol=1e-15)


def test_xi_subsolution_values():
    assert math.isclose(xi_subsolution(0.0, A04), -math.log(2.0), rel_tol=1e-15)
    # -ln cosh(-5) - ln 2 evaluated exactly
    expected = -math.log(math.cosh(-5.0)) - math.log(2.0)
    assert math.isclose(xi_subsolution(-5.0, A04), expected, rel_tol=1e-14)
    assert abs(expected - (-5.0)) < 1e-4  # asymptotically the line xi_in + t shifted
    # maximum value -ln sqrt(eta_in) attained at the envelope peak
    b = explicit_bounds(A04)
    assert math.isclose(xi_subsolution(b.tm0, A04), -0.5 * math.log(4.0),
                        rel_tol=1e-15)


def test_eta_first_iterate_values():
    assert math.isclose(eta_first_iterate(0.0, A04), 4.0 - math.log(4.0) / 16.0,
                        rel_tol=1e-14)
    assert math.isclose(eta_first_iterate(-40.0, A04), 4.0, rel_tol=1e-13)
    # strictly below eta_in wherever the gap is representable; never above
    ts = np.linspace(-30.0, 10.0, 801)
    assert np.all(eta_first_iterate(ts, A04) <= 4.0 + 1e-12)
    ts = np.linspace(-10.0, 10.0, 401)
    assert np.all(eta_first_iterate(ts, A04) < 4.0)


def test_xi_supersolution_values():
    expected = -math.log(math.cosh(-math.log(math.sqrt(2.0)))) - math.log(math.sqrt(2.0))
    got = xi_supersolution(0.0, A04)
    assert math.isclose(got, expected, rel_tol=1e-14)
    assert math.isclose(got, -0.405465, rel_tol=0, abs_tol=1e-6)
    assert got > xi_subsolution(0.0, A04)
    b = explicit_bounds(A04)
    assert math.isclose(xi_supersolution(b.tm_hat, A04),
                        -0.5 * math.log(4.0 / 2.0), rel_tol=1e-15)


@given(eta_in=eta_pos, xi_in=xi_any)
def test_envelope_ordering(eta_in, xi_in):
    # the gap closes like e^{2t} toward the past, so strictness is asserted
    # only where it is representable
    a = AsymptoticData(xi_in, eta_in)
    peak = explicit_bounds(a).tm0
    ts = np.linspace(peak - 25.0, peak + 8.0, 151)
    gap = xi_supersolution(ts, a) - xi_subsolution(ts, a)
    assert np.all(gap >= -1e-12)
    resolvable = ts >= peak - 15.0
    assert np.all(gap[resolvable] > 0.0)


def test_explicit_bounds_values():
    b = explicit_bounds(A04)
    assert math.isclose(b.t0_lower, math.log(2.0 * math.sqrt(8.0)), rel_tol=1e-15)
    assert math.isclose(b.t0_lower, 1.732868, abs_tol=1e-6)
    assert math.isclose(b.t_half_lower, math.log(4.0), rel_tol=1e-15)
    assert b.tm0 == 0.0
    assert math.isclose(ETA_CRIT_UPPER, math.sqrt(2.0) * (2.0 + math.sqrt(3.0)),
                        rel_tol=1e-15)
    assert math.isclose(ETA_CRIT_UPPER, 5.2779168675, abs_tol=1e-9)


def test_explicit_bounds_ordering_eta8():
    b = explicit_bounds(A08)
    assert math.isclose(b.tm0, math.log(2.0 / math.sqrt(8.0)), rel_tol=1e-15)
    assert b.tm0 < b.tm_hat < b.t_half_lower
    assert math.isclose(b.tm_hat, 0.0, abs_tol=1e-15)
    assert math.isclose(b.t_half_lower, 1.732868, abs_tol=1e-6)


@given(eta_in=st.floats(min_value=math.sqrt(2.0) + 1e-6, max_value=1e3),
       xi_in=xi_any)
def test_bounds_ordering_above_sqrt2(eta_in, xi_in):
    b = explicit_bounds(AsymptoticData(xi_in, eta_in))
    assert b.tm0 < b.tm_hat < b.t_half_lower < b.t0_lower


@given(eta_in=st.floats(min_value=-10.0, max_value=0.0), xi_in=xi_any)
def test_domain_errors_nonpositive_eta(eta_in, xi_in):
    a = AsymptoticData(xi_in, eta_in)
    for fn in (lambda: xi_subsolution(0.0, a),
               lambda: eta_first_iterate(0.0, a),
               lambda: xi_supersolution(0.0, a),
               lambda: explicit_bounds(a)):
        with pytest.raises(ValueError):
            fn()


def test_start_state_values_eta8():
    p = free_motion_expansion(-12.0, A08)
    w = math.exp(-24.0)
    assert math.isclose(p.eta, 8.0 - 0.125 * w, rel_tol=1e-15)
    assert math.isclose(p.eta_dot, -0.25 * w, rel_tol=1e-15)
    assert math.isclose(p.xi_dot, 1.0 - 4.0 * w, rel_tol=1e-15)
    assert math.isclose(p.xi, -12.0 - 2.0 * w, rel_tol=1e-15)


def test_start_state_free_limit():
    a = AsymptoticData(0.0, 8.0)
    p = free_motion_expansion(-40.0, a)
    assert math.isclose(p.xi, -40.0, rel_tol=1e-14)
    assert math.isclose(p.eta, 8.0, rel_tol=1e-15)
    assert math.isclose(p.xi_dot, 1.0, rel_tol=1e-15)
    assert abs(p.eta_dot) < 1e-34


def test_start_state_energy_at_representable_floor():
    # w = 1e-10: truncation drift is O(w^2) ~ 1e-20, below the float floor,
    # so the measured drift is pure rounding
    t_start = 0.5 * math.log(1e-10)
    p = free_motion_expansion(t_start, A08)
    assert abs(2.0 * energy(p) - 1.0) <= 1e-15


@pytest.mark.parametrize("t, xi_in, eta_in", [
    (-12.0, 0.0, 8.0), (-20.3, -0.7, 1.31), (-14.0, 0.0, -1.0), (-31.5, 0.4, 1e5)])
def test_free_motion_expansion_is_built_from_past_tails(t, xi_in, eta_in):
    a = AsymptoticData(xi_in, eta_in)
    w = math.exp(2.0 * (xi_in + t))
    P, Q = past_tails(t, a)
    assert (P, Q) == (0.5 * w, 0.25 * w)
    p = free_motion_expansion(t, a)
    assert p == PhasePoint(t, xi_in + t - eta_in * Q, eta_in - 0.5 * Q,
                           1.0 - eta_in * P, -0.5 * P)
    # the tails differ from w by powers of 2 only: the same bits as the
    # expansion written in w
    assert p == PhasePoint(t, xi_in + t - 0.25 * eta_in * w, eta_in - 0.125 * w,
                           1.0 - 0.5 * eta_in * w, -0.25 * w)


@pytest.mark.parametrize("xi_in", [0.0, -0.7])
def test_start_time_holds_the_expansion_parameter(xi_in):
    # eta_in*w at the start grows like eta_in^2 up to eta_in 64 and is held
    # at its eta_in 64 value, 2^15*exp(-28), above it
    def param(eta_in):
        a = AsymptoticData(xi_in, eta_in)
        return eta_in * math.exp(2.0 * (xi_in + start_time(a)))
    cap = 2.0**15 * math.exp(-28.0)
    assert math.isclose(param(64.0), cap, rel_tol=1e-12)
    assert math.isclose(param(8.0), 8.0 * 64.0 * math.exp(-28.0), rel_tol=1e-12)
    for eta_in in (64.0 * (1.0 + 1e-12), 1e3, 1e6, 1e12):
        assert math.isclose(param(eta_in), cap, rel_tol=1e-10)
    assert start_time(AsymptoticData(xi_in, -1.0)) == -xi_in - 14.0


def test_free_expansion_accepts_nonpositive_eta():
    p = free_motion_expansion(-14.0, AsymptoticData(0.0, -1.0))
    assert p.eta < 0.0 and p.xi_dot > 1.0  # repulsive branch speeds up


def test_t0_state_bounds_eta8():
    xi_up, xid_up, etad_lo = t0_state_bounds(A08)
    lc = math.log(math.cosh(math.log(8.0 / math.sqrt(2.0))))
    assert math.isclose(xi_up, -lc - math.log(2.0), rel_tol=1e-14)
    assert xid_up < 0.0
    assert math.isclose(xid_up, (-lc + 0.5 * math.log(2.0)) / math.log(8.0),
                        rel_tol=1e-14)
    assert -1.0 < etad_lo < 0.0


@pytest.mark.parametrize("eta_in", [8.0, 16.0, 32.0, 64.0])
def test_deflection_deep_law_remainder(eta_in):
    # next term of the law, measured: 0.351-0.357/eta_in^5
    theta = deflection_of(AsymptoticData(0.0, eta_in), SolverConfig())
    assert 0.0 <= theta - deflection_deep(eta_in) <= 0.4 / eta_in**5


def test_free_asymptote_is_the_limit_of_free_leg():
    # from an escape state with a potential that is not negligible, the free
    # leg converges to the line (p + v*s) at the rate e^{-lam s}
    y = (-1.5, -0.3, -0.2, -0.9)
    v_xi, p_xi, v_eta, p_eta = free_asymptote(y)
    assert abs(v_xi - y[1]) > 1e-3 and abs(p_eta - y[2]) > 1e-3
    xi, xi_dot, eta, eta_dot = free_leg(y, np.array([150.0]))
    assert abs(float(xi[0]) - (p_xi + 150.0 * v_xi)) <= 1e-12
    assert abs(float(eta[0]) - (p_eta + 150.0 * v_eta)) <= 1e-12
    assert float(xi_dot[0]) == pytest.approx(v_xi, rel=0, abs=1e-15)
    assert float(eta_dot[0]) == pytest.approx(v_eta, rel=0, abs=1e-15)
    # and the velocities are free_leg's limit: past the exponent floor
    # (lam*s >= 700) they no longer move
    s_far = 800.0 / (-2.0 * y[1])
    _, xi_dot, _, eta_dot = free_leg(y, s_far)
    assert abs(float(xi_dot) - v_xi) <= 1e-15 and abs(float(eta_dot) - v_eta) <= 1e-15
    far = free_leg(y, np.array([s_far, 10.0 * s_far]))
    assert far[1][0] == far[1][1] and far[3][0] == far[3][1]


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def test_free_leg_floor_changes_no_bit():
    # random escape states, s across lam*s = 680..780, where e^{-lam s}
    # turns subnormal (from 708) and then 0 (from 745), more coarsely from
    # 0, and far past the floor (lam*s = 1e6), as arrays and as scalars
    rng = np.random.default_rng(25)
    for _ in range(40):
        y = (rng.uniform(-8.0, -3.0), rng.uniform(-1.0, -0.05),
             rng.uniform(-40.0, 5.0), rng.uniform(-1.0, -0.01))
        lam = -2.0 * y[1]
        s = np.concatenate([[0.0], np.linspace(0.0, 680.0, 341) / lam,
                            np.linspace(680.0, 780.0, 1001) / lam,
                            np.sort(rng.uniform(680.0, 780.0, 200)) / lam, [1e6 / lam]])
        for got, want in zip(free_leg(y, s), free_leg_unfloored(y, s)):
            assert np.array_equal(_bits(got), _bits(want))
        for s0 in (0.0, 1e6 / lam):
            for got, want in zip(free_leg(y, s0), free_leg_unfloored(y, s0)):
                assert _bits(got) == _bits(want)
