import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from curvscat import PhasePoint
from curvscat.dynamics import (GAUGE_LOAD, Homologous, TimeReverse,
                               TimeTranslate, apply_symmetry, transform_point)
from curvscat.integrator import _SOLVER

from _reference import Zone, energy, in_forbidden_zone

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
small = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)

# the right-hand side as the stepper compiles it from dynamics.RHS_SOURCE
rhs = _SOLVER.functions.fun


def test_gauge_load_fixed():
    assert GAUGE_LOAD == 1.0


# states p in solver order (xi, xi_dot, eta, eta_dot)
@pytest.mark.parametrize("p, acc", [
    ((0.0, 0.0, 1.0, 0.0), (-1.0, -0.5)),
    ((-10.0, 1.0, 5.0, 0.0),
     (-5.0 * math.exp(-20.0), -0.5 * math.exp(-20.0))),
    ((0.5 * math.log(2.0), 0.0, -1.0, 0.0), (2.0, -1.0)),
])
def test_rhs_values(p, acc):
    dxi, dxidot, deta, detadot = rhs(0.0, p)
    assert dxi == p[1] and deta == p[3]
    assert math.isclose(dxidot, acc[0], rel_tol=1e-14)
    assert math.isclose(detadot, acc[1], rel_tol=1e-14)


@given(xi=small, eta=small, xd=small, ed=small, t1=finite, t2=finite)
def test_rhs_autonomous(xi, eta, xd, ed, t1, t2):
    r1 = rhs(t1, (xi, xd, eta, ed))
    r2 = rhs(t2, (xi, xd, eta, ed))
    assert r1 == r2


def test_energy_values():
    assert energy(PhasePoint(0.0, 0.0, 1.0, 0.0, 0.0)) == 0.5
    assert math.isclose(energy(PhasePoint(0.0, 0.0, 0.5, 0.6, -0.4)), 0.51,
                        rel_tol=1e-15)
    # free asymptotic limit state: potential off, unit inbound speed
    p = PhasePoint(-40.0, -40.0, 8.0, 1.0, 0.0)
    assert math.isclose(energy(p), 0.5, rel_tol=1e-12)


def test_forbidden_zone_examples():
    assert in_forbidden_zone(0.0, 2.0) is Zone.FORBIDDEN
    assert in_forbidden_zone(0.0, 0.5) is Zone.ALLOWED
    assert in_forbidden_zone(-1.0, math.exp(2.0)) is Zone.BOUNDARY


def test_forbidden_zone_band_is_the_constant():
    # the band half-width is dynamics.BOUNDARY_TOL, not a per-call option
    from curvscat.dynamics import BOUNDARY_TOL
    assert in_forbidden_zone(0.0, 1.0 + 0.5 * BOUNDARY_TOL) is Zone.BOUNDARY
    assert in_forbidden_zone(0.0, 1.0 + 2.0 * BOUNDARY_TOL) is Zone.FORBIDDEN
    with pytest.raises(TypeError):
        in_forbidden_zone(0.0, 1.0, boundary_tol=1e-3)


@given(xi=small, eta=small)
def test_forbidden_zone_consistency(xi, eta):
    q = eta * math.exp(2.0 * xi)
    z = in_forbidden_zone(xi, eta)
    if abs(q - 1.0) <= 1e-9:
        assert z is Zone.BOUNDARY
    elif q > 1.0:
        assert z is Zone.FORBIDDEN
    else:
        assert z is Zone.ALLOWED


@given(t=finite, xi=small, eta=small, xd=small, ed=small)
def test_point_time_reverse_involution(t, xi, eta, xd, ed):
    p = PhasePoint(t, xi, eta, xd, ed)
    assert transform_point(transform_point(p, TimeReverse()), TimeReverse()) == p


@given(t=finite, xi=small, eta=small, xd=small, ed=small,
       xi_h=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
def test_point_homologous_energy_scaling(t, xi, eta, xd, ed, xi_h):
    p = PhasePoint(t, xi, eta, xd, ed)
    q = transform_point(p, Homologous(xi_h))
    assert math.isclose(energy(q), math.exp(2.0 * xi_h) * energy(p),
                        rel_tol=1e-12, abs_tol=1e-12)


@given(t=finite, xi=small, eta=small, xd=small, ed=small, t0=finite)
def test_point_translate_preserves_energy(t, xi, eta, xd, ed, t0):
    p = PhasePoint(t, xi, eta, xd, ed)
    q = transform_point(p, TimeTranslate(t0))
    assert q.t == t + t0
    assert energy(q) == energy(p)


def test_trajectory_time_reverse_bit_exact_roundtrip(traj8):
    back = apply_symmetry(apply_symmetry(traj8, TimeReverse()), TimeReverse())
    for name in ("t", "xi", "eta", "xi_dot", "eta_dot"):
        assert np.array_equal(getattr(back, name), getattr(traj8, name))
    assert back.events.t0 == traj8.events.t0
    assert back.events.t_m == traj8.events.t_m


def test_trajectory_reverse_flips_velocities(traj8):
    rev = apply_symmetry(traj8, TimeReverse())
    assert np.array_equal(rev.t, -traj8.t[::-1])
    assert np.array_equal(rev.xi_dot, -traj8.xi_dot[::-1])
    assert np.array_equal(rev.eta, traj8.eta[::-1])
    # energies of every sample unchanged
    assert np.array_equal(np.sort(rev.energy), np.sort(traj8.energy))


def test_trajectory_reverse_reverses_the_window(traj8):
    rev = apply_symmetry(traj8, TimeReverse())
    assert rev.off_grid == tuple(sorted(len(traj8) - 1 - k for k in traj8.off_grid))
    for got, want, sign in zip(rev.window, traj8.window, (-1.0, 1.0, 1.0, -1.0, -1.0)):
        assert np.array_equal(got, sign * want[::-1])


def test_trajectory_homologous_energy_rescaling(traj8):
    xi_h = -0.1
    tr = apply_symmetry(traj8, Homologous(xi_h))
    scale = math.exp(2.0 * xi_h)
    ratio = tr.energy / (scale * traj8.energy)
    assert np.max(np.abs(ratio - 1.0)) <= 1e-10
    # the mapped drift is measured from E = 1/2, not rescaled
    assert math.isclose(tr.max_energy_drift, abs(scale - 1.0), rel_tol=1e-6)
    assert np.max(np.abs(tr.t * math.exp(xi_h) - traj8.t)) < 1e-9


def test_trajectory_translate_preserves_energy(traj8):
    tr = apply_symmetry(traj8, TimeTranslate(2.5))
    assert np.array_equal(tr.energy, traj8.energy)
    assert math.isclose(tr.events.t0, traj8.events.t0 + 2.5, rel_tol=0, abs_tol=1e-12)
