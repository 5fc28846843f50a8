import math

import pytest
from hypothesis import given, strategies as st

from curvscat import PhasePoint, taylor

from _reference import Zone, energy, in_forbidden_zone

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
small = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def rhs(t, y):
    """The right-hand side as the stepper takes it: the order-1 Taylor
    coefficients its kernel makes at state y, stepping from t."""
    coeffs = taylor.kernel()(*y, math.exp(2.0 * y[0]), t, t + 1.0)[-1]
    return tuple(coeffs[k * (taylor.ORDER + 1) + 1] for k in range(4))


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
