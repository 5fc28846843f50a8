import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from curvscat import (AsymptoticData, asymptotic_fit,
                      curvature_area_quadrature, deflection, integrate,
                      integrator, pokhozaev_residual, theta_identities,
                      to_radial)
from curvscat.closed_forms import free_asymptote, past_tails
from curvscat.dynamics import EXP_FLOOR
from curvscat.geometry import ALPHA_SUP, FOUR_PI, TWO_PI, pde_residual, simpson
from curvscat.integrator import SolverConfig
from curvscat.verification import _potential_max

from _reference import (energy_unfloored, full_window, potential_max_unfloored,
                        quadrature_unfloored, scale_radial)

LN2_4 = 0.25 * math.log(2.0)


def test_radial_map_values(traj8, sol8):
    t, xi, eta, _, _ = traj8.window
    assert np.allclose(sol8.r_grid, np.exp(t), rtol=1e-15)
    assert np.allclose(sol8.u_values, xi - t - LN2_4, rtol=0, atol=1e-15)
    assert np.allclose(sol8.k_values, math.sqrt(2.0) * eta, rtol=1e-15)
    # spot value: the sample mapping at one node
    k = np.argmin(np.abs(t))
    assert math.isclose(sol8.u_values[k], xi[k] - t[k] - LN2_4,
                        rel_tol=1e-15)


def test_center_values(sol8):
    assert math.isclose(sol8.k_star, 8.0 * math.sqrt(2.0), rel_tol=1e-15)
    assert math.isclose(sol8.k_star, 11.313708, abs_tol=1e-6)


def test_k_sign_change_at_t0(traj8, sol8):
    r0 = math.exp(traj8.events.t0)
    below = sol8.r_grid < r0
    above = sol8.r_grid > r0
    assert np.all(sol8.k_values[below] > 0.0)
    assert np.all(sol8.k_values[above] < 0.0)


def test_monotone_decrease(sol8):
    assert np.all(np.diff(sol8.u_values) < 0.0)
    assert np.all(np.diff(sol8.k_values) < 0.0)


def test_k_max_extrapolates_to_center_value(sol8):
    k_max = float(np.max(sol8.k_values))
    assert k_max == sol8.k_values[0]
    assert abs(k_max - sol8.k_star) / sol8.k_star <= 1e-6


def test_ranges(sol8):
    assert TWO_PI < sol8.kappa < FOUR_PI
    assert 0.0 < sol8.alpha < ALPHA_SUP


def test_quadrature_matches_momentum_identities(traj8, sol8):
    theta = deflection(traj8)
    kap_id, al_id = theta_identities(theta)
    assert abs(sol8.kappa - kap_id) / kap_id <= 1e-3
    assert abs(sol8.alpha - al_id) / al_id <= 1e-3
    quad = curvature_area_quadrature(traj8)
    assert quad.kappa == sol8.kappa and quad.alpha == sol8.alpha


def test_alpha_equals_final_eta_dot_identity(traj8, sol8):
    # the area integral telescopes to -2*eta_dot(+inf)
    alpha_from_etadot = -2.0 * math.sqrt(2.0) * math.pi * float(traj8.eta_dot[-1])
    assert abs(sol8.alpha - alpha_from_etadot) / sol8.alpha <= 1e-6
    kappa_from_xidot = TWO_PI * (1.0 - float(traj8.xi_dot[-1]))
    assert abs(sol8.kappa - kappa_from_xidot) / sol8.kappa <= 1e-6


def test_theta_identity_values():
    kap, al = theta_identities(-0.75 * math.pi)
    assert math.isclose(kap, TWO_PI * (1.0 + math.sqrt(2.0) / 2.0), rel_tol=1e-15)
    assert math.isclose(kap, 10.726069, abs_tol=1e-6)
    assert math.isclose(al, TWO_PI, rel_tol=1e-14)
    assert abs(pokhozaev_residual(kap, al)) <= 1e-12
    # interval endpoints
    kap, al = theta_identities(-0.5 * math.pi - 1e-9)
    assert math.isclose(kap, TWO_PI, rel_tol=1e-8)
    assert math.isclose(al, ALPHA_SUP, rel_tol=1e-8)
    kap, al = theta_identities(-math.pi + 1e-9)
    assert math.isclose(kap, FOUR_PI, rel_tol=1e-8)
    assert al <= 1e-8


@given(theta=st.floats(min_value=-math.pi + 1e-6,
                       max_value=-0.5 * math.pi - 1e-6))
def test_theta_identities_satisfy_pokhozaev(theta):
    kap, al = theta_identities(theta)
    assert abs(pokhozaev_residual(kap, al)) <= 1e-11
    assert TWO_PI <= kap <= FOUR_PI
    assert 0.0 <= al <= ALPHA_SUP


def test_theta_identities_domain():
    for bad in (-0.4 * math.pi, -1.01 * math.pi, 0.0, 2.0):
        with pytest.raises(ValueError):
            theta_identities(bad)


def test_pokhozaev_residual_values():
    assert abs(pokhozaev_residual(3.0 * math.pi, math.pi * math.sqrt(6.0))) <= 1e-12
    assert abs(pokhozaev_residual(TWO_PI, ALPHA_SUP)) <= 1e-12
    expected = 64.0 - 6.0 * math.pi**2
    assert math.isclose(pokhozaev_residual(3.0 * math.pi, 8.0), expected,
                        rel_tol=1e-14)


def test_pde_residual_second_order(cfg):
    res = []
    for h in (0.04, 0.02):
        c = replace(cfg, dense_step=h, rel_tol=1e-12)
        sol = to_radial(integrate(AsymptoticData(0.0, 8.0), c))
        res.append(pde_residual(sol))
    for i in range(2):
        ratio = res[0][i] / res[1][i]
        assert 3.0 < ratio < 5.5


def test_pde_residual_spike_on_corruption(sol8):
    u = sol8.u_values.copy()
    j = len(u) // 2
    u[j] += 1e-3
    bad = replace(sol8, u_values=u)
    h = math.log(sol8.r_grid[1] / sol8.r_grid[0])
    res_u, _ = pde_residual(bad)
    assert res_u >= 0.5 * 1e-3 / h**2


def test_pde_residual_grid_checks(sol8):
    with pytest.raises(ValueError, match="5 points"):
        pde_residual(replace(sol8, r_grid=sol8.r_grid[:4],
                             u_values=sol8.u_values[:4],
                             k_values=sol8.k_values[:4]))
    r = sol8.r_grid.copy()
    r[3] *= 1.5
    with pytest.raises(ValueError, match="log-uniform"):
        pde_residual(replace(sol8, r_grid=r))


def test_pde_residual_takes_each_run_of_a_gapped_grid(traj8, sol8):
    # at eta_in 8 the window has a gap: radial data is log-uniform within
    # each of its two runs, and the residual is the larger of theirs
    assert traj8.gap is not None
    n = int(np.searchsorted(sol8.r_grid, math.exp(traj8.gap[0]), side="right"))
    runs = [replace(sol8, r_grid=sol8.r_grid[part], u_values=sol8.u_values[part],
                    k_values=sol8.k_values[part])
            for part in (slice(None, n), slice(n, None))]
    assert all(len(run.r_grid) >= 5 for run in runs)
    res = [pde_residual(run) for run in runs]
    assert pde_residual(sol8) == (max(r[0] for r in res), max(r[1] for r in res))
    # a corruption just after the gap is seen; a run of two points is refused
    u = sol8.u_values.copy()
    u[n + 1] += 1e-3
    assert pde_residual(replace(sol8, u_values=u))[0] >= 1.0
    short = replace(sol8, r_grid=sol8.r_grid[:n + 2], u_values=sol8.u_values[:n + 2],
                    k_values=sol8.k_values[:n + 2])
    with pytest.raises(ValueError, match="at least 3 points"):
        pde_residual(short)


def test_subsolution_solves_modified_equation():
    # the closed-form envelope solves xi'' = -eta_in e^{2 xi}; second
    # differences converge at O(h^2)
    from curvscat import xi_subsolution
    a = AsymptoticData(0.0, 8.0)
    for h, bound in ((1e-2, None), (5e-3, None)):
        t = np.arange(-6.0, 2.0 + h / 2, h)
        xi = xi_subsolution(t, a)
        d2 = (xi[2:] - 2 * xi[1:-1] + xi[:-2]) / h**2
        res = np.max(np.abs(d2 + 8.0 * np.exp(2.0 * xi[1:-1])))
        assert res <= 2.0 * h**2


def test_asymptotic_fit_slopes(traj8, sol8):
    fit = asymptotic_fit(traj8)
    assert abs(fit.u_slope + sol8.kappa / TWO_PI) <= 1e-3 * sol8.kappa / TWO_PI
    assert abs(fit.k_slope + sol8.alpha / TWO_PI) <= 1e-3 * sol8.alpha / TWO_PI
    # the samples span well over two decades beyond the K zero
    assert math.log10(float(sol8.r_grid[-1])) - math.log10(math.exp(traj8.events.t0)) > 2.0


@pytest.mark.parametrize("eta_in", [1.31, 1.6, 3.0, 8.0, 23.9])
def test_tail_slopes_match_quadrature(cfg, eta_in):
    # the free leg's outgoing line against the independent quadrature; a
    # least-squares fit over the last 30% of the grid misses -kappa/(2 pi)
    # by 1.9e-6 relative at eta_in 1.31, where the motion in it is not yet free
    traj = integrate(AsymptoticData(0.0, eta_in), cfg)
    sol = to_radial(traj)
    fit = asymptotic_fit(traj)
    assert abs(fit.u_slope + sol.kappa / TWO_PI) <= 1e-9 * sol.kappa / TWO_PI
    assert abs(fit.k_slope + sol.alpha / TWO_PI) <= 1e-9 * sol.alpha / TWO_PI


@pytest.mark.parametrize("eta_in", [6.0, 8.0, 12.0, 20.0])
def test_tail_lines_through_samples_past_t0(cfg, eta_in):
    # the data past the eta = 0 crossing lie on the closed-form lines
    traj = integrate(AsymptoticData(0.0, eta_in), cfg)
    fit = asymptotic_fit(traj)
    t, xi, eta, _, _ = traj.window
    m = t >= traj.events.t0
    t = t[m]
    u = xi[m] - t - LN2_4
    K = math.sqrt(2.0) * eta[m]
    assert np.max(np.abs(u - (fit.u_slope * t + fit.u_intercept))) <= 1e-12
    assert np.max(np.abs(K - (fit.k_slope * t + fit.k_intercept))) <= 1e-12


def test_asymptotic_fit_requires_escape(cfg):
    traj = integrate(AsymptoticData(0.0, 1.0), cfg)
    with pytest.raises(ValueError, match="escaped"):
        asymptotic_fit(traj)


def test_fit_on_exact_linear_tail():
    # a free state, whose potential e^{2 xi} underflows: its line is the
    # state's own, and the u slope is exactly cos(theta) - 1
    theta = -0.75 * math.pi
    y = (-400.0, math.cos(theta), 0.3, math.sin(theta))
    v_xi, p_xi, v_eta, p_eta = free_asymptote(y)
    assert v_xi - 1.0 == math.cos(theta) - 1.0
    assert math.sqrt(2.0) * v_eta == math.sqrt(2.0) * math.sin(theta)
    assert (p_xi, p_eta) == (-400.0, 0.3)


def test_scaling_covariance(traj8, sol8):
    # r -> r/k is the time translation t -> t - ln k of the run, which
    # carries the asymptotic echo xi_in + ln k
    a = traj8.asymptotics
    for k in (3.7, 0.2):
        scaled = scale_radial(sol8, k)
        assert np.all(np.diff(scaled.u_values) < 0.0)
        moved = replace(traj8, t=traj8.t - math.log(k),
                        asymptotics=AsymptoticData(a.xi_in + math.log(k), a.eta_in))
        t, xi, _, _, _ = moved.window
        assert np.allclose(scaled.r_grid, np.exp(t), rtol=1e-14)
        assert np.allclose(scaled.u_values, xi - t - LN2_4, rtol=0, atol=1e-12)
        quad = curvature_area_quadrature(moved)
        assert abs(quad.kappa - sol8.kappa) / sol8.kappa <= 1e-9
        assert abs(quad.alpha - sol8.alpha) / sol8.alpha <= 1e-9


@pytest.mark.parametrize("eta_in", [1.31, 8.0, 20.0])
def test_quadrature_future_tail_is_momentum_balance(eta_in, cfg):
    # after any last sample T the tail is the velocity change from T to the
    # escape state's limit, so cutting the window, even before the xi
    # maximum where xi still rises, leaves kappa and alpha in place
    traj = integrate(AsymptoticData(0.0, eta_in), cfg)
    full = curvature_area_quadrature(traj)
    for t_cut in (traj.events.t_m - 1.0, traj.events.t0):
        n = int(np.searchsorted(traj.t, t_cut))
        cut = replace(traj, t=traj.t[:n], xi=traj.xi[:n], eta=traj.eta[:n],
                      xi_dot=traj.xi_dot[:n], eta_dot=traj.eta_dot[:n],
                      off_grid=tuple(k for k in traj.off_grid if k < n))
        quad = curvature_area_quadrature(cut)
        assert abs(quad.kappa - full.kappa) <= 1e-8 * full.kappa, t_cut
        assert abs(quad.alpha - full.alpha) <= 1e-8 * full.alpha, t_cut


def test_quadrature_of_a_one_sample_window(cfg):
    # a window of one regular sample adds nothing to the two tails
    traj = integrate(AsymptoticData(0.0, 8.0), replace(cfg, dense_step=1000.0))
    t, _, _, xi_dot, eta_dot = traj.window
    assert traj.escaped and len(t) == 1
    area_past, _ = past_tails(float(t[0]), traj.asymptotics)
    e = traj.events.escape
    v_xi, _, v_eta, _ = free_asymptote((e.xi, e.xi_dot, e.eta, e.eta_dot))
    quad = curvature_area_quadrature(traj)
    assert math.isclose(quad.kappa, TWO_PI * (8.0 * area_past + float(xi_dot[0]) - v_xi),
                        rel_tol=1e-15)
    assert math.isclose(quad.alpha, math.sqrt(2.0) * math.pi
                        * (area_past + 2.0 * (float(eta_dot[0]) - v_eta)), rel_tol=1e-15)


def test_quadrature_requires_escape(cfg):
    traj = integrate(AsymptoticData(0.0, 1.0), cfg)
    with pytest.raises(ValueError, match="escaped"):
        curvature_area_quadrature(traj)


@pytest.mark.parametrize("xi_in, end", [(800.0, -708.396), (-800.0, 709.783)])
def test_to_radial_refuses_r_that_is_no_normal_double(cfg, xi_in, end):
    # a run at xi_in samples t near -xi_in, where r = exp(t) underflows
    # (800) or overflows (-800): refused, pointing to ln r storage
    traj = integrate(AsymptoticData(xi_in, 8.0), cfg)
    assert traj.escaped
    with pytest.raises(ValueError, match=rf"leaves \[-708.396, 709.783\].*"
                                         r"\(ROADMAP item 5\)$") as e:
        to_radial(traj)
    assert (traj.t[0] < end) if xi_in > 0 else (traj.t[-1] > end)
    assert f"{end}" in str(e.value)


def test_to_radial_requires_escape(cfg):
    traj = integrate(AsymptoticData(0.0, -1.0), cfg)
    with pytest.raises(ValueError, match="escaped"):
        to_radial(traj)


@pytest.mark.parametrize("eta_in, dense_step", [(1.5, 1e-4), (8.0, 1e-4), (1.5, 2e-4)])
def test_to_radial_takes_samples_flat_to_roundoff(cfg, eta_in, dense_step):
    # near the start eta_in*e^{2t} is below the rounding of xi - t, so
    # neighbouring samples of u and K can be equal on a fine grid
    a = AsymptoticData(0.0, eta_in)
    fine = to_radial(integrate(a, replace(cfg, dense_step=dense_step)))
    assert abs(fine.kappa - to_radial(integrate(a, cfg)).kappa) <= 1e-8


@pytest.mark.parametrize("name, field", [("u", "xi"), ("K", "eta")])
def test_to_radial_rejects_a_rise(traj8, name, field):
    v = getattr(traj8, field).copy()
    v[len(v) // 2] += 0.1
    with pytest.raises(ValueError, match=f"{name} must decrease in r, but rises"):
        to_radial(replace(traj8, **{field: v}))


def test_asymptotic_fit_intercepts_match_moment_integrals(traj8, sol8):
    # the tail lines extrapolate back to the center values plus the
    # log-weighted moments of the curvature and area densities:
    #   u-intercept = u(0) + I[t * eta * e^{2 xi}]
    #   K-intercept = K(0) + I[t * e^{2 xi}] / sqrt(2)
    from scipy.integrate import simpson
    t, xi, eta, _, _ = traj8.window
    w = np.exp(2.0 * xi)
    fit = asymptotic_fit(traj8)
    u_pred = traj8.asymptotics.xi_in - LN2_4 + simpson(t * eta * w, x=t)
    k_pred = sol8.k_star + simpson(t * w, x=t) / math.sqrt(2.0)
    assert abs(fit.u_intercept - u_pred) <= 1e-3 * abs(u_pred)
    assert abs(fit.k_intercept - k_pred) <= 1e-3 * abs(k_pred)


@pytest.mark.parametrize("xi_in", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("eta_in", [19.0, 21.0, 23.5, 30.0])
def test_floored_exponentials_change_no_bit(eta_in, xi_in, cfg):
    # escaped windows whose regular samples, the gap's included, reach
    # 2*xi < EXP_FLOOR: on them and on the gapped window integrate returns,
    # the energy, the quadrature and the forbidden-zone maximum equal their
    # unfloored forms to the bit
    traj = integrate(AsymptoticData(xi_in, eta_in), cfg)
    full = full_window(traj)
    assert traj.escaped and np.any(2.0 * full.window[1] < EXP_FLOOR)
    for run in (traj, full):
        got = run.energy
        want = energy_unfloored(run.xi, run.eta, run.xi_dot, run.eta_dot)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert _potential_max(run) == potential_max_unfloored(run)
    quad = curvature_area_quadrature(traj)
    kappa, alpha = quadrature_unfloored(traj)
    assert (quad.kappa, quad.alpha) == (kappa, alpha)


# (degree, p, its integral from 0): 2x^3 - x^2 + 3x - 1 and its truncations
_POLYS = [
    (3, lambda x: 2 * x**3 - x**2 + 3 * x - 1, lambda x: x**4 / 2 - x**3 / 3 + 1.5 * x**2 - x),
    (2, lambda x: -x**2 + 3 * x - 1, lambda x: -x**3 / 3 + 1.5 * x**2 - x),
    (1, lambda x: 3 * x - 1, lambda x: 1.5 * x**2 - x),
]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 100, 101])
def test_simpson_exact_for_polynomials(n):
    # Simpson's rule is exact for cubics; with an even count Cartwright's
    # end term, the parabola through the last three samples, is exact for
    # quadratics, and two samples (the trapezoid) for lines
    h = 0.37
    x = h * np.arange(n)
    exact_to = 1 if n == 2 else 3 if n % 2 else 2
    for degree, p, integral in _POLYS:
        got, want = simpson(p(x), h), integral(x[-1])
        if degree <= exact_to:
            assert abs(got - want) <= 1e-14 * abs(want), (n, degree)
        else:
            assert abs(got - want) > 1e-10 * abs(want), (n, degree)


@pytest.mark.parametrize("n", [*range(2, 12), 100, 101, 1000, 1001])
def test_simpson_matches_scipy_on_uniform_grids(n):
    from scipy.integrate import simpson as scipy_simpson
    rng = np.random.default_rng(n)
    for h in (0.01, 0.013, 1.0):
        y = rng.standard_normal(n) * np.exp(rng.uniform(-5.0, 5.0, n))
        ulp = np.finfo(float).eps * h * float(np.sum(np.abs(y)))
        assert abs(simpson(y, h) - float(scipy_simpson(y, dx=h))) <= 4.0 * ulp, h


@pytest.mark.parametrize("dense_step", [0.01, 0.013])
@pytest.mark.parametrize("eta_in", [1.31, 8.0, 21.0])
def test_quadrature_matches_the_irregular_rule(eta_in, dense_step):
    # the fixed weights against scipy's irregular-grid rule on the window's
    # own t, whose spacings differ from h by round-off
    traj = integrate(AsymptoticData(0.0, eta_in), SolverConfig(dense_step=dense_step))
    quad = curvature_area_quadrature(traj)
    kappa, alpha = quadrature_unfloored(traj, irregular=True)
    assert abs(quad.kappa - kappa) <= 1e-15 * kappa
    assert abs(quad.alpha - alpha) <= 1e-15 * alpha


@pytest.mark.parametrize("eta_in", [1.2999, 1.31, 8.0])
def test_fit_does_not_depend_on_the_window(eta_in, monkeypatch):
    # the tail lines are read at the escape state, which no window constant
    # moves
    a = AsymptoticData(0.0, eta_in)
    fit = asymptotic_fit(integrate(a, SolverConfig()))
    for name, value in (("TAIL_PAD", 30.0), ("MIN_TAIL", 40.0)):
        with monkeypatch.context() as m:
            m.setattr(integrator, name, value)
            assert asymptotic_fit(integrate(a, SolverConfig())) == fit, name
