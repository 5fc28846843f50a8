import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from curvscat import (GradientFlowState, gradient_flow_run,
                      inflection_diagnostics)
from curvscat.analysis import g_values, potential_gradient

from _reference import estimate_delta0, linearization_spectrum, spectrum_along

moderate = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


def test_spectrum_factorization_example():
    s = linearization_spectrum(0.0, 0.0, 0.0)
    assert math.isclose(s.mu_plus, 1.0, rel_tol=1e-15)
    assert math.isclose(s.mu_minus, -1.0, rel_tol=1e-15)
    assert math.isclose(s.lambda_real, 1.0, rel_tol=1e-15)
    assert math.isclose(s.lambda_imag, 1.0, rel_tol=1e-15)


def test_spectrum_quadratic_example():
    s = linearization_spectrum(0.0, 1.5, 0.0)
    assert math.isclose(s.mu_plus, (-3.0 + math.sqrt(13.0)) / 2.0, rel_tol=1e-14)
    assert math.isclose(s.mu_minus, (-3.0 - math.sqrt(13.0)) / 2.0, rel_tol=1e-14)
    assert math.isclose(s.lambda_real, 0.550251, abs_tol=1e-6)
    assert math.isclose(s.lambda_imag, 1.817354, abs_tol=1e-6)


@given(xi1=moderate, eta2=moderate, phi=moderate)
def test_spectrum_signs_and_vieta(xi1, eta2, phi):
    s = linearization_spectrum(xi1, eta2, phi)
    assert s.mu_plus > 0.0 > s.mu_minus
    c = math.exp(2.0 * (xi1 - phi))
    assert abs(s.nu_plus * s.nu_minus + c) <= 1e-12 * c
    # the polynomial itself is satisfied by both roots, relative to its
    # largest term
    for mu in (s.mu_plus, s.mu_minus):
        t1 = mu * mu
        t2 = 2.0 * eta2 * math.exp(2.0 * phi) * mu
        t3 = math.exp(2.0 * phi + 2.0 * xi1)
        scale = max(abs(t1), abs(t2), abs(t3))
        assert abs(t1 + t2 - t3) <= 1e-12 * scale
    assert math.isclose(s.lambda_real**2, s.mu_plus, rel_tol=1e-12)
    assert math.isclose(s.lambda_imag**2, -s.mu_minus, rel_tol=1e-12)


def test_spectrum_along_trajectory(traj8):
    samples = spectrum_along(traj8)
    assert len(samples) == len(traj8)
    for s in samples:
        assert s.mu_plus > 0.0 > s.mu_minus
        # self-linearization: xi1 = phi, so the factored product is exactly -1
        assert abs(s.nu_plus * s.nu_minus + 1.0) <= 1e-12


def test_spectrum_past_decay(traj8):
    # real eigenvalue decays like e^{xi_in + t} toward the past
    early = traj8.t <= traj8.t[0] + 2.0
    lam = np.array([linearization_spectrum(x, e, x).lambda_real
                    for x, e in zip(traj8.xi[early], traj8.eta[early])])
    t = traj8.t[early]
    slope = np.polyfit(t, np.log(lam), 1)[0]
    assert abs(slope - 1.0) < 1e-3
    growth = np.exp(0.0 + t)  # xi_in = 0
    c = lam[0] / growth[0]
    assert np.all(lam <= 2.0 * c * growth)


def test_spectrum_time_reverse_invariant(traj8):
    rev = replace(traj8, t=-traj8.t[::-1], xi=traj8.xi[::-1], eta=traj8.eta[::-1],
                  xi_dot=-traj8.xi_dot[::-1], eta_dot=-traj8.eta_dot[::-1])
    s_fwd = spectrum_along(traj8)
    s_rev = spectrum_along(rev)
    assert math.isclose(s_fwd[0].lambda_real, s_rev[-1].lambda_real, rel_tol=1e-15)
    assert math.isclose(s_fwd[-1].mu_minus, s_rev[0].mu_minus, rel_tol=1e-15)


# --- gradient flow -----------------------------------------------------------


def test_flow_zero_coupling_fixed_at_anchor():
    s = GradientFlowState(-0.6, delta=0.0)
    res = gradient_flow_run(s)
    assert res.converged and res.stayed_in_quadrant
    assert res.iterations == 0
    assert res.fixed_point == (-0.6, -0.8)


def test_flow_near_tangent_anchor_first_order_prediction():
    mu0 = -(1.0 - 1e-6)
    s = GradientFlowState(mu0, delta=1e-4, epsilon=0.1)
    res = gradient_flow_run(s, tol=1e-12)
    assert res.converged and res.stayed_in_quadrant
    mu_m, nu_m = res.fixed_point
    assert mu_m > s.mu0 and nu_m < s.nu0
    pred_mu = s.mu0 - s.delta * s.nu0 / s.mu0**2
    pred_nu = s.nu0 + s.delta / s.mu0
    assert abs(mu_m - pred_mu) <= 1e-7
    assert abs(nu_m - pred_nu) <= 1e-7
    # stationarity of the potential at the fixed point
    gmu, gnu = potential_gradient(s, mu_m, nu_m)
    assert math.hypot(gmu, gnu) <= 1e-12


def test_flow_gradient_on_nu0_edge():
    s = GradientFlowState(-0.7, delta=1e-3)
    for mu in (-0.2, -0.7, -3.0):
        _, gnu = potential_gradient(s, mu, s.nu0)
        # the descent direction's nu component on the edge is delta/mu < 0
        assert math.isclose(-gnu, s.delta / mu, rel_tol=1e-15)
        assert -gnu < 0.0


def test_flow_large_coupling_exits_quadrant():
    s = GradientFlowState(-0.1, delta=1.0)
    res = gradient_flow_run(s, max_iter=10000)
    assert not res.stayed_in_quadrant
    assert not res.converged


def test_flow_budget_ends_on_the_last_tested_iterate():
    # a run that reaches max_iter reports the last iterate it tested, the
    # last history row, not the untested step after it
    s = GradientFlowState(-0.7, delta=1e-4)
    res = gradient_flow_run(s, max_iter=2)
    assert not res.converged and res.stayed_in_quadrant
    assert res.iterations == 2 and len(res.history) == 3
    assert (*res.fixed_point, res.grad_norm) == res.history[-1]
    assert math.hypot(*potential_gradient(s, *res.fixed_point)) == res.grad_norm
    with pytest.raises(ValueError, match="max_iter"):
        gradient_flow_run(s, max_iter=-1)


@given(mu0=st.floats(min_value=-0.999, max_value=-0.2))
def test_flow_small_coupling_heuristic_converges(mu0):
    delta = 1e-3 * abs(mu0)**3
    s = GradientFlowState(mu0, delta=delta)
    res = gradient_flow_run(s, tol=1e-10)
    assert res.converged and res.stayed_in_quadrant
    assert res.fixed_point[0] < 0.0 and res.fixed_point[1] < 0.0


def test_estimate_delta0_brackets_the_exit():
    d0 = estimate_delta0(-0.5)
    assert d0 > 0.0
    s_ok = GradientFlowState(-0.5, delta=0.5 * d0)
    assert gradient_flow_run(s_ok).stayed_in_quadrant
    s_bad = GradientFlowState(-0.5, delta=2.0 * d0)
    r = gradient_flow_run(s_bad)
    assert not (r.stayed_in_quadrant and r.converged)


def test_flow_state_validation():
    # the anchor lies on the unit circle in the open quadrant: one check of
    # mu0 covers both, and names the flag given
    for mu0 in (-1.5, -1.0, 0.0, 0.5, math.nan):
        with pytest.raises(ValueError, match=r"mu0 must lie in \(-1, 0\)"):
            GradientFlowState(mu0, delta=1e-4)
    with pytest.raises(ValueError, match="delta"):
        GradientFlowState(-0.6, delta=-1.0)
    with pytest.raises(ValueError, match="epsilon"):
        GradientFlowState(-0.6, delta=0.0, epsilon=1.0)


def test_flow_state_holds_only_its_inputs():
    assert [f.name for f in fields(GradientFlowState)] == ["mu0", "delta", "epsilon"]
    for mu0 in (-0.6, -0.7, -0.999, -(1.0 - 1e-6)):
        s = GradientFlowState(mu0, delta=1e-4)
        assert s.nu0 == -math.sqrt(1.0 - mu0 * mu0)
        # the run starts at the anchor
        assert gradient_flow_run(s, max_iter=0).history[0][:2] == (mu0, s.nu0)


def test_potential_value_matches_definition():
    def potential_value(s, mu, nu):
        """W(mu, nu) for the state's anchor and coupling."""
        return 0.5 * ((mu - s.mu0) ** 2 + (nu - s.nu0) ** 2) - s.delta * nu / mu

    s = GradientFlowState(-0.6, delta=2e-3)
    w = potential_value(s, -1.0, -2.0)
    assert math.isclose(w, 0.5 * ((-1 + 0.6)**2 + (-2 + 0.8)**2) - 2e-3 * 2.0,
                        rel_tol=1e-15)


# --- inflection diagnostics ---------------------------------------------------


def test_g_starts_at_one_and_decreases(traj8):
    g = g_values(traj8)
    assert abs(g[0] - 1.0) <= 1e-6
    assert np.max(np.diff(g)) <= 1e-9


def test_inflection_unique_crossing(traj8):
    rep = inflection_diagnostics(traj8)
    g = g_values(traj8)
    crossings = np.sum((g[:-1] > 0.0) & (g[1:] <= 0.0))
    assert crossings == 1
    assert rep.eta_sim < 8.0
    assert rep.sign_pattern_ok


def test_inflection_report_counts_crossings_and_rise(trio):
    # crossings counts sign changes of g either way, max_rise is the
    # largest increase of g between samples
    for traj in trio:
        rep = inflection_diagnostics(traj)
        g = g_values(traj)
        assert rep.crossings == int(np.sum((g[:-1] > 0.0) & (g[1:] <= 0.0))
                                    + np.sum((g[:-1] < 0.0) & (g[1:] >= 0.0))) == 1
        assert type(rep.crossings) is int
        assert rep.max_rise == float(np.max(np.diff(g))) <= 1e-9


def test_inflection_pattern_where_exp_underflows(cfg):
    # long run: e^{2 xi} underflows to 0 on late samples, which must not
    # hide the sign of f'' = e^{2 xi} g / (2 eta_dot^3)
    from curvscat import AsymptoticData, integrate
    traj = integrate(AsymptoticData(0.0, 20.0), cfg)
    assert np.any(np.exp(2.0 * traj.xi) == 0.0)
    assert inflection_diagnostics(traj).sign_pattern_ok


def test_inflection_requires_crossing(trio):
    import dataclasses
    traj = trio[1]
    # truncate far before the crossing: diagnostics must refuse, not invent
    keep = traj.t < traj.events.t_m
    short = dataclasses.replace(
        traj, t=traj.t[keep], xi=traj.xi[keep], eta=traj.eta[keep],
        xi_dot=traj.xi_dot[keep], eta_dot=traj.eta_dot[keep],
        off_grid=tuple(k for k in traj.off_grid if keep[k]))
    with pytest.raises(ValueError, match="no sign change"):
        inflection_diagnostics(short)
