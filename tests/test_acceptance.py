"""Acceptance criteria, one test per criterion, each printing a status line.

Shared heavy artifacts (the eta_in trio at rel_tol 1e-10 and the 9-angle
sweep at root_tol 1e-8) come from session fixtures in conftest.
"""

import math
from dataclasses import replace

import numpy as np

from curvscat import (AsymptoticData, NotConvergedError, Outcome,
                      asymptotic_fit, deflection, deflection_of,
                      explicit_bounds, integrate, iterate_past,
                      monotonicity_report, shoot, theta_identities, to_radial,
                      xi_subsolution, xi_supersolution)
from curvscat.analysis import GradientFlowState, g_values, gradient_flow_run
from curvscat.closed_forms import ETA_CRIT_UPPER
from curvscat.geometry import pde_residual

from _reference import (ORACLE_THETA_ETA8, eta_first_iterate, final_residual,
                        spectrum_along)

PI = math.pi
_16PI2 = 16.0 * PI**2


def _report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def test_01_energy_conservation(trio):
    worst = max(t.max_energy_drift for t in trio)
    _report("01 energy-conservation", worst <= 1e-8, f"max |2E-1| = {worst:.3e}")


def test_02_pokhozaev_identity_sweep(sweep9):
    worst_pok = worst_kap = worst_al = 0.0
    for r in sweep9:
        worst_pok = max(worst_pok, abs(r.pokhozaev_residual) / _16PI2)
        kap_id, al_id = theta_identities(r.theta)
        worst_kap = max(worst_kap, abs(r.kappa - kap_id) / r.kappa)
        worst_al = max(worst_al, abs(r.alpha - al_id) / r.alpha)
    ok = worst_pok <= 1e-3 and worst_kap <= 1e-3 and worst_al <= 1e-3
    _report("02 pokhozaev-identity", ok,
            f"rel residual {worst_pok:.3e}, kappa id {worst_kap:.3e}, "
            f"alpha id {worst_al:.3e}")


def test_03_range_bounds(trio, sweep9):
    ok = True
    detail = []
    sols = [to_radial(t) for t in trio]
    kappas = [s.kappa for s in sols] + [r.kappa for r in sweep9]
    alphas = [s.alpha for s in sols] + [r.alpha for r in sweep9]
    ok &= all(2 * PI < k < 4 * PI for k in kappas)
    ok &= all(0.0 < a < 2.0**1.5 * PI for a in alphas)
    detail.append(f"kappa in ({min(kappas):.6f}, {max(kappas):.6f})")
    detail.append(f"alpha in ({min(alphas):.6f}, {max(alphas):.6f})")
    worst_ks = 0.0
    for s, t in zip(sols, trio):
        ok &= bool(np.all(np.diff(s.u_values) < 0.0))
        ok &= bool(np.all(np.diff(s.k_values) < 0.0))
        rel = abs(float(np.max(s.k_values)) - s.k_star) / s.k_star
        worst_ks = max(worst_ks, rel)
    ok &= worst_ks <= 1e-6
    detail.append(f"K* rel err {worst_ks:.3e}")
    _report("03 range-bounds", bool(ok), "; ".join(detail))


def test_04_asymptotic_slopes(trio):
    worst_u = worst_k = 0.0
    for t in trio:
        sol = to_radial(t)
        fit = asymptotic_fit(t)
        worst_u = max(worst_u, abs(fit.u_slope + sol.kappa / (2 * PI))
                      / (sol.kappa / (2 * PI)))
        worst_k = max(worst_k, abs(fit.k_slope + sol.alpha / (2 * PI))
                      / (sol.alpha / (2 * PI)))
    ok = worst_u <= 1e-9 and worst_k <= 1e-9
    _report("04 asymptotic-slopes", ok,
            f"u_slope rel {worst_u:.3e}, K_slope rel {worst_k:.3e}")


def test_05_monotone_iteration(cfg):
    a = AsymptoticData(0.0, 8.0)
    handoff = explicit_bounds(a).t0_lower - 1.0
    tol = 1e-10
    # tol = -1 forces the full 20-iterate ladder (the map reaches a
    # bit-identical fixed point after ~5 iterations)
    ladder = iterate_past(a, handoff, step=1e-3, tol=-1.0, max_iter=20)
    assert len(ladder.iterates_xi) == 21
    ordered = monotonicity_report(ladder, allowance=10.0 * tol)
    eta1_err = float(np.max(np.abs(ladder.iterates_eta[1]
                                   - eta_first_iterate(ladder.t, a))))
    run = iterate_past(a, handoff, step=1e-3, tol=tol, max_iter=60)
    c = replace(cfg, dense_step=1e-3)
    traj = integrate(a, c)
    xi_lim, eta_lim = run.iterates_xi[-1], run.iterates_eta[-1]
    n = len(xi_lim)
    t_w, xi_w, eta_w, _, _ = traj.window
    tm = t_w[:n]
    assert abs(tm[0] - run.t[0]) < 1e-12
    dx = float(np.max(np.abs(xi_w[:n] - xi_lim)))
    de = float(np.max(np.abs(eta_w[:n] - eta_lim)))
    # future-zone ladder on a substantive crossing state
    from curvscat import PhasePoint, iterate_future
    fut = iterate_future(PhasePoint(0.0, -2.0, 0.0, -0.6, -0.8),
                         t_max=6.0, step=1e-3, tol=tol, max_iter=500)
    ordered_f = monotonicity_report(fut, allowance=10.0 * tol)
    ok = (ordered and eta1_err <= 1.0 * 1e-3**2 and run.converged
          and dx <= 1e-6 and de <= 1e-6 and fut.converged and ordered_f)
    _report("05 monotone-iteration", ok,
            f"20 past iterates ordered (worst {ladder.worst_violation:.2e}), "
            f"eta1 defect {eta1_err:.2e}, limit vs integrator "
            f"({dx:.2e}, {de:.2e}), future ladder ordered "
            f"(worst {fut.worst_violation:.2e})")


def test_06_bound_suite(trio):
    ok = True
    details = []
    for traj in trio:
        a = traj.asymptotics
        b = explicit_bounds(a)
        ev = traj.events
        ok &= ev.t0 is not None and ev.t0 > b.t0_lower
        ok &= ev.t_half is not None and ev.t_half > b.t_half_lower
        m = traj.t < ev.t_half
        lo_slack = float(np.min(traj.xi[m] - xi_subsolution(traj.t[m], a)))
        hi_slack = float(np.min(xi_supersolution(traj.t[m], a) - traj.xi[m]))
        ok &= lo_slack >= -1e-8 and hi_slack >= -1e-8
        assert a.eta_in > ETA_CRIT_UPPER
        from curvscat import t0_state_bounds
        xi_up, xid_up, etad_lo = t0_state_bounds(a)
        k = int(np.argmin(np.abs(traj.t - ev.t0)))
        ok &= ev.t_m is not None and ev.t_m < ev.t0
        ok &= bool(traj.xi[k] < xi_up and traj.xi_dot[k] < xid_up < 0.0
                   and traj.eta_dot[k] > etad_lo)
        details.append(f"eta_in={a.eta_in:g}: slacks ({lo_slack:.1e}, {hi_slack:.1e})")
    _report("06 bound-suite", bool(ok), "; ".join(details))


def test_07_forbidden_zone_and_inflection(trio):
    ok = True
    details = []
    for traj in trio:
        q = float(np.max(traj.eta * np.exp(2.0 * traj.xi)))
        ok &= q <= 1.0 + 1e-9
        g = g_values(traj)
        ok &= abs(g[0] - 1.0) <= 1e-6
        ok &= float(np.max(np.diff(g))) <= 1e-9
        down = int(np.sum((g[:-1] > 0.0) & (g[1:] <= 0.0)))
        up = int(np.sum((g[:-1] < 0.0) & (g[1:] >= 0.0)))
        ok &= down == 1 and up == 0
        details.append(f"eta_in={traj.asymptotics.eta_in:g}: max q={q:.9f}")
    _report("07 forbidden-zone-inflection", bool(ok), "; ".join(details))


def test_08_symmetry(traj8, cfg):
    # a xi_in shift is a time translation of the run: Theta does not move
    th0 = deflection(traj8)
    d_theta = max(abs(deflection_of(AsymptoticData(xi_in, 8.0), cfg) - th0)
                  for xi_in in (-1.0, 1.0))
    ok = d_theta <= 1e-6
    _report("08 symmetry", bool(ok), f"theta shift {d_theta:.2e}")


def test_09_non_scattering(cfg):
    ok = True
    details = []
    for eta_in in (-1.0, 0.0):
        traj = integrate(AsymptoticData(0.0, eta_in), cfg)
        structured = (traj.events.blowup is not None
                      and traj.outcome is Outcome.CERTIFIED)
        ok &= structured
        try:
            deflection(traj)
            ok = False
            details.append(f"eta_in={eta_in:g}: produced an angle")
        except NotConvergedError:
            details.append(f"eta_in={eta_in:g}: {traj.outcome.value}")
    _report("09 non-scattering", bool(ok), "; ".join(details))


def test_10_shooting_round_trip(sweep9, cfg, monkeypatch):
    worst = max(abs(r.theta - r.theta_target) for r in sweep9)
    ok = worst <= 1e-8
    res = shoot(ORACLE_THETA_ETA8, cfg, root_tol=1e-8)
    d_eta = abs(res.eta_in_found - 8.0)
    ok &= d_eta <= 1e-4
    # non-seed round trip, forcing the scan and refinement to do real work:
    # the table's seed would be the root, so it is moved 1% off
    import curvscat.shooting as shooting
    table = shooting.eta_in_of
    monkeypatch.setattr(shooting, "eta_in_of", lambda theta: (
        1.01 * table(theta)[0], table(theta)[1]))
    target = deflection_of(AsymptoticData(0.0, 3.0), cfg)
    res3 = shoot(target, cfg, root_tol=1e-8)
    d3 = abs(res3.eta_in_found - 3.0)
    ok &= d3 <= 1e-4 and res3.iterations > 0
    _report("10 shooting-round-trip", bool(ok),
            f"9 targets worst |dtheta| = {worst:.2e}; eta_in = 8 recovered "
            f"within {d_eta:.2e}, eta_in = 3 within {d3:.2e}")


def test_11_spectrum_and_flow(trio):
    ok = True
    worst_v = 0.0
    for traj in trio:
        for s in spectrum_along(traj):
            if not (s.mu_plus > 0.0 > s.mu_minus):
                ok = False
            worst_v = max(worst_v, abs(s.nu_plus * s.nu_minus + 1.0))
    ok &= worst_v <= 1e-12

    flow_ok = True
    for mu0, delta in ((-(1.0 - 1e-6), 1e-4), (-0.7, 1e-4), (-0.9, 1e-5)):
        s = GradientFlowState(mu0, delta)
        res = gradient_flow_run(s, tol=1e-10)
        flow_ok &= (res.converged and res.stayed_in_quadrant
                    and res.grad_norm <= 1e-10
                    and res.fixed_point[0] > s.mu0
                    and res.fixed_point[1] < s.nu0)
    ok &= flow_ok
    _report("11 spectrum-and-flow", bool(ok),
            f"worst vieta {worst_v:.2e}, flow fixed points ordered: {flow_ok}")


def test_12_discretization_order(cfg):
    a = AsymptoticData(0.0, 8.0)
    # radial reconstruction residuals under dense-step halving
    res_u = []
    for h in (0.08, 0.04, 0.02, 0.01):
        c = replace(cfg, dense_step=h, rel_tol=1e-12)
        sol = to_radial(integrate(a, c))
        res_u.append(pde_residual(sol)[0])
    pde_ratios = [res_u[i] / res_u[i + 1] for i in range(3)]

    # fixed-point limit residuals under grid-step halving
    handoff = explicit_bounds(a).t0_lower - 1.0
    res_p = []
    for step in (8e-3, 4e-3, 2e-3, 1e-3):
        run = iterate_past(a, handoff, step=step, tol=1e-11, max_iter=60)
        res_p.append(final_residual(run.iterates_xi[-1], run.iterates_eta[-1],
                                    step)[0])
    pic_ratios = [res_p[i] / res_p[i + 1] for i in range(3)]

    def order_ok(ratios):
        gmean = float(np.exp(np.mean(np.log(ratios))))
        return (all(3.0 < r < 5.2 for r in ratios)
                and 1.8 < math.log2(gmean) < 2.2)

    ok = order_ok(pde_ratios) and order_ok(pic_ratios)
    _report("12 discretization-order", bool(ok),
            f"pde ratios {[f'{r:.2f}' for r in pde_ratios]}, "
            f"picard ratios {[f'{r:.2f}' for r in pic_ratios]}")
