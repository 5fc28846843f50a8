import math

import numpy as np
import pytest

from curvscat import (AsymptoticData, NotConvergedError,
                      deflection_deep_inverse, deflection_of, shoot, sweep,
                      theta_identities)
from curvscat.shooting import BracketNotFoundError

from _reference import ORACLE_THETA_ETA8, theta_tight

PI = math.pi


def test_deflection_of_matches_oracle(cfg):
    assert abs(deflection_of(AsymptoticData(0.0, 8.0), cfg) - ORACLE_THETA_ETA8) < 1e-6


def test_deflection_invariant_under_xi_in_shift(cfg):
    t0 = deflection_of(AsymptoticData(0.0, 8.0), cfg)
    t1 = deflection_of(AsymptoticData(1.0, 8.0), cfg)
    t2 = deflection_of(AsymptoticData(-2.5, 8.0), cfg)
    assert abs(t1 - t0) < 1e-6
    assert abs(t2 - t0) < 1e-6


def test_deflection_of_nonscattering_raises(cfg):
    with pytest.raises(NotConvergedError):
        deflection_of(AsymptoticData(0.0, -0.5), cfg)


def test_shoot_recovers_known_eta(cfg):
    res = shoot(ORACLE_THETA_ETA8, cfg, root_tol=1e-8)
    assert abs(res.theta_achieved - ORACLE_THETA_ETA8) <= 1e-8
    assert abs(res.eta_in_found - 8.0) <= 1e-4
    assert res.eta_in_found > 0.0
    assert res.bracket[0] <= res.eta_in_found <= res.bracket[1]
    # the evaluation trace is kept on success: distinct etas, each with its
    # angle, including the accepted root and both bracket ends
    etas = [e for e, _ in res.scanned]
    assert len(set(etas)) == len(etas) > res.iterations
    assert (res.eta_in_found, res.theta_achieved) in res.scanned
    thetas = dict(res.scanned)
    assert thetas[res.bracket[0]] is not None and thetas[res.bracket[1]] is not None


@pytest.mark.parametrize("target", [
    -2.514344765366246,          # once accepted only just inside root_tol
    -0.505 * PI - 1e-9 * PI,     # shallow end of the default margin
    -0.52 * PI, -0.55 * PI, -0.57 * PI, -0.75 * PI, -0.9 * PI, -0.98 * PI,
])
def test_shoot_root_accurate_against_tight_reference(target, cfg):
    # the map steepens toward the onset at -0.52pi and -0.57pi
    res = shoot(target, cfg, root_tol=1e-8)
    assert abs(theta_tight(res.eta_in_found) - target) <= 1e-8
    assert res.iterations <= 5
    assert res.bracket[0] <= res.eta_in_found <= res.bracket[1]


@pytest.mark.parametrize("target, most", [
    (-0.98 * PI, 8), (-0.9 * PI, 8), (-0.75 * PI, 8), (-0.6 * PI, 8),
    (-0.505 * PI - 1e-9 * PI, 14),
])
def test_shoot_evaluations_seeded_by_the_law(target, most, cfg):
    # the first probe is the deep-end law's inverse; a scan from eta_in = 8
    # makes 7, 10, 12, 13 and 23 evaluations at these targets
    res = shoot(target, cfg, root_tol=1e-8)
    assert res.scanned[0][0] == deflection_deep_inverse(target)
    assert len(res.scanned) <= most
    assert abs(res.theta_achieved - target) <= 1e-9


def test_shoot_climbs_past_the_onset_from_a_nonscattering_seed(cfg):
    # at -0.55pi the law's inverse, 1.2964, lies below the onset near 1.2998
    res = shoot(-0.55 * PI, cfg, root_tol=1e-8)
    assert res.scanned[0] == (deflection_deep_inverse(-0.55 * PI), None)
    assert abs(res.theta_achieved + 0.55 * PI) <= 1e-9
    assert len(res.scanned) <= 12


def test_shoot_seed_clamped_to_floor(cfg):
    # the root near 3.314 lies below the floor: the first probe is the floor,
    # and the scan stops there instead of crossing it
    with pytest.raises(BracketNotFoundError, match="pinned") as e:
        shoot(-0.9 * PI, cfg, floor=4.0)
    assert e.value.scanned[0][0] == 4.0
    assert min(eta for eta, _ in e.value.scanned) >= 4.0


@pytest.mark.parametrize("kw, name", [
    ({"root_tol": math.nan}, "root_tol"), ({"root_tol": 0.0}, "root_tol"),
    ({"root_tol": -1.0}, "root_tol"), ({"root_tol": math.inf}, "root_tol"),
    ({"ceiling": 0.0}, "ceiling"), ({"ceiling": math.nan}, "ceiling"),
    ({"ceiling": math.inf}, "ceiling"), ({"floor": -1.0}, "floor"),
    ({"floor": math.nan}, "floor"), ({"floor": 10.0, "ceiling": 10.0}, "floor"),
    ({"floor": 20.0, "ceiling": 10.0}, "floor"),
])
def test_shoot_rejects_bad_search_arguments(cfg, monkeypatch, kw, name):
    import curvscat.shooting as shooting
    monkeypatch.setattr(shooting, "deflection_of", None)   # nothing evaluated
    with pytest.raises(ValueError, match=name):
        shoot(-0.75 * PI, cfg, **kw)
    with pytest.raises(ValueError, match=name):
        sweep([-0.75 * PI], cfg, **kw)


def test_shoot_bracket_interior_stopped_scattering(cfg, monkeypatch):
    # a linear map that does not scatter near its root, inside the bracket
    import curvscat.shooting as shooting
    target = -0.75 * PI

    def gap_at_root(a, c):
        if abs(a.eta_in - 1.62) < 0.002:
            raise NotConvergedError("no escape")
        return target - 0.5 * (a.eta_in - 1.62)

    monkeypatch.setattr(shooting, "deflection_of", gap_at_root)
    with pytest.raises(BracketNotFoundError, match="interior stopped scattering") as e:
        shoot(target, cfg)
    assert e.value.scanned[-1][1] is None


def test_shoot_integrates_only_the_accepted_root(cfg, monkeypatch):
    import curvscat.shooting as shooting
    real, calls = shooting.integrate, []

    def spy(a, c):
        calls.append(a)
        return real(a, c)

    monkeypatch.setattr(shooting, "integrate", spy)
    res = shoot(-0.75 * PI, cfg, root_tol=1e-8)
    assert [a.eta_in for a in calls] == [res.eta_in_found]
    assert res.trajectory.asymptotics.eta_in == res.eta_in_found


def _count_solver_calls(monkeypatch):
    """Spy on shooting's solver entry points; returns (deflection_of etas,
    integrate etas), filled as calls are made."""
    import curvscat.shooting as shooting
    seen = ([], [])
    for name, log in zip(("deflection_of", "integrate"), seen):
        def spy(a, c, real=getattr(shooting, name), log=log):
            log.append(a.eta_in)
            return real(a, c)
        monkeypatch.setattr(shooting, name, spy)
    return seen


@pytest.mark.parametrize("target", [-0.52 * PI, -0.6 * PI, -0.75 * PI,
                                    -0.9 * PI, -0.98 * PI])
def test_integrating_predicted_last_probes_changes_cost_only(target, cfg, monkeypatch):
    import curvscat.shooting as shooting
    res = shoot(target, cfg, root_tol=1e-8)
    monkeypatch.setattr(shooting, "_predicts_last", lambda fs, tol: False)
    ref = shoot(target, cfg, root_tol=1e-8)
    assert res.scanned == ref.scanned
    assert res.eta_in_found == ref.eta_in_found
    assert res.theta_achieved == ref.theta_achieved
    assert res.iterations == ref.iterations
    assert res.bracket == ref.bracket


# solver calls (deflection_of + integrate) per shot before the law's Newton
# step lost its 2x overshoot and a predicted last probe was integrated once
_CALLS_BEFORE = [3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
                 5, 6, 6, 6, 6, 6, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7,
                 7, 7, 7, 7, 7, 8, 8, 9, 12]


def test_shoot_solver_calls_over_the_range(cfg, monkeypatch):
    targets = np.linspace(-0.99 * PI, -0.51 * PI, len(_CALLS_BEFORE))
    calls = []
    for target, before in zip(targets, _CALLS_BEFORE):
        evals, integrations = _count_solver_calls(monkeypatch)
        res = shoot(float(target), cfg, root_tol=1e-8)
        assert abs(res.theta_achieved - target) <= 1e-9
        n = len(evals) + len(integrations)
        assert n <= before, target / PI
        assert len(integrations) <= 2, target / PI
        calls.append(n)
    assert np.mean(calls) <= 4.5


def test_shoot_accepts_the_law_step_directly(cfg, monkeypatch):
    # the seed misses by about 1e-6 at -0.95pi; the law's Newton step lands
    # within root_tol/10 and is integrated once, as predicted
    evals, integrations = _count_solver_calls(monkeypatch)
    res = shoot(-0.95 * PI, cfg, root_tol=1e-8)
    assert evals == [res.scanned[0][0]]
    assert integrations == [res.eta_in_found] == [res.scanned[1][0]]
    assert res.iterations == 0
    assert res.bracket == (res.eta_in_found, res.eta_in_found)
    assert abs(res.theta_achieved + 0.95 * PI) <= 1e-9


def test_shoot_deterministic(cfg):
    r1 = shoot(-0.6 * PI, cfg, root_tol=1e-8)
    r2 = shoot(-0.6 * PI, cfg, root_tol=1e-8)
    assert r1.eta_in_found == r2.eta_in_found
    assert r1.theta_achieved == r2.theta_achieved
    assert r1.iterations == r2.iterations


def test_shoot_mid_target(cfg):
    res = shoot(-0.6 * PI, cfg, root_tol=1e-8)
    assert abs(res.theta_achieved + 0.6 * PI) <= 1e-8


@pytest.mark.parametrize("target, kappa_lo, kappa_hi", [
    (-0.51 * PI, 2 * PI, 2.2 * PI),   # shallow endpoint: kappa near 2*pi
    (-0.99 * PI, 3.9 * PI, 4 * PI),   # deep endpoint: kappa near 4*pi
])
def test_shoot_endpoint_stress(cfg, target, kappa_lo, kappa_hi):
    res = shoot(target, cfg, root_tol=1e-8)
    assert abs(res.theta_achieved - target) <= 1e-8
    kap, _ = theta_identities(res.theta_achieved)
    assert kappa_lo < kap < kappa_hi


def test_shoot_rejects_margin_violations(cfg):
    with pytest.raises(ValueError):
        shoot(-0.5 * PI, cfg)
    with pytest.raises(ValueError):
        shoot(-PI, cfg)
    with pytest.raises(ValueError):
        shoot(-0.996 * PI, cfg)


def test_shoot_bracket_not_found_reports_scan(cfg):
    with pytest.raises(BracketNotFoundError) as e:
        shoot(-0.99 * PI, cfg, ceiling=10.0)
    assert len(e.value.scanned) >= 1
    etas = [s[0] for s in e.value.scanned]
    assert max(etas) <= 20.0


def test_sweep_rows(cfg):
    grid = [-0.8 * PI, -0.75 * PI, -0.7 * PI]
    rows = sweep(grid, cfg, root_tol=1e-8)
    assert [r.theta_target for r in rows] == grid
    kappas = []
    for r in rows:
        assert r.status == "ok"
        assert abs(r.theta - r.theta_target) <= 1e-8
        assert 2 * PI < r.kappa < 4 * PI
        assert 0.0 < r.alpha < 2.0**1.5 * PI
        assert abs(r.k_star - math.sqrt(2.0) * r.eta_in) <= 1e-6 * r.k_star
        assert abs(r.pokhozaev_residual) / (16 * PI**2) <= 1e-3
        assert r.energy_drift <= 1e-8
        kappas.append(r.kappa)
    # kappa ordering follows the grid ordering through 2*pi*(1 - cos theta)
    assert kappas[0] > kappas[1] > kappas[2]


def test_sweep_records_row_failures(cfg):
    seen = []
    rows = sweep([-0.99 * PI, -0.75 * PI], cfg, root_tol=1e-8, ceiling=10.0,
                 on_row=seen.append)
    assert seen == rows
    assert rows[0].status.startswith("failed")
    assert math.isnan(rows[0].eta_in)
    assert rows[1].status == "ok"


def test_empirical_continuity_of_deflection_map(cfg):
    # refining an eta grid inside the scattering regime produces angles with
    # no jumps beyond the local Lipschitz estimate from neighbors
    etas = np.geomspace(2.0, 16.0, 13)
    thetas = np.array([deflection_of(AsymptoticData(0.0, e), cfg) for e in etas])
    assert np.all(np.diff(thetas) < 0.0)  # observed monotone decrease
    d = np.abs(np.diff(thetas))
    for k in range(1, len(d) - 1):
        assert d[k] <= 4.0 * max(d[k - 1], d[k + 1])
