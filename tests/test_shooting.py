import dataclasses
import math

import numpy as np
import pytest

from curvscat import (AsymptoticData, NotConvergedError, Outcome,
                      SolverConfig, deflection_of, shoot, sweep,
                      theta_identities)
from curvscat.deflection_table import eta_in_of
from curvscat.shooting import CEILING, BracketNotFoundError

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
    # the first probe is the table's seed, and it is the root; most is what
    # the deep-end law's seed needed (a scan from eta_in = 8 made 7, 10, 12,
    # 13 and 23 evaluations at these targets)
    res = shoot(target, cfg, root_tol=1e-8)
    assert res.scanned[0][0] == eta_in_of(target)[0]
    assert len(res.scanned) == 1 < most
    assert abs(res.theta_achieved - target) <= 1e-9


def test_shoot_climbs_past_the_onset_from_a_nonscattering_seed(cfg, monkeypatch):
    # a seed of 1.2964 (the deep-end law's at -0.55pi) lies below the onset
    # near 1.2998; the table's slope still steers the step after the climb
    import curvscat.shooting as shooting
    monkeypatch.setattr(shooting, "eta_in_of",
                        lambda theta: (1.2964, eta_in_of(theta)[1]))
    res = shoot(-0.55 * PI, cfg, root_tol=1e-8)
    assert res.scanned[0] == (1.2964, None)
    assert res.scanned[1][1] is not None
    assert abs(res.theta_achieved + 0.55 * PI) <= 1e-9
    assert len(res.scanned) <= 12


@pytest.mark.parametrize("kw, name", [
    ({"root_tol": math.nan}, "root_tol"), ({"root_tol": 0.0}, "root_tol"),
    ({"root_tol": -1.0}, "root_tol"), ({"root_tol": math.inf}, "root_tol"),
])
def test_shoot_rejects_bad_search_arguments(cfg, monkeypatch, kw, name):
    import curvscat.shooting as shooting
    monkeypatch.setattr(shooting, "deflection_of", None)   # nothing evaluated
    with pytest.raises(ValueError, match=name):
        shoot(-0.75 * PI, cfg, **kw)
    with pytest.raises(ValueError, match=name):
        sweep([-0.75 * PI], cfg, **kw)


def test_climb_out_of_budget_names_max_time(cfg):
    # every probe of the climb past the onset is a budget stop up to the
    # ceiling: the failure names max_time, as the collapsed bracket's does.
    # Above eta_in 64 the escape comes as long after the start at every
    # eta_in, so the climb stops at 128
    short = dataclasses.replace(cfg, max_time=5.0)
    budget = ("lower edge pinned by runs up to eta_in = 128 that find no "
              "escape within max_time = 5; raise --max-time")
    with pytest.raises(BracketNotFoundError, match=budget) as e:
        shoot(-0.75 * PI, short)
    assert all(theta is None for _, theta in e.value.scanned)
    assert e.value.scanned[-1][0] == CEILING == 128.0
    assert len(e.value.scanned) <= 14
    rows = sweep([-0.75 * PI, -0.55 * PI], short)
    assert all(r.status.endswith(budget) for r in rows)


def test_shoot_bracket_interior_stopped_scattering(cfg, monkeypatch):
    # a linear map that does not scatter near its root, inside the bracket
    import curvscat.shooting as shooting
    target = -0.75 * PI

    def gap_at_root(a, c):
        if abs(a.eta_in - 1.62) < 0.002:
            raise NotConvergedError(Outcome.OUT_OF_BUDGET)
        return target - 0.5 * (a.eta_in - 1.62)

    # the fake map stands in for both evaluators; integrate passes the datum on
    monkeypatch.setattr(shooting, "deflection_of", gap_at_root)
    monkeypatch.setattr(shooting, "integrate", lambda a, c: a)
    monkeypatch.setattr(shooting, "deflection", lambda a: gap_at_root(a, None))
    with pytest.raises(BracketNotFoundError, match="interior stopped scattering") as e:
        shoot(target, cfg)
    assert e.value.scanned[-1][1] is None


def test_shoot_solver_failure_ends_the_search(cfg, failing_solver):
    # a solver failure is not a non-scattering outcome: it ends the search
    # at the first solver call, with the stepper's message
    with pytest.raises(NotConvergedError,
                       match="^solver failure: Required step size") as e:
        shoot(-0.75 * PI, cfg)
    assert e.value.outcome is Outcome.SOLVER_FAILURE
    assert len(failing_solver) == 1


def test_shoot_stops_at_the_evaluation_budget(cfg, monkeypatch):
    # a map that falls short of the target everywhere: the Newton steps
    # climb toward the ceiling in small steps until the budget runs out
    import curvscat.shooting as shooting
    target = -0.75 * PI
    monkeypatch.setattr(shooting, "deflection_of", lambda a, c: target + 1.0)
    with pytest.raises(BracketNotFoundError, match="budget exhausted") as e:
        shoot(target, cfg, root_tol=1e-10)
    assert len(e.value.scanned) == shooting._EVAL_BUDGET + 1
    etas = [eta for eta, _ in e.value.scanned]
    assert etas == sorted(etas)


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
    # nothing integrated in full before the end, neither the seed nor a
    # Newton probe predicted last: the same search, on the table's seed and
    # on one that misses by 1e-3 relative and so needs Newton steps
    import curvscat.shooting as shooting
    for scale in (1.0, 1.001):
        monkeypatch.setattr(shooting, "eta_in_of", lambda theta, scale=scale: (
            scale * eta_in_of(theta)[0], eta_in_of(theta)[1]))
        res = shoot(target, cfg, root_tol=1e-8)
        with monkeypatch.context() as m:
            m.setattr(shooting, "SEED_MISS", math.inf)
            m.setattr(shooting, "_predicts_last", lambda f, tol: False)
            ref = shoot(target, cfg, root_tol=1e-8)
        if scale == 1.0:
            assert len(res.scanned) == 1
        assert res.scanned == ref.scanned
        assert res.eta_in_found == ref.eta_in_found
        assert res.theta_achieved == ref.theta_achieved
        assert res.iterations == ref.iterations
        assert res.bracket == ref.bracket


def test_shoot_solver_calls_over_the_range(cfg, monkeypatch):
    # the seed is the root: one integrate per shot and no deflection_of
    for target in np.linspace(-0.99 * PI, -0.51 * PI, 49):
        evals, integrations = _count_solver_calls(monkeypatch)
        res = shoot(float(target), cfg, root_tol=1e-8)
        assert abs(res.theta_achieved - target) <= 1e-9
        assert (evals, integrations) == ([], [res.eta_in_found]), target / PI
        assert res.iterations == 0
        assert res.bracket == (res.eta_in_found, res.eta_in_found)


def test_shoot_accepts_the_law_step_directly(cfg, monkeypatch):
    # at root_tol 1e-10 the table's bound, 1e-9, no longer vouches for the
    # seed, and here it misses by 1e-7 relative; the Newton step with the
    # table's slope lands within root_tol/10 and is integrated once, as
    # predicted
    import curvscat.shooting as shooting
    monkeypatch.setattr(shooting, "eta_in_of", lambda theta: (
        (1.0 + 1e-7) * eta_in_of(theta)[0], eta_in_of(theta)[1]))
    evals, integrations = _count_solver_calls(monkeypatch)
    res = shoot(-0.95 * PI, cfg, root_tol=1e-10)
    assert evals == [res.scanned[0][0]]
    assert abs(res.scanned[0][1] + 0.95 * PI) > 1e-9
    assert integrations == [res.eta_in_found] == [res.scanned[1][0]]
    assert res.iterations == 1
    assert res.bracket == (res.eta_in_found, res.eta_in_found)
    assert abs(res.theta_achieved + 0.95 * PI) <= 1e-11


@pytest.mark.parametrize("cfg_kw", [{"rel_tol": 1e-7}, {"max_time": 100.0}])
@pytest.mark.parametrize("target", [-0.55 * PI, -0.75 * PI, -0.95 * PI])
def test_shoot_off_the_default_config_still_lands(cfg_kw, target):
    # the table is fitted at the default SolverConfig; elsewhere the seed may
    # miss, which costs probes, not accuracy
    res = shoot(target, SolverConfig(**cfg_kw), root_tol=1e-8)
    assert abs(res.theta_achieved - target) <= 1e-8
    assert res.trajectory.config == SolverConfig(**cfg_kw)


def test_shoot_at_rel_tol_1e6_lands_over_the_range():
    # the energy drift here (2.7e-6 at eta_in 1.4165) exceeds escape_tol;
    # the escape test reads only the potential, so the drift cannot block
    # escape and pin the lower edge
    cfg = SolverConfig(rel_tol=1e-6)
    for target in np.linspace(-0.99, -0.51, 49) * PI:
        res = shoot(float(target), cfg)
        assert abs(res.theta_achieved - target) <= 1e-8, target


@pytest.mark.parametrize("target", [-0.55 * PI, -0.75 * PI, -0.95 * PI])
def test_shoot_at_rel_tol_1e7_takes_one_newton_step(target, monkeypatch):
    # the seed misses the map at rel_tol 1e-7; one Newton step with the
    # table's slope lands, integrated in full as predicted
    evals, integrations = _count_solver_calls(monkeypatch)
    res = shoot(target, SolverConfig(rel_tol=1e-7), root_tol=1e-8)
    assert abs(res.theta_achieved - target) <= 1e-9
    assert len(evals) + len(integrations) <= 2


@pytest.mark.parametrize("target", [-0.55 * PI, -0.75 * PI])
def test_shoot_accepts_a_collapsed_bracket_end(target, cfg):
    # at root_tol 1e-11 the seed misses by more than root_tol/10, and the
    # Newton step from it lies within 1e-12 relative: the bracket has
    # collapsed onto the seed, which is accepted as it lies within root_tol
    res = shoot(target, cfg, root_tol=1e-11)
    assert 1e-12 < abs(res.theta_achieved - target) <= 1e-11
    assert res.scanned == [(res.eta_in_found, res.theta_achieved)]


def test_shoot_pinned_by_the_budget_names_it():
    # at max_time 100 the onset rises to 1.30103, above the root of -0.52pi:
    # the runs below it exhaust the budget, and the failure says so
    with pytest.raises(BracketNotFoundError, match="pinned") as e:
        shoot(-0.52 * PI, SolverConfig(max_time=100.0))
    message = str(e.value)
    assert "max_time = 100" in message and "--max-time" in message
    assert "eta_in = 1.301" in message
    assert len(e.value.scanned) <= 34


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


def test_shoot_bracket_not_found_reports_scan(cfg, monkeypatch):
    import curvscat.shooting as shooting
    monkeypatch.setattr(shooting, "CEILING", 10.0)
    with pytest.raises(BracketNotFoundError) as e:
        shoot(-0.99 * PI, cfg)
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


def test_sweep_integrates_once_per_row(cfg, monkeypatch):
    evals, integrations = _count_solver_calls(monkeypatch)
    rows = sweep(np.linspace(-0.95 * PI, -0.55 * PI, 9), cfg, root_tol=1e-8)
    assert [r.status for r in rows] == ["ok"] * 9
    assert evals == []
    assert integrations == [r.eta_in for r in rows]


def test_sweep_records_row_failures(cfg, monkeypatch):
    import curvscat.shooting as shooting
    monkeypatch.setattr(shooting, "CEILING", 10.0)
    seen = []
    rows = sweep([-0.99 * PI, -0.75 * PI], cfg, root_tol=1e-8, on_row=seen.append)
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
