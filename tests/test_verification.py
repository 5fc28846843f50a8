import pytest
from hypothesis import given, settings, strategies as st

from curvscat import (AsymptoticData, SolverConfig, analysis, geometry,
                      integrate, verification)
from curvscat.verification import run_suite

from _reference import full_window


def test_suite_passes_on_single_eta():
    results = run_suite((8.0,), SolverConfig())
    assert len(results) == 9
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
    # one item per declared check, in declaration order
    names = [r.name for r in results]
    assert names == [
        "forbidden-zone confinement",
        "single-inflection convexity",
        "monotone past iteration",
        "eta-zero time lower bound",
        "half-level bound and envelope sandwich",
        "interior-maximum regime bounds",
        "monotone future iteration",
        "area-curvature identity",
        "logarithmic tail slopes",
    ]


def test_suite_skips_regime_bound_below_threshold():
    results = run_suite((4.0,), SolverConfig())
    item = next(r for r in results if r.name == "interior-maximum regime bounds")
    assert item.passed and "skipped" in item.detail
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"


def test_inflection_check_forms_g_once(monkeypatch):
    # the check reads the crossing count and the largest rise of g from the
    # report, which forms g once per datum
    calls = []
    g_values = analysis.g_values

    def counting(traj):
        calls.append(traj.asymptotics.eta_in)
        return g_values(traj)
    monkeypatch.setattr(analysis, "g_values", counting)
    results = run_suite((6.0, 8.0), SolverConfig())
    assert all(r.passed for r in results)
    assert calls == [6.0, 8.0]


def _items(traj, sol):
    return [(r.name, r.passed, r.detail)
            for r in verification._line_items(traj, sol, traj.asymptotics)]


def _assert_gap_changes_no_item(eta_in, cfg):
    # every item reads the same on the gapped window as on the window
    # without a gap, its nodes and event times there evaluated
    traj = integrate(AsymptoticData(0.0, eta_in), cfg)
    assert traj.escaped and traj.gap is not None
    sol = geometry.to_radial(traj)
    full = full_window(traj)
    assert len(full) > len(traj)
    items = _items(traj, sol)
    assert items == _items(full, sol)
    return items


# a grid too coarse for the area-curvature identity's quadrature
FAILING = {"dense_step": 0.5}


@pytest.mark.parametrize("eta_in, overrides", [
    (4.8, {}), (8.0, {}), (12.0, {}), (21.0, {}), (23.9, {}),
    (8.0, FAILING),                       # an item fails
    (21.0, {"dense_step": 0.0137}),
])
def test_items_read_the_same_without_the_gap(eta_in, overrides):
    cfg = SolverConfig(**overrides)
    items = _assert_gap_changes_no_item(eta_in, cfg)
    assert [(r.name, r.passed, r.detail) for r in run_suite((eta_in,), cfg)] == items
    if overrides is FAILING:
        assert not all(passed for _, passed, _ in items)


@settings(max_examples=15, deadline=None)
@given(eta_in=st.floats(min_value=4.7, max_value=24.0))
def test_drawn_items_read_the_same_without_the_gap(eta_in):
    _assert_gap_changes_no_item(eta_in, SolverConfig())
