from curvscat import SolverConfig, analysis
from curvscat.verification import run_suite


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
