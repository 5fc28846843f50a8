import ast
import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from curvscat import (AsymptoticData, Outcome, SolverConfig, deflection_of,
                      deflection_table, explicit_bounds, iterate_past,
                      theta_identities)

from _reference import write_ladder_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_monotone_ladder_writes_ordered_csv(tmp_path):
    ladder = _load("monotone_ladder")
    assert ladder.main(["--iterates", "2", "--step", "8e-3",
                        "--out-dir", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("*.csv"))) == 6
    xi = [np.loadtxt(tmp_path / f"xi_{k:02d}.csv", delimiter=",", skiprows=1)
          for k in range(3)]
    for prev, nxt in zip(xi, xi[1:]):
        assert np.array_equal(prev[:, 0], nxt[:, 0])
        assert np.all(nxt[:, 1] >= prev[:, 1])


def test_monotone_ladder_csv_matches_rowwise(tmp_path):
    ladder = _load("monotone_ladder")
    assert ladder.main(["--iterates", "2", "--step", "8e-3",
                        "--out-dir", str(tmp_path)]) == 0
    a = AsymptoticData(0.0, 8.0)
    run = iterate_past(a, explicit_bounds(a).t0_lower - 1.0, step=8e-3,
                       tol=-1.0, max_iter=2)
    for k, (xi, eta) in enumerate(zip(run.iterates_xi, run.iterates_eta)):
        for name, values in ((f"xi_{k:02d}.csv", xi), (f"eta_{k:02d}.csv", eta)):
            write_ladder_csv(run.t, values, tmp_path / "rowwise.csv")
            assert ((tmp_path / name).read_bytes()
                    == (tmp_path / "rowwise.csv").read_bytes())


def test_deflection_map_smoke(tmp_path, capsys):
    dmap = _load("deflection_map")
    out = tmp_path / "map.csv"
    assert dmap.main(["--n", "3", "--onset-bisections", "4",
                      "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eta_in,outcome,theta,kappa,alpha"
    assert len(lines) == 4
    # the script's grid; deflection_of gives the script's Theta bit for bit
    for eta, line in zip(np.geomspace(1.31, 64.0, 3), lines[1:]):
        theta = deflection_of(AsymptoticData(0.0, float(eta)), SolverConfig())
        assert -math.pi < theta < -0.5 * math.pi
        assert line.split(",") == [format(eta, ".12g"), "scatter"] + [
            format(v, ".12g") for v in (theta, *theta_identities(theta))]
    lo, hi = map(float, re.search(r"onset in \(([^,]+), ([^)]+)\)",
                                  capsys.readouterr().out).groups())
    assert lo < 1.2998 < hi


def test_deflection_map_makes_no_dense_output(tmp_path, monkeypatch):
    # every classification is one solver-only call: no integrate, no dense
    # output, no samples
    from curvscat import integrator

    calls = []
    solve = integrator._solve

    def spy(a, cfg, sampled):
        calls.append(sampled)
        return solve(a, cfg, sampled=sampled)
    monkeypatch.setattr(integrator, "_solve", spy)
    dmap = _load("deflection_map")
    assert dmap.main(["--eta-min", "1.0", "--eta-max", "8", "--n", "3",
                      "--onset-bisections", "4", "--out", str(tmp_path / "map.csv")]) == 0
    assert len(calls) == 3 + 4 and not any(calls)


def test_deflection_map_onset_stops_at_a_budget_stop(tmp_path, capsys,
                                                     monkeypatch):
    # 30 bisections reach the band just below the onset where runs end at
    # the default budget: the first such midpoint ends the bisection and is
    # reported undecided, and the bracket's ends are decided outcomes
    dmap = _load("deflection_map")
    assert set(dmap.KINDS) == set(Outcome) - {Outcome.SOLVER_FAILURE}
    seen = []
    classify = dmap.classify

    def spy(eta, cfg):
        seen.append((eta, *classify(eta, cfg)))
        return seen[-1][1:]
    monkeypatch.setattr(dmap, "classify", spy)
    assert dmap.main(["--eta-max", "1.31", "--n", "1", "--onset-bisections", "30",
                      "--out", str(tmp_path / "map.csv")]) == 0
    out = capsys.readouterr().out
    bisection = seen[1:]
    assert len(bisection) < 30
    mid, last, _ = bisection[-1]
    assert last is Outcome.OUT_OF_BUDGET
    assert f"eta_in = {mid:.8f} undecided: no escape or certificate within " \
           "max_time = 600" in out
    lo = max(e for e, o, _ in bisection if o is Outcome.CERTIFIED)
    hi = min(e for e, o, _ in bisection if o is Outcome.ESCAPED)
    assert {o for _, o, _ in bisection[:-1]} == {Outcome.CERTIFIED, Outcome.ESCAPED}
    assert f"onset in ({lo:.8f}, {hi:.8f})" in out and lo < mid < hi


def test_deflection_map_brackets_the_onset_by_tabulated_outcomes(tmp_path, capsys):
    # the grid's certified 1.0 and scattering 2.0 bracket the onset; the
    # bisection stays inside them
    dmap = _load("deflection_map")
    assert dmap.main(["--eta-min", "1.0", "--eta-max", "2", "--n", "2",
                      "--onset-bisections", "10", "--out", str(tmp_path / "map.csv")]) == 0
    out = capsys.readouterr().out
    assert "eta_in =     1.000000  blowup" in out
    lo, hi = map(float, re.search(r"onset in \(([^,]+), ([^)]+)\)", out).groups())
    assert 1.0 <= lo < 1.29981 < hi <= 2.0 and hi - lo < 1.0 / 2**9
    # no grid point scatters: no bracket and no bisection
    assert dmap.main(["--eta-min", "0.3", "--eta-max", "0.4", "--n", "2",
                      "--onset-bisections", "10", "--out", str(tmp_path / "low.csv")]) == 0
    out = capsys.readouterr().out
    assert "no onset bracket" in out and "onset in" not in out
    assert out.count("eta_in =") == 2


@pytest.mark.parametrize("script, args, message", [
    ("deflection_map", ["--n", "-1"], "--n: must be at least 1, got -1"),
    ("deflection_map", ["--n", "0"], "--n: must be at least 1, got 0"),
    ("deflection_map", ["--n", "1"], "--n 1 runs --eta-min alone: give equal ends"),
    ("deflection_map", ["--onset-bisections", "-1"],
     "--onset-bisections: must be at least 0, got -1"),
    ("monotone_ladder", ["--iterates", "-1"], "--iterates: must be at least 0, got -1"),
    ("monotone_ladder", ["--step", "0"], "--step: must be finite and positive, got 0"),
], ids=["map-n-1", "map-n0", "map-n1", "map-bisections-1", "ladder-iterates-1",
        "ladder-step0"])
def test_scripts_refuse_counts_they_cannot_honour(tmp_path, capsys, script, args,
                                                  message):
    # each used to end in a traceback, write an empty map, or run other
    # than as given (--n 1 ignored --eta-max, --iterates -1 ran as 0): now
    # argparse refuses it and nothing is written
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        _load(script).main([*args, "--out" if script == "deflection_map" else "--out-dir",
                            str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_deflection_table_smoke(capsys):
    # a small fit: the block it prints has the committed layout, and the
    # miss it reports is within the bound; nothing is written
    script = _load("deflection_table")
    before = script.MODULE.read_text()
    assert script.main(["--samples", "150", "--checks", "3"]) == 0
    assert script.MODULE.read_text() == before
    out = capsys.readouterr().out
    block = out[out.index(script.BEGIN):out.index(script.END)]
    names = {}
    for node in ast.parse(block).body:
        names[node.targets[0].id] = ast.literal_eval(node.value)
    assert names["EDGES"] == deflection_table.EDGES
    assert names["DEEP"] == deflection_table.DEEP
    assert names["SHIFT"] == deflection_table.SHIFT
    assert names["MISS"] == deflection_table.MISS
    assert [len(c) for c in names["COEFFS"]] == [len(c) for c in deflection_table.COEFFS]
    miss = float(re.search(r"worst seed miss (\S+)", out).group(1))
    assert miss <= deflection_table.MISS


def _pair_runs(parent, change, name="op_s_p50"):
    return [run for k, (p, c) in enumerate(zip(parent, change))
            for run in ({"pair": k, "side": "parent", "metrics": {name: p}},
                        {"pair": k, "side": "change", "metrics": {name: c}})]


def test_bench_pairs_statistics_on_synthetic_runs():
    bench = _load("bench_pairs")
    lower = [{"name": "op_s_p50", "better": "lower"}]
    # pair 2 is a tie, which counts for neither side
    runs = _pair_runs([6.0, 6.4, 6.2, 6.5, 6.1], [5.6, 5.5, 6.2, 5.7, 6.3])
    s = bench.compare(runs, lower)["op_s_p50"]
    assert s["parent"] == {"median": 6.2, "q1": 6.1, "q3": 6.4}
    assert s["change"] == {"median": 5.7, "q1": 5.6, "q3": 6.2}
    assert (s["pairs"], s["change_won"], s["parent_won"]) == (5, 3, 1)
    assert s["gain_beyond_parent_iqr"]           # 0.5 beyond the IQR 0.3
    # read against "higher", the same runs are the parent's wins
    s = bench.compare(runs, [{"name": "op_s_p50", "better": "higher"}])["op_s_p50"]
    assert (s["change_won"], s["parent_won"]) == (1, 3)
    assert not s["gain_beyond_parent_iqr"]
    # a gain inside the parent's spread does not clear it
    s = bench.compare(_pair_runs([5.0, 7.0, 6.0], [5.5, 5.4, 5.3]), lower)["op_s_p50"]
    assert s["change_won"] == 2 and not s["gain_beyond_parent_iqr"]
    # one pair: each quartile is the value
    s = bench.compare(_pair_runs([2.0], [1.0]), lower)["op_s_p50"]
    assert s["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert s["gain_beyond_parent_iqr"]
    assert [bench.order(k) for k in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


_FAKE_BENCH = '''import json, pathlib, sys
args = sys.argv[1:]
here = pathlib.Path.cwd()
with open(here.parent / "calls.log", "a") as fh:
    fh.write(here.name + " " + " ".join(args) + "\\n")
value = float((here / "value").read_text())
print("timing lines first")
print(json.dumps({"correct": True, "attempted": 4, "failed": 1, "metrics": {
    "op_s_p50": {"value": value, "unit": "s"},
    "ok_frac": {"value": 0.75, "unit": "ratio"}}}))
'''


def test_bench_pairs_alternates_and_writes_one_file(tmp_path, monkeypatch):
    bench = _load("bench_pairs")
    monkeypatch.chdir(tmp_path)
    spec = {"command": [sys.executable, "fake.py"], "run_seconds": 2,
            "workloads": [{"name": "verify"}],
            "end_to_end": [{"name": "op_s_p50", "better": "lower"},
                           {"name": "ok_frac", "better": "higher"}]}
    for side, value in (("parent", "6.0"), ("change", "5.0")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "fake.py").write_text(_FAKE_BENCH)
        (tmp_path / side / "value").write_text(value)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    common = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
              "--workload", "verify", "--label", "t"]
    assert bench.main([*common, "--pairs", "3", "--seed", "1"]) == 0
    calls = (tmp_path / "calls.log").read_text().splitlines()
    assert [c.split()[0] for c in calls] == ["parent", "change", "change", "parent",
                                             "parent", "change"]
    assert calls[0].split()[1:] == ["--workload", "verify", "--seed", "1", "--seconds", "2"]
    assert bench.main([*common, "--pairs", "1", "--seed", "2"]) == 0
    assert bench.main([*common, "--pairs", "2", "--seed", "1"]) == 0   # replaces seed 1
    body = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert body["label"] == "t"
    assert [(r["seed"], r["pairs"], len(r["runs"])) for r in body["results"]] == [
        (1, 2, 4), (2, 1, 2)]
    s = body["results"][0]["summary"]
    assert s["op_s_p50"]["change_won"] == 2 and s["op_s_p50"]["gain_beyond_parent_iqr"]
    assert s["ok_frac"]["change_won"] == s["ok_frac"]["parent_won"] == 0
    assert body["results"][0]["runs"][0] == {
        "pair": 0, "side": "parent", "correct": True, "attempted": 4, "failed": 1,
        "metrics": {"op_s_p50": 6.0, "ok_frac": 0.75}}
    with pytest.raises(SystemExit):
        bench.main([*common, "--pairs", "0", "--seed", "1"])
