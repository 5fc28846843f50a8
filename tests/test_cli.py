import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import curvscat
import curvscat.cli as cli
from curvscat import (AsymptoticData, SolverConfig, analysis, geometry,
                      integrate, shooting, verification)
from curvscat.cli import (EXIT_CODE, EXIT_NONSCATTERING, EXIT_OK,
                          EXIT_OUT_OF_BUDGET, EXIT_PARTIAL, EXIT_USAGE,
                          EXIT_VERIFY_FAIL, _json_render,
                          build_parser, main, parse_angle)
from curvscat.closed_forms import free_leg
from curvscat.deflection_table import eta_in_of
from curvscat.integrator import TAIL_PAD, Outcome

from _reference import ORACLE_THETA_ETA8, integrate_samples_loop


@pytest.mark.parametrize("text, value", [
    ("-0.75pi", -0.75 * math.pi),
    ("0.5pi", 0.5 * math.pi),
    ("-pi", -math.pi),
    ("2.5", 2.5),
    ("-2.0944", -2.0944),
    ("-1e-3", -1e-3),
])
def test_parse_angle(text, value):
    assert math.isclose(parse_angle(text), value, rel_tol=1e-15)


def _run(*args):
    return main(list(args))


def test_solve_emits_files_and_summary(tmp_path):
    out = tmp_path / "run"
    assert _run("solve", "--eta-in", "8", "--xi-in", "0",
                "--out-dir", str(out)) == EXIT_OK
    for name in ("trajectory.csv", "radial.csv", "summary.json", "manifest.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema"] == "curvscat/summary/v9"
    assert list(summary["fits"]) == ["u_slope", "u_intercept", "k_slope", "k_intercept"]
    assert abs(summary["theta"] - ORACLE_THETA_ETA8) < 1e-6
    assert 2 * math.pi < summary["kappa"] < 4 * math.pi
    assert summary["residuals"]["pokhozaev_rel"] <= 1e-3
    assert summary["drift"] <= 1e-8
    assert summary["events"]["t_half"] < summary["events"]["t0"]
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,xi,eta,xi_dot,eta_dot,energy"
    assert (out / "radial.csv").read_text().splitlines()[0] == "r,u,K"
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"manifest.json", "radial.csv",
                                        "summary.json", "trajectory.csv"}
    assert manifest["version"] == "curvscat 0.1.0"


def test_solve_deterministic_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ("solve", "--eta-in", "6", "--xi-in", "0.5")
    assert _run(*args, "--out-dir", str(a)) == EXIT_OK
    assert _run(*args, "--out-dir", str(b)) == EXIT_OK
    for name in ("trajectory.csv", "radial.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_solve_nonpositive_eta_certified_at_start(tmp_path):
    # eta_in <= 0 goes through integrate like any other datum: its start
    # state is certified and is the one trajectory row
    out = tmp_path / "neg"
    assert _run("solve", "--eta-in", "-1", "--out-dir", str(out)) == EXIT_NONSCATTERING
    summary = json.loads((out / "summary.json").read_text())
    assert summary["outcome"] == "certified"
    assert len((out / "trajectory.csv").read_text().splitlines()) == 2


def test_solve_blowup_branch_via_flags(tmp_path):
    # positive but below the scattering onset: stops at the certificate
    out = tmp_path / "blow"
    assert _run("solve", "--eta-in", "1.0", "--out-dir", str(out)) == EXIT_NONSCATTERING
    summary = json.loads((out / "summary.json").read_text())
    assert summary["outcome"] == "certified"
    assert summary["drift"] <= 1e-8
    assert (out / "trajectory.csv").exists()


@pytest.mark.parametrize("eta_in, keys", [
    ("-1", ["schema", "inputs", "events", "gap", "outcome", "drift", "config"]),
    ("1.0", ["schema", "inputs", "events", "gap", "outcome", "drift", "config"]),
    ("8", ["schema", "inputs", "events", "gap", "theta", "outcome", "drift", "config",
           "kappa", "alpha", "k_star", "fits", "residuals"]),
])
def test_solve_summary_layout(tmp_path, eta_in, keys):
    # the three solve outcomes keep the summary.json layout key for key
    out = tmp_path / "run"
    _run("solve", f"--eta-in={eta_in}", "--out-dir", str(out))
    text = (out / "summary.json").read_text()
    summary = json.loads(text)
    assert list(summary) == keys
    assert summary["schema"] == "curvscat/summary/v9"
    assert summary["inputs"] == {"eta_in": float(eta_in), "xi_in": 0.0}
    assert list(summary["config"]) == list(asdict(SolverConfig()))
    traj = integrate(AsymptoticData(0.0, float(eta_in)), SolverConfig())
    assert summary["drift"] == traj.max_energy_drift
    assert summary["events"]["t0"] == traj.events.t0
    assert summary["outcome"] == traj.outcome.name.lower()
    assert list(summary["events"]) == ["t0", "t_half", "t_m", "certified", "escape"]
    assert summary["gap"] == (None if traj.gap is None else list(traj.gap))
    if eta_in == "-1":
        p = traj.point(0)
        assert text == _json_render({
            "schema": "curvscat/summary/v9",
            "inputs": {"eta_in": -1.0, "xi_in": 0.0},
            "events": {"t0": None, "t_half": None, "t_m": None, "certified": {
                "t": p.t, "xi": p.xi, "eta": p.eta, "xi_dot": p.xi_dot,
                "eta_dot": p.eta_dot}, "escape": None},
            "gap": None,
            "outcome": "certified",
            "drift": traj.max_energy_drift,
            "config": asdict(SolverConfig()),
        }) + "\n"


def test_shoot_summary_layout(tmp_path):
    # a default shot adds the shooting block to the solve layout; its seed
    # is the root, with no evaluation after it
    out = tmp_path / "run"
    assert _run("shoot", "--theta=-0.75pi", "--out-dir", str(out)) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary) == ["schema", "inputs", "events", "gap", "theta", "outcome",
                             "drift", "config", "kappa", "alpha", "k_star",
                             "fits", "residuals", "shooting"]
    assert summary["inputs"] == {"theta_target": -0.75 * math.pi, "root_tol": 1e-8}
    sh = summary["shooting"]
    assert list(sh) == ["theta_target", "theta_achieved", "eta_in",
                        "iterations", "bracket"]
    assert sh["theta_target"] == -0.75 * math.pi
    assert sh["theta_achieved"] == summary["theta"]
    assert sh["eta_in"] == eta_in_of(-0.75 * math.pi)[0]
    assert sh["iterations"] == 0
    assert sh["bracket"] == [sh["eta_in"], sh["eta_in"]]


@pytest.mark.parametrize("eta_in", ["-1", "1.0"])
def test_nonscattering_reason_written_once(tmp_path, eta_in):
    # the outcome names how the run ended, once; the event record carries
    # only the state at the certificate, under the outcome's name
    out = tmp_path / "run"
    assert _run("solve", f"--eta-in={eta_in}", "--out-dir", str(out)) == EXIT_NONSCATTERING
    text = (out / "summary.json").read_text()
    assert text.count(': "certified"') == 1 and Outcome.CERTIFIED.value not in text
    summary = json.loads(text)
    assert summary["outcome"] == "certified" and "blowup" not in text
    assert list(summary["events"]["certified"]) == ["t", "xi", "eta", "xi_dot", "eta_dot"]
    assert summary["events"]["escape"] is None


@pytest.mark.parametrize("args, outcome", [
    (("--eta-in", "8"), Outcome.ESCAPED),
    (("--eta-in", "1.0"), Outcome.CERTIFIED),
    (("--eta-in", "8", "--max-time", "19"), Outcome.OUT_OF_BUDGET),
    (("--eta-in", "8", "--max-time", "1e-300"), Outcome.OUT_OF_BUDGET),
])
def test_summary_names_the_outcome(tmp_path, capsys, args, outcome):
    # one field records how a run ended, the Outcome's name in lower case: a
    # budget stop is out_of_budget, not a blow-up, and no escaped flag or
    # blowup key is written beside it; the events keep the state at the
    # certificate or at escape
    out = tmp_path / "run"
    assert _run("solve", *args, "--out-dir", str(out)) == EXIT_CODE[outcome]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["outcome"] == outcome.name.lower()
    assert "escaped" not in summary and "blowup" not in summary
    assert "blowup" not in summary["events"]
    assert ("theta" in summary) is (outcome is Outcome.ESCAPED)
    assert (summary["events"]["certified"] is None) is (outcome is not Outcome.CERTIFIED)
    assert (summary["events"]["escape"] is None) is (outcome is not Outcome.ESCAPED)
    if outcome is not Outcome.ESCAPED:
        assert capsys.readouterr().out == f"non-scattering: {outcome.value}\n"


def test_solve_deep_end_scatters(tmp_path):
    # the start moves down with eta_in, so the free start state stays accurate
    out = tmp_path / "deep"
    assert _run("solve", "--eta-in", "1e5", "--out-dir", str(out)) == EXIT_OK
    assert math.isfinite(json.loads((out / "summary.json").read_text())["theta"])


def test_solve_leaves_the_gap_out_and_records_it(tmp_path):
    # after escape the motion is the straight free leg: no row strictly
    # inside the gap is written, and the escape state in summary.json
    # rebuilds any of them as a window without the gap holds it
    out = tmp_path / "run"
    assert _run("solve", "--eta-in", "21", "--out-dir", str(out)) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    ev, (lo, hi) = summary["events"], summary["gap"]
    e = ev["escape"]
    assert lo == e["t"] + TAIL_PAD and hi == ev["t0"] - TAIL_PAD
    for name in ("trajectory.csv", "radial.csv"):
        rows = np.loadtxt(out / name, delimiter=",", skiprows=1)
        t = rows[:, 0] if name == "trajectory.csv" else np.log(rows[:, 0])
        assert len(rows) < 5000 and not np.any((t > lo + 1e-9) & (t < hi - 1e-9))
    ts, _, Y = integrate_samples_loop(AsymptoticData(0.0, 21.0), SolverConfig())
    k = len(ts) // 2
    assert lo < ts[k] < hi
    y = free_leg((e["xi"], e["xi_dot"], e["eta"], e["eta_dot"]), ts[k] - e["t"])
    assert tuple(map(float, y)) == tuple(Y[:, k])


def _subparsers():
    return build_parser()._subparsers._group_actions[0].choices


def test_one_solver_flag_per_config_field(tmp_path):
    # every subcommand that integrates ends with --out-dir and one flag per
    # SolverConfig field, in field order, defaulting to the field's default;
    # flow, which integrates nothing, ends with --out-dir.  The config echo
    # lists the same fields
    config = fields(SolverConfig)
    subparsers = _subparsers()
    assert set(subparsers) == {"solve", "shoot", "sweep", "verify", "flow"}
    for name, sub in subparsers.items():
        flags = [a for a in sub._actions if a.option_strings]
        k = [a.option_strings for a in flags].index(["--out-dir"])
        assert [(a.option_strings, a.dest, a.default) for a in flags[k + 1:]] == [
            (["--" + f.name.replace("_", "-")], f.name, f.default)
            for f in config if name != "flow"], name
    out = tmp_path / "run"
    assert _run("solve", "--eta-in", "8", "--out-dir", str(out)) == EXIT_OK
    echo = json.loads((out / "summary.json").read_text())["config"]
    assert list(echo) == [f.name for f in config]


def test_flow_has_only_its_own_settings():
    # --out-dir and flow's five settings, nothing else: the anchor's nu0 is
    # -sqrt(1 - mu0^2), the one value the anchor check admits
    flow = _subparsers()["flow"]
    assert [a.dest for a in flow._actions if a.option_strings][1:] == [
        "mu0", "delta", "epsilon", "tol", "max_iter", "out_dir"]


def test_every_settable_value_acts():
    # the window past escape is two constants, the search's upper end one
    # (shooting.CEILING), the stepper has no tolerance and flow's nu0 is
    # derived, so each command offers only values that change what it reports
    counts = {name: sum(1 for a in sub._actions if a.option_strings and a.dest != "help")
              for name, sub in _subparsers().items()}
    assert counts == {"solve": 6, "shoot": 6, "sweep": 8, "verify": 5, "flow": 6}
    assert [f.name for f in fields(SolverConfig)] == [
        "escape_tol", "max_time", "dense_step"]


def test_no_radial_data_has_one_text(tmp_path, capsys):
    # eta_in 30 and the root of -0.99pi escape with their eta = 0 crossing
    # past max_time: solve notes it, and sweep and verify, which need the
    # radial data, fail naming the same budget
    note = geometry.NO_RADIAL_DATA
    assert _run("solve", "--eta-in", "30", "--out-dir", str(tmp_path / "solve")) == EXIT_OK
    assert json.loads((tmp_path / "solve" / "summary.json").read_text())["note"] == note
    assert _run("sweep", "--theta-min=-0.99pi", "--theta-max=-0.99pi", "--n", "1",
                "--out-dir", str(tmp_path / "sweep")) == EXIT_PARTIAL
    row, = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["rows"]
    assert row["status"] == f"failed: {note}"
    assert _run("verify", "--eta-in", "30",
                "--out-dir", str(tmp_path / "verify")) == EXIT_VERIFY_FAIL
    item, = json.loads((tmp_path / "verify" / "verify_report.json").read_text())["items"]
    assert (item["name"], item["detail"]) == ("accepted scattering solution", note)


@pytest.mark.parametrize("flag", [f.name.replace("_", "-")
                                  for f in fields(SolverConfig)] + ["rel-tol"])
def test_flow_rejects_solver_flags(tmp_path, capsys, flag):
    # flow integrates nothing: a solver flag would be recorded without
    # acting, so it is a usage error and no directory is made; so is the
    # retired --rel-tol, as in every command
    out = tmp_path / "flow"
    assert _run("flow", "--mu0", "-0.7", "--delta", "1e-4", f"--{flag}", "1",
                "--out-dir", str(out)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: unrecognized arguments: ")
    assert f"--{flag}" in err
    assert not out.exists()


def test_parser_defaults_are_the_library_constants():
    # each default that a command and the library share is defined once
    sub = _subparsers()
    defaults = {(name, a.dest): a.default for name, p in sub.items()
                for a in p._actions}
    assert defaults["shoot", "root_tol"] is shooting.DEFAULT_ROOT_TOL
    assert defaults["sweep", "root_tol"] is shooting.DEFAULT_ROOT_TOL
    assert defaults["verify", "eta_in"] is verification.DEFAULT_ETA_VALUES
    assert defaults["flow", "epsilon"] is analysis.DEFAULT_EPSILON
    assert defaults["flow", "tol"] is analysis.DEFAULT_TOL
    assert defaults["flow", "max_iter"] is analysis.DEFAULT_MAX_ITER
    # the library's functions take the same defaults
    for fn, name, value in [
            (shooting.shoot, "root_tol", shooting.DEFAULT_ROOT_TOL),
            (shooting.sweep, "root_tol", shooting.DEFAULT_ROOT_TOL),
            (verification.run_suite, "eta_values", verification.DEFAULT_ETA_VALUES),
            (analysis.GradientFlowState, "epsilon", analysis.DEFAULT_EPSILON),
            (analysis.gradient_flow_run, "tol", analysis.DEFAULT_TOL),
            (analysis.gradient_flow_run, "max_iter", analysis.DEFAULT_MAX_ITER)]:
        assert inspect.signature(fn).parameters[name].default is value, fn


def test_usage_errors_exit_1(capsys):
    assert _run("solve") == EXIT_USAGE
    assert _run("sweep", "--theta-min", "-0.8pi") == EXIT_USAGE
    assert _run() == EXIT_USAGE


def test_shoot_with_pi_literal(tmp_path):
    out = tmp_path / "shoot"
    assert _run("shoot", "--theta", "-0.75pi", "--root-tol", "1e-6",
                "--out-dir", str(out)) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    sh = summary["shooting"]
    assert abs(sh["theta_achieved"] + 0.75 * math.pi) <= 1e-6
    assert sh["bracket"][0] <= sh["eta_in"] <= sh["bracket"][1]
    assert (out / "radial.csv").exists()


def test_shoot_bracket_failure_exit_2(tmp_path, monkeypatch):
    monkeypatch.setattr(shooting, "CEILING", 10.0)
    out = tmp_path / "fail"
    assert _run("shoot", "--theta", "-0.99pi",
                "--out-dir", str(out)) == EXIT_NONSCATTERING
    summary = json.loads((out / "summary.json").read_text())
    assert "error" in summary and summary["scanned"]


def test_sweep_files_and_partial_exit(tmp_path, monkeypatch):
    out = tmp_path / "sweep"
    code = _run("sweep", "--theta-min", "-0.8pi", "--theta-max", "-0.75pi",
                "--n", "2", "--root-tol", "1e-6", "--out-dir", str(out))
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "theta,eta_in,kappa,alpha,k_star,pokhozaev_residual,energy_drift"
    assert len(lines) == 3
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    assert all(r["status"] == "ok" for r in rows)

    monkeypatch.setattr(shooting, "CEILING", 10.0)
    out2 = tmp_path / "sweep_fail"
    code = _run("sweep", "--theta-min", "-0.99pi", "--theta-max", "-0.75pi",
                "--n", "2", "--root-tol", "1e-6", "--out-dir", str(out2))
    assert code == EXIT_PARTIAL
    rows = json.loads((out2 / "sweep.json").read_text())["rows"]
    assert rows[0]["status"].startswith("failed")
    assert rows[1]["status"] == "ok"


def test_ceiling_below_the_onset_is_an_outcome(tmp_path, capsys, monkeypatch):
    # a ceiling of 1e-7 lies below every root: shoot fails as a search
    # (exit 2) and sweep records a failed row (exit 3)
    monkeypatch.setattr(shooting, "CEILING", 1e-7)
    out = tmp_path / "shoot"
    assert _run("shoot", "--theta", "-0.75pi",
                "--out-dir", str(out)) == EXIT_NONSCATTERING
    summary = json.loads((out / "summary.json").read_text())
    assert "no root up to the ceiling" in summary["error"]
    assert [s["eta_in"] for s in summary["scanned"]] == [1e-7]
    out = tmp_path / "sweep"
    assert _run("sweep", "--theta-min", "-0.8pi", "--theta-max", "-0.75pi",
                "--n", "2", "--out-dir", str(out)) == EXIT_PARTIAL
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    assert all("no root up to the ceiling" in r["status"] for r in rows)


@pytest.mark.parametrize("n", ["0", "-1"])
def test_sweep_n_below_one_is_usage_error(tmp_path, capsys, n):
    out = tmp_path / "sweep"
    assert _run("sweep", "--theta-min", "-0.8pi", "--theta-max", "-0.75pi",
                "--n", n, "--out-dir", str(out)) == EXIT_USAGE
    assert "at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (("shoot", "--theta", "-0.75pi", "--root-tol", "nan"), "--root-tol"),
    (("shoot", "--theta", "-0.75pi", "--root-tol", "0"), "--root-tol"),
    (("shoot", "--theta", "-0.75pi", "--root-tol", "-1"), "--root-tol"),
    (("shoot", "--theta", "-0.75pi", "--eta-ceiling", "10"), "--eta-ceiling"),
    (("shoot", "--theta", "-0.75pi", "--eta-ceiling", "nan"), "--eta-ceiling"),
    (("shoot", "--theta", "-0.75pi", "--eta-ceiling", "inf"), "ceiling"),
    (("sweep", "--theta-min", "-0.8pi", "--theta-max", "-0.75pi", "--n", "2",
      "--root-tol", "inf"), "--root-tol"),
    (("sweep", "--theta-min", "-0.8pi", "--theta-max", "-0.75pi", "--n", "2",
      "--eta-ceiling", "-5"), "--eta-ceiling"),
    (("flow", "--mu0", "-0.999", "--delta", "1e-6", "--max-iter", "-1"),
     "--max-iter"),
    (("flow", "--mu0", "-0.999", "--delta", "nan"), "delta"),
    (("flow", "--mu0", "-0.999", "--delta", "inf"), "delta"),
    (("flow", "--mu0", "-0.999", "--delta", "1e-6", "--tol", "nan"), "--tol"),
    (("flow", "--mu0", "-0.999", "--delta", "1e-6", "--tol", "-1"), "--tol"),
    (("verify", "--eta-in"), "--eta-in"),
    (("sweep", "--theta-min", "-0.8pi", "--theta-max", "-0.75pi", "--n", "2",
      "--eta-ceiling", "inf"), "ceiling"),
    (("solve", "--eta-in", "8", "--rel-tol", "1e-14"),
     "usage error: unrecognized arguments: --rel-tol 1e-14\n"),
    (("solve", "--eta-in", "8", "--tail-pad", "30"), "unrecognized arguments: --tail-pad"),
    (("verify", "--eta-in", "8", "--min-tail", "5"), "unrecognized arguments: --min-tail"),
    (("flow", "--mu0", "-0.6", "--nu0", "-0.8", "--delta", "1e-4"),
     "unrecognized arguments: --nu0"),
    (("sweep", "--theta-min=-0.9pi", "--theta-max=-0.6pi", "--n", "1"),
     "usage error: --n 1 runs --theta-min alone: give equal ends"),
    (("flow", "--mu0", "-1.5", "--delta", "1e-4"), "error: mu0 must lie in (-1, 0), got -1.5\n"),
    (("flow", "--mu0", "0.5", "--delta", "1e-4"), "error: mu0 must lie in (-1, 0), got 0.5\n"),
    (("flow", "--mu0", "-1", "--delta", "1e-4"), "error: mu0 must lie in (-1, 0), got -1.0\n"),
    *(pytest.param(args + (f"--{flag}", "1e-12"),
                   f"usage error: unrecognized arguments: --{flag} 1e-12\n",
                   id=f"{flag}-{args[0]}")
      for flag in ("abs-tol", "rel-tol")
      for args in [("solve", "--eta-in", "8"), ("shoot", "--theta=-0.75pi"),
                   ("sweep", "--theta-min=-0.9pi", "--theta-max=-0.6pi", "--n", "2"),
                   ("verify", "--eta-in", "8"), ("flow", "--mu0", "-0.7", "--delta", "1e-4")]),
])
def test_bad_search_and_flow_arguments_are_usage_errors(tmp_path, capsys,
                                                        args, message):
    # bad search arguments, flow inputs that are not finite, a negative
    # flow budget and a verify with no data are usage errors, raised before
    # any directory is made.  So is every setting that would not act as
    # recorded: the window flags, flow's --nu0, --eta-ceiling (now
    # shooting.CEILING), --abs-tol and --rel-tol (the Taylor stepper keeps
    # the motion to round-off and takes no tolerance), which are gone, and
    # a one-row sweep between two angles.
    # Each is refused with one message even when warnings are errors
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(*args, "--out-dir", str(out)) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ("shoot", "--theta=-0.4pi"),
    ("solve", "--eta-in", "8", "--rel-tol", "-1"),
    ("solve", "--eta-in", "nan"),
    ("sweep", "--theta-min", "abc", "--theta-max", "-0.6pi", "--n", "2"),
    ("verify", "--eta-in", "8", "--dense-step", "0"),
    ("solve", "--eta-in", "8", "--escape-tol", "inf"),
    ("shoot", "--theta=-0.75pi", "--escape-tol", "inf"),
    ("solve", "--eta-in", "8", "--max-time", "inf"),
    ("solve", "--eta-in", "8", "--rel-tol", "inf"),
    ("solve", "--eta-in", "8", "--abs-tol", "inf"),
    ("solve", "--eta-in", "8", "--dense-step", "5"),
    ("shoot", "--theta=-0.75pi", "--dense-step", "5"),
    ("solve", "--eta-in", "8", "--t-start-offset", "14"),
    ("verify", "--eta-in", "8", "nan"),
    ("solve", "--eta-in", "8", "--xi-in", "800"),
    ("shoot", "--theta=-0.9942859980795938pi", "--max-time=3704.941172621771"),
])
def test_bad_inputs_make_no_out_dir(tmp_path, capsys, args):
    # the target margin, solver flags, data and angles are checked before
    # any directory is made; so is the summary, which a grid too coarse for
    # the quadrature (--dense-step 5) fails, or a window whose r = exp(t)
    # is no normal double (xi_in 800, or a deep shot past t = 709), and so
    # is a verify whose last datum fails after the suite has run on the first
    out = tmp_path / "run"
    assert _run(*args, "--out-dir", str(out)) == EXIT_USAGE
    assert not out.exists()


def test_window_past_709_is_a_named_failure(tmp_path, capsys):
    # a window that passes t = 709, where r = exp(t) is no longer a double,
    # fails the sweep's row and verify's "accepted scattering solution"
    # item by name, pointing to ln r storage; the other rows and data run
    item5 = "needs r stored as ln r (ROADMAP item 5)"
    out = tmp_path / "sweep"
    assert _run("sweep", "--theta-min=-0.99pi", "--theta-max=-0.75pi", "--n", "2",
                "--max-time", "3000", "--out-dir", str(out)) == EXIT_PARTIAL
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    assert rows[0]["status"].endswith(item5) and rows[1]["status"] == "ok"
    out = tmp_path / "verify"
    assert _run("verify", "--eta-in", "8", "34.9", "--max-time", "3000",
                "--out-dir", str(out)) == EXIT_VERIFY_FAIL
    items = json.loads((out / "verify_report.json").read_text())["items"]
    failed, = [r for r in items if not r["passed"]]
    assert failed["name"] == "accepted scattering solution"
    assert failed["eta_in"] == 34.9 and failed["detail"].endswith(item5)


def test_coarse_grid_error_names_dense_step(tmp_path, capsys):
    out = tmp_path / "run"
    assert _run("solve", "--eta-in", "8", "--dense-step", "5",
                "--out-dir", str(out)) == EXIT_USAGE
    assert "--dense-step" in capsys.readouterr().err
    assert not out.exists()


def test_dense_step_beyond_the_window_names_dense_step(tmp_path, capsys):
    # one regular sample: too few for the quadrature
    out = tmp_path / "run"
    assert _run("solve", "--eta-in", "8", "--dense-step", "1000",
                "--out-dir", str(out)) == EXIT_USAGE
    assert "--dense-step" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [("solve", "--eta-in", "8"),
                                     ("shoot", "--theta=-0.75pi")])
def test_sample_grid_beyond_memory_names_dense_step(tmp_path, capsys, command):
    # about 1e17 samples: beyond any address space, so the allocation fails
    # at once and takes no memory
    out = tmp_path / "run"
    assert _run(*command, "--dense-step", "1e-15", "--out-dir", str(out)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert re.match(r"error: \d+ samples at dense_step = 1e-15 .*--dense-step", err)
    assert not out.exists()


def test_verify_sample_grid_beyond_memory_fails_an_item(tmp_path):
    out = tmp_path / "verify"
    assert _run("verify", "--eta-in", "8", "--dense-step", "1e-15",
                "--out-dir", str(out)) == EXIT_VERIFY_FAIL
    (item,) = json.loads((out / "verify_report.json").read_text())["items"]
    assert item["name"] == "accepted scattering solution" and not item["passed"]
    assert "--dense-step" in item["detail"]


@pytest.mark.parametrize("args", [
    ("solve", "--eta-in", "12", "--max-time", "160"),
    ("solve", "--eta-in", "8", "--max-time", "80.3"),
    ("solve", "--eta-in", "24.2"),
])
def test_short_tail_past_t0_still_solves(tmp_path, args):
    # t0 lies less than 10 before the end of the samples; the tail lines
    # need no window there
    out = tmp_path / "run"
    assert _run(*args, "--out-dir", str(out)) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["fits"]["u_slope"] < 0.0 > summary["fits"]["k_slope"]
    assert (out / "radial.csv").exists()


def test_verify_short_tail_past_t0(tmp_path):
    out = tmp_path / "verify"
    assert _run("verify", "--eta-in", "24.2", "--out-dir", str(out)) == EXIT_OK


def test_flow_zero_iterations_evaluates_once(tmp_path):
    out = tmp_path / "flow0"
    assert _run("flow", "--mu0", "-0.999", "--delta", "1e-6", "--max-iter", "0",
                "--out-dir", str(out)) != EXIT_USAGE
    summary = json.loads((out / "flow_summary.json").read_text())
    assert summary["iterations"] == 0
    assert len((out / "flow.csv").read_text().splitlines()) == 2


def test_flow_records_what_it_ran(tmp_path, capsys):
    # a flow that stops at max_iter reports the last flow.csv row, and its
    # inputs record that budget, in flow_summary.json and in the manifest
    out = tmp_path / "flow2"
    assert _run("flow", "--mu0", "-0.7", "--delta", "1e-4", "--max-iter", "2",
                "--out-dir", str(out)) == EXIT_NONSCATTERING
    summary = json.loads((out / "flow_summary.json").read_text())
    assert summary["schema"] == "curvscat/flow/v2"
    assert summary["inputs"]["max_iter"] == 2
    assert json.loads((out / "manifest.json").read_text())["inputs"] == summary["inputs"]
    assert summary["iterations"] == 2 and not summary["converged"]
    last = (out / "flow.csv").read_text().splitlines()[-1].split(",")
    fp = summary["fixed_point"]
    assert last == ["2"] + [format(v, ".12g") for v in
                            (fp["mu"], fp["nu"], summary["grad_norm"])]
    assert last[1:] == ["-0.699972307848", "-0.714169986009", "0.000165321420677"]
    assert capsys.readouterr().out == (
        f"fixed point = ({fp['mu']:.12g}, {fp['nu']:.12g})"
        "  converged = False  in_quadrant = True\n")


def test_verify_single_eta(tmp_path):
    out = tmp_path / "verify"
    assert _run("verify", "--eta-in", "6", "--out-dir", str(out)) == EXIT_OK
    report = json.loads((out / "verify_report.json").read_text())
    assert report["passed"] is True
    assert len(report["items"]) == 9
    names = {i["name"] for i in report["items"]}
    assert "forbidden-zone confinement" in names
    assert "monotone past iteration" in names


def test_parser_built_once_and_reused(tmp_path):
    # after a shoot in this process, a verify with no --eta-in writes the
    # report a fresh process writes
    assert build_parser() is build_parser()
    assert _run("shoot", "--theta=-0.75pi", "--out-dir", str(tmp_path / "shoot")) == EXIT_OK
    assert _run("verify", "--out-dir", str(tmp_path / "here")) == EXIT_OK
    src = str(Path(curvscat.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-m", "curvscat.cli", "verify",
                    "--out-dir", str(tmp_path / "fresh")], check=True,
                   capture_output=True, env=dict(os.environ, PYTHONPATH=src))
    report = "verify_report.json"
    assert (tmp_path / "here" / report).read_bytes() == (tmp_path / "fresh" / report).read_bytes()


def test_command_path_imports_no_scipy():
    # scipy.integrate alone took most of a fresh command's time; picard
    # loads scipy.linalg only when it marches
    src = str(Path(curvscat.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, curvscat.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        check=True, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_flow_command(tmp_path):
    out = tmp_path / "flow"
    assert _run("flow", "--mu0", "-0.999", "--delta", "1e-6",
                "--epsilon", "0.1", "--out-dir", str(out)) == EXIT_OK
    summary = json.loads((out / "flow_summary.json").read_text())
    assert summary["converged"] and summary["stayed_in_quadrant"]
    assert summary["fixed_point"]["mu"] < 0.0 > summary["fixed_point"]["nu"]
    lines = (out / "flow.csv").read_text().splitlines()
    assert lines[0] == "n,mu,nu,grad_norm"
    assert len(lines) >= 3


def test_flow_quadrant_exit_code(tmp_path):
    out = tmp_path / "flowbad"
    assert _run("flow", "--mu0", "-0.1", "--delta", "1.0",
                "--out-dir", str(out)) == EXIT_NONSCATTERING


def test_json_float_17_digits(tmp_path):
    out = tmp_path / "digits"
    _run("solve", "--eta-in", "8", "--out-dir", str(out))
    text = (out / "summary.json").read_text()
    # theta is emitted with 17 significant digits
    line = next(l for l in text.splitlines() if '"theta"' in l)
    digits = line.split(":")[1].strip().rstrip(",").replace("-", "").replace(".", "")
    assert len(digits) == 17


@pytest.mark.parametrize("args, code, written", [
    (("solve", "--eta-in", "8"), EXIT_OK,
     {"trajectory.csv", "radial.csv", "summary.json"}),
    (("solve", "--eta-in", "30"), EXIT_OK, {"trajectory.csv", "summary.json"}),
    (("solve", "--eta-in", "1.0"), EXIT_NONSCATTERING,
     {"trajectory.csv", "summary.json"}),
    (("solve", "--eta-in", "8", "--max-time", "19"), EXIT_OUT_OF_BUDGET,
     {"trajectory.csv", "summary.json"}),
    (("shoot", "--theta=-0.75pi"), EXIT_OK,
     {"trajectory.csv", "radial.csv", "summary.json"}),
    (("shoot", "--theta=-0.75pi", "--max-time", "5"), EXIT_NONSCATTERING,
     {"summary.json"}),
    (("sweep", "--theta-min=-0.9pi", "--theta-max=-0.51pi", "--n", "2",
      "--max-time", "30"), EXIT_PARTIAL, {"sweep.csv", "sweep.json"}),
    (("verify", "--eta-in", "8"), EXIT_OK, {"verify_report.json"}),
    (("verify", "--eta-in", "30"), EXIT_VERIFY_FAIL, {"verify_report.json"}),
    (("flow", "--mu0", "-0.7", "--delta", "1e-4"), EXIT_OK,
     {"flow.csv", "flow_summary.json"}),
    (("flow", "--mu0", "-0.1", "--delta", "1.0"), EXIT_NONSCATTERING,
     {"flow.csv", "flow_summary.json"}),
])
def test_manifest_lists_exactly_the_files_written(tmp_path, args, code, written):
    # every command and every way it ends: the directory holds the files
    # the manifest names, no more and no fewer
    out = tmp_path / "run"
    assert _run(*args, "--out-dir", str(out)) == code
    manifest = json.loads((out / "manifest.json").read_text())
    outputs = manifest["outputs"]
    assert outputs == sorted(written | {"manifest.json"})
    assert sorted(os.listdir(out)) == outputs
    # the config is recorded in the data files alone
    assert manifest["schema"] == "curvscat/manifest/v4"
    assert list(manifest) == ["schema", "command", "argv", "inputs", "outputs",
                              "version", "timestamp"]


def test_writers_are_looked_up_when_called(tmp_path, monkeypatch):
    # the benchmark's tracer wraps these module attributes after import, so
    # a command must reach its writers through them; write_manifest writes
    # its JSON through write_json too
    seen = []
    for name in ("write_trajectory_csv", "write_radial_csv", "write_json",
                 "write_manifest"):
        def recording(*a, _name=name, _fn=getattr(cli, name)):
            seen.append(_name)
            return _fn(*a)
        monkeypatch.setattr(cli, name, recording)
    assert _run("shoot", "--theta=-0.75pi", "--out-dir", str(tmp_path)) == EXIT_OK
    assert seen == ["write_trajectory_csv", "write_radial_csv", "write_json",
                    "write_manifest", "write_json"]


@pytest.mark.parametrize("args", [
    ("verify", "--eta-in", "8"),
    ("solve", "--eta-in", "8"),
    ("solve", "--eta-in", "1.0"),
    ("sweep", "--theta-min=-0.9pi", "--theta-max=-0.6pi", "--n", "2"),
])
def test_shallow_field_dicts_write_the_json_of_asdict(tmp_path, monkeypatch, args):
    # every field written is a scalar, so skipping asdict's deep copy
    # changes no byte of any JSON file (manifest.json differs only in its
    # timestamp and out-dir)
    for name in ("shallow", "deep"):
        if name == "deep":
            monkeypatch.setattr(cli, "_field_dict", asdict)
        _run(*args, "--out-dir", str(tmp_path / name))
    files = sorted(p.name for p in (tmp_path / "shallow").glob("*.json"))
    assert len(files) >= 2
    for f in files:
        shallow = (tmp_path / "shallow" / f).read_text()
        deep = (tmp_path / "deep" / f).read_text()
        if f == "manifest.json":
            shallow, deep = (re.sub(r'"(timestamp|argv)": .*', "", s)
                             for s in (shallow, deep))
        assert shallow == deep, f


def test_verify_failure_exit_4(tmp_path):
    out = tmp_path / "vfail"
    assert _run("verify", "--eta-in", "1.0",
                "--out-dir", str(out)) == EXIT_VERIFY_FAIL
    report = json.loads((out / "verify_report.json").read_text())
    assert report["passed"] is False


def test_every_outcome_has_an_exit_code_and_a_search_decision():
    # a new way for a run to end must be mapped before any command meets it;
    # the search raises on a solver failure and takes any other run with no
    # angle for a lower end, so it decides every outcome
    assert set(EXIT_CODE) == set(Outcome)


@pytest.mark.parametrize("args, outcome", [
    (("--eta-in", "1.0"), Outcome.CERTIFIED),
    (("--eta-in", "8", "--max-time", "19"), Outcome.OUT_OF_BUDGET),
])
def test_non_escaped_runs_name_their_outcome(tmp_path, capsys, args, outcome):
    # solve prints the outcome's reason and exits with its code, which tells
    # a certified run from a budget stop; verify's failed item names the
    # same reason
    assert _run("solve", *args, "--out-dir", str(tmp_path / "s")) == EXIT_CODE[outcome]
    assert EXIT_CODE[outcome] == {Outcome.CERTIFIED: EXIT_NONSCATTERING,
                                  Outcome.OUT_OF_BUDGET: EXIT_OUT_OF_BUDGET}[outcome]
    assert capsys.readouterr().out == f"non-scattering: {outcome.value}\n"
    out = tmp_path / "v"
    assert _run("verify", *args, "--out-dir", str(out)) == EXIT_VERIFY_FAIL
    (item,) = json.loads((out / "verify_report.json").read_text())["items"]
    assert item["name"] == "accepted scattering solution" and not item["passed"]
    assert outcome.value in item["detail"]


def test_solver_failure_outcomes(tmp_path, capsys, failing_solver):
    # solve and shoot exit with the solver failure's code and message, a
    # sweep row records it, and verify fails its item but writes its report
    message = "solver failure: Required step size is too small."
    for args in (("solve", "--eta-in", "8"), ("shoot", "--theta=-0.75pi")):
        out = tmp_path / args[0]
        assert _run(*args, "--out-dir", str(out)) == EXIT_CODE[Outcome.SOLVER_FAILURE]
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    assert EXIT_CODE[Outcome.SOLVER_FAILURE] == EXIT_USAGE
    out = tmp_path / "sweep"
    assert _run("sweep", "--theta-min=-0.75pi", "--theta-max=-0.75pi", "--n", "1",
                "--out-dir", str(out)) == EXIT_PARTIAL
    (row,) = json.loads((out / "sweep.json").read_text())["rows"]
    assert row["status"] == f"failed: {message}"
    out = tmp_path / "verify"
    assert _run("verify", "--eta-in", "8", "--out-dir", str(out)) == EXIT_VERIFY_FAIL
    (item,) = json.loads((out / "verify_report.json").read_text())["items"]
    assert item == {"name": "accepted scattering solution", "eta_in": 8.0,
                    "passed": False, "detail": message}


def test_a_budget_below_the_start_times_spacing_runs_out_of_budget(tmp_path, capsys,
                                                                     failing_solver):
    # t_start + 1e-300 == t_start, so no run can leave the start time: each
    # command reports it as out of budget, as at --max-time 1e-14, and no
    # solver is called
    budget = ("--max-time", "1e-300")
    reason = Outcome.OUT_OF_BUDGET.value
    assert _run("solve", "--eta-in", "8", *budget,
                "--out-dir", str(tmp_path / "solve")) == EXIT_OUT_OF_BUDGET
    assert capsys.readouterr().out == f"non-scattering: {reason}\n"
    assert _run("shoot", "--theta=-0.75pi", *budget,
                "--out-dir", str(tmp_path / "shoot")) == EXIT_NONSCATTERING
    assert capsys.readouterr().out.startswith("bracket not found: no bracket for theta")
    out = tmp_path / "sweep"
    assert _run("sweep", "--theta-min=-0.75pi", "--theta-max=-0.75pi", "--n", "1", *budget,
                "--out-dir", str(out)) == EXIT_PARTIAL
    (row,) = json.loads((out / "sweep.json").read_text())["rows"]
    assert row["status"].startswith("failed: no bracket for theta")
    out = tmp_path / "verify"
    assert _run("verify", "--eta-in", "8", *budget, "--out-dir", str(out)) == EXIT_VERIFY_FAIL
    (item,) = json.loads((out / "verify_report.json").read_text())["items"]
    assert item["name"] == "accepted scattering solution" and not item["passed"]
    assert reason in item["detail"]
    assert failing_solver == []


def test_energy_is_computed_once(tmp_path, monkeypatch):
    # a solve's drift and its CSV energy column share one evaluation;
    # verify reports neither and makes none
    import curvscat.integrator as integrator
    energy_array, calls = integrator.energy_array, []

    def counting(*args):
        calls.append(args)
        return energy_array(*args)
    monkeypatch.setattr(integrator, "energy_array", counting)
    assert _run("solve", "--eta-in", "8", "--out-dir", str(tmp_path / "solve")) == EXIT_OK
    assert len(calls) == 1
    calls.clear()
    assert _run("verify", "--eta-in", "8", "--out-dir", str(tmp_path / "verify")) == EXIT_OK
    assert calls == []
