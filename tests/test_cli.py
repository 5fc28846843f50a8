import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest

import curvscat
import curvscat.cli as cli
from curvscat import AsymptoticData, SolverConfig, integrate, shooting
from curvscat.cli import (EXIT_CODE, EXIT_NONSCATTERING, EXIT_OK, EXIT_PARTIAL,
                          EXIT_USAGE, EXIT_VERIFY_FAIL, _json_render,
                          build_parser, main, parse_angle)
from curvscat.deflection_table import eta_in_of
from curvscat.integrator import Outcome

from _reference import ORACLE_THETA_ETA8


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
    assert summary["schema"] == "curvscat/summary/v4"
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
    assert summary["blowup"]["reason"] == Outcome.CERTIFIED.value
    assert len((out / "trajectory.csv").read_text().splitlines()) == 2


def test_solve_blowup_branch_via_flags(tmp_path):
    # positive but below the scattering onset: stops at the certificate
    out = tmp_path / "blow"
    assert _run("solve", "--eta-in", "1.0", "--out-dir", str(out)) == EXIT_NONSCATTERING
    summary = json.loads((out / "summary.json").read_text())
    assert summary["blowup"]["reason"] == Outcome.CERTIFIED.value
    assert summary["drift"] <= 1e-8
    assert (out / "trajectory.csv").exists()


@pytest.mark.parametrize("eta_in, keys", [
    ("-1", ["schema", "inputs", "events", "escaped", "blowup", "drift", "config"]),
    ("1.0", ["schema", "inputs", "events", "escaped", "blowup", "drift", "config"]),
    ("8", ["schema", "inputs", "events", "theta", "escaped", "drift", "config",
           "kappa", "alpha", "k_star", "fits", "residuals"]),
])
def test_solve_summary_layout(tmp_path, eta_in, keys):
    # the three solve outcomes keep the summary.json layout key for key
    out = tmp_path / "run"
    _run("solve", f"--eta-in={eta_in}", "--out-dir", str(out))
    text = (out / "summary.json").read_text()
    summary = json.loads(text)
    assert list(summary) == keys
    assert summary["schema"] == "curvscat/summary/v4"
    assert summary["inputs"] == {"eta_in": float(eta_in), "xi_in": 0.0}
    assert list(summary["config"]) == list(asdict(SolverConfig()))
    traj = integrate(AsymptoticData(0.0, float(eta_in)), SolverConfig())
    assert summary["drift"] == traj.max_energy_drift
    assert summary["events"]["t0"] == traj.events.t0
    if "blowup" in summary:
        assert summary["escaped"] is False and list(summary["blowup"]) == ["reason"]
    if eta_in == "-1":
        p = traj.point(0)
        assert text == _json_render({
            "schema": "curvscat/summary/v4",
            "inputs": {"eta_in": -1.0, "xi_in": 0.0},
            "events": {"t0": None, "t_half": None, "t_m": None, "blowup": {
                "last_state": {"t": p.t, "xi": p.xi, "eta": p.eta,
                               "xi_dot": p.xi_dot, "eta_dot": p.eta_dot}}},
            "escaped": False,
            "blowup": {"reason": Outcome.CERTIFIED.value},
            "drift": traj.max_energy_drift,
            "config": asdict(SolverConfig()),
        }) + "\n"


def test_shoot_summary_layout(tmp_path):
    # a default shot adds the shooting block to the solve layout; its seed
    # is the root, with no evaluation after it
    out = tmp_path / "run"
    assert _run("shoot", "--theta=-0.75pi", "--out-dir", str(out)) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary) == ["schema", "inputs", "events", "theta", "escaped",
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
    # the top-level blowup record carries the reason; the event record
    # carries only the state at the certificate
    out = tmp_path / "run"
    assert _run("solve", f"--eta-in={eta_in}", "--out-dir", str(out)) == EXIT_NONSCATTERING
    text = (out / "summary.json").read_text()
    assert text.count(Outcome.CERTIFIED.value) == 1
    assert list(json.loads(text)["events"]["blowup"]) == ["last_state"]


def test_solve_deep_end_scatters(tmp_path):
    # the start moves down with eta_in, so the free start state stays accurate
    out = tmp_path / "deep"
    assert _run("solve", "--eta-in", "1e5", "--out-dir", str(out)) == EXIT_OK
    assert math.isfinite(json.loads((out / "summary.json").read_text())["theta"])


def test_one_solver_flag_per_config_field(tmp_path):
    # every subcommand ends with --out-dir and one flag per SolverConfig
    # field, in field order, defaulting to the field's default; the config
    # echo lists the same fields
    config = fields(SolverConfig)
    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert set(subparsers) == {"solve", "shoot", "sweep", "verify", "flow"}
    for name, sub in subparsers.items():
        flags = [a for a in sub._actions if a.option_strings]
        k = [a.option_strings for a in flags].index(["--out-dir"])
        assert [(a.option_strings, a.dest, a.default) for a in flags[k + 1:]] == [
            (["--" + f.name.replace("_", "-")], f.name, f.default)
            for f in config], name
    out = tmp_path / "run"
    assert _run("solve", "--eta-in", "8", "--out-dir", str(out)) == EXIT_OK
    echo = json.loads((out / "summary.json").read_text())["config"]
    assert list(echo) == [f.name for f in config]


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


def test_shoot_bracket_failure_exit_2(tmp_path):
    out = tmp_path / "fail"
    assert _run("shoot", "--theta", "-0.99pi", "--eta-ceiling", "10",
                "--out-dir", str(out)) == EXIT_NONSCATTERING
    summary = json.loads((out / "summary.json").read_text())
    assert "error" in summary and summary["scanned"]


def test_sweep_files_and_partial_exit(tmp_path):
    out = tmp_path / "sweep"
    code = _run("sweep", "--theta-min", "-0.8pi", "--theta-max", "-0.75pi",
                "--n", "2", "--root-tol", "1e-6", "--out-dir", str(out))
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "theta,eta_in,kappa,alpha,k_star,pokhozaev_residual,energy_drift"
    assert len(lines) == 3
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    assert all(r["status"] == "ok" for r in rows)

    out2 = tmp_path / "sweep_fail"
    code = _run("sweep", "--theta-min", "-0.99pi", "--theta-max", "-0.75pi",
                "--n", "2", "--root-tol", "1e-6", "--eta-ceiling", "10",
                "--out-dir", str(out2))
    assert code == EXIT_PARTIAL
    rows = json.loads((out2 / "sweep.json").read_text())["rows"]
    assert rows[0]["status"].startswith("failed")
    assert rows[1]["status"] == "ok"


def test_ceiling_below_the_onset_is_an_outcome(tmp_path, capsys):
    # a ceiling of 1e-7 lies below every root: shoot fails as a search
    # (exit 2) and sweep records a failed row (exit 3)
    out = tmp_path / "shoot"
    assert _run("shoot", "--theta", "-0.75pi", "--eta-ceiling", "1e-7",
                "--out-dir", str(out)) == EXIT_NONSCATTERING
    summary = json.loads((out / "summary.json").read_text())
    assert "no root up to the ceiling" in summary["error"]
    assert [s["eta_in"] for s in summary["scanned"]] == [1e-7]
    out = tmp_path / "sweep"
    assert _run("sweep", "--theta-min", "-0.8pi", "--theta-max", "-0.75pi",
                "--n", "2", "--eta-ceiling", "1e-7",
                "--out-dir", str(out)) == EXIT_PARTIAL
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
    (("shoot", "--theta", "-0.75pi", "--eta-ceiling", "0"), "--eta-ceiling"),
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
])
def test_bad_search_and_flow_arguments_are_usage_errors(tmp_path, capsys,
                                                        args, message):
    # bad search arguments, flow inputs that are not finite, a negative
    # flow budget and a verify with no data are usage errors, raised before
    # any directory is made
    out = tmp_path / "run"
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
    ("solve", "--eta-in", "8", "--max-time", "inf", "--min-tail", "inf"),
    ("solve", "--eta-in", "8", "--rel-tol", "inf"),
    ("solve", "--eta-in", "8", "--abs-tol", "inf"),
    ("solve", "--eta-in", "8", "--dense-step", "5"),
    ("shoot", "--theta=-0.75pi", "--dense-step", "5"),
    ("solve", "--eta-in", "8", "--t-start-offset", "14"),
])
def test_bad_inputs_make_no_out_dir(tmp_path, capsys, args):
    # the target margin, solver flags, data and angles are checked before
    # any directory is made; so is the summary, which a grid too coarse for
    # the quadrature (--dense-step 5) fails
    out = tmp_path / "run"
    assert _run(*args, "--out-dir", str(out)) == EXIT_USAGE
    assert not out.exists()


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
    ("solve", "--eta-in", "8", "--min-tail", "5"),
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
    # a new way for a run to end must be mapped before any command meets it
    assert set(EXIT_CODE) == set(Outcome) == set(shooting._LOWER_END)


@pytest.mark.parametrize("args, outcome", [
    (("--eta-in", "1.0"), Outcome.CERTIFIED),
    (("--eta-in", "8", "--max-time", "19"), Outcome.OUT_OF_BUDGET),
])
def test_non_escaped_runs_name_their_outcome(tmp_path, capsys, args, outcome):
    # solve prints the outcome's reason and exits with its code; verify's
    # failed item names the same reason
    assert _run("solve", *args, "--out-dir", str(tmp_path / "s")) == EXIT_CODE[outcome]
    assert EXIT_CODE[outcome] == EXIT_NONSCATTERING
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
                "--out-dir", str(tmp_path / "solve")) == EXIT_NONSCATTERING
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
