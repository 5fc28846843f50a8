"""A seeded sweep of the command line.

N_COMMANDS commands are drawn from a fixed stdlib random seed over all five
commands and every flag each takes.  A flag's value is log-uniform over
several decades, and one time in ten an edge: a documented limit itself or
a value beyond it (0, a negative, inf, nan, an angle outside the shooting
margin, a one-row sweep between two angles).  Each command runs in-process
with warnings as errors and must keep the command-line contract:
  * cli.main raises nothing;
  * the exit code is a documented one and agrees with what the files say
    of the run (outcome, bracket error, failed rows, passed, converged);
  * the directory is absent or holds exactly the files its manifest lists,
    each written before the manifest;
  * no CSV field is inf or nan, except in a failed sweep row;
  * every flag the parser offers but --out-dir appears in the command's
    record, its config echo or its inputs, with the value given (angles
    after parsing) or its default: a setting that acts is recorded.
The seed is fixed, so the commands are the same on every run.
"""

import json
import math
import os
import random
import warnings
from pathlib import Path

import pytest

import curvscat.cli as cli

SEED = 11
N_COMMANDS = 150

# The flags of each kind and how their values are drawn: (low, high) of the
# log-uniform range, then the edges.
SOLVER_FLAGS = {
    "escape_tol": (1e-14, 1e-2, "0", "inf", "nan"),
    "max_time": (1.0, 1e4, "0", "-1", "1e-300", "inf", "nan"),
    "dense_step": (1e-3, 10.0, "0", "1e-15", "inf", "nan"),
}
SEARCH_FLAGS = {
    "root_tol": (1e-14, 1e-2, "0", "-1", "inf", "nan"),
}
FLOW_FLAGS = {
    "epsilon": (1e-3, 1.0, "0", "1", "-0.1", "nan"),
    "tol": (1e-14, 1e-2, "0", "-1", "inf", "nan"),
}
ETA_EDGES = ("0", "-1", "nan", "inf", "1.2998", "1.31")
ANGLE_EDGES = ("-0.4pi", "-0.5pi", "-pi", "-1.1pi", "nan")
P_FLAG = 0.4        # each optional flag is given with this probability
P_EDGE = 0.1        # and a drawn value is an edge with this one

# Commands whose window passes t = 709, where r = exp(t) is no longer a
# normal double: geometry.to_radial refuses their radial data, so shoot
# exits 1 and verify fails its "accepted scattering solution" item, until
# ROADMAP item 5 stores ln r.  They run beside the draw.
PAST_709 = [
    "shoot --theta=-0.9942859980795938pi --max-time=3704.941172621771",
    "verify --eta-in 5.311917999705203 34.90967361516051 "
    "--max-time=3302.944242045442 --dense-step=0.0014208324048192674",
]


def _pick(rng, low, high, *edges) -> str:
    """One of the edges with probability P_EDGE, else log-uniform on
    [low, high]."""
    if edges and rng.random() < P_EDGE:
        return rng.choice(edges)
    return repr(math.exp(rng.uniform(math.log(low), math.log(high))))


def _signed(rng, negative, low, high, *edges) -> str:
    """_pick's value, negated with probability negative unless an edge."""
    text = _pick(rng, low, high, *edges)
    return "-" + text if text[0].isdigit() and rng.random() < negative else text


def _angle(rng) -> str:
    """An angle in units of pi, log-uniform in its distance, 0.002 to 0.25,
    from one end of (-1, -0.5); within 0.005, the shooting margin, it is
    refused."""
    if rng.random() < P_EDGE:
        return rng.choice(ANGLE_EDGES)
    d = math.exp(rng.uniform(math.log(2e-3), math.log(0.25)))
    return f"{-1.0 + d if rng.random() < 0.5 else -0.5 - d!r}pi"


def _flags(rng, spec) -> list[str]:
    return [f"--{name.replace('_', '-')}={_pick(rng, *drawn)}"
            for name, drawn in spec.items() if rng.random() < P_FLAG]


def _draw(rng) -> list[str]:
    command = rng.choice(("solve", "shoot", "sweep", "verify", "flow"))
    if command == "solve":
        argv = [f"--eta-in={_signed(rng, 0.1, 0.1, 1e3, *ETA_EDGES)}"]
        if rng.random() < P_FLAG:
            argv.append(f"--xi-in={_signed(rng, 0.5, 1e-3, 1e3)}")
    elif command == "shoot":
        argv = [f"--theta={_angle(rng)}", *_flags(rng, SEARCH_FLAGS)]
    elif command == "sweep":
        lo = _angle(rng)
        n = rng.choice(("0", "-1")) if rng.random() < P_EDGE else rng.choice("123")
        hi = lo if n == "1" and rng.random() < 0.7 else _angle(rng)
        argv = [f"--theta-min={lo}", f"--theta-max={hi}", f"--n={n}",
                *_flags(rng, SEARCH_FLAGS)]
    elif command == "verify":
        argv = []
        if rng.random() < P_FLAG:
            argv = ["--eta-in", *(_signed(rng, 0.1, 1.0, 1e2, *ETA_EDGES)
                                  for _ in range(rng.randint(1, 2)))]
    else:
        argv = [f"--mu0={_signed(rng, 0.9, 1e-3, 1.0, '0', '-1', '-1.5', 'nan')}",
                f"--delta={_pick(rng, 1e-9, 1.0, '0', '-1', 'nan', 'inf')}",
                *_flags(rng, FLOW_FLAGS)]
        if rng.random() < P_FLAG:
            argv.append(f"--max-iter={int(float(_pick(rng, 1.0, 1e5, '0', '-1')))}")
        return [command, *argv]
    return [command, *argv, *_flags(rng, SOLVER_FLAGS)]


_rng = random.Random(SEED)
COMMANDS = [_draw(_rng) for _ in range(N_COMMANDS)]


def _given(argv) -> dict:
    """The value texts of each flag in argv, by destination: one for
    --flag=value, the tokens up to the next flag for --flag v1 v2."""
    given, name = {}, None
    for a in argv[1:]:
        if a.startswith("--"):
            name, eq, value = a[2:].partition("=")
            name = name.replace("-", "_")
            given[name] = [value] if eq else []
        else:
            given[name].append(a)
    return given


def _expected_code(command: str, out: Path) -> int:
    """The exit code that the files of a run say it must end with."""
    if command in ("solve", "shoot"):
        summary = json.loads((out / "summary.json").read_text())
        if "error" in summary:          # shoot found no bracket
            return cli.EXIT_NONSCATTERING
        return {"escaped": cli.EXIT_OK, "certified": cli.EXIT_NONSCATTERING,
                "out_of_budget": cli.EXIT_OUT_OF_BUDGET}[summary["outcome"]]
    if command == "sweep":
        rows = json.loads((out / "sweep.json").read_text())["rows"]
        return cli.EXIT_PARTIAL if any(r["status"] != "ok" for r in rows) else cli.EXIT_OK
    if command == "verify":
        passed = json.loads((out / "verify_report.json").read_text())["passed"]
        return cli.EXIT_OK if passed else cli.EXIT_VERIFY_FAIL
    body = json.loads((out / "flow_summary.json").read_text())
    ok = body["converged"] and body["stayed_in_quadrant"]
    return cli.EXIT_OK if ok else cli.EXIT_NONSCATTERING


def _check_csv(out: Path) -> None:
    """No inf or nan field, except in a failed sweep row."""
    failed = set()
    if (out / "sweep.json").exists():
        rows = json.loads((out / "sweep.json").read_text())["rows"]
        failed = {k + 1 for k, r in enumerate(rows) if r["status"] != "ok"}
    for path in out.glob("*.csv"):
        lines = path.read_bytes().split(b"\r\n")
        for k, line in enumerate(lines):
            if k not in failed:
                assert b"inf" not in line and b"nan" not in line, (path.name, k)


# the file holding each command's record, and the record's name for a
# flag's destination where the two differ
RECORD = {"solve": "summary.json", "shoot": "summary.json", "sweep": "sweep.json",
          "verify": "verify_report.json", "flow": "flow_summary.json"}
RECORD_NAME = {"theta": "theta_target"}
ANGLES = ("theta", "theta_min", "theta_max")


def _subparsers() -> dict:
    return cli.build_parser()._subparsers._group_actions[0].choices


def _check_recorded(argv, out: Path) -> None:
    """Every flag the parser offers but --out-dir is in the record, the
    config echo or the inputs, with the value given or its default."""
    command, given = argv[0], _given(argv)
    body = json.loads((out / RECORD[command]).read_text())
    record = {**body["inputs"], **body.get("config", {})}
    for action in _subparsers()[command]._actions:
        if not action.option_strings or action.dest in ("help", "out_dir"):
            continue
        name = action.dest
        if name not in given:
            want = action.default
        else:
            parse = (cli.parse_angle if name in ANGLES
                     else int if name in ("n", "max_iter") else float)
            want = [parse(text) for text in given[name]]
            if action.nargs != "+":
                want, = want
        if isinstance(want, tuple):
            want = list(want)
        key = RECORD_NAME.get(name, name)
        assert key in record and record[key] == want, name


def test_listed_commands_pass_t_709(tmp_path, capsys):
    # each PAST_709 command ends in the named refusal of its radial data
    item5 = "needs r stored as ln r (ROADMAP item 5)"
    for k, text in enumerate(PAST_709):
        out = tmp_path / str(k)
        code = cli.main([*text.split(), "--out-dir", str(out)])
        if text.startswith("shoot"):
            assert code == cli.EXIT_USAGE and not out.exists()
            assert capsys.readouterr().err.strip().endswith(item5)
        else:
            assert code == cli.EXIT_VERIFY_FAIL
            items = json.loads((out / "verify_report.json").read_text())["items"]
            assert [r["detail"].endswith(item5) for r in items if not r["passed"]] == [True]


def test_the_draw_covers_every_flag():
    subparsers = _subparsers()
    offered = {(name, flag) for name, sub in subparsers.items() for a in sub._actions
               for flag in a.option_strings if flag not in ("-h", "--help", "--out-dir")}
    drawn = {(argv[0], a.split("=")[0]) for argv in COMMANDS for a in argv[1:]
             if a.startswith("--")}
    assert drawn == offered


@pytest.mark.parametrize("argv", [
    *(pytest.param(argv, id=str(k)) for k, argv in enumerate(COMMANDS)),
    *(pytest.param(text.split(), id=f"past-709-{text.split()[0]}") for text in PAST_709)])
def test_drawn_command_keeps_the_contract(tmp_path, monkeypatch, argv):
    out = tmp_path / "run"
    manifests = []
    write_manifest = cli.write_manifest

    def spy(out_dir, command, argv, inputs, outputs):
        # every file the manifest lists is written before it
        manifests.append((sorted(os.listdir(out_dir)), sorted(outputs)))
        write_manifest(out_dir, command, argv, inputs, outputs)
    monkeypatch.setattr(cli, "write_manifest", spy)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([*argv, "--out-dir", str(out)])

    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_NONSCATTERING,
                    cli.EXIT_PARTIAL, cli.EXIT_VERIFY_FAIL, cli.EXIT_OUT_OF_BUDGET)
    if code == cli.EXIT_USAGE:
        assert not out.exists() and manifests == []
        return
    (before, outputs), = manifests
    assert before == outputs
    listed = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sorted(os.listdir(out)) == listed == sorted(outputs + ["manifest.json"])
    command = argv[0]
    assert _expected_code(command, out) == code
    _check_csv(out)
    _check_recorded(argv, out)
