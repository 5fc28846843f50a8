"""Command-line front end: solve, shoot, sweep, verify, flow.

All data files are emitted deterministically: CSV floats carry 12
significant digits, JSON floats 17; timestamps appear only in the run
manifest.  A CSV is its header line, then rows of '%.12g' fields ending in
CR LF (csv.writer's dialect, never quoted); each block of _CSV_BLOCK_ROWS
rows is rendered at once by csvformat.format_rows, every field byte-equal
to Python's '%.12g'.  Exit codes: 0 ok, 1 usage error or solver failure,
2 non-scattering outcome, 3 partial sweep failure, 4 verification failure,
5 no escape within the time budget.

Every command computes the content of all its files before --out-dir
exists; one function, _emit, then makes the directory, writes the files and
writes manifest.json listing exactly them.  An input that fails, at any
stage, leaves no directory behind.  The solver settings are recorded once,
in the config echo of summary.json, sweep.json or verify_report.json, not in
the manifest; flow integrates nothing and takes no solver flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, analysis, geometry, shooting, verification
from .closed_forms import AsymptoticData
from .csvformat import format_rows
from .integrator import (NotConvergedError, Outcome, SolverConfig,
                         Trajectory, deflection, integrate)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONSCATTERING = 2
EXIT_PARTIAL = 3
EXIT_VERIFY_FAIL = 4
EXIT_OUT_OF_BUDGET = 5

# the exit code of each way a run ends; a solver failure reaches main raised
EXIT_CODE = {Outcome.ESCAPED: EXIT_OK, Outcome.CERTIFIED: EXIT_NONSCATTERING,
             Outcome.OUT_OF_BUDGET: EXIT_OUT_OF_BUDGET,
             Outcome.SOLVER_FAILURE: EXIT_USAGE}


class UsageError(Exception):
    pass


# lets values like -0.75pi or -pi pass as arguments, not flags
_NEGATIVE_VALUE = re.compile(
    r"^-(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(?:pi)?|pi)$")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # non-scattering outcomes and 1 for usage errors
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _nonnegative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def _positive_float(text: str) -> float:
    x = float(text)
    if not (math.isfinite(x) and x > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return x


def parse_angle(text: str) -> float:
    """Angle in radians, or a '<number>pi' literal such as -0.75pi."""
    s = text.strip().lower()
    if s.endswith("pi"):
        head = s[:-2]
        if head in ("", "+", "-"):
            head += "1"
        return float(head) * math.pi
    return float(s)


# --- deterministic emission -------------------------------------------------


def _json_render(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v) or math.isinf(v):
            return "null"
        return format(v, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [_json_render(v, indent + 1) for v in obj]
        return "[" + ", ".join(items) + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_json_render(v, indent + 1)}"
            for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(path: Path, obj) -> None:
    path.write_text(_json_render(obj) + "\n")


# rows per rendered block: big enough to amortise numpy's per-call cost,
# small enough that a block's records stay a few hundred kB
_CSV_BLOCK_ROWS = 1024


def write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length float columns under a header as CSV rows."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            fh.write(format_rows(np.column_stack(
                [c[lo:lo + _CSV_BLOCK_ROWS] for c in columns])))


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    write_csv(path, ["t", "xi", "eta", "xi_dot", "eta_dot", "energy"],
              [traj.t, traj.xi, traj.eta, traj.xi_dot, traj.eta_dot,
               traj.energy])


def write_radial_csv(path: Path, sol: geometry.RadialSolution) -> None:
    write_csv(path, ["r", "u", "K"], [sol.r_grid, sol.u_values, sol.k_values])


_SWEEP_COLUMNS = [f.name for f in fields(shooting.SweepRow)
                  if f.name not in ("theta_target", "status")]


def write_sweep_csv(path: Path, rows: list[shooting.SweepRow]) -> None:
    write_csv(path, _SWEEP_COLUMNS,
              [[getattr(r, name) for r in rows] for name in _SWEEP_COLUMNS])


def _field_dict(obj) -> dict:
    """A dataclass's fields by name: dataclasses.asdict without its deep
    copy, for the dataclasses written here, whose fields are all scalars."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def write_manifest(out_dir: Path, command: str, argv: list[str], inputs: dict,
                   outputs: list[str]) -> None:
    write_json(out_dir / "manifest.json", {
        "schema": "curvscat/manifest/v4",
        "command": command,
        "argv": argv,
        "inputs": inputs,
        "outputs": sorted(outputs + ["manifest.json"]),
        "version": f"curvscat {__version__}",
        "timestamp": datetime.now(timezone.utc).isoformat(),
    })


def _emit(args, argv, inputs: dict, files: dict) -> None:
    """Make --out-dir, call each name's writer with its path in order, then
    write the manifest of args.command listing exactly those names: every
    command builds its whole output first and calls this once, last, so an
    input that fails leaves no directory behind."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, write in files.items():
        write(out / name)
    write_manifest(out, args.command, argv, inputs, list(files))


# --- shared pieces -----------------------------------------------------------


def _add_common_flags(p: argparse.ArgumentParser, solver: bool = True) -> None:
    """--out-dir, then, if solver, one flag per SolverConfig field in order."""
    p.add_argument("--out-dir", default=".", help="directory for emitted files")
    for f in fields(SolverConfig) if solver else ():
        p.add_argument("--" + f.name.replace("_", "-"), type=float, default=f.default)


def _config_from(args) -> SolverConfig:
    return SolverConfig(**{f.name: getattr(args, f.name) for f in fields(SolverConfig)})


_SUMMARY = "curvscat/summary/v8"


def _body(schema: str, inputs: dict, cfg: SolverConfig, **entries) -> dict:
    """The body of a file that echoes the config (summary.json, sweep.json,
    verify_report.json): schema and inputs, the entries, then the config."""
    return {"schema": schema, "inputs": inputs, **entries, "config": _field_dict(cfg)}


def _run_files(traj: Trajectory, inputs: dict, **entries) -> dict:
    """A run's files: its trajectory, its radial data when it escaped past
    eta's zero crossing, and its summary, which ends with the entries.
    The summary keeps the states at the certificate and at escape, and the
    gap's ends: closed_forms.free_leg from the escape state rebuilds any
    row the gap leaves out."""
    def state(p):
        return None if p is None else _field_dict(p)

    ev = traj.events
    events = {"t0": ev.t0, "t_half": ev.t_half, "t_m": ev.t_m,
              "certified": state(ev.blowup), "escape": state(ev.escape)}
    theta = {"theta": deflection(traj)} if traj.escaped else {}
    summary = _body(_SUMMARY, inputs, traj.config, events=events, gap=traj.gap, **theta,
                    outcome=traj.outcome.name.lower(), drift=traj.max_energy_drift)
    files = {"trajectory.csv": lambda path: write_trajectory_csv(path, traj)}
    if traj.escaped and ev.t0 is not None:
        sol = geometry.to_radial(traj)
        kap_t, al_t = geometry.theta_identities(summary["theta"])
        summary.update({
            "kappa": sol.kappa,
            "alpha": sol.alpha,
            "k_star": sol.k_star,
            "fits": _field_dict(geometry.asymptotic_fit(traj)),
            "residuals": {
                "pokhozaev": geometry.pokhozaev_residual(sol.kappa, sol.alpha),
                "pokhozaev_rel": geometry.relative_pokhozaev_residual(sol.kappa, sol.alpha),
                "kappa_vs_theta_rel": abs(sol.kappa - kap_t) / kap_t,
                "alpha_vs_theta_rel": abs(sol.alpha - al_t) / al_t,
            },
        })
        files["radial.csv"] = lambda path: write_radial_csv(path, sol)
    elif traj.escaped:
        summary["note"] = geometry.NO_RADIAL_DATA
    summary.update(entries)
    files["summary.json"] = lambda path: write_json(path, summary)
    return files


# --- commands ----------------------------------------------------------------


def cmd_solve(args, argv) -> int:
    inputs = {"eta_in": args.eta_in, "xi_in": args.xi_in}
    traj = integrate(AsymptoticData(args.xi_in, args.eta_in), _config_from(args))
    _emit(args, argv, inputs, _run_files(traj, inputs))
    if traj.escaped:
        print(f"theta = {deflection(traj):.12g}")
    else:
        print(f"non-scattering: {traj.outcome.value}")
    return EXIT_CODE[traj.outcome]


def cmd_shoot(args, argv) -> int:
    cfg = _config_from(args)
    theta_t = parse_angle(args.theta)
    inputs = {"theta_target": theta_t, "root_tol": args.root_tol}
    try:
        res = shooting.shoot(theta_t, cfg, root_tol=args.root_tol)
    except shooting.BracketNotFoundError as exc:
        summary = _body(_SUMMARY, inputs, cfg, error=str(exc), scanned=[
            {"eta_in": e, "theta": th} for e, th in exc.scanned])
        _emit(args, argv, inputs, {"summary.json": lambda path: write_json(path, summary)})
        print(f"bracket not found: {exc}")
        return EXIT_NONSCATTERING

    _emit(args, argv, inputs, _run_files(
        res.trajectory, inputs, shooting={
            "theta_target": res.theta_target,
            "theta_achieved": res.theta_achieved,
            "eta_in": res.eta_in_found,
            "iterations": res.iterations,
            "bracket": list(res.bracket),
        }))
    print(f"eta_in = {res.eta_in_found:.12g}  theta = {res.theta_achieved:.12g}")
    return EXIT_OK


def cmd_sweep(args, argv) -> int:
    cfg = _config_from(args)
    lo, hi = parse_angle(args.theta_min), parse_angle(args.theta_max)
    if args.n == 1 and lo != hi:
        raise UsageError("--n 1 runs --theta-min alone: give equal ends")
    grid = np.linspace(lo, hi, args.n)
    inputs = {"theta_min": lo, "theta_max": hi, "n": args.n,
              "root_tol": args.root_tol}

    def report(r: shooting.SweepRow) -> None:
        print(f"theta {r.theta_target:+.6f}: {r.status}"
              + (f" eta_in = {r.eta_in:.9g}" if r.status == "ok" else ""))

    rows = shooting.sweep(grid, cfg, root_tol=args.root_tol, on_row=report)
    body = _body("curvscat/sweep/v5", inputs, cfg, rows=[_field_dict(r) for r in rows])
    _emit(args, argv, inputs, {
        "sweep.csv": lambda path: write_sweep_csv(path, rows),
        "sweep.json": lambda path: write_json(path, body)})
    return EXIT_PARTIAL if any(r.status != "ok" for r in rows) else EXIT_OK


def cmd_verify(args, argv) -> int:
    cfg = _config_from(args)
    results = verification.run_suite(args.eta_in, cfg)
    all_pass = all(r.passed for r in results)
    inputs = {"eta_in": list(args.eta_in)}
    report = _body("curvscat/verify/v5", inputs, cfg,
                   items=[_field_dict(r) for r in results], passed=all_pass)
    _emit(args, argv, inputs,
          {"verify_report.json": lambda path: write_json(path, report)})
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name} (eta_in = {r.eta_in:g}): {r.detail}")
    print("verification " + ("PASSED" if all_pass else "FAILED"))
    return EXIT_OK if all_pass else EXIT_VERIFY_FAIL


def cmd_flow(args, argv) -> int:
    state = analysis.GradientFlowState(args.mu0, args.delta, args.epsilon)
    res = analysis.gradient_flow_run(state, tol=args.tol, max_iter=args.max_iter)
    history = np.asarray(res.history, dtype=float).reshape(-1, 3)
    columns = [np.arange(len(history)), *history.T]
    inputs = {"mu0": state.mu0, "nu0": state.nu0, "delta": state.delta,
              "epsilon": state.epsilon, "tol": args.tol, "max_iter": args.max_iter}
    body = {"schema": "curvscat/flow/v2", "inputs": inputs,
            "fixed_point": {"mu": res.fixed_point[0], "nu": res.fixed_point[1]},
            "iterations": res.iterations,
            "stayed_in_quadrant": res.stayed_in_quadrant,
            "converged": res.converged, "grad_norm": res.grad_norm}
    _emit(args, argv, inputs, {
        "flow.csv": lambda path: write_csv(path, ["n", "mu", "nu", "grad_norm"], columns),
        "flow_summary.json": lambda path: write_json(path, body)})
    ok = res.converged and res.stayed_in_quadrant
    print(f"fixed point = ({res.fixed_point[0]:.12g}, {res.fixed_point[1]:.12g})"
          f"  converged = {res.converged}  in_quadrant = {res.stayed_in_quadrant}")
    return EXIT_OK if ok else EXIT_NONSCATTERING


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process; every default is
    immutable, so no call's arguments leak into the next."""
    p = _Parser(prog="curvscat",
                description="Scattering solver for self-consistent Gauss "
                            "curvature surfaces")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="integrate one (eta_in, xi_in) datum")
    ps.add_argument("--eta-in", type=float, required=True)
    ps.add_argument("--xi-in", type=float, default=0.0)
    _add_common_flags(ps)
    ps.set_defaults(func=cmd_solve)

    ph = sub.add_parser("shoot", help="find eta_in for a target deflection")
    ph.add_argument("--theta", required=True,
                    help="target angle in radians or '<x>pi' (e.g. -0.75pi)")
    ph.add_argument("--root-tol", type=_positive_float, default=shooting.DEFAULT_ROOT_TOL)
    _add_common_flags(ph)
    ph.set_defaults(func=cmd_shoot)

    pw = sub.add_parser("sweep", help="tabulate the deflection map on a theta grid")
    pw.add_argument("--theta-min", required=True)
    pw.add_argument("--theta-max", required=True)
    pw.add_argument("--n", type=_positive_int, required=True)
    pw.add_argument("--root-tol", type=_positive_float, default=shooting.DEFAULT_ROOT_TOL)
    _add_common_flags(pw)
    pw.set_defaults(func=cmd_sweep)

    pv = sub.add_parser("verify", help="run the invariant suite")
    pv.add_argument("--eta-in", type=float, nargs="+",
                    default=verification.DEFAULT_ETA_VALUES)
    _add_common_flags(pv)
    pv.set_defaults(func=cmd_verify)

    pf = sub.add_parser("flow", help="run the anchored gradient-flow recurrence")
    pf.add_argument("--mu0", type=float, required=True)
    pf.add_argument("--delta", type=float, required=True)
    pf.add_argument("--epsilon", type=float, default=analysis.DEFAULT_EPSILON)
    pf.add_argument("--tol", type=_positive_float, default=analysis.DEFAULT_TOL)
    pf.add_argument("--max-iter", type=_nonnegative_int,
                    default=analysis.DEFAULT_MAX_ITER)
    _add_common_flags(pf, solver=False)
    pf.set_defaults(func=cmd_flow)
    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, list(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotConvergedError as exc:
        # a solver failure: the commands handle every other outcome
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODE[Outcome.SOLVER_FAILURE]


if __name__ == "__main__":
    sys.exit(main())
