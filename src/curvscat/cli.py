"""Command-line front end: solve, shoot, sweep, verify, flow.

All data files are emitted deterministically: CSV floats carry 12
significant digits, JSON floats 17; timestamps appear only in the run
manifest.  A CSV is its header line, then rows of '%.12g' fields ending in
CR LF (csv.writer's dialect, never quoted); each block of _CSV_BLOCK_ROWS
rows is rendered at once by csvformat.format_rows, every field byte-equal
to Python's '%.12g'.  Exit codes: 0 ok, 1 usage error or solver failure,
2 non-scattering outcome, 3 partial sweep failure, 4 verification failure.
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

# the exit code of each way a run ends; a solver failure reaches main raised
EXIT_CODE = {Outcome.ESCAPED: EXIT_OK, Outcome.CERTIFIED: EXIT_NONSCATTERING,
             Outcome.OUT_OF_BUDGET: EXIT_NONSCATTERING,
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
               traj.energies()])


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
                   cfg: SolverConfig, outputs: list[str]) -> None:
    write_json(out_dir / "manifest.json", {
        "schema": "curvscat/manifest/v3",
        "command": command,
        "argv": argv,
        "inputs": inputs,
        "config": _field_dict(cfg),
        "outputs": sorted(outputs + ["manifest.json"]),
        "version": f"curvscat {__version__}",
        "timestamp": datetime.now(timezone.utc).isoformat(),
    })


# --- shared pieces -----------------------------------------------------------


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    """--out-dir, then one flag per SolverConfig field, in field order."""
    p.add_argument("--out-dir", default=".", help="directory for emitted files")
    for f in fields(SolverConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=float, default=f.default)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_from(args) -> SolverConfig:
    return SolverConfig(**{f.name: getattr(args, f.name) for f in fields(SolverConfig)})


def _events_dict(traj: Trajectory) -> dict:
    ev = traj.events
    return {"t0": ev.t0, "t_half": ev.t_half, "t_m": ev.t_m,
            "blowup": None if ev.blowup is None else {"last_state": _field_dict(ev.blowup)}}


def _summary(inputs: dict, cfg: SolverConfig, traj: "Trajectory | None" = None,
             **entries) -> dict:
    """summary.json body: schema and inputs, the run's events, the given
    entries, the run's drift, then the config (the run's entries only with
    traj)."""
    summary = {"schema": "curvscat/summary/v4", "inputs": inputs}
    if traj is not None:
        summary["events"] = _events_dict(traj)
    summary.update(entries)
    if traj is not None:
        summary["drift"] = traj.max_energy_drift
    summary["config"] = _field_dict(cfg)
    return summary


def _solution_summary(traj: Trajectory, inputs: dict, cfg: SolverConfig) -> tuple[dict, "geometry.RadialSolution | None"]:
    theta = deflection(traj)
    summary = _summary(inputs, cfg, traj, theta=theta, escaped=True)
    sol = None
    if traj.events.t0 is not None:
        sol = geometry.to_radial(traj)
        kap_t, al_t = geometry.theta_identities(theta)
        pokhozaev = geometry.pokhozaev_residual(sol.kappa, sol.alpha)
        summary.update({
            "kappa": sol.kappa,
            "alpha": sol.alpha,
            "k_star": sol.k_star,
            "fits": _field_dict(geometry.asymptotic_fit(traj)),
            "residuals": {
                "pokhozaev": pokhozaev,
                "pokhozaev_rel": abs(pokhozaev) / (16 * math.pi**2),
                "kappa_vs_theta_rel": abs(sol.kappa - kap_t) / kap_t,
                "alpha_vs_theta_rel": abs(sol.alpha - al_t) / al_t,
            },
        })
    else:
        summary["note"] = "eta zero crossing beyond the time budget: no radial data"
    return summary, sol


def _write_run(args, argv, command: str, inputs: dict, cfg: SolverConfig,
               summary: dict, traj: "Trajectory | None" = None,
               sol: "geometry.RadialSolution | None" = None) -> None:
    """Make the output directory and write a finished run's files into it."""
    out = _out_dir(args)
    outputs = ["summary.json"]
    if traj is not None:
        write_trajectory_csv(out / "trajectory.csv", traj)
        outputs.append("trajectory.csv")
    if sol is not None:
        write_radial_csv(out / "radial.csv", sol)
        outputs.append("radial.csv")
    write_json(out / "summary.json", summary)
    write_manifest(out, command, argv, inputs, cfg, outputs)


# --- commands ----------------------------------------------------------------


def cmd_solve(args, argv) -> int:
    cfg = _config_from(args)
    a = AsymptoticData(args.xi_in, args.eta_in)
    inputs = {"eta_in": args.eta_in, "xi_in": args.xi_in}

    traj = integrate(a, cfg)
    if not traj.escaped:
        summary = _summary(inputs, cfg, traj, escaped=False,
                           blowup={"reason": traj.outcome.value})
        _write_run(args, argv, "solve", inputs, cfg, summary, traj)
        print(f"non-scattering: {traj.outcome.value}")
        return EXIT_CODE[traj.outcome]

    # the summary can still fail (a ValueError, exit 1): build it first
    summary, sol = _solution_summary(traj, inputs, cfg)
    _write_run(args, argv, "solve", inputs, cfg, summary, traj, sol)
    print(f"theta = {summary['theta']:.12g}")
    return EXIT_CODE[traj.outcome]


def cmd_shoot(args, argv) -> int:
    cfg = _config_from(args)
    theta_t = parse_angle(args.theta)
    inputs = {"theta_target": theta_t, "root_tol": args.root_tol}
    # no directory until shoot has checked its arguments
    try:
        res = shooting.shoot(theta_t, cfg, root_tol=args.root_tol,
                             ceiling=args.eta_ceiling)
    except shooting.BracketNotFoundError as exc:
        _write_run(args, argv, "shoot", inputs, cfg, _summary(
            inputs, cfg, error=str(exc),
            scanned=[{"eta_in": e, "theta": th} for e, th in exc.scanned]))
        print(f"bracket not found: {exc}")
        return EXIT_NONSCATTERING

    summary, sol = _solution_summary(res.trajectory, inputs, cfg)
    summary["shooting"] = {
        "theta_target": res.theta_target,
        "theta_achieved": res.theta_achieved,
        "eta_in": res.eta_in_found,
        "iterations": res.iterations,
        "bracket": list(res.bracket),
    }
    _write_run(args, argv, "shoot", inputs, cfg, summary, res.trajectory, sol)
    print(f"eta_in = {res.eta_in_found:.12g}  theta = {res.theta_achieved:.12g}")
    return EXIT_OK


def cmd_sweep(args, argv) -> int:
    cfg = _config_from(args)
    lo, hi = parse_angle(args.theta_min), parse_angle(args.theta_max)
    grid = np.linspace(lo, hi, args.n)
    inputs = {"theta_min": lo, "theta_max": hi, "n": args.n,
              "root_tol": args.root_tol}

    def report(r: shooting.SweepRow) -> None:
        print(f"theta {r.theta_target:+.6f}: {r.status}"
              + (f" eta_in = {r.eta_in:.9g}" if r.status == "ok" else ""))

    # no directory until sweep has checked its search arguments
    rows = shooting.sweep(grid, cfg, root_tol=args.root_tol,
                          ceiling=args.eta_ceiling, on_row=report)
    out = _out_dir(args)
    write_sweep_csv(out / "sweep.csv", rows)
    write_json(out / "sweep.json", {
        "schema": "curvscat/sweep/v3",
        "inputs": inputs,
        "rows": [_field_dict(r) for r in rows],
        "config": _field_dict(cfg),
    })
    write_manifest(out, "sweep", argv, inputs, cfg, ["sweep.csv", "sweep.json"])
    failures = sum(1 for r in rows if r.status != "ok")
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_verify(args, argv) -> int:
    cfg = _config_from(args)
    etas = args.eta_in
    results = verification.run_suite(etas, cfg)
    out = _out_dir(args)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name} (eta_in = {r.eta_in:g}): {r.detail}")
    all_pass = all(r.passed for r in results)
    inputs = {"eta_in": list(etas)}
    write_json(out / "verify_report.json", {
        "schema": "curvscat/verify/v3",
        "inputs": inputs,
        "items": [_field_dict(r) for r in results],
        "passed": all_pass,
        "config": _field_dict(cfg),
    })
    write_manifest(out, "verify", argv, inputs, cfg, ["verify_report.json"])
    print("verification " + ("PASSED" if all_pass else "FAILED"))
    return EXIT_OK if all_pass else EXIT_VERIFY_FAIL


def cmd_flow(args, argv) -> int:
    cfg = _config_from(args)
    state = analysis.GradientFlowState.from_anchor(
        args.mu0, args.delta, args.epsilon, nu0=args.nu0)
    res = analysis.gradient_flow_run(state, tol=args.tol, max_iter=args.max_iter)
    out = _out_dir(args)
    history = np.asarray(res.history, dtype=float).reshape(-1, 3)
    write_csv(out / "flow.csv", ["n", "mu", "nu", "grad_norm"],
              [np.arange(len(history)), *history.T])
    inputs = {"mu0": state.mu0, "nu0": state.nu0, "delta": state.delta,
              "epsilon": state.epsilon, "tol": args.tol}
    write_json(out / "flow_summary.json", {
        "schema": "curvscat/flow/v1",
        "inputs": inputs,
        "fixed_point": {"mu": res.fixed_point[0], "nu": res.fixed_point[1]},
        "iterations": res.iterations,
        "stayed_in_quadrant": res.stayed_in_quadrant,
        "converged": res.converged,
        "grad_norm": res.grad_norm,
    })
    write_manifest(out, "flow", argv, inputs, cfg, ["flow.csv", "flow_summary.json"])
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
    _add_solver_flags(ps)
    ps.set_defaults(func=cmd_solve)

    ph = sub.add_parser("shoot", help="find eta_in for a target deflection")
    ph.add_argument("--theta", required=True,
                    help="target angle in radians or '<x>pi' (e.g. -0.75pi)")
    ph.add_argument("--root-tol", type=_positive_float, default=1e-8)
    ph.add_argument("--eta-ceiling", type=_positive_float,
                    default=shooting.DEFAULT_CEILING)
    _add_solver_flags(ph)
    ph.set_defaults(func=cmd_shoot)

    pw = sub.add_parser("sweep", help="tabulate the deflection map on a theta grid")
    pw.add_argument("--theta-min", required=True)
    pw.add_argument("--theta-max", required=True)
    pw.add_argument("--n", type=_positive_int, required=True)
    pw.add_argument("--root-tol", type=_positive_float, default=1e-8)
    pw.add_argument("--eta-ceiling", type=_positive_float,
                    default=shooting.DEFAULT_CEILING)
    _add_solver_flags(pw)
    pw.set_defaults(func=cmd_sweep)

    pv = sub.add_parser("verify", help="run the invariant suite")
    pv.add_argument("--eta-in", type=float, nargs="+", default=(6.0, 8.0, 12.0))
    _add_solver_flags(pv)
    pv.set_defaults(func=cmd_verify)

    pf = sub.add_parser("flow", help="run the anchored gradient-flow recurrence")
    pf.add_argument("--mu0", type=float, required=True)
    pf.add_argument("--nu0", type=float, default=None)
    pf.add_argument("--delta", type=float, required=True)
    pf.add_argument("--epsilon", type=float, default=0.1)
    pf.add_argument("--tol", type=_positive_float, default=1e-10)
    pf.add_argument("--max-iter", type=_nonnegative_int, default=100000)
    _add_solver_flags(pf)
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
