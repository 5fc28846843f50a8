"""Seeded command suites and output checks for the three workloads.

A run's commands are a suite of distinct inputs, each run in up to the
workload's number of passes.  The suite places one input in each of k equal strata of the input
range, at one seeded relative position inside every stratum; a second input,
where a workload has one, moves by the golden ratio from stratum to stratum
from a seeded start.  The suite also holds the two ends of the range, where
the deflection angle is least accurate (shallow end) and trajectories are
longest (deep end), so the error and memory maxima are properties of the
program rather than of how close a seed's draws came to the ends.  Its order
is shuffled by the seed.  The size of the suite depends only on the run
length asked for, never on how fast the machine ran, so the mix of cheap,
expensive and failing inputs, and the count of failures, is fixed by the
seed.

Every check reads only files the command wrote.  A failure carries a reason;
KNOWN_DEFECTS lists the reasons that occur at the commit that introduced the
benchmark, with the inputs they occur on.  A run is correct when every
failure it counts is a known one.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ETA_MIN, ETA_MAX = 1.31, 64.0            # default range of scripts/deflection_map.py
THETA_MIN = -math.pi + 0.005 * math.pi   # the CLI accepts the open interval
THETA_MAX = -0.5 * math.pi - 0.005 * math.pi
ANCHOR_INSET = 1e-9 * math.pi
ROOT_TOL = 1e-8                          # curvscat's default --root-tol
POKHOZAEV_REL_TOL = 1e-3                 # verification.POKHOZAEV_REL_TOL
# solve claims no tolerance on Theta; this catches gross errors only, far
# above the largest bias of the seed integrator (2.3e-8 at eta_in = 1.31)
SOLVE_THETA_TOL = 1e-6
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_16PI2 = 16.0 * math.pi ** 2

# (workload, reason) -> inputs on which the failure occurs at the commit
# that introduced the benchmark; README.md explains each one
KNOWN_DEFECTS = {
    # t0 lies beyond max_time = 600 from eta_in about 25 (Theta about -0.987 pi)
    ("solve", "no radial.csv"): lambda c: c.eta_in >= 24.0,
    ("shoot", "no radial.csv"): lambda c: c.theta <= -0.985 * math.pi,
    # just below that, t0 is inside the budget but the tail past it is shorter
    # than the fit needs: WindowTooShortError, exit 1 and no summary or report
    ("solve", "exit 1"): lambda c: c.eta_in >= 24.0,
    ("solve", "no summary.json"): lambda c: c.eta_in >= 24.0,
    ("shoot", "exit 1"): lambda c: c.theta <= -0.985 * math.pi,
    ("shoot", "no root"): lambda c: c.theta <= -0.985 * math.pi,
    ("verify", "exit 1"): lambda c: c.eta_in >= 24.0,
    ("verify", "no verify_report.json"): lambda c: c.eta_in >= 24.0,
    # the integrator's Theta bias exceeds root_tol at the shallow end
    ("shoot", "theta off target"): lambda c: c.theta > -0.6 * math.pi,
    ("verify", "verify: single-inflection convexity"): lambda c: c.eta_in >= 18.0,
    ("verify", "verify: accepted scattering solution"): lambda c: c.eta_in >= 24.0,
}


@dataclass(frozen=True)
class Command:
    """One curvscat invocation; argv excludes --out-dir."""

    argv: tuple[str, ...]
    eta_in: Optional[float] = None
    theta: Optional[float] = None


@dataclass
class Failure:
    reason: str
    detail: str
    known: bool


@dataclass
class Verdict:
    workload: str
    command: Command
    failures: list[Failure] = field(default_factory=list)
    theta_err: Optional[float] = None
    identity_err: Optional[float] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, reason: str, detail: str, probe: Optional[Command] = None) -> None:
        """Record a failure; KNOWN_DEFECTS tests probe, by default the command."""
        rule = KNOWN_DEFECTS.get((self.workload, reason))
        known = rule is not None and rule(probe or self.command)
        self.failures.append(Failure(reason, detail, known))

    def note_theta(self, err: float) -> None:
        self.theta_err = err if self.theta_err is None else max(self.theta_err, err)

    def note_identity(self, err: float) -> None:
        self.identity_err = err if self.identity_err is None else max(self.identity_err, err)


def _arg(x: float) -> str:
    return repr(float(x))


def _log_eta(x: float) -> float:
    return ETA_MIN * (ETA_MAX / ETA_MIN) ** x


def _read_json(path: Path) -> Optional[dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def identity_gap(theta: float, kappa: float, alpha: float) -> float:
    """Largest relative gap of (kappa, alpha) to the values Theta predicts."""
    k_t = 2.0 * math.pi * (1.0 - math.cos(theta))
    a_t = 2.0 * math.sqrt(2.0) * math.pi * abs(math.sin(theta))
    if not (k_t > 0.0 and a_t > 0.0):
        return math.inf
    return max(abs(kappa - k_t) / k_t, abs(alpha - a_t) / a_t)


def pokhozaev_rel(kappa: float, alpha: float) -> float:
    """|alpha^2 - 2 kappa (4 pi - kappa)| / (16 pi^2)."""
    return abs(alpha ** 2 - 2.0 * kappa * (4.0 * math.pi - kappa)) / _16PI2


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


class Workload:
    name = ""
    # mean seconds per command on the reference machine (perfbench/README.md);
    # sizes the suite so that a run lasts about as long as asked
    nominal_s = 0.0
    # passes over the suite; an input's time is the median of its repeats
    repeats = 3
    # the highest percentile, in steps of 5, with at least 10 successful
    # inputs beyond it in a run of BENCHMARK.json's length; fixed so that its
    # meaning does not change with a run's count of successful inputs
    tail_percentile = 75
    warmup: Command

    def point(self, x: float, y: float) -> Command:
        """The command at relative position x in [0, 1] of the input range;
        y in [0, 1) places a second input, where the workload has one."""
        raise NotImplementedError

    def ends(self) -> list[Command]:
        return [self.point(0.0, 0.5), self.point(1.0, 0.5)]

    def suite_size(self, seconds: float) -> int:
        """Strata for a run of about `seconds` that runs each input `repeats`
        times; at least 2, so that every suite holds interior inputs."""
        return max(2, round(seconds / (self.nominal_s * self.repeats)) - 2)

    def suite(self, seed: int, strata: int) -> list[Command]:
        """The range ends plus one input in each of `strata` equal strata,
        in seeded order."""
        rng = random.Random(f"{self.name}:{seed}")
        x0, y0 = rng.random(), rng.random()
        cmds = self.ends() + [self.point((i + x0) / strata, (y0 + i * GOLDEN) % 1.0)
                              for i in range(strata)]
        rng.shuffle(cmds)
        return cmds

    def check(self, cmd: Command, out: Path, rc: int, ref) -> Verdict:
        raise NotImplementedError

    def _check_solution(self, v: Verdict, out: Path, theta_ref: float) -> None:
        """Shared by solve and shoot: summary, radial.csv, Theta, identities."""
        summ = _read_json(out / "summary.json")
        if summ is None:
            v.fail("no summary.json", "summary.json missing or unreadable")
            return
        theta = summ.get("theta")
        if not _finite(theta):
            v.fail("no theta", "summary.json carries no finite theta")
            return
        v.note_theta(abs(theta_ref - theta))
        if not (out / "radial.csv").is_file():
            v.fail("no radial.csv", summ.get("note", ""))
        kappa, alpha = summ.get("kappa"), summ.get("alpha")
        if _finite(kappa, alpha):
            v.note_identity(identity_gap(theta, kappa, alpha))
            rel = pokhozaev_rel(kappa, alpha)
            if rel > POKHOZAEV_REL_TOL:
                v.fail("pokhozaev residual", f"relative residual {rel:.3e}")
        elif (out / "radial.csv").is_file():
            v.fail("no kappa/alpha", "radial.csv written but no kappa, alpha")


class Solve(Workload):
    """eta_in log-uniform on [1.31, 64], xi_in uniform on [-1, 1]."""

    name = "solve"
    nominal_s = 0.2
    tail_percentile = 75
    warmup = Command(("solve", "--eta-in", "8.0", "--xi-in=0.0"), eta_in=8.0)

    def point(self, x, y):
        eta, xi = _log_eta(x), 2.0 * y - 1.0
        return Command(("solve", "--eta-in", _arg(eta), f"--xi-in={_arg(xi)}"), eta_in=eta)

    def check(self, cmd, out, rc, ref):
        v = Verdict(self.name, cmd)
        if rc != 0:
            v.fail(f"exit {rc}", "")
        self._check_solution(v, out, ref.theta(cmd.eta_in))
        if v.theta_err is not None and v.theta_err > SOLVE_THETA_TOL:
            v.fail("theta off reference", f"|dTheta| = {v.theta_err:.3e}")
        return v


class Shoot(Workload):
    """Theta uniform on the CLI's open range (-0.995 pi, -0.505 pi)."""

    name = "shoot"
    nominal_s = 0.37
    tail_percentile = 55
    warmup = Command(("shoot", f"--theta={_arg(-0.75 * math.pi)}"), theta=-0.75 * math.pi)

    def point(self, x, y):
        # the range is open: keep the ends ANCHOR_INSET inside
        theta = min(max(THETA_MIN + (THETA_MAX - THETA_MIN) * x, THETA_MIN + ANCHOR_INSET),
                    THETA_MAX - ANCHOR_INSET)
        return Command(("shoot", f"--theta={_arg(theta)}"), theta=theta)

    def check(self, cmd, out, rc, ref):
        v = Verdict(self.name, cmd)
        if rc != 0:
            v.fail(f"exit {rc}", "")
        summ = _read_json(out / "summary.json")
        sh = (summ or {}).get("shooting") or {}
        eta = sh.get("eta_in")
        if not _finite(eta):
            v.fail("no root", "summary.json carries no shooting.eta_in")
            return v
        theta_ref = ref.theta(eta)
        self._check_solution(v, out, theta_ref)
        miss = abs(theta_ref - cmd.theta)
        if miss > ROOT_TOL:
            v.fail("theta off target", f"|Theta_ref - target| = {miss:.3e}")
        return v


class Verify(Workload):
    """eta_in log-uniform on [1.31, 64]."""

    name = "verify"
    nominal_s = 0.13
    tail_percentile = 80
    warmup = Command(("verify", "--eta-in", "8.0"), eta_in=8.0)

    def point(self, x, y):
        eta = _log_eta(x)
        return Command(("verify", "--eta-in", _arg(eta)), eta_in=eta)

    def check(self, cmd, out, rc, ref):
        v = Verdict(self.name, cmd)
        if rc not in (0, 4):
            v.fail(f"exit {rc}", "")
        rep = _read_json(out / "verify_report.json")
        if rep is None:
            v.fail("no verify_report.json", "")
            return v
        items = rep.get("items", [])
        failed = [it for it in items if it.get("passed") is not True]
        for it in failed:
            v.fail(f"verify: {it.get('name')}", str(it.get("detail")))
        if not items or rep.get("passed") is not (not failed):
            v.fail("report inconsistent",
                   f"passed = {rep.get('passed')} with {len(failed)} failed items")
        if (rc == 4) != bool(failed):
            v.fail("exit code", f"exit {rc} with {len(failed)} failed items")
        return v


WORKLOADS = {w.name: w for w in (Solve(), Shoot(), Verify())}
