"""End-to-end benchmark of the curvscat command line, run in-process.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 34 --trace 0

Run from the root of a checkout.  The benchmark imports curvscat from the
checkout's src/ and drives curvscat.cli.main(argv) in a closed loop: one
client, one command at a time, each waiting for the previous one.  Commands
are a seeded suite of distinct inputs (see workloads.py), sized from
--seconds, and the loop makes the workload's number of passes over it.  Each
command writes to a fresh directory under .bench_out/, and only the cli.main
call is timed; checks, the reference angles, the comparison of every repeat
with the first pass and clean-up happen between timed calls.  Times are
reported at a reference host speed: each command's wall time is scaled by a
calibration kernel timed just before and after it, which cancels the slow
spells that other tenants of a shared host cause (perfbench/README.md).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a run with spans recorded around the package's public functions (tracing.py).
Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Details of every
command go to .bench_out/<workload>-seed<seed>-trace<t>.json.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# single-threaded numerics, also in the set-up probes started below
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from reference import Reference  # noqa: E402
from tracing import UNITS as LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Command, Verdict  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3            # this process plus two probes
# the calibration kernel's time on the reference VM in its fast state
# (perfbench/README.md); converts kernel units back into seconds
KERNEL_REF_S = 2.5e-3
LOOP_DEADLINE_S = 120.0      # no repeat starts later than this, from process start
TAIL_BEYOND = 10             # samples required beyond the tail percentile

END_TO_END_UNITS = {
    "setup_s": "s", "ok_per_s": "ops/s", "op_s_p50": "s", "op_s_tail": "s",
    "ok_frac": "ratio", "peak_rss_mb": "MB", "theta_err_max": "rad",
    "identity_err_max": "ratio",
}
# trivial bounds reported where a workload's outputs carry no Theta (verify)
NO_THETA_ERR = math.pi
NO_IDENTITY_ERR = 1.0


def import_cli():
    """curvscat.cli from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "curvscat" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no curvscat sources under {src}")
    sys.path.insert(0, str(src))
    import curvscat.cli as cli
    if Path(cli.__file__).resolve().parent != (src / "curvscat").resolve():
        raise SystemExit(f"perfbench: imported curvscat from {cli.__file__}, not {src}")
    return cli


def kernel() -> float:
    """Seconds that one run of a fixed calibration kernel takes now: a Python
    loop and a numpy pass, the two kinds of work the commands do."""
    t = time.perf_counter()
    x = 0.0
    for i in range(30000):
        x += math.sin(i * 1e-3)
    a = np.linspace(0.0, 1.0, 32768)
    float((np.exp(-a) * a).sum())
    return time.perf_counter() - t


def at_reference(seconds: float, kernel_s: float) -> float:
    """Wall seconds scaled to the host speed at which the kernel takes
    KERNEL_REF_S."""
    return seconds * KERNEL_REF_S / kernel_s


def digest(out: Path) -> str:
    """Hash of the data files; manifest.json carries a timestamp and is left out."""
    h = hashlib.sha256()
    for f in sorted(out.iterdir()):
        if f.name != "manifest.json":
            h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def dir_bytes(out: Path) -> int:
    return sum(f.stat().st_size for f in out.iterdir())


@dataclass
class Record:
    """One input of the suite: its verdict from the first pass, and the wall
    seconds and kernel time around it of every pass."""

    command: Command
    verdict: Verdict
    rc: object
    digest: str
    bytes_written: int
    seconds: list[float] = field(default_factory=list)
    kernels: list[float] = field(default_factory=list)

    @property
    def cost(self) -> float:
        """Median over the repeats of the time at the reference speed."""
        return statistics.median(map(at_reference, self.seconds, self.kernels))

    @property
    def wall(self) -> float:
        """Median over the repeats of the wall time."""
        return statistics.median(self.seconds)

    def check_repeat(self, rc, out: Path, rep: int) -> None:
        """Fail the input if a repeat's exit code or data files differ from
        the first pass."""
        if rc != self.rc or digest(out) != self.digest:
            self.verdict.fail("nondeterministic",
                              f"pass {rep + 1} gave another exit code or other data files")


class Runner:
    """Runs and judges commands of one workload; owns its scratch directory."""

    def __init__(self, cli, workload, scratch: Path):
        self.cli = cli
        self.workload = workload
        self.scratch = scratch
        self.ref = Reference()
        self._dirs = 0

    def run_once(self, cmd: Command):
        """(exit code or None on a crash, timed seconds, mean kernel time just
        before and after, output dir, traceback)."""
        self._dirs += 1
        out = self.scratch / f"c{self._dirs}"
        out.mkdir(parents=True)
        argv = list(cmd.argv) + ["--out-dir", str(out)]
        sink = io.StringIO()
        crash = ""
        before = kernel()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:  # a crash is a failed command, not the end of the run
                rc = None
                crash = traceback.format_exc()
            seconds = time.perf_counter() - t
        return rc, seconds, (before + kernel()) / 2.0, out, crash

    def judge(self, cmd: Command, rc, out: Path, crash: str) -> Verdict:
        """The workload's checks of one command's outputs."""
        if rc is None:
            v = Verdict(self.workload.name, cmd)
            v.fail("exception", crash.strip().splitlines()[-1])
            return v
        return self.workload.check(cmd, out, rc, self.ref)


def setup_probe(cli, workload, scratch: Path, first_kernel: float) -> tuple[float, float]:
    """Run the untimed warm-up command; returns the seconds since process
    start, as wall time and at the reference speed.  The speed is the mean of
    the kernel timed before curvscat was imported and around the warm-up."""
    runner = Runner(cli, workload, scratch)
    rc, _, kernel_s, out, crash = runner.run_once(workload.warmup)
    wall = time.perf_counter() - _STARTED
    shutil.rmtree(out)
    if rc is None:
        raise SystemExit(f"perfbench: warm-up command crashed:\n{crash}")
    return wall, at_reference(wall, (first_kernel + kernel_s) / 2.0)


def probe_setup_elsewhere(workload: str) -> tuple[float, float]:
    """Set-up time of a fresh process running the same set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    wall, scaled = proc.stdout.strip().splitlines()[-1].split()
    return float(wall), float(scaled)


def tail(times: list[float], p: int) -> tuple[int, float]:
    """(p, value) at the highest percentile, in steps of 5 from p down to the
    median, with at least TAIL_BEYOND samples beyond it."""
    while p > 50 and len(times) * (100 - p) / 100 < TAIL_BEYOND:
        p -= 5
    return p, float(np.percentile(times, p))


def environment() -> dict:
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=34.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="internal: print this process's set-up time and exit")
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]

    first_kernel = kernel()
    cli = import_cli()
    scratch = OUT / f"run-{os.getpid()}"
    try:
        setup = [setup_probe(cli, workload, scratch, first_kernel)]
        if args.setup_only:
            print(*map(repr, setup[0]))
            return 0
        setup += [probe_setup_elsewhere(args.workload) for _ in range(SETUP_SAMPLES - 1)]
        records, tracer, span_cost = timed_loop(cli, workload, scratch, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report(args, workload, setup, records, tracer, span_cost)
    return 0


def timed_loop(cli, workload, scratch, args):
    """The workload's passes over the seeded suite.  The first pass judges
    every input and always runs to the end; a later pass fails the input if
    its exit code or data files differ from the first, and stops once
    --seconds of work have been timed."""
    runner = Runner(cli, workload, scratch)
    tracer = Tracer() if args.trace else None
    span_cost = 0.0
    if tracer is not None:
        span_cost = tracer.span_cost()
        tracer.install()
    suite = workload.suite(args.seed, workload.suite_size(args.seconds))
    records: list[Record] = []
    executed, timed = 0, 0.0
    for rep, k in itertools.product(range(workload.repeats), range(len(suite))):
        if rep and (timed > args.seconds
                    or time.perf_counter() - _STARTED > LOOP_DEADLINE_S):
            break
        cmd = suite[k]
        if tracer is not None:
            tracer.command, tracer.active = executed, True
        rc, seconds, kernel_s, out, crash = runner.run_once(cmd)
        if tracer is not None:
            tracer.active = False
        executed += 1
        timed += seconds
        if rep == 0:
            records.append(Record(cmd, runner.judge(cmd, rc, out, crash), rc,
                                  digest(out), dir_bytes(out)))
        else:
            records[k].check_repeat(rc, out, rep)
        records[k].seconds.append(seconds)
        records[k].kernels.append(kernel_s)
        shutil.rmtree(out)
    if executed < len(suite) * workload.repeats:
        print(f"perfbench: stopped after {executed} of {len(suite) * workload.repeats} "
              f"commands, {timed:.1f} s timed")
    if tracer is not None:
        tracer.uninstall()
    return records, tracer, span_cost


def report(args, workload, setup, records, tracer, span_cost) -> None:
    ok = [rec for rec in records if rec.verdict.ok]
    if not ok:
        raise SystemExit("perfbench: no command succeeded, so no timing to report")
    failures = [f for rec in records for f in rec.verdict.failures]
    unknown = [f for f in failures if not f.known]
    executed = sum(len(rec.seconds) for rec in records)
    failed = len(records) - len(ok)
    timed = sum(sum(rec.seconds) for rec in records)
    cost = [rec.cost for rec in ok]
    p_tail, t_tail = tail(cost, workload.tail_percentile)
    p50 = statistics.median(cost)
    kernels = [k for rec in records for k in rec.kernels]
    theta_errs = [rec.verdict.theta_err for rec in records if rec.verdict.theta_err is not None]
    ident_errs = [rec.verdict.identity_err for rec in records
                  if rec.verdict.identity_err is not None]
    env = environment()
    OUT.mkdir(parents=True, exist_ok=True)

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} inputs, {executed} commands, {timed:.2f} s timed, "
          f"closed loop with 1 client")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"failed {failed} of {len(records)} inputs (fail_frac {failed / len(records):.4f}); "
          f"{len(unknown)} failure reasons outside the known defects")
    reasons: dict[str, int] = {}
    for f in failures:
        key = f"{f.reason} ({'known' if f.known else 'UNEXPECTED'})"
        reasons[key] = reasons.get(key, 0) + 1
    for key, n in sorted(reasons.items()):
        print(f"  {n:4d} x {key}")
    print(f"op_s_p50 and op_s_tail (p{p_tail}) are over {len(ok)} successful inputs, "
          f"each the median of up to {workload.repeats} repeats at the reference speed")
    print(f"calibration kernel: median {statistics.median(kernels) * 1e3:.3f} ms, "
          f"reference {KERNEL_REF_S * 1e3:.3f} ms; in wall time op_s_p50 = "
          f"{statistics.median(rec.wall for rec in ok):.6g} s, ok_per_s = "
          f"{len(ok) / sum(rec.wall for rec in records):.6g} ops/s, setup_s = "
          f"{statistics.median(wall for wall, _ in setup):.6g} s")

    if args.trace:
        metrics = layer_metrics(tracer.spans, executed, timed,
                                sum(rec.bytes_written * len(rec.seconds) for rec in records),
                                span_cost, p50)
        units = LAYER_UNITS
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        has_theta = bool(theta_errs)
        if not has_theta:
            print("theta_err_max, identity_err_max: n/a, this workload reports no "
                  "Theta; printed as the trivial bounds pi and 1")
        metrics = {
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "ok_per_s": len(ok) / sum(rec.cost for rec in records),
            "op_s_p50": p50,
            "op_s_tail": t_tail,
            "ok_frac": len(ok) / len(records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "theta_err_max": max(theta_errs) if has_theta else NO_THETA_ERR,
            "identity_err_max": max(ident_errs) if ident_errs else NO_IDENTITY_ERR,
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")

    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "environment": env, "setup_s": setup, "tail_percentile": p_tail,
        "metrics": metrics,
        "inputs": [{"argv": list(rec.command.argv), "rc": rec.rc, "seconds": rec.seconds,
                    "kernel_s": rec.kernels, "bytes": rec.bytes_written,
                    "failures": [[f.reason, f.detail, f.known]
                                 for f in rec.verdict.failures]}
                   for rec in records],
    }, indent=1))
    print(json.dumps({
        "correct": not unknown,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
