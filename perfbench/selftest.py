"""Self-test of the benchmark: metric names and units, and tamper detection.

    python3 perfbench/selftest.py

1. A short run of every workload, untraced and traced, must print every
   metric that BENCHMARK.json names, with its unit, both as a
   "name = value unit" line and in the final JSON line.
2. A deliberately wrong output must be counted as a failed command that is
   not one of the known defects: a tampered summary.json Theta (solve), a
   changed data byte in a repeat, caught by comparing it with the first
   pass (shoot) and a flipped verify line item (verify).  Each
   command is first judged untampered and must pass.
3. A directory holding only BENCHMARK.json and the benchmark's own files
   must make the benchmark exit non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import WORKLOADS, Command

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def short_runs(problems: list[str]) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for name in WORKLOADS:
            proc = subprocess.run(
                SPEC["command"] + ["--workload", name, "--seed", "7", "--seconds", "1",
                                   "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: JSON metrics {got} differ from {want}")
            for metric, unit in want.items():
                if not any(ln.startswith(f"{metric} = ") and ln.endswith(f" {unit}")
                           for ln in lines[:-1]):
                    problems.append(f"{label}: no line '{metric} = <value> {unit}'")
            print(f"{label}: {len(got)} metrics, correct = {result['correct']}")


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _flip_byte(path: Path) -> None:
    raw = bytearray(path.read_bytes())
    k = len(raw) // 2
    raw[k] = ord("7") if raw[k] != ord("7") else ord("3")
    path.write_bytes(bytes(raw))


def _flip_item(rep: dict) -> None:
    rep["items"][0]["passed"] = False
    rep["passed"] = False


# workload -> (command, tamper(out_dir), tamper a repeat, failure reason expected)
TAMPERS = {
    "solve": (Command(("solve", "--eta-in", "8.0", "--xi-in=0.25"), eta_in=8.0),
              lambda out: _edit_json(out / "summary.json",
                                     lambda s: s.update(theta=s["theta"] + 1e-3)),
              False, "theta off reference"),
    "shoot": (Command(("shoot", "--theta=-2.0"), theta=-2.0),
              lambda out: _flip_byte(out / "radial.csv"),
              True, "nondeterministic"),
    "verify": (Command(("verify", "--eta-in", "8.0"), eta_in=8.0),
               lambda out: _edit_json(out / "verify_report.json", _flip_item),
               False, "verify: forbidden-zone confinement"),
}


def tamper_checks(problems: list[str]) -> None:
    cli = run.import_cli()
    scratch = run.OUT / "selftest"
    try:
        for name, (cmd, tamper, repeat, reason) in TAMPERS.items():
            runner = run.Runner(cli, WORKLOADS[name], scratch / name)
            rc, _, _, out, crash = runner.run_once(cmd)
            v = runner.judge(cmd, rc, out, crash)
            if not v.ok:
                problems.append(f"{name}: untampered output failed: {v.failures}")
            if repeat:
                # the timed loop fails an input whose repeat differs from its first pass
                first = run.Record(cmd, v, rc, run.digest(out), 0)
                rc, _, _, out, crash = runner.run_once(cmd)
                first.check_repeat(rc, out, 1)
                if not v.ok:
                    problems.append(f"{name}: untampered repeat differs from the first pass")
                rc, _, _, out, crash = runner.run_once(cmd)
                tamper(out)
                first.check_repeat(rc, out, 2)
            else:
                tamper(out)
                v = runner.judge(cmd, rc, out, crash)
            hits = [f for f in v.failures if f.reason == reason and not f.known]
            if not hits:
                problems.append(f"{name}: tampered output not failed with '{reason}': "
                                f"{v.failures}")
            print(f"{name}: tampered output failed with {[f.reason for f in v.failures]}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def bare_directory(problems: list[str]) -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            SPEC["command"] + ["--workload", "solve", "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, "
                            f"stdout {proc.stdout[-200:]!r}")
        print(f"bare directory: exit {proc.returncode}, {proc.stderr.strip()}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems: list[str] = []
    tamper_checks(problems)
    bare_directory(problems)
    short_runs(problems)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("FAILED" if problems else "PASSED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
