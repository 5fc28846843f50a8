"""Run the benchmark on two checkouts in alternating pairs and compare them.

Each pair runs BENCHMARK.json's command once in each checkout, on one
workload and seed, for BENCHMARK.json's run_seconds; the side that goes
first alternates from pair to pair (the parent first in even pairs), so a
drift of the host's speed falls on both sides alike.  The result goes into
BENCH_<label>.json in the working directory, one entry per workload and
seed (a rerun replaces its entry, other entries are kept): every run's
end-to-end metrics, each side's median and quartiles per metric, and the
pairs the change won.  A pair is won when the change's value is better than the
parent's by the metric's `better` in BENCHMARK.json; a tie counts for
neither side.  `gain_beyond_parent_iqr` says whether the change's median
is better than the parent's by more than the parent's interquartile range.
Standard library only; it reads the checkouts and writes only its result
file.

Usage:
    python scripts/bench_pairs.py --parent ../parent --change . \
        --workload verify --pairs 10 --seed 1 --label verify_seed1
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive method; one value
    is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def order(pair: int) -> tuple[str, str]:
    """The sides of pair `pair` in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def compare(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles over runs, and the pairs
    each side won.  runs holds one {"pair", "side", "metrics"} per side of
    every pair, metrics BENCHMARK.json's end_to_end entries."""
    pairs = sorted({run["pair"] for run in runs})
    out = {}
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        value = {(run["pair"], run["side"]): run["metrics"][name] for run in runs}
        entry = {"better": m["better"]}
        for side in SIDES:
            q1, med, q3 = quartiles([value[pair, side] for pair in pairs])
            entry[side] = {"median": med, "q1": q1, "q3": q3}
        gains = [sign * (value[pair, "change"] - value[pair, "parent"]) for pair in pairs]
        gain = sign * (entry["change"]["median"] - entry["parent"]["median"])
        out[name] = {**entry, "pairs": len(pairs), "change_won": sum(g > 0 for g in gains),
                     "parent_won": sum(g < 0 for g in gains),
                     "gain_beyond_parent_iqr":
                         gain > entry["parent"]["q3"] - entry["parent"]["q1"]}
    return out


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in checkout; the result object its last stdout line
    prints.  Exits naming the checkout when the run fails."""
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", repr(seconds)],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {checkout}: exit {proc.returncode}: "
                         f"{proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}


def write_entry(path: Path, label: str, entry: dict) -> None:
    """Put entry into the result file at path, replacing an entry of the
    same workload and seed and keeping the others, sorted by both."""
    body = {"label": label,
            "order": "parent first in even pairs, change first in odd ones",
            "environment": _environment(), "results": []}
    if path.exists():
        body["results"] = json.loads(path.read_text())["results"]
    key = (entry["workload"], entry["seed"])
    body["results"] = sorted(
        [e for e in body["results"] if (e["workload"], e["seed"]) != key] + [entry],
        key=lambda e: (e["workload"], e["seed"]))
    path.write_text(json.dumps(body, indent=1) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="the checkout compared against")
    p.add_argument("--change", type=Path, required=True, help="the checkout under test")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--label", required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        p.error("--workload must be one of BENCHMARK.json's workloads")

    runs = []
    for pair in range(args.pairs):
        for side in order(pair):
            run = run_once(checkouts[side], bench["command"], args.workload,
                           args.seed, bench["run_seconds"])
            runs.append({"pair": pair, "side": side, **run})
            print(f"pair {pair} {side}: " + ", ".join(
                f"{k} {v:.6g}" for k, v in run["metrics"].items()), flush=True)

    entry = {
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "command": [*bench["command"], "--workload", args.workload, "--seed",
                    str(args.seed), "--seconds", repr(bench["run_seconds"])],
        "summary": compare(runs, bench["end_to_end"]),
        "runs": runs,
    }
    path = Path(f"BENCH_{args.label}.json")
    write_entry(path, args.label, entry)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
