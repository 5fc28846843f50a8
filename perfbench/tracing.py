"""Per-layer spans recorded from outside the program.

The tracer replaces public functions at the places their callers look them
up (a module attribute) with a wrapper that records a span: name, start,
end, parent span and command id.  Counters come only from values the
wrapped calls already return (solve_ivp's result, Trajectory, ShootingResult,
PicardRun, RadialSolution).  Spans stay in memory and are written out when
the run ends.  A span's self time is its duration minus the durations of its
direct children; calls are sequential, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path


def _trajectory_counts(traj):
    return {"samples": len(traj),
            "no_escape": int(not traj.escaped or traj.events.blowup is not None)}


def _solve_ivp_counts(sol):
    # with dense output every accepted step leaves one point in sol.t
    return {"nfev": int(sol.nfev), "steps": len(sol.t) - 1}


def _shoot_counts(res):
    return {"iterations": int(res.iterations)}


def _picard_counts(run):
    iterates = len(run.iterates_xi)
    return {"iterates": iterates, "iters": len(run.sup_diff_history),
            "nodes": iterates * len(run.iterates_xi[0].values)}


def _radial_counts(sol):
    return {"points": len(sol.r_grid)}


# (module, attribute looked up by callers, span name, counter)
SITES = [
    ("curvscat.cli", "main", "cli.main", None),
    ("curvscat.cli", "write_trajectory_csv", "cli.write", None),
    ("curvscat.cli", "write_radial_csv", "cli.write", None),
    ("curvscat.cli", "write_json", "cli.write", None),
    ("curvscat.cli", "write_manifest", "cli.write", None),
    ("curvscat.cli", "integrate", "integrator.integrate", _trajectory_counts),
    ("curvscat.shooting", "integrate", "integrator.integrate", _trajectory_counts),
    ("curvscat.verification", "integrate", "integrator.integrate", _trajectory_counts),
    ("curvscat.integrator", "solve_ivp", "scipy.solve_ivp", _solve_ivp_counts),
    ("curvscat.shooting", "shoot", "shooting.shoot", _shoot_counts),
    ("curvscat.geometry", "to_radial", "geometry.to_radial", _radial_counts),
    ("curvscat.geometry", "asymptotic_fit", "geometry.fit", None),
    ("curvscat.picard", "iterate_past", "picard.past", _picard_counts),
    ("curvscat.picard", "iterate_future", "picard.future", _picard_counts),
    ("curvscat.picard", "monotonicity_report", "picard.monotonicity", None),
    ("curvscat.analysis", "inflection_diagnostics", "analysis.inflection", None),
    ("curvscat.analysis", "g_values", "analysis.inflection", None),
    ("curvscat.verification", "run_suite", "verification.run_suite", None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "command", "counts", "error")

    def __init__(self, name, start, parent, command):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.command = command
        self.counts = None
        self.error = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while active; command is the id stamped on new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.command = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, time.perf_counter(), parent, tracer.command)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span.counts = counter(result)
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr, name, counter in SITES:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._patches.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(fn, name, counter))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one span adds to a call, measured on an empty function."""
        def empty():
            return None

        traced = self.wrap(empty, "trace.calibration")
        was, self.active = self.active, True
        try:
            t = time.perf_counter()
            for _ in range(calls):
                empty()
            bare = time.perf_counter() - t
            t = time.perf_counter()
            for _ in range(calls):
                traced()
            wrapped = time.perf_counter() - t
        finally:
            self.active = was
            del self.spans[-calls:]
        return max(wrapped - bare, 0.0) / calls

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(
            [[s.name, s.start, s.end, s.parent, s.command, s.counts, s.error]
             for s in self.spans]))


# per-layer metric -> unit; times and counts are means per timed command
# unless the name says otherwise
UNITS = {
    "cli.busy_s": "s", "cli.self_s": "s", "cli.write_s": "s",
    "cli.bytes_written": "B", "cli.write_mb_per_s": "MB/s", "cli.write_share": "ratio",
    "integrator.calls": "count", "integrator.busy_s": "s", "integrator.segments": "count",
    "integrator.solve_ivp_s": "s", "integrator.self_s": "s", "integrator.nfev": "count",
    "integrator.steps": "count", "integrator.samples": "count", "integrator.sample_mb": "MB",
    "integrator.no_escape": "count", "integrator.busy_share": "ratio",
    "shooting.busy_s": "s", "shooting.self_s": "s",
    "shooting.integrations_per_shoot": "count", "shooting.useful_ratio": "ratio",
    "shooting.refine_iters": "count", "shooting.scan_evals": "count",
    "shooting.nonscatter_evals": "count", "shooting.busy_share": "ratio",
    "geometry.to_radial_calls": "count", "geometry.to_radial_s": "s", "geometry.fit_s": "s",
    "geometry.radial_points": "count",
    "picard.past_s": "s", "picard.past_iterates": "count", "picard.past_nodes": "count",
    "picard.past_ns_per_node": "ns", "picard.future_s": "s", "picard.future_iters": "count",
    "picard.future_nodes": "count", "picard.monotonicity_s": "s", "picard.past_share": "ratio",
    "analysis.inflection_s": "s",
    "verification.busy_s": "s", "verification.self_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
    "trace.op_s_p50": "s",
}

# Trajectory holds t, xi, eta, xi_dot, eta_dot as float64 and a bool mask
_SAMPLE_BYTES = 5 * 8 + 1


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span], commands: int, command_seconds: float,
                  bytes_written: int, span_cost: float, op_s_p50: float) -> dict:
    """Per-layer metrics (see UNITS) over the spans of `commands` timed commands.

    command_seconds is their summed wall time, the base of every share.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds

    def ancestors(k):
        p = spans[k].parent
        while p >= 0:
            yield p
            p = spans[p].parent

    def busy(pred):
        # outermost matching spans only, so nested calls are not counted twice
        return sum(s.seconds for k, s in enumerate(spans)
                   if pred(s) and not any(pred(spans[p]) for p in ancestors(k)))

    def named(name):
        return lambda s: s.name == name

    def in_layer(layer):
        return lambda s: s.layer == layer

    def self_time(layer):
        return sum(s.seconds - child[k] for k, s in enumerate(spans) if s.layer == layer)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def total(name, key):
        return sum(s.counts[key] for s in spans if s.name == name and s.counts)

    def per(x):
        return _div(x, commands)

    shoots = [k for k, s in enumerate(spans) if s.name == "shooting.shoot"]
    solved = [k for k in shoots if not spans[k].error]
    under = {k: [] for k in shoots}
    for k, s in enumerate(spans):
        if s.name == "integrator.integrate":
            owner = next((p for p in ancestors(k) if spans[p].name == "shooting.shoot"), None)
            if owner is not None:
                under[owner].append(s)
    integrations = sum(len(under[k]) for k in shoots)
    iterations = sum(spans[k].counts["iterations"] for k in solved)
    nonscatter = sum(s.counts["no_escape"] for k in shoots for s in under[k] if s.counts)

    write = busy(named("cli.write"))
    integ = busy(named("integrator.integrate"))
    shooting = busy(in_layer("shooting"))
    past = busy(named("picard.past"))
    past_nodes = total("picard.past", "nodes")
    samples = total("integrator.integrate", "samples")
    overhead = len(spans) * span_cost
    return {
        "cli.busy_s": per(busy(in_layer("cli"))),
        "cli.self_s": per(self_time("cli")),
        "cli.write_s": per(write),
        "cli.bytes_written": per(bytes_written),
        "cli.write_mb_per_s": _div(bytes_written / 1e6, write),
        "cli.write_share": _div(write, command_seconds),
        "integrator.calls": per(calls("integrator.integrate")),
        "integrator.busy_s": per(integ),
        "integrator.segments": per(calls("scipy.solve_ivp")),
        "integrator.solve_ivp_s": per(busy(named("scipy.solve_ivp"))),
        "integrator.self_s": per(self_time("integrator")),
        "integrator.nfev": per(total("scipy.solve_ivp", "nfev")),
        "integrator.steps": per(total("scipy.solve_ivp", "steps")),
        "integrator.samples": per(samples),
        "integrator.sample_mb": per(samples * _SAMPLE_BYTES / 1e6),
        "integrator.no_escape": per(total("integrator.integrate", "no_escape")),
        "integrator.busy_share": _div(integ, command_seconds),
        "shooting.busy_s": per(shooting),
        "shooting.self_s": per(self_time("shooting")),
        "shooting.integrations_per_shoot": _div(integrations, len(shoots)),
        "shooting.useful_ratio": _div(len(solved), integrations),
        "shooting.refine_iters": _div(iterations, len(solved)),
        "shooting.scan_evals": _div(sum(len(under[k]) for k in solved) - iterations,
                                    len(solved)),
        "shooting.nonscatter_evals": _div(nonscatter, len(shoots)),
        "shooting.busy_share": _div(shooting, command_seconds),
        "geometry.to_radial_calls": per(calls("geometry.to_radial")),
        "geometry.to_radial_s": per(busy(named("geometry.to_radial"))),
        "geometry.fit_s": per(busy(named("geometry.fit"))),
        "geometry.radial_points": per(total("geometry.to_radial", "points")),
        "picard.past_s": per(past),
        "picard.past_iterates": _div(total("picard.past", "iterates"), calls("picard.past")),
        "picard.past_nodes": _div(past_nodes, calls("picard.past")),
        "picard.past_ns_per_node": _div(past * 1e9, past_nodes),
        "picard.future_s": per(busy(named("picard.future"))),
        "picard.future_iters": _div(total("picard.future", "iters"), calls("picard.future")),
        "picard.future_nodes": _div(total("picard.future", "nodes"), calls("picard.future")),
        "picard.monotonicity_s": per(busy(named("picard.monotonicity"))),
        "picard.past_share": _div(past, command_seconds),
        "analysis.inflection_s": per(busy(in_layer("analysis"))),
        "verification.busy_s": per(busy(in_layer("verification"))),
        "verification.self_s": per(self_time("verification")),
        "trace.spans": per(len(spans)),
        "trace.overhead_s": per(overhead),
        "trace.overhead_frac": _div(overhead, command_seconds),
        "trace.op_s_p50": op_s_p50,
    }
