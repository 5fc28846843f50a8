"""Regenerate the table in src/curvscat/deflection_table.py: piecewise
Chebyshev panels of the inverse deflection map eta_in(Theta) at xi_in = 0.

Samples integrator.deflection_of at the default SolverConfig near the
Chebyshev points of each panel (placed from a coarse forward scan), fits
each panel's series by least squares in the actual angles, then measures
the seed's miss |deflection_of(eta_in(Theta)) - Theta| on a uniform grid of
targets and at every panel edge.  Prints the generated block and the worst
miss; --write splices the block into the module.  The same solver gives the
same block.  Exits 1, writing nothing, when the worst miss exceeds MISS.

Usage:
    python scripts/deflection_table.py --write
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np
from numpy.polynomial import chebyshev

from curvscat import (AsymptoticData, NotConvergedError, SolverConfig,
                      deflection_of)
from curvscat.shooting import THETA_MARGIN

MODULE = Path(__file__).resolve().parent.parent / "src" / "curvscat" / "deflection_table.py"
BEGIN = "# --- generated by scripts/deflection_table.py; do not edit by hand ---\n"
END = "# --- end of generated block ---\n"

# panels in Theta, graded toward the onset side, where ln(eta_in - SHIFT)
# has its singularity just past -pi/2
EDGES = (-math.pi + THETA_MARGIN, -0.8 * math.pi, -0.62 * math.pi,
         -0.54 * math.pi, -0.513 * math.pi, -0.5 * math.pi - THETA_MARGIN)
DEEP = 1
SHIFT = 1.2998
DEGREE = 16
MISS = 2e-10


def theta_of(eta_in: float) -> float:
    return deflection_of(AsymptoticData(0.0, float(eta_in)), SolverConfig())


def coarse_inverse():
    """eta_in(Theta) by linear interpolation of ln(eta_in - SHIFT) on a
    forward scan of 120 points; only places the samples."""
    u = np.linspace(math.log(1e-5), math.log(80.0), 120)
    pairs = []
    for uk in u:
        try:
            pairs.append((theta_of(SHIFT + math.exp(uk)), uk))
        except NotConvergedError:    # below the onset
            continue
    th, uu = np.array(pairs[::-1]).T   # increasing Theta
    return lambda theta: SHIFT + np.exp(np.interp(theta, th, uu))


def fit(samples: int) -> list[np.ndarray]:
    guess = coarse_inverse()
    per_panel = samples // (len(EDGES) - 1)
    coeffs = []
    for k, (lo, hi) in enumerate(zip(EDGES, EDGES[1:])):
        s = np.cos(np.pi * np.arange(per_panel) / (per_panel - 1))
        etas = guess(0.5 * (lo + hi) + 0.5 * (hi - lo) * s)
        thetas = np.array([theta_of(e) for e in etas])
        g = (math.pi + thetas) * etas if k < DEEP else np.log(etas - SHIFT)
        coeffs.append(chebyshev.chebfit((2.0 * thetas - lo - hi) / (hi - lo), g, DEGREE))
    return coeffs


def _rows(values, indent: str) -> list[str]:
    lines, line = [], indent
    for v in values:
        item = repr(float(v)) + ","
        if len(line) + len(item) + 1 > 79:
            lines.append(line.rstrip())
            line = indent
        line += item + " "
    return lines + [line.rstrip()]


def render(coeffs) -> str:
    out = [BEGIN, "EDGES = (\n"]
    out += [ln + "\n" for ln in _rows(EDGES, "    ")]
    out += [")\n", f"DEEP = {DEEP}\n", f"SHIFT = {SHIFT!r}\n", f"MISS = {MISS!r}\n",
            "COEFFS = (\n"]
    for c in coeffs:
        out += ["    (\n"] + [ln + "\n" for ln in _rows(c, "        ")] + ["    ),\n"]
    return "".join(out + [")\n", END])


def splice(text: str, block: str) -> str:
    head, rest = text.split(BEGIN)
    return head + block + rest.split(END)[1]


def worst_miss(module_text: str, checks: int) -> tuple[float, float]:
    """(worst |deflection_of(seed) - Theta|, its Theta) of the table in
    module_text over a uniform grid of checks targets and every edge."""
    ns: dict = {}
    exec(compile(module_text, str(MODULE), "exec"), ns)
    targets = sorted(set(np.linspace(EDGES[0], EDGES[-1], checks).tolist()) | set(EDGES))
    misses = [(abs(theta_of(ns["eta_in_of"](t)[0]) - t), t) for t in targets]
    return max(misses)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=3000,
                    help="deflection_of samples the panels are fitted to")
    ap.add_argument("--checks", type=int, default=2000,
                    help="uniform targets the seed's miss is measured at")
    ap.add_argument("--write", action="store_true",
                    help=f"splice the block into {MODULE.name}")
    args = ap.parse_args(argv)

    block = render(fit(args.samples))
    text = splice(MODULE.read_text(), block)
    miss, at = worst_miss(text, args.checks)
    print(block, end="")
    print(f"worst seed miss {miss:.3e} at Theta = {at / math.pi:.12f} pi "
          f"(bound MISS = {MISS:g})")
    if miss > MISS:
        return 1
    if args.write:
        MODULE.write_text(text)
        print(f"wrote {MODULE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
