"""Tabulate the deflection map eta_in -> Theta and probe the scattering onset.

Evidence gathering for the open uniqueness question: the map looks strictly
monotone on every grid we have tried, but nothing here proves it.

Usage:
    python scripts/deflection_map.py --eta-min 1.31 --eta-max 64 --n 25 \
        --out deflection_map.csv
"""

import argparse
import csv
import math
import sys

import numpy as np

from curvscat import (AsymptoticData, NotConvergedError, Outcome,
                      SolverConfig, deflection_of, theta_identities)

# the outcome column's word for each way a run ends
KINDS = {Outcome.ESCAPED: "scatter", Outcome.CERTIFIED: "blowup",
         Outcome.OUT_OF_BUDGET: "no-escape"}

# the onset bracket's lower end when no grid point below the onset is
# certified; it is checked before it is used
FLOOR = 0.5


def classify(eta_in: float, cfg: SolverConfig):
    """(outcome, Theta or None) of the run from (xi_in, eta_in) = (0, eta_in),
    from the solver call alone, which samples nothing; a solver failure
    raises."""
    try:
        return Outcome.ESCAPED, deflection_of(AsymptoticData(0.0, eta_in), cfg)
    except NotConvergedError as exc:
        if exc.outcome is Outcome.SOLVER_FAILURE:
            raise
        return exc.outcome, None


def onset_bracket(rows, cfg: SolverConfig):
    """(lo, hi) from the tabulated rows: hi the smallest scattering eta_in,
    lo the largest certified one below it, else FLOOR if its run is
    certified; None when there is no such pair."""
    hi = min((eta for eta, kind, *_ in rows if kind == "scatter"), default=None)
    if hi is None:
        return None
    lo = max((eta for eta, kind, *_ in rows if kind == "blowup" and eta < hi),
             default=None)
    if lo is None and FLOOR < hi and classify(FLOOR, cfg)[0] is Outcome.CERTIFIED:
        lo = FLOOR
    return None if lo is None else (float(lo), float(hi))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eta-min", type=float, default=1.31)
    ap.add_argument("--eta-max", type=float, default=64.0)
    ap.add_argument("--n", type=int, default=25)
    ap.add_argument("--out", default="deflection_map.csv")
    ap.add_argument("--onset-bisections", type=int, default=30,
                    help="bisection steps locating the empirical onset")
    args = ap.parse_args(argv)

    cfg = SolverConfig()
    rows = []
    for eta in np.geomspace(args.eta_min, args.eta_max, args.n):
        outcome, theta = classify(float(eta), cfg)
        kind = KINDS[outcome]
        if theta is None:
            print(f"eta_in = {eta:12.6f}  {kind}")
            rows.append((eta, kind, "", "", ""))
        else:
            kap, al = theta_identities(theta)
            print(f"eta_in = {eta:12.6f}  theta = {theta / math.pi:+.9f} pi"
                  f"  kappa = {kap:.6f}  alpha = {al:.6f}")
            rows.append((eta, kind, theta, kap, al))

    # empirical onset: largest certified eta below the smallest scattering
    # one (xi_in = 0); upper estimates from theory sit higher.  The bracket
    # is the smallest scattering grid point and the largest certified one
    # below it, or FLOOR when no grid point below it is certified and FLOOR
    # itself is.  A budget stop decides neither side, so it ends the
    # bisection
    bracket = onset_bracket(rows, cfg)
    if bracket is None:
        print("no onset bracket: the grid has no scattering point with a "
              "certified point below it")
    else:
        lo, hi = bracket
        for _ in range(args.onset_bisections):
            mid = 0.5 * (lo + hi)
            outcome, _ = classify(mid, cfg)
            if outcome is Outcome.OUT_OF_BUDGET:
                print(f"eta_in = {mid:.8f} undecided: no escape or certificate "
                      f"within max_time = {cfg.max_time:g}")
                break
            if outcome is Outcome.ESCAPED:
                hi = mid
            else:
                lo = mid
        print(f"empirical scattering onset in ({lo:.8f}, {hi:.8f})")

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["eta_in", "outcome", "theta", "kappa", "alpha"])
        for r in rows:
            w.writerow([format(r[0], ".12g"), r[1]]
                       + [format(v, ".12g") if v != "" else "" for v in r[2:]])
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
