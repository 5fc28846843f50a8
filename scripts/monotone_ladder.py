"""Export the monotone fixed-point ladders as CSV files for plotting.

Writes one file per iterate (past zone xi and eta ladders), columns t,value.

Usage:
    python scripts/monotone_ladder.py --eta-in 8 --iterates 6 --out-dir ladder/
"""

import argparse
import sys
from pathlib import Path

from curvscat import AsymptoticData, explicit_bounds, iterate_past
from curvscat.cli import _nonnegative_int, _positive_float, write_csv


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eta-in", type=float, default=8.0)
    ap.add_argument("--xi-in", type=float, default=0.0)
    ap.add_argument("--iterates", type=_nonnegative_int, default=6)
    ap.add_argument("--step", type=_positive_float, default=2e-3)
    ap.add_argument("--out-dir", default="ladder")
    args = ap.parse_args(argv)

    a = AsymptoticData(args.xi_in, args.eta_in)
    handoff = explicit_bounds(a).t0_lower - 1.0
    run = iterate_past(a, handoff, step=args.step, tol=-1.0,
                       max_iter=args.iterates)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for k, (xi, eta) in enumerate(zip(run.iterates_xi, run.iterates_eta)):
        write_csv(out / f"xi_{k:02d}.csv", ["t", "value"], [run.t, xi])
        write_csv(out / f"eta_{k:02d}.csv", ["t", "value"], [run.t, eta])
    print(f"wrote {2 * len(run.iterates_xi)} ladder files to {out}/")
    print("sup-norm steps:", ["%.3e" % d for d in run.sup_diff_history])
    return 0


if __name__ == "__main__":
    sys.exit(main())
