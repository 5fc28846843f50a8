import importlib.util
import math
import re
from pathlib import Path

import numpy as np

from curvscat import (AsymptoticData, SolverConfig, deflection_of,
                      explicit_bounds, iterate_past, theta_identities)

from _reference import write_ladder_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_monotone_ladder_writes_ordered_csv(tmp_path):
    ladder = _load("monotone_ladder")
    assert ladder.main(["--iterates", "2", "--step", "8e-3",
                        "--out-dir", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("*.csv"))) == 6
    xi = [np.loadtxt(tmp_path / f"xi_{k:02d}.csv", delimiter=",", skiprows=1)
          for k in range(3)]
    for prev, nxt in zip(xi, xi[1:]):
        assert np.array_equal(prev[:, 0], nxt[:, 0])
        assert np.all(nxt[:, 1] >= prev[:, 1])


def test_monotone_ladder_csv_matches_rowwise(tmp_path):
    ladder = _load("monotone_ladder")
    assert ladder.main(["--iterates", "2", "--step", "8e-3",
                        "--out-dir", str(tmp_path)]) == 0
    a = AsymptoticData(0.0, 8.0)
    run = iterate_past(a, explicit_bounds(a).t0_lower - 1.0, step=8e-3,
                       tol=-1.0, max_iter=2)
    for k, (gx, ge) in enumerate(zip(run.iterates_xi, run.iterates_eta)):
        for name, gf in ((f"xi_{k:02d}.csv", gx), (f"eta_{k:02d}.csv", ge)):
            write_ladder_csv(gf, tmp_path / "rowwise.csv")
            assert ((tmp_path / name).read_bytes()
                    == (tmp_path / "rowwise.csv").read_bytes())


def test_deflection_map_smoke(tmp_path, capsys):
    dmap = _load("deflection_map")
    out = tmp_path / "map.csv"
    assert dmap.main(["--n", "3", "--onset-bisections", "4",
                      "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eta_in,outcome,theta,kappa,alpha"
    assert len(lines) == 4
    # the script's grid; deflection_of gives the script's Theta bit for bit
    for eta, line in zip(np.geomspace(1.31, 64.0, 3), lines[1:]):
        theta = deflection_of(AsymptoticData(0.0, float(eta)), SolverConfig())
        assert -math.pi < theta < -0.5 * math.pi
        assert line.split(",") == [format(eta, ".12g"), "scatter"] + [
            format(v, ".12g") for v in (theta, *theta_identities(theta))]
    lo, hi = map(float, re.search(r"onset in \(([^,]+), ([^)]+)\)",
                                  capsys.readouterr().out).groups())
    assert lo < 1.2998 < hi
