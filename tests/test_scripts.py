import importlib.util
from pathlib import Path

import numpy as np

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
