"""The CLI's block CSV writer against the row-by-row oracle, byte for byte."""

import math

import numpy as np
import pytest

from curvscat import AsymptoticData, integrate, to_radial
from curvscat.analysis import GradientFlowState, gradient_flow_run
from curvscat.cli import (_CSV_BLOCK_ROWS, EXIT_OK, main, write_radial_csv,
                          write_sweep_csv, write_trajectory_csv)
from curvscat.shooting import SweepRow, sweep

import _reference as ref

B = _CSV_BLOCK_ROWS
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5,
           999999999999.5]


def _assert_same_bytes(tmp_path, write, oracle, data):
    new, old = tmp_path / "block.csv", tmp_path / "rowwise.csv"
    write(new, data)
    oracle(old, data)
    assert new.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("xi_in", [0.0, -0.7])
@pytest.mark.parametrize("eta_in", [1.31, 8.0, 22.0])
def test_trajectory_and_radial_csv_match_rowwise(tmp_path, cfg, eta_in, xi_in):
    traj = integrate(AsymptoticData(xi_in, eta_in), cfg)
    _assert_same_bytes(tmp_path, write_trajectory_csv,
                       ref.write_trajectory_csv, traj)
    _assert_same_bytes(tmp_path, write_radial_csv, ref.write_radial_csv,
                       to_radial(traj))


def test_sweep_csv_with_failed_row_matches_rowwise(tmp_path, cfg):
    rows = sweep(np.array([-0.99, -0.75]) * math.pi, cfg, root_tol=1e-6,
                 ceiling=10.0)
    assert rows[0].status.startswith("failed") and math.isnan(rows[0].theta)
    assert rows[1].status == "ok"
    _assert_same_bytes(tmp_path, write_sweep_csv, ref.write_sweep_csv, rows)


def test_flow_csv_matches_rowwise(tmp_path):
    out = tmp_path / "flow"
    assert main(["flow", "--mu0", "-0.999", "--delta", "1e-6",
                 "--out-dir", str(out)]) == EXIT_OK
    res = gradient_flow_run(GradientFlowState.from_anchor(-0.999, 1e-6),
                            keep_history=True)
    ref.write_flow_csv(tmp_path / "rowwise.csv", res.history)
    assert (out / "flow.csv").read_bytes() == (tmp_path / "rowwise.csv").read_bytes()


@pytest.mark.parametrize("n_rows", [0, 1, B - 1, B, B + 1, 2 * B + 1])
def test_block_edges_and_special_values_match_rowwise(tmp_path, n_rows):
    # random float64 bit patterns, every third value replaced by an edge case
    # of '%.12g' (nan, infinities, signed zero, subnormal, the switch to
    # exponent notation and a round-up at the 12th digit)
    rng = np.random.default_rng(n_rows)
    vals = rng.integers(0, 2**64, 7 * n_rows, dtype=np.uint64).view(np.float64)
    vals[::3] = np.resize(SPECIAL, len(vals[::3]))
    rows = [SweepRow(math.nan, *map(float, row), status="synthetic")
            for row in vals.reshape(n_rows, 7)]
    _assert_same_bytes(tmp_path, write_sweep_csv, ref.write_sweep_csv, rows)
