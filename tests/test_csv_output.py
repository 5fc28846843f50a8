"""The CLI's block CSV writer against the row-by-row oracle, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from curvscat import AsymptoticData, integrate, to_radial
from curvscat.analysis import GradientFlowState, gradient_flow_run
from curvscat.cli import (_CSV_BLOCK_ROWS, EXIT_OK, main, write_radial_csv,
                          write_sweep_csv, write_trajectory_csv)
from curvscat.csvformat import _decimal, format_rows
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
    res = gradient_flow_run(GradientFlowState.from_anchor(-0.999, 1e-6))
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


def _rowwise(block):
    return "".join(",".join("%.12g" % v for v in row) + "\r\n"
                   for row in block.tolist()).encode()


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                               max_side=9),
                  elements=st.floats()))
def test_format_rows_matches_percent_g(block):
    # st.floats() draws nan, both infinities, signed zeros and subnormals;
    # every numpy warning is an error under the suite's filter
    assert format_rows(block) == _rowwise(block)


# the special strings (0, inf and nan, negated below); exact ties at the
# 13th significant digit; the switch between fixed and exponent form, with
# and without a carry into the next decade; 2- and 3-digit exponents; the
# ends of the rendered range; every power of ten, where log10 may miss the
# exponent; and doubles nearest to decimal ties, about 1% of which two
# roundings in the scaling would round the wrong way
_RNG = np.random.default_rng(18)
EDGES = [0.0, math.inf, math.nan, 2.0**-18, 123456789012.5, 999999999999.5,
         9.999999999995e-05, 1e-4, 99999999999.95, 999999999999.4,
         1e99, 1e-99, 1e100, 1e-100, 1e308, 1e-308,
         5e-324, 1e-300, 1e300,
         *(float(f"1e{k}") for k in range(-307, 309)),
         *(float(f"{n}5e{k}") for n, k in zip(
             _RNG.integers(10**11, 10**12, 2000).tolist(),
             _RNG.integers(-300, 300, 2000).tolist()))]


def test_format_rows_edges_and_neighbours():
    vals = np.array(EDGES)
    vals = np.concatenate([vals, np.nextafter(vals, 0.0),
                           np.nextafter(vals, np.inf)])
    vals = np.concatenate([vals, -vals])
    for cols in (1, 3):
        block = np.resize(vals, (len(vals) // cols + 1) * cols).reshape(-1, cols)
        assert format_rows(block) == _rowwise(block)


@pytest.mark.parametrize("eta_in", [1.31, 8.0, 22.0])
def test_few_fields_leave_the_block_path(cfg, eta_in):
    # the block renderer does the work: fields formatted one at a time (near
    # a rounding tie, or magnitudes outside 1e-296..1e300) stay under 1% of
    # a trajectory's and its radial data's
    traj = integrate(AsymptoticData(0.0, eta_in), cfg)
    sol = to_radial(traj)
    fields = np.concatenate([traj.t, traj.xi, traj.eta, traj.xi_dot,
                             traj.eta_dot, traj.energy, sol.r_grid,
                             sol.u_values, sol.k_values])
    *_, slow = _decimal(fields)
    assert len(slow) < 0.01 * len(fields)


@pytest.mark.parametrize("value", [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan])
def test_special_values_take_the_percent_g_path(value):
    # a block of one special value, one of all six, and one of all six
    # among ordinary values, in 3 columns: '%.12g' formats exactly the
    # special fields, which trajectories and radial data never hold
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]
    for vals in ([value], specials, [1.5, *specials, -2.25e-7]):
        block = np.resize(vals, (B, 3))
        *_, slow = _decimal(block.ravel())
        special = ~np.isfinite(block.ravel()) | (block.ravel() == 0.0)
        assert np.array_equal(slow, np.flatnonzero(special))
        assert format_rows(block) == _rowwise(block)
