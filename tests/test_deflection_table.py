import math

import numpy as np

from curvscat import AsymptoticData, SolverConfig, deflection_of
from curvscat import deflection_table as table
from curvscat.shooting import THETA_MARGIN

PI = math.pi


def test_panels_cover_exactly_shoots_range():
    edges = table.EDGES
    assert edges[0] == -PI + THETA_MARGIN
    assert edges[-1] == -0.5 * PI - THETA_MARGIN
    assert all(lo < hi for lo, hi in zip(edges, edges[1:]))
    assert len(table.COEFFS) == len(edges) - 1
    assert 0 < table.DEEP < len(table.COEFFS)
    assert sum(len(c) for c in table.COEFFS) <= 200
    # contiguous: at each inner edge the two panels meet within the bound,
    # read as an angle through the slope
    for edge in edges[1:-1]:
        left, slope = table.eta_in_of(math.nextafter(edge, -math.inf))
        right, _ = table.eta_in_of(edge)
        assert abs(left - right) <= table.MISS * abs(slope), edge / PI


def test_seed_misses_within_the_bound():
    cfg = SolverConfig()
    inset = 1e-9 * PI
    targets = set(np.linspace(table.EDGES[0], table.EDGES[-1], 100).tolist())
    targets |= set(table.EDGES)
    targets |= {table.EDGES[0] + inset, table.EDGES[-1] - inset}
    # inside the eta_in band 2.32491-2.32566, where DOP853 declared escape
    # near the eta = 0 crossing and jumped by 7.4e-10, and near the onset,
    # where Theta steps as escape moves from one step end to the next
    targets |= {deflection_of(AsymptoticData(0.0, eta), cfg)
                for eta in (2.32515, 1.29985, 1.2998348)}
    assert len(targets) >= 100
    for theta in sorted(targets):
        eta = table.eta_in_of(theta)[0]
        miss = abs(deflection_of(AsymptoticData(0.0, eta), cfg) - theta)
        assert miss <= table.MISS, theta / PI


def test_slope_matches_the_difference_of_the_values():
    h = 1e-7
    for theta in np.linspace(-0.99, -0.51, 25) * PI:
        diff = (table.eta_in_of(theta + h)[0] - table.eta_in_of(theta - h)[0]) / (2 * h)
        assert math.isclose(table.eta_in_of(theta)[1], diff, rel_tol=1e-6)


def test_out_of_range_angles_take_the_end_values():
    assert table.eta_in_of(-PI) == table.eta_in_of(table.EDGES[0])
    assert table.eta_in_of(-0.5 * PI) == table.eta_in_of(table.EDGES[-1])
