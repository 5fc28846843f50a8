import hashlib

import numpy as np
import pytest

from curvscat import (AsymptoticData, PhasePoint, explicit_bounds, integrate,
                      iterate_future, iterate_past, monotonicity_report,
                      xi_subsolution)
from curvscat.cli import write_csv
from curvscat.picard import (GridFunction, NewtonNotConvergedError, PicardRun,
                             _PastGrid)

from _reference import (eta_first_iterate, final_residual, iterate_future_rowwise,
                        iterate_past_allocating, march_xi_nodewise,
                        monotonicity_two_temporaries, rk4_grid_from_state,
                        rk4_on_grid, write_ladder_csv)

A8 = AsymptoticData(0.0, 8.0)
HANDOFF8 = explicit_bounds(A8).t0_lower - 1.0


@pytest.fixture(scope="module")
def run8():
    return iterate_past(A8, HANDOFF8, step=1e-3, tol=1e-10, max_iter=50)


def test_converges(run8):
    assert run8.converged
    assert run8.sup_diff_history[-1] <= 1e-10
    # the summed sup-norm differences decrease monotonically
    assert all(b < a for a, b in zip(run8.sup_diff_history,
                                     run8.sup_diff_history[1:]))


def test_zeroth_iterate_matches_closed_form(run8):
    gf = run8.iterates_xi[0]
    err = np.max(np.abs(gf.values - xi_subsolution(gf.t, A8)))
    assert err <= 1.0 * gf.step**2


def test_first_eta_iterate_matches_closed_form(run8):
    gf = run8.iterates_eta[1]
    err = np.max(np.abs(gf.values - eta_first_iterate(gf.t, A8)))
    assert err <= 1.0 * gf.step**2


def test_ladder_is_monotone(run8):
    rep = monotonicity_report(run8, allowance=1e-12)
    assert rep.ordered
    assert rep.worst_violation <= 1e-12


def test_iterate_bounds(run8):
    # every iterate stays positive, below the free line, and above the
    # explicit eta lower envelope
    t = run8.iterates_xi[0].t
    for gf in run8.iterates_eta:
        assert np.all(gf.values > 0.0)
        assert np.all(gf.values > 8.0 - np.exp(2.0 * t) / 8.0 - 1e-12)
    for gf in run8.iterates_xi:
        assert np.all(gf.values < 0.0 + t)


def test_limit_matches_independent_rk4(run8):
    t = run8.iterates_xi[-1].t
    ref = rk4_on_grid(0.0, 8.0, t, substeps=2)
    assert np.max(np.abs(run8.iterates_xi[-1].values - ref[:, 0])) <= 1e-6
    assert np.max(np.abs(run8.iterates_eta[-1].values - ref[:, 2])) <= 1e-6


def test_limit_residual_second_order(run8):
    r_xi, r_eta = final_residual(run8)
    h = run8.iterates_xi[-1].step
    assert r_xi <= 10.0 * h**2 and r_eta <= 10.0 * h**2


def test_defect_quarters_under_step_halving():
    defects = []
    for step in (8e-3, 4e-3, 2e-3):
        run = iterate_past(A8, HANDOFF8, step=step, tol=1e-11, max_iter=60)
        t = run.iterates_xi[-1].t
        ref = rk4_on_grid(0.0, 8.0, t, substeps=4)
        defects.append(np.max(np.abs(run.iterates_xi[-1].values - ref[:, 0])))
    r1 = defects[0] / defects[1]
    r2 = defects[1] / defects[2]
    assert 3.0 < r1 < 5.2 and 3.0 < r2 < 5.2


def test_non_convergence_reported():
    run = iterate_past(A8, HANDOFF8, step=4e-3, tol=1e-30, max_iter=3)
    assert not run.converged
    assert len(run.sup_diff_history) == 3
    assert run.sup_diff_history[-1] > 1e-30


def test_preconditions():
    with pytest.raises(ValueError):
        iterate_past(AsymptoticData(0.0, -2.0), 0.0, step=1e-2)
    with pytest.raises(ValueError, match="monotone zone"):
        iterate_past(A8, explicit_bounds(A8).t0_lower + 0.5, step=1e-2)
    for step in (0.0, -1e-2, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="step"):
            iterate_past(A8, HANDOFF8, step=step)
    # t_min above, at, or one step below t_handoff: fewer than 3 nodes
    for t_min in (HANDOFF8 + 1.0, HANDOFF8, HANDOFF8 - 1e-2):
        with pytest.raises(ValueError, match="t_handoff"):
            iterate_past(A8, HANDOFF8, step=1e-2, t_min=t_min)
    with pytest.raises(ValueError, match="t_handoff"):
        iterate_past(A8, float("nan"), step=1e-2)
    assert len(iterate_past(A8, HANDOFF8, step=1e-2, t_min=HANDOFF8 - 2e-2,
                            max_iter=1).iterates_xi[-1].values) == 3


ORACLE_CASES = [(step, eta_in, xi_in) for step in (1e-3, 2e-3, 8e-3)
                for eta_in in (1.31, 8.0, 64.0) for xi_in in (0.0, -0.7)]


@pytest.mark.parametrize("step, eta_in, xi_in", ORACLE_CASES)
def test_march_matches_nodewise_oracle(step, eta_in, xi_in):
    # every xi iterate solves the discrete equation for the eta iterate it
    # was marched from, as the node-by-node march solves it
    a = AsymptoticData(xi_in, eta_in)
    run = iterate_past(a, explicit_bounds(a).t0_lower - 1.0, step=step,
                       tol=0.0, max_iter=2)
    t = run.iterates_xi[-1].t
    for gx, ge in zip(run.iterates_xi, run.iterates_eta):
        ref = march_xi_nodewise(t, ge.values, a, step)
        assert np.max(np.abs(gx.values - ref)) <= 1e-13


@pytest.mark.parametrize("eta_in", [1.31, 8.0, 64.0])
def test_verify_ladder_ordered(eta_in):
    a = AsymptoticData(0.0, eta_in)
    run = iterate_past(a, explicit_bounds(a).t0_lower - 1.0, step=2e-3,
                       tol=0.0, max_iter=6)
    assert monotonicity_report(run, allowance=1e-12).ordered


@pytest.mark.parametrize("eta_in, xi_in", [(1.31, 0.0), (8.0, -0.7), (64.0, 0.0),
                                           (1e3, 0.0)])
def test_past_grid_starts_where_runs_start(eta_in, xi_in):
    a = AsymptoticData(xi_in, eta_in)
    run = iterate_past(a, explicit_bounds(a).t0_lower - 1.0, step=1e-2,
                       tol=0.0, max_iter=1)
    assert run.iterates_xi[-1].t[0] == integrate(a).t[0]


def test_march_newton_cap_raises_named_error():
    # a seed 50 above the solution: Newton on the e^{2x} term moves it down
    # by about 1/2 per step, far more steps than the cap allows
    step = 8e-3
    t = HANDOFF8 - 2.0 + step * np.arange(251)
    eta = np.full(len(t), A8.eta_in)
    with pytest.raises(NewtonNotConvergedError, match="roundoff"):
        _PastGrid(t, A8, step).march(eta, seed=xi_subsolution(t, A8) + 50.0)


def _ladder_hash(arrays):
    digest = hashlib.sha256()
    for x in arrays:
        digest.update(np.ascontiguousarray(x, dtype=float).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("eta_in", [1.31, 2.0, 8.0, 20.0])
def test_past_ladder_equals_the_allocating_one_bit_for_bit(eta_in):
    # verify's past-zone check: 6 iterations on a 2e-3 grid, each march in
    # the reused work arrays against one in fresh temporaries
    a = AsymptoticData(0.0, eta_in)
    t_handoff = explicit_bounds(a).t0_lower - 1.0
    run = iterate_past(a, t_handoff, step=2e-3, tol=0.0, max_iter=6)
    xs, ys, history = iterate_past_allocating(a, t_handoff, 2e-3, 0.0, 6)
    assert run.sup_diff_history == history and len(xs) == len(run.iterates_xi) > 4
    assert _ladder_hash([g.values for g in run.iterates_xi + run.iterates_eta]) == \
        _ladder_hash(xs + ys)


def test_march_fails_on_a_nan_residual():
    # a NaN in eta makes F NaN from there on: never at roundoff
    step = 8e-3
    t = HANDOFF8 - 2.0 + step * np.arange(251)
    eta = np.full(len(t), A8.eta_in)
    eta[100] = np.nan
    with pytest.raises(NewtonNotConvergedError, match="roundoff"):
        _PastGrid(t, A8, step).march(eta, seed=xi_subsolution(t, A8))


# --- future zone ------------------------------------------------------------

# a moderate synthetic crossing state: energy 0.36 + 0.64 + 0 = 1/2 * 2,
# potential e^{2*(-2)} small but active, so the integrals matter
P0 = PhasePoint(t=0.0, xi=-2.0, eta=0.0, xi_dot=-0.6, eta_dot=-0.8)


@pytest.fixture(scope="module")
def fut():
    return iterate_future(P0, t_max=6.0, step=2e-3, tol=1e-10, max_iter=500)


def test_future_converges_and_monotone(fut):
    assert fut.converged
    rep = monotonicity_report(fut, allowance=1e-12)
    assert rep.ordered
    assert len(fut.iterates_xi) > 3  # substantive data: not a one-step fixup


def test_future_limit_matches_independent_rk4(fut):
    t = fut.iterates_xi[-1].t
    ref = rk4_grid_from_state([P0.xi, P0.xi_dot, P0.eta, P0.eta_dot],
                              t, substeps=4)
    assert np.max(np.abs(fut.iterates_xi[-1].values - ref[:, 0])) <= 1e-6
    assert np.max(np.abs(fut.iterates_eta[-1].values - ref[:, 2])) <= 1e-6


@pytest.mark.parametrize("eta_in", [None, 1.31, 1.5, 2.0, 2.6])
def test_future_ladder_equals_the_rowwise_one_bit_for_bit(eta_in):
    # the synthetic state, and the crossing states of verify runs at
    # eta_in 1.31-2.6 (202, 169, 126 and 71 iterations)
    min_iters = 60 if eta_in == 2.6 else 100
    p0, t_max, tol, max_iter = P0, 6.0, 1e-10, 500
    if eta_in is not None:
        traj = integrate(AsymptoticData(0.0, eta_in))
        p0 = traj.point(int(np.argmin(np.abs(traj.t - traj.events.t0))))
        t_max, tol, max_iter = p0.t + 5.0, 1e-9, 400
    run = iterate_future(p0, t_max, 2e-3, 0.1, tol, max_iter)
    xs, ys, history = iterate_future_rowwise(p0, t_max, 2e-3, 0.1, tol, max_iter)
    assert run.sup_diff_history == history and len(history) > min_iters
    for got, want in zip(run.iterates_xi + run.iterates_eta, xs + ys):
        assert np.array_equal(got.values.view(np.uint64), want.view(np.uint64))


def test_future_second_component_negative(fut):
    for gf in fut.iterates_eta:
        assert np.all(gf.values[1:] < 0.0)


def test_future_trivial_data_first_correction_negligible():
    p0 = PhasePoint(t=0.0, xi=-30.0, eta=0.0, xi_dot=-1.0, eta_dot=-1e-3)
    run = iterate_future(p0, t_max=4.0, step=1e-2, tol=1e-14, max_iter=5)
    dx = np.max(np.abs(run.iterates_xi[1].values - run.iterates_xi[0].values))
    dy = np.max(np.abs(run.iterates_eta[1].values - run.iterates_eta[0].values))
    assert dx <= 1e-15 and dy <= 1e-15


def test_future_preconditions():
    with pytest.raises(ValueError, match="crossing state"):
        iterate_future(PhasePoint(0.0, -2.0, 0.5, -0.6, -0.8), 4.0, 1e-2)
    with pytest.raises(ValueError, match="xi_dot"):
        iterate_future(PhasePoint(0.0, -2.0, 0.0, 0.6, -0.8), 4.0, 1e-2)
    with pytest.raises(ValueError, match="eta_dot"):
        iterate_future(PhasePoint(0.0, -2.0, 0.0, -0.6, 0.8), 4.0, 1e-2)
    with pytest.raises(ValueError, match="epsilon"):
        iterate_future(P0, 4.0, 1e-2, epsilon=1.5)


def test_future_grid_preconditions():
    for step in (0.0, -1e-2, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="step"):
            iterate_future(P0, 4.0, step)
    # t_max before, at, or one step after p0.t: fewer than 3 nodes
    for t_max in (P0.t - 1.0, P0.t, P0.t + 1e-2, float("nan")):
        with pytest.raises(ValueError, match="t_max"):
            iterate_future(P0, t_max, 1e-2)


# --- report machinery --------------------------------------------------------


def _gf(vals):
    return GridFunction(0.0, 1.0, 0.5, np.asarray(vals, dtype=float))


def test_monotonicity_report_counterexample():
    run = PicardRun(
        iterates_xi=[_gf([0.0, 0.0, 0.0]), _gf([0.0, -0.5, 0.0])],
        iterates_eta=[_gf([1.0, 1.0, 1.0]), _gf([1.0, 1.0, 1.0])],
        converged=True, sup_diff_history=[0.5])
    rep = monotonicity_report(run)
    assert not rep.ordered
    assert rep.worst_violation == 0.5
    assert rep.node == 1


def _report_bits(rep):
    return rep.ordered, np.float64(rep.worst_violation).view(np.uint64), rep.node


def _scan_bits(ordered, worst, node):
    return ordered, np.float64(worst).view(np.uint64), node


@pytest.mark.parametrize("eta_in", [1.31, 2.0, 8.0])
def test_monotonicity_report_equals_the_two_temporary_scan(eta_in):
    # verify's past and future runs
    a = AsymptoticData(0.0, eta_in)
    past = iterate_past(a, explicit_bounds(a).t0_lower - 1.0, step=2e-3,
                        tol=0.0, max_iter=6)
    traj = integrate(a)
    p0 = traj.point(int(np.argmin(np.abs(traj.t - traj.events.t0))))
    fut = iterate_future(p0, p0.t + 5.0, 2e-3, 0.1, 1e-9, 400)
    for run in (past, fut):
        for allowance in (0.0, 1e-12, 1e-8):
            assert _report_bits(monotonicity_report(run, allowance)) == \
                _scan_bits(*monotonicity_two_temporaries(run, allowance))


def test_monotonicity_report_on_hand_built_ladders_equals_the_old_scan():
    up, flat = [0.0, 1.0, 2.0], [1.0, 1.0, 1.0]
    ladders = [
        # ties: the first node and the first pair among equals
        ([[0.0, 0.0, 0.0], [-0.5, 0.0, -0.5], [-0.5, -1.0, -0.5]], [flat, flat, flat]),
        # signed zeros in both ladders: no violation
        ([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]], [[-0.0, 0.0, 0.0], [0.0, -0.0, -0.0]]),
        # a single iterate
        ([up], [flat]),
        # a violation only in the second ladder
        ([up, up], [flat, [1.0, 1.25, 1.0]]),
        # violations in both: the second's larger, and equal at other nodes
        ([[0.0, 0.0, 0.0], [-0.25, 0.0, 0.0]], [flat, [1.0, 1.0, 1.5]]),
        ([[0.0, 0.0, 0.0], [-0.25, 0.0, 0.0]], [flat, [1.0, 1.0, 1.25]]),
        # a NaN
        ([[0.0, 0.0, 0.0], [0.0, np.nan, -0.25]], [flat, flat]),
    ]
    for xs, ys in ladders:
        run = PicardRun(iterates_xi=[_gf(v) for v in xs],
                        iterates_eta=[_gf(v) for v in ys],
                        converged=True, sup_diff_history=[])
        for allowance in (0.0, 0.3):
            assert _report_bits(monotonicity_report(run, allowance)) == \
                _scan_bits(*monotonicity_two_temporaries(run, allowance)), (xs, ys)


def test_monotonicity_report_single_iterate_vacuous():
    run = PicardRun(iterates_xi=[_gf([0.0, 0.0, 0.0])],
                    iterates_eta=[_gf([1.0, 1.0, 1.0])],
                    converged=True, sup_diff_history=[])
    assert monotonicity_report(run).ordered


def test_gridfunction_validation():
    with pytest.raises(ValueError):
        GridFunction(0.0, 1.0, 0.5, np.zeros(4))
    gf = _gf([1.0, 2.0, 3.0])
    assert np.allclose(gf.t, [0.0, 0.5, 1.0])


def test_write_csv(tmp_path):
    # an iterate through the CLI's block writer, as scripts/monotone_ladder.py
    # writes it, byte for byte against the row-by-row ladder writer
    gf = _gf([1.0, 2.0, 3.0])
    path = tmp_path / "ladder.csv"
    write_csv(path, ["t", "value"], [gf.t, gf.values])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 4
    assert lines[1].split(",") == ["0", "1"]
    write_ladder_csv(gf, tmp_path / "rowwise.csv")
    assert path.read_bytes() == (tmp_path / "rowwise.csv").read_bytes()


def test_eta_first_iterate_between_limit_and_level(run8):
    # closed-form first iterate sits between the converged limit and the
    # past level, up to quadrature error
    t = run8.iterates_eta[-1].t
    e1 = eta_first_iterate(t, A8)
    h2 = run8.iterates_eta[-1].step**2
    assert np.all(e1 <= 8.0 + 1e-12)
    assert np.all(run8.iterates_eta[-1].values <= e1 + h2)
