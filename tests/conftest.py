import math

import numpy as np
import pytest
from hypothesis import settings

from curvscat import AsymptoticData, SolverConfig, integrate, to_radial
from curvscat.shooting import sweep

settings.register_profile("suite", deadline=None, max_examples=80, derandomize=True)
settings.load_profile("suite")

SWEEP_GRID = np.linspace(-0.55 * math.pi, -0.95 * math.pi, 9)


@pytest.fixture(scope="session")
def cfg():
    return SolverConfig()


@pytest.fixture(scope="session")
def traj6(cfg):
    return integrate(AsymptoticData(0.0, 6.0), cfg)


@pytest.fixture(scope="session")
def traj8(cfg):
    return integrate(AsymptoticData(0.0, 8.0), cfg)


@pytest.fixture(scope="session")
def traj12(cfg):
    return integrate(AsymptoticData(0.0, 12.0), cfg)


@pytest.fixture(scope="session")
def trio(traj6, traj8, traj12):
    return [traj6, traj8, traj12]


@pytest.fixture(scope="session")
def sol8(traj8):
    return to_radial(traj8)


@pytest.fixture
def failing_solver(monkeypatch):
    """Every solver call fails as a too-small step does; returns the calls."""
    import curvscat.integrator as integrator
    solve_ivp, calls = integrator.solve_ivp, []

    def failing(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        calls.append(sol)
        sol.status, sol.message = -1, "Required step size is too small."
        return sol
    monkeypatch.setattr(integrator, "solve_ivp", failing)
    return calls


@pytest.fixture(scope="session")
def sweep9(cfg):
    rows = sweep(SWEEP_GRID, cfg, root_tol=1e-8)
    assert all(r.status == "ok" for r in rows), [r.status for r in rows]
    return rows
