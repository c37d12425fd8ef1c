import numpy as np
import pytest

from fastpoisson.grid import BoundaryCondition, GridKind

# the five supported boundary/grid rows
ROWS = (
    (BoundaryCondition.PERIODIC, GridKind.REGULAR),
    (BoundaryCondition.DIRICHLET, GridKind.REGULAR),
    (BoundaryCondition.DIRICHLET, GridKind.STAGGERED),
    (BoundaryCondition.NEUMANN, GridKind.REGULAR),
    (BoundaryCondition.NEUMANN, GridKind.STAGGERED),
)

ROW_IDS = ["per-reg", "dir-reg", "dir-stag", "neu-reg", "neu-stag"]


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def stage_divergences(monkeypatch):
    """A function that advances a flow one step and returns max |div| of the
    velocity after each of its three stages.

    Each stage begins with the advective term of the velocity the stage before
    left, so a wrapper around ``advective_term`` sees stages 1 and 2 on entry
    to stages 2 and 3; the velocity after the step is stage 3's.
    """
    from fastpoisson import flow as flow_module

    seen = []
    advective_term = flow_module.advective_term

    def recording(vel, **kwargs):
        seen.append(float(np.abs(flow_module.divergence(vel)).max()))
        return advective_term(vel, **kwargs)

    monkeypatch.setattr(flow_module, "advective_term", recording)

    def step(flow, dt):
        seen.clear()
        flow.rk3_step(dt)
        return seen[1:] + [flow.max_divergence()]

    return step
