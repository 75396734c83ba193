import pytest

from evstudy import DgpConfig, simulate

from helpers import panel_from_rows

# 2 units x 4 periods, treatment at t=1: the hand-checked fixture used
# throughout. Treated outcomes (0,1,2,4), control outcomes (0,0,0,1).
FOUR_CELL_ROWS = [
    ("a", -2, 1, 0.0), ("a", -1, 1, 1.0), ("a", 0, 1, 2.0), ("a", 1, 1, 4.0),
    ("b", -2, 0, 0.0), ("b", -1, 0, 0.0), ("b", 0, 0, 0.0), ("b", 1, 0, 1.0),
]


@pytest.fixture
def four_cell():
    return panel_from_rows(FOUR_CELL_ROWS)


@pytest.fixture(scope="session")
def default_panel():
    """One draw from the illustrative design (gamma=0.5, N=100, t in [-15, 10])."""
    return simulate(DgpConfig(seed=1))
