import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from shiftlab.graphs import build_graph

FIXTURES = Path(__file__).parent.parent / "fixtures"


@pytest.fixture(scope="session")
def gm():
    return build_graph(["0", "1"], [(0, 0), (0, 1), (1, 0)])


@pytest.fixture(scope="session")
def full2():
    return build_graph(["0", "1"], [(0, 0), (0, 1), (1, 0), (1, 1)])


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURES
