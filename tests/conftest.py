import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from shiftlab.graphs import build_graph

FIXTURES = Path(__file__).parent.parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"


@pytest.fixture(scope="session")
def gm():
    return build_graph(["0", "1"], [(0, 0), (0, 1), (1, 0)])


@pytest.fixture(scope="session")
def full2():
    return build_graph(["0", "1"], [(0, 0), (0, 1), (1, 0), (1, 1)])


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def src_env():
    """The environment for a child interpreter, with ``src`` first on PYTHONPATH.

    pytest puts ``src`` on its own ``sys.path`` only, so without this a
    child process of a bare ``python -m pytest`` cannot import shiftlab.
    """
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), path] if path else [str(SRC)])}
