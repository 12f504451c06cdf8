import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable
# subprocesses (the CLI, the demos) import the package from this checkout as well
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))

from igeo import ParamPoint


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_theta_points(rng, n=10, mu=(-3.0, 3.0), sigma=(0.5, 2.5)):
    """Deterministic batch of natural-chart points for spot checks."""
    return [
        ParamPoint.theta(rng.uniform(*mu), rng.uniform(*sigma))
        for _ in range(n)
    ]
