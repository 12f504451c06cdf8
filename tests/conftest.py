import collections
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable
# subprocesses (the CLI, the demos) import the package from this checkout as well
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))

from igeo import Chart, DomainError, ParamPoint, SingularMetricError


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_theta_points(rng, n=10, mu=(-3.0, 3.0), sigma=(0.5, 2.5)):
    """Deterministic batch of natural-chart points for spot checks."""
    return [
        ParamPoint.theta(rng.uniform(*mu), rng.uniform(*sigma))
        for _ in range(n)
    ]


# -- bit-for-bit gates: a rewritten kernel against its earlier form in ``oracles`` ------

def same_bits(a, b) -> bool:
    """Equal doubles, zero signs included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def extreme_points(rng, chart, n):
    """n points of the chart with |c1| and sigma (xi: c2 - c1^2) from 1e-300 to 1e300,
    their exponents drawn as 300 u^3 for u uniform in [-1, 1]."""
    points = []
    while len(points) < n:
        c1 = float(rng.choice([-1.0, 1.0]) * 10.0 ** (300.0 * rng.uniform(-1.0, 1.0) ** 3))
        spread = float(10.0 ** (300.0 * rng.uniform(-1.0, 1.0) ** 3))
        try:
            points.append(ParamPoint(chart, c1, spread if chart is Chart.THETA else c1 * c1 + spread))
        except DomainError:  # c1^2 overflows
            pass
    return points


def as_block(points) -> ParamPoint:
    return ParamPoint(points[0].chart, np.array([p.c1 for p in points]),
                      np.array([p.c2 for p in points]))


def outcome(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (DomainError, SingularMetricError, ArithmeticError) as exc:
        return type(exc), str(exc)


def failed(result) -> bool:
    return isinstance(result[0], type)


def assert_same_outcome(got, ref, same=same_bits):
    """The same error as ``ref``, or arrays with ``ref``'s bits, array by array."""
    if failed(ref):
        assert got == ref
    else:
        assert all(same(a, b) for a, b in zip(got, ref, strict=True))


def count_calls(monkeypatch, *functions) -> collections.Counter:
    """Calls to each function from here on, by name: every ``igeo`` module attribute
    that is the function is replaced by a counting wrapper, as perfbench's tracer does."""
    calls = collections.Counter()
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "igeo" or name.startswith("igeo."))]
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for m in modules:
            for name, value in list(vars(m).items()):
                if value is fn:
                    monkeypatch.setattr(m, name, counted)
    return calls
