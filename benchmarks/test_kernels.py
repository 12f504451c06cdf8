"""Per-layer microbenchmarks of the geometry kernels (pytest-benchmark).

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only
    PYTHONPATH=src python -m pytest benchmarks/ -k point --benchmark-json=out.json

Times ``evaluate_metric``, ``levi_civita`` and ``riemann_levi_civita`` of the
closed-form Fisher metric field at one point and on a 40x40 grid evaluated as
one block, in both charts.  The directory lies outside ``testpaths``, so the
test suite does not collect it; the ``-k point`` cases also run on a tree whose
kernels take single points only.
"""

import numpy as np
import pytest

from igeo import Chart, ParamPoint, evaluate_metric, fisher_metric_field, levi_civita, \
    riemann_levi_civita

KERNELS = {
    "evaluate_metric": evaluate_metric,
    "levi_civita": levi_civita,
    "riemann_levi_civita": riemann_levi_civita,
}


def theta_to(chart: Chart, mu, sigma):
    """(mu, sigma) in the coordinates of ``chart``."""
    return (mu, sigma) if chart is Chart.THETA else (mu, mu * mu + sigma * sigma)


def where_point(chart: Chart) -> ParamPoint:
    return ParamPoint(chart, *theta_to(chart, 0.3, 1.2))


def where_grid40x40(chart: Chart) -> ParamPoint:
    mu, sigma = np.meshgrid(np.linspace(-1.0, 1.0, 40), np.linspace(0.5, 2.0, 40), indexing="ij")
    return ParamPoint(chart, *theta_to(chart, mu.ravel(), sigma.ravel()))


@pytest.mark.parametrize("where", [where_point, where_grid40x40], ids=lambda f: f.__name__[6:])
@pytest.mark.parametrize("chart", [Chart.THETA, Chart.XI], ids=str)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel(benchmark, kernel, chart, where):
    benchmark.group = f"{kernel} {where.__name__[6:]}"
    benchmark(KERNELS[kernel], fisher_metric_field(chart), where(chart))
