"""Per-layer microbenchmarks of the geometry kernels and the record writers
(pytest-benchmark).

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only
    PYTHONPATH=src python -m pytest benchmarks/ -k point --benchmark-json=out.json

Times ``evaluate_metric``, ``levi_civita`` and ``riemann_levi_civita`` of the
closed-form Fisher metric field at one point and on a 40x40 grid evaluated as
one block, in both charts.  The writer cases time the JSON and CSV writers
alone on the columns of a request computed beforehand: the audit of a 20x20
grid as JSON and as CSV, and the dual-chart curvature of a 40x40 grid as JSON.
The directory lies outside ``testpaths``, so the test suite does not collect
it; the ``-k point`` cases also run on a tree whose kernels take single points
only.
"""

import numpy as np
import pytest

from igeo import Chart, ParamPoint, cli, evaluate_metric, fisher_metric_field, levi_civita, \
    riemann_levi_civita

KERNELS = {
    "evaluate_metric": evaluate_metric,
    "levi_civita": levi_civita,
    "riemann_levi_civita": riemann_levi_civita,
}

# the requests whose columns the writer cases write
WRITER_REQUESTS = {
    "audit_grid20x20_json": ("audit", "--grid=-1:1:20,0.5:2:20", "--format=json"),
    "audit_grid20x20_csv": ("audit", "--grid=-1:1:20,0.5:2:20", "--format=csv"),
    "curvature_xi_grid40x40_json": ("curvature", "--chart=xi", "--grid=-1:1:40,2.5:4:40",
                                    "--format=json"),
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


@pytest.mark.parametrize("name", sorted(WRITER_REQUESTS))
def test_writer(benchmark, name):
    args = cli.build_parser().parse_args(WRITER_REQUESTS[name])
    report, _ = cli._report(args)
    benchmark.group = "writer"
    assert benchmark(cli._WRITERS[args.format], report)
