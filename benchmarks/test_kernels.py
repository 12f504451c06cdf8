"""Per-layer microbenchmarks of the geometry kernels and the record writers
(pytest-benchmark).

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only
    PYTHONPATH=src python -m pytest benchmarks/ -k point --benchmark-json=out.json

Times ``evaluate_metric``, ``levi_civita`` and ``riemann_levi_civita`` of the
closed-form Fisher metric field at one point and on a 40x40 grid evaluated as
one block, in both charts, and ``riemann_levi_civita`` on a 64x64 grid, one
full ``cli.BLOCK_POINTS`` block.  At the point alone it also times two of their parts:
``MetricAt.from_matrix`` on the Fisher metric there, in both charts, and the
dual-chart ``fisher_metric_field`` on the lifted point, the ``Dual2`` evaluation
that gives the metric jet.  The engine cases time ``fisher_metric`` and
``expectation_connection`` (``conn_expectation_theta`` in the natural chart) by
``GaussHermite(64)`` on the same 40x40 block, in both charts, and at the point
alone by ``gauss_hermite:64``, ``monte_carlo:1000`` (one leaf of the draw) and
the default ``monte_carlo`` (10^6 samples, 128 leaves), in both charts: a point
takes the engines' block path as its one-point case.  The writer cases time the
JSON, CSV and text writers alone on the columns of a request computed beforehand: the audit of a
20x20 grid as JSON, as CSV and as text, and the dual-chart curvature of a 40x40
grid as JSON and as text.  The serialisation layer's own case times
``cli._float_texts`` against the ``%`` join it replaced on the distinct floats of the
20x20 audit's block, in the group "float texts".
The directory lies outside ``testpaths``, so the test suite does not collect
it; the ``-k point`` cases also run on a tree whose kernels take single points
only.
"""

import numpy as np
import pytest

from igeo import Chart, GaussHermite, MetricAt, MonteCarlo, ParamPoint, cli, evaluate_metric, \
    expectation_connection, fisher_metric, fisher_metric_field, levi_civita, riemann_levi_civita
from igeo.autodiff import lift

KERNELS = {
    "evaluate_metric": evaluate_metric,
    "levi_civita": levi_civita,
    "riemann_levi_civita": riemann_levi_civita,
}

ENGINE_QUANTITIES = {
    "fisher_metric": fisher_metric,
    "expectation_connection": expectation_connection,
}

# the CLI's --engine spec -> the engine it names
ENGINES = {
    "gauss_hermite:64": GaussHermite(64),
    "monte_carlo:1000": MonteCarlo(1000),
    "monte_carlo": MonteCarlo(),
}

# the requests whose columns the writer cases write
WRITER_REQUESTS = {
    "audit_grid20x20_json": ("audit", "--grid=-1:1:20,0.5:2:20", "--format=json"),
    "audit_grid20x20_csv": ("audit", "--grid=-1:1:20,0.5:2:20", "--format=csv"),
    "audit_grid20x20_text": ("audit", "--grid=-1:1:20,0.5:2:20", "--format=text"),
    "curvature_xi_grid40x40_json": ("curvature", "--chart=xi", "--grid=-1:1:40,2.5:4:40",
                                    "--format=json"),
    "curvature_xi_grid40x40_text": ("curvature", "--chart=xi", "--grid=-1:1:40,2.5:4:40",
                                    "--format=text"),
}


# the texts of distinct floats: the column writer's helper, and one "%.17g," join
FLOAT_TEXTS = {
    "float_texts": cli._float_texts,
    "percent_join": lambda v: ("%.17g," * len(v) % tuple(v.tolist())).split(",")[:-1],
}


def theta_to(chart: Chart, mu, sigma):
    """(mu, sigma) in the coordinates of ``chart``."""
    return (mu, sigma) if chart is Chart.THETA else (mu, mu * mu + sigma * sigma)


def where_point(chart: Chart) -> ParamPoint:
    return ParamPoint(chart, *theta_to(chart, 0.3, 1.2))


def where_grid(chart: Chart, n: int) -> ParamPoint:
    mu, sigma = np.meshgrid(np.linspace(-1.0, 1.0, n), np.linspace(0.5, 2.0, n), indexing="ij")
    return ParamPoint(chart, *theta_to(chart, mu.ravel(), sigma.ravel()))


def where_grid40x40(chart: Chart) -> ParamPoint:
    return where_grid(chart, 40)


@pytest.mark.parametrize("where", [where_point, where_grid40x40], ids=lambda f: f.__name__[6:])
@pytest.mark.parametrize("chart", [Chart.THETA, Chart.XI], ids=str)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel(benchmark, kernel, chart, where):
    benchmark.group = f"{kernel} {where.__name__[6:]}"
    benchmark(KERNELS[kernel], fisher_metric_field(chart), where(chart))


@pytest.mark.parametrize("chart", [Chart.THETA, Chart.XI], ids=str)
def test_riemann_full_block(benchmark, chart):
    p = where_grid(chart, 64)
    assert p.c1.size == cli.BLOCK_POINTS
    benchmark.group = "riemann_levi_civita grid64x64"
    benchmark(riemann_levi_civita, fisher_metric_field(chart), p)


@pytest.mark.parametrize("chart", [Chart.THETA, Chart.XI], ids=str)
def test_from_matrix(benchmark, chart):
    p = where_point(chart)
    g = np.array(fisher_metric(p).g)
    benchmark.group = "from_matrix point"
    benchmark(MetricAt.from_matrix, p, g)


def test_xi_field_on_lift(benchmark):
    benchmark.group = "fisher_metric_field point"
    benchmark(fisher_metric_field(Chart.XI), *lift(where_point(Chart.XI)))


@pytest.mark.parametrize("chart", [Chart.THETA, Chart.XI], ids=str)
@pytest.mark.parametrize("quantity", sorted(ENGINE_QUANTITIES))
def test_gauss_hermite(benchmark, quantity, chart):
    benchmark.group = f"{quantity} gauss_hermite:64 grid40x40"
    benchmark(ENGINE_QUANTITIES[quantity], where_grid40x40(chart), GaussHermite(64))


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("chart", [Chart.THETA, Chart.XI], ids=str)
@pytest.mark.parametrize("quantity", sorted(ENGINE_QUANTITIES))
def test_engine_point(benchmark, quantity, chart, engine):
    benchmark.group = f"{quantity} {engine} point"
    benchmark(ENGINE_QUANTITIES[quantity], where_point(chart), ENGINES[engine])


@pytest.mark.parametrize("name", sorted(WRITER_REQUESTS))
def test_writer(benchmark, name):
    args = cli.build_parser().parse_args(WRITER_REQUESTS[name])
    report, _ = cli._report(args)
    benchmark.group = "writer"
    assert benchmark(cli._WRITERS[args.format], report)


@pytest.mark.parametrize("how", sorted(FLOAT_TEXTS))
def test_float_texts(benchmark, how):
    args = cli.build_parser().parse_args(WRITER_REQUESTS["audit_grid20x20_json"])
    (block,) = cli._report(args)[0].blocks
    values = np.concatenate([block.coords, block.floats], axis=1, dtype=float) + 0.0
    distinct = np.unique(values.view(np.uint64)).view(float)
    benchmark.group = "float texts"
    assert benchmark(FLOAT_TEXTS[how], distinct) == FLOAT_TEXTS["percent_join"](distinct)
