"""Per-request timings of the command line, in-process (pytest-benchmark).

    PYTHONPATH=src python -m pytest benchmarks/test_cli.py --benchmark-only

Times ``igeo.cli.main(argv)`` with stdout and stderr captured in memory: one
request costs parsing, the computation and the serialisation of its records.
The cases are a single-point metric and audit, and, written as JSON, the
dual-chart curvature, ``transform`` and the dual-chart closed-form expectation
connection of a 40x40 grid and the audit of a 20x20 grid.  The audit of the
20x20 grid as CSV and as text and the metric of a 40x40 grid as CSV time the
CSV and text writers.  The directory lies outside ``testpaths``, so the test
suite does not collect it.
"""

import contextlib
import io

import pytest

from igeo import cli

REQUESTS = {
    "metric_point": ("metric", "--point=0.3,1.2", "--format", "json"),
    "audit_point": ("audit", "--point=0.3,1.2", "--format", "json"),
    "curvature_xi_grid40x40": ("curvature", "--chart=xi", "--grid=-1:1:40,2.5:4:40",
                               "--format", "json"),
    "audit_grid20x20": ("audit", "--grid=-1:1:20,0.5:2:20", "--format", "json"),
    "audit_grid20x20_csv": ("audit", "--grid=-1:1:20,0.5:2:20", "--format", "csv"),
    "audit_grid20x20_text": ("audit", "--grid=-1:1:20,0.5:2:20", "--format", "text"),
    "metric_grid40x40_csv": ("metric", "--grid=-1:1:40,0.5:2:40", "--format", "csv"),
    "transform_grid40x40": ("transform", "--grid=-1:1:40,0.5:2:40", "--format", "json"),
    "christoffel_expectation_xi_grid40x40": ("christoffel", "--chart=xi",
                                             "--connection=expectation",
                                             "--grid=-1:1:40,2.5:4:40", "--format", "json"),
}


def request(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    assert code == 0, err.getvalue()
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_request(benchmark, name):
    benchmark.group = "cli"
    assert benchmark(request, REQUESTS[name])
