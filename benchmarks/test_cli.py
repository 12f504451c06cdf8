"""Per-request timings of the command line, in-process (pytest-benchmark).

    PYTHONPATH=src python -m pytest benchmarks/test_cli.py --benchmark-only

Times ``igeo.cli.main(argv)`` with stdout and stderr captured in memory: one
request costs parsing, the computation and the serialisation of its records.
The single-point cases time each command's fixed cost as point-mix sends it:
the metric, the audit, the dual-chart curvature, the scalar, ``transform``, the
Levi-Civita torsion, and the dual-chart expectation connection in closed form
and by Gauss-Hermite at 64 nodes.  The grid cases are, written as JSON, the
dual-chart curvature, the natural-chart scalar (12 distinct doubles among its
1,600 values, the most repetitive block), the natural-chart curvature and
Levi-Civita connection (these three evaluated at one point per distinct sigma),
``transform`` and the dual-chart closed-form expectation connection of a 40x40
grid, the Gauss-Hermite dual-chart expectation connection of a 20x20 grid, the
Monte Carlo natural-chart expectation connection and dual-chart metric of a 2x2
grid at 10^6 samples, and the audit of a 20x20 grid.  The audit of the
20x20 grid as CSV and as text and the metric of a 40x40 grid as CSV time the
CSV and text writers.  The ``parse`` group times the argument parse alone: one
round parses the single-point argv of each command and option mix that
point-mix sends, each round at fresh points, through ``main``'s parse (memoised
per argv shape) and through a plain ``parse_args``.  The directory lies outside
``testpaths``, so the test suite does not collect it.
"""

import contextlib
import io
import itertools

import pytest

from igeo import cli

REQUESTS = {
    "metric_point": ("metric", "--point=0.3,1.2", "--format", "json"),
    "audit_point": ("audit", "--point=0.3,1.2", "--format", "json"),
    "curvature_xi_point": ("curvature", "--chart=xi", "--point=0.3,1.53", "--format", "json"),
    "scalar_point": ("scalar", "--point=0.3,1.2", "--format", "json"),
    "transform_point": ("transform", "--point=0.3,1.2", "--format", "json"),
    "torsion_levi_civita_point": ("torsion", "--connection=levi_civita", "--point=0.3,1.2",
                                  "--format", "json"),
    "christoffel_expectation_xi_point": ("christoffel", "--chart=xi", "--connection=expectation",
                                         "--point=0.3,1.53", "--format", "json"),
    "christoffel_expectation_xi_gh64_point": ("christoffel", "--chart=xi",
                                              "--connection=expectation",
                                              "--engine=gauss_hermite:64", "--point=0.3,1.53",
                                              "--format", "json"),
    "curvature_xi_grid40x40": ("curvature", "--chart=xi", "--grid=-1:1:40,2.5:4:40",
                               "--format", "json"),
    "scalar_grid40x40": ("scalar", "--grid=-1:1:40,0.5:2:40", "--format", "json"),
    "curvature_theta_grid40x40": ("curvature", "--grid=-1:1:40,0.5:2:40", "--format", "json"),
    "christoffel_theta_grid40x40": ("christoffel", "--grid=-1:1:40,0.5:2:40", "--format", "json"),
    "audit_grid20x20": ("audit", "--grid=-1:1:20,0.5:2:20", "--format", "json"),
    "audit_grid20x20_csv": ("audit", "--grid=-1:1:20,0.5:2:20", "--format", "csv"),
    "audit_grid20x20_text": ("audit", "--grid=-1:1:20,0.5:2:20", "--format", "text"),
    "metric_grid40x40_csv": ("metric", "--grid=-1:1:40,0.5:2:40", "--format", "csv"),
    "transform_grid40x40": ("transform", "--grid=-1:1:40,0.5:2:40", "--format", "json"),
    "christoffel_expectation_xi_grid40x40": ("christoffel", "--chart=xi",
                                             "--connection=expectation",
                                             "--grid=-1:1:40,2.5:4:40", "--format", "json"),
    "christoffel_expectation_xi_gh64_grid20x20": ("christoffel", "--chart=xi",
                                                  "--connection=expectation",
                                                  "--engine=gauss_hermite:64",
                                                  "--grid=-1:1:20,2.5:4:20", "--format", "json"),
    "christoffel_expectation_theta_mc_grid2x2": ("christoffel", "--connection=expectation",
                                                 "--engine=monte_carlo",
                                                 "--grid=-1:1:2,1:2.5:2", "--format", "json"),
    "metric_xi_mc_grid2x2": ("metric", "--chart=xi", "--engine=monte_carlo:1000000:7",
                             "--grid=-1:1:2,2.5:4:2", "--format", "json"),
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


_GH = "--engine=gauss_hermite:64"
# the single-point argvs of point-mix, one per command and option mix; {} is the point
PARSE_ARGVS = [
    (command, f"--chart={chart}", *opts, "--point={}", "--format=json")
    for command, variants in {
        "metric": ((), (_GH,)),
        "christoffel": (("--connection=levi_civita",), ("--connection=expectation",),
                        ("--connection=expectation", _GH)),
        "torsion": (("--connection=levi_civita",), ("--connection=expectation",),
                    ("--connection=expectation", _GH)),
        "curvature": ((),), "scalar": ((),), "transform": ((),),
    }.items()
    for opts in variants for chart in ("theta", "xi")
] + [("audit", "--point={}", "--format=json")]


@pytest.mark.parametrize("route", ["main", "parse_args"])
def test_parse(benchmark, route):
    benchmark.group = "parse"
    parser = cli.build_parser()
    parse = (lambda argv: cli._parse(parser, argv)) if route == "main" else parser.parse_args
    points = (f"{k % 97 / 50 - 1!r},{1 + k % 89 / 40!r}" for k in itertools.count())

    def one_round():
        for argv in PARSE_ARGVS:
            point = next(points)
            parse(cli._join_values([t.replace("{}", point) for t in argv]))

    benchmark(one_round)
    assert parse(["metric", "--point=0.25,2"]).point == "0.25,2"
