"""The parent-vs-change sweep harness (tests/sweep.py) itself, and one pin of the outputs
it compares: the digest of its quick corpus's outcomes."""

import contextlib
import io
import math
import re
from pathlib import Path

import pytest

import sweep
from igeo import cli, models

SRC = Path(__file__).resolve().parent.parent / "src"
# sweep.digest of the quick corpus at seed 0: each request's argv, exit code, stdout
# sha256 and stderr, run as a sweep side runs them.  Any change to an output of these
# requests, stderr included, moves it.
QUICK_DIGEST = "e1a9dac4fa6988b48a9fb99625f7a668d0b0437cb2cbbed1ceaa0bea9d058103"


def test_corpus_is_deterministic():
    assert sweep.corpus(3, quick=True) == sweep.corpus(3, quick=True)
    assert sweep.corpus(3, quick=True) != sweep.corpus(4, quick=True)
    assert len(sweep.corpus(0)) > 30_000


def test_corpus_covers_every_command_chart_format_and_engine_family():
    requests = sweep.corpus(0, quick=True)
    argvs = [argv for _, argv in requests]
    commands = {argv[0] for argv in argvs if argv}
    assert set(sweep.VARIANTS) | {"selftest"} <= commands
    engines = {"point": sweep.ENGINES, "grid": sweep.GRID_ENGINES, "large_grid": ("closed_form",)}
    for family in engines:
        got = {(argv[0], opt) for fam, argv in requests if fam == family for opt in argv[1:]}
        for command in sweep.VARIANTS:
            for opt in ("--format=json", "--format=csv", "--format=text"):
                assert (command, opt) in got, (family, command, opt)
            if command != "audit":
                assert {(command, "--chart=theta"), (command, "--chart=xi")} <= got
            if command in ("metric", "christoffel", "torsion"):
                for engine in engines[family]:
                    assert (command, f"--engine={engine}") in got, (family, command, engine)
            elif command in ("curvature", "scalar"):  # the closed form, and a refusal
                assert (command, "--engine=closed_form") in got
                assert family == "large_grid" or (command, "--engine=gauss_hermite:8") in got
    grids = [opt for argv in argvs for opt in argv if opt.startswith("--grid=")]
    assert any("-0.0" in grid for grid in grids)
    audit_floats = [math.prod(int(axis.split(":")[2]) for axis in opt[7:].split(","))
                    * (2 + 4 * len(cli.AUDIT_ROWS))
                    for fam, argv in requests if fam == "large_grid" and argv[0] == "audit"
                    for opt in argv if opt.startswith("--grid=")]
    assert max(audit_floats) > cli.FORMAT_VALUES  # a block of more than one segment
    assert {fam for fam, _ in requests} >= {"extreme", "edge", "failing_grid", "audit", "usage",
                                           "default_engine"}


def test_full_corpus_sums_monte_carlo_edges_over_many_leaves():
    # a sum may overflow between leaves only where the draw has more than one
    engine = sweep.ENGINES[-1]
    assert int(engine.split(":")[1]) > models.MC_LEAF
    requests = sweep.corpus(0)
    leaves = [argv for fam, argv in requests if fam == "edge_leaves"]
    for command in ("metric", "christoffel", "torsion", "curvature", "scalar"):
        for sigma in sweep.EDGE_SIGMAS:
            where = f"--point=-1.5,{sigma!r}"
            assert any(argv[0] == command and where in argv
                       and f"--engine={engine}" in argv for argv in leaves)
    # one for each edge request under an engine, which is the closed form there
    assert len(leaves) == sum("--engine=closed_form" in argv for fam, argv in requests
                              if fam == "edge")
    # the one whose sum overflows between leaves, where the error names the addition
    assert ("metric", "--chart=xi", "--point=0.0,9.999999999999999e-153",
            f"--engine={engine}", "--format=json") in leaves
    assert "edge_leaves" not in {fam for fam, _ in sweep.corpus(0, quick=True)}


def test_full_corpus_writes_extreme_grids_by_columns():
    # grids at the extreme points' scales, so that the column writer meets 3-digit
    # exponents and floats beyond 1e280
    grids = [argv for fam, argv in sweep.corpus(0) if fam == "extreme_grid"]
    for command, opts, chart, _ in sweep._each_variant():
        for fmt in ("json", "csv"):
            assert any(argv[:len(opts) + 1] == (command, *opts) and f"--format={fmt}" in argv
                       and (chart is None or f"--chart={chart}" in argv) for argv in grids)
    ends = [abs(float(end)) for argv in grids for opt in argv if opt.startswith("--grid=")
            for axis in opt[7:].split(",") for end in axis.split(":")[:2]]
    assert min(ends) < 1e-280 and max(end for end in ends if end < math.inf) > 1e280
    written = []
    for argv in grids[:200]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if cli.main(list(argv)) == 0:
                written.append(out.getvalue())
    assert any(re.search(r"e[+-]\d{3}", text) for text in written)
    assert "extreme_grid" not in {fam for fam, _ in sweep.corpus(0, quick=True)}


def test_reworded_message_is_a_difference(monkeypatch):
    requests = [r for r in sweep.corpus(0, quick=True) if r[0] == "usage"]
    parent = sweep.outcomes(cli.main, requests)
    assert sweep.differences(parent, sweep.outcomes(cli.main, requests)) == []

    def reworded(engine, what):
        if not isinstance(engine, cli.ClosedForm):
            raise cli.UsageError(f"{what} needs the closed form")

    monkeypatch.setattr(cli, "_require_closed_form", reworded)
    diffs = sweep.differences(parent, sweep.outcomes(cli.main, requests))
    assert diffs and all(p["code"] == c["code"] == cli.EXIT_USAGE for p, c in diffs)
    assert {p["argv"][0] for p, _ in diffs} == {"curvature", "christoffel"}
    assert all(p["stderr"] != c["stderr"] and p["stdout"] == c["stdout"] for p, c in diffs)


def test_different_corpora_are_refused():
    requests = sweep.corpus(0, quick=True)[:2]
    lines = sweep.outcomes(cli.main, requests)
    with pytest.raises(ValueError, match="different corpora"):
        sweep.differences(lines, lines[::-1])


def test_sides_run_in_subprocesses():
    requests = [r for r in sweep.corpus(0, quick=True) if r[0] in ("selftest", "usage")]
    parent, change = sweep.run_sides(requests, SRC, SRC)
    assert parent == change
    assert [line["argv"] for line in parent] == [list(argv) for _, argv in requests]
    assert {line["code"] for line in parent} >= {0, 2, 64}


def test_quick_corpus_outcomes_are_pinned():
    requests = sweep.corpus(0, quick=True)
    (lines,) = sweep.run_sides(requests, SRC)
    assert len(lines) == 3207
    assert sweep.digest(lines) == QUICK_DIGEST
