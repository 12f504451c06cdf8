"""CLI contract: records, formats, exit codes, determinism, env seed."""

import contextlib
import csv as csvmod
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igeo import MonteCarlo, cli, models
from igeo.cli import main

CMD = [sys.executable, "-m", "igeo.cli"]


def run(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("IGEO_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, env=env, timeout=120
    )


def call(*argv):
    """main(argv) in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def records_of(out: str):
    return json.loads(out)["records"]


def record_lines(out: str) -> list[str]:
    """The JSON record lines of a report, as printed."""
    return [line.strip().rstrip(",") for line in out.splitlines()
            if line.startswith('    {"point"')]


class TestQuantityCommands:
    def test_metric_json_contains_matrix(self):
        res = run("metric", "--chart", "theta", "--point", "0,1", "--format", "json")
        assert res.returncode == 0
        recs = {r["quantity"]: r for r in records_of(res.stdout)}
        assert recs["g"]["value"] == [[1.0, 0.0], [0.0, 2.0]]
        assert recs["g"]["provenance"] == "oracle"
        assert recs["g"]["point"] == [0.0, 1.0]

    def test_scalar_dual_chart(self):
        res = run("scalar", "--chart", "xi", "--point", "1,2", "--format", "json")
        assert res.returncode == 0
        (rec,) = records_of(res.stdout)
        assert abs(rec["value"] + 0.5) < 1e-8

    def test_dual_chart_metric_engines_agree(self):
        closed = run("metric", "--chart", "xi", "--point", "1,2", "--format", "json")
        quad = run("metric", "--chart", "xi", "--point", "1,2",
                   "--engine", "gauss_hermite:64", "--format", "json")
        g_closed = records_of(closed.stdout)[0]["value"]
        g_quad = records_of(quad.stdout)[0]["value"]
        for row_c, row_q in zip(g_closed, g_quad):
            for a, b in zip(row_c, row_q):
                assert abs(a - b) < 1e-9

    def test_transform_converts_point(self):
        res = run("transform", "--point", "1,2", "--format", "json")
        recs = {r["quantity"]: r for r in records_of(res.stdout)}
        assert recs["point_xi"]["value"] == [1.0, 5.0]
        assert recs["jacobian"]["value"] == [[1.0, 0.0], [2.0, 4.0]]

    def test_expectation_connection_dual_chart(self):
        res = run("christoffel", "--chart", "xi", "--point", "0,1",
                  "--connection", "expectation", "--format", "json")
        recs = {r["quantity"]: r for r in records_of(res.stdout)}
        lower = recs["Gamma_lower"]["value"]
        assert abs(lower[0][0][1] + 1.0) < 1e-10  # inhomogeneous term present

    def test_grid_row_major_order(self):
        res = run("metric", "--grid", "0:1:2,1:2:2", "--format", "json")
        points = [tuple(r["point"]) for r in records_of(res.stdout)]
        # three records per point, points in row-major grid order
        assert points[::3] == [(0.0, 1.0), (0.0, 2.0), (1.0, 1.0), (1.0, 2.0)]


class TestExitCodes:
    def test_domain_error_names_invariant(self):
        res = run("metric", "--point", "0,-1")
        assert res.returncode == 2
        assert "sigma > 0" in res.stderr

    def test_dual_chart_domain_error(self):
        res = run("metric", "--chart", "xi", "--point", "2,4")
        assert res.returncode == 2
        assert "c2 - c1^2 > 0" in res.stderr

    def test_grid_rejected_before_computation(self):
        res = run("metric", "--grid", "0:1:2,-1:1:3")
        assert res.returncode == 2

    def test_usage_errors(self):
        assert run("metric", "--point", "0,1", "--badflag").returncode == 64
        assert run("metric").returncode == 64                        # no point
        assert run("metric", "--point", "zero,1").returncode == 64
        assert run("metric", "--point", "0,1", "--engine", "bogus").returncode == 64
        assert run("nonsense").returncode == 64

    def test_small_monte_carlo_is_usage_error(self):
        res = run("metric", "--point", "0,1", "--engine", "monte_carlo:50")
        assert res.returncode == 64

    def test_curvature_requires_closed_form(self):
        res = run("curvature", "--point", "0,1", "--engine", "monte_carlo:1000")
        assert res.returncode == 64

    def test_audit_strict_flags_mismatch(self):
        res = run("audit", "--point", "0,1", "--strict")
        assert res.returncode == 3
        res = run("audit", "--point", "0,1")
        assert res.returncode == 0

    def test_selftest_passes(self):
        res = run("selftest")
        assert res.returncode == 0
        assert "FAIL" not in res.stdout


class TestAuditOutput:
    def test_json_rows(self):
        res = run("audit", "--point", "0,1", "--format", "json")
        doc = json.loads(res.stdout)
        rows = {(r["quantity"], r["oracle_label"]): r for r in doc["records"]}
        k = rows[("K", "native_levi_civita")]
        assert k["verdict"] == "MISMATCH"
        assert abs(k["abs_gap"] - 2.0) < 1e-9
        t = rows[("T_xi.max_abs", "native_levi_civita")]
        assert t["verdict"] == "MATCH" and "discrepancy" in t["note"]
        assert any("torsion" in n for n in doc["notes"])

    def test_text_readable(self):
        res = run("audit", "--point", "0,1")
        assert "MISMATCH" in res.stdout and "MATCH" in res.stdout
        assert "note:" in res.stdout


class TestDeterminismAndFormats:
    def test_byte_identical_json(self):
        args = ("metric", "--point", "0.5,1.5", "--engine",
                "monte_carlo:100000:99", "--format", "json")
        a, b = run(*args), run(*args)
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    def test_env_seed_override(self):
        args = ("metric", "--point", "0.5,1.5", "--engine", "monte_carlo:100000",
                "--format", "json")
        default = run(*args)
        overridden = run(*args, env_extra={"IGEO_SEED": "99"})
        explicit = run("metric", "--point", "0.5,1.5", "--engine",
                       "monte_carlo:100000:99", "--format", "json")
        assert overridden.stdout == explicit.stdout
        assert overridden.stdout != default.stdout

    def test_csv_json_same_multiset(self):
        base = ("metric", "--grid", "0:1:2,1:2:2")
        js = run(*base, "--format", "json")
        cs = run(*base, "--format", "csv")
        from_json = {
            (tuple(r["point"]), r["quantity"], json.dumps(r["value"]))
            for r in records_of(js.stdout)
        }
        import csv as csvmod
        import io

        from_csv = set()
        for row in csvmod.DictReader(io.StringIO(cs.stdout)):
            point = tuple(json.loads(row["point"]))
            value = json.loads(row["value"])
            from_csv.add((point, row["quantity"], json.dumps(value)))
        assert from_json == from_csv

    def test_output_file(self, tmp_path):
        target = tmp_path / "report.json"
        res = run("metric", "--point", "0,1", "--format", "json", "--output", str(target))
        assert res.returncode == 0 and res.stdout == ""
        assert json.loads(target.read_text())["meta"]["command"] == "metric"

    def test_seventeen_significant_digits(self):
        res = run("scalar", "--chart", "theta", "--point", "0.1,1.3", "--format", "json")
        (rec,) = records_of(res.stdout)
        # full double precision survives the round trip
        assert rec["value"] == pytest.approx(-0.5, abs=1e-9)
        assert "." in res.stdout.split('"value": ')[1]


class TestNegativeValues:
    def test_point_with_leading_minus(self):
        code, out, _ = call("metric", "--point", "-1,2", "--format", "json")
        assert code == 0
        assert records_of(out)[0]["point"] == [-1.0, 2.0]
        assert call("metric", "--point=-1,2", "--format", "json")[1] == out

    def test_grid_with_leading_minus(self):
        code, out, _ = call("metric", "--grid", "-1:1:3,1:2:3", "--format", "json")
        assert code == 0
        points = [tuple(r["point"]) for r in records_of(out)][::3]
        assert points[0] == (-1.0, 1.0) and len(points) == 9


class TestTotalDomainChecks:
    """Each input exits with its code; stderr names the invariant, never a traceback."""

    @pytest.mark.parametrize("argv, code, words", [
        (("metric", "--point", "nan,1"), 2, "finite"),
        (("metric", "--point", "inf,1"), 2, "finite"),
        (("metric", "--point", "0,inf"), 2, "finite"),
        (("metric", "--chart", "xi", "--point", "0,inf"), 2, "finite"),
        (("metric", "--grid", "0:inf:3,1:2:3"), 2, "finite endpoints"),
        (("metric", "--point", "0,1e200"), 2, "positive definite"),
        (("metric", "--point", "0,1e-200"), 2, "(0.0, 1e-200)"),
        (("audit", "--point", "0,1e-200"), 2, "(0.0, 1e-200)"),
        (("curvature", "--chart", "xi", "--point", "0,1e-300"), 2, "(0.0, 1e-300)"),
        (("metric", "--point", "0,1e-100"), 2, "(0.0, 1e-100)"),          # det overflows
        (("christoffel", "--chart", "xi", "--point", "0,1e-150", "--engine", "gauss_hermite:8",
          "--connection", "expectation"), 2, "not finite"),             # einsum overflows
        (("metric", "--point", "0,1", "--engine", "gauss_hermite:0"), 64, "at least 1 node"),
        (("metric", "--point", "0,1", "--engine", "gauss_hermite:-3"), 64, "at least 1 node"),
        (("metric", "--point", "0,1", "--engine", "monte_carlo:1000:-1"), 64, "seed must be >= 0"),
        (("metric", "--grid=-1e308:1e308:3,1:2:3"), 2, "'-1e308:1e308:3': stop - start overflows"),
        # count limits, each refused before anything of that size is allocated
        (("metric", "--grid", "0:1:1001,1:2:1000"), 64, "at most 1000000 (MAX_GRID_POINTS)"),
        (("metric", "--grid", "0:1:10000000000,1:2:1"), 64, "at most 1000000 (MAX_GRID_POINTS)"),
        (("metric", "--point", "0,1", "--engine", "gauss_hermite:301"), 64,
         "at most 300 nodes (MAX_GH_NODES)"),
        (("metric", "--point", "0,1", "--engine", "monte_carlo:10000001:1"), 64,
         "at most 10000000 samples (MAX_MC_SAMPLES)"),
        # a failing point inside a closed-form grid raises what it raises on its own
        (("scalar", "--grid", "0:0:1,1e-160:1e-150:3"), 2,
         "theta point (0.0, 1e-160) is outside the double-precision range of the formulas: "
         "float division by zero"),
        (("curvature", "--chart", "xi", "--grid=-1e150:1e150:3,1e301:1e302:3"), 2,
         "not positive definite"),
        (("christoffel", "--chart", "xi", "--grid", "0:0:1,1:1e-150:3", "--connection",
          "expectation"), 2, "Gamma_lower at xi point (0.0, 1e-150) is not finite"),
        # a failing point inside an engine grid, likewise
        (("christoffel", "--chart", "xi", "--connection", "expectation", "--engine",
          "gauss_hermite:8", "--grid=0:0:1,1:1e-150:2"), 2,
         "Gamma_lower at xi point (0.0, 1e-150) is not finite in double precision"),
        (("metric", "--engine", "monte_carlo:1000:3", "--grid=0:1e200:2,1:1:1"), 2,
         "metric at theta point (1e+200, 1.0) is not positive definite (det = -1.0)"),
        # a float error inside the Monte Carlo engine names its operation
        (("metric", "--chart", "theta", "--engine", "monte_carlo:100000:1", "--point=0,1.7e308"),
         2, "theta point (0.0, 1.7e+308) is outside the double-precision range of the formulas: "
         "overflow encountered in multiply"),
        (("metric", "--chart", "theta", "--engine", "monte_carlo:100000:1", "--point=-3,1e-100"),
         2, "theta point (-3.0, 1e-100) is outside the double-precision range of the formulas: "
         "invalid value encountered in divide"),
        # a sum over the draw that overflows although every sample is finite
        (("metric", "--chart", "xi", "--engine", "monte_carlo:100003:5", "--point=0,1e-152"),
         2, "xi point (0.0, 1e-152) is outside the double-precision range of the formulas: "
         "overflow encountered in add\n"),
        # a float power that overflows names its operation, as numpy's errors do
        (("metric", "--point", "0,1e100", "--engine", "gauss_hermite:8"), 2,
         "igeo: domain error: theta point (0.0, 1e+100) is outside the double-precision range "
         "of the formulas: overflow encountered in power\n"),
        (("torsion", "--connection", "expectation", "--engine", "monte_carlo:1000:1",
          "--point=3,1e154"), 2,
         "igeo: domain error: theta point (3.0, 1e+154) is outside the double-precision range "
         "of the formulas: overflow encountered in power\n"),
        (("christoffel", "--connection", "expectation", "--point=0,1e200"), 2,
         "igeo: domain error: theta point (0.0, 1e+200) is outside the double-precision range "
         "of the formulas: overflow encountered in power\n"),
        (("audit", "--point=0,1e100"), 2,
         "igeo: domain error: theta point (0.0, 1e+100) is outside the double-precision range "
         "of the formulas: overflow encountered in power\n"),
        # mu^2 + sigma^2 overflows: the message names the theta point given
        (("transform", "--point", "1e200,1"), 2, "theta point (1e+200, 1.0) has no xi coordinates"),
        (("transform", "--grid", "0:1e200:2,1:1:1"), 2,
         "theta point (1e+200, 1.0) has no xi coordinates"),
        (("metric", "--point", "0,1", "--output", "/nonexistent/dir/x.json"), 64,
         "cannot write --output '/nonexistent/dir/x.json'"),
        # a negative gate fails every row, a NaN gate passes none
        (("audit", "--point", "0,1", "--tol-closed", "-1"), 64, "argument --tol-closed"),
        (("audit", "--point", "0,1", "--tol-derived", "nan"), 64, "argument --tol-derived"),
        (("audit", "--point", "0,1", "--tol-rel", "inf"), 64, "argument --tol-rel"),
        (("audit", "--point", "0,1", "--tol-rel", "x"), 64, "argument --tol-rel"),
        # every message spells a point as the chart's own coordinates
        (("metric", "--point", "0,1e200"), 2,
         "metric at theta point (0.0, 1e+200) is not positive definite"),
        # mu^2 + sigma^2 rounds to mu^2: the message names the theta point given
        (("transform", "--point", "1e10,1e-10"), 2,
         "theta point (10000000000.0, 1e-10) has no xi coordinates"),
        (("audit", "--point", "1e10,1e-3"), 2,
         "theta point (10000000000.0, 0.001) has no xi coordinates"),
        (("transform", "--grid", "0:1e10:3,1e-10:1e-10:1"), 2,
         "theta point (5000000000.0, 1e-10) has no xi coordinates"),
        # an empty --output path is refused like an unwritable one, not read as stdout
        (("metric", "--point=0,1", "--output="), 64, "cannot write --output ''"),
        (("selftest", "--output="), 64, "cannot write --output ''"),
        # the dual-chart field's derivatives overflow, though its values are finite
        (("curvature", "--chart", "xi", "--point", "0,1e-105"), 2,
         "igeo: domain error: xi point (0.0, 1e-105) is outside the double-precision range "
         "of the formulas: overflow encountered in scalar multiply\n"),
        (("scalar", "--chart", "xi", "--point=-1e-150,1e-100"), 2,
         "igeo: domain error: xi point (-1e-150, 1e-100) is outside the double-precision range "
         "of the formulas: invalid value encountered in subtract\n"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy warnings are not messages
    def test_input(self, argv, code, words):
        got, out, err = call(*argv)
        assert got == code
        assert words in err
        assert "Traceback" not in err and out == ""

    @staticmethod
    def expect_calls(monkeypatch) -> list:
        """The (c1, c2) of each MonteCarlo.expect call from here on."""
        calls = []
        expect = MonteCarlo.expect

        def counting(engine, f, p):
            calls.append((p.c1, p.c2))
            return expect(engine, f, p)

        monkeypatch.setattr(MonteCarlo, "expect", counting)
        return calls

    def test_failing_engine_block_stops_at_its_point(self, monkeypatch):
        calls = self.expect_calls(monkeypatch)
        code, out, err = call("metric", "--engine", "monte_carlo:1000:1",
                              "--grid=1e200:0:2000,1:1:1")
        assert (code, out) == (2, "")
        assert err == ("igeo: domain error: metric at theta point (1e+200, 1.0) is not "
                       "positive definite (det = -1.0)\n")
        # a Monte Carlo grid runs point by point, so its first point fails alone
        assert calls == [(1e200, 1.0)]

    def test_failing_engine_grid_integrates_each_point_once(self, monkeypatch):
        calls = self.expect_calls(monkeypatch)
        code, out, err = call("metric", "--engine", "monte_carlo:1000:1",
                              "--grid=0:1e200:2,1:1:1000")
        assert (code, out) == (2, "")
        assert err == ("igeo: domain error: metric at theta point (1e+200, 1.0) is not "
                       "positive definite (det = -1.0)\n")
        # the 1,000 points at mu = 0 pass, and the 1,001st fails; none runs twice
        assert len(calls) == 1001 and calls[-1] == (1e200, 1.0)
        assert len(set(calls)) == 2 and calls.count((0.0, 1.0)) == 1000

    def test_non_integer_env_seed_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("IGEO_SEED", "abc")
        got, _, err = call("metric", "--point", "0,1", "--engine", "monte_carlo:1000")
        assert got == 64 and "IGEO_SEED" in err


class TestBlockwiseGrids:
    """Grids give each point the bits of its point run: closed-form grids a block at
    a time through the kernels, Monte Carlo grids point by point."""

    GRIDS = {"theta": "--grid=-1.5:2:4,0.3:2.5:3", "xi": "--grid=-1:1.5:4,2.5:5:3"}

    @pytest.mark.parametrize("chart", sorted(GRIDS))
    @pytest.mark.parametrize("command", [
        ("metric",), ("christoffel", "--connection", "levi_civita"),
        ("torsion", "--connection", "levi_civita"), ("curvature",), ("scalar",),
        ("transform",), ("christoffel", "--connection", "expectation"),
        ("torsion", "--connection", "expectation"),
        ("metric", "--engine", "monte_carlo:1000:3"),
        ("christoffel", "--connection", "expectation", "--engine", "monte_carlo:1000:3"),
    ], ids=lambda c: c[0] + ("_expectation" if "expectation" in c else "")
       + ("_monte_carlo" if "--engine" in c else ""))
    def test_grid_record_equals_point_run(self, chart, command):
        self.assert_grid_records_equal_point_runs((*command, "--chart", chart), self.GRIDS[chart])

    def test_audit_grid_record_equals_point_run(self):
        self.assert_grid_records_equal_point_runs(("audit",), self.GRIDS["theta"])

    @staticmethod
    def assert_grid_records_equal_point_runs(command, grid):
        code, out, _ = call(*command, grid, "--format", "json")
        assert code == 0
        grid_lines = record_lines(out)
        assert len(grid_lines) == 12 * len(record_lines(call(
            *command, "--point=0.5,3", "--format", "json")[1]))
        for c1, c2 in dict.fromkeys(tuple(r["point"]) for r in records_of(out)):
            code, out, _ = call(*command, f"--point={c1!r},{c2!r}", "--format", "json")
            assert code == 0
            # 17 significant digits: equal lines are equal doubles
            assert record_lines(out) == [line for line in grid_lines
                                         if json.loads(line)["point"] == [c1, c2]]

    def test_block_size_does_not_change_output(self, monkeypatch):
        # text heads a point only where it differs from the one before, across
        # blocks too; 0.0 == -0.0, so (0, 1) and (-0, 1) share one header
        default = cli.BLOCK_POINTS
        for argv, block, headers in [
            (("curvature", "--chart", "xi", "--grid=-1:1:5,2:4:5"), 3, 25),
            (("metric", "--grid=0.5:0.5:3,1:1:1"), 2, 1),
            (("metric", "--grid=0:-0:2,1:1:1"), 1, 1),
        ]:
            monkeypatch.setattr(cli, "BLOCK_POINTS", default)
            whole = call(*argv, "--format", "text")
            assert whole[1].count("\npoint (") == headers
            monkeypatch.setattr(cli, "BLOCK_POINTS", block)
            assert call(*argv, "--format", "text") == whole

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failing_point_in_a_later_block(self, monkeypatch):
        monkeypatch.setattr(cli, "BLOCK_POINTS", 2)
        for command in ("metric", "audit"):
            code, out, err = call(command, "--grid", "0:0:1,1:1e-200:5")
            assert (code, out) == (2, "")
            assert err == call(command, "--point", "0,1e-200")[2]
            assert "(0.0, 1e-200)" in err


class TestSigmaRepresentatives:
    """A closed-form natural-chart grid of a connection or curvature command, which
    depends on sigma alone, is evaluated at one point per distinct sigma and gathered:
    it writes, and fails, as the same grid with every point evaluated.  The metric,
    whose kernels cost little per point, and every other request evaluate every point."""

    COMMANDS = [("christoffel", "--connection=levi_civita"),
                ("christoffel", "--connection=expectation"),
                ("torsion", "--connection=levi_civita"),
                ("torsion", "--connection=expectation"), ("curvature",), ("scalar",)]
    GRIDS = {  # grid -> distinct sigma per block
        "--grid=-1:1:40,0.5:2:40": [40],
        "--grid=0.3:0.3:1,0.5:2:7": [7],  # 1 x n
        "--grid=-1:1:7,1.3:1.3:1": [1],  # n x 1
        "--grid=-1:1:5,1:1:3": [1],  # a repeated sigma axis
        "--grid=-1:1:70,0.5:2:70": [70, 70],  # two BLOCK_POINTS blocks
        "--grid=-0.0:1:3,0.5:2:4": [4],  # -0.0 mu ends
        "--grid=-1:-0.0:3,0.5:2:4": [4],
    }

    @staticmethod
    def both_ways(monkeypatch, argv):
        """(the representative run, the every-point run) of argv, and the number of
        distinct sigma in each block of the first."""
        found = []

        def spy(p, engine):
            reps = models._sigma_representatives(p, engine)
            found.append(None if reps is None else reps[0].c1.size)
            return reps

        monkeypatch.setattr(cli, "_sigma_representatives", spy)
        by_sigma = call(*argv)
        monkeypatch.setattr(cli, "_sigma_representatives", lambda p, engine: None)
        return by_sigma, call(*argv), found

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("command", COMMANDS, ids="".join)
    def test_equals_every_point(self, monkeypatch, command, grid):
        for fmt in ("json", "csv", "text"):
            by_sigma, every, found = self.both_ways(monkeypatch, (*command, grid, "--format", fmt))
            assert by_sigma[0] == 0 and by_sigma == every
            assert found == self.GRIDS[grid]

    @pytest.mark.parametrize("command", COMMANDS, ids="".join)
    def test_failing_grid_keeps_exit_code_and_stderr(self, monkeypatch, command):
        by_sigma, every, found = self.both_ways(
            monkeypatch, (*command, "--grid=-1:1:3,1:1e-160:4", "--format", "json"))
        assert by_sigma == every and (by_sigma[0], by_sigma[1]) == (2, "")
        assert "theta point (-1.0, 1e-160)" in by_sigma[2] and found[0] == 4

    @pytest.mark.parametrize("argv", [
        ("metric", "--grid=-1:1:3,1:2:2"),
        ("transform", "--grid=-1:1:3,1:2:2"), ("audit", "--grid=-1:1:3,1:2:2"),
        ("scalar", "--chart=xi", "--grid=-1:1:3,2:3:2"), ("scalar", "--point=0.5,1"),
        ("metric", "--engine=gauss_hermite:8", "--grid=-1:1:3,1:2:2"),
    ], ids=lambda a: "_".join(a[:2]))
    def test_other_requests_evaluate_every_point(self, monkeypatch, argv):
        by_sigma, every, found = self.both_ways(monkeypatch, (*argv, "--format", "json"))
        assert by_sigma == every and found in ([], [None])


class TestParserReuse:
    """main(argv) builds the parser once; no call leaves state for the next."""

    SEQUENCE = [
        ("metric", "--chart", "bogus", "--point", "0,1"),
        ("metric", "--help"),
        ("audit", "--strict", "--tol-closed", "0", "--tol-derived", "0", "--tol-rel", "0",
         "--point", "0,1"),
        ("audit", "--point", "0,1", "--format", "json"),
        ("metric", "--chart", "xi", "--point=-1,2", "--format", "json"),
        # the shape just kept, at another point: a memo hit
        ("metric", "--chart", "xi", "--point=0.5,3", "--format", "json"),
        # help and a usage error after a hit are argparse's own
        ("metric", "--chart", "xi", "--point=0.5,3", "--format", "json", "--help"),
        ("metric", "--chart", "xi", "--point=0.5,3", "--format", "yaml"),
        # '--' as the value of a kept --point= shape is not masked, and is refused
        ("metric", "--chart", "xi", "--point=--", "--format", "json"),
        ("metric", "--chart", "xi", "--point", "--", "--format", "json"),
    ]

    def test_sequence_matches_fresh_processes(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # usage and help wrap at the terminal width
        got = [call(*argv) for argv in self.SEQUENCE]
        assert [code for code, _, _ in got] == [64, 0, 3, 0, 0, 0, 0, 64, 64, 64]
        for argv, result in zip(self.SEQUENCE, got):
            fresh = run(*argv, env_extra={"COLUMNS": "80"})
            assert result == (fresh.returncode, fresh.stdout, fresh.stderr), argv

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()


def parsed(parse, argv):
    """parse(argv) as ("ok", its namespace's attributes), or ("exit", code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parse(list(argv))
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue(), err.getvalue()
    return "ok", vars(args), out.getvalue(), err.getvalue()


def fresh_parse(argv):
    return cli.build_parser().parse_args(argv)


def memo_parse(argv):
    return cli._parse(cli.build_parser(), argv)


# values of --point and --grid: ordinary, empty, '--', leading '-', '=', spaces, NUL
_VALUE = st.one_of(
    st.sampled_from(["0,1", "-1,2", "0.5:1:2,1:2:2", "", "--", "-", "-x", "--point=1",
                     "=", "a b", "-1 2", "\0", "0,1\0"]),
    st.text(max_size=6),
)
# a token template: '{}' takes a point or grid value, which differs between the two parses
_TOKEN = st.one_of(
    st.sampled_from([
        ("--point={}",), ("--grid={}",), ("--poi={}",), ("--gr={}",), ("--point", "{}"),
        ("--grid", "{}"), ("--po={}",), ("--point=--",), ("--grid=--",), ("--",), ("--point",),
        ("--help",), ("-h",), ("--strict",), ("--strict=x",), ("--chart=xi",),
        ("--chart", "bogus"), ("--ch=theta",), ("--engine=gauss_hermite:8",),
        ("--engine", "-3"), ("--connection=expectation",), ("--con=levi",),
        ("--format=json",), ("--format", "csv"), ("--fo=text",), ("--format=--",),
        ("--output=",), ("--output", "-o"), ("--tol-closed=0",), ("--tol-rel", "-1"),
        ("--tol-derived=--",), ("--tol=1",), ("--bogus",), ("0,1",), ("-1,2",),
    ]),
    st.builds(lambda option, text: (option + text,),
              st.sampled_from(["--point=", "--grid=", "--engine=", "--output=", "--"]),
              st.text(max_size=4).filter(lambda text: "{}" not in text)),
)
_COMMAND = st.sampled_from(["metric", "christoffel", "torsion", "curvature", "scalar",
                            "transform", "audit", "selftest", "bogus", "--help", "--point=0,1"])


def fill(template, values):
    """The template's tokens with each '{}' replaced by the next of values."""
    values = iter(values)
    return [t.replace("{}", next(values)) if "{}" in t else t for t in template]


class TestParseMemo:
    """main's parse, memoised per argv shape, gives what a fresh parse_args gives."""

    @given(command=_COMMAND, tokens=st.lists(_TOKEN, max_size=6),
           first=st.lists(_VALUE, min_size=8, max_size=8),
           second=st.lists(_VALUE, min_size=8, max_size=8), reverse=st.booleans())
    @example(command="metric", tokens=[("--point={}",), ("--poi={}",)],
             first=["0,1", "0,2"] + [""] * 6, second=["0,3", "0,4"] + [""] * 6, reverse=False)
    @example(command="metric", tokens=[("--poi={}",), ("--point={}",), ("--grid={}",)],
             first=["0,1", "0,2", "a"] + [""] * 5, second=["0,3", "--", "b"] + [""] * 5,
             reverse=True)
    @example(command="audit", tokens=[("--point", "{}"), ("--point={}",), ("--tol-rel", "-1")],
             first=["0,1", "-1,2"] + [""] * 6, second=["-x", "0,1"] + [""] * 6, reverse=False)
    # a literal value that spells the placeholder of a masked token's position
    @example(command="metric", tokens=[("--point={}",), ("--poi={}",)],
             first=["0,1", "\0" "1"] + [""] * 6, second=["0,3", "\0" "1"] + [""] * 6,
             reverse=False)
    @settings(max_examples=300, deadline=None)
    def test_equals_a_fresh_parse(self, command, tokens, first, second, reverse):
        cli._PARSE_MEMO.clear()
        template = [command, *(t for token in tokens for t in token)]
        argvs = [fill(template, values) for values in (first, second)]
        for argv in reversed(argvs) if reverse else argvs:
            argv = cli._join_values(argv)
            assert parsed(memo_parse, argv) == parsed(fresh_parse, argv), argv

    def test_one_key_per_shape(self, monkeypatch):
        monkeypatch.setattr(cli, "_PARSE_MEMO", {})
        for c1 in range(5):
            args = memo_parse(["metric", f"--point={c1},1", "--format=json"])
            assert (args.point, args.grid) == (f"{c1},1", None)
            args = memo_parse(["audit", f"--grid=0:{c1}:2,1:2:2"])
            assert (args.point, args.grid) == (None, f"0:{c1}:2,1:2:2")
        assert len(cli._PARSE_MEMO) == 2
        # a hit's namespace is a copy: changing it changes no later parse
        args.strict = True
        assert memo_parse(["audit", "--grid=0:1:2,1:2:2"]).strict is False

    def test_bound(self, monkeypatch):
        monkeypatch.setattr(cli, "_PARSE_MEMO", {})
        for i in range(cli.PARSE_MEMO_SIZE + 40):  # an abbreviation is keyed literally
            memo_parse(["metric", f"--poi={i},1"])
        assert len(cli._PARSE_MEMO) == cli.PARSE_MEMO_SIZE
        # the least recently used shape goes first
        monkeypatch.setattr(cli, "PARSE_MEMO_SIZE", 3)
        monkeypatch.setattr(cli, "_PARSE_MEMO", {})
        for argv in (["metric", "--poi=1,1"], ["metric", "--poi=2,1"], ["metric", "--poi=1,1"],
                     ["metric", "--poi=3,1"], ["metric", "--poi=4,1"]):
            memo_parse(argv)
        assert list(cli._PARSE_MEMO) == [("metric", f"--poi={i},1") for i in (1, 3, 4)]


# every option of every command that takes a value
VALUE_OPTIONS = {
    "metric": ("--point", "--grid", "--chart", "--engine", "--format", "--output"),
    "christoffel": ("--point", "--grid", "--chart", "--engine", "--connection", "--format",
                    "--output"),
    "torsion": ("--point", "--grid", "--chart", "--engine", "--connection", "--format",
                "--output"),
    "curvature": ("--point", "--grid", "--chart", "--engine", "--format", "--output"),
    "scalar": ("--point", "--grid", "--chart", "--engine", "--format", "--output"),
    "transform": ("--point", "--grid", "--chart", "--format", "--output"),
    "audit": ("--point", "--grid", "--format", "--output", "--tol-closed", "--tol-derived",
              "--tol-rel"),
    "selftest": ("--format", "--output"),
}


class TestDashValue:
    """'--' as an option's value is refused like a missing value: exit 64, naming the option."""

    def test_every_value_option_is_listed(self):
        commands = cli.build_parser()._subparsers._group_actions[0].choices
        assert {name: tuple(o for a in sp._actions if a.nargs is None
                            for o in a.option_strings)
                for name, sp in commands.items()} == VALUE_OPTIONS

    @pytest.mark.parametrize("form", ["=", " "])
    @pytest.mark.parametrize("command, option", [(c, o) for c, opts in VALUE_OPTIONS.items()
                                                 for o in opts])
    def test_exits_64(self, command, option, form):
        point = () if option in ("--point", "--grid") or command == "selftest" else ("--point=0,1",)
        dash = [f"{option}=--"] if form == "=" else [option, "--"]
        code, out, err = call(command, *point, *dash)
        assert (code, out) == (64, "")
        assert err.endswith(f"igeo {command}: error: argument {option}: expected one argument\n")
        assert "Traceback" not in err


def written_cell(value, fmt: str) -> str:
    """The text the record writer gives ``value`` in fmt (json, csv or text).

    A tuple is written as the point of a record; a str or None as a constant
    cell after the point; a float or an array as a Floats cell, its floats taken
    from the block the way a command's values are.  Text writes a point as the
    header of its rows, a constant as an audit row's note, and a Floats cell as a
    quantity's value, given here without its indent.
    """
    if fmt == "text":
        return written_text(value)
    coords, rows, floats = np.array([[0.0, 1.0]]), ((),), np.zeros((1, 0))
    if isinstance(value, tuple):
        coords = np.array([value])
    elif value is None or isinstance(value, str):
        rows = ((value,),)
    else:
        rows, floats = ((cli.Floats(np.shape(value)),),), np.reshape(value, (1, -1))
    keys = ("point",) if isinstance(value, tuple) else ("point", "cell")
    text = cli._WRITERS[fmt](cli.Report({}, keys, [cli.Block(coords, rows, floats)]))
    if fmt == "json":
        record = text.splitlines()[3]
        assert record.startswith('    {"point": ') and record.endswith("}")
        return record[len('    {"point": '):-1].split(', "cell": ')[-1]
    record = text.splitlines()[1]
    return record if isinstance(value, tuple) else record[len('"[0, 1]",'):]


def written_text(value) -> str:
    """written_cell(value, "text")."""
    if value is None or isinstance(value, str):
        row = ("q", *[cli.Floats(())] * 4, cli.Verdict("no", "yes"), "label", value)
        block = cli.Block(np.array([[0.0, 1.0]]), (row,), np.zeros((1, 4)), np.array([[True]]))
        line = cli._to_text(cli.Report({}, cli.AUDIT_KEYS, [block])).splitlines()[2]
        return line.partition(" yes")[2].removeprefix("   # ")
    is_point = isinstance(value, tuple)
    point, value = (value, 0.0) if is_point else ((0.0, 1.0), value)
    rows = (("q", cli.Floats(np.shape(value)), "oracle"),)
    block = cli.Block(np.array([point]), rows, np.reshape(value, (1, -1)))
    _, header, first, *rest = cli._to_text(cli.Report({}, cli.QUANTITY_KEYS, [block])).splitlines()
    if is_point:
        return header
    if not rest:
        assert first.startswith("  q: ")
        return first[len("  q: "):]
    assert first == "  q:" and all(line.startswith("    ") for line in rest)
    return "\n".join(line[4:] for line in rest)


def mrow(a: str, b: str) -> str:
    """A matrix row as text: two cells right-aligned in 15 columns."""
    return f"[{a:>15}  {b:>15}]"


class TestSerialisation:
    """Exact strings of the JSON, CSV and text record writers, for each kind of cell a record
    holds."""

    CELLS = [
        ('say "hi" \\ bye', '"say \\"hi\\" \\\\ bye"', '"say ""hi"" \\ bye"', 'say "hi" \\ bye'),
        ("a,b", '"a,b"', '"a,b"', "a,b"),
        ("plain", '"plain"', "plain", "plain"),
        (None, "null", "", ""),
        (0.1, "0.10000000000000001", "0.10000000000000001", "0.1"),
        (-0.0, "0", "0", "-0"),
        (0.0, "0", "0", "0"),
        (1.0, "1", "1", "1"),
        (5e-324, "4.9406564584124654e-324", "4.9406564584124654e-324", "4.94065645841e-324"),
        (np.float64(-0.0), "0", "0", "-0"),
        (np.float64(0.1), "0.10000000000000001", "0.10000000000000001", "0.1"),
        ((0.5, -0.0), "[0.5, 0]", '"[0.5, 0]"', "point (0.5, -0)"),
        (np.array([0.5, -0.0]), "[0.5, 0]", '"[0.5, 0]"', "[0.5  -0]"),
        (np.array([[1.0, -0.0], [0.1, -2.5]]), "[[1, 0], [0.10000000000000001, -2.5]]",
         '"[[1, 0], [0.10000000000000001, -2.5]]"', mrow("1", "-0") + "\n" + mrow("0.1", "-2.5")),
        (np.arange(16.0).reshape(2, 2, 2, 2),
         "[[[[0, 1], [2, 3]], [[4, 5], [6, 7]]], [[[8, 9], [10, 11]], [[12, 13], [14, 15]]]]",
         '"[[[[0, 1], [2, 3]], [[4, 5], [6, 7]]], [[[8, 9], [10, 11]], [[12, 13], [14, 15]]]]"',
         "\n".join([f"[1] [1] {mrow('0', '1')}", f"    {mrow('2', '3')}",
                    f"  [2] {mrow('4', '5')}", f"    {mrow('6', '7')}",
                    f"[2] [1] {mrow('8', '9')}", f"    {mrow('10', '11')}",
                    f"  [2] {mrow('12', '13')}", f"    {mrow('14', '15')}"])),
    ]
    CELL_IDS = [" ".join(repr(value).split()) for value, *_ in CELLS]

    @pytest.mark.parametrize("value, text", [(value, text) for value, text, _, _ in CELLS], ids=CELL_IDS)
    def test_json_cell(self, value, text):
        assert written_cell(value, "json") == text

    @pytest.mark.parametrize("value, text", [(value, text) for value, _, text, _ in CELLS], ids=CELL_IDS)
    def test_csv_cell(self, value, text):
        assert written_cell(value, "csv") == text

    @pytest.mark.parametrize("value, text", [(value, text) for value, _, _, text in CELLS], ids=CELL_IDS)
    def test_text_cell(self, value, text):
        assert written_cell(value, "text") == text

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_json_float_cell(self, x):
        text = written_cell(x, "json")
        assert text == (f"{x:.17g}" if x else "0") == written_cell(np.float64(x), "json")
        assert text == written_cell(x, "csv")
        assert json.loads(text) == x
        assert written_cell(np.array([x]), "json") == f"[{text}]"

    @pytest.mark.parametrize("constant, json_text, csv_text", [
        ("50%", '"50%"', "50%"),
        ("%s %% %.17g", '"%s %% %.17g"', "%s %% %.17g"),
        ('say "%d"', '"say \\"%d\\""', '"say ""%d"""'),
        ("a,%", '"a,%"', '"a,%"'),
    ])
    def test_constant_is_written_literally(self, constant, json_text, csv_text):
        assert written_cell(constant, "json") == json_text
        assert written_cell(constant, "csv") == csv_text
        # next to float slots, in a key and in the verdict words too
        rows = ((constant, cli.Floats(()), cli.Verdict(constant, "ok")),)
        block = cli.Block(np.array([[0.0, 1.0]]), rows, np.array([[0.25]]), np.array([[False]]))
        report = cli.Report({}, ("point", "cell", constant, "verdict"), [block])
        record = json.loads(cli._to_json(report))["records"][0]
        assert record == {"point": [0, 1], "cell": constant, constant: 0.25, "verdict": constant}
        _, row = csvmod.reader(io.StringIO(cli._to_csv(report)))
        assert row == ["[0, 1]", constant, "0.25", constant]

    # the audit and selftest text lines against str.format specs, a formatter
    # independent of the writer's %-templates; names pad and keep a literal %
    _NAMES = st.text("ab_.,()=%- ", max_size=50)

    @given(_NAMES, st.lists(st.floats(), min_size=4, max_size=4), st.booleans(), _NAMES,
           st.one_of(st.none(), _NAMES))
    @example("K", [-0.0, 0.0, 5e-324, -2.2250738585072014e-308], False, "native_levi_civita",
             None)
    @example("R.1212", [float("nan"), float("-inf"), float("inf"), float("nan")], True,
             "tensor_law", "a note")
    def test_audit_text_line(self, quantity, floats, ok, label, note):
        paper, oracle, abs_gap, _ = floats
        verdict = cli.Verdict(cli.MISMATCH, cli.MATCH)
        row = (quantity, *[cli.Floats(())] * 4, verdict, label, note)
        block = cli.Block(np.array([[0.0, 1.0]]), (row,), np.array([floats]), np.array([[ok]]))
        _, _, line = cli._to_text(cli.Report({}, cli.AUDIT_KEYS, [block])).split("\n", 2)
        tail = f"   # {note}" if note else ""
        assert line == (f"  {quantity:<22} paper={paper:<+24.16g} {f'oracle[{label}]':<34}"
                        f"={oracle:<+24.16g} gap={abs_gap:<12.4g} {verdict[ok]}{tail}\n")

    @given(_NAMES, st.floats(), st.floats(), st.booleans())
    @example("selftest.x", -0.0, 5e-324, True)
    @example("selftest.y", float("nan"), float("-inf"), False)
    def test_selftest_text_line(self, quantity, value, bound, ok):
        row = (quantity, cli.Floats(()), cli.Floats(()), cli.Verdict("FAIL", "PASS"), "oracle")
        block = cli.Block(np.array([[0.0, 1.0]]), (row,), np.array([[value, bound]]),
                          np.array([[ok]]))
        _, _, line = cli._to_text(cli.Report({}, cli.SELFTEST_KEYS, [block])).split("\n", 2)
        assert line == (f"  {quantity:<46} residual={value:<12.4g} bound={bound:<10.4g} "
                        f"{'PASS' if ok else 'FAIL'}\n")


# constants that the %-templates must escape: each holds %, ", a comma or a backslash
_LITERALS = ["50%", "%s %% %.17g", 'say "%d"', "a,%", "back\\slash %%"]
_NAN_BITS = (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123, 0x7FF0000000000001,
             0xFFF8000000000123, 0xFFF0000000000001)  # each payload with both signs
# floats a block repeats: signed zeros, the smallest subnormal, NaN payloads (signalling
# ones too), infinities, each with its negative, and one number without it
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, 1.0, -1.0, 0.1, -0.1, -2.5,
            *np.array(_NAN_BITS, dtype=np.uint64).view(float).tolist()]
_CELL = st.one_of(
    st.sampled_from(_LITERALS + ["plain", None]),
    st.sampled_from([(), (2,), (2, 2), (2, 2, 2)]).map(cli.Floats),
    st.just("verdict"),
)


class TestColumnWriter:
    """A JSON or CSV block of more than one point is written by columns: its records
    equal those of its points written one by one, through the per-point template."""

    @given(
        keys=st.lists(st.sampled_from(_LITERALS + ["k", "value"]), min_size=3, max_size=3,
                      unique=True),
        rows=st.lists(st.lists(_CELL, min_size=3, max_size=3), min_size=1, max_size=4),
        words=st.sampled_from([("MISMATCH", "MATCH"), ("%s", "50%"), ('say "%d"', "a,%"),
                               ("back\\slash %%", "%s %% %.17g")]),
        n=st.one_of(st.integers(2, 5), st.integers(cli.JOIN_POINTS - 1, 2 * cli.JOIN_POINTS + 3)),
        pool=st.lists(st.floats(), max_size=6),
        seed=st.integers(0, 2**32 - 1),
        format_values=st.sampled_from([1, 2 * cli.JOIN_POINTS * 20, cli.FORMAT_VALUES]),
    )
    @settings(max_examples=60, deadline=None)
    @example(keys=_LITERALS[:3], rows=[[_LITERALS[3], cli.Floats((2, 2)), "verdict"],
                                       ["verdict", None, cli.Floats(())]],
             words=('say "%d"', "a,%"), n=2 * cli.JOIN_POINTS + 3, pool=[], seed=0,
             format_values=1)
    @example(keys=_LITERALS[:3], rows=[["verdict", cli.Floats((2, 2, 2)), "verdict"]],
             words=("MISMATCH", "MATCH"), n=3 * cli.JOIN_POINTS, pool=[-3.5, 7e-300], seed=1,
             format_values=1)
    @example(keys=_LITERALS[:3], rows=[["verdict", cli.Floats((2, 2, 2)), "verdict"]],
             words=("MISMATCH", "MATCH"), n=3 * cli.JOIN_POINTS, pool=[-3.5, 7e-300], seed=6,
             format_values=1)
    def test_block_equals_its_points(self, keys, rows, words, n, pool, seed, format_values):
        verdict = cli.Verdict(*words)
        rows = tuple(tuple(verdict if c == "verdict" else c for c in row) for row in rows)
        size = sum(c.size for row in rows for c in row if isinstance(c, cli.Floats))
        verdicts = sum(isinstance(c, cli.Verdict) for row in rows for c in row)
        rng = np.random.default_rng(seed)
        values = np.array(_SPECIAL + pool + [-x for x in pool])  # few, each repeated
        # each column holds drawn values, one value per JOIN_POINTS points (so per
        # segment at format_values 1), or one value over the block
        run = np.arange(n) // cli.JOIN_POINTS

        def columns(draw, k):
            kind = rng.integers(0, 3, k)
            return np.where(kind == 0, draw((n, k)),
                            np.where(kind == 1, draw((run[-1] + 1, k))[run], draw(k)))

        coords, floats = np.hsplit(columns(lambda shape: rng.choice(values, shape), 2 + size), [2])
        coords[:2] = [[-0.0, 0.0], [0.0, -0.0]]  # both zeros in every block
        ok = columns(lambda shape: rng.integers(0, 2, shape).astype(bool), verdicts) \
            if verdicts else None
        block = cli.Block(coords, rows, floats, ok)
        points = [cli.Block(coords[i:i + 1], rows, floats[i:i + 1],
                            None if ok is None else ok[i:i + 1]) for i in range(n)]
        keys = ("point", *keys)
        for fmt in ("json", "csv"):
            whole, each = [], []
            with pytest.MonkeyPatch.context() as mp:  # at 1, each join is a segment
                mp.setattr(cli, "FORMAT_VALUES", format_values)
                with np.errstate(invalid="ignore"):  # + 0.0 quiets a signalling NaN
                    cli._write_records(whole, keys, [block], fmt)
                    cli._write_records(each, keys, points, fmt)
            assert "".join(whole) == "".join(each)
            assert len(whole) == -(-n // cli.JOIN_POINTS)

    def test_audit_grid_is_written_by_columns(self, monkeypatch):
        joined = []
        write = cli._write_columns
        monkeypatch.setattr(cli, "_write_columns", lambda out, block, *layout: (
            joined.append(len(block.coords)), write(out, block, *layout)))
        grid = ("audit", "--grid=-1:1:6,0.5:2:7")
        outs = [call(*grid, f"--format={fmt}") for fmt in ("json", "csv")]
        assert joined == [42, 42] and all(code == 0 for code, _, _ in outs)
        monkeypatch.setattr(cli, "JOIN_POINTS", 5)
        assert [call(*grid, f"--format={fmt}") for fmt in ("json", "csv")] == outs
        # segments of 5 and of 15 points: each formats its own distinct floats
        for format_values in (1, 15 * (2 + 4 * len(cli.AUDIT_ROWS))):
            monkeypatch.setattr(cli, "FORMAT_VALUES", format_values)
            assert [call(*grid, f"--format={fmt}") for fmt in ("json", "csv")] == outs

    def test_text_and_single_points_keep_the_per_point_template(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("written by columns")

        text = call("curvature", "--grid=-1:1:3,0.5:2:3", "--format=text")
        points = [call("metric", "--point=0.5,1.5", f"--format={fmt}") for fmt in ("json", "csv")]
        monkeypatch.setattr(cli, "_write_columns", refuse)
        assert call("curvature", "--grid=-1:1:3,0.5:2:3", "--format=text") == text
        assert text[0] == 0 and text[1].count("\npoint (") == 9
        for fmt, got in zip(("json", "csv"), points):
            assert call("metric", "--point=0.5,1.5", f"--format={fmt}") == got
        assert call("metric", "--grid=0:1:2,1:2:1", "--format=text")[0] == 0
        with pytest.raises(AssertionError, match="written by columns"):  # a block of two
            call("metric", "--grid=0:1:2,1:2:1", "--format=json")


class TestRowPatternHash:
    """The template cache finds a row pattern by its rows: any tuple of the same rows
    finds the same entry."""

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_plain_tuple_finds_the_same_layout(self, fmt):
        layout = cli._template(cli.AUDIT_KEYS, cli._AUDIT_ROWS, fmt)
        assert cli._template(cli.AUDIT_KEYS, tuple(cli._AUDIT_ROWS), fmt) is layout
        rows = (("q", cli.Floats((2,)), "oracle"),)
        assert (cli._template(cli.QUANTITY_KEYS, rows, fmt)
                is cli._template(cli.QUANTITY_KEYS, cli._quantity_rows(("q",), ((2,),)), fmt))
        assert (layout[3] is None) == (fmt == "text")


_REAL = st.one_of(
    st.floats(-3, 3).map(repr),
    st.floats().map(repr),
    st.integers(-4, 4).map(str),
    st.sampled_from(["1e-300", "1e300", "-0", "nan", "-inf", "", "x"]),
)
_AXIS = st.builds(lambda a, b, n: f"{a}:{b}:{n}", _REAL, _REAL, st.integers(-1, 5))
# in-domain branches, so that many runs get past parsing into the numerics
_MU = st.floats(-2, 2).map(repr)
_SIGMA_OR_XI2 = st.floats(4.5, 9).map(repr)
_GOOD_POINT = st.tuples(_MU, _SIGMA_OR_XI2).map(",".join)
_GOOD_GRID = st.builds(lambda a, b, n, c, d, m: f"{a}:{b}:{n},{c}:{d}:{m}",
                       _MU, _MU, st.integers(1, 5), _SIGMA_OR_XI2, _SIGMA_OR_XI2,
                       st.integers(1, 5))
_ENGINE = st.one_of(
    st.just("closed_form"),
    st.just("gauss_hermite"),
    st.integers(-3, 80).map(lambda n: f"gauss_hermite:{n}"),
    st.builds(lambda n, seed: f"monte_carlo:{n}:{seed}",
              st.integers(-10, 10_000), st.integers(-2, 2**40)),
    st.integers(-10, 10_000).map(lambda n: f"monte_carlo:{n}"),
    st.text(max_size=12),
)
# the options each command takes besides --point, --grid and --format
_OPTIONS = {
    "metric": ("--chart", "--engine"),
    "christoffel": ("--chart", "--engine", "--connection"),
    "torsion": ("--chart", "--engine", "--connection"),
    "curvature": ("--chart", "--engine"),
    "scalar": ("--chart", "--engine"),
    "transform": ("--chart",),
    "audit": (),
}


class TestFuzz:
    @given(
        command=st.sampled_from(sorted(_OPTIONS)),
        where=st.one_of(
            st.tuples(st.just("--point"), st.one_of(
                _GOOD_POINT, st.tuples(_REAL, _REAL).map(",".join), st.text(max_size=10))),
            st.tuples(st.just("--grid"), st.one_of(
                _GOOD_GRID, st.tuples(_AXIS, _AXIS).map(",".join), st.text(max_size=10))),
        ),
        values=st.fixed_dictionaries({
            "--chart": st.sampled_from([None, "theta", "xi"]),
            "--engine": st.one_of(st.none(), _ENGINE),
            "--connection": st.sampled_from([None, "levi_civita", "expectation"]),
        }),
    )
    @settings(max_examples=200, deadline=None)
    def test_exit_code_and_no_traceback(self, command, where, values):
        argv = [command, *where, "--format", "json"]
        for flag in _OPTIONS[command]:
            if values[flag] is not None:
                argv += [flag, values[flag]]
        code, out, err = call(*argv)
        assert code in (0, 2, 3, 64)
        assert "Traceback" not in err
        if code == 0:
            json.loads(out)  # no inf or nan slipped into the numbers


class PerPoint:
    """An engine seen through a wrapper: models integrates a block one point per call."""

    def __init__(self, engine):
        self.engine = engine

    def expect(self, f, p):
        return self.engine.expect(f, p)


# grid ends near the edges of double precision, and ordinary ones
_EDGE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, 1e-300, 1e-160, 1e-150, 1e-100, 1e100,
                     1e154, 1e200, -1e200, 1.7e308]),
    st.floats(-4, 4),
    st.floats(0.5, 4),
)
_EDGE_AXIS = st.builds(lambda a, b, n: f"{a!r}:{b!r}:{n}", _EDGE, _EDGE, st.integers(1, 3))


class TestGaussHermiteBlocks:
    """A Gauss-Hermite grid, integrated one call per block, writes and fails as it
    does through a wrapped engine, which takes one call per point."""

    @given(
        command=st.sampled_from([("metric",), ("christoffel", "--connection", "expectation"),
                                 ("torsion", "--connection", "expectation")]),
        chart=st.sampled_from(["theta", "xi"]),
        grid=st.tuples(_EDGE_AXIS, _EDGE_AXIS).map(",".join),
        nodes=st.sampled_from([1, 2, 8, 64, 300]),
        fmt=st.sampled_from(["json", "csv", "text"]),
        block_points=st.sampled_from([1, 2, 4096]),
        values=st.sampled_from([1, 64, 1 << 16]),
    )
    @example(command=("christoffel", "--connection", "expectation"), chart="xi",
             grid="0.0:0.0:1,1.0:1e-150:2", nodes=8, fmt="json", block_points=4096,
             values=1 << 16)
    @example(command=("metric",), chart="theta", grid="-1.0:1e200:3,1e-100:2.5:3", nodes=64,
             fmt="text", block_points=4096, values=1 << 16)
    @settings(max_examples=150, deadline=None)
    def test_same_exit_code_stdout_and_stderr(self, command, chart, grid, nodes, fmt,
                                              block_points, values):
        argv = [*command, "--chart", chart, "--engine", f"gauss_hermite:{nodes}",
                f"--grid={grid}", "--format", fmt]
        parse = cli._parse_engine

        def per_point(spec):
            engine, desc = parse(spec)
            return PerPoint(engine), desc

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "BLOCK_POINTS", block_points)
            mp.setattr(models, "GH_BLOCK_VALUES", values)
            by_block = call(*argv)
            mp.setattr(cli, "_parse_engine", per_point)
            assert call(*argv) == by_block
        assert "Traceback" not in by_block[2]


# sha256 of stdout for closed-form runs at two points per chart, for the
# closed-form grid commands on a 3x3 grid per chart (JSON and text, which prints
# the sign of a zero; the audit, metric, curvature and transform also as CSV),
# for the engine-computed metric and expectation connection on a 2x2 grid per
# chart (the Gauss-Hermite connection at a point also as CSV), for the
# Gauss-Hermite dual-chart torsion (JSON) and the Monte Carlo metric (CSV) on a
# 3x3 grid, for the Monte Carlo natural-chart connection and dual-chart metric
# on a 2x2 grid at a sample count that is not a multiple of 8, for the audit
# (JSON, CSV and text) and the metric (JSON and CSV) on a grid whose first
# coordinate ends on -0.0, for the metric as text on grids whose points repeat,
# also as +0.0 and -0.0 (one point header each), and for the selftest in every
# format; a change that
# restructures the CLI, the library or the engines must keep every byte
PINNED = {
    "metric --chart theta --point=0.5,1.5 --format json":
        "a156f57edbfae6d440e1247bb6e4a182fb2d8aa1fe58eddd10c998d57be576af",
    "christoffel --chart theta --point=0.5,1.5 --format json --connection levi_civita":
        "5920302f926c3b1cd0af8b5951aee7fcd17d430aa2542eb90e9d490a9d47aefd",
    "torsion --chart theta --point=0.5,1.5 --format json --connection levi_civita":
        "b11011011e87ada04a8dd5d776b3b0268781b5156ede4eb0bb39b9f3f124877f",
    "christoffel --chart theta --point=0.5,1.5 --format json --connection expectation":
        "dd4dba7555e46dcae6ab0b5f2ac0b8e6813f0bddc25abaa1e265abe9a0ccad4d",
    "torsion --chart theta --point=0.5,1.5 --format json --connection expectation":
        "b11011011e87ada04a8dd5d776b3b0268781b5156ede4eb0bb39b9f3f124877f",
    "curvature --chart theta --point=0.5,1.5 --format json":
        "8bdaece07253b3e4441bc616c577c5ce3ddbc709ed8498cb5e86c6dc96150efb",
    "scalar --chart theta --point=0.5,1.5 --format json":
        "c7d0ea4cf258c9fbf1c43a2b24e4b80ef845505ca4ed6e410d1166470da5a5d5",
    "transform --chart theta --point=0.5,1.5 --format json":
        "d5e0f9d479de50319bc4a72a3bbbe9e5f7ffd96f7dcdf97449e16b4ea88fb17c",
    "metric --chart theta --point=-1.25,0.75 --format json":
        "7e90edb641c587e4839a54c52ae3a6fa4078d1070ae6088ef65ec62e3b88a497",
    "christoffel --chart theta --point=-1.25,0.75 --format json --connection levi_civita":
        "e4cb05d48bc63e4de3acd6c7166b60b73ad480fada3a25efca3d1ed317e91a32",
    "torsion --chart theta --point=-1.25,0.75 --format json --connection levi_civita":
        "0a5ec789271c981cfd87aed07292b20d39ab4cc8635b8bf5d2b56db4377aae5e",
    "christoffel --chart theta --point=-1.25,0.75 --format json --connection expectation":
        "ba5776e6e0503cc5d7a86af1a67490b678091537536aca047bb80690a3b8239f",
    "torsion --chart theta --point=-1.25,0.75 --format json --connection expectation":
        "0a5ec789271c981cfd87aed07292b20d39ab4cc8635b8bf5d2b56db4377aae5e",
    "curvature --chart theta --point=-1.25,0.75 --format json":
        "c6e2e5c563cfc48adb480176c2227a109215ff02b9de9d64ad78aa44479fa65a",
    "scalar --chart theta --point=-1.25,0.75 --format json":
        "78294a1309e266066032258999aafed9aeba09d3e78fe77703eb4a864285f423",
    "transform --chart theta --point=-1.25,0.75 --format json":
        "876ceee19f960b5414d3762ffd456b8d158391afb1c3ccd2543d045a4d9bf783",
    "metric --chart xi --point=0.5,2.5 --format json":
        "1e1c88a12b19f658bade7bd85ecba75ea73efe8dec34555b958e7506bc284ff3",
    "christoffel --chart xi --point=0.5,2.5 --format json --connection levi_civita":
        "156a83ffc303a950d3e5c75714e0d567da87c498e74d98cf90031040e27bd17a",
    "torsion --chart xi --point=0.5,2.5 --format json --connection levi_civita":
        "1c8ec97e4ac36e1f0a56a89c54fcbf8c60a463757187d12c17b917e64f478441",
    "christoffel --chart xi --point=0.5,2.5 --format json --connection expectation":
        "8ffe4622a9724069febd1a1662395c4a9ea2b073f04ebfd79d840e51f6fe6293",
    "torsion --chart xi --point=0.5,2.5 --format json --connection expectation":
        "1c8ec97e4ac36e1f0a56a89c54fcbf8c60a463757187d12c17b917e64f478441",
    "curvature --chart xi --point=0.5,2.5 --format json":
        "530dfa94573915a06d3ee0eef618ac3d6d6208f462ae2f8a41839fef0f703d0b",
    "scalar --chart xi --point=0.5,2.5 --format json":
        "05e7eccf88841951a37fc6b837457608a75f9057b6fc3dc6eb7afef4d1454829",
    "transform --chart xi --point=0.5,2.5 --format json":
        "210499414a9dccf38428666a08f32f131b931af29a8b08552169fc0fccfd44bb",
    "metric --chart xi --point=-1,3 --format json":
        "b3eae8ce12262360a3d55cef46bd8086d48b58242f0c7e79d84b4dc46fd9fabb",
    "christoffel --chart xi --point=-1,3 --format json --connection levi_civita":
        "fa9aa5de718336a141c93c633a85ce191ddf114fcf0661b9b43eedfd39c0d411",
    "torsion --chart xi --point=-1,3 --format json --connection levi_civita":
        "93823fb611457cca064bacad111215bae40c68272b1d8e4aa2009ae0d0d626f4",
    "christoffel --chart xi --point=-1,3 --format json --connection expectation":
        "f1575aa918531f0e7d25c0db537a6e3cb0a975ac63629a327577236653034898",
    "torsion --chart xi --point=-1,3 --format json --connection expectation":
        "93823fb611457cca064bacad111215bae40c68272b1d8e4aa2009ae0d0d626f4",
    "curvature --chart xi --point=-1,3 --format json":
        "e287dc327d175c30c057dc161d571f14e0783c15ddbb3103b20ff08300747db8",
    "scalar --chart xi --point=-1,3 --format json":
        "72513f03d23ce43bb9f0216fb256604b69582143f4c862075f90874a82a0a327",
    "transform --chart xi --point=-1,3 --format json":
        "325f1548889248a00c7c80a129b3ae7690cd5f87f695508cef9e408bfefca60d",
    "audit --point=0.5,1.5 --format json":
        "63b2905010713a2b0feb2067d010df4b5607b98cb4d05bd9c8679d784a53ea85",
    "audit --point=0.5,1.5 --format csv":
        "b58b17cb806c59c2a97d272db9a99c09ef6265647601b789f0f36b03f5340536",
    "audit --point=-1.25,0.75 --format json":
        "b6e6ef993dc667e5b590e0a38e74690fd51d590263357c70c44fe191689398bb",
    "audit --point=-1.25,0.75 --format csv":
        "6229edf1b33fac4919ce6d7dc55f952a71c3beae6f1f2f8d27586ceacf489cb0",
    "selftest --format json":
        "9684e88d0aeb03c754362c6695ab07b450fb285b1d1b116f3c5e805e73922f44",
    "metric --chart theta --grid=-0.5:0.5:2,1:1.5:2 --format json --engine gauss_hermite:64":
        "bddbdc685662866a2995f5b6aa2f048096bd89c36a739feb5d4a9ba9b4b400a7",
    "christoffel --chart theta --grid=-0.5:0.5:2,1:1.5:2 --format json --engine gauss_hermite:64 --connection expectation":
        "bf073c1bd1b33e77da7739386369274c1eae67f1ec2e0ed11de04244510866d5",
    "metric --chart xi --grid=-0.5:0.5:2,2:3:2 --format json --engine gauss_hermite:64":
        "d3fddb1f751ad19ce649307f8772ccddfdc8cdb65aeccdbb0dcb403eda68bade",
    "christoffel --chart xi --grid=-0.5:0.5:2,2:3:2 --format json --engine gauss_hermite:64 --connection expectation":
        "052888c4a5ef07a8fdaec775cb559011472578b04f59e80f449f201f715c6233",
    "metric --chart theta --grid=-0.5:0.5:2,1:1.5:2 --format json --engine monte_carlo:200000:7":
        "cb5412a2399211f4634695e5ef7d8d4f34494d6cc8f1b03df05668940b725e10",
    "christoffel --chart theta --grid=-0.5:0.5:2,1:1.5:2 --format json --engine monte_carlo:200000:7 --connection expectation":
        "b4786283d9fe7b9c9a335ea653ab04bb98b6368ae97889e22db4f7de2f1bdf7c",
    "metric --chart xi --grid=-0.5:0.5:2,2:3:2 --format json --engine monte_carlo:200000:7":
        "5867eb77d9d483f609103a73fdb633c62d28eef70bbc813b8973c69a83124b0d",
    "christoffel --chart xi --grid=-0.5:0.5:2,2:3:2 --format json --engine monte_carlo:200000:7 --connection expectation":
        "ea1ab4765dc5db20c249bf39e041335b2ee110abf19a0e73c1da5b3258b16ccb",
    "metric --chart theta --grid=-1:1:3,0.5:2:3 --format json":
        "b6f84049ef0e27fcf83faa7638de86aa310e0e1854ab013254e384bdbd5bc423",
    "metric --chart theta --grid=-1:1:3,0.5:2:3 --format text":
        "680a733d2d0ea55634465aefc2e2440f479c286f915adf37b5fd1038c31864c7",
    "christoffel --chart theta --grid=-1:1:3,0.5:2:3 --format json --connection levi_civita":
        "8fb57b5ac51e07f279e85ad1582681db9af8cfbb9cd46cc1f8817feaf9bd064b",
    "christoffel --chart theta --grid=-1:1:3,0.5:2:3 --format text --connection levi_civita":
        "ca8611ccb4afbdbcc7f358940c8b42126add896d0d7a849f9a8b819a5a46f588",
    "torsion --chart theta --grid=-1:1:3,0.5:2:3 --format json --connection levi_civita":
        "5226f8da3eea74cf584cf142a989b35f7ee70ed6aea0cdbb9e6c2ba2c0846ffa",
    "torsion --chart theta --grid=-1:1:3,0.5:2:3 --format text --connection levi_civita":
        "fdcb3ed397ffdc393ecbf0fc2aaba953069665c05e61e02baf0fa94b4096a64a",
    "curvature --chart theta --grid=-1:1:3,0.5:2:3 --format json":
        "817782c0cd5cf389f5f55cbd9674ec6b3ad6962769710b7d9942fa0851050858",
    "curvature --chart theta --grid=-1:1:3,0.5:2:3 --format text":
        "a2881d59f026328ebe7dad60b64405f118353a6d8849fe89a4df8a1a1104a046",
    "scalar --chart theta --grid=-1:1:3,0.5:2:3 --format json":
        "9403991b6ce33b1e00b61ded5a0716961862b2c40a6a6c03c069cc5c043e5d1b",
    "scalar --chart theta --grid=-1:1:3,0.5:2:3 --format text":
        "3810657e4b075ea055cf25f8d7a8de6a9ef33bcb8a552eb70afe06c850f5e0d9",
    "metric --chart xi --grid=-1:1:3,2.5:4:3 --format json":
        "2c0916a5f7a32fe76379ce973d2ccbb050956dac4a2371b8c1302858e1f461e9",
    "metric --chart xi --grid=-1:1:3,2.5:4:3 --format text":
        "e4ee7c4c5d2b4e73f32639a77a7f11d3df7df9bde377bebc90d4a82648021826",
    "christoffel --chart xi --grid=-1:1:3,2.5:4:3 --format json --connection levi_civita":
        "5cfd9a907abb5d7585b8f909f12f219a8f6f26fa41be9705fe9b45dfe9fcb6e5",
    "christoffel --chart xi --grid=-1:1:3,2.5:4:3 --format text --connection levi_civita":
        "a11230f48a9b8f6e485cb2fcbce292c45e3d14f7cbdde9c297e2a594ea4435c3",
    "torsion --chart xi --grid=-1:1:3,2.5:4:3 --format json --connection levi_civita":
        "2ef66501ca04c569b2f01c565020f226ac54d0de5f624829214252131074e171",
    "torsion --chart xi --grid=-1:1:3,2.5:4:3 --format text --connection levi_civita":
        "0d94e5696226ec2d7c08ecaece5f1098dc8b28d4ba5f9cf0c1bf06f06396b45c",
    "curvature --chart xi --grid=-1:1:3,2.5:4:3 --format json":
        "8331c5924dcb09e501b74a27ef68238e5b309d4c307965c0841fac42b154cc32",
    "curvature --chart xi --grid=-1:1:3,2.5:4:3 --format text":
        "eaaa931a7b5781c6e1127d687f5565ed6bb6e6cbee24583b1db092b1ae1ed7fa",
    "scalar --chart xi --grid=-1:1:3,2.5:4:3 --format json":
        "4158ef0f3f31262151c8181c582d76dbfa129d62afb35a3c5036c1341c4e05b0",
    "scalar --chart xi --grid=-1:1:3,2.5:4:3 --format text":
        "33cbe4c35947a127fe95739a6c6869df44be8a7230dc7208fb8d251401c5b8b0",
    "transform --chart theta --grid=-1:1:3,0.5:2:3 --format json":
        "783e087fd64a1577ed99c553676c314e5dc51ec7923774f710af3132e9845c85",
    "christoffel --chart theta --grid=-1:1:3,0.5:2:3 --format json --connection expectation":
        "315c55efcaaaef2c3a398373fc5ff584919778a3afc04c6d048d7f2379b5652c",
    "torsion --chart theta --grid=-1:1:3,0.5:2:3 --format json --connection expectation":
        "5226f8da3eea74cf584cf142a989b35f7ee70ed6aea0cdbb9e6c2ba2c0846ffa",
    "transform --chart theta --grid=-1:1:3,0.5:2:3 --format text":
        "518c304cf47c26aa9dd1ec7c3ba1d8435daf807434d4726103a8ce49467a0b4e",
    "christoffel --chart theta --grid=-1:1:3,0.5:2:3 --format text --connection expectation":
        "ab9d1a2c500ab258e8dd56c800db72c9ecbbce705c0cbee121af2215d1825b61",
    "torsion --chart theta --grid=-1:1:3,0.5:2:3 --format text --connection expectation":
        "fdcb3ed397ffdc393ecbf0fc2aaba953069665c05e61e02baf0fa94b4096a64a",
    "transform --chart xi --grid=-1:1:3,2.5:4:3 --format json":
        "b7fd3c13db64048f935a60a9de0e010f254cee97dec300a7c37b3af01cac0c5b",
    "christoffel --chart xi --grid=-1:1:3,2.5:4:3 --format json --connection expectation":
        "17040f6b63014ca20059b6cd012b9d459d111f4bbc21cbffb8e8cc59222d4528",
    "torsion --chart xi --grid=-1:1:3,2.5:4:3 --format json --connection expectation":
        "2ef66501ca04c569b2f01c565020f226ac54d0de5f624829214252131074e171",
    "transform --chart xi --grid=-1:1:3,2.5:4:3 --format text":
        "43a6f61c72fe4d5f6a6204fce8be094428671be3b483135f09ebdc0dc34bbc8d",
    "christoffel --chart xi --grid=-1:1:3,2.5:4:3 --format text --connection expectation":
        "423ed85148c71ffc5a0bbb483fac8fe1b04a52c606199f3f2e3ab899ae8ebd73",
    "torsion --chart xi --grid=-1:1:3,2.5:4:3 --format text --connection expectation":
        "0d94e5696226ec2d7c08ecaece5f1098dc8b28d4ba5f9cf0c1bf06f06396b45c",
    "audit --grid=-1:1:3,0.5:2:3 --format json":
        "8d100501afc8d67ed41792c1b3677c43bd87d4baafeba45cdf998d2a2def4550",
    "audit --grid=-1:1:3,0.5:2:3 --format csv":
        "1da991bfdd0c34260973db245652aaf6fe9e5d5c6f5634b0ef53b6cfd1a2c40e",
    "audit --grid=-1:1:3,0.5:2:3 --format text":
        "5445aff83e222d44a6c41f97ee0e519dab3ac8613ac60d606335f99bfffc475c",
    "metric --chart theta --grid=-1:1:3,0.5:2:3 --format csv":
        "5d3cb419ad961d864e3c2df37d229a64f9b8755347391e8133a371c7d7632cea",
    "curvature --chart theta --grid=-1:1:3,0.5:2:3 --format csv":
        "10d3c77e64cb70e0e03e147acc718abe40c2776ae74f26c6787f381129a07d07",
    "transform --chart theta --grid=-1:1:3,0.5:2:3 --format csv":
        "f192cd27e596881b14a420472777721d504d2a426d6391cd0090818b3dfc9cd3",
    "metric --chart xi --grid=-1:1:3,2.5:4:3 --format csv":
        "6f4787ecdacdcc33e48cd636b17a38c647a00f17ad38342c0622aaaaf490fd56",
    "curvature --chart xi --grid=-1:1:3,2.5:4:3 --format csv":
        "f63913252d60e4367ae22bad51736f8bde38efa78b078d68454b2e976c0d9ee2",
    "transform --chart xi --grid=-1:1:3,2.5:4:3 --format csv":
        "5602c34fb5e7efe27f760f5ee225c8fc26255214726674ca2e13167dad8f4472",
    "christoffel --chart theta --point=0.5,1.5 --format csv --engine gauss_hermite:16 --connection expectation":
        "f78cfd3bd1c45acec9d376176d125c7c6596043fc155d350fe11da5c70ce8531",
    "christoffel --chart xi --point=0.5,2.5 --format csv --engine gauss_hermite:16 --connection expectation":
        "c68a7c2a6bceb20bc1c8fe59009de18c3b9d26efb67fd7b20fc65e1a25899dd0",
    "torsion --chart xi --grid=-1:1:3,2.5:4:3 --format json --engine gauss_hermite:16 --connection expectation":
        "e79d420292b343e51bef378a7374f07db4956a09bd3f7b26fafe0fe3a157474b",
    "metric --chart theta --grid=-1:1:3,0.5:2:3 --format csv --engine monte_carlo:200000:7":
        "5ceca230e85a7fb8a1fbe6a4029c882694c7d88580db6ca8cd3b1893e3abf9c4",
    "christoffel --chart theta --connection expectation --engine monte_carlo:100003:5 --grid=-0.5:0.5:2,1:1.5:2 --format json":
        "fdca0906b460c9d75bcf895afb3f994a22c21bcb65acedc71bb756b8836db180",
    "metric --chart xi --engine monte_carlo:100003:5 --grid=-0.5:0.5:2,2:3:2 --format csv":
        "63951b680e87a272e97e510b4b61a44f2bb2880b25abcff30319646a34a06eab",
    "audit --grid=1:-0:2,1:2:2 --format json":
        "e24f4c7fe7c35d315fe31e8e49b2b0b22dfef7c4dfb2451bae2aba628790fcb3",
    "audit --grid=1:-0:2,1:2:2 --format csv":
        "ee0c42c9d86ec62d11707a4d54a7025f9ab397a00abc5912a79e43e1c3f6ceee",
    "audit --grid=1:-0:2,1:2:2 --format text":
        "9f4a887cfbbdcede25520f9af46009537d171133aebd10a2d92e536c7ed4ee3c",
    "metric --chart theta --grid=1:-0:2,1:2:2 --format json":
        "fa52a3445bb85a46ab18b2d4258377347f1028081b7faa3fa727a86e16f74f41",
    "metric --chart theta --grid=1:-0:2,1:2:2 --format csv":
        "7312e60041525610ed06e45a1ce9f9b2e3948962c346694db3380566b79e5978",
    "metric --grid=0.5:0.5:3,1:1:1 --format text":
        "ca4fcb7a9b0ec0fe5f5c799cd476dcf59fcd6a2c92232a7716bcff1ded56e673",
    "metric --grid=0:-0:2,1:1:1 --format text":
        "a445273c08782b92c4d4f2115232d9898071ba58e37b589da2625badb690fb91",
    "selftest --format text":
        "19a2767129cfa94b3d558fa2a5b07f28505e48bc077059255b8d515d1ca7282e",
    "selftest --format csv":
        "efabe086e7392462d96a650402eb52eb589326be9a8536cc9ff7c3be5f2dc397",
}


# argv -> (exit code, sha256 of stdout) for runs that exit non-zero with a report
PINNED_FAILING = {
    "audit --grid=-1:1:3,0.5:2:3 --format csv --strict":
        (3, "1da991bfdd0c34260973db245652aaf6fe9e5d5c6f5634b0ef53b6cfd1a2c40e"),
}


class TestPinnedOutput:
    @pytest.mark.parametrize("argv", sorted(PINNED))
    def test_stdout_bytes(self, argv):
        code, out, _ = call(*argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED[argv]

    @pytest.mark.parametrize("argv", sorted(PINNED_FAILING))
    def test_failing_run_stdout_bytes(self, argv):
        code, out, _ = call(*argv.split())
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED_FAILING[argv]
