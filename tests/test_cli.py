"""CLI contract: records, formats, exit codes, determinism, env seed."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ])
    def test_input(self, argv, code, words):
        got, out, err = call(*argv)
        assert got == code
        assert words in err
        assert "Traceback" not in err and out == ""

    def test_non_integer_env_seed_is_usage_error(self, monkeypatch):
        monkeypatch.setenv("IGEO_SEED", "abc")
        got, _, err = call("metric", "--point", "0,1", "--engine", "monte_carlo:1000")
        assert got == 64 and "IGEO_SEED" in err


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


# sha256 of stdout for closed-form runs at two points per chart; a change that
# restructures the CLI or the library must keep every byte
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
}


class TestPinnedOutput:
    @pytest.mark.parametrize("argv", sorted(PINNED))
    def test_stdout_bytes(self, argv):
        code, out, _ = call(*argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED[argv]
