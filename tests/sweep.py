"""Parent-vs-change sweep of the command line: one deterministic corpus of
requests through ``igeo.cli.main`` in two source trees.

    python tests/sweep.py --quick                 # HEAD's src/ against the working tree's
    python tests/sweep.py --rev <rev> [--seed N]  # the full corpus against <rev>
    python tests/sweep.py --quick --change-src DIR

The parent's ``src/`` comes from ``git archive <rev> src``, unpacked into a
temporary directory; the change's is the working tree's unless
``--change-src`` names another.  That is how a mutant is checked: a copy of
``src/`` outside the repository with one deliberate fault must differ.  Each
side runs in its own subprocess with its ``src/`` first on ``sys.path`` and
``IGEO_SEED`` set alike, calls ``cli.main`` in process for each request in
order, and writes one line per request: its argv, exit code, the sha256 of its
stdout, and its stderr.  The report counts the requests by family and by exit
code and prints the first SHOW differing requests in full; the exit status is 1
when any request differs.

The corpus is built from ``--seed`` alone.  ``--quick`` (3,207 requests) runs
in a few seconds a side; the full corpus repeats the per-point family at 150
seeded points a combination, draws ten times the extreme points, and runs each
edge point under a Monte Carlo draw of many leaves too (35,733 requests).  pytest
does not collect this file; ``test_sweep.py`` tests the harness, and pins the
``digest`` of the quick corpus's outcomes.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED_ENV = "11"  # IGEO_SEED on both sides, so that monte_carlo[:samples] is reproducible
SHOW = 10  # differing requests printed in full

# command -> its option variants; every command but audit takes --chart, and
# every one but transform and audit takes --engine
VARIANTS = {
    "metric": ((),),
    "christoffel": (("--connection=levi_civita",), ("--connection=expectation",)),
    "torsion": (("--connection=levi_civita",), ("--connection=expectation",)),
    "curvature": ((),),
    "scalar": ((),),
    "transform": ((),),
    "audit": ((),),
}
CHARTS = ("theta", "xi")
FORMATS = ("json", "csv", "text")
ENGINES = ("closed_form", "gauss_hermite:1", "gauss_hermite:8", "gauss_hermite:64",
           "gauss_hermite:300", "monte_carlo:1000:7", "monte_carlo:100003:5")
DEFAULT_ENGINES = ("gauss_hermite", "monte_carlo")  # 64 nodes; 10^6 samples at IGEO_SEED
GRID_ENGINES = ("closed_form", "gauss_hermite:8", "monte_carlo:1000:7")  # one per family
CLOSED_FORM_ONLY = ("closed_form", "gauss_hermite:8")  # the second is refused, exit 64
# sigma where sigma^3 or sigma^4 under- or overflows, and the ends of the doubles
EDGE_SIGMAS = (5e-324, 1e-200, 1e-155, 1e-154, 1e-103, 1e-102, 1e-77, 1e-76, 1e76, 1e77,
               1e102, 1e103, 1e154, 1e155, 1.7e308)
USAGE = (
    ("metric", "--point", "--"), ("metric", "--point=--"), ("metric", "--grid", "--"),
    ("metric", "--point=0,1", "--output="), ("metric", "--point=0,1", "--output=/nonexistent/x"),
    ("metric",), ("metric", "--point=0,1", "--grid=0:1:2,1:2:2"), ("metric", "--point=0"),
    ("metric", "--point=a,1"), ("metric", "--grid=0:1:0,1:2:2"), ("metric", "--grid=0:1,1:2:2"),
    ("metric", "--grid=0:1:2000,1:2:2000"), ("metric", "--grid=0:inf:3,1:2:2"),
    ("metric", "--grid=-1e308:1e308:3,1:2:2"), ("metric", "--point=nan,1"),
    ("metric", "--point=0,inf"), ("metric", "--point=0,-1"), ("metric", "--chart=xi", "--point=1,1"),
    ("metric", "--point=0,1", "--engine=gauss_hermite:0"),
    ("metric", "--point=0,1", "--engine=gauss_hermite:301"),
    ("metric", "--point=0,1", "--engine=gauss_hermite:x"),
    ("metric", "--point=0,1", "--engine=monte_carlo:99"),
    ("metric", "--point=0,1", "--engine=monte_carlo:1000:-1"),
    ("metric", "--point=0,1", "--engine=monte_carlo:1:2:3"),
    ("metric", "--point=0,1", "--engine=closed_form:1"), ("metric", "--point=0,1", "--engine=bogus"),
    ("metric", "--point=0,1", "--engine="), ("curvature", "--point=0,1", "--engine=gauss_hermite:8"),
    ("christoffel", "--point=0,1", "--engine=monte_carlo:1000:7"),
    ("audit", "--point=0,1", "--tol-rel=-1"), ("audit", "--point=0,1", "--tol-closed=nan"),
    ("audit", "--point=0,1", "--tol-derived=x"), ("audit", "--point=0,1", "--chart=xi"),
    ("transform", "--point=0,1", "--engine=closed_form"), ("bogus",), (),
    ("metric", "--help"), ("--version",), ("metric", "--point=0,1", "--format=yaml"),
)
AUDIT_OPTIONS = (("--strict",), ("--tol-closed=0", "--strict"), ("--tol-derived=1e-3",),
                 ("--tol-rel=0", "--tol-closed=1e-30", "--strict"))


def _theta(rng: random.Random) -> tuple[float, float]:
    return rng.uniform(-3.0, 3.0), rng.uniform(0.3, 3.0)


def _point(rng: random.Random, chart: str) -> str:
    mu, sigma = _theta(rng)
    c1, c2 = (mu, sigma) if chart == "theta" else (mu, mu * mu + sigma * sigma)
    return f"--point={c1!r},{c2!r}"


def _grid(rng: random.Random, chart: str, n1: int, n2: int) -> str:
    a, b = sorted(rng.uniform(-2.0, 2.0) for _ in range(2))
    lo, hi = sorted(rng.uniform(0.5, 2.0) for _ in range(2))
    if chart == "xi":  # c2 above every c1^2 of the grid
        lo, hi = lo + max(a * a, b * b), hi + max(a * a, b * b)
    return f"--grid={a!r}:{b!r}:{n1},{lo!r}:{hi!r}:{n2}"


def _extreme(rng: random.Random, chart: str) -> str:
    """A point with |c1| and sigma (xi: c2 - c1^2) from 1e-300 to 1e300, as in
    tests/conftest.py::extreme_points; c1^2 may overflow, which the CLI refuses."""
    c1 = rng.choice((-1.0, 1.0)) * 10.0 ** (300.0 * rng.uniform(-1.0, 1.0) ** 3)
    spread = 10.0 ** (300.0 * rng.uniform(-1.0, 1.0) ** 3)
    return f"--point={c1!r},{spread if chart == 'theta' else c1 * c1 + spread!r}"


def _each_variant():
    """(command, options, chart or None, engines) for every command variant; the
    engines are ENGINES, CLOSED_FORM_ONLY, or (None,) where --engine is not taken."""
    for command, variants in VARIANTS.items():
        for opts in variants:
            if command in ("transform", "audit"):
                engines = (None,)
            elif command in ("curvature", "scalar") or "--connection=levi_civita" in opts:
                engines = CLOSED_FORM_ONLY
            else:
                engines = ENGINES
            for chart in ((None,) if command == "audit" else CHARTS):
                yield command, opts, chart, engines


def _grid_engines(engines) -> list:
    return [e for e in engines if e in GRID_ENGINES] or [None]


def _argv(command, opts, chart, where, fmt, engine=None) -> tuple[str, ...]:
    return (command, *opts, *([f"--chart={chart}"] if chart else []), where,
            *([f"--engine={engine}"] if engine else []), f"--format={fmt}")


def corpus(seed: int = 0, quick: bool = False) -> list[tuple[str, tuple[str, ...]]]:
    """The (family, argv) requests of the sweep, in order; a function of seed and quick."""
    rng = random.Random(seed)
    out = []

    def add(family, argv):
        out.append((family, tuple(argv)))

    for _ in range(8 if quick else 150):
        for command, opts, chart, engines in _each_variant():
            for fmt in FORMATS:
                for engine in engines:
                    add("point", _argv(command, opts, chart, _point(rng, chart or "theta"),
                                       fmt, engine))
    for command, opts, chart, engines in _each_variant():
        if engines is ENGINES:
            for engine in DEFAULT_ENGINES:
                add("default_engine", _argv(command, opts, chart, _point(rng, chart), "json",
                                            engine))
    for command, opts, chart, engines in _each_variant():
        signed_zero = "--grid=-0.0:0.5:3,3:4:2" if chart == "xi" else "--grid=0.5:-0.0:3,1:2:2"
        for fmt in FORMATS:
            for engine in _grid_engines(engines):
                for where in (_grid(rng, chart or "theta", 3, 3), signed_zero):
                    add("grid", _argv(command, opts, chart, where, fmt, engine))
            # more points than one join of the JSON and CSV writers
            add("large_grid", _argv(command, opts, chart, _grid(rng, chart or "theta", 6, 7),
                                    fmt, engines[0]))
        if "gauss_hermite:8" in engines:
            add("large_grid", _argv(command, opts, chart, _grid(rng, chart, 5, 8), "json",
                                    "gauss_hermite:8"))
    for _ in range(40 if quick else 400):
        for command, opts, chart, engines in _each_variant():
            engine = "gauss_hermite:8" if opts == ("--connection=expectation",) else engines[0]
            add("extreme", _argv(command, opts, chart, _extreme(rng, chart or "theta"), "json",
                                 engine))
    for sigma in EDGE_SIGMAS:
        for mu in (0.0, -1.5):
            for command, opts, chart, engines in _each_variant():
                where = (f"--point={mu!r},{sigma!r}" if chart != "xi"
                         else f"--point={mu!r},{mu * mu + sigma * sigma!r}")
                add("edge", _argv(command, opts, chart, where, "json", engines[0]))
                if not quick and engines != (None,):  # a draw the engine sums in 16 leaves
                    add("edge_leaves", _argv(command, opts, chart, where, "json", ENGINES[-1]))
    failing = {"theta": ("--grid=0:1:3,1e-160:1:3", "--grid=-1e200:1e200:2,0.5:1:3",
                         "--grid=0:1:3,1e-300:1e-100:3"),
               "xi": ("--grid=0:1:3,1e-300:2:3", "--grid=0:1e-80:2,2e-160:1:3")}
    for command, opts, chart, engines in _each_variant():
        for where in failing[chart or "theta"]:
            for fmt in ("json", "text"):
                for engine in _grid_engines(engines):
                    add("failing_grid", _argv(command, opts, chart, where, fmt, engine))
    for extra in AUDIT_OPTIONS:
        for fmt in FORMATS:
            for where in (_point(rng, "theta"), _grid(rng, "theta", 3, 3)):
                add("audit", ("audit", where, *extra, f"--format={fmt}"))
    for fmt in ("json", "csv"):  # more floats than one segment of the column writer
        add("large_grid", ("audit", _grid(rng, "theta", 26, 26), f"--format={fmt}"))
    for fmt in FORMATS:
        add("selftest", ("selftest", f"--format={fmt}"))
    for argv in USAGE:
        add("usage", argv)
    return out


def outcomes(main, requests) -> list[dict]:
    """Each request's argv, exit code, stdout sha256 and stderr, from main(argv) in
    process; an exception that escapes main is recorded as its type and message."""
    lines = []
    for family, argv in requests:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except Exception as exc:  # a traceback breaks the CLI contract; record it
                code = f"{type(exc).__name__}: {exc}"
        lines.append({"family": family, "argv": list(argv), "code": code,
                      "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                      "stderr": err.getvalue()})
    return lines


def differences(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """The (parent, change) lines of the requests whose outcomes differ."""
    if [p["argv"] for p in parent] != [c["argv"] for c in change]:
        raise ValueError("the two sides ran different corpora")
    return [(p, c) for p, c in zip(parent, change) if p != c]


def digest(lines: list[dict]) -> str:
    """sha256 of each request's argv, exit code, stdout sha256 and stderr, in order."""
    return hashlib.sha256("".join(
        json.dumps([line["argv"], line["code"], line["stdout"], line["stderr"]]) + "\n"
        for line in lines).encode()).hexdigest()


def run_sides(requests, *srcs: Path) -> tuple[list[dict], ...]:
    """The outcomes of the requests in a subprocess per ``src/`` tree, all run at once."""
    env = {**os.environ, "IGEO_SEED": SEED_ENV}
    env.pop("PYTHONPATH", None)
    with tempfile.TemporaryDirectory() as tmp:
        corpus_file = Path(tmp, "corpus.json")
        corpus_file.write_text(json.dumps(requests))
        procs = [subprocess.Popen([sys.executable, __file__, "--side", str(src), str(corpus_file)],
                                  env=env, stdout=subprocess.PIPE, text=True)
                 for src in srcs]
        sides = [proc.communicate()[0] for proc in procs]
        for proc in procs:
            if proc.returncode:
                raise RuntimeError(f"a sweep side exited {proc.returncode}")
    return tuple([json.loads(line) for line in side.splitlines()] for side in sides)


def extract(rev: str, dest, *paths: str) -> None:
    """Unpack ``git archive <rev> <paths>`` into the directory dest."""
    archive = subprocess.run(["git", "archive", rev, *paths], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _side(src: str, corpus_file: str) -> None:
    sys.path.insert(0, src)
    from igeo import cli

    requests = json.loads(Path(corpus_file).read_text())
    for line in outcomes(cli.main, requests):
        print(json.dumps(line))


def _report(requests, parent, change) -> str:
    diffs = differences(parent, change)
    differing = collections.Counter(p["family"] for p, _ in diffs)
    lines = [f"{len(requests)} requests, {len(diffs)} differ"]
    for family, n in collections.Counter(f for f, _ in requests).items():
        codes = collections.Counter(str(c["code"]) for c in change if c["family"] == family)
        by_code = ", ".join(f"exit {code}: {k}" for code, k in sorted(codes.items()))
        lines.append(f"  {family}: {n} ({by_code}); {differing[family]} differ")
    codes = collections.Counter(str(c["code"]) for c in change)
    lines.append("  all: " + ", ".join(f"exit {code}: {k}" for code, k in sorted(codes.items())))
    for p, c in diffs[:SHOW]:
        lines.append(f"differs: {json.dumps(p['argv'])}")
        lines.append(f"  parent: {json.dumps({k: p[k] for k in ('code', 'stdout', 'stderr')})}")
        lines.append(f"  change: {json.dumps({k: c[k] for k in ('code', 'stdout', 'stderr')})}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--change-src", type=Path, default=ROOT / "src")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--side", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side:
        _side(*args.side)
        return 0
    requests = corpus(args.seed, args.quick)
    with tempfile.TemporaryDirectory() as tmp:
        extract(args.rev, tmp, "src")
        parent, change = run_sides(requests, Path(tmp, "src"), args.change_src)
    print(_report(requests, parent, change))
    return 1 if differences(parent, change) else 0


if __name__ == "__main__":
    sys.exit(main())
