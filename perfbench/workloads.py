"""Seeded request lists for the four benchmark workloads.

The program receives only the argv lists built here.  Natural-chart points are
drawn with mu in [-2, 2] and sigma in [0.3, 3]; dual-chart boxes are built from
natural-chart draws so that every grid point satisfies c2 - c1^2 >= sigma_lo^2.
Monte Carlo requests stay in sigma in [1, 2.5], the domain the test suite
checks its Monte Carlo gate on.  Options are passed as ``--opt=value``, which
argparse accepts for every sign.

This module imports nothing heavy: the worker builds its requests before it
starts the set-up clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MU = (-2.0, 2.0)
SIGMA = (0.3, 3.0)
MC_SIGMA = (1.0, 2.5)
DEFAULT_MC_SEED = 20260808  # the CLI's own default; a derived seed must differ


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    points: int  # evaluation points; a grid counts all of them


@dataclass(frozen=True)
class Workload:
    name: str
    requests: tuple[Request, ...]
    warmup: tuple[tuple[str, ...], ...]  # one single-point call per distinct command/engine
    reference: str  # the reference kernel that matches its work

    @property
    def points(self) -> int:
        return sum(r.points for r in self.requests)


def _span(rng: random.Random, lo: float, hi: float, min_width: float) -> tuple[float, float]:
    a = rng.uniform(lo, hi - min_width)
    return a, rng.uniform(a + min_width, hi)


def _theta_box(rng, sigma=SIGMA):
    (m1, m2), (s1, s2) = _span(rng, *MU, 0.5), _span(rng, *sigma, 0.2)
    return m1, m2, s1, s2


def _xi_box(rng, sigma=SIGMA):
    """A dual-chart box whose every point maps back to sigma in [sigma_lo, sigma_hi]."""
    m1, m2 = _span(rng, *MU, 0.5)
    max_sq = max(m1 * m1, m2 * m2)
    min_sq = 0.0 if m1 < 0.0 < m2 else min(m1 * m1, m2 * m2)
    s_lo = rng.uniform(sigma[0], sigma[0] + 0.2)
    lo = max_sq + s_lo * s_lo
    hi = rng.uniform(lo + 0.2, min_sq + sigma[1] ** 2)
    return m1, m2, lo, hi


def _grid(box, n: int) -> str:
    a, b, c, d = box
    return f"--grid={a!r}:{b!r}:{n},{c!r}:{d!r}:{n}"


def _theta_point(rng, sigma=SIGMA) -> tuple[float, float]:
    return rng.uniform(*MU), rng.uniform(*sigma)


def _xi_point(rng) -> tuple[float, float]:
    mu, s = _theta_point(rng)
    return mu, mu * mu + s * s


def _grid_request(cmd, opts, box, n) -> Request:
    return Request((cmd, *opts, _grid(box, n), "--format=json"), n * n)


def grid_curvature(rng, small):
    """Closed-form curvature and scalar on two 40x40 grids: the per-point jet,
    Christoffel and Riemann loop that batching targets; engines barely used."""
    n = 4 if small else 40
    return [
        _grid_request("curvature", ["--chart=xi"], _xi_box(rng), n),
        _grid_request("scalar", ["--chart=theta"], _theta_box(rng), n),
    ]


def engine_expectation(rng, small):
    """Expectation connection and metric by Monte Carlo (1e6 draws per entry,
    two (samples, seed) keys) and by Gauss-Hermite; geometry work is small."""
    n_mc, n_gh = (1, 3) if small else (2, 20)
    mc_seed = DEFAULT_MC_SEED
    while mc_seed == DEFAULT_MC_SEED:
        mc_seed = rng.randrange(1, 2**31)
    return [
        _grid_request("christoffel", ["--chart=theta", "--connection=expectation",
                                      "--engine=monte_carlo"], _theta_box(rng, MC_SIGMA), n_mc),
        _grid_request("metric", ["--chart=xi", f"--engine=monte_carlo:1000000:{mc_seed}"],
                      _xi_box(rng, MC_SIGMA), n_mc),
        _grid_request("christoffel", ["--chart=xi", "--connection=expectation",
                                      "--engine=gauss_hermite:64"], _xi_box(rng), n_gh),
    ]


def audit_serialise(rng, small):
    """The audit of one 20x20 grid as JSON and as CSV: record building and
    serialisation dominate."""
    n = 3 if small else 20
    grid = _grid(_theta_box(rng), n)
    return [Request(("audit", grid, f"--format={fmt}"), n * n) for fmt in ("json", "csv")]


# every (command, options) variant of point-mix; the mix is fixed, only points
# and order come from the seed, so the work per pass does not vary with it
_GH = "--engine=gauss_hermite:64"
_CONNECTIONS = (("--connection=levi_civita",), ("--connection=expectation",),
                ("--connection=expectation", _GH))
_VARIANTS = {
    "metric": ((), (_GH,)),
    "christoffel": _CONNECTIONS,
    "torsion": _CONNECTIONS,
    "curvature": ((),),
    "scalar": ((),),
    "transform": ((),),
    "audit": ((),),
}


def point_mix(rng, small):
    """1500 single-point requests over all seven quantity commands in both
    charts: the fixed per-request cost (parser, validation, records) dominates."""
    out = []
    for i in range(40 if small else 1500):
        cmd = tuple(_VARIANTS)[i % len(_VARIANTS)]
        variants = _VARIANTS[cmd]
        opts = variants[(i // len(_VARIANTS)) % len(variants)]
        if cmd == "audit":
            c1, c2 = _theta_point(rng)
        else:
            chart = ("theta", "xi")[(i // (len(_VARIANTS) * len(variants))) % 2]
            c1, c2 = _theta_point(rng) if chart == "theta" else _xi_point(rng)
            opts = (f"--chart={chart}", *opts)
        out.append(Request((cmd, *opts, f"--point={c1!r},{c2!r}", "--format=json"), 1))
    rng.shuffle(out)
    return out


_BUILDERS = {
    "grid-curvature": grid_curvature,
    "engine-expectation": engine_expectation,
    "audit-serialise": audit_serialise,
    "point-mix": point_mix,
}
WORKLOADS = tuple(_BUILDERS)
# engine-expectation is bulk normal draws; the others are mostly interpreted Python
_REFERENCE = {"engine-expectation": "bulk"}


def _warmup(requests) -> tuple[tuple[str, ...], ...]:
    seen = {}
    for req in requests:
        key = tuple(a for a in req.argv if not a.startswith(("--point=", "--grid=")))
        if key not in seen:
            seen[key] = key + (_first_point(req.argv),)
    return tuple(seen.values())


def _first_point(argv) -> str:
    for a in argv:
        if a.startswith("--point="):
            return a
        if a.startswith("--grid="):
            ax1, ax2 = a[len("--grid="):].split(",")
            return f"--point={ax1.split(':')[0]},{ax2.split(':')[0]}"
    raise ValueError(f"request without a point: {argv}")


def _probe(rng):
    """Three single-point requests that between them enter every traced layer.

    They end every workload, so each per-layer time is measured on each
    workload rather than being zero by construction; they add a few
    milliseconds to a pass.
    """
    (mu, s), (x1, x2) = _theta_point(rng), _xi_point(rng)
    return [
        Request(("audit", f"--point={mu!r},{s!r}", "--format=json"), 1),
        Request(("metric", "--chart=xi", _GH, f"--point={x1!r},{x2!r}", "--format=json"), 1),
        Request(("curvature", "--chart=xi", f"--point={x1!r},{x2!r}", "--format=json"), 1),
    ]


def build(name: str, seed: int, small: bool = False) -> Workload:
    """The workload's fixed request list; the same seed gives the same list."""
    rng = random.Random(f"{name}:{seed}")
    requests = tuple(_BUILDERS[name](rng, small) + _probe(rng))
    return Workload(name, requests, _warmup(requests), _REFERENCE.get(name, "interp"))
