"""The Gaussian family: derivative kernels, expectation engines, charts.

The kernels give the scores and second partials of the log-likelihood
l(x) = -log(sqrt(2 pi) sigma) - (x - mu)^2 / (2 sigma^2) at the offsets x - mu,
and the engines integrate them.  Both are expressed in the natural chart (mu, sigma).
The dual chart stores (mu, mu^2 + sigma^2); `chart_forward`/`chart_backward`
convert explicitly.  `fisher_metric` and `expectation_connection` take a point
of either chart and answer in that chart.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import autodiff as ad
from .core import DEFAULT_TOLERANCES, Chart, DomainError, EngineError, ParamPoint
from .geometry import (
    ConnAt,
    MetricAt,
    MetricField,
    _first,
    _raise_index,
    evaluate_metric,
    levi_civita,
    riemann_levi_civita,
    torsion,
    transform_connection,
    transform_metric,
)

DEFAULT_MC_SEED = 20260808
# count limits: a larger request is a typo, not a computation.  numpy's
# hermgauss divides by zero from 371 nodes on (numpy 2.4), and each Monte Carlo
# draw keeps 8 bytes per sample resident in the draw cache.
MAX_GH_NODES = 300
MAX_MC_SAMPLES = 10_000_000
# Monte Carlo leaf: each temporary of 8,192 doubles (64 KB) stays in L2 and below
# glibc's 128 KB mmap threshold, so it is not page-faulted afresh on every operation
MC_LEAF = 1 << 13
# Gauss-Hermite block: at most 65,536 values (512 KB) per integrand array, so a
# 4,096-point block at 300 nodes is integrated in cuts of 218 points
GH_BLOCK_VALUES = 1 << 16


def _require_theta(p: ParamPoint) -> tuple[float, float]:
    if p.chart is not Chart.THETA:
        raise DomainError(f"operation expects a theta-chart point, got {p.chart}")
    return p.c1, p.c2


def _require_xi(p: ParamPoint) -> tuple[float, float]:
    if p.chart is not Chart.XI:
        raise DomainError(f"operation expects a xi-chart point, got {p.chart}")
    return p.c1, p.c2


# ---------------------------------------------------------------------------
# derivatives of the log-likelihood l
# ---------------------------------------------------------------------------

def _score_parts(z: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    """(d l/d mu, d l/d sigma) at the offsets z = x - mu."""
    return z / (s * s), -1.0 / s + z * z / ad._pow(s, 3)


def _hessian_parts(z: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct second partials (h11, h12, h22) of l at the offsets z = x - mu."""
    h11 = np.broadcast_to(-1.0 / (s * s), z.shape).copy()
    h12 = -2.0 * z / ad._pow(s, 3)
    h22 = 1.0 / (s * s) - 3.0 * z * z / ad._pow(s, 4)
    return h11, h12, h22


def _pullback_parts(z: np.ndarray, mu: float, s: float) -> tuple[np.ndarray, np.ndarray]:
    """(d l/d xi_1, d l/d xi_2) at the offsets z = x - mu."""
    s1, s2 = _score_parts(z, s)
    return s1 - (mu / s) * s2, s2 / (2.0 * s)


# ---------------------------------------------------------------------------
# expectation engines
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _hermgauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    return nodes, weights


@functools.lru_cache(maxsize=2)
def _standard_normals(samples: int, seed: int) -> np.ndarray:
    """The standard draw z of one (samples, seed); x = mu + sigma z at any point.

    Read-only, because every caller of the same key shares the one array.
    """
    z = np.random.default_rng(seed).standard_normal(samples)
    z.flags.writeable = False
    return z


def _each(values, reduce: Callable) -> Union[float, np.ndarray]:
    """reduce(values) for one integrand array; for an iterable of integrand
    arrays, the array of reduce(v), taking the arrays one at a time."""
    if isinstance(values, np.ndarray):
        return reduce(values)
    return np.array([reduce(v) for v in values])


@dataclass(frozen=True)
class ClosedForm:
    """Marker engine: use the analytic moments, no numerical expectation."""


@dataclass(frozen=True)
class GaussHermite:
    """Quadrature engine with substitution x = mu + sqrt(2) sigma t."""

    nodes: int = 64

    def __post_init__(self):
        if self.nodes < 1:
            raise EngineError(f"gauss-hermite needs at least 1 node, got {self.nodes}")
        if self.nodes > MAX_GH_NODES:
            raise EngineError(
                f"gauss-hermite takes at most {MAX_GH_NODES} nodes (MAX_GH_NODES), "
                f"got {self.nodes}"
            )

    def expect(self, f: Callable, p: ParamPoint) -> Union[float, np.ndarray]:
        """E[f(x)]: a float for one integrand array f(x), an array of floats
        for an iterable of them.

        At a block point, f takes x of shape block + (nodes,) and each float
        becomes an array over the block, the integrands on the last axis.
        """
        mu, s = _require_theta(p)
        t, w = _hermgauss(self.nodes)
        if not isinstance(mu, np.ndarray):  # a point: a block's array calls cost more per call
            x = mu + math.sqrt(2.0) * s * t
            # one dot per integrand: a stacked matrix-vector product rounds differently
            return _each(f(x), lambda v: float(np.asarray(v, dtype=float) @ w / math.sqrt(math.pi)))
        x = mu[..., None] + (math.sqrt(2.0) * s)[..., None] * t

        def rows(v):
            # a stack of (1, nodes) @ (nodes, 1) products: numpy takes each by the one
            # dot that row @ w takes at a point, so each mean keeps its bits
            v = np.asarray(v, dtype=float)
            return (v[..., None, :] @ w[:, None])[..., 0, 0] / math.sqrt(math.pi)

        means = _each(f(x), rows)
        return means if means.ndim == mu.ndim else np.moveaxis(means, 0, -1)


@dataclass(frozen=True)
class MonteCarlo:
    """Sample-mean engine; PCG64 + ziggurat normals, deterministic per (samples, seed)."""

    samples: int = 1_000_000
    seed: int = DEFAULT_MC_SEED

    def __post_init__(self):
        if self.samples < 100:
            raise EngineError(f"monte carlo needs at least 100 samples, got {self.samples}")
        if self.samples > MAX_MC_SAMPLES:
            raise EngineError(
                f"monte carlo takes at most {MAX_MC_SAMPLES} samples (MAX_MC_SAMPLES), "
                f"got {self.samples}"
            )
        if self.seed < 0:
            raise EngineError(f"monte carlo seed must be >= 0, got {self.seed}")

    def expect(self, f: Callable, p: ParamPoint) -> Union[float, np.ndarray]:
        """E[f(x)]: a float for one integrand array f(x), an array of floats
        for an iterable of them.  The draw is shared by every point and call.

        The sum walks numpy's pairwise tree over the draw (a node of n > 128
        values adds its halves split at n//2 - (n//2) % 8) and evaluates f on
        one leaf of at most MC_LEAF samples at a time, so each mean has the
        bits of np.mean(f(x)) over the whole draw.
        """
        mu, s = _require_theta(p)
        z = _standard_normals(self.samples, self.seed)

        def total(a: int, b: int, leaf: int = MC_LEAF):
            n = b - a
            if n <= leaf:
                return _each(f(mu + s * z[a:b]), lambda v: np.add.reduce(np.asarray(v, dtype=float)))
            half = n // 2 - n // 2 % 8
            return total(a, a + half, leaf) + total(a + half, b, leaf)

        try:
            sums = total(0, self.samples)
        except ArithmeticError:
            # a float error is raised again over the whole draw, so that it names the
            # operation that fails first there: an overflowing sum is "reduce", not "add"
            sums = total(0, self.samples, leaf=self.samples)
        mean = sums / self.samples
        return float(mean) if np.ndim(mean) == 0 else mean


Engine = Union[ClosedForm, GaussHermite, MonteCarlo]


# ---------------------------------------------------------------------------
# Fisher metric and expectation connection
# ---------------------------------------------------------------------------

def _engine_means(engine: Engine, integrands: Callable, p: ParamPoint,
                  metric: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """E[integrands(x - mu, mu, sigma)] at the theta coordinates of a point, block
    axes first; ``metric(means)`` picks the metric entries (g11, g12, g22).

    A GaussHermite engine integrates a block in one ``expect`` call per cut of at
    most GH_BLOCK_VALUES // nodes points, and the caller's metric check names its
    first failing point.  Any other engine integrates one point per call, in
    order, with its float coordinates, and a block stops at its first point
    whose metric fails the MetricAt check, with that error.
    """
    th = p if p.chart is Chart.THETA else chart_backward(p)

    def at(q: ParamPoint):
        mu, s = q.c1, q.c2
        if isinstance(mu, np.ndarray):  # a cut of a block: one row of nodes per point
            mu, s = mu[..., None], s[..., None]
        return engine.expect(lambda x: integrands(x - mu, mu, s), q)

    if not np.ndim(p.c1):
        return at(th)
    block = np.shape(p.c1)
    if type(engine) is GaussHermite:  # exactly: a wrapped engine is passed single points
        c1, c2 = (np.ravel(c) for c in np.broadcast_arrays(th.c1, th.c2))
        cut = max(1, GH_BLOCK_VALUES // engine.nodes)
        return np.concatenate([at(ParamPoint.theta(c1[i:i + cut], c2[i:i + cut]))
                               for i in range(0, c1.size, cut)]).reshape(block + (-1,))
    out = []
    for i in np.ndindex(block):
        out.append(at(th.at(i)))
        g11, g12, g22 = metric(out[-1]).tolist()
        if not (g11 > 0.0 and 0.0 < g11 * g22 - g12 * g12 < math.inf):  # NaN fails too
            _metric_from_means(p.at(i), metric(out[-1]))  # raises what the block's check would
    return np.array(out).reshape(block + (-1,))


def _metric_from_means(p: ParamPoint, means: np.ndarray) -> MetricAt:
    """The metric whose distinct entries (g11, g12, g22) are means[..., 0:3]."""
    g11, g12, g22 = means[..., 0], means[..., 1], means[..., 2]
    return MetricAt.from_matrix(p, ad.batch_array([g11, g12, g12, g22], (2, 2)))


def fisher_metric_theta(p: ParamPoint, engine: Engine = ClosedForm()) -> MetricAt:
    """Fisher metric in the natural chart.

    Closed form diag(1/sigma^2, 2/sigma^2); quadrature and Monte Carlo
    engines evaluate -E[d_i d_j l] instead, as independent routes.
    """
    _require_theta(p)
    if isinstance(engine, ClosedForm):
        return evaluate_metric(fisher_metric_field(Chart.THETA), p)
    means = _engine_means(engine, lambda z, _, s: _hessian_parts(z, s), p, np.negative)
    return _metric_from_means(p, np.negative(means))


def conn_expectation_theta(p: ParamPoint, engine: Engine = ClosedForm()) -> ConnAt:
    """Expectation-form connection Gamma_ijk = E[d_i d_j l . d_k l].

    Closed form: Gamma_121 = Gamma_211 = -2/sigma^3, Gamma_222 = -6/sigma^3,
    all other components zero; at a block point, block axes come first.
    """
    mu, s = _require_theta(p)
    if isinstance(engine, ClosedForm):
        g121, g222 = -2.0 / ad._pow(s, 3), -6.0 / ad._pow(s, 3)
        lower = ad.batch_array([0.0, 0.0, g121, 0.0, g121, 0.0, 0.0, g222], (2, 2, 2))
        g_inv = fisher_metric_theta(p).g_inv
    else:
        def integrands(z, _, s):  # the distinct products h * score[k], one alive at a time; then h
            h = _hessian_parts(z, s)
            score = _score_parts(z, s)
            yield from (hij * sk for hij in h for sk in score)
            yield from h

        def metric(means):
            return -means[..., 6:]

        means = _engine_means(engine, integrands, p, metric)
        # (i, j, k) -> the mean of h_ij * score[k]; h21 is h12
        lower = means[..., [0, 1, 2, 3, 2, 3, 4, 5]].reshape(means.shape[:-1] + (2, 2, 2))
        g_inv = _metric_from_means(p, metric(means)).g_inv
    return ConnAt(point=p, lower=lower, mixed=_raise_index(g_inv, lower))


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def chart_forward(p: ParamPoint) -> ParamPoint:
    """(mu, sigma) -> (mu, mu^2 + sigma^2); DomainError names the first theta point
    where that overflows, or rounds to mu^2 and so leaves the xi domain."""
    mu, s = _require_theta(p)
    x2 = mu * mu + s * s
    finite = np.isfinite(x2)
    with np.errstate(over="ignore", invalid="ignore"):
        inside = finite & (x2 - mu * mu > 0.0)  # the test the xi chart applies to its points
    if not inside.all():
        at, bad = _first(p, ~inside)
        cause = "rounds to mu^2" if finite[at] else "overflows"
        raise DomainError(f"{bad} has no xi coordinates in double precision: "
                          f"mu^2 + sigma^2 {cause}")
    return ParamPoint.xi(mu, x2)


def chart_backward(q: ParamPoint) -> ParamPoint:
    """(x1, x2) -> (x1, sqrt(x2 - x1^2)); the positive root, sigma > 0."""
    x1, x2 = _require_xi(q)
    return ParamPoint.theta(x1, ad.sqrt(x2 - x1 * x1))


def jacobian(p: ParamPoint) -> tuple[np.ndarray, np.ndarray]:
    """Forward Jacobian [[1, 0], [2 mu, 2 sigma]] and its inverse, block axes first.

    Rows of the Jacobian are dual-chart components, columns natural ones;
    the inverse holds d theta_i / d xi_a with natural components as rows.
    """
    mu, s = _require_theta(p)
    jac = ad.batch_array([1.0, 0.0, 2.0 * mu, 2.0 * s], (2, 2))
    jac_inv = ad.batch_array([1.0, 0.0, -mu / s, 1.0 / (2.0 * s)], (2, 2))
    return jac, jac_inv


def chart_second_derivatives(p: ParamPoint) -> np.ndarray:
    """sd[..., m, a, b] = d^2 theta_m / d xi_a d xi_b at the point, via Dual2.

    theta_1 is linear in xi, so only the sigma row is nonzero.
    """
    x1, x2 = ad.lift(chart_forward(p))
    sigma = ad.sqrt(x2 - x1 * x1)
    return ad.batch_array([0.0] * 4 + [sigma.h11, sigma.h12, sigma.h12, sigma.h22], (2, 2, 2))


def fisher_metric_field(chart: Chart) -> MetricField:
    """Differentiable Fisher metric field for either chart.

    The natural-chart field is the closed form.  The dual-chart field pulls
    the natural one back through the chart map (square root and all), so it
    shares no algebra with any hand-written dual-chart formula.
    """
    if chart is Chart.THETA:
        def theta_field(m, s):
            return [[1.0 / (s * s), 0.0], [0.0, 2.0 / (s * s)]]

        return theta_field

    def xi_field(x1, x2):
        s2 = x2 - x1 * x1
        sigma = ad.sqrt(s2)
        bbar = (
            (1.0, -x1 / sigma),              # d theta_i / d xi_1
            (0.0, 1.0 / (2.0 * sigma)),      # d theta_i / d xi_2
        )
        gth = ((1.0 / s2, 0.0), (0.0, 2.0 / s2))
        return [
            [
                sum(bbar[a][i] * bbar[b][j] * gth[i][j] for i in (0, 1) for j in (0, 1))
                for b in (0, 1)
            ]
            for a in (0, 1)
        ]

    return xi_field


# ---------------------------------------------------------------------------
# either chart
# ---------------------------------------------------------------------------

def fisher_metric(p: ParamPoint, engine: Engine = ClosedForm()) -> MetricAt:
    """Fisher metric in the chart of the point.

    Natural chart: `fisher_metric_theta`.  Dual chart: the closed form
    evaluates `fisher_metric_field`; the other engines take the outer product
    E[s_a s_b] of the chain-rule scores `_pullback_parts`.
    """
    if p.chart is Chart.THETA:
        return fisher_metric_theta(p, engine)
    if isinstance(engine, ClosedForm):
        return evaluate_metric(fisher_metric_field(Chart.XI), p)

    def products(z, mu, s):
        s1, s2 = _pullback_parts(z, mu, s)
        return (u * v for u, v in ((s1, s1), (s1, s2), (s2, s2)))

    return _metric_from_means(p, _engine_means(engine, products, p, lambda means: means))


def expectation_connection(p: ParamPoint, engine: Engine = ClosedForm()) -> ConnAt:
    """Expectation-form connection in the chart of the point.

    Dual chart: `conn_expectation_theta` moved by the proper (inhomogeneous)
    connection law, never by the tensor law.
    """
    if p.chart is Chart.THETA:
        return conn_expectation_theta(p, engine)
    th = chart_backward(p)
    jac, jac_inv = jacobian(th)
    return transform_connection(
        conn_expectation_theta(th, engine), jac, jac_inv,
        chart_second_derivatives(th), fisher_metric_theta(th), p,
    )


def selftest_checks() -> list[tuple[str, float, float]]:
    """Quick internal consistency checks as (name, residual, bound) triples."""
    tol = DEFAULT_TOLERANCES
    checks: list[tuple[str, float, float]] = []

    worst = 0.0
    for mu in (-2.0, 0.0, 1.5):
        for s in (0.3, 1.0, 4.0):
            p = ParamPoint.theta(mu, s)
            back = chart_backward(chart_forward(p))
            worst = max(worst, abs(back.c1 - mu), abs(back.c2 - s))
            jac, jac_inv = jacobian(p)
            worst_j = float(np.max(np.abs(jac @ jac_inv - np.eye(2))))
            checks.append((f"jacobian_inverse(mu={mu},sigma={s})", worst_j, 1e-14))
    checks.append(("chart_round_trip", worst, 1e-12))

    p = ParamPoint.theta(0.7, 1.3)
    gh = GaussHermite(64)
    checks.append(("gauss_hermite_normalisation",
                   abs(gh.expect(lambda x: np.ones_like(x), p) - 1.0), 1e-12))

    for chart in (Chart.THETA, Chart.XI):
        q = p if chart is Chart.THETA else chart_forward(p)
        conn = levi_civita(fisher_metric_field(chart), q)
        checks.append((f"levi_civita_torsion_{chart}",
                       float(np.max(np.abs(torsion(conn).t))), 0.0))
        riem = riemann_levi_civita(fisher_metric_field(chart), q)
        checks.append((f"scalar_curvature_{chart}", abs(riem.scalar + 0.5), tol.derived_abs))

    def sphere_field(c1, c2):
        s = ad.sin(c1)
        return [[1.0, 0.0], [0.0, s * s]]

    riem = riemann_levi_civita(sphere_field, ParamPoint.theta(math.pi / 3, 1.0))
    checks.append(("sphere_scalar_curvature", abs(riem.scalar - 1.0), tol.derived_abs))

    jac, jac_inv = jacobian(p)
    m_th = fisher_metric_theta(p)
    m_xi = transform_metric(m_th, jac_inv, chart_forward(p))
    det_j = float(np.linalg.det(jac))
    checks.append(("metric_det_transform",
                   abs(m_xi.det - m_th.det / det_j**2), tol.closed_form_abs))
    return checks
