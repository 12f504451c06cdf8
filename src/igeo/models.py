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
    _roll_axes,
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
# Monte Carlo leaf: each integrand row of 8,192 doubles is 64 KB, so a leaf's stack of
# k rows (576 KB for the connection's nine) stays in L2
MC_LEAF = 1 << 13
# Gauss-Hermite block: at most 65,536 values (512 KB) per integrand array, so a
# 4,096-point block at 300 nodes is integrated in cuts of 218 points
GH_BLOCK_VALUES = 1 << 16


def _require(p: ParamPoint, chart: Chart) -> tuple[float, float]:
    if p.chart is not chart:
        raise DomainError(f"operation expects a {chart}-chart point, got {p.chart}")
    return p.c1, p.c2


# ---------------------------------------------------------------------------
# derivatives of the log-likelihood l
# ---------------------------------------------------------------------------

def _score_parts(z, s) -> np.ndarray:
    """(d l/d mu, d l/d sigma) at the offsets z = x - mu, stacked on a leading axis."""
    # the operations of z / s^2 and -1/s + z^2 / s^3, in place but in their order,
    # so every value and every float error stays the same
    out = np.empty((2,) + np.shape(z))
    s1, s2 = out[0, ...], out[1, ...]  # views, 0-d ones too
    np.divide(z, s * s, out=s1)
    shift = -1.0 / s
    np.multiply(z, z, out=s2)
    s2 /= ad._pow(s, 3)
    s2 += shift
    return out


def _hessian_parts(z, s, out=None) -> np.ndarray:
    """The distinct second partials (h11, h12, h22) of l at the offsets z = x - mu,
    stacked on a leading axis, into ``out`` when given."""
    # -1/s^2, -2 z / s^3 and 1/s^2 - 3 z z / s^4, in place as _score_parts
    out = np.empty((3,) + np.shape(z)) if out is None else out
    h11, h12, h22 = out[0, ...], out[1, ...], out[2, ...]
    h11[...] = -1.0 / (s * s)
    np.multiply(z, -2.0, out=h12)
    h12 /= ad._pow(s, 3)
    shift = 1.0 / (s * s)
    np.multiply(z, 3.0, out=h22)
    h22 *= z
    h22 /= ad._pow(s, 4)
    np.subtract(shift, h22, out=h22)
    return out


def _pullback_parts(z, mu, s) -> np.ndarray:
    """(d l/d xi_1, d l/d xi_2) at the offsets z = x - mu, stacked on a leading axis."""
    # s1 - (mu / s) s2 and s2 / (2 s), in place as _score_parts
    out = _score_parts(z, s)
    s1, s2 = out[0, ...], out[1, ...]
    np.subtract(s1, np.multiply(mu / s, s2), out=s1)
    s2 /= 2.0 * s
    return out


# ---------------------------------------------------------------------------
# expectation engines
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _hermgauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.hermite.hermgauss(n)  # read here: numpy imports np.polynomial lazily


@functools.lru_cache(maxsize=2)
def _standard_normals(samples: int, seed: int) -> np.ndarray:
    """The standard draw z of one (samples, seed); x = mu + sigma z at any point.

    Read-only, because every caller of the same key shares the one array.
    """
    z = np.random.default_rng(seed).standard_normal(samples)
    z.flags.writeable = False
    return z


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
        """E[f(x)], f(x) read as a float64 array: a float for an integrand of x's
        shape, an array of floats for a stack of k integrands, f(x) of shape
        (k,) + x.shape, or a list of their k arrays, which numpy stacks.

        f takes x of shape block + (nodes,), and the means of a stack are one dot
        over its last axis, so a point is the shape-() block.  At a block, each
        float becomes an array over the block, the integrands on the last axis.  A
        block point keeps its bits alone when its integrand rows have the same
        stride in the block as at the point, as C-contiguous integrands do.
        """
        mu, s = _require(p, Chart.THETA)
        t, w = _hermgauss(self.nodes)
        # at a point sqrt(2) sigma is a float product, which does not trap, so a float
        # error names the array operation that follows it
        x = np.asarray(mu)[..., None] + np.asarray(math.sqrt(2.0) * s)[..., None] * t
        # np.vecdot takes each row by the dot that a 1-D v @ w takes, so a contiguous
        # row of a block keeps the bits of the point alone
        means = np.vecdot(np.asarray(f(x), dtype=float), w) / math.sqrt(math.pi)
        # the integrands' axis last; transpose costs far less per call than np.moveaxis
        return means if means.ndim == np.ndim(mu) else means.transpose(*range(1, means.ndim), 0)


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
        """E[f(x)], f(x) read as `GaussHermite.expect` reads it; all calls share the draw.

        The sum walks numpy's pairwise tree over the draw (a node of n > 128
        values adds its halves split at n//2 - (n//2) % 8) and evaluates f on
        one leaf of at most MC_LEAF samples at a time.  A leaf's stack is summed
        in one call over its last axis, which numpy takes row by row as it takes
        a 1-D array, so each mean has the bits of np.mean(f(x)) over the whole draw.
        A float error raises where the walk meets it: in a leaf, or adding two nodes' sums.
        """
        mu, s = _require(p, Chart.THETA)
        z = _standard_normals(self.samples, self.seed)

        def total(a: int, b: int):
            n = b - a
            if n <= MC_LEAF:
                x = s * z[a:b]
                x += mu  # in place: IEEE addition commutes, so x has the bits of mu + s * z
                return np.add.reduce(np.asarray(f(x), dtype=float), axis=-1)
            half = n // 2 - n // 2 % 8
            return total(a, a + half) + total(a + half, b)

        return total(0, self.samples) / self.samples


Engine = Union[ClosedForm, GaussHermite, MonteCarlo]


# ---------------------------------------------------------------------------
# Fisher metric and expectation connection
# ---------------------------------------------------------------------------

def integrates_blocks(engine: Engine) -> bool:
    """Whether the engine takes a block of points whole: the closed form, or exactly
    a GaussHermite.  Any other engine, a wrapped one too, integrates one point per call."""
    return isinstance(engine, ClosedForm) or type(engine) is GaussHermite


def _engine_means(engine: Engine, integrands: Callable, p: ParamPoint) -> np.ndarray:
    """E[integrands(x - mu, mu, sigma)] at the theta coordinates of a point, block axes first.

    An engine that `integrates_blocks`, here a GaussHermite, integrates a block in one
    ``expect`` call per cut of at most GH_BLOCK_VALUES // nodes points.  Any other
    engine integrates one point per call, in order, with its float coordinates.
    """
    th = p if p.chart is Chart.THETA else chart_backward(p)
    cut = max(1, GH_BLOCK_VALUES // engine.nodes) if integrates_blocks(engine) else 1

    def at(q: ParamPoint):
        mu, s = q.c1, q.c2
        if isinstance(mu, np.ndarray):  # a cut of a block: one row of nodes per point
            mu, s = mu[..., None], s[..., None]
        return engine.expect(lambda x: integrands(x - mu, mu, s), q)

    return np.concatenate([at(q) for q in th.points(cut)]).reshape(np.shape(p.c1) + (-1,))


def _metric_from_means(p: ParamPoint, means: np.ndarray) -> MetricAt:
    """The metric whose distinct entries (g11, g12, g22) are means[..., 0:3]."""
    g11, g12, g22 = means[..., 0], means[..., 1], means[..., 2]
    return MetricAt.from_matrix(p, ad.batch_array([g11, g12, g12, g22], (2, 2)))


def fisher_metric_theta(p: ParamPoint, engine: Engine = ClosedForm()) -> MetricAt:
    """Fisher metric in the natural chart.

    Closed form diag(1/sigma^2, 2/sigma^2); quadrature and Monte Carlo
    engines evaluate -E[d_i d_j l] instead, as independent routes.
    """
    _require(p, Chart.THETA)
    if isinstance(engine, ClosedForm):
        return evaluate_metric(fisher_metric_field(Chart.THETA), p)
    means = _engine_means(engine, lambda z, _, s: _hessian_parts(z, s), p)
    return _metric_from_means(p, np.negative(means))


def conn_expectation_theta(p: ParamPoint, engine: Engine = ClosedForm()) -> ConnAt:
    """Expectation-form connection Gamma_ijk = E[d_i d_j l . d_k l].

    Closed form: Gamma_121 = Gamma_211 = -2/sigma^3, Gamma_222 = -6/sigma^3,
    all other components zero; at a block point, block axes come first.
    """
    return _conn_expectation_theta(p, engine)[0]


def _closed_form_lower(s) -> np.ndarray:
    """The closed-form Gamma_ijk of `conn_expectation_theta` at sigma = s, block axes first."""
    g121, g222 = -2.0 / ad._pow(s, 3), -6.0 / ad._pow(s, 3)
    return ad.batch_array([0.0, 0.0, g121, 0.0, g121, 0.0, 0.0, g222], (2, 2, 2))


def _conn_expectation_theta(p: ParamPoint, engine: Engine) -> tuple[ConnAt, MetricAt | None]:
    """`conn_expectation_theta`, and the closed-form metric that raised its index; None
    under an engine, which raises it with the metric of its own means."""
    _, s = _require(p, Chart.THETA)
    metric = None
    if isinstance(engine, ClosedForm):
        lower = _closed_form_lower(s)
        metric = fisher_metric_theta(p)
        g_inv = metric.g_inv
    else:
        def integrands(z, _, s):  # the distinct products h_ij * score[k], then h
            out = np.empty((9,) + z.shape)
            h = _hessian_parts(z, s, out=out[6:])
            np.multiply(h[:, None], _score_parts(z, s), out=out[:6].reshape((3, 2) + z.shape))
            return out

        means = _engine_means(engine, integrands, p)
        # (i, j, k) -> the mean of h_ij * score[k]; h21 is h12
        lower = means[..., [0, 1, 2, 3, 2, 3, 4, 5]].reshape(means.shape[:-1] + (2, 2, 2))
        g_inv = _metric_from_means(p, -means[..., 6:]).g_inv
    mixed = _raise_index(_roll_axes(g_inv, 2), _roll_axes(lower, 3))
    return ConnAt._adopt(point=p, lower=lower, mixed=_roll_axes(mixed, -3)), metric


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def chart_forward(p: ParamPoint) -> ParamPoint:
    """(mu, sigma) -> (mu, mu^2 + sigma^2); DomainError names the first theta point
    where that overflows, or rounds to mu^2 and so leaves the xi domain."""
    mu, s = _require(p, Chart.THETA)
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
    x1, x2 = _require(q, Chart.XI)
    return ParamPoint.theta(x1, ad.sqrt(x2 - x1 * x1))


def jacobian(p: ParamPoint) -> tuple[np.ndarray, np.ndarray]:
    """Forward Jacobian [[1, 0], [2 mu, 2 sigma]] and its inverse, block axes first.

    Rows of the Jacobian are dual-chart components, columns natural ones;
    the inverse holds d theta_i / d xi_a with natural components as rows.
    """
    mu, s = _require(p, Chart.THETA)
    jac = ad.batch_array([1.0, 0.0, 2.0 * mu, 2.0 * s], (2, 2))
    jac_inv = ad.batch_array([1.0, 0.0, -mu / s, 1.0 / (2.0 * s)], (2, 2))
    return jac, jac_inv


def chart_second_derivatives(p: ParamPoint) -> np.ndarray:
    """sd[..., m, a, b] = d^2 theta_m / d xi_a d xi_b at a point of either chart, via Dual2.

    theta_1 is linear in xi, so only the sigma row is nonzero.
    """
    x1, x2 = ad.lift(p if p.chart is Chart.XI else chart_forward(p))
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
        # g_ab = sum_ij B_ai B_bj g_theta_ij, B_ai = d theta_i / d xi_a = ((1.0, b01), (0.0, b11))
        # and g_theta = diag(g00, g11), without the terms that are zero by construction:
        # 0.0 + is sum()'s zero start, and the unit factors stay, so each entry keeps the bits
        # of the full sum.  [1][0] repeats [0][1], whose place _field_entries reads it in.
        b01, b11, g00, g11 = -x1 / sigma, 1.0 / (2.0 * sigma), 1.0 / s2, 2.0 / s2
        e01 = 0.0 + b01 * b11 * g11
        return [[0.0 + 1.0 * 1.0 * g00 + b01 * b01 * g11, e01], [e01, 0.0 + b11 * b11 * g11]]

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

    def products(z, mu, s):  # s_1 s_1, s_1 s_2, then s_2 s_2
        s12 = _pullback_parts(z, mu, s)
        out = np.empty((3,) + z.shape)
        np.multiply(s12[0], s12, out=out[:2])
        np.multiply(s12[1], s12[1], out=out[2])
        return out

    return _metric_from_means(p, _engine_means(engine, products, p))


def expectation_connection(p: ParamPoint, engine: Engine = ClosedForm()) -> ConnAt:
    """Expectation-form connection in the chart of the point.

    Dual chart: `conn_expectation_theta` moved by the proper (inhomogeneous)
    connection law, never by the tensor law.
    """
    if p.chart is Chart.THETA:
        return conn_expectation_theta(p, engine)
    th = chart_backward(p)
    jac, jac_inv = jacobian(th)
    conn, metric = _conn_expectation_theta(th, engine)
    second_derivs = chart_second_derivatives(th)
    if metric is None:
        metric = fisher_metric_theta(th)
    return transform_connection(conn, jac, jac_inv, second_derivs, metric, p)


def _sigma_representatives(p: ParamPoint, engine: Engine) -> tuple[ParamPoint, np.ndarray] | None:
    """The closed-form natural-chart metric, connections and curvature depend on sigma
    alone (mu is a location parameter), so a block takes one value per distinct sigma:
    its first point at each, and the index that gathers the flat block from them.  None
    at a single point, in the xi chart and under an engine, whose nodes round with mu."""
    if type(p.c1) is float or p.chart is not Chart.THETA or not isinstance(engine, ClosedForm):
        return None
    s = p.c2.ravel()
    _, first, index = np.unique(s, return_index=True, return_inverse=True)
    return ParamPoint.theta(p.c1.ravel()[first], s[first]), index


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
