"""Independent oracles for the test suite.

Everything here is plain numpy: 5-point stencils, the (0,4)-tensor law as one
einsum, Gauss-Hermite quadrature by one 1-D dot per integrand, and the
derivatives of the Gaussian log-likelihood and of the dual potential written
out by hand.  None of it touches the package's kernels, and only ``log``, ``grad``
and ``hess`` touch its forward-mode machinery: ``log`` hands ``Dual2`` the chain
rule of log, for the tests that differentiate a log-likelihood, and the other two
read a ``Dual2``'s partials as arrays.  So derivative-based results always
have a second, unrelated computation path to compare against.

The last section is of another kind: the earlier forms of the kernels that were
rewritten to make fewer calls at a point or to loop over whole blocks (the
dual-chart metric field as the full pullback sum, index lowering by
``np.moveaxis``, the curvature summed over s in a loop, and with the block axes
first, the metric checks one reduction each), the audit composed from
``transform_connection`` and ``chart_second_derivatives``, and the engines'
integrands as fresh arrays, each made by its own expression and reduced alone.
They take each float operation in the order the package takes it, so the tests
ask the package for their bits.
The dual-chart field is differentiated by ``Dual2``, as the package's is.
"""

import functools
import math

import numpy as np

from igeo import (Chart, ConnAt, Dual2, SingularMetricError, chart_backward, chart_forward,
                  chart_second_derivatives, conn_expectation_theta, fisher_metric_field,
                  fisher_metric_theta, jacobian, torsion, transform_connection,
                  transform_lower_tensor3, transform_metric)
from igeo import models
from igeo import papertable as pt
from igeo.autodiff import _pow, batch_array, sqrt
from igeo.geometry import _levi_civita_and_riemann

H1 = 1e-6   # first-derivative step (5-point stencil, ~1e-12 truncation)
H2 = 1e-3   # second-derivative step (5-point stencil, ~1e-10 total error)


def fd1(f, x, i, h=H1):
    e = np.zeros(2)
    e[i] = h
    return (-f(*(x + 2 * e)) + 8 * f(*(x + e)) - 8 * f(*(x - e)) + f(*(x - 2 * e))) / (12 * h)


def fd2(f, x, i, j, h=H2):
    if i == j:
        e = np.zeros(2)
        e[i] = h
        return (-f(*(x + 2 * e)) + 16 * f(*(x + e)) - 30 * f(*x)
                + 16 * f(*(x - e)) - f(*(x - 2 * e))) / (12 * h * h)
    ei = np.zeros(2)
    ej = np.zeros(2)
    ei[i] = h
    ej[j] = h
    return (f(*(x + ei + ej)) - f(*(x + ei - ej))
            - f(*(x - ei + ej)) + f(*(x - ei - ej))) / (4 * h * h)


def gradient_fd(f, x, h=H1):
    x = np.asarray(x, dtype=float)
    return np.array([fd1(f, x, i, h) for i in range(2)])


def hessian_fd(f, x, h=H2):
    x = np.asarray(x, dtype=float)
    return np.array([[fd2(f, x, i, j, h) for j in range(2)] for i in range(2)])


def grad(d: Dual2) -> np.ndarray:
    """The first partials (g1, g2) of a Dual2, shape (..., 2), block axes first."""
    return batch_array((d.g1, d.g2), (2,))


def hess(d: Dual2) -> np.ndarray:
    """The Hessian of a Dual2, shape (..., 2, 2), block axes first."""
    return batch_array((d.h11, d.h12, d.h12, d.h22), (2, 2))


def christoffel_fd(metric_fn, x):
    """(g, g_inv, lower, mixed) with metric derivatives from stencils."""
    x = np.asarray(x, dtype=float)
    g = np.array(metric_fn(*x), dtype=float)
    ginv = np.linalg.inv(g)
    dg = np.zeros((2, 2, 2))
    for l in range(2):
        for i in range(2):
            for j in range(2):
                dg[l, i, j] = fd1(lambda a, b, i=i, j=j: np.array(metric_fn(a, b))[i, j], x, l)
    lower = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                lower[i, j, k] = 0.5 * (dg[i, j, k] + dg[j, i, k] - dg[k, i, j])
    mixed = np.einsum("km,ijm->kij", ginv, lower)
    return g, ginv, lower, mixed


def riemann_fd(metric_fn, x, h=1e-4):
    """Curvature array and scalar, with every derivative from stencils.

    Assembled as (d_i Gamma^s_jk - d_j Gamma^s_ik) g_sm
    + (Gamma_irm Gamma^r_jk - Gamma_jrm Gamma^r_ik), matching the package's
    index convention.
    """
    x = np.asarray(x, dtype=float)
    g, ginv, lower, mixed = christoffel_fd(metric_fn, x)
    dmixed = np.zeros((2, 2, 2, 2))
    for l in range(2):
        e = np.zeros(2)
        e[l] = h
        dmixed[l] = (christoffel_fd(metric_fn, x + e)[3]
                     - christoffel_fd(metric_fn, x - e)[3]) / (2 * h)
    return _assemble_riemann(g, ginv, lower, mixed, dmixed)


def riemann_connection_fd(conn_fn, metric_fn, x, h=1e-4):
    """Curvature of an arbitrary connection, assembled as in ``riemann_fd``.

    ``conn_fn(c1, c2)`` returns the (lower, mixed) coefficient arrays.  Their
    derivatives come from 5-point stencils, so this route shares nothing with
    the second-order Dual2 jet that ``riemann_levi_civita`` differentiates.
    """
    x = np.asarray(x, dtype=float)
    g = np.array(metric_fn(*x), dtype=float)
    lower, mixed = (np.asarray(a, dtype=float) for a in conn_fn(*x))
    dmixed = np.stack([fd1(lambda a, b: np.asarray(conn_fn(a, b)[1]), x, l, h)
                       for l in range(2)])
    return _assemble_riemann(g, np.linalg.inv(g), lower, mixed, dmixed)


def _assemble_riemann(g, ginv, lower, mixed, dmixed):
    r = np.zeros((2, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for m in range(2):
                    r[i, j, k, m] = sum(
                        (dmixed[i, s, j, k] - dmixed[j, s, i, k]) * g[s, m]
                        for s in range(2)
                    ) + sum(
                        lower[i, s, m] * mixed[s, j, k] - lower[j, s, m] * mixed[s, i, k]
                        for s in range(2)
                    )
    scalar = 0.5 * float(np.einsum("ijkm,im,jk->", r, ginv, ginv))
    return r, scalar


# -- reference metric functions (plain numpy, no package code) ---------------

def gaussian_theta_metric(mu, s):
    return np.array([[1.0 / s**2, 0.0], [0.0, 2.0 / s**2]])


def gaussian_xi_metric(x1, x2):
    """Pullback of the natural-chart metric through (mu, sigma) = (x1, sqrt(x2 - x1^2))."""
    s = np.sqrt(x2 - x1 * x1)
    jac_inv = np.array([[1.0, 0.0], [-x1 / s, 1.0 / (2.0 * s)]])
    return jac_inv.T @ gaussian_theta_metric(x1, s) @ jac_inv


def sphere_metric(polar, azimuth):
    return np.array([[1.0, 0.0], [0.0, np.sin(polar) ** 2]])


def euclidean_metric(a, b):
    return np.array([[1.0, 0.0], [0.0, 1.0]])


# -- dual potential of the Gaussian family (Amari & Nagaoka 2000, sections 3.3-3.5) ---
# In the expectation coordinates xi = (E[x], E[x^2]) the dual potential is the
# negative entropy phi(xi) = -1/2 log D - 1/2 (1 + log 2 pi), D = xi2 - xi1^2.  Its
# derivatives below are written out by hand, rational in D; elementwise over arrays.

def dual_potential(x1, x2):
    return -0.5 * np.log(x2 - x1 * x1) - 0.5 * (1.0 + np.log(2.0 * np.pi))


def dual_potential_grad(x1, x2):
    """d_i phi; by Legendre duality, the natural parameters (mu/sigma^2, -1/(2 sigma^2))."""
    d = x2 - x1 * x1
    return np.stack([x1 / d, -0.5 / d], axis=-1)


def dual_potential_hess(x1, x2):
    """d_i d_j phi, shape (..., 2, 2): the Fisher metric in xi."""
    d = x2 - x1 * x1
    h11, h12, h22 = 1.0 / d + 2.0 * x1 * x1 / d**2, -x1 / d**2, 0.5 / d**2
    return np.stack([np.stack([h11, h12], -1), np.stack([h12, h22], -1)], -2)


def dual_potential_third(x1, x2):
    """d_i d_j d_k phi, shape (..., 2, 2, 2): the e-connection's coefficients in xi."""
    d = x2 - x1 * x1
    t = {3: 6.0 * x1 / d**2 + 8.0 * x1**3 / d**3,   # keyed by the count of xi1 derivatives
         2: -1.0 / d**2 - 4.0 * x1 * x1 / d**3,
         1: 2.0 * x1 / d**3,
         0: -1.0 / d**3}
    return np.stack([t[(i == 0) + (j == 0) + (k == 0)]
                     for i in range(2) for j in range(2) for k in range(2)], -1
                    ).reshape(np.shape(d) + (2, 2, 2))


def log_partition(t1, t2):
    """psi(theta) of the natural parameters t = (mu/sigma^2, -1/(2 sigma^2))."""
    return -t1 * t1 / (4.0 * t2) - 0.5 * np.log(-2.0 * t2) + 0.5 * np.log(2.0 * np.pi)


def lower_tensor4_law(r, jac_inv):
    """(0,4)-tensor law r'_abcd = J_ia J_jb J_kc J_md r_ijkm, with J = jac_inv holding
    J[..., i, a] = d theta_i / d xi_a; block axes first."""
    return np.einsum("...ia,...jb,...kc,...md,...ijkm->...abcd",
                     jac_inv, jac_inv, jac_inv, jac_inv, r)


def hessian_riemann(g_inv, third):
    """r[i, j, k, m] = -1/4 g^pq (phi_jkp phi_imq - phi_ikp phi_jmq), the curvature of a
    Hessian metric's Levi-Civita connection, in this package's index convention."""
    return -0.25 * (np.einsum("...pq,...jkp,...imq->...ijkm", g_inv, third, third)
                    - np.einsum("...pq,...ikp,...jmq->...ijkm", g_inv, third, third))


# -- derivatives of the Gaussian log-likelihood, for the engine tests --------------
# l(x) = -(LOG_SQRT_2PI + log sigma) - (x - mu)^2 / (2 sigma^2), differentiated by hand,
# at one point (float mu and sigma).  Each formula takes its float operations in
# the order the package's kernels take them, so an engine that integrates it must
# give the kernels' bits: the engine tests ask for equality, not for a tolerance.

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def gaussian_hessian(x, mu, s):
    """((d2l/dmu2, d2l/dmu dsigma), (d2l/dsigma dmu, d2l/dsigma2)) at the samples x."""
    z = x - mu
    h11 = np.full_like(z, -1.0 / (s * s))
    h12 = -2.0 * z / s**3
    return (h11, h12), (h12, 1.0 / (s * s) - 3.0 * z * z / s**4)


def gaussian_score(x, mu, s):
    """(dl/dmu, dl/dsigma) at the samples x."""
    z = x - mu
    return z / (s * s), -1.0 / s + z * z / s**3


def gaussian_score_xi(x, mu, s):
    """(dl/dxi1, dl/dxi2) by the chain rule through sigma = sqrt(xi2 - xi1^2):
    d(mu, sigma)/dxi1 = (1, -mu/sigma) and d(mu, sigma)/dxi2 = (0, 1/(2 sigma))."""
    d_mu, d_s = gaussian_score(x, mu, s)
    return d_mu - (mu / s) * d_s, d_s / (2.0 * s)


# -- the published dual-chart score basis, which the package does not compute ---------

def published_score_xi(x, mu, s):
    """The dual-chart score basis as published, written in (mu, sigma):
    (x - mu)/sigma^2 and (x - mu)^2/(2 sigma^4) - mu (x - mu)/sigma^3 - 1/(2 sigma^2).

    It realises the published combination d_xi2 = (-mu/sigma) d_1 + (1/(2 sigma)) d_2
    of the natural scores, and both components have zero expectation.  It is not the
    chain-rule pullback ``gaussian_score_xi``: the two agree only at mu = 0.
    """
    z = x - mu
    return z / (s * s), z * z / (2.0 * s**4) - mu * z / s**3 - 1.0 / (2.0 * s * s)


# -- log, the one elementary function only the tests differentiate ------------------

def log(u):
    """log of a float (math.log), an array (np.log) or a Dual2, through the chain
    rule with f' = 1/u and f'' = -1/u^2."""
    if not isinstance(u, Dual2):
        return np.log(u) if isinstance(u, np.ndarray) else math.log(u)
    v = u.val
    return u._compose(log(v), 1.0 / v, -1.0 / (v * v))


# -- Gauss-Hermite at one point, by one 1-D dot per integrand --------------------------

@functools.lru_cache(maxsize=None)
def _hermgauss(nodes: int):
    return np.polynomial.hermite.hermgauss(nodes)


class GaussHermiteDot:
    """E[f(x)] at one float point, x = mu + sqrt(2) sigma t: each mean is the 1-D dot
    v @ w / sqrt(pi) of one integrand array v, a float; a 2-D f(x), or a list of arrays
    that numpy stacks, holds one integrand per row.  It has an engine's ``expect``, so
    the package integrates a block with it point by point, in order."""

    def __init__(self, nodes: int):
        self.nodes = nodes

    def __repr__(self) -> str:
        return f"GaussHermiteDot({self.nodes})"

    def expect(self, f, p):
        t, w = _hermgauss(self.nodes)
        values = np.asarray(f(p.c1 + math.sqrt(2.0) * p.c2 * t), dtype=float)

        def mean(v):
            return float(v @ w / math.sqrt(math.pi))

        if values.ndim == 1:
            return mean(values)
        return np.array([mean(v) for v in values])


# -- earlier forms of the rewritten kernels, for the bit-for-bit gates -----------------

def xi_field_full_sum(x1, x2):
    """The dual-chart Fisher field as the full pullback sum_ij B_ai B_bj g_theta_ij,
    zero terms and the unread [1][0] entry included; floats, arrays or Dual2."""
    s2 = x2 - x1 * x1
    sigma = sqrt(s2)
    bbar = ((1.0, -x1 / sigma), (0.0, 1.0 / (2.0 * sigma)))
    gth = ((1.0 / s2, 0.0), (0.0, 2.0 / s2))
    return [[sum(bbar[a][i] * bbar[b][j] * gth[i][j] for i in (0, 1) for j in (0, 1))
             for b in (0, 1)] for a in (0, 1)]


def _at_first(point, bad):
    at = np.unravel_index(np.argmax(bad), bad.shape)
    return at, point if bad.ndim == 0 else point.at(at)


def metric_checked_in_order(point, g):
    """(g, g_inv, det) of MetricAt.from_matrix with one reduction per check, in order:
    finite, symmetric within 1e-12 of scale, positive definite."""
    g = np.array(g, dtype=float)
    finite = np.isfinite(g)
    if not finite.all():
        _, p = _at_first(point, ~finite.all(axis=(-2, -1)))
        raise SingularMetricError(f"metric at {p} is not a finite 2x2 matrix")
    g00, g01, g10, g11 = g[..., 0, 0][()], g[..., 0, 1][()], g[..., 1, 0][()], g[..., 1, 1][()]
    if not (g01 == g10).all():
        scale = np.maximum(1.0, np.max(np.abs(g), axis=(-2, -1)))
        bad = np.abs(g01 - g10) > 1e-12 * scale
        if bad.any():
            at, p = _at_first(point, bad)
            raise SingularMetricError(f"metric at {p} is not symmetric: {g[at]}")
    g[..., 1, 0] = g01
    det = g00 * g11 - g01 * g01
    pd = (g00 > 0.0) & (det > 0.0)
    if not pd.all():
        at, p = _at_first(point, ~pd)
        raise SingularMetricError(f"metric at {p} is not positive definite (det = {det[at]})")
    g_inv = g[..., ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]]) / det[..., None, None]
    return g, g_inv, g[..., 0, 0] * g[..., 1, 1] - np.float_power(g[..., 0, 1], 2)


def lower_by_moveaxis(dg):
    """Gamma_ijk = (d_i g_jk + d_j g_ik - d_k g_ij) / 2 over the last three axes."""
    return 0.5 * (dg + dg.swapaxes(-3, -2) - np.moveaxis(dg, -3, -1))


def _stacked(entries, shape):
    columns = np.broadcast_arrays(*(np.asarray(e, dtype=float) for e in entries))
    return np.stack(columns, axis=-1).reshape(columns[0].shape + shape)


def raised(ginv, lower):
    """mixed[..., k, i, j] = g^k0 lower[..., i, j, 0] + g^k1 lower[..., i, j, 1], block
    axes first."""
    a, t = ginv[..., :, None, None, :], lower[..., None, :, :, :]
    return 0.0 + a[..., 0] * t[..., 0] + a[..., 1] * t[..., 1]


def _levi_civita_jet(field, point):
    """(g, ginv, lower, mixed, dmixed) of the Levi-Civita connection, block axes first,
    dmixed[..., l, k, i, j] = d_l Gamma^k_ij."""
    m = field(Dual2(point.c1, g1=1.0), Dual2(point.c2, g2=1.0))
    ij = [e if isinstance(e, Dual2) else Dual2(float(e)) for e in (m[0][0], m[0][1], m[0][1], m[1][1])]
    g = _stacked([e.val for e in ij], (2, 2))
    dg = _stacked([e.g1 for e in ij] + [e.g2 for e in ij], (2, 2, 2))
    d2g = _stacked([e.h11 for e in ij] + [e.h12 for e in ij] * 2 + [e.h22 for e in ij],
                   (2, 2, 2, 2))
    g, ginv, _ = metric_checked_in_order(point, g)
    lower = lower_by_moveaxis(dg)
    mixed = raised(ginv, lower)
    dginv = -ginv[..., None, :, :] @ dg @ ginv[..., None, :, :]
    dmixed = (raised(dginv, lower[..., None, :, :, :])
              + raised(ginv[..., None, :, :], lower_by_moveaxis(d2g)))
    return g, ginv, lower, mixed, dmixed


def _with_scalar(ginv, lower, mixed, r):
    terms = r * ginv[..., :, None, None, :] * ginv[..., None, :, :, None]
    total = np.add.accumulate(terms.reshape(terms.shape[:-4] + (16,)), axis=-1)[..., -1]
    return lower, mixed, r, 0.5 * (0.0 + total)


def levi_civita_and_riemann_by_loop(field, point):
    """(lower, mixed, r, scalar) of the Levi-Civita connection of ``field`` at a point
    or block, with the curvature's sums over s taken in a loop over s = 0, 1."""
    g, ginv, lower, mixed, dmixed = _levi_civita_jet(field, point)
    curl, prod = [], []
    for s in (0, 1):
        d = dmixed[..., :, s, :, :]
        curl.append((d - d.swapaxes(-3, -2))[..., None] * g[..., None, None, None, s, :])
        p = lower[..., :, None, None, s, :] * mixed[..., None, s, :, :, None]
        prod.append(p - p.swapaxes(-4, -3))
    r = (0.0 + curl[0] + curl[1]) + (0.0 + prod[0] + prod[1])
    return _with_scalar(ginv, lower, mixed, r)


def levi_civita_and_riemann_block_first(field, point):
    """(lower, mixed, r, scalar) as ``levi_civita_and_riemann_by_loop``, with the block
    axes first and both terms of each sum over s formed in one array operation, on
    axis -5 of (..., s, i, j, k, m)."""
    g, ginv, lower, mixed, dmixed = _levi_civita_jet(field, point)
    d = (dmixed - dmixed.swapaxes(-4, -2)).swapaxes(-4, -3)  # d[..., s, i, j, k]
    curl = d[..., None] * g[..., :, None, None, None, :]
    p = lower.swapaxes(-3, -2)[..., :, :, None, None, :] * mixed[..., :, None, :, :, None]
    prod = p - p.swapaxes(-4, -3)
    r = (0.0 + curl[..., 0, :, :, :, :] + curl[..., 1, :, :, :, :]) \
        + (0.0 + prod[..., 0, :, :, :, :] + prod[..., 1, :, :, :, :])
    return _with_scalar(ginv, lower, mixed, r)


def audit_columns_by_parts(p, tol):
    """(paper, oracle, abs_gap, rel_gap, match) of ``audit`` composed as it once was: the
    connection law's lower coefficients from ``transform_connection``, whose mixed half
    is discarded, and the second derivatives from the theta point."""
    e = pt.paper_table(p)
    q = chart_forward(p)
    jac, jac_inv = jacobian(p)
    metric_th = fisher_metric_theta(p)
    metric_or = transform_metric(metric_th, jac_inv, q)
    econn = conn_expectation_theta(p)
    lower_tensor = transform_lower_tensor3(econn.lower, jac_inv)
    lower_conn = transform_connection(
        econn, jac, jac_inv, chart_second_derivatives(p), metric_th, q
    ).lower
    lc_xi, riem_xi = _levi_civita_and_riemann(fisher_metric_field(Chart.XI), q)
    paper_lower = _stacked([e[qid] for qid in pt._LOWER_IDS], (2, 2, 2))
    t_paper = paper_lower - paper_lower.swapaxes(-3, -2)
    paper = _stacked([e[qid] for qid, *_ in pt.ROWS[:-1]]
                     + [np.max(np.abs(t_paper), axis=(-3, -2, -1))], (len(pt.ROWS),))
    block = np.shape(p.c1)
    oracle = np.concatenate([np.reshape(a, block + (-1,)) for a in (
        metric_or.g, metric_or.det, metric_or.g_inv, np.stack([lower_tensor, lower_conn], -1),
        lc_xi.mixed, riem_xi.r, riem_xi.scalar,
        np.max(np.abs(torsion(lc_xi).t), axis=(-3, -2, -1)),
    )], axis=-1)
    gap = np.abs(paper - oracle)
    abs_paper, abs_oracle = np.abs(paper), np.abs(oracle)
    denom = np.where(abs_oracle > abs_paper, abs_oracle, abs_paper)
    rel = np.divide(gap, denom, out=np.zeros_like(gap), where=denom > 0.0)
    gate = np.where([derived for _, _, derived, _ in pt.ROWS], tol.derived_abs, tol.closed_form_abs)
    return paper, oracle, gap, rel, (gap <= gate) | (rel <= tol.rel)


def hessian_parts(z, s):
    """(h11, h12, h22) of l at the offsets z = x - mu, three fresh arrays."""
    h11 = np.broadcast_to(-1.0 / (s * s), z.shape).copy()
    h12 = -2.0 * z / _pow(s, 3)
    h22 = 1.0 / (s * s) - 3.0 * z * z / _pow(s, 4)
    return h11, h12, h22


def score_parts(z, s):
    """(d l/d mu, d l/d sigma) at the offsets z = x - mu, two fresh arrays."""
    return z / (s * s), -1.0 / s + z * z / _pow(s, 3)


def pullback_parts(z, mu, s):
    """(d l/d xi_1, d l/d xi_2) at the offsets z = x - mu, two fresh arrays."""
    s1, s2 = score_parts(z, s)
    return s1 - (mu / s) * s2, s2 / (2.0 * s)


def theta_connection_integrands(z, _, s):
    """The products h_ij * score[k] for (ij) = 11, 12, 22 and k = 1, 2, then h, a list of
    fresh arrays."""
    h = hessian_parts(z, s)
    score = score_parts(z, s)
    return [hij * sk for hij in h for sk in score] + list(h)


def xi_metric_products(z, mu, s):
    """s_a s_b of the pullback scores for (a, b) = (1, 1), (1, 2), (2, 2), fresh arrays."""
    s1, s2 = pullback_parts(z, mu, s)
    return s1 * s1, s1 * s2, s2 * s2


def engine_means_one_by_one(engine, integrands, p):
    """``models._engine_means`` with each of the integrands' arrays reduced alone: by
    ``np.vecdot`` at each Gauss-Hermite cut of points, and by ``np.add.reduce`` at each
    leaf of the Monte Carlo pairwise tree, walked as the engine walks it, so a float
    error raises in the leaf or the addition where the walk meets it.  The reference
    for the engines' one reduction over a stack."""
    def means(x, mu, s, reduce):
        if isinstance(mu, np.ndarray):  # a cut of a block: one row of nodes per point
            mu, s = mu[..., None], s[..., None]
        return np.stack([reduce(v) for v in integrands(x - mu, mu, s)], axis=-1)

    def gauss_hermite(q):
        t, w = models._hermgauss(engine.nodes)
        x = np.asarray(q.c1)[..., None] + np.asarray(math.sqrt(2.0) * q.c2)[..., None] * t
        return means(x, q.c1, q.c2, lambda v: np.vecdot(v, w)) / math.sqrt(math.pi)

    def monte_carlo(q):
        z = models._standard_normals(engine.samples, engine.seed)

        def total(a, b):
            n = b - a
            if n > models.MC_LEAF:
                half = n // 2 - n // 2 % 8
                return total(a, a + half) + total(a + half, b)
            x = q.c2 * z[a:b]
            x += q.c1
            return means(x, q.c1, q.c2, np.add.reduce)

        return total(0, engine.samples) / engine.samples

    th = p if p.chart is Chart.THETA else chart_backward(p)
    if type(engine) is models.GaussHermite:
        cut, at = max(1, models.GH_BLOCK_VALUES // engine.nodes), gauss_hermite
    else:
        cut, at = 1, monte_carlo
    return np.concatenate([at(q) for q in th.points(cut)]).reshape(np.shape(p.c1) + (-1,))


def fisher_metric_by_fresh_arrays(p, engine):
    """``fisher_metric`` at a point or block under an engine, its integrands
    ``hessian_parts`` (natural chart) or ``xi_metric_products`` (dual chart), each
    reduced alone."""
    if p.chart is Chart.THETA:
        means = engine_means_one_by_one(engine, lambda z, _, s: hessian_parts(z, s), p)
        return models._metric_from_means(p, np.negative(means))
    return models._metric_from_means(p, engine_means_one_by_one(engine, xi_metric_products, p))


def expectation_connection_by_fresh_arrays(p, engine):
    """``expectation_connection`` at a point or block under an engine, its integrands from
    ``theta_connection_integrands``, each reduced alone, moved to the dual chart by
    ``transform_connection``."""
    def theta(q):
        means = engine_means_one_by_one(engine, theta_connection_integrands, q)
        lower = means[..., [0, 1, 2, 3, 2, 3, 4, 5]].reshape(means.shape[:-1] + (2, 2, 2))
        g_inv = models._metric_from_means(q, -means[..., 6:]).g_inv
        return ConnAt(q, lower, raised(g_inv, lower))

    if p.chart is Chart.THETA:
        return theta(p)
    th = chart_backward(p)
    jac, jac_inv = jacobian(th)
    return transform_connection(theta(th), jac, jac_inv, chart_second_derivatives(th),
                                fisher_metric_theta(th), p)
