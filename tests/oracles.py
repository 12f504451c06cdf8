"""Independent oracles for the test suite.

Everything here is plain numpy: 5-point stencils, the (0,4)-tensor law as one
einsum, and the derivatives of the Gaussian log-likelihood and of the dual
potential written out by hand.  None of it touches the package's forward-mode
machinery or its kernels, so derivative-based results always have a second,
unrelated computation path to compare against.
"""

import math

import numpy as np

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
