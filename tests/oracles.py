"""Independent finite-difference oracles for the test suite.

Everything here is plain numpy with 5-point stencils; none of it touches the
package's forward-mode machinery, so derivative-based results always have a
second, unrelated computation path to compare against.
"""

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
