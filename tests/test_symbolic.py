"""Exact oracle: the dual-chart geometry derived symbolically through the pullback.

sympy pulls the natural-chart metric diag(1/sigma^2, 2/sigma^2) back through
theta(xi) = (x1, sqrt(x2 - x1^2)) and derives the Levi-Civita connection, the
curvature array and the scalar curvature in exact rational arithmetic, with the
index conventions of ``igeo.geometry``.  It shares no code with the Dual2 jet.
"""

from fractions import Fraction

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from igeo import (  # noqa: E402
    DEFAULT_TOLERANCES,
    Chart,
    ParamPoint,
    evaluate_metric,
    fisher_metric_field,
    levi_civita,
    riemann_levi_civita,
)

X = sp.symbols("x1 x2", real=True)
# (x1, sigma^2) at rational points; x2 = x1^2 + sigma^2
POINTS = [(Fraction(a), Fraction(b)) for a, b in (
    (0, 1), ("-1/2", "1/4"), ("1/3", 2), (1, "1/2"), ("-3/2", 3), (2, "9/4"),
    ("5/2", 1), ("-7/4", "3/4"), ("1/5", "5/4"), (-1, 4), ("3/4", "2/3"), ("-2", "1/3"),
)]
TOL = DEFAULT_TOLERANCES.derived_abs
R2 = range(2)


@pytest.fixture(scope="module")
def exact():
    x1, x2 = X
    sigma = sp.sqrt(x2 - x1**2)
    jac = sp.Matrix([x1, sigma]).jacobian(X)  # d theta_i / d xi_a
    g = (jac.T * sp.diag(1 / sigma**2, 2 / sigma**2) * jac).applyfunc(sp.cancel)
    ginv = g.inv().applyfunc(sp.cancel)
    lower = [[[sp.cancel((sp.diff(g[j, k], X[i]) + sp.diff(g[i, k], X[j])
                          - sp.diff(g[i, j], X[k])) / 2) for k in R2] for j in R2] for i in R2]
    mixed = [[[sp.cancel(sum(ginv[k, m] * lower[i][j][m] for m in R2)) for j in R2]
              for i in R2] for k in R2]
    r = [[[[sp.cancel(sum(
        (sp.diff(mixed[s][j][k], X[i]) - sp.diff(mixed[s][i][k], X[j])) * g[s, m]
        + lower[i][s][m] * mixed[s][j][k] - lower[j][s][m] * mixed[s][i][k] for s in R2))
        for m in R2] for k in R2] for j in R2] for i in R2]
    scalar = sp.cancel(sum(r[i][j][k][m] * ginv[i, m] * ginv[j, k]
                           for i in R2 for j in R2 for k in R2 for m in R2) / 2)
    return {"g": g.tolist(), "lower": lower, "mixed": mixed, "r": r, "scalar": scalar}


def at(expr, c1: float, c2: float) -> np.ndarray:
    """Exact value at the double-precision point (c1, c2), rounded once."""
    subs = {X[0]: sp.Rational(Fraction(c1)), X[1]: sp.Rational(Fraction(c2))}
    return np.array(sp.Array(expr).subs(subs).tolist(), dtype=float) \
        if isinstance(expr, list) else float(expr.subs(subs))


def test_scalar_curvature_is_minus_one_half_exactly(exact):
    assert exact["scalar"] == sp.Rational(-1, 2)


def test_batched_kernels_match_exact_values(exact):
    c1 = np.array([float(a) for a, _ in POINTS])
    c2 = np.array([float(a * a + s2) for a, s2 in POINTS])
    block = ParamPoint(Chart.XI, c1, c2)
    field = fisher_metric_field(Chart.XI)
    conn, riem = levi_civita(field, block), riemann_levi_civita(field, block)
    got = {"g": evaluate_metric(field, block).g, "lower": conn.lower, "mixed": conn.mixed,
           "r": riem.r, "scalar": riem.scalar}
    for n in range(len(POINTS)):
        for name, value in got.items():
            want = at(exact[name], c1[n], c2[n])
            assert np.max(np.abs(value[n] - want)) <= TOL, (name, POINTS[n])
