"""Exact oracle: the dual-chart geometry derived symbolically through the pullback.

sympy pulls the natural-chart metric diag(1/sigma^2, 2/sigma^2) back through
theta(xi) = (x1, sqrt(x2 - x1^2)) and derives the Levi-Civita connection, the
curvature array and the scalar curvature in exact rational arithmetic, with the
index conventions of ``igeo.geometry``.  It shares no code with the Dual2 jet.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from igeo import (  # noqa: E402
    DEFAULT_TOLERANCES,
    Chart,
    ParamPoint,
    audit,
    chart_forward,
    cli,
    evaluate_metric,
    fisher_metric_field,
    levi_civita,
    riemann_levi_civita,
)
from igeo.papertable import ROWS  # noqa: E402

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
    sectional = sp.cancel(r[0][1][1][0] / g.det())
    return {"g": g.tolist(), "lower": lower, "mixed": mixed, "r": r, "scalar": scalar,
            "sectional": sectional}


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


# The audit's native oracle and the xi commands below run the Levi-Civita kernels on the
# dual-chart field at the xi point, and lose about two digits per decade of
# kappa = x2 / sigma^2 = (mu^2 + sigma^2) / sigma^2: their largest relative error over the
# exactly nonzero entries is about kappa^2 * 1e-14.  The loss is not the cancellation in
# sigma^2 = x2 - x1^2 alone: at theta (1e6, 1), where that is exact, the scalar is off by a
# relative 4.4e8.  Each rung bounds the error of each output at about ten times what it is
# there: the audit's native rows (mixed, R and K) 1.2e-15, 2.1e-13, 1.0e-6, 1.4e2 and 2.3e9;
# `scalar` 4.4e-16, 3.3e-14, 3.3e-7, 74 and 1.2e9; `curvature` 1.3e-15, 2.2e-13, 1.0e-6,
# 1.4e2 and 2.3e9; `christoffel --connection levi_civita` 5.4e-16, 4.6e-15, 1.2e-7, 17 and
# 1.1e9.  1e-8 relative accuracy ends near kappa ~ 1e3: past it the oracle's own error can
# exceed the audit's 1e-8 gates, so a verdict can describe the oracle's rounding, and the
# commands' outputs lose their leading digits.  The exactly zero entries grow too, to about
# 3.6e14 at (100, 0.01).
KAPPA_LADDER = (  # (theta point, kappa, bound per output of OUTPUTS)
    ((0.7, 1.3), 1.3, (1e-14, 5e-15, 1e-14, 5e-15)),
    ((-1.7, 0.6), 9.0, (1e-12, 5e-13, 1e-12, 5e-14)),
    ((10.0, 0.1), 1e4, (1e-5, 5e-6, 1e-5, 1e-6)),
    ((100.0, 0.01), 1e8, (1e3, 1e3, 1e3, 2e2)),
    ((1e4, 0.01), 1e12, (1e10, 1e10, 1e10, 1e10)),
)
OUTPUTS = {  # output: (argv, the exact quantities of its values in order, how many are nonzero)
    "audit": (None, ("mixed", "r", "scalar"), 12),
    "scalar": (("scalar",), ("scalar",), 1),
    "curvature": (("curvature",), ("r", "scalar", "sectional"), 6),
    "christoffel": (("christoffel", "--connection=levi_civita"), ("lower", "mixed"), 15),
}
NATIVE = [i for i, (qid, label, _, _) in enumerate(ROWS)
          if label == "native_levi_civita" and not qid.startswith("T_")]


@pytest.mark.parametrize("theta, kappa, output, bound", [
    pytest.param(theta, kappa, output, bounds[n],
                 id=f"kappa={kappa:g}" if output == "audit" else f"{output}-kappa={kappa:g}")
    for n, output in enumerate(OUTPUTS) for theta, kappa, bounds in KAPPA_LADDER])
def test_native_oracle_error_along_the_kappa_ladder(exact, capsys, theta, kappa, output, bound):
    p = ParamPoint.theta(*theta)
    q = chart_forward(p)  # the exact values are taken at this double point
    assert q.c2 / (q.c2 - q.c1 * q.c1) == pytest.approx(kappa, rel=0.01)
    argv, names, nonzeros = OUTPUTS[output]
    if argv is None:
        assert len(NATIVE) == 25  # mixed (8), R (16) and K
        got = audit(p).oracle[NATIVE]
    else:
        assert cli.main([*argv, "--chart=xi", "--format=json",
                         "--point=%r,%r" % (q.c1, q.c2)]) == 0
        got = np.concatenate([np.ravel(record["value"])
                              for record in json.loads(capsys.readouterr().out)["records"]])
    want = np.concatenate([np.ravel(at(exact[name], q.c1, q.c2)) for name in names])
    nonzero = want != 0.0
    assert nonzero.sum() == nonzeros
    assert np.max(np.abs(got - want)[nonzero] / np.abs(want[nonzero])) <= bound
