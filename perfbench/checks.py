"""Output checks: every request's JSON or CSV against oracles that share no code
with igeo (only its tolerance constants).

The oracles are closed forms for the Gaussian family written out here:

* the natural-chart metric diag(1/sigma^2, 2/sigma^2) and its pull-back to the
  dual chart;
* the natural-chart Levi-Civita and expectation connections, carried to the
  dual chart by the inhomogeneous connection law;
* constant curvature -1/2, so R_ijkm = -1/2 (g_im g_jk - g_ik g_jm);
* for the audit, its per-point verdict pattern.

Closed-form results must match within the library's tolerances and Gauss-Hermite
within 1e-10, each scaled by max(1, largest |entry|) of the array, since entries
that cancel to zero carry the rounding of the largest ones.  Monte Carlo must
match entry by entry within the test suite's 5e-3, scaled by max(1, |exact|), or
within six standard errors of its own estimator.  The suite's 5e-3 holds at its
fixed seed, but at a seed drawn from the benchmark seed some entries have a
standard error near 4e-3, so 5e-3 alone would fail honest runs.  The standard
error is exact: every integrand is a polynomial in the standard normal draw.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from numpy.polynomial import Polynomial as P

from igeo.core import DEFAULT_TOLERANCES as TOL

GH_TOL = 1e-10
MC_TOL = 5e-3
MC_SIGMAS = 6.0
MC_DEFAULT_SAMPLES = 1_000_000

QUANTITIES = {
    "metric": ("g", "g_inv", "g_det"),
    "christoffel": ("Gamma_lower", "Gamma_mixed"),
    "torsion": ("T", "T_max_abs"),
    "curvature": ("R", "scalar", "sectional"),
    "scalar": ("scalar",),
    "transform:theta": ("point_xi", "jacobian", "jacobian_inv", "g_xi", "g_xi_det"),
    "transform:xi": ("point_theta", "jacobian", "jacobian_inv", "g_theta"),
}


class CheckError(Exception):
    pass


def _within(name, actual, exact, bound):
    actual, exact = np.asarray(actual, dtype=float), np.asarray(exact, dtype=float)
    if actual.shape != exact.shape:
        raise CheckError(f"{name}: shape {actual.shape}, expected {exact.shape}")
    gap = np.abs(actual - exact)
    if not np.all(gap <= bound):
        raise CheckError(f"{name}: {actual.tolist()} differs from {exact.tolist()} "
                         f"by up to {np.max(gap):.3g}, tolerance {np.min(bound):.3g}")


def _close(name, actual, exact, tol):
    _within(name, actual, exact, tol * max(1.0, float(np.max(np.abs(exact)))))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _theta(chart, c1, c2):
    """(mu, sigma) of a point given in either chart."""
    return (c1, c2) if chart == "theta" else (c1, math.sqrt(c2 - c1 * c1))


def _metric_theta(s):
    return np.array([[1.0 / s**2, 0.0], [0.0, 2.0 / s**2]])


def _basis(mu, s):
    """b[a, i] = d theta_i / d xi_a; jac[c, k] = d xi_c / d theta_k; sd[m, a, b]."""
    b = np.array([[1.0, -mu / s], [0.0, 1.0 / (2.0 * s)]])
    jac = np.array([[1.0, 0.0], [2.0 * mu, 2.0 * s]])
    sd = np.zeros((2, 2, 2))
    sd[1] = [[-(s * s + mu * mu) / s**3, mu / (2.0 * s**3)],
             [mu / (2.0 * s**3), -1.0 / (4.0 * s**3)]]
    return b, jac, sd


def _metric(chart, mu, s):
    g = _metric_theta(s)
    if chart == "xi":
        b, _, _ = _basis(mu, s)
        g = b @ g @ b.T
    return g


def _lower_theta(connection, s):
    lower = np.zeros((2, 2, 2))
    if connection == "levi_civita":
        lower[0, 0, 1] = 1.0 / s**3
        lower[0, 1, 0] = lower[1, 0, 0] = -1.0 / s**3
        lower[1, 1, 1] = -2.0 / s**3
    else:
        lower[0, 1, 0] = lower[1, 0, 0] = -2.0 / s**3
        lower[1, 1, 1] = -6.0 / s**3
    return lower


def _connection(chart, connection, mu, s):
    g = _metric_theta(s)
    lower = _lower_theta(connection, s)
    mixed = np.einsum("km,ijm->kij", np.linalg.inv(g), lower)
    if chart == "xi":
        b, jac, sd = _basis(mu, s)
        mixed = (np.einsum("ai,bj,gk,kij->gab", b, b, jac, mixed)
                 + np.einsum("gm,mab->gab", jac, sd))
        lower = (np.einsum("ai,bj,ck,ijk->abc", b, b, b, lower)
                 + np.einsum("mab,ck,mk->abc", sd, b, g))
    return lower, mixed


def _riemann(g):
    return -0.5 * (np.einsum("im,jk->ijkm", g, g) - np.einsum("ik,jm->ijkm", g, g))


# ---------------------------------------------------------------------------
# Monte Carlo: exact mean and standard error of the engine's estimators
# ---------------------------------------------------------------------------

def _mean_var(poly: P) -> tuple[float, float]:
    """E and Var of poly(z) for z standard normal (E z^2k = (2k-1)!!)."""
    def expect(p):
        return sum(c * (math.prod(range(k - 1, 0, -2)) if k % 2 == 0 else 0.0)
                   for k, c in enumerate(p.coef))
    mean = expect(poly)
    return mean, expect(poly * poly) - mean * mean


def _theta_integrands(s):
    """Scores and log-likelihood Hessian at x = mu + sigma z, as polynomials in z."""
    score = [P([0.0, 1.0 / s]), P([-1.0 / s, 0.0, 1.0 / s])]
    h12 = P([0.0, -2.0 / s**2])
    hess = [[P([-1.0 / s**2]), h12], [h12, P([1.0 / s**2, 0.0, -3.0 / s**2])]]
    return score, hess


def _mc_metric(chart, mu, s):
    score, hess = _theta_integrands(s)
    if chart == "xi":
        score = [score[0] - (mu / s) * score[1], score[1] * (1.0 / (2.0 * s))]
        return [[score[a] * score[b] for b in range(2)] for a in range(2)]
    return [[-hess[i][j] for j in range(2)] for i in range(2)]


def _mc_theta_connection(s):
    """Integrands of lower, and the linearised integrands of mixed = g_inv(MC) lower(MC)."""
    score, hess = _theta_integrands(s)
    lower = [[[hess[i][j] * score[k] for k in range(2)] for j in range(2)] for i in range(2)]
    g_polys = _mc_metric("theta", 0.0, s)
    g_inv = np.linalg.inv(_metric_theta(s))
    lower_exact = _lower_theta("expectation", s)
    mixed = [[[sum(g_inv[k, m] * lower[i][j][m]
                   - lower_exact[i, j, m] * sum(g_inv[k, a] * g_inv[bb, m] * g_polys[a][bb]
                                                 for a in range(2) for bb in range(2))
                   for m in range(2))
               for j in range(2)] for i in range(2)] for k in range(2)]
    return lower, mixed


def _std_err(integrands, samples):
    if isinstance(integrands, list):
        return [_std_err(p, samples) for p in integrands]
    return math.sqrt(max(_mean_var(integrands)[1], 0.0) / samples)


def _mc_close(name, actual, integrands, exact, samples):
    exact = np.asarray(exact, dtype=float)
    bound = np.maximum(MC_TOL * np.maximum(1.0, np.abs(exact)),
                       MC_SIGMAS * np.array(_std_err(integrands, samples)))
    _within(name, actual, exact, bound)


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def _engine(spec: str):
    parts = spec.split(":")
    if parts[0] == "monte_carlo":
        samples = int(parts[1]) if len(parts) > 1 else MC_DEFAULT_SAMPLES
        return "monte_carlo", samples
    return parts[0], None


def _check_metric(recs, chart, mu, s, engine, samples):
    g, g_inv, g_det = (np.asarray(recs[q], dtype=float) for q in QUANTITIES["metric"])
    exact = _metric(chart, mu, s)
    if engine == "monte_carlo":
        _mc_close("g", g, _mc_metric(chart, mu, s), exact, samples)
        _close("g_inv . g", g_inv @ g, np.eye(2), 1e-12)
        _close("g_det", g_det, g[0, 0] * g[1, 1] - g[0, 1] ** 2, 1e-12)
        return
    tol = GH_TOL if engine == "gauss_hermite" else TOL.closed_form_abs
    _close("g", g, exact, tol)
    _close("g_inv", g_inv, np.linalg.inv(exact), tol)
    _close("g_det", g_det, np.linalg.det(exact), tol)


def _check_connection(recs, chart, connection, mu, s, engine, samples):
    lower_exact, mixed_exact = _connection(chart, connection, mu, s)
    if "T" in recs:
        t = np.asarray(recs["T"], dtype=float)
        if connection == "levi_civita":
            if np.any(t != 0.0) or recs["T_max_abs"] != 0:
                raise CheckError("Levi-Civita torsion is not exactly zero")
        else:
            _within("T", t, np.zeros((2, 2, 2)),
                    TOL.derived_abs * max(1.0, float(np.max(np.abs(lower_exact)))))
            _within("T_max_abs", recs["T_max_abs"], np.max(np.abs(t)), 0.0)
        return
    lower, mixed = recs["Gamma_lower"], recs["Gamma_mixed"]
    if engine == "monte_carlo":
        if chart != "theta":
            raise CheckError("no Monte Carlo oracle for dual-chart connections")
        lower_polys, mixed_polys = _mc_theta_connection(s)
        _mc_close("Gamma_lower", lower, lower_polys, lower_exact, samples)
        _mc_close("Gamma_mixed", mixed, mixed_polys, mixed_exact, samples)
        return
    tol = GH_TOL if engine == "gauss_hermite" else TOL.derived_abs
    _close("Gamma_lower", lower, lower_exact, tol)
    _close("Gamma_mixed", mixed, mixed_exact, tol)


def _check_curvature(recs, chart, mu, s):
    _close("scalar", recs["scalar"], -0.5, TOL.derived_abs)
    if "R" not in recs:
        return
    r = np.asarray(recs["R"], dtype=float)
    if not np.array_equal(r, -r.transpose(1, 0, 2, 3)):
        raise CheckError("R is not exactly antisymmetric in its first pair")
    _close("R", r, _riemann(_metric(chart, mu, s)), TOL.derived_abs)
    _close("sectional", recs["sectional"], -0.5, TOL.derived_abs)


def _check_transform(recs, chart, mu, s):
    b, jac, _ = _basis(mu, s)
    _close("jacobian", recs["jacobian"], jac, TOL.closed_form_abs)
    _close("jacobian_inv", recs["jacobian_inv"], b.T, TOL.closed_form_abs)
    if chart == "theta":
        _close("point_xi", recs["point_xi"], [mu, mu * mu + s * s], TOL.closed_form_abs)
        g_xi = _metric("xi", mu, s)
        _close("g_xi", recs["g_xi"], g_xi, TOL.closed_form_abs)
        _close("g_xi_det", recs["g_xi_det"], 1.0 / (2.0 * s**6), TOL.closed_form_abs)
    else:
        _close("point_theta", recs["point_theta"], [mu, s], TOL.closed_form_abs)
        _close("g_theta", recs["g_theta"], _metric_theta(s), TOL.closed_form_abs)


def _check_quantity_point(cmd, opts, point, recs):
    chart = opts.get("chart", "theta")
    mu, s = _theta(chart, *point)
    engine, samples = _engine(opts.get("engine", "closed_form"))
    if cmd == "metric":
        _check_metric(recs, chart, mu, s, engine, samples)
    elif cmd in ("christoffel", "torsion"):
        _check_connection(recs, chart, opts.get("connection", "levi_civita"),
                          mu, s, engine, samples)
    elif cmd in ("curvature", "scalar"):
        _check_curvature(recs, chart, mu, s)
    elif cmd == "transform":
        _check_transform(recs, chart, mu, s)
    else:
        raise CheckError(f"no oracle for command {cmd!r}")


def _by_point(records, per_point, keys):
    """Group records into runs of ``per_point`` that share a point."""
    if not records or len(records) % per_point:
        raise CheckError(f"{len(records)} records, not a multiple of {per_point}")
    for i in range(0, len(records), per_point):
        chunk = records[i:i + per_point]
        point = tuple(chunk[0]["point"])
        if any(tuple(r["point"]) != point for r in chunk):
            raise CheckError(f"records of point {point} are not contiguous")
        if keys is not None and tuple(r["quantity"] for r in chunk) != keys:
            raise CheckError(f"quantities at {point}: {[r['quantity'] for r in chunk]}")
        yield point, chunk


def _check_audit_rows(rows, n_points):
    for point, chunk in _by_point(rows, len(rows) // n_points, None):
        by_q = {r["quantity"]: r for r in chunk}
        k = by_q.get("K")
        t = by_q.get("T_xi.max_abs")
        if k is None or t is None:
            raise CheckError(f"audit at {point} lacks the K or T_xi.max_abs row")
        if k["verdict"] != "MISMATCH":
            raise CheckError(f"audit at {point}: K row is {k['verdict']}, expected MISMATCH")
        _close(f"K oracle at {point}", float(k["oracle"]), -0.5, TOL.derived_abs)
        if not t["note"]:
            raise CheckError(f"audit at {point}: T_xi.max_abs row carries no note")


def _csv_records(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    for r in rows:
        r["point"] = json.loads(r["point"])
    return rows


def check(argv, code, out: str, n_points: int) -> None:
    """Raise CheckError unless one request's stdout is correct."""
    if code != 0:
        raise CheckError(f"exit code {code}")
    cmd = argv[0]
    opts = dict(a[2:].split("=", 1) for a in argv[1:])
    if opts.get("format") == "csv":
        records = _csv_records(out)
    else:
        doc = json.loads(out)
        records = doc["records"]
        if doc["meta"]["command"] != cmd:
            raise CheckError(f"meta names command {doc['meta']['command']!r}")
    if cmd == "audit":
        points = {tuple(r["point"]) for r in records}
        if len(points) != n_points:
            raise CheckError(f"audit covered {len(points)} points, expected {n_points}")
        _check_audit_rows(records, n_points)
        return
    key = f"transform:{opts.get('chart', 'theta')}" if cmd == "transform" else cmd
    keys = QUANTITIES[key]
    if len(records) != n_points * len(keys):
        raise CheckError(f"{len(records)} records for {n_points} points of {cmd}")
    for point, chunk in _by_point(records, len(keys), keys):
        _check_quantity_point(cmd, opts, point, {r["quantity"]: r["value"] for r in chunk})
