"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one verdict line per
criterion.  Criteria 1 and 5 also enforce their wall-clock budgets.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction as Fr

import numpy as np
import pytest

from igeo import (
    Chart,
    GaussHermite,
    MonteCarlo,
    ParamPoint,
    audit,
    chart_forward,
    chart_second_derivatives,
    conn_expectation_theta,
    fisher_metric_field,
    fisher_metric_theta,
    jacobian,
    levi_civita,
    paper_christoffel_xi,
    paper_metric_xi,
    paper_riemann_xi,
    riemann_levi_civita,
    torsion,
    transform_connection,
    transform_metric,
)
from igeo.autodiff import sin
from igeo.models import _pullback_parts, _score_parts
from igeo.papertable import MATCH, MISMATCH

import oracles
from conftest import random_theta_points

GH = GaussHermite(64)
MC = MonteCarlo(1_000_000, 20260808)
THETA_FIELD = fisher_metric_field(Chart.THETA)
XI_FIELD = fisher_metric_field(Chart.XI)


def _report(n, text):
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_1_fisher_metric_reproduction(rng):
    start = time.perf_counter()
    for p in random_theta_points(rng, 10, sigma=(0.5, 2.5)):
        s = p.c2
        exact = np.array([[1.0 / s**2, 0.0], [0.0, 2.0 / s**2]])
        assert np.array_equal(np.asarray(fisher_metric_theta(p).g), exact)
        gh = np.asarray(fisher_metric_theta(p, GH).g)
        assert np.max(np.abs(gh - exact)) < 1e-10
    for p in random_theta_points(rng, 10, sigma=(1.0, 2.5)):
        s = p.c2
        exact = np.array([[1.0 / s**2, 0.0], [0.0, 2.0 / s**2]])
        mc = np.asarray(fisher_metric_theta(p, MC).g)
        assert np.max(np.abs(mc - exact) / np.maximum(1.0, np.abs(exact))) < 5e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"closed form exact, quadrature 1e-10, monte carlo 5e-3 ({elapsed:.2f}s)")


def test_criterion_2_dual_chart_metric(rng):
    for p in random_theta_points(rng, 10):
        mu, s = p.c1, p.c2
        q = chart_forward(p)
        table = paper_metric_xi(p)
        m = transform_metric(fisher_metric_theta(p), jacobian(p)[1], q)
        g_ref = np.array(
            [[(s * s + 2 * mu * mu) / s**4, -mu / s**4], [-mu / s**4, 0.5 / s**4]]
        )
        inv_ref = np.array(
            [[s * s, 2 * mu * s * s], [2 * mu * s * s, 2 * s**4 + 4 * mu * mu * s * s]]
        )
        for (i, j), qid in (((0, 0), "11"), ((0, 1), "12"), ((1, 0), "21"), ((1, 1), "22")):
            scale = max(1.0, abs(g_ref[i, j]))
            assert abs(m.g[i, j] - g_ref[i, j]) < 1e-12 * scale
            assert abs(table[f"G_d.{qid}"] - g_ref[i, j]) < 1e-12 * scale
            scale = max(1.0, abs(inv_ref[i, j]))
            assert abs(m.g_inv[i, j] - inv_ref[i, j]) < 1e-12 * scale
            assert abs(table[f"G_d_inv.{qid}"] - inv_ref[i, j]) < 1e-12 * scale
        # the stated determinant 1/(2 sigma^2), reproduced as printed
        assert abs(table["G_d.det"] - 1.0 / (2 * s * s)) < 1e-12
    _report(2, "transformed metric, stated determinant and inverse agree to 1e-12")


def test_criterion_3_table_replication():
    # exact rational evaluation of every nonzero printed formula at
    # (mu, sigma) = (1/2, 3/2), typed independently with Fraction arithmetic
    mu, s = Fr(1, 2), Fr(3, 2)
    p = ParamPoint.theta(0.5, 1.5)
    expected = {
        "G_d.11": (s**2 + 2 * mu**2) / s**4,
        "G_d.12": -mu / s**4,
        "G_d.22": Fr(1, 2) / s**4,
        "G_d.det": Fr(1, 2) / s**2,
        "G_d_inv.11": s**2,
        "G_d_inv.12": 2 * mu * s**2,
        "G_d_inv.22": 2 * s**4 + 4 * mu**2 * s**2,
        "Gamma_xi.111": (4 * mu * s**2 + 6 * mu**3) / s**6,
        "Gamma_xi.112": -3 * mu**2 / s**6,
        "Gamma_xi.121": -1 / s**4 - 3 * mu**2 / s**6,
        "Gamma_xi.122": 3 * mu / (2 * s**6),
        "Gamma_xi.211": -1 / s**4 - 3 * mu**2 / s**6,
        "Gamma_xi.212": 3 * mu / (2 * s**6),
        "Gamma_xi.221": 3 * mu / (2 * s**6),
        "Gamma_xi.222": Fr(-3, 4) / s**6,
        "GammaMixed_xi.111": mu / s**2,
        "GammaMixed_xi.112": 8 * mu**2 * s**4 + (4 * mu + 1) / (2 * s**2),
        "GammaMixed_xi.121": 1 / (2 * s**2),
        "GammaMixed_xi.122": Fr(0),
        "GammaMixed_xi.211": (-2 * mu**2 + mu - 3 * s**8 - 6 * mu**2 * s**6) / s**8,
        "GammaMixed_xi.212": -mu / s**2,
        "GammaMixed_xi.221": mu / s**2,
        "GammaMixed_xi.222": Fr(0),
        "R_xi.1221": mu / s**6,
        "R_xi.1212": 1 / (2 * s**6),
        "R_xi.2112": (6 * s**8 + 3 * mu * s**6 + 6 * mu**2 * s**6 + 6 * mu**2) / (4 * s**14),
        "R_xi.2111": (
            -2 * s**8 + 2 * mu**2 * s**6 + 46 * mu**2 * s**8 + 24 * mu**4 * s**6
            + 12 * mu**2 * s**2 - 4 * mu * s**2 + 6 * s**10 + 12 * mu**4
            - 3 * mu**2 + 9 * mu * s**8 + 18 * mu**3 * s**6
        ) / (2 * s**14),
        "K": (
            16 * mu**2 * s**8 + 12 * mu**4 + 6 * s**10 - mu * s**8
            - 2 * mu**2 * s**2 + 10 * mu**3 * s**6 + 92 * mu**3 * s**8
            + 48 * mu**5 * s**6 + 12 * mu * s**10 + 24 * mu**5 - 6 * mu**3
        ) / (4 * s**10),
    }
    entries = {**paper_metric_xi(p), **paper_christoffel_xi(p), **paper_riemann_xi(p)}
    for qid, frac in expected.items():
        ref = float(frac)
        assert abs(entries[qid] - ref) <= 1e-12 * max(1.0, abs(ref)), qid
    # spot values
    assert abs(paper_christoffel_xi(ParamPoint.theta(1, 1))["Gamma_xi.111"] - 10.0) < 1e-12
    assert abs(paper_riemann_xi(ParamPoint.theta(0.8, 1.0))["R_xi.1212"] - 0.5) < 1e-12
    assert abs(paper_riemann_xi(ParamPoint.theta(0, 1))["K"] - 1.5) < 1e-12
    _report(3, "published table replicated as rational functions, spot values to 1e-12")


def test_criterion_4_score_identities(rng):
    # the package's scores (its kernels), the published dual-chart basis (an oracle),
    # and the package's -E[dd l] against the oracle's E[dl dl]
    for p in random_theta_points(rng, 10):
        mu, s = p.c1, p.c2
        for comp in range(2):
            assert abs(GH.expect(lambda x, c=comp: _score_parts(x - mu, s)[c], p)) < 1e-9
            assert abs(GH.expect(lambda x, c=comp: _pullback_parts(x - mu, mu, s)[c], p)) < 1e-9
            assert abs(GH.expect(lambda x, c=comp: oracles.published_score_xi(x, mu, s)[c],
                                 p)) < 1e-9
        minus_h = fisher_metric_theta(p, GH).g
        for i in range(2):
            for j in range(2):
                rhs = GH.expect(lambda x: oracles.gaussian_score(x, mu, s)[i]
                                * oracles.gaussian_score(x, mu, s)[j], p)
                assert abs(minus_h[i, j] - rhs) < 1e-9
    _report(4, "score expectations < 1e-9 in both charts; information identity to 1e-9")


def test_criterion_5_geometry_oracle_suite(rng):
    start = time.perf_counter()
    points = random_theta_points(rng, 10)

    # (a) Levi-Civita torsion vanishes exactly
    for p in points:
        assert not np.asarray(torsion(levi_civita(THETA_FIELD, p)).t).any()
        assert not np.asarray(torsion(levi_civita(XI_FIELD, chart_forward(p))).t).any()

    # (b) unit sphere fixture: +1 to 1e-8
    sphere = lambda a, b: [[1.0, 0.0], [0.0, sin(a) * sin(a)]]
    assert abs(riemann_levi_civita(sphere, ParamPoint.theta(math.pi / 3, 1.0)).scalar - 1.0) < 1e-8

    # (c) Fisher-Rao scalar curvature -1/2 in BOTH charts to 1e-8
    for p in points:
        assert abs(riemann_levi_civita(THETA_FIELD, p).scalar + 0.5) < 1e-8
        assert abs(riemann_levi_civita(XI_FIELD, chart_forward(p)).scalar + 0.5) < 1e-8

    # (d) two-path connection and curvature consistency to 1e-8
    for p in points:
        q = chart_forward(p)
        jac, jac_inv = jacobian(p)
        pushed = transform_connection(
            levi_civita(THETA_FIELD, p), jac, jac_inv,
            chart_second_derivatives(p), fisher_metric_theta(p), q,
        )
        native = levi_civita(XI_FIELD, q)
        scale = max(1.0, float(np.max(np.abs(native.mixed))))
        assert np.max(np.abs(pushed.mixed - native.mixed)) < 1e-8 * scale
        pushed_r = oracles.lower_tensor4_law(riemann_levi_civita(THETA_FIELD, p).r, jac_inv)
        native_r = riemann_levi_civita(XI_FIELD, q).r
        scale = max(1.0, float(np.max(np.abs(native_r))))
        assert np.max(np.abs(pushed_r - native_r)) < 1e-8 * scale

    # (e) determinant transformation identity to 1e-10
    for p in points:
        jac, jac_inv = jacobian(p)
        m_th = fisher_metric_theta(p)
        m_xi = transform_metric(m_th, jac_inv, chart_forward(p))
        expected = m_th.det / float(np.linalg.det(jac)) ** 2
        assert abs(m_xi.det - expected) < 1e-10 * max(1.0, abs(expected))

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(5, f"torsion exact, sphere +1, both-chart -1/2, two-path, det identity ({elapsed:.2f}s)")


def test_criterion_6_audit_behaviour():
    report = audit(ParamPoint.theta(0, 1))
    for row in report.rows:
        if row.quantity.startswith("G_d"):
            assert row.verdict == MATCH
    k = report.row("K")
    assert k.verdict == MISMATCH and abs(k.abs_gap - 2.0) < 1e-9
    t = report.row("T_xi.max_abs")
    assert t.paper == 0.0 and t.oracle == 0.0 and t.verdict == MATCH
    assert "discrepancy" in t.note  # documented, not an error

    # the same behaviour through the command-line surface
    res = subprocess.run(
        [sys.executable, "-m", "igeo.cli", "audit", "--point", "0,1", "--format", "json"],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    rows = {r["quantity"]: r for r in doc["records"]}
    assert rows["K"]["verdict"] == "MISMATCH"
    assert all(rows[f"G_d.{ij}"]["verdict"] == "MATCH" for ij in ("11", "12", "21", "22"))
    strict = subprocess.run(
        [sys.executable, "-m", "igeo.cli", "audit", "--point", "0,1", "--strict"],
        capture_output=True, text=True, timeout=120,
    )
    assert strict.returncode == 3
    _report(6, "metric rows MATCH, K row MISMATCH with gap 2.0, torsion flagged; strict exit 3")


def test_criterion_7_determinism():
    args = [sys.executable, "-m", "igeo.cli", "metric", "--point", "0.5,1.5",
            "--engine", "monte_carlo:200000:424242", "--format", "json"]
    a = subprocess.run(args, capture_output=True, text=True, timeout=120)
    b = subprocess.run(args, capture_output=True, text=True, timeout=120)
    assert a.returncode == b.returncode == 0
    assert a.stdout.encode() == b.stdout.encode()
    _report(7, "identical config and seed give byte-identical JSON")
