"""Literal transcription of the published dual-chart table, plus the audit.

The table holds every closed-form value the reference source prints for the
dual chart: the metric matrix, its stated determinant and inverse, eight
all-lower connection coefficients, eight mixed Christoffel coefficients,
sixteen curvature components, and the scalar.  Formulas are transcribed
verbatim, including entries that are dimensionally inconsistent; no attempt
is made to repair them.  Correctness judgments live only in the audit, which
pairs each entry with an independently computed oracle value and records the
gap without deciding which side is right.

Quantity ids: ``G_d.11 .. G_d.22``, ``G_d.det``, ``G_d_inv.11 .. G_d_inv.22``,
``Gamma_xi.abc`` (all-lower, indices alpha beta gamma), ``GammaMixed_xi.cab``
(first index is the upper one), ``R_xi.abcd``, and ``K``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Chart, DEFAULT_TOLERANCES, ParamPoint, Tolerances
from .geometry import (
    _levi_civita_and_riemann,
    torsion,
    transform_connection,
    transform_lower_tensor3,
    transform_metric,
)
from .models import (
    _require_theta,
    chart_forward,
    chart_second_derivatives,
    conn_expectation_theta,
    fisher_metric_field,
    fisher_metric_theta,
    jacobian,
)

_METRIC_IDS = (
    "G_d.11", "G_d.12", "G_d.21", "G_d.22", "G_d.det",
    "G_d_inv.11", "G_d_inv.12", "G_d_inv.21", "G_d_inv.22",
)
_LOWER_IDS = tuple(f"Gamma_xi.{i}{j}{k}" for i in (1, 2) for j in (1, 2) for k in (1, 2))
_MIXED_IDS = tuple(f"GammaMixed_xi.{k}{i}{j}" for k in (1, 2) for i in (1, 2) for j in (1, 2))
_R_IDS = tuple(
    f"R_xi.{i}{j}{k}{m}" for i in (1, 2) for j in (1, 2) for k in (1, 2) for m in (1, 2)
)
QUANTITY_IDS = _METRIC_IDS + _LOWER_IDS + _MIXED_IDS + _R_IDS + ("K",)

#: Curvature component absent from the published list; recorded as zero.
UNPRINTED_R_ID = "R_xi.1222"


@dataclass(frozen=True)
class PaperTable:
    """Published values evaluated at one natural-chart point."""

    point: ParamPoint
    entries: dict[str, float]


def paper_metric_xi(p: ParamPoint) -> dict[str, float]:
    """Published dual-chart metric, stated determinant, and stated inverse.

    The determinant entry reproduces the printed formula 1/(2 sigma^2); it is
    transcribed as printed even though it only agrees with the determinant of
    the printed matrix at sigma = 1.
    """
    mu, s = _require_theta(p)
    g11 = (s * s + 2.0 * mu * mu) / s**4
    g12 = -mu / s**4
    g22 = 1.0 / (2.0 * s**4)
    return {
        "G_d.11": g11,
        "G_d.12": g12,
        "G_d.21": g12,
        "G_d.22": g22,
        "G_d.det": 1.0 / (2.0 * s * s),
        "G_d_inv.11": s * s,
        "G_d_inv.12": 2.0 * mu * s * s,
        "G_d_inv.21": 2.0 * mu * s * s,
        "G_d_inv.22": 2.0 * s**4 + 4.0 * mu * mu * s * s,
    }


def paper_christoffel_xi(p: ParamPoint) -> dict[str, float]:
    """Published dual-chart connection coefficients, lower and mixed."""
    mu, s = _require_theta(p)
    lower = {
        "Gamma_xi.111": (4.0 * mu * s * s + 6.0 * mu**3) / s**6,
        "Gamma_xi.112": -3.0 * mu * mu / s**6,
        "Gamma_xi.121": -1.0 / s**4 - 3.0 * mu * mu / s**6,
        "Gamma_xi.122": 3.0 * mu / (2.0 * s**6),
        "Gamma_xi.211": -1.0 / s**4 - 3.0 * mu * mu / s**6,
        "Gamma_xi.212": 3.0 * mu / (2.0 * s**6),
        "Gamma_xi.221": 3.0 * mu / (2.0 * s**6),
        "Gamma_xi.222": -3.0 / (4.0 * s**6),
    }
    mixed = {
        "GammaMixed_xi.111": mu / (s * s),
        "GammaMixed_xi.112": 8.0 * mu * mu * s**4 + (4.0 * mu + 1.0) / (2.0 * s * s),
        "GammaMixed_xi.121": 1.0 / (2.0 * s * s),
        "GammaMixed_xi.122": 0.0,
        "GammaMixed_xi.211": (-2.0 * mu * mu + mu - 3.0 * s**8 - 6.0 * mu * mu * s**6) / s**8,
        "GammaMixed_xi.212": -mu / (s * s),
        "GammaMixed_xi.221": mu / (s * s),
        "GammaMixed_xi.222": 0.0,
    }
    return {**lower, **mixed}


def paper_riemann_xi(p: ParamPoint) -> dict[str, float]:
    """Published dual-chart curvature components and scalar.

    Eleven components are listed as zero and four are given explicitly;
    R_xi.1222 never appears in the published list and is recorded as zero.
    """
    mu, s = _require_theta(p)
    out = {rid: 0.0 for rid in _R_IDS}
    out["R_xi.1221"] = mu / s**6
    out["R_xi.1212"] = 1.0 / (2.0 * s**6)
    out["R_xi.2112"] = (
        6.0 * s**8 + 3.0 * mu * s**6 + 6.0 * mu * mu * s**6 + 6.0 * mu * mu
    ) / (4.0 * s**14)
    out["R_xi.2111"] = (
        -2.0 * s**8 + 2.0 * mu**2 * s**6 + 46.0 * mu**2 * s**8 + 24.0 * mu**4 * s**6
        + 12.0 * mu**2 * s**2 - 4.0 * mu * s**2 + 6.0 * s**10 + 12.0 * mu**4
        - 3.0 * mu**2 + 9.0 * mu * s**8 + 18.0 * mu**3 * s**6
    ) / (2.0 * s**14)
    out["K"] = (
        16.0 * mu**2 * s**8 + 12.0 * mu**4 + 6.0 * s**10 - mu * s**8
        - 2.0 * mu**2 * s**2 + 10.0 * mu**3 * s**6 + 92.0 * mu**3 * s**8
        + 48.0 * mu**5 * s**6 + 12.0 * mu * s**10 + 24.0 * mu**5 - 6.0 * mu**3
    ) / (4.0 * s**10)
    return out


def paper_table(p: ParamPoint) -> PaperTable:
    """All published quantities at one point, keyed by canonical id."""
    entries = {**paper_metric_xi(p), **paper_christoffel_xi(p), **paper_riemann_xi(p)}
    assert tuple(entries) == QUANTITY_IDS  # canonical order, each id exactly once
    return PaperTable(point=p, entries=entries)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

MATCH = "MATCH"
MISMATCH = "MISMATCH"


@dataclass(frozen=True)
class AuditRow:
    quantity: str
    paper: float
    oracle: float
    abs_gap: float
    rel_gap: float
    verdict: str
    oracle_label: str
    note: str | None = None


@dataclass(frozen=True)
class AuditReport:
    point: ParamPoint
    rows: tuple[AuditRow, ...]
    notes: tuple[str, ...]

    @property
    def mismatches(self) -> tuple[AuditRow, ...]:
        return tuple(r for r in self.rows if r.verdict == MISMATCH)

    def row(self, quantity: str, oracle_label: str | None = None) -> AuditRow:
        for r in self.rows:
            if r.quantity == quantity and (oracle_label is None or r.oracle_label == oracle_label):
                return r
        raise KeyError(quantity)


def _row(quantity, paper, oracle, abs_tol, rel_tol, label, note=None) -> AuditRow:
    gap = abs(paper - oracle)
    denom = max(abs(paper), abs(oracle))
    rel = gap / denom if denom > 0.0 else 0.0
    verdict = MATCH if (gap <= abs_tol or rel <= rel_tol) else MISMATCH
    return AuditRow(quantity, float(paper), float(oracle), float(gap), float(rel),
                    verdict, label, note)


def audit(p: ParamPoint, tol: Tolerances = DEFAULT_TOLERANCES) -> AuditReport:
    """Compare every published entry against an independent oracle.

    Oracles: the bilinear tensor law for the metric (plus its honest
    determinant and inverse); BOTH the (0,3)-tensor law and the proper
    inhomogeneous connection law for the lower coefficients, since a
    connection is not a tensor and the published derivation is ambiguous on
    this point; and the Levi-Civita connection computed natively from the
    dual-chart metric field for the mixed coefficients, the curvature, and
    the scalar.  The report records gaps; it never asserts which side is
    correct.
    """
    table = paper_table(p)
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

    rows: list[AuditRow] = []
    e = table.entries

    oracle_metric = {
        "G_d.11": metric_or.g[0, 0], "G_d.12": metric_or.g[0, 1],
        "G_d.21": metric_or.g[1, 0], "G_d.22": metric_or.g[1, 1],
        "G_d.det": metric_or.det,
        "G_d_inv.11": metric_or.g_inv[0, 0], "G_d_inv.12": metric_or.g_inv[0, 1],
        "G_d_inv.21": metric_or.g_inv[1, 0], "G_d_inv.22": metric_or.g_inv[1, 1],
    }
    for qid in _METRIC_IDS:
        rows.append(_row(qid, e[qid], oracle_metric[qid],
                         tol.closed_form_abs, tol.rel, "transform_metric"))

    for qid in _LOWER_IDS:
        i, j, k = (int(c) - 1 for c in qid.split(".")[1])
        rows.append(_row(qid, e[qid], lower_tensor[i, j, k],
                         tol.closed_form_abs, tol.rel, "tensor_law"))
        rows.append(_row(qid, e[qid], lower_conn[i, j, k],
                         tol.derived_abs, tol.rel, "connection_law"))

    for qid in _MIXED_IDS:
        k, i, j = (int(c) - 1 for c in qid.split(".")[1])
        rows.append(_row(qid, e[qid], lc_xi.mixed[k, i, j],
                         tol.derived_abs, tol.rel, "native_levi_civita"))

    for qid in _R_IDS:
        i, j, k, m = (int(c) - 1 for c in qid.split(".")[1])
        note = None
        if qid == UNPRINTED_R_ID:
            note = "component absent from the published list; recorded as zero"
        rows.append(_row(qid, e[qid], riem_xi.r[i, j, k, m],
                         tol.derived_abs, tol.rel, "native_levi_civita", note))

    rows.append(_row("K", e["K"], riem_xi.scalar,
                     tol.derived_abs, tol.rel, "native_levi_civita"))

    # torsion of the published lower coefficients, via T_ijk = G_ijk - G_jik
    paper_lower = np.array(
        [[[e[f"Gamma_xi.{i}{j}{k}"] for k in (1, 2)] for j in (1, 2)] for i in (1, 2)]
    )
    t_paper = float(np.max(np.abs(paper_lower - paper_lower.transpose(1, 0, 2))))
    t_oracle = float(np.max(np.abs(torsion(lc_xi).t)))
    torsion_note = (
        "the source asserts nonzero dual-chart torsion, but its own printed "
        "coefficients give exactly zero under T_ijk = Gamma_ijk - Gamma_jik; "
        "documented discrepancy, not a numerical error"
    )
    rows.append(_row("T_xi.max_abs", t_paper, t_oracle,
                     tol.closed_form_abs, tol.rel, "native_levi_civita", torsion_note))

    notes = (
        torsion_note,
        "the scalar entry K varies with the point, while the scalar curvature "
        "of a Levi-Civita connection is chart-invariant (-1/2 for this family); "
        "the gap is reported without deciding authorial intent",
    )
    return AuditReport(point=p, rows=tuple(rows), notes=notes)
