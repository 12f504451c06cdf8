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

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import _pow, batch_array
from .core import Chart, DEFAULT_TOLERANCES, ParamPoint, Tolerances
from .geometry import (
    _levi_civita_and_riemann,
    _lower_laws,
    torsion,
    transform_metric,
)
from .models import (
    _closed_form_lower,
    _require,
    chart_forward,
    chart_second_derivatives,
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


def paper_metric_xi(p: ParamPoint) -> dict[str, float]:
    """Published dual-chart metric, stated determinant, and stated inverse.

    The determinant entry reproduces the printed formula 1/(2 sigma^2); it is
    transcribed as printed even though it only agrees with the determinant of
    the printed matrix at sigma = 1.
    """
    mu, s = _require(p, Chart.THETA)
    # each power of sigma is taken once, up front: it can only overflow, and only
    # where no denominator below is zero, so a point raises the error it raised before
    s4 = _pow(s, 4)
    g11 = (s * s + 2.0 * mu * mu) / s4
    g12 = -mu / s4
    g22 = 1.0 / (2.0 * s4)
    return {
        "G_d.11": g11,
        "G_d.12": g12,
        "G_d.21": g12,
        "G_d.22": g22,
        "G_d.det": 1.0 / (2.0 * s * s),
        "G_d_inv.11": s * s,
        "G_d_inv.12": 2.0 * mu * s * s,
        "G_d_inv.21": 2.0 * mu * s * s,
        "G_d_inv.22": 2.0 * s4 + 4.0 * mu * mu * s * s,
    }


def paper_christoffel_xi(p: ParamPoint) -> dict[str, float]:
    """Published dual-chart connection coefficients, lower and mixed."""
    mu, s = _require(p, Chart.THETA)
    s4, s6, s8 = _pow(s, 4), _pow(s, 6), _pow(s, 8)
    lower = {
        "Gamma_xi.111": (4.0 * mu * s * s + 6.0 * _pow(mu, 3)) / s6,
        "Gamma_xi.112": -3.0 * mu * mu / s6,
        "Gamma_xi.121": -1.0 / s4 - 3.0 * mu * mu / s6,
        "Gamma_xi.122": 3.0 * mu / (2.0 * s6),
        "Gamma_xi.211": -1.0 / s4 - 3.0 * mu * mu / s6,
        "Gamma_xi.212": 3.0 * mu / (2.0 * s6),
        "Gamma_xi.221": 3.0 * mu / (2.0 * s6),
        "Gamma_xi.222": -3.0 / (4.0 * s6),
    }
    mixed = {
        "GammaMixed_xi.111": mu / (s * s),
        "GammaMixed_xi.112": 8.0 * mu * mu * s4 + (4.0 * mu + 1.0) / (2.0 * s * s),
        "GammaMixed_xi.121": 1.0 / (2.0 * s * s),
        "GammaMixed_xi.122": 0.0,
        "GammaMixed_xi.211": (-2.0 * mu * mu + mu - 3.0 * s8 - 6.0 * mu * mu * s6) / s8,
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
    mu, s = _require(p, Chart.THETA)
    s2, s6, s8, s10, s14 = _pow(s, 2), _pow(s, 6), _pow(s, 8), _pow(s, 10), _pow(s, 14)
    out = {rid: 0.0 for rid in _R_IDS}
    out["R_xi.1221"] = mu / s6
    out["R_xi.1212"] = 1.0 / (2.0 * s6)
    out["R_xi.2112"] = (6.0 * s8 + 3.0 * mu * s6 + 6.0 * mu * mu * s6 + 6.0 * mu * mu) / (4.0 * s14)
    out["R_xi.2111"] = (
        -2.0 * s8 + 2.0 * _pow(mu, 2) * s6 + 46.0 * _pow(mu, 2) * s8
        + 24.0 * _pow(mu, 4) * s6 + 12.0 * _pow(mu, 2) * s2
        - 4.0 * mu * s2 + 6.0 * s10 + 12.0 * _pow(mu, 4) - 3.0 * _pow(mu, 2)
        + 9.0 * mu * s8 + 18.0 * _pow(mu, 3) * s6
    ) / (2.0 * s14)
    out["K"] = (
        16.0 * _pow(mu, 2) * s8 + 12.0 * _pow(mu, 4) + 6.0 * s10
        - mu * s8 - 2.0 * _pow(mu, 2) * s2 + 10.0 * _pow(mu, 3) * s6
        + 92.0 * _pow(mu, 3) * s8 + 48.0 * _pow(mu, 5) * s6
        + 12.0 * mu * s10 + 24.0 * _pow(mu, 5) - 6.0 * _pow(mu, 3)
    ) / (4.0 * s10)
    return out


def paper_table(p: ParamPoint) -> dict[str, float]:
    """All published quantities at a point (arrays for a block), keyed by canonical id."""
    entries = {**paper_metric_xi(p), **paper_christoffel_xi(p), **paper_riemann_xi(p)}
    assert tuple(entries) == QUANTITY_IDS  # canonical order, each id exactly once
    return entries


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

MATCH = "MATCH"
MISMATCH = "MISMATCH"


class AuditRow(NamedTuple):
    quantity: str
    paper: float
    oracle: float
    abs_gap: float
    rel_gap: float
    verdict: str
    oracle_label: str
    note: str | None = None


@dataclass(frozen=True, eq=False)
class AuditReport:
    """The audit of a point, as columns over its rows in ``ROWS`` order.

    ``paper``, ``oracle``, ``abs_gap``, ``rel_gap`` and ``match`` each have the
    block's shape + (len(ROWS),); ``rows`` reads them as ``AuditRow``s, each
    point's rows in point order.
    """

    point: ParamPoint
    paper: np.ndarray
    oracle: np.ndarray
    abs_gap: np.ndarray
    rel_gap: np.ndarray
    match: np.ndarray
    notes: tuple[str, ...]

    @property
    def rows(self) -> "AuditRows":
        return AuditRows(self)

    @property
    def mismatches(self) -> tuple[AuditRow, ...]:
        return tuple(self.rows[i] for i in np.flatnonzero(~self.match))

    def row(self, quantity: str, oracle_label: str | None = None) -> AuditRow:
        """The first point's row of this quantity (and oracle label)."""
        for i, (qid, label, _, _) in enumerate(ROWS):
            if qid == quantity and (oracle_label is None or label == oracle_label):
                return self.rows[i]
        raise KeyError(quantity)


class AuditRows(Sequence):
    """The rows of an ``AuditReport``, each built from its columns as it is read."""

    def __init__(self, report: AuditReport):
        self._report = report

    def __len__(self) -> int:
        return self._report.match.size

    def __getitem__(self, i: int | slice) -> AuditRow | tuple[AuditRow, ...]:
        if isinstance(i, slice):  # a tuple of rows, as a slice of a tuple
            return tuple(self[k] for k in range(len(self))[i])
        i = range(len(self))[i]  # a tuple's IndexError and negative indices
        r = self._report
        qid, label, _, note = ROWS[i % len(ROWS)]
        values = [np.ravel(a)[i].item() for a in (r.paper, r.oracle, r.abs_gap, r.rel_gap)]
        return AuditRow(qid, *values, MATCH if np.ravel(r.match)[i] else MISMATCH, label, note)

    def __iter__(self):
        r = self._report
        columns = zip(*(np.ravel(a).tolist()
                        for a in (r.paper, r.oracle, r.abs_gap, r.rel_gap, r.match)))
        for (qid, label, _, note), (*values, ok) in zip(itertools.cycle(ROWS), columns):
            yield AuditRow(qid, *values, MATCH if ok else MISMATCH, label, note)


_TORSION_NOTE = (
    "the source asserts nonzero dual-chart torsion, but its own printed "
    "coefficients give exactly zero under T_ijk = Gamma_ijk - Gamma_jik; "
    "documented discrepancy, not a numerical error"
)
NOTES = (
    _TORSION_NOTE,
    "the scalar entry K varies with the point, while the scalar curvature "
    "of a Levi-Civita connection is chart-invariant (-1/2 for this family); "
    "the gap is reported without deciding authorial intent",
)

# the rows of one point in order, as (quantity, oracle label, derived, note): a
# derived row is gated by derived_abs, the others by closed_form_abs; each lower
# coefficient is audited under both transport laws
ROWS = (
    [(qid, "transform_metric", False, None) for qid in _METRIC_IDS]
    + [(qid, label, derived, None) for qid in _LOWER_IDS
       for label, derived in (("tensor_law", False), ("connection_law", True))]
    + [(qid, "native_levi_civita", True,
        "component absent from the published list; recorded as zero"
        if qid == UNPRINTED_R_ID else None) for qid in _MIXED_IDS + _R_IDS + ("K",)]
    + [("T_xi.max_abs", "native_levi_civita", False, _TORSION_NOTE)]
)
_DERIVED = np.array([derived for _, _, derived, _ in ROWS])
_PAPER_IDS = tuple(qid for qid, *_ in ROWS[:-1])  # the rows but the torsion's, which is computed


def audit(p: ParamPoint, tol: Tolerances = DEFAULT_TOLERANCES) -> AuditReport:
    """Compare every published entry against an independent oracle.

    Oracles: the bilinear tensor law for the metric (plus its honest
    determinant and inverse); BOTH the (0,3)-tensor law and the proper
    inhomogeneous connection law for the lower coefficients, since a
    connection is not a tensor and the published derivation is ambiguous on
    this point; and the Levi-Civita connection computed natively from the
    dual-chart metric field for the mixed coefficients, the curvature, and
    the scalar.  The report records gaps; it never asserts which side is
    correct.  A block point is audited at once, each row a column over the
    block, and every point gets the rows it gets alone.
    """
    e = paper_table(p)
    q = chart_forward(p)
    _, jac_inv = jacobian(p)
    metric_th = fisher_metric_theta(p)
    metric_or = transform_metric(metric_th, jac_inv, q)

    # the lower coefficients under both laws, as transform_connection takes the second
    lower_tensor, lower_conn = _lower_laws(_closed_form_lower(p.c2), chart_second_derivatives(q),
                                           jac_inv, metric_th)

    lc_xi, riem_xi = _levi_civita_and_riemann(fisher_metric_field(Chart.XI), q)

    # torsion of the published lower coefficients, via T_ijk = G_ijk - G_jik
    paper_lower = batch_array([e[qid] for qid in _LOWER_IDS], (2, 2, 2))
    t_paper = paper_lower - paper_lower.swapaxes(-3, -2)
    paper = batch_array([e[qid] for qid in _PAPER_IDS]
                        + [np.abs(t_paper).max(axis=(-3, -2, -1))], (len(ROWS),))
    # each oracle's components in C order, the two laws side by side
    block = np.shape(p.c1)
    laws = np.concatenate([lower_tensor[..., None], lower_conn[..., None]], axis=-1)
    oracle = np.concatenate([a.reshape(block + (-1,)) for a in (
        metric_or.g, metric_or.det, metric_or.g_inv, laws, lc_xi.mixed, riem_xi.r,
        riem_xi.scalar, np.abs(torsion(lc_xi).t).max(axis=(-3, -2, -1)),
    )], axis=-1)

    gap = np.abs(paper - oracle)
    abs_paper, abs_oracle = np.abs(paper), np.abs(oracle)
    # max(|paper|, |oracle|) as Python's max() takes it: |oracle| only where it is larger
    denom = np.where(abs_oracle > abs_paper, abs_oracle, abs_paper)
    rel = np.divide(gap, denom, out=np.zeros_like(gap), where=denom > 0.0)
    gate = np.where(_DERIVED, tol.derived_abs, tol.closed_form_abs)
    match = (gap <= gate) | (rel <= tol.rel)
    return AuditReport(p, paper, oracle, gap, rel, match, NOTES)
