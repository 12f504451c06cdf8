"""Audit behaviour: verdicts, gaps, determinism, documented discrepancies."""

import math

import numpy as np
import pytest

from igeo import (Chart, ParamPoint, Tolerances, audit, chart_forward, fisher_metric_field,
                  levi_civita, riemann_levi_civita, torsion)
from igeo import papertable
from igeo.papertable import MATCH, MISMATCH

P01 = ParamPoint.theta(0, 1)
P11 = ParamPoint.theta(1, 1)


@pytest.fixture(scope="module")
def report01():
    return audit(P01)


@pytest.fixture(scope="module")
def report11():
    return audit(P11)


class TestMetricRows:
    def test_all_match_at_standard_point(self, report01):
        for row in report01.rows:
            if row.quantity.startswith("G_d"):
                assert row.verdict == MATCH
                assert row.abs_gap < 1e-10

    def test_all_match_off_axis(self, report11):
        # determinant row included: printed formula coincides at sigma = 1
        for row in report11.rows:
            if row.quantity.startswith("G_d"):
                assert row.verdict == MATCH

    def test_determinant_mismatches_away_from_unit_sigma(self):
        report = audit(ParamPoint.theta(0.5, 2.0))
        row = report.row("G_d.det")
        assert row.verdict == MISMATCH
        assert row.paper == pytest.approx(0.125)         # printed 1/(2 sigma^2)
        assert row.oracle == pytest.approx(1.0 / 128.0)  # det of the transformed matrix
        # the matrix rows still match even where the determinant row does not
        assert report.row("G_d.11").verdict == MATCH
        assert report.row("G_d_inv.22").verdict == MATCH


class TestConnectionRows:
    def test_tensor_law_rows_match(self, report11):
        for row in report11.rows:
            if row.oracle_label == "tensor_law":
                assert row.verdict == MATCH

    def test_connection_law_records_gaps(self, report01):
        # proper transport disagrees where the inhomogeneous term enters
        row = report01.row("Gamma_xi.112", "connection_law")
        assert row.verdict == MISMATCH
        assert row.oracle == pytest.approx(-1.0, abs=1e-10)
        row = report01.row("Gamma_xi.222", "connection_law")
        assert row.verdict == MISMATCH
        assert row.oracle == pytest.approx(-1.0, abs=1e-10)
        # components untouched by the inhomogeneous term still agree
        assert report01.row("Gamma_xi.121", "connection_law").verdict == MATCH

    def test_every_lower_row_is_audited_under_both_laws(self, report01):
        for i in (1, 2):
            for j in (1, 2):
                for k in (1, 2):
                    qid = f"Gamma_xi.{i}{j}{k}"
                    labels = {r.oracle_label for r in report01.rows if r.quantity == qid}
                    assert labels == {"tensor_law", "connection_law"}


class TestCurvatureRows:
    def test_scalar_row(self, report01):
        row = report01.row("K")
        assert row.verdict == MISMATCH
        assert row.paper == 1.5
        assert row.oracle == pytest.approx(-0.5, abs=1e-10)
        assert row.abs_gap == pytest.approx(2.0, abs=1e-9)

    def test_r_1212_row(self, report01):
        row = report01.row("R_xi.1212")
        assert row.paper == 0.5
        assert row.oracle == pytest.approx(0.25, abs=1e-10)
        assert row.verdict == MISMATCH

    def test_unprinted_component_is_noted(self, report01):
        row = report01.row("R_xi.1222")
        assert row.note is not None and "absent" in row.note


class TestTorsionRow:
    def test_zero_and_flagged(self, report01):
        row = report01.row("T_xi.max_abs")
        assert row.paper == 0.0 and row.oracle == 0.0
        assert row.verdict == MATCH
        assert "discrepancy" in row.note
        assert any("torsion" in n for n in report01.notes)


class TestDeterminism:
    def test_identical_reports(self):
        p = ParamPoint.theta(0.3, 1.4)
        a, b = audit(p), audit(p)
        assert len(a.rows) == len(b.rows)
        for ra, rb in zip(a.rows, b.rows):
            assert ra == rb

    def test_row_count(self, report01):
        # 9 metric + 16 lower (two laws) + 8 mixed + 16 R + K + torsion
        assert len(report01.rows) == 51

    def test_mismatch_listing(self, report01):
        assert {r.quantity for r in report01.mismatches} >= {"K", "R_xi.1212"}


class TestTolerances:
    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["closed_form_abs", "derived_abs", "rel"])
    def test_refuses_negative_and_non_finite(self, name, bad):
        with pytest.raises(ValueError, match=f"tolerance {name} must be finite and >= 0"):
            Tolerances(**{name: bad})

    def test_zero_gate_matches_only_exact_rows(self):
        report = audit(P01, Tolerances(0.0, 0.0, 0.0))
        assert all((row.verdict == MATCH) == (row.abs_gap == 0.0 or row.rel_gap == 0.0)
                   for row in report.rows)


class TestDualChartJet:
    """The audit takes the dual-chart connection and curvature from one field jet."""

    def test_one_field_evaluation_per_point(self, monkeypatch):
        calls = []

        def counting(chart):
            field = fisher_metric_field(chart)

            def traced(a, b):
                calls.append(chart)
                return field(a, b)
            return traced

        monkeypatch.setattr(papertable, "fisher_metric_field", counting)
        audit(ParamPoint.theta(0.3, 1.4))
        assert calls == [Chart.XI]

    def test_oracles_equal_the_public_kernels(self):
        p = ParamPoint.theta(-0.7, 0.6)
        report, q = audit(p), chart_forward(p)
        field = fisher_metric_field(Chart.XI)
        conn, riem = levi_civita(field, q), riemann_levi_civita(field, q)
        for k, i, j in np.ndindex(2, 2, 2):
            row = report.row(f"GammaMixed_xi.{k + 1}{i + 1}{j + 1}")
            assert row.oracle == float(conn.mixed[k, i, j])
        for i, j, k, m in np.ndindex(2, 2, 2, 2):
            row = report.row(f"R_xi.{i + 1}{j + 1}{k + 1}{m + 1}")
            assert row.oracle == float(riem.r[i, j, k, m])
        assert report.row("K").oracle == float(riem.scalar)
        assert report.row("T_xi.max_abs").oracle == float(np.max(np.abs(torsion(conn).t)))
