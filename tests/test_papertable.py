"""The transcribed table: completeness, spot values, replication identities."""

import numpy as np
import pytest

from igeo import (
    ParamPoint,
    QUANTITY_IDS,
    chart_forward,
    conn_expectation_theta,
    fisher_metric_theta,
    jacobian,
    paper_christoffel_xi,
    paper_metric_xi,
    paper_riemann_xi,
    paper_table,
    transform_lower_tensor3,
    transform_metric,
)

from conftest import random_theta_points

P01 = ParamPoint.theta(0, 1)
P11 = ParamPoint.theta(1, 1)


class TestCompleteness:
    def test_canonical_ids_present_exactly_once(self):
        table = paper_table(ParamPoint.theta(0.3, 1.2))
        assert tuple(table.keys()) == QUANTITY_IDS
        assert len(QUANTITY_IDS) == len(set(QUANTITY_IDS)) == 42
        # 2x2 metric + det + 2x2 inverse, 8 lower, 8 mixed, 16 R, scalar
        assert sum(q.startswith("G_d.") for q in QUANTITY_IDS) == 5
        assert sum(q.startswith("G_d_inv.") for q in QUANTITY_IDS) == 4
        assert sum(q.startswith("Gamma_xi.") for q in QUANTITY_IDS) == 8
        assert sum(q.startswith("GammaMixed_xi.") for q in QUANTITY_IDS) == 8
        assert sum(q.startswith("R_xi.") for q in QUANTITY_IDS) == 16

    def test_bit_identical_reevaluation(self):
        p = ParamPoint.theta(-0.7, 1.9)
        first = paper_table(p)
        second = paper_table(p)
        assert first == second  # pure rational functions of the point


class TestMetricEntries:
    def test_standard_point(self):
        e = paper_metric_xi(P01)
        assert e["G_d.11"] == 1.0 and e["G_d.12"] == 0.0 and e["G_d.22"] == 0.5
        assert e["G_d.det"] == 0.5
        assert e["G_d_inv.11"] == 1.0 and e["G_d_inv.22"] == 2.0
        assert e["G_d_inv.12"] == 0.0

    def test_off_axis_point(self):
        e = paper_metric_xi(P11)
        assert e["G_d.11"] == 3.0 and e["G_d.12"] == -1.0 and e["G_d.22"] == 0.5

    def test_stated_determinant_formula(self):
        # transcribed as printed: 1/(2 sigma^2), sigma = 2 gives 1/8
        assert paper_metric_xi(ParamPoint.theta(0, 2))["G_d.det"] == 0.125

    def test_matrix_matches_transform_oracle(self, rng):
        for p in random_theta_points(rng, 10):
            e = paper_metric_xi(p)
            m = transform_metric(fisher_metric_theta(p), jacobian(p)[1], chart_forward(p))
            assert abs(e["G_d.11"] - m.g[0, 0]) < 1e-12 * max(1, abs(m.g[0, 0]))
            assert abs(e["G_d.12"] - m.g[0, 1]) < 1e-12 * max(1, abs(m.g[0, 1]))
            assert abs(e["G_d.22"] - m.g[1, 1]) < 1e-12 * max(1, abs(m.g[1, 1]))
            for (i, j), qid in (((0, 0), "G_d_inv.11"), ((0, 1), "G_d_inv.12"),
                                ((1, 1), "G_d_inv.22")):
                assert abs(e[qid] - m.g_inv[i, j]) < 1e-12 * max(1, abs(m.g_inv[i, j]))

    def test_stated_determinant_only_matches_at_unit_sigma(self):
        # the printed determinant formula and the printed matrix disagree
        # away from sigma = 1: det of the matrix is 1/(2 sigma^6)
        p = ParamPoint.theta(0, 2)
        e = paper_metric_xi(p)
        matrix_det = e["G_d.11"] * e["G_d.22"] - e["G_d.12"] * e["G_d.21"]
        assert matrix_det == pytest.approx(1.0 / 128.0, abs=1e-15)
        assert e["G_d.det"] == 0.125


class TestChristoffelEntries:
    def test_spot_values(self):
        e = paper_christoffel_xi(P11)
        assert e["Gamma_xi.111"] == pytest.approx(10.0, abs=1e-12)
        assert e["Gamma_xi.222"] == -0.75
        e = paper_christoffel_xi(P01)
        assert e["Gamma_xi.222"] == -0.75
        assert e["Gamma_xi.121"] == -1.0
        assert e["GammaMixed_xi.112"] == 0.5     # 8 mu^2 s^4 + (4 mu + 1)/(2 s^2)
        assert e["GammaMixed_xi.211"] == -3.0
        assert e["GammaMixed_xi.121"] == 0.5

    def test_lower_equals_tensor_law_transport(self, rng):
        # the printed lower coefficients are exactly the (0,3)-law push of the
        # natural-chart expectation connection
        for p in random_theta_points(rng, 10):
            e = paper_christoffel_xi(p)
            pushed = transform_lower_tensor3(conn_expectation_theta(p).lower, jacobian(p)[1])
            for i in (1, 2):
                for j in (1, 2):
                    for k in (1, 2):
                        got = e[f"Gamma_xi.{i}{j}{k}"]
                        ref = pushed[i - 1, j - 1, k - 1]
                        assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))

    def test_printed_coefficients_have_zero_torsion(self, rng):
        # mechanical check of T_ijk = Gamma_ijk - Gamma_jik on the table
        for p in random_theta_points(rng, 10):
            e = paper_christoffel_xi(p)
            for k in (1, 2):
                assert e[f"Gamma_xi.12{k}"] - e[f"Gamma_xi.21{k}"] == 0.0


class TestRiemannEntries:
    def test_spot_values(self):
        e = paper_riemann_xi(P01)
        assert e["R_xi.1212"] == 0.5
        assert e["R_xi.1221"] == 0.0
        assert e["R_xi.2112"] == 1.5
        assert e["R_xi.2111"] == 2.0
        assert e["K"] == 1.5

    def test_sigma_scaling_of_R_1212(self):
        e = paper_riemann_xi(ParamPoint.theta(0.4, 1.0))
        assert e["R_xi.1212"] == 0.5  # 1/(2 sigma^6) at sigma = 1, any mu

    def test_eleven_zero_components_plus_unprinted(self):
        e = paper_riemann_xi(ParamPoint.theta(0.9, 1.7))
        zero_ids = [q for q in e if q.startswith("R_xi.") and e[q] == 0.0]
        assert len(zero_ids) == 12  # eleven listed zeros + the unprinted slot
        assert "R_xi.1222" in zero_ids

    def test_scalar_formula_at_off_axis_point(self):
        # direct evaluation of the closing formula at (1, 1): 211/4
        assert paper_riemann_xi(P11)["K"] == pytest.approx(52.75, abs=1e-12)
