"""Tensor kernels against frozen values and the finite-difference oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igeo import (
    Chart,
    ConnAt,
    DEFAULT_TOLERANCES,
    DomainError,
    GaussHermite,
    MetricAt,
    MonteCarlo,
    ParamPoint,
    SingularMetricError,
    audit,
    chart_backward,
    chart_forward,
    chart_second_derivatives,
    conn_expectation_theta,
    evaluate_metric,
    expectation_connection,
    fisher_metric,
    fisher_metric_field,
    fisher_metric_theta,
    jacobian,
    levi_civita,
    riemann_levi_civita,
    sectional_curvature,
    torsion,
    transform_connection,
    transform_lower_tensor3,
    transform_metric,
)
from igeo.autodiff import Dual2, batch_array, lift, sin

import oracles
from conftest import random_theta_points

THETA_FIELD = fisher_metric_field(Chart.THETA)
XI_FIELD = fisher_metric_field(Chart.XI)


def sphere_field(polar, azimuth):
    s = sin(polar)
    return [[1.0, 0.0], [0.0, s * s]]


def flat_field(a, b):
    return [[1.0, 0.0], [0.0, 1.0]]


def xi_points(rng, n=10):
    return [chart_forward(p) for p in random_theta_points(rng, n)]


def coefficients(conn_at, chart):
    """(c1, c2) -> (lower, mixed) of the connection ``conn_at(point)``."""
    def fn(c1, c2):
        conn = conn_at(ParamPoint(chart, c1, c2))
        return conn.lower, conn.mixed
    return fn


class TestMetricAt:
    def test_validation(self):
        p = ParamPoint.theta(0, 1)
        with pytest.raises(SingularMetricError):
            MetricAt.from_matrix(p, [[1.0, 2.0], [3.0, 4.0]])  # asymmetric
        with pytest.raises(SingularMetricError):
            MetricAt.from_matrix(p, [[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(SingularMetricError):
            MetricAt.from_matrix(p, [[1.0, 1.0], [1.0, 1.0]])  # singular

    def test_inverse_residual(self, rng):
        for p in random_theta_points(rng, 10):
            m = fisher_metric_theta(p)
            assert np.max(np.abs(m.g @ m.g_inv - np.eye(2))) < 1e-12

    def test_non_invertible_field_raises(self):
        degenerate = lambda a, b: [[b - b, 0.0], [0.0, 1.0]]
        with pytest.raises(SingularMetricError):
            levi_civita(degenerate, ParamPoint.theta(0, 1))


class TestLeviCivita:
    def test_gaussian_natural_chart_frozen_values(self):
        conn = levi_civita(THETA_FIELD, ParamPoint.theta(0, 1))
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 1] = expected[0, 1, 0] = -1.0  # Gamma^1_12 = Gamma^1_21
        expected[1, 0, 0] = 0.5                        # Gamma^2_11
        expected[1, 1, 1] = -1.0                       # Gamma^2_22
        assert np.allclose(conn.mixed, expected, atol=1e-14)
        conn2 = levi_civita(THETA_FIELD, ParamPoint.theta(0, 2))
        assert conn2.mixed[1, 1, 1] == pytest.approx(-0.5, abs=1e-14)

    def test_flat_metric_vanishes(self):
        conn = levi_civita(flat_field, ParamPoint.theta(0.3, 1.7))
        assert not np.asarray(conn.mixed).any()
        assert not np.asarray(conn.lower).any()

    def test_against_stencil_oracle(self, rng):
        for p in random_theta_points(rng, 6, sigma=(0.6, 2.5)):
            _, _, lower_fd, mixed_fd = oracles.christoffel_fd(
                oracles.gaussian_theta_metric, (p.c1, p.c2)
            )
            conn = levi_civita(THETA_FIELD, p)
            assert np.max(np.abs(conn.mixed - mixed_fd)) < 1e-6
            assert np.max(np.abs(conn.lower - lower_fd)) < 1e-6

    def test_dual_chart_against_stencil_oracle(self, rng):
        for q in xi_points(rng, 6):
            _, _, lower_fd, mixed_fd = oracles.christoffel_fd(
                oracles.gaussian_xi_metric, (q.c1, q.c2)
            )
            conn = levi_civita(XI_FIELD, q)
            scale = max(1.0, float(np.max(np.abs(mixed_fd))))
            assert np.max(np.abs(conn.mixed - mixed_fd)) < 1e-6 * scale

    def test_metric_compatibility(self, rng):
        # d_k g_ij - Gamma_kij - Gamma_kji = 0, derivatives via autodiff
        for p in random_theta_points(rng, 10):
            conn = levi_civita(THETA_FIELD, p)
            field = THETA_FIELD(*lift(p))
            for i in range(2):
                for j in range(2):
                    dg = (Dual2(0.0) + field[i][j]).grad  # a constant entry is a float
                    for k in range(2):
                        resid = dg[k] - conn.lower[k, i, j] - conn.lower[k, j, i]
                        assert abs(resid) < 1e-8


class TestTorsion:
    def test_levi_civita_torsion_exactly_zero(self, rng):
        for p in random_theta_points(rng, 5):
            t = torsion(levi_civita(THETA_FIELD, p))
            assert not np.asarray(t.t).any()
            q = chart_forward(p)
            assert not np.asarray(torsion(levi_civita(XI_FIELD, q)).t).any()

    def test_expectation_connection_torsion_zero(self):
        t = torsion(conn_expectation_theta(ParamPoint.theta(0, 1)))
        assert not np.asarray(t.t).any()

    def test_synthetic_asymmetric_connection(self):
        p = ParamPoint.theta(0, 1)
        lower = np.zeros((2, 2, 2))
        lower[0, 1, 0] = 1.0
        conn = ConnAt(point=p, lower=lower, mixed=np.zeros((2, 2, 2)))
        t = torsion(conn)
        assert t.t[0, 1, 0] == 1.0
        assert t.t[1, 0, 0] == -1.0


class TestRiemann:
    def test_flat_space_vanishes(self):
        riem = riemann_levi_civita(flat_field, ParamPoint.theta(0.2, 1.4))
        assert not np.asarray(riem.r).any()
        assert riem.scalar == 0.0

    def test_gaussian_natural_chart_frozen_values(self):
        p = ParamPoint.theta(0, 1)
        riem = riemann_levi_civita(THETA_FIELD, p)
        metric = fisher_metric_theta(p)
        assert riem.r[0, 1, 0, 1] == pytest.approx(1.0, abs=1e-12)
        assert riem.r[0, 1, 1, 0] == pytest.approx(-1.0, abs=1e-12)
        assert sectional_curvature(riem, metric) == pytest.approx(-0.5, abs=1e-12)

    def test_sphere_fixture(self):
        p = ParamPoint.theta(math.pi / 3, 1.0)
        riem = riemann_levi_civita(sphere_field, p)
        metric = evaluate_metric(sphere_field, p)
        assert abs(riem.scalar - 1.0) < 1e-8
        assert abs(sectional_curvature(riem, metric) - 1.0) < 1e-8
        r_fd, scal_fd = oracles.riemann_fd(oracles.sphere_metric, (p.c1, p.c2))
        assert abs(scal_fd - 1.0) < 1e-6

    def test_against_stencil_oracle_both_charts(self, rng):
        for p in random_theta_points(rng, 4, sigma=(0.7, 2.2)):
            riem = riemann_levi_civita(THETA_FIELD, p)
            r_fd, scal_fd = oracles.riemann_fd(oracles.gaussian_theta_metric, (p.c1, p.c2))
            scale = max(1.0, float(np.max(np.abs(r_fd))))
            assert np.max(np.abs(riem.r - r_fd)) < 1e-5 * scale
            q = chart_forward(p)
            riem_xi = riemann_levi_civita(XI_FIELD, q)
            r_fd, _ = oracles.riemann_fd(oracles.gaussian_xi_metric, (q.c1, q.c2))
            scale = max(1.0, float(np.max(np.abs(r_fd))))
            assert np.max(np.abs(riem_xi.r - r_fd)) < 1e-5 * scale

    def test_first_pair_antisymmetry_exact(self, rng):
        for q in xi_points(rng, 5):
            r = np.asarray(riemann_levi_civita(XI_FIELD, q).r)
            assert np.array_equal(r + r.transpose(1, 0, 2, 3), np.zeros((2, 2, 2, 2)))

    def test_fd_connection_route_matches_dual2_route(self, rng):
        for p in random_theta_points(rng, 3, sigma=(0.8, 2.0)):
            q = chart_forward(p)
            r_fd, scal_fd = oracles.riemann_connection_fd(
                coefficients(lambda pt: levi_civita(XI_FIELD, pt), Chart.XI),
                oracles.gaussian_xi_metric, (q.c1, q.c2),
            )
            via_ad = riemann_levi_civita(XI_FIELD, q)
            assert np.max(np.abs(r_fd - via_ad.r)) < 1e-8
            assert abs(scal_fd - via_ad.scalar) < 1e-8

    def test_expectation_connection_is_flat_in_natural_chart(self, rng):
        # E-form coefficients: curvature vanishes identically
        for p in random_theta_points(rng, 3, sigma=(0.8, 2.0)):
            r_fd, _ = oracles.riemann_connection_fd(
                coefficients(conn_expectation_theta, Chart.THETA),
                oracles.gaussian_theta_metric, (p.c1, p.c2),
            )
            assert np.max(np.abs(r_fd)) < 1e-9


class TestScalar:
    def test_gaussian_constant_negative_half(self, rng):
        for p in random_theta_points(rng, 10):
            assert abs(riemann_levi_civita(THETA_FIELD, p).scalar + 0.5) < 1e-8

    def test_chart_invariance(self, rng):
        for p in random_theta_points(rng, 10):
            s_theta = riemann_levi_civita(THETA_FIELD, p).scalar
            s_xi = riemann_levi_civita(XI_FIELD, chart_forward(p)).scalar
            assert abs(s_theta - s_xi) < 1e-8
            assert abs(s_xi + 0.5) < 1e-8


class TestTransformMetric:
    def test_frozen_examples(self):
        p = ParamPoint.theta(0, 1)
        m = transform_metric(fisher_metric_theta(p), jacobian(p)[1], chart_forward(p))
        assert np.allclose(m.g, [[1.0, 0.0], [0.0, 0.5]], atol=1e-15)
        p = ParamPoint.theta(1, 1)
        m = transform_metric(fisher_metric_theta(p), jacobian(p)[1], chart_forward(p))
        assert np.allclose(m.g, [[3.0, -1.0], [-1.0, 0.5]], atol=1e-14)

    def test_determinant_transformation_identity(self, rng):
        # det g(xi) = det g(theta) / (det J)^2; at sigma = 2 that is 1/128
        p = ParamPoint.theta(0, 2)
        m = transform_metric(fisher_metric_theta(p), jacobian(p)[1], chart_forward(p))
        assert m.det == pytest.approx(1.0 / 128.0, abs=1e-15)
        for p in random_theta_points(rng, 10):
            jac, jac_inv = jacobian(p)
            m_th = fisher_metric_theta(p)
            m_xi = transform_metric(m_th, jac_inv, chart_forward(p))
            expected = m_th.det / float(np.linalg.det(jac)) ** 2
            assert abs(m_xi.det - expected) < 1e-10 * max(1.0, abs(expected))

    def test_positive_definiteness_preserved(self, rng):
        # from_matrix would raise otherwise; also check eigenvalues directly
        for p in random_theta_points(rng, 10):
            m = transform_metric(fisher_metric_theta(p), jacobian(p)[1], chart_forward(p))
            assert np.all(np.linalg.eigvalsh(np.asarray(m.g)) > 0)


class TestTransformTensors:
    def test_lower3_frozen_examples(self):
        p = ParamPoint.theta(1, 1)
        pushed = transform_lower_tensor3(conn_expectation_theta(p).lower, jacobian(p)[1])
        assert pushed[0, 0, 0] == pytest.approx(10.0, abs=1e-12)
        assert pushed[1, 1, 1] == pytest.approx(-0.75, abs=1e-14)

    def test_lower3_identity(self, rng):
        t = rng.normal(size=(2, 2, 2))
        assert np.array_equal(transform_lower_tensor3(t, np.eye(2)), t)

    def test_lower4_identity_and_zero(self, rng):
        r = rng.normal(size=(2, 2, 2, 2))
        assert np.array_equal(oracles.lower_tensor4_law(r, np.eye(2)), r)
        assert not oracles.lower_tensor4_law(np.zeros((2, 2, 2, 2)),
                                             jacobian(ParamPoint.theta(1, 2))[1]).any()

    def test_riemann_two_path_consistency(self, rng):
        for p in random_theta_points(rng, 10):
            q = chart_forward(p)
            pushed = oracles.lower_tensor4_law(
                riemann_levi_civita(THETA_FIELD, p).r, jacobian(p)[1]
            )
            native = riemann_levi_civita(XI_FIELD, q).r
            scale = max(1.0, float(np.max(np.abs(native))))
            assert np.max(np.abs(pushed - native)) < 1e-8 * scale


class TestTransformConnection:
    def test_identity_chart_is_noop(self):
        p = ParamPoint.theta(0.5, 1.5)
        conn = levi_civita(THETA_FIELD, p)
        out = transform_connection(
            conn, np.eye(2), np.eye(2), np.zeros((2, 2, 2)), fisher_metric_theta(p), p
        )
        assert np.array_equal(out.mixed, conn.mixed)
        assert np.array_equal(out.lower, conn.lower)

    def test_flat_connection_pure_inhomogeneous_term(self):
        # flat source connection: the output is jac . second_derivs alone
        p = ParamPoint.theta(0, 1)
        q = chart_forward(p)
        jac, jac_inv = jacobian(p)
        zero_conn = ConnAt(point=p, lower=np.zeros((2, 2, 2)), mixed=np.zeros((2, 2, 2)))
        flat_metric = MetricAt.from_matrix(p, np.eye(2))
        out = transform_connection(
            zero_conn, jac, jac_inv, chart_second_derivatives(p), flat_metric, q
        )
        expected = np.zeros((2, 2, 2))
        expected[1, 0, 0] = -2.0   # Gamma'^2_11 = 2 sigma . (-(sigma^2+mu^2)/sigma^3)
        expected[1, 1, 1] = -0.5   # Gamma'^2_22 = 2 sigma . (-1/(4 sigma^3))
        assert np.allclose(out.mixed, expected, atol=1e-14)

    def test_two_path_connection_consistency(self, rng):
        # push the natural-chart Levi-Civita vs derive natively in the dual chart
        for p in random_theta_points(rng, 10):
            q = chart_forward(p)
            jac, jac_inv = jacobian(p)
            pushed = transform_connection(
                levi_civita(THETA_FIELD, p), jac, jac_inv,
                chart_second_derivatives(p), fisher_metric_theta(p), q,
            )
            native = levi_civita(XI_FIELD, q)
            scale = max(1.0, float(np.max(np.abs(native.mixed))))
            assert np.max(np.abs(pushed.mixed - native.mixed)) < 1e-8 * scale
            assert np.max(np.abs(pushed.lower - native.lower)) < 1e-8 * scale

    def test_native_dual_chart_frozen_values(self):
        # closed forms: G^1_11 = 2 mu/s2, G^1_12 = -1/(2 s2), G^2_11 = -1,
        # G^2_12 = mu/s2, G^2_22 = -1/s2, with s2 = x2 - x1^2
        q = ParamPoint.xi(1.0, 2.0)
        conn = levi_civita(XI_FIELD, q)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 2.0
        expected[0, 0, 1] = expected[0, 1, 0] = -0.5
        expected[1, 0, 0] = -1.0
        expected[1, 0, 1] = expected[1, 1, 0] = 1.0
        expected[1, 1, 1] = -1.0
        assert np.allclose(conn.mixed, expected, atol=1e-12)

    def test_mixture_connection_vanishes_in_dual_chart(self, rng):
        # xi = (E[x], E[x^2]) are the expectation parameters, so the mixture
        # (alpha = -1) connection is identically zero there (Amari & Nagaoka,
        # Methods of Information Geometry, 2000, sections 2-3): an exact
        # test of the inhomogeneous term of the connection law.  The expectation
        # connection is taken in closed form and from the package's kernels by
        # quadrature; the reference integrates the oracles' derivatives.
        gh = GaussHermite(64)
        for p in random_theta_points(rng, 10):
            quad = np.empty((2, 2, 2))
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        quad[i, j, k] = gh.expect(
                            lambda x, i=i, j=j, k=k: (
                                oracles.gaussian_hessian(x, p.c1, p.c2)[i][j]
                                + oracles.gaussian_score(x, p.c1, p.c2)[i]
                                * oracles.gaussian_score(x, p.c1, p.c2)[j]
                            ) * oracles.gaussian_score(x, p.c1, p.c2)[k],
                            p,
                        )
            for econn in (conn_expectation_theta(p), conn_expectation_theta(p, gh)):
                lower = (2.0 * np.asarray(levi_civita(THETA_FIELD, p).lower)
                         - np.asarray(econn.lower))
                scale = max(1.0, float(np.max(np.abs(lower))))
                assert np.max(np.abs(lower - quad)) <= 1e-12 * scale

                metric = fisher_metric_theta(p)
                mixture = ConnAt(point=p, lower=lower,
                                 mixed=np.einsum("km,ijm->kij", metric.g_inv, lower))
                q = chart_forward(p)
                jac, jac_inv = jacobian(p)
                moved = transform_connection(
                    mixture, jac, jac_inv, chart_second_derivatives(p), metric, q
                )
                # the tensor part alone sets the scale the inhomogeneous term cancels
                tensor_part = transform_connection(
                    mixture, jac, jac_inv, np.zeros((2, 2, 2)), metric, q
                )
                for got, part in ((moved.lower, tensor_part.lower),
                                  (moved.mixed, tensor_part.mixed)):
                    scale = max(1.0, float(np.max(np.abs(part))))
                    assert np.max(np.abs(got)) <= 1e-12 * scale

    def test_expectation_connection_pushforward_matches_quadrature(self, rng):
        # E[dd_xi l . d_xi l] computed natively (chain-rule scores via Dual2
        # under Gauss-Hermite) equals the inhomogeneous-law transport
        gh = GaussHermite(64)
        for p in random_theta_points(rng, 3, mu=(-1.5, 1.5), sigma=(0.8, 2.0)):
            q = chart_forward(p)
            jac, jac_inv = jacobian(p)
            pushed = transform_connection(
                conn_expectation_theta(p), jac, jac_inv,
                chart_second_derivatives(p), fisher_metric_theta(p), q,
            )

            def lifted(x):
                x1, x2 = lift(q)
                sigma = (x2 - x1 * x1).sqrt()
                return -(sigma.log() + oracles.LOG_SQRT_2PI) - (x - x1) ** 2 / (2.0 * sigma * sigma)

            native = np.empty((2, 2, 2))
            for a in range(2):
                for b in range(2):
                    for c in range(2):
                        native[a, b, c] = gh.expect(
                            lambda xs, a=a, b=b, c=c: np.array(
                                [lifted(x).hess[a, b] * lifted(x).grad[c] for x in np.atleast_1d(xs)]
                            ),
                            p,
                        )
            scale = max(1.0, float(np.max(np.abs(native))))
            assert np.max(np.abs(pushed.lower - native)) < 1e-9 * scale
            # the chart-generic entry point goes back through chart_backward
            assert np.max(np.abs(expectation_connection(q).lower - pushed.lower)) < 1e-12 * scale


class TestHypothesisInvariants:
    @given(mu=st.floats(-3, 3), sigma=st.floats(0.5, 3))
    @settings(max_examples=40, deadline=None)
    def test_mixed_coefficients_symmetric(self, mu, sigma):
        conn = levi_civita(THETA_FIELD, ParamPoint.theta(mu, sigma))
        m = np.asarray(conn.mixed)
        assert np.array_equal(m, m.transpose(0, 2, 1))

    @given(mu=st.floats(-3, 3), sigma=st.floats(0.5, 3))
    @settings(max_examples=40, deadline=None)
    def test_scalar_constant_everywhere(self, mu, sigma):
        riem = riemann_levi_civita(THETA_FIELD, ParamPoint.theta(mu, sigma))
        assert abs(riem.scalar + 0.5) < 1e-8


class TestDualPotential:
    """The dual-chart geometry is the Hessian geometry of the dual potential phi(xi)."""

    TOL = DEFAULT_TOLERANCES

    @pytest.fixture(params=["block", "points"])
    def evaluate(self, request, rng):
        """(block, at): 200 random xi points, mu of both signs, and at(fn), the stacked
        fn(point) of each point, from one block call or from one call per point."""
        thetas = random_theta_points(rng, 200, mu=(-3.0, 3.0), sigma=(0.3, 3.0))
        assert min(p.c1 for p in thetas) < 0.0 < max(p.c1 for p in thetas)
        qs = [chart_forward(p) for p in thetas]
        block = ParamPoint(Chart.XI, np.array([q.c1 for q in qs]), np.array([q.c2 for q in qs]))
        if request.param == "block":
            return block, lambda fn: np.asarray(fn(block))
        return block, lambda fn: np.stack([np.asarray(fn(q)) for q in qs])

    @staticmethod
    def close(got, want, tol):
        assert np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))

    def test_gradient_is_the_natural_parameters(self, evaluate):
        q, at = evaluate
        mu, s = at(lambda p: chart_backward(p).c1), at(lambda p: chart_backward(p).c2)
        natural = np.stack([mu / s**2, -0.5 / s**2], -1)
        self.close(oracles.dual_potential_grad(q.c1, q.c2), natural, self.TOL.closed_form_abs)

    def test_metric_is_the_hessian(self, evaluate):
        q, at = evaluate
        self.close(at(lambda p: fisher_metric(p).g), oracles.dual_potential_hess(q.c1, q.c2),
                   self.TOL.closed_form_abs)

    def test_levi_civita_is_half_the_third_derivative(self, evaluate):
        q, at = evaluate
        self.close(at(lambda p: levi_civita(XI_FIELD, p).lower),
                   0.5 * oracles.dual_potential_third(q.c1, q.c2), self.TOL.derived_abs)

    def test_expectation_connection_is_the_third_derivative(self, evaluate):
        q, at = evaluate
        self.close(at(lambda p: expectation_connection(p).lower),
                   oracles.dual_potential_third(q.c1, q.c2), self.TOL.derived_abs)

    def test_riemann_from_the_third_derivative(self, evaluate):
        q, at = evaluate
        g_inv = np.linalg.inv(oracles.dual_potential_hess(q.c1, q.c2))
        want = oracles.hessian_riemann(g_inv, oracles.dual_potential_third(q.c1, q.c2))
        self.close(at(lambda p: riemann_levi_civita(XI_FIELD, p).r), want, self.TOL.derived_abs)

    def test_legendre_identity(self, evaluate):
        q, at = evaluate
        mu, s = at(lambda p: chart_backward(p).c1), at(lambda p: chart_backward(p).c2)
        t1, t2 = mu / s**2, -0.5 / s**2
        lhs = oracles.log_partition(t1, t2) + oracles.dual_potential(q.c1, q.c2)
        self.close(lhs, t1 * q.c1 + t2 * q.c2, self.TOL.closed_form_abs)


def same_bits(a, b) -> bool:
    """Equal doubles, zero signs included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestBlocks:
    """A block point runs the same kernels as a single point, bit for bit."""

    @pytest.mark.parametrize("chart", [Chart.THETA, Chart.XI])
    def test_block_equals_points_bit_for_bit(self, rng, chart):
        points = random_theta_points(rng, 60, mu=(-4.0, 4.0), sigma=(0.05, 5.0))
        if chart is Chart.XI:
            points = [chart_forward(p) for p in points]
        block = ParamPoint(chart, np.array([p.c1 for p in points]),
                           np.array([p.c2 for p in points]))
        field = fisher_metric_field(chart)
        conn, riem, metric = levi_civita(field, block), riemann_levi_civita(field, block), \
            evaluate_metric(field, block)
        sec = sectional_curvature(riem, metric)
        for n, p in enumerate(points):
            one_conn, one_riem, one_metric = levi_civita(field, p), riemann_levi_civita(field, p), \
                evaluate_metric(field, p)
            assert same_bits(conn.lower[n], one_conn.lower)
            assert same_bits(conn.mixed[n], one_conn.mixed)
            assert same_bits(torsion(conn).t[n], torsion(one_conn).t)
            assert same_bits(riem.r[n], one_riem.r)
            assert same_bits(riem.scalar[n], one_riem.scalar)
            assert same_bits(metric.g[n], one_metric.g)
            assert same_bits(metric.g_inv[n], one_metric.g_inv)
            assert same_bits(metric.det[n], one_metric.det)
            assert same_bits(sec[n], sectional_curvature(one_riem, one_metric))

    def test_chart_maps_transforms_and_audit_bit_for_bit(self, rng):
        points = random_theta_points(rng, 60, mu=(-300.0, 300.0), sigma=(0.003, 50.0))
        block = ParamPoint(Chart.THETA, np.array([p.c1 for p in points]),
                           np.array([p.c2 for p in points]))

        def arrays(p):
            q = chart_forward(p)
            jac, jac_inv = jacobian(p)
            metric, econn = fisher_metric_theta(p), conn_expectation_theta(p)
            moved = transform_metric(metric, jac_inv, q)
            pushed = transform_connection(econn, jac, jac_inv, chart_second_derivatives(p),
                                          metric, q)
            xi_conn = expectation_connection(q)
            engine_arrays = []
            for engine in (GaussHermite(64), MonteCarlo(2000, 5)):
                for at in (p, q):
                    m, conn = fisher_metric(at, engine), expectation_connection(at, engine)
                    engine_arrays += [m.g, m.g_inv, conn.lower, conn.mixed]
            rows = audit(p).rows
            return [q.c2, chart_backward(q).c2, jac, jac_inv, chart_second_derivatives(p),
                    metric.g, econn.lower, econn.mixed, moved.g, moved.g_inv, moved.det,
                    transform_lower_tensor3(econn.lower, jac_inv), pushed.lower, pushed.mixed,
                    xi_conn.lower, xi_conn.mixed, *engine_arrays,
                    [(r.paper, r.oracle, r.abs_gap, r.rel_gap) for r in rows],
                    [r.verdict for r in rows]]

        in_block = arrays(block)
        in_block[-2:] = [np.reshape(a, (len(points), -1) + np.shape(a)[1:]) for a in in_block[-2:]]
        for n, p in enumerate(points):
            *numbers, verdicts = arrays(p)
            assert list(in_block[-1][n]) == verdicts
            for got, alone in zip(in_block, numbers):
                assert same_bits(got[n], alone)

    def test_block_axes_come_first(self):
        c1, c2 = np.meshgrid(np.linspace(-1, 1, 3), np.linspace(0.5, 2, 4), indexing="ij")
        block = ParamPoint(Chart.THETA, c1, c2)
        riem = riemann_levi_civita(THETA_FIELD, block)
        assert riem.r.shape == (3, 4, 2, 2, 2, 2) and riem.scalar.shape == (3, 4)
        assert levi_civita(THETA_FIELD, block).mixed.shape == (3, 4, 2, 2, 2)
        assert np.max(np.abs(riem.scalar + 0.5)) < 1e-12
        assert same_bits(riem.r[2, 1], riemann_levi_civita(THETA_FIELD, block.at((2, 1))).r)

    def test_block_keeps_exact_structure(self, rng):
        points = [chart_forward(p) for p in random_theta_points(rng, 30)]
        block = ParamPoint(Chart.XI, np.array([p.c1 for p in points]),
                           np.array([p.c2 for p in points]))
        conn = levi_civita(XI_FIELD, block)
        r = riemann_levi_civita(XI_FIELD, block).r
        assert not torsion(conn).t.any()
        assert np.array_equal(conn.mixed, conn.mixed.swapaxes(-2, -1))
        assert np.array_equal(r, -r.swapaxes(-4, -3))

    def test_block_point_reports_first_point_outside_domain(self):
        with pytest.raises(DomainError) as in_block:
            ParamPoint.xi([0.0, 1.0, 2.0], [1.0, 0.5, 1.0])
        with pytest.raises(DomainError) as alone:
            ParamPoint.xi(1.0, 0.5)
        assert str(in_block.value) == str(alone.value)
        with pytest.raises(DomainError, match="finite"):
            ParamPoint.theta([0.0, np.nan], [1.0, 1.0])

    def test_from_matrix_names_the_first_failing_point(self):
        block = ParamPoint(Chart.THETA, np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0]))
        g = np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]])
        with pytest.raises(SingularMetricError) as in_block:
            MetricAt.from_matrix(block, g)
        with pytest.raises(SingularMetricError) as alone:
            MetricAt.from_matrix(block.at(1), g[1])
        assert str(in_block.value) == str(alone.value)
        assert str(alone.value) == "metric at theta point (1.0, 1.0) is not positive definite (det = -3.0)"

    def test_from_matrix_rows_broadcast_constants(self):
        block = ParamPoint(Chart.THETA, np.zeros(3), np.array([1.0, 2.0, 4.0]))
        s = block.c2
        m = MetricAt.from_matrix(block, batch_array([1.0 / (s * s), 0.0, 0.0, 2.0 / (s * s)],
                                                    (2, 2)))
        assert m.g.shape == (3, 2, 2) and not m.g.flags.writeable
        assert np.array_equal(m.g[2], [[1 / 16, 0.0], [0.0, 2 / 16]])
        assert np.array_equal(m.det, [2.0, 2 / 2**4, 2 / 4**4])
