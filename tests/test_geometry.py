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
    RiemannAt,
    SingularMetricError,
    TorsionAt,
    audit,
    chart_backward,
    chart_forward,
    chart_second_derivatives,
    cli,
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
from conftest import (as_block, assert_same_outcome, extreme_points, failed, outcome,
                      random_theta_points, same_bits)

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
        assert np.allclose(conn.mixed, expected, rtol=0, atol=1e-14)
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
                    dg = oracles.grad(Dual2(0.0) + field[i][j])  # a constant entry is a float
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
        assert np.allclose(m.g, [[1.0, 0.0], [0.0, 0.5]], rtol=0, atol=1e-15)
        p = ParamPoint.theta(1, 1)
        m = transform_metric(fisher_metric_theta(p), jacobian(p)[1], chart_forward(p))
        assert np.allclose(m.g, [[3.0, -1.0], [-1.0, 0.5]], rtol=0, atol=1e-14)

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
        assert np.allclose(out.mixed, expected, rtol=0, atol=1e-14)

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
        assert np.allclose(conn.mixed, expected, rtol=0, atol=1e-12)

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
                return -(oracles.log(sigma) + oracles.LOG_SQRT_2PI) - (x - x1) ** 2 / (2.0 * sigma * sigma)

            native = np.empty((2, 2, 2))
            for a in range(2):
                for b in range(2):
                    for c in range(2):
                        native[a, b, c] = gh.expect(
                            lambda xs, a=a, b=b, c=c: np.array(
                                [oracles.hess(lifted(x))[a, b] * oracles.grad(lifted(x))[c]
                                 for x in np.atleast_1d(xs)]
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

    @pytest.mark.parametrize("make, c1, c2", [
        (ParamPoint.theta, np.linspace(-1, 1, 3), 2.0),
        (ParamPoint.theta, 0.7, np.linspace(0.5, 2, 3)),
        (ParamPoint.xi, np.linspace(-1, 1, 3), 4.0),
        (ParamPoint.xi, 0.5, np.linspace(1, 3, 3)),
    ], ids=["theta-array-float", "theta-float-array", "xi-array-float", "xi-float-array"])
    def test_a_float_coordinate_is_repeated_over_the_block(self, make, c1, c2):
        block = make(c1, c2)
        assert np.shape(block.c1) == np.shape(block.c2) == (3,)
        field = fisher_metric_field(block.chart)
        gh = GaussHermite(16)

        def arrays(p):
            metric, riem, conn = fisher_metric(p), riemann_levi_civita(field, p), levi_civita(field, p)
            econn, gh_metric, gh_conn = (expectation_connection(p), fisher_metric(p, gh),
                                         expectation_connection(p, gh))
            out = [metric.g, metric.g_inv, metric.det, conn.lower, conn.mixed, riem.r, riem.scalar,
                   sectional_curvature(riem, metric), econn.lower, econn.mixed,
                   gh_metric.g, gh_metric.g_inv, gh_conn.lower, gh_conn.mixed]
            if p.chart is Chart.THETA:
                r = audit(p)
                out += [r.paper, r.oracle, r.abs_gap, r.rel_gap, r.match.astype(float)]
            return out

        in_block = arrays(block)
        for n in range(3):
            for got, alone in zip(in_block, arrays(block.at(n)), strict=True):
                assert same_bits(got[n], alone)

    @pytest.mark.parametrize("chart", [Chart.THETA, Chart.XI], ids=str)
    @pytest.mark.parametrize("c1, c2", [(np.array([]), np.array([])), (np.zeros((0, 3)), 1.0),
                                        (0.5, np.empty(0)), (0.5, [])],
                             ids=["arrays", "2d-float", "float-array", "float-list"])
    def test_an_empty_block_is_refused(self, chart, c1, c2):
        with pytest.raises(DomainError, match=f"^{chart} chart requires at least one point, "
                                              "got an empty block$"):
            ParamPoint(chart, c1, c2)

    @pytest.mark.parametrize("chart", [Chart.THETA, Chart.XI], ids=str)
    @pytest.mark.parametrize("c1, c2", [([0.1, 0.2], [1.0, 2.0]), ((0.1,), 1.0), (0.1, (1.0, 2.0))],
                             ids=["lists", "tuple-float", "float-tuple"])
    def test_a_sequence_coordinate_is_a_block(self, chart, c1, c2):
        block = ParamPoint(chart, c1, c2)
        c1, c2 = np.broadcast_arrays(np.asarray(c1, dtype=float), np.asarray(c2, dtype=float))
        assert same_bits(block.c1, c1) and same_bits(block.c2, c2)
        field = fisher_metric_field(chart)
        riem = riemann_levi_civita(field, block)
        for n in range(c1.size):
            assert same_bits(riem.r[n], riemann_levi_civita(field, block.at(n)).r)

    @pytest.mark.parametrize("c1, c2", [(np.float64(0.5), 2), (1, np.float32(2.0)), (0.5, 2.0)],
                             ids=["float64-int", "int-float32", "floats"])
    def test_a_number_coordinate_is_a_float(self, c1, c2):
        p = ParamPoint(Chart.THETA, c1, c2)
        assert type(p.c1) is float and type(p.c2) is float
        assert (p.c1, p.c2) == (float(c1), float(c2))
        assert str(p) == f"theta point ({float(c1)!r}, {float(c2)!r})"

    @pytest.mark.parametrize("c1, c2", [(np.array([0.3, -1.0]), np.array([1.2, 0.5])),
                                        (np.array([0.3, -1.0]), 1.2), (0.3, np.array([1.2, 0.5]))],
                             ids=["arrays", "array-float", "float-array"])
    def test_a_block_does_not_share_its_callers_arrays(self, c1, c2):
        block = ParamPoint.theta(c1, c2)
        before = (np.copy(block.c1), np.copy(block.c2))
        for mine, held in zip((c1, c2), (block.c1, block.c2)):
            assert not held.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                held[0] = -1.0
            if isinstance(mine, np.ndarray):
                assert not np.shares_memory(mine, held)
                mine[0] = -1.0  # sigma = -1 would leave the domain
        assert same_bits(block.c1, before[0]) and same_bits(block.c2, before[1])
        assert same_bits(fisher_metric(block).g, fisher_metric(ParamPoint.theta(*before)).g)

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


class TestPoints:
    """ParamPoint.points splits a block in C order: float points at size 1, else
    flat blocks of at most size points; a single point is itself."""

    @staticmethod
    def grid(chart=Chart.THETA) -> ParamPoint:
        c1, c2 = np.meshgrid(np.linspace(-1.0, 1.0, 3), np.linspace(2.0, 5.0, 4), indexing="ij")
        return ParamPoint(chart, c1, c2)

    @pytest.mark.parametrize("chart", [Chart.THETA, Chart.XI], ids=str)
    def test_c_order_over_a_2d_block(self, chart):
        block = self.grid(chart)
        points = block.points()
        assert len(points) == 12
        for p, i in zip(points, np.ndindex(3, 4), strict=True):
            assert p.chart is chart
            assert (p.c1, p.c2) == (block.c1[i], block.c2[i])

    @pytest.mark.parametrize("size, sizes", [(2, [2] * 6), (5, [5, 5, 2]), (11, [11, 1]),
                                             (12, [12]), (100, [12])])
    def test_piece_sizes(self, size, sizes):
        block = self.grid()
        pieces = block.points(size)
        assert [p.c1.shape for p in pieces] == [(n,) for n in sizes]
        assert all(p.chart is Chart.THETA and p.c2.shape == p.c1.shape for p in pieces)
        assert same_bits(np.concatenate([p.c1 for p in pieces]), block.c1.ravel())
        assert same_bits(np.concatenate([p.c2 for p in pieces]), block.c2.ravel())

    def test_float_points_keep_the_bits(self, rng):
        block = ParamPoint.theta(rng.uniform(-3, 3, (4, 5)) * 1e-300, rng.uniform(0.5, 2, (4, 5)))
        for p, i in zip(block.points(), np.ndindex(4, 5), strict=True):
            assert type(p.c1) is float and type(p.c2) is float
            assert same_bits(p.c1, float(block.c1[i])) and same_bits(p.c2, float(block.c2[i]))

    @pytest.mark.parametrize("size", [1, 3])
    def test_a_point_is_itself(self, size):
        p = ParamPoint.xi(0.5, 2.0)
        assert p.points(size) == [p] and p.points(size)[0] is p


class TestResultOwnership:
    """A result object's arrays are read-only, and none is an array its caller passed in."""

    POINTS = [ParamPoint.theta(0.3, 1.2), ParamPoint.theta([0.3, -1.0, 2.0], [1.2, 0.5, 3.0])]

    @staticmethod
    def results(p):
        """(object, names of its arrays) for each kernel result at the theta point p."""
        q = chart_forward(p)
        conn = levi_civita(XI_FIELD, q)
        return [
            (fisher_metric(p), ("g", "g_inv")),
            (fisher_metric(q), ("g", "g_inv")),
            (fisher_metric(q, GaussHermite(8)), ("g", "g_inv")),
            (transform_metric(fisher_metric(p), jacobian(p)[1], q), ("g", "g_inv")),
            (conn, ("lower", "mixed")),
            (levi_civita(THETA_FIELD, p), ("lower", "mixed")),
            (conn_expectation_theta(p), ("lower", "mixed")),
            (conn_expectation_theta(p, GaussHermite(8)), ("lower", "mixed")),
            (expectation_connection(q), ("lower", "mixed")),
            (expectation_connection(q, GaussHermite(8)), ("lower", "mixed")),
            (torsion(conn), ("t",)),
            (riemann_levi_civita(XI_FIELD, q), ("r",)),
            (riemann_levi_civita(THETA_FIELD, p), ("r",)),
        ]

    @pytest.mark.parametrize("p", POINTS, ids=["point", "block"])
    def test_kernel_arrays_are_read_only(self, p):
        for obj, names in self.results(p):
            for name in names:
                a = getattr(obj, name)
                assert isinstance(a, np.ndarray) and a.dtype == float and not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0.0

    @pytest.mark.parametrize("cls, arrays", [
        (MetricAt, {"g": (2, 2), "g_inv": (2, 2)}),
        (ConnAt, {"lower": (2, 2, 2), "mixed": (2, 2, 2)}),
        (TorsionAt, {"t": (2, 2, 2)}),
        (RiemannAt, {"r": (2, 2, 2, 2), "scalar": None}),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else None)
    def test_constructor_copies_caller_arrays(self, rng, cls, arrays):
        given = {name: rng.standard_normal(shape) if shape else -0.5
                 for name, shape in arrays.items()}
        before = {name: np.copy(v) for name, v in given.items()}
        obj = cls(point=self.POINTS[0], **given)
        for name, shape in arrays.items():
            if shape is None:
                continue
            mine, held = given[name], getattr(obj, name)
            assert mine.flags.writeable and not held.flags.writeable
            assert not np.shares_memory(mine, held)
            mine[...] = np.nan  # the caller writes to its array afterwards
            assert same_bits(held, before[name])


    def test_constructor_stores_c_order(self, rng):
        """A result built from Fortran-ordered arrays holds C-ordered copies, so a law,
        whose einsum sums in an order that follows the layout, gives it the bits it gives
        the C-ordered result."""
        p = ParamPoint.theta(rng.uniform(-3.0, 3.0, 60), rng.uniform(0.3, 3.0, 60))
        conn = conn_expectation_theta(p, GaussHermite(64))
        fortran = ConnAt(p, np.asfortranarray(conn.lower), np.asfortranarray(conn.mixed))
        assert fortran.lower.flags.c_contiguous and fortran.mixed.flags.c_contiguous
        jac, jac_inv = jacobian(p)
        law = (jac, jac_inv, chart_second_derivatives(p), fisher_metric_theta(p), chart_forward(p))
        moved, ref = transform_connection(fortran, *law), transform_connection(conn, *law)
        assert same_bits(moved.lower, ref.lower) and same_bits(moved.mixed, ref.mixed)

    def test_scalar_is_read_only(self):
        """A block's scalar curvature is a read-only array; a point's is a numpy scalar."""
        p, block = self.POINTS
        for field, at in ((THETA_FIELD, lambda q: q), (XI_FIELD, chart_forward)):
            assert type(riemann_levi_civita(field, at(p)).scalar) is np.float64
            scalar = riemann_levi_civita(field, at(block)).scalar
            with pytest.raises(ValueError, match="read-only"):
                scalar[0] = 0.0
        built = RiemannAt(point=p, r=np.zeros((2, 2, 2, 2)), scalar=-0.5)
        assert type(built.scalar) is np.float64


def same_bits_where_finite(got, ref) -> bool:
    """same_bits wherever ``ref`` is finite, and not finite wherever ``ref`` is not.

    A derivative that overflows is NaN in a full pullback sum, which multiplies it by
    a structural zero, and +-inf in a sum without those terms.
    """
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    finite = np.isfinite(ref)
    return (got.shape == ref.shape and same_bits(got[finite], ref[finite])
            and not np.isfinite(got[~finite]).any())


class TestRewrittenKernelBits:
    """The dual-chart field, index lowering, curvature assembly and metric checks give
    the bits of their earlier forms in ``oracles``, at points and on 60-point blocks,
    at scales from 1e-300 to 1e300."""

    def test_xi_field_values_and_derivatives(self, rng):
        points = extreme_points(rng, Chart.XI, 600)
        overflowed = 0
        with np.errstate(all="ignore"):
            for p in points + [as_block(points[i:i + 60]) for i in range(0, 600, 60)]:
                for args in ((p.c1, p.c2), lift(p)):
                    got, ref = outcome(XI_FIELD, *args), outcome(oracles.xi_field_full_sum, *args)
                    if failed(ref):  # a float division by zero at a point
                        assert got == ref
                        continue
                    for i, j in ((0, 0), (0, 1), (1, 1)):
                        a, b = got[i][j], ref[i][j]
                        if isinstance(b, Dual2):
                            a, b = ([e.val, e.g1, e.g2, e.h11, e.h12, e.h22] for e in (a, b))
                        assert same_bits_where_finite(a, b), (p, args, i, j)
                        overflowed += not np.isfinite(b).all()
        assert overflowed  # the overflow rule was exercised

    @pytest.mark.parametrize("field", [THETA_FIELD, XI_FIELD, sphere_field],
                             ids=["theta", "xi", "sphere"])
    def test_levi_civita_and_riemann(self, rng, field):
        """Extreme points, 60-point blocks of them, a block of cli.BLOCK_POINTS points and
        a 2-D block read from strided and transposed coordinate views give the bits of
        the loop form in ``oracles`` where it is finite, and of the block-first form
        everywhere.  On the last two, the public arrays carry the block axes first,
        share no memory with any coordinates, are read-only and in C order, and each
        point has the bits of the point alone."""
        chart = Chart.XI if field is XI_FIELD else Chart.THETA

        def package(p):
            conn, riem = levi_civita(field, p), riemann_levi_civita(field, p)
            return conn.lower, conn.mixed, riem.r, riem.scalar

        def loop(p):
            return oracles.levi_civita_and_riemann_by_loop(field, p)

        def block_first(p):
            return oracles.levi_civita_and_riemann_block_first(field, p)

        c1 = rng.uniform(0.2, 2.9, cli.BLOCK_POINTS)  # the sphere's polar angle stays off 0, pi
        sigma = rng.uniform(0.3, 3.0, cli.BLOCK_POINTS)
        c2 = c1 * c1 + sigma * sigma if chart is Chart.XI else sigma
        wide, tall = np.zeros((32, 3 * 128)), np.zeros((2 * 128, 32))
        wide[:, ::3], tall[::2] = c1.reshape(32, 128), c2.reshape(32, 128).T
        views = (wide[:, ::3], tall[::2].T)  # (32, 128) each, the second one transposed
        large = [(ParamPoint(chart, c1, c2), (c1, c2)), (ParamPoint(chart, *views), views)]

        points = extreme_points(rng, chart, 240)
        with np.errstate(all="ignore"):
            passing = [p for p in points if not failed(outcome(loop, p))]
            # 60-point blocks of all the points, which stop at their first failing point,
            # and of the points that pass
            blocks = [as_block(ps[i:i + 60]) for ps in (points, passing)
                      for i in range(0, len(ps) - 59, 60)]
            for p in points + blocks + [block for block, _ in large]:
                got = outcome(package, p)
                assert_same_outcome(got, outcome(loop, p), same_bits_where_finite)
                assert_same_outcome(got, outcome(block_first, p))
        assert len(passing) >= 120

        for block, given in large:
            got = package(block)
            for a, k in zip(got, (3, 3, 4, 0)):
                assert a.shape == block.c1.shape + (2,) * k
                assert not a.flags.writeable and a.flags.c_contiguous
                for coords in (block.c1, block.c2, *given, wide, tall):
                    assert not np.shares_memory(a, coords)
            for at in zip(*(rng.integers(0, m, 40) for m in block.c1.shape)):
                assert_same_outcome([a[at] for a in got], package(block.at(at)))

    @staticmethod
    def matrices(rng, n):
        """A few chosen 2x2 matrices, then n at scales 1e-300 to 1e300: symmetric, off by
        a relative 1e-13 or by much more, with signed zeros off the diagonal, or not finite."""
        out = [
            [[1e200, 1e200], [2e200, 1e200]],       # not symmetric, and det overflows
            [[np.inf, 1e200], [1e200, 1e200]],       # not finite, and det would be NaN
            [[1.0, 0.5], [0.5 + 1e-13, 1.0]],        # symmetric within the gate: g10 := g01
            [[1.0, -0.0], [0.0, 2.0]],               # equal, but the zero signs differ
            [[1.0, 0.0], [-0.0, 2.0]],
            [[1e-200, 0.0], [0.0, 1e-200]],          # det underflows to 0
            [[1e200, 0.0], [0.0, 1e200]],            # det overflows
            [[-1.0, 0.0], [0.0, 1.0]],
        ]
        for k in range(n):
            g00, g01, g11 = rng.choice([-1.0, 1.0], 3) * 10.0 ** rng.uniform(-300.0, 300.0, 3)
            g00, g11 = abs(g00) if k % 5 else g00, abs(g11)
            g01 = (0.0, -0.0, g01 * 1e-150, g01)[k % 4]
            g10 = (g01, g01, g01 * (1.0 + 1e-13), g01 * 1.5, g01)[k % 5]
            if k % 23 == 0:
                g11 = (np.inf, np.nan)[k % 2]
            out.append([[g00, g01], [g10, g11]])
        return np.array(out)

    @pytest.mark.parametrize("errors", ["raise", "ignore"])
    def test_from_matrix(self, rng, errors):
        g = self.matrices(rng, 600)
        where = ParamPoint(Chart.THETA, np.linspace(0.0, 1.0, len(g)), 1.0)

        def package(p, m):
            metric = MetricAt.from_matrix(p, m)
            return metric.g, metric.g_inv, metric.det

        with np.errstate(over=errors, divide=errors, invalid=errors):
            each = [(where.at(n), g[n]) for n in range(len(g))]
            ok = np.array([not failed(outcome(oracles.metric_checked_in_order, *pg)) for pg in each])
            # 60-point blocks of all the matrices, which stop at their first failing point,
            # and of the matrices that pass
            blocks = [(ParamPoint(Chart.THETA, c1[i:i + 60], 1.0), m[i:i + 60])
                      for c1, m in ((where.c1, g), (where.c1[ok], g[ok]))
                      for i in range(0, len(m) - 59, 60)]
            for pg in each + blocks:
                assert_same_outcome(outcome(package, *pg),
                                    outcome(oracles.metric_checked_in_order, *pg))
        assert ok.sum() >= 120
