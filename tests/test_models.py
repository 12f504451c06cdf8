"""Gaussian family: likelihood, scores, engines, metric, connection, charts."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igeo import (
    Chart,
    DomainError,
    EngineError,
    GaussHermite,
    MonteCarlo,
    ParamPoint,
    SingularMetricError,
    chart_backward,
    chart_forward,
    chart_second_derivatives,
    conn_expectation_theta,
    density,
    expectation_connection,
    fisher_metric,
    fisher_metric_field,
    fisher_metric_theta,
    jacobian,
    log_likelihood,
    loglik_hessian_theta,
    score_theta,
    score_xi,
    score_xi_pullback,
)
from igeo.autodiff import gradient, lift
from igeo.models import (
    LOG_SQRT_2PI,
    MAX_GH_NODES,
    MAX_MC_SAMPLES,
    MC_LEAF,
    _hermgauss,
    _standard_normals,
)

import oracles
from conftest import random_theta_points

GH = GaussHermite(64)
MC = MonteCarlo(1_000_000, 20260808)


class TestLogLikelihood:
    def test_standard_normal_at_zero(self):
        assert log_likelihood(0.0, ParamPoint.theta(0, 1)) == pytest.approx(
            -0.9189385, abs=1e-7
        )

    def test_unit_exponent(self):
        got = log_likelihood(1.0, ParamPoint.theta(0, 1))
        assert got == pytest.approx(-LOG_SQRT_2PI - 0.5, abs=1e-14)

    def test_shifted_scaled(self):
        # x=2, mu=1, sigma=2: -log(2 sqrt(2 pi)) - 1/8, cross-checked via density
        got = log_likelihood(2.0, ParamPoint.theta(1, 2))
        assert got == pytest.approx(-math.log(2 * math.sqrt(2 * math.pi)) - 0.125, abs=1e-14)
        assert got == pytest.approx(math.log(density(2.0, ParamPoint.theta(1, 2))), abs=1e-12)

    def test_sigma_must_be_positive(self):
        with pytest.raises(DomainError):
            ParamPoint.theta(0.0, 0.0)
        with pytest.raises(DomainError):
            ParamPoint.theta(0.0, -1.0)

    def test_density_normalises(self, rng):
        # Gauss-Legendre over +-12 sigma, independent of the Hermite engine
        nodes, weights = np.polynomial.legendre.leggauss(400)
        for p in random_theta_points(rng, 5):
            lo, hi = p.c1 - 12 * p.c2, p.c1 + 12 * p.c2
            x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            total = 0.5 * (hi - lo) * float(weights @ density(x, p))
            assert abs(total - 1.0) < 1e-10


class TestScores:
    def test_theta_values(self):
        assert np.allclose(score_theta(1.0, ParamPoint.theta(0, 1)), [1.0, 0.0], atol=0)
        p = ParamPoint.theta(0.7, 1.3)
        assert np.allclose(score_theta(0.7, p), [0.0, -1.0 / 1.3], atol=1e-15)

    def test_xi_values(self):
        p = ParamPoint.theta(0.7, 1.3)
        assert np.allclose(score_xi(0.7, p), [0.0, -1.0 / (2 * 1.3**2)], atol=1e-15)
        assert np.allclose(score_xi(1.0, ParamPoint.theta(0, 1)), [1.0, 0.0], atol=1e-15)

    def test_xi_is_the_published_combination(self, rng):
        # second component realises (-mu/sigma) d1 + (1/(2 sigma)) d2
        for p in random_theta_points(rng, 5):
            x = rng.normal(p.c1, p.c2, size=7)
            s_th = score_theta(x, p)
            s_xi = score_xi(x, p)
            mu, s = p.c1, p.c2
            assert np.allclose(s_xi[0], s_th[0], atol=1e-14)
            assert np.allclose(
                s_xi[1], (-mu / s) * s_th[0] + s_th[1] / (2 * s), atol=1e-13
            )

    def test_pullback_matches_lifted_chain_rule(self, rng):
        # d l/d xi via Dual2 through the backward chart, for a handful of x
        for p in random_theta_points(rng, 5):
            q = chart_forward(p)
            for x in rng.normal(p.c1, p.c2, size=5):
                x1, x2 = lift(q)
                sigma = (x2 - x1 * x1).sqrt()
                l = -(sigma.log() + LOG_SQRT_2PI) - (x - x1) ** 2 / (2.0 * sigma * sigma)
                assert np.allclose(l.grad, score_xi_pullback(x, p), rtol=1e-12)

    def test_zero_mean_by_quadrature(self, rng):
        for p in random_theta_points(rng, 10):
            for comp in range(2):
                for fn in (score_theta, score_xi, score_xi_pullback):
                    val = GH.expect(lambda x, c=comp, f=fn: f(x, p)[c], p)
                    assert abs(val) < 1e-9

    def test_zero_mean_by_monte_carlo(self, rng):
        for p in random_theta_points(rng, 10, mu=(-1.5, 1.5), sigma=(1.0, 2.5)):
            for comp in range(2):
                for fn in (score_theta, score_xi):
                    val = MC.expect(lambda x, c=comp, f=fn: f(x, p)[c], p)
                    assert abs(val) < 5e-3


class TestEngines:
    def test_hermite_weights_sum_to_sqrt_pi(self):
        _, w = _hermgauss(64)
        assert float(np.sum(w)) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_normalisation_after_substitution(self):
        p = ParamPoint.theta(0.7, 1.3)
        assert abs(GH.expect(lambda x: np.ones_like(x), p) - 1.0) < 1e-12

    def test_monte_carlo_deterministic(self):
        p = ParamPoint.theta(0.5, 1.5)
        a = MonteCarlo(10_000, 5).expect(lambda x: x * x, p)
        b = MonteCarlo(10_000, 5).expect(lambda x: x * x, p)
        c = MonteCarlo(10_000, 6).expect(lambda x: x * x, p)
        assert a == b
        assert a != c

    def test_monte_carlo_minimum_samples(self):
        with pytest.raises(EngineError):
            MonteCarlo(50, 1)

    def test_gauss_hermite_minimum_nodes(self):
        for nodes in (0, -3):
            with pytest.raises(EngineError):
                GaussHermite(nodes)

    def test_monte_carlo_seed_non_negative(self):
        with pytest.raises(EngineError):
            MonteCarlo(1000, -1)

    def test_count_limits(self):
        with pytest.raises(EngineError, match="MAX_GH_NODES"):
            GaussHermite(MAX_GH_NODES + 1)
        with pytest.raises(EngineError, match="MAX_MC_SAMPLES"):
            MonteCarlo(MAX_MC_SAMPLES + 1, 1)
        # the largest accepted rule is computed without overflow or division by zero
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            total = GaussHermite(MAX_GH_NODES).expect(np.ones_like, ParamPoint.theta(0.7, 1.3))
        assert abs(total - 1.0) < 1e-12


# per-entry loops, one engine call per matrix entry: the reference for the one-pass kernels
_PAIRS = ((0, 0), (0, 1), (1, 1))
_TRIPLES = tuple((i, j, k) for i in range(2) for j in range(2) for k in range(2))
_ENGINES = (GH, GaussHermite(7), MonteCarlo(10_000, 1), MonteCarlo(10_000, 2),
            MonteCarlo(2_000, 3))


class TestOnePassEngines:
    @pytest.mark.parametrize("engine", _ENGINES, ids=repr)
    def test_stacked_call_equals_per_entry_calls(self, engine, rng):
        for p in random_theta_points(rng, 4, sigma=(1.0, 2.5)):
            def entry(x, i, j, k):
                return loglik_hessian_theta(x, p)[i, j] * score_theta(x, p)[k]

            per_entry = [engine.expect(lambda x, t=t: entry(x, *t), p) for t in _TRIPLES]
            stacked = engine.expect(lambda x: (entry(x, *t) for t in _TRIPLES), p)
            assert isinstance(per_entry[0], float) and stacked.shape == (8,)
            assert np.array_equal(stacked, per_entry)

    @pytest.mark.parametrize("engine", _ENGINES, ids=repr)
    def test_kernels_equal_per_entry_loops(self, engine, rng):
        for p in random_theta_points(rng, 3, sigma=(1.0, 2.5)):
            h = [-engine.expect(lambda x, i=i, j=j: loglik_hessian_theta(x, p)[i, j], p)
                 for i, j in _PAIRS]
            assert np.array_equal(fisher_metric_theta(p, engine).g,
                                  [[h[0], h[1]], [h[1], h[2]]])
            lower = [engine.expect(
                lambda x, i=i, j=j, k=k: loglik_hessian_theta(x, p)[i, j] * score_theta(x, p)[k],
                p) for i, j, k in _TRIPLES]
            assert np.array_equal(conn_expectation_theta(p, engine).lower,
                                  np.reshape(lower, (2, 2, 2)))
            q = chart_forward(p)
            th = chart_backward(q)
            e = [engine.expect(
                lambda x, a=a, b=b: score_xi_pullback(x, th)[a] * score_xi_pullback(x, th)[b],
                th) for a, b in _PAIRS]
            assert np.array_equal(fisher_metric(q, engine).g, [[e[0], e[1]], [e[1], e[2]]])


class TestDrawCache:
    def test_read_only(self):
        z = _standard_normals(1_000, 11)
        with pytest.raises(ValueError):
            z[0] = 0.0

    def test_same_key_is_a_cache_hit_with_the_same_bits(self):
        first = _standard_normals(1_000, 12)
        bits = first.copy()
        hits = _standard_normals.cache_info().hits
        again = _standard_normals(1_000, 12)
        assert _standard_normals.cache_info().hits == hits + 1
        assert again is first and np.array_equal(again, bits)

    def test_different_seed_gives_a_different_draw(self):
        assert not np.array_equal(_standard_normals(1_000, 13), _standard_normals(1_000, 14))

    def test_expectation_uses_a_fresh_generator_draw(self):
        # x = mu + sigma z is bit for bit the sample a fresh PCG64 stream gives
        p = ParamPoint.theta(0.5, 1.5)
        fresh = 0.5 + 1.5 * np.random.default_rng(15).standard_normal(1_000)
        for _ in range(2):
            assert MonteCarlo(1_000, 15).expect(lambda x: x**3, p) == float(np.mean(fresh**3))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


class TestLeafSums:
    """The Monte Carlo engine sums the draw in leaves of at most MC_LEAF samples
    along numpy's pairwise tree, so each mean keeps the bits of np.mean over the
    whole draw.  A numpy that changes its pairwise rule fails here, instead of
    moving the last bits of every Monte Carlo output."""

    INTEGRANDS = (lambda x: x**3, lambda x: np.exp(-x * x), lambda x: 1.0 / (x - 0.1))

    @pytest.mark.parametrize("samples", [100, 8191, 8192, 8193, 10_000, 200_003, 1_000_000])
    def test_bits_equal_the_whole_draw_mean(self, samples):
        p = ParamPoint.theta(0.4, 1.7)
        fresh = 0.4 + 1.7 * np.random.default_rng(17).standard_normal(samples)
        engine = MonteCarlo(samples, 17)
        want = [float(np.mean(f(fresh))) for f in self.INTEGRANDS]
        for f, mean in zip(self.INTEGRANDS, want):
            got = engine.expect(f, p)
            assert isinstance(got, float) and _bits(got) == _bits(mean)
        stacked = engine.expect(lambda x: (f(x) for f in self.INTEGRANDS), p)
        assert np.array_equal(_bits(stacked), _bits(want))

    def test_a_sum_that_overflows_raises_as_the_whole_draw_does(self):
        # every leaf sum is finite; numpy's sum over the whole draw overflows
        p = ParamPoint.theta(0.0, 1.0)
        for f in (lambda x: np.full_like(x, 1e304), lambda x: (np.full_like(x, 1e304),)):
            with np.errstate(over="raise"), pytest.raises(
                    FloatingPointError, match="^overflow encountered in reduce$"):
                MonteCarlo(16 * MC_LEAF, 1).expect(f, p)


class TestMemoryBound:
    """One engine call holds leaf-sized temporaries, whatever the sample count."""

    def test_peak_per_call(self):
        p = ParamPoint.theta(0.4, 1.7)
        q = chart_forward(p)
        peaks = {}
        for samples in (1_000_000, 2_000_000):
            engine = MonteCarlo(samples, 19)
            _standard_normals(samples, 19)  # the cached draw is not the call's
            for name, call in (("connection", lambda: conn_expectation_theta(p, engine)),
                               ("xi metric", lambda: fisher_metric(q, engine))):
                tracemalloc.start()
                try:
                    call()
                    peaks[name, samples] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        for name in ("connection", "xi metric"):
            assert peaks[name, 1_000_000] < 2 * 2**20
            assert peaks[name, 2_000_000] < 1.1 * peaks[name, 1_000_000]


class CountingEngine:
    """An engine that records the point of each ``expect`` call."""

    def __init__(self, engine):
        self.engine, self.calls = engine, []

    def expect(self, f, p):
        self.calls.append(p)
        return self.engine.expect(f, p)


class TestEngineBlockStops:
    """An engine block stops at its first point whose metric fails the MetricAt check."""

    @pytest.mark.parametrize("fn", [fisher_metric_theta, conn_expectation_theta])
    @pytest.mark.parametrize("bad", [0, 3, 1999])
    def test_expect_calls(self, fn, bad):
        # x = mu + sigma z rounds to mu at mu = 1e200, so every offset is 0 and det = -1
        mu = np.zeros(2000)
        mu[bad] = 1e200
        engine = CountingEngine(MonteCarlo(1000, 3))
        message = "metric at theta point (1e+200, 1.0) is not positive definite (det = -1.0)"
        with pytest.raises(SingularMetricError, match=re.escape(message)):
            fn(ParamPoint.theta(mu, np.ones(2000)), engine)
        assert len(engine.calls) == bad + 1

    @pytest.mark.parametrize("chart", [Chart.THETA, Chart.XI])
    def test_passing_block_calls_once_per_point(self, chart):
        c1, c2 = np.linspace(-1, 1, 5), np.full(5, 4.0)
        engine = CountingEngine(GaussHermite(16))
        m = fisher_metric(ParamPoint(chart, c1, c2), engine)
        assert len(engine.calls) == 5
        assert np.array_equal(m.g, fisher_metric(ParamPoint(chart, c1, c2), GaussHermite(16)).g)


class TestFisherMetric:
    def test_closed_form_values(self):
        assert np.array_equal(
            fisher_metric_theta(ParamPoint.theta(0, 1)).g, [[1.0, 0.0], [0.0, 2.0]]
        )
        assert np.array_equal(
            fisher_metric_theta(ParamPoint.theta(3, 2)).g, [[0.25, 0.0], [0.0, 0.5]]
        )

    def test_quadrature_matches_closed_form(self):
        p = ParamPoint.theta(1.0, 1.5)
        gap = np.abs(fisher_metric_theta(p, GH).g - fisher_metric_theta(p).g)
        assert np.max(gap) < 1e-10

    def test_monte_carlo_matches_closed_form(self, rng):
        for p in random_theta_points(rng, 3, sigma=(1.0, 2.5)):
            exact = np.asarray(fisher_metric_theta(p).g)
            approx = np.asarray(fisher_metric_theta(p, MC).g)
            scale = np.maximum(1.0, np.abs(exact))
            assert np.max(np.abs(approx - exact) / scale) < 5e-3

    def test_information_identity(self, rng):
        # -E[dd l] == E[dl dl], componentwise, under quadrature
        for p in random_theta_points(rng, 10):
            for i in range(2):
                for j in range(2):
                    lhs = -GH.expect(lambda x: loglik_hessian_theta(x, p)[i, j], p)
                    rhs = GH.expect(
                        lambda x: score_theta(x, p)[i] * score_theta(x, p)[j], p
                    )
                    assert abs(lhs - rhs) < 1e-9

    def test_pullback_outer_product_reproduces_dual_metric(self, rng):
        from igeo import transform_metric

        for p in random_theta_points(rng, 5):
            q = chart_forward(p)
            expected = np.asarray(transform_metric(fisher_metric_theta(p), jacobian(p)[1], q).g)
            got = np.empty((2, 2))
            for a in range(2):
                for b in range(2):
                    got[a, b] = GH.expect(
                        lambda x, a=a, b=b: score_xi_pullback(x, p)[a]
                        * score_xi_pullback(x, p)[b],
                        p,
                    )
            assert np.max(np.abs(got - expected)) < 1e-10
            # the chart-generic entry point, by both engines
            assert np.max(np.abs(fisher_metric(q, GH).g - expected)) < 1e-10
            assert np.max(np.abs(fisher_metric(q).g - expected)) < 1e-10


class TestExpectationConnection:
    def test_closed_form_values(self):
        conn = conn_expectation_theta(ParamPoint.theta(0, 1))
        expected = np.zeros((2, 2, 2))
        expected[0, 1, 0] = expected[1, 0, 0] = -2.0
        expected[1, 1, 1] = -6.0
        assert np.array_equal(conn.lower, expected)
        assert conn_expectation_theta(ParamPoint.theta(0, 2)).lower[1, 1, 1] == -0.75
        assert expectation_connection(ParamPoint.theta(0, 2)).lower[1, 1, 1] == -0.75

    def test_quadrature_matches_closed_form(self):
        p = ParamPoint.theta(1.0, 1.0)
        gap = np.abs(
            np.asarray(conn_expectation_theta(p, GH).lower)
            - np.asarray(conn_expectation_theta(p).lower)
        )
        assert np.max(gap) < 1e-9

    def test_storage_consistency(self, rng):
        # mixed[k, i, j] == g^km lower[i, j, m] to 1e-12
        for p in random_theta_points(rng, 5):
            conn = conn_expectation_theta(p)
            g_inv = np.asarray(fisher_metric_theta(p).g_inv)
            rebuilt = np.einsum("km,ijm->kij", g_inv, np.asarray(conn.lower))
            assert np.max(np.abs(rebuilt - conn.mixed)) < 1e-12


class TestCharts:
    def test_forward_examples(self):
        assert chart_forward(ParamPoint.theta(0, 1)).coords == (0.0, 1.0)
        assert chart_forward(ParamPoint.theta(1, 2)).coords == (1.0, 5.0)

    def test_backward_example(self):
        assert chart_backward(ParamPoint.xi(1, 5)).coords == (1.0, 2.0)

    def test_chart_guards(self):
        with pytest.raises(DomainError):
            chart_forward(ParamPoint.xi(0, 1))
        with pytest.raises(DomainError):
            chart_backward(ParamPoint.theta(0, 1))
        with pytest.raises(DomainError):
            ParamPoint.xi(2.0, 4.0)  # x2 - x1^2 = 0

    def test_forward_overflow_names_the_theta_point(self):
        message = "theta point (1e+200, 1.0) has no xi coordinates in double precision"
        with pytest.raises(DomainError, match=re.escape(message)):
            chart_forward(ParamPoint.theta(1e200, 1.0))
        with pytest.raises(DomainError, match=re.escape(message)), np.errstate(over="ignore"):
            chart_forward(ParamPoint.theta(np.array([0.0, 1e200, 1e300]), np.ones(3)))

    def test_forward_cancellation_names_the_theta_point(self):
        # sigma^2 below half an ulp of mu^2: mu^2 + sigma^2 == mu^2 leaves the xi domain
        message = "theta point (10000000000.0, 1e-10) has no xi coordinates in double precision"
        with pytest.raises(DomainError, match=re.escape(message)):
            chart_forward(ParamPoint.theta(1e10, 1e-10))
        message = "theta point (10000000000.0, 0.001) has no xi coordinates in double precision"
        with pytest.raises(DomainError, match=re.escape(message)), np.errstate(over="ignore"):
            chart_forward(ParamPoint.theta(np.array([0.0, 1e10, 1e200]),
                                           np.array([1e-10, 1e-3, 1.0])))

    @given(mu=st.floats(-10, 10), sigma=st.floats(0.1, 10))
    @settings(max_examples=200)
    def test_round_trip(self, mu, sigma):
        p = ParamPoint.theta(mu, sigma)
        back = chart_backward(chart_forward(p))
        assert abs(back.c1 - mu) <= 1e-12 * max(1, abs(mu))
        assert abs(back.c2 - sigma) <= 1e-12 * max(1, sigma)

    def test_jacobian_examples(self):
        jac, _ = jacobian(ParamPoint.theta(1, 2))
        assert np.array_equal(jac, [[1.0, 0.0], [2.0, 4.0]])
        assert float(np.linalg.det(jac)) == 4.0
        _, jac_inv = jacobian(ParamPoint.theta(0, 0.5))
        assert np.array_equal(jac_inv, [[1.0, 0.0], [0.0, 1.0]])

    def test_jacobian_inverse_identity(self, rng):
        for p in random_theta_points(rng, 10):
            jac, jac_inv = jacobian(p)
            assert np.max(np.abs(jac @ jac_inv - np.eye(2))) < 1e-14

    def test_jacobian_agrees_with_forward_map_autodiff(self, rng):
        for p in random_theta_points(rng, 10):
            jac, _ = jacobian(p)
            row0 = gradient(lambda a, b: a, p)
            row1 = gradient(lambda a, b: a * a + b * b, p)
            assert np.max(np.abs(np.stack([row0, row1]) - jac)) < 1e-10

    def test_second_derivatives_analytic_and_fd(self, rng):
        for p in random_theta_points(rng, 5):
            mu, s = p.coords
            sd = chart_second_derivatives(p)
            expected = np.zeros((2, 2, 2))
            expected[1] = [
                [-(s * s + mu * mu) / s**3, mu / (2 * s**3)],
                [mu / (2 * s**3), -1.0 / (4 * s**3)],
            ]
            assert np.max(np.abs(sd - expected)) < 1e-12
            q = chart_forward(p)
            # the default 1e-3 step gives 4e-5 relative error here; 1e-4 gives 4e-7
            fd = oracles.hessian_fd(lambda a, b: math.sqrt(b - a * a), q.coords, h=1e-4)
            assert np.max(np.abs(sd[1] - fd)) < 1e-5 * max(1.0, float(np.max(np.abs(fd))))


class TestDualChartMetricField:
    def test_pullback_field_matches_closed_form(self, rng):
        field = fisher_metric_field(Chart.XI)
        for p in random_theta_points(rng, 10):
            mu, s = p.coords
            q = chart_forward(p)
            got = np.array(field(q.c1, q.c2), dtype=float)
            s2 = s * s
            expected = np.array(
                [[(s2 + 2 * mu * mu) / s2**2, -mu / s2**2], [-mu / s2**2, 0.5 / s2**2]]
            )
            assert np.max(np.abs(got - expected)) < 1e-12 * max(1.0, float(np.max(np.abs(expected))))
