"""Gaussian family: derivative kernels, engines, metric, connection, charts."""

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
    expectation_connection,
    fisher_metric,
    fisher_metric_field,
    fisher_metric_theta,
    jacobian,
)
from igeo.autodiff import lift
from igeo import models
from igeo.geometry import _raise_index
from igeo.models import (
    MAX_GH_NODES,
    MAX_MC_SAMPLES,
    MC_LEAF,
    _hermgauss,
    _hessian_parts,
    _metric_from_means,
    _pullback_parts,
    _score_parts,
    _standard_normals,
)

import oracles
from conftest import random_theta_points

GH = GaussHermite(64)
MC = MonteCarlo(1_000_000, 20260808)


class TestLogLikelihood:
    def test_sigma_must_be_positive(self):
        with pytest.raises(DomainError):
            ParamPoint.theta(0.0, 0.0)
        with pytest.raises(DomainError):
            ParamPoint.theta(0.0, -1.0)


class TestScores:
    """The package's score kernels at the offsets z = x - mu, and the published basis."""

    def test_theta_values(self):
        assert np.array_equal(_score_parts(1.0, 1.0), [1.0, 0.0])
        assert np.allclose(_score_parts(0.0, 1.3), [0.0, -1.0 / 1.3], rtol=0, atol=1e-15)

    def test_xi_values(self):
        assert np.allclose(oracles.published_score_xi(0.7, 0.7, 1.3), [0.0, -1.0 / (2 * 1.3**2)],
                           rtol=0, atol=1e-15)
        assert np.allclose(oracles.published_score_xi(1.0, 0.0, 1.0), [1.0, 0.0],
                           rtol=0, atol=1e-15)

    def test_xi_is_the_published_combination(self, rng):
        # second component realises (-mu/sigma) d1 + (1/(2 sigma)) d2
        for p in random_theta_points(rng, 5):
            mu, s = p.c1, p.c2
            x = rng.normal(mu, s, size=7)
            s_th = _score_parts(x - mu, s)
            s_xi = oracles.published_score_xi(x, mu, s)
            assert np.allclose(s_xi[0], s_th[0], rtol=0, atol=1e-14)
            assert np.allclose(
                s_xi[1], (-mu / s) * s_th[0] + s_th[1] / (2 * s), rtol=0, atol=1e-13
            )

    def test_published_xi_is_the_pullback_only_at_zero_mean(self, rng):
        # the two differ by terms in mu: they agree at mu = 0 and nowhere else
        for p in random_theta_points(rng, 5, mu=(0.5, 3.0)):
            mu, s = p.c1, p.c2
            x = rng.normal(mu, s, size=7)
            assert np.allclose(oracles.published_score_xi(x, 0.0, s), _pullback_parts(x, 0.0, s),
                               rtol=1e-13, atol=1e-13)
            gap = np.subtract(oracles.published_score_xi(x, mu, s), _pullback_parts(x - mu, mu, s))
            assert np.max(np.abs(gap)) > 1e-3

    def test_pullback_matches_lifted_chain_rule(self, rng):
        # d l/d xi via Dual2 through the backward chart, for a handful of x
        for p in random_theta_points(rng, 5):
            q = chart_forward(p)
            for x in rng.normal(p.c1, p.c2, size=5):
                x1, x2 = lift(q)
                sigma = (x2 - x1 * x1).sqrt()
                l = -(sigma.log() + oracles.LOG_SQRT_2PI) - (x - x1) ** 2 / (2.0 * sigma * sigma)
                assert np.allclose(l.grad, _pullback_parts(x - p.c1, p.c1, p.c2), rtol=1e-12)

    def test_zero_mean_by_quadrature(self, rng):
        for p in random_theta_points(rng, 10):
            mu, s = p.c1, p.c2
            for fn in (lambda x: _score_parts(x - mu, s),
                       lambda x: oracles.published_score_xi(x, mu, s),
                       lambda x: _pullback_parts(x - mu, mu, s)):
                for comp in range(2):
                    assert abs(GH.expect(lambda x, c=comp: fn(x)[c], p)) < 1e-9

    def test_zero_mean_by_monte_carlo(self, rng):
        for p in random_theta_points(rng, 10, mu=(-1.5, 1.5), sigma=(1.0, 2.5)):
            mu, s = p.c1, p.c2
            for fn in (lambda x: _score_parts(x - mu, s),
                       lambda x: oracles.published_score_xi(x, mu, s)):
                for comp in range(2):
                    assert abs(MC.expect(lambda x, c=comp: fn(x)[c], p)) < 5e-3


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


# per-entry loops, one engine call per matrix entry: the reference for the one-pass
# kernels; the integrands are the oracles' hand-written derivatives, so a slip in the
# package's own derivatives fails here
_PAIRS = ((0, 0), (0, 1), (1, 1))
_TRIPLES = tuple((i, j, k) for i in range(2) for j in range(2) for k in range(2))
_ENGINES = (GH, GaussHermite(7), MonteCarlo(10_000, 1), MonteCarlo(10_000, 2),
            MonteCarlo(2_000, 3))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def _product(x, p, i, j, k):
    """h_ij * score_k of the oracles at the samples x."""
    return (oracles.gaussian_hessian(x, p.c1, p.c2)[i][j]
            * oracles.gaussian_score(x, p.c1, p.c2)[k])


class TestOnePassEngines:
    @pytest.mark.parametrize("engine", _ENGINES, ids=repr)
    def test_stacked_call_equals_per_entry_calls(self, engine, rng):
        for p in random_theta_points(rng, 4, sigma=(1.0, 2.5)):
            per_entry = [engine.expect(lambda x, t=t: _product(x, p, *t), p) for t in _TRIPLES]
            stacked = engine.expect(lambda x: (_product(x, p, *t) for t in _TRIPLES), p)
            assert isinstance(per_entry[0], float) and stacked.shape == (8,)
            assert np.array_equal(stacked, per_entry)

    @pytest.mark.parametrize("engine", _ENGINES, ids=repr)
    def test_kernels_equal_per_entry_loops(self, engine, rng):
        for p in random_theta_points(rng, 3, sigma=(1.0, 2.5)):
            h = [-engine.expect(lambda x, i=i, j=j: oracles.gaussian_hessian(x, p.c1, p.c2)[i][j], p)
                 for i, j in _PAIRS]
            assert np.array_equal(fisher_metric_theta(p, engine).g,
                                  [[h[0], h[1]], [h[1], h[2]]])
            lower = [engine.expect(lambda x, t=t: _product(x, p, *t), p) for t in _TRIPLES]
            assert np.array_equal(conn_expectation_theta(p, engine).lower,
                                  np.reshape(lower, (2, 2, 2)))
            q = chart_forward(p)
            th = chart_backward(q)
            e = [engine.expect(
                lambda x, a=a, b=b: oracles.gaussian_score_xi(x, th.c1, th.c2)[a]
                * oracles.gaussian_score_xi(x, th.c1, th.c2)[b],
                th) for a, b in _PAIRS]
            assert np.array_equal(fisher_metric(q, engine).g, [[e[0], e[1]], [e[1], e[2]]])

    @pytest.mark.parametrize("engine", [MonteCarlo(10**5, 7), GH], ids=repr)
    def test_distinct_products_fill_every_entry(self, engine):
        # the connection integrates h11, h12 and h22 times each score once; every
        # (i, j, k) entry has the bits of its own product's mean, on a 2x2 block too
        mu, s = np.meshgrid([-0.7, 1.3], [0.6, 2.2], indexing="ij")
        block = ParamPoint.theta(mu.ravel(), s.ravel())
        got = conn_expectation_theta(block, engine).lower
        for i in range(4):
            p = block.at(i)
            want = engine.expect(lambda x: (_product(x, p, *t) for t in _TRIPLES), p)
            assert np.array_equal(_bits(got[i]), _bits(want.reshape(2, 2, 2)))
            assert np.array_equal(_bits(conn_expectation_theta(p, engine).lower), _bits(got[i]))


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

    def test_peak_of_a_gauss_hermite_block(self):
        # a 4,096-point block at 300 nodes is integrated in cuts of GH_BLOCK_VALUES
        # values per array; in one piece it would peak near 85 MB
        mu, s = np.meshgrid(np.linspace(-1, 1, 64), np.linspace(0.5, 2, 64), indexing="ij")
        block = ParamPoint.theta(mu.ravel(), s.ravel())
        _hermgauss(300)  # the cached rule is not the call's
        tracemalloc.start()
        try:
            conn_expectation_theta(block, GaussHermite(300))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


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


def _outcome(call):
    """call() under the CLI's float traps: its result, or its error's type and message."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return call()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


class TestGaussHermiteBlocks:
    """An exact GaussHermite integrates a block in one call per cut, with the bits
    of one call per point, which a wrapped engine still makes."""

    @staticmethod
    def block(chart: Chart, shape) -> ParamPoint:
        rng = np.random.default_rng(23)
        p = ParamPoint.theta(rng.uniform(-3, 3, shape), rng.uniform(0.3, 3, shape))
        return p if chart is Chart.THETA else chart_forward(p)

    @staticmethod
    def arrays(result):
        return (result.g, result.g_inv) if hasattr(result, "g") else (result.lower, result.mixed)

    def assert_block_bits_equal_point_bits(self, monkeypatch, fn, p, nodes, cuts):
        calls = []
        expect = GaussHermite.expect

        def counting(engine, f, q):
            calls.append(np.size(q.c1))
            return expect(engine, f, q)

        monkeypatch.setattr(GaussHermite, "expect", counting)
        got = _outcome(lambda: fn(p, GaussHermite(nodes)))
        assert len(calls) == cuts and sum(calls) == np.size(p.c1)
        per_point = CountingEngine(GaussHermite(nodes))
        want = _outcome(lambda: fn(p, per_point))
        if isinstance(want, tuple):  # one node puts x at mu, where no metric is definite
            assert got == want and nodes == 1
            return
        assert len(per_point.calls) == np.size(p.c1)
        for a, b in zip(self.arrays(got), self.arrays(want)):
            assert a.shape == b.shape and np.array_equal(_bits(a), _bits(b))

    @pytest.mark.parametrize("fn", [fisher_metric, expectation_connection])
    @pytest.mark.parametrize("chart", [Chart.THETA, Chart.XI], ids=str)
    @pytest.mark.parametrize("nodes", [1, 16, 64, 300])
    def test_block_bits_equal_point_bits(self, monkeypatch, fn, chart, nodes):
        # 600 values per array: 700 points are cut in 2 (1 node) to 350 (300 nodes)
        monkeypatch.setattr(models, "GH_BLOCK_VALUES", 600)
        cut = max(1, 600 // nodes)
        self.assert_block_bits_equal_point_bits(
            monkeypatch, fn, self.block(chart, (35, 20)), nodes, -(-700 // cut))

    @pytest.mark.parametrize("chart", [Chart.THETA, Chart.XI], ids=str)
    def test_default_cut(self, monkeypatch, chart):
        # 65,536 // 300 = 218 points per call
        self.assert_block_bits_equal_point_bits(
            monkeypatch, expectation_connection, self.block(chart, 500), 300, 3)

    @pytest.mark.parametrize("nodes", [1, 16, 64, 300])
    def test_single_integrand_and_stacked(self, nodes):
        p = self.block(Chart.THETA, (3, 4))
        engine = GaussHermite(nodes)
        one = engine.expect(lambda x: x**3, p)
        stacked = engine.expect(lambda x: (x**3, np.exp(-x * x)), p)
        assert one.shape == (3, 4) and stacked.shape == (3, 4, 2)
        for i in np.ndindex(3, 4):
            q = p.at(i)
            assert _bits(one[i]) == _bits(engine.expect(lambda x: x**3, q))
            assert np.array_equal(_bits(stacked[i]),
                                  _bits(engine.expect(lambda x: (x**3, np.exp(-x * x)), q)))


# extreme coordinates: float errors of every kind, and metrics that fail their check
_EXTREME_MU = (0.0, 3.0, -2.5, 1e-150, 1e100, 1e154, 1e200, -1e300, 1.7e308)
_EXTREME_SIGMA = (5e-324, 1e-300, 1e-160, 1e-152, 1e-100, 1e-50, 0.5, 1.0, 1e50, 1e100,
                  1e154, 1e200, 1.7e308)


def _eight_product_connection(p: ParamPoint, engine):
    """The connection as it was defined: the means of every product h_ij * score_k in
    (i, j, k) order, then of h11, h12 and h22."""
    def integrands(x):
        z = x - p.c1
        h11, h12, h22 = _hessian_parts(z, p.c2)
        hess, score = ((h11, h12), (h12, h22)), _score_parts(z, p.c2)
        yield from (hess[i][j] * score[k] for i, j, k in _TRIPLES)
        yield from (h11, h12, h22)

    means = engine.expect(integrands, p)
    lower = means[:8].reshape(2, 2, 2)
    return lower, _raise_index(_metric_from_means(p, -means[8:]).g_inv, lower)


class TestNineIntegrands:
    """Dropping the two repeated products changes no value and no error."""

    @pytest.mark.parametrize("engine", [MonteCarlo(1000, 3), MonteCarlo(3 * MC_LEAF + 5, 5),
                                        GaussHermite(64)], ids=repr)
    def test_extreme_points_fail_as_the_eight_products_do(self, engine):
        failures = 0
        for mu in _EXTREME_MU:
            for s in _EXTREME_SIGMA:
                p = ParamPoint.theta(mu, s)
                got = _outcome(lambda: conn_expectation_theta(p, engine))
                want = _outcome(lambda: _eight_product_connection(p, engine))
                if isinstance(want[0], type):
                    failures += 1
                    assert got == want, p
                else:
                    assert np.array_equal(_bits(got.lower), _bits(want[0])), p
                    assert np.array_equal(_bits(got.mixed), _bits(want[1])), p
        assert 0 < failures < len(_EXTREME_MU) * len(_EXTREME_SIGMA)


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
        # -E[dd l] == E[dl dl], componentwise, under quadrature: each side from the
        # package's kernels against the other side from the oracles' derivatives
        for p in random_theta_points(rng, 10):
            minus_h = fisher_metric_theta(p, GH).g
            for i in range(2):
                for j in range(2):
                    oracle_ss = GH.expect(
                        lambda x: oracles.gaussian_score(x, p.c1, p.c2)[i]
                        * oracles.gaussian_score(x, p.c1, p.c2)[j], p
                    )
                    assert abs(minus_h[i, j] - oracle_ss) < 1e-9
                    ss = GH.expect(lambda x: _score_parts(x - p.c1, p.c2)[i]
                                   * _score_parts(x - p.c1, p.c2)[j], p)
                    oracle_h = -GH.expect(
                        lambda x: oracles.gaussian_hessian(x, p.c1, p.c2)[i][j], p
                    )
                    assert abs(ss - oracle_h) < 1e-9

    def test_pullback_outer_product_reproduces_dual_metric(self, rng):
        from igeo import transform_metric

        for p in random_theta_points(rng, 5):
            q = chart_forward(p)
            expected = np.asarray(transform_metric(fisher_metric_theta(p), jacobian(p)[1], q).g)
            got = np.empty((2, 2))
            for a in range(2):
                for b in range(2):
                    got[a, b] = GH.expect(
                        lambda x, a=a, b=b: oracles.gaussian_score_xi(x, p.c1, p.c2)[a]
                        * oracles.gaussian_score_xi(x, p.c1, p.c2)[b],
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
        for (mu, s), want in (((0, 1), (0.0, 1.0)), ((1, 2), (1.0, 5.0))):
            q = chart_forward(ParamPoint.theta(mu, s))
            assert (q.c1, q.c2) == want

    def test_backward_example(self):
        p = chart_backward(ParamPoint.xi(1, 5))
        assert (p.c1, p.c2) == (1.0, 2.0)

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
            a, b = lift(p)
            row0, row1 = a.grad, (a * a + b * b).grad
            assert np.max(np.abs(np.stack([row0, row1]) - jac)) < 1e-10

    def test_second_derivatives_analytic_and_fd(self, rng):
        for p in random_theta_points(rng, 5):
            mu, s = p.c1, p.c2
            sd = chart_second_derivatives(p)
            expected = np.zeros((2, 2, 2))
            expected[1] = [
                [-(s * s + mu * mu) / s**3, mu / (2 * s**3)],
                [mu / (2 * s**3), -1.0 / (4 * s**3)],
            ]
            assert np.max(np.abs(sd - expected)) < 1e-12
            q = chart_forward(p)
            # the default 1e-3 step gives 4e-5 relative error here; 1e-4 gives 4e-7
            fd = oracles.hessian_fd(lambda a, b: math.sqrt(b - a * a), (q.c1, q.c2), h=1e-4)
            assert np.max(np.abs(sd[1] - fd)) < 1e-5 * max(1.0, float(np.max(np.abs(fd))))


class TestDualChartMetricField:
    def test_pullback_field_matches_closed_form(self, rng):
        field = fisher_metric_field(Chart.XI)
        for p in random_theta_points(rng, 10):
            mu, s = p.c1, p.c2
            q = chart_forward(p)
            got = np.array(field(q.c1, q.c2), dtype=float)
            s2 = s * s
            expected = np.array(
                [[(s2 + 2 * mu * mu) / s2**2, -mu / s2**2], [-mu / s2**2, 0.5 / s2**2]]
            )
            assert np.max(np.abs(got - expected)) < 1e-12 * max(1.0, float(np.max(np.abs(expected))))
