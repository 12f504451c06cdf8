"""Dual2 arithmetic against analytic derivatives and 5-point stencils."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igeo import Dual2, ParamPoint, lift
from igeo.autodiff import log, sin, sqrt

import oracles


class TestLift:
    def test_seed_values_and_directions(self):
        a, b = lift(ParamPoint.theta(0.0, 1.0))
        assert (a.val, b.val) == (0.0, 1.0)
        assert np.array_equal(a.grad, [1.0, 0.0])
        assert np.array_equal(b.grad, [0.0, 1.0])
        assert not a.hess.any() and not b.hess.any()

    def test_product_rule(self):
        a, b = lift(ParamPoint.theta(2.0, 3.0))
        f = a * b
        assert f.val == 6.0
        assert np.array_equal(f.grad, [3.0, 2.0])
        assert np.array_equal(f.hess, [[0.0, 1.0], [1.0, 0.0]])

    def test_reciprocal_square(self):
        # f(a, b) = 1/b^2 at (0, 2): value 1/4, d/db = -2/b^3, d2/db2 = 6/b^4
        a, b = lift(ParamPoint.theta(0.0, 2.0))
        f = 1.0 / (b * b)
        assert f.val == 0.25
        assert np.allclose(f.grad, [0.0, -0.25], atol=1e-15)
        assert abs(f.hess[1, 1] - 0.375) < 1e-15
        fd = oracles.hessian_fd(lambda x, y: 1.0 / y**2, (0.0, 2.0))
        assert abs(fd[1, 1] - 0.375) < 1e-7

    def test_hessian_is_exactly_symmetric(self):
        a, b = lift(ParamPoint.theta(1.3, 0.7))
        f = (a * a * b + 3.0) / (b * b) - a * sqrt(b)
        assert f.hess[0, 1] == f.hess[1, 0]


class TestElementary:
    @pytest.mark.parametrize(
        "fn, x, d1, d2",
        [
            (sqrt, 2.0, 0.5 / math.sqrt(2.0), -0.25 / 2.0**1.5),
            (log, 3.0, 1.0 / 3.0, -1.0 / 9.0),
            (sin, 0.6, math.cos(0.6), -math.sin(0.6)),
        ],
    )
    def test_unary_derivatives(self, fn, x, d1, d2):
        d = fn(Dual2(x, g1=1.0))
        assert d.val == pytest.approx(fn(x), abs=0)
        assert d.g1 == pytest.approx(d1, rel=1e-15)
        assert d.h11 == pytest.approx(d2, rel=1e-14)

    def test_integer_powers_and_division(self):
        u = Dual2(1.5, g1=1.0)
        v = u**3 / (1.0 + u)
        f = lambda x: x**3 / (1.0 + x)
        h = 1e-6
        assert v.val == pytest.approx(f(1.5))
        assert v.g1 == pytest.approx((f(1.5 + h) - f(1.5 - h)) / (2 * h), rel=1e-8)
        assert v.h11 == pytest.approx((f(1.5 + h) - 2 * f(1.5) + f(1.5 - h)) / h**2, rel=1e-3)

    def test_scalar_mixes(self):
        u = Dual2(2.0, g2=1.0)
        assert (3.0 - u).val == 1.0 and (3.0 - u).g2 == -1.0
        assert (6.0 / u).val == 3.0 and (6.0 / u).g2 == -1.5


def _random_poly(rng):
    """Random bivariate polynomial of degree <= 4, with its analytic derivatives."""
    deg = int(rng.integers(1, 5))
    terms = [
        (float(rng.normal()), i, j)
        for i in range(deg + 1)
        for j in range(deg + 1 - i)
    ]

    def f(a, b):
        return sum(c * a**i * b**j for c, i, j in terms)

    return f


class TestAgainstFiniteDifferences:
    def test_twenty_random_polynomials(self, rng):
        # gradient to 1e-6 relative, Hessian to 1e-4, sigma in [0.5, 3]
        for _ in range(20):
            f = _random_poly(rng)
            for _ in range(20):
                p = ParamPoint.theta(rng.uniform(-2, 2), rng.uniform(0.5, 3.0))
                jet = f(*lift(p))
                g_ad, h_ad = jet.grad, jet.hess
                x = (p.c1, p.c2)
                g_fd, h_fd = oracles.gradient_fd(f, x), oracles.hessian_fd(f, x)
                scale_g = max(1.0, float(np.max(np.abs(g_ad))))
                scale_h = max(1.0, float(np.max(np.abs(h_ad))))
                assert np.max(np.abs(g_ad - g_fd)) < 1e-6 * scale_g
                assert np.max(np.abs(h_ad - h_fd)) < 1e-4 * scale_h

    @given(
        coeffs=st.lists(st.floats(-3, 3), min_size=6, max_size=6),
        mu=st.floats(-2, 2),
        sigma=st.floats(0.5, 3),
    )
    @settings(max_examples=60)
    def test_quadratics_are_machine_exact(self, coeffs, mu, sigma):
        c0, c1, c2, c11, c12, c22 = coeffs

        def f(a, b):
            return c0 + c1 * a + c2 * b + c11 * a * a + c12 * a * b + c22 * b * b

        jet = f(*lift(ParamPoint.theta(mu, sigma)))
        g, h = jet.grad, jet.hess
        exact_g = np.array([c1 + 2 * c11 * mu + c12 * sigma, c2 + c12 * mu + 2 * c22 * sigma])
        exact_h = np.array([[2 * c11, c12], [c12, 2 * c22]])
        scale = max(1.0, float(np.max(np.abs(exact_g))))
        assert np.max(np.abs(g - exact_g)) <= 1e-14 * scale
        assert np.array_equal(h, exact_h)



class TestArrays:
    """Dual2 carries arrays; a float point keeps the math functions."""

    def test_array_times_dual_is_dual(self):
        a, _ = lift(ParamPoint.theta(np.array([1.0, 2.0]), np.array([1.0, 1.0])))
        for f in (np.array([3.0, 4.0]) * a, a * np.array([3.0, 4.0]), np.array([3.0, 4.0]) - a):
            assert isinstance(f, Dual2)
        f = np.array([3.0, 4.0]) * a
        assert np.array_equal(f.val, [3.0, 8.0])
        assert np.array_equal(f.grad, [[3.0, 0.0], [4.0, 0.0]])

    def test_elementary_functions_match_points(self):
        xs = np.array([0.3, 1.1, 2.5])
        block = ParamPoint.theta(0.0, 1.0)
        a, b = lift(ParamPoint(block.chart, xs, xs + 1.0))
        for fn in (sqrt, log):
            out = fn(a * b + 1.0)
            assert isinstance(out.val, np.ndarray)
            for n, x in enumerate(xs):
                one_a, one_b = lift(ParamPoint.theta(x, x + 1.0))
                one = fn(one_a * one_b + 1.0)
                assert type(one.val) is float
                assert np.array_equal(out.hess[n], one.hess)
        assert np.allclose(sin(a).val, [math.sin(x) for x in xs], rtol=1e-15)

    def test_power_rounds_like_float_pow(self):
        # float ** 2 calls pow; the block must not multiply instead
        xs = np.random.default_rng(7).normal(size=2000)
        a, _ = lift(ParamPoint.theta(xs, np.ones_like(xs)))
        block = (a ** 2).val
        assert np.array_equal(block, [x ** 2 for x in xs.tolist()])
        u, _ = lift(ParamPoint.theta(2.0, 1.0))
        assert np.array_equal((u ** 3).hess, [[12.0, 0.0], [0.0, 0.0]])
