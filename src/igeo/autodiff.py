"""Forward-mode differentiation of scalar functions of two parameters.

Dual2 carries a value, a 2-vector of first partials, and a symmetric 2x2
Hessian through arithmetic, so one evaluation of a closed-form field at a
lifted point yields the field together with its first and second derivatives.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import ParamPoint


class Dual2:
    """Second-order dual scalar: value, gradient (g1, g2), Hessian (h11, h12, h22).

    The Hessian is stored as three entries, so symmetry holds by construction.
    All operations are pure; instances are safe to share across threads.
    """

    __slots__ = ("val", "g1", "g2", "h11", "h12", "h22")

    def __init__(self, val, g1=0.0, g2=0.0, h11=0.0, h12=0.0, h22=0.0):
        self.val = float(val)
        self.g1 = float(g1)
        self.g2 = float(g2)
        self.h11 = float(h11)
        self.h12 = float(h12)
        self.h22 = float(h22)

    @property
    def grad(self) -> np.ndarray:
        return np.array([self.g1, self.g2])

    @property
    def hess(self) -> np.ndarray:
        return np.array([[self.h11, self.h12], [self.h12, self.h22]])

    def __repr__(self) -> str:
        return f"Dual2({self.val!r}, grad=({self.g1!r}, {self.g2!r}))"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return Dual2(self.val + o.val, self.g1 + o.g1, self.g2 + o.g2,
                     self.h11 + o.h11, self.h12 + o.h12, self.h22 + o.h22)

    __radd__ = __add__

    def __neg__(self):
        return Dual2(-self.val, -self.g1, -self.g2, -self.h11, -self.h12, -self.h22)

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        u, v = self, o
        return Dual2(
            u.val * v.val,
            u.g1 * v.val + u.val * v.g1,
            u.g2 * v.val + u.val * v.g2,
            u.h11 * v.val + 2.0 * u.g1 * v.g1 + u.val * v.h11,
            u.h12 * v.val + u.g1 * v.g2 + u.g2 * v.g1 + u.val * v.h12,
            u.h22 * v.val + 2.0 * u.g2 * v.g2 + u.val * v.h22,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.reciprocal()

    def __pow__(self, n):
        if n == 0:
            return Dual2(1.0)
        u = self.val
        return self._compose(u ** n, n * u ** (n - 1), n * (n - 1) * u ** (n - 2))

    # -- elementary functions (chain rule through f', f'') --------------------

    def _compose(self, f, fp, fpp):
        return Dual2(
            f,
            fp * self.g1,
            fp * self.g2,
            fp * self.h11 + fpp * self.g1 * self.g1,
            fp * self.h12 + fpp * self.g1 * self.g2,
            fp * self.h22 + fpp * self.g2 * self.g2,
        )

    def reciprocal(self):
        u = self.val
        return self._compose(1.0 / u, -1.0 / (u * u), 2.0 / (u * u * u))

    def sqrt(self):
        r = math.sqrt(self.val)
        return self._compose(r, 0.5 / r, -0.25 / (r * self.val))

    def log(self):
        u = self.val
        return self._compose(math.log(u), 1.0 / u, -1.0 / (u * u))

    def sin(self):
        s, c = math.sin(self.val), math.cos(self.val)
        return self._compose(s, c, -s)

    def cos(self):
        s, c = math.sin(self.val), math.cos(self.val)
        return self._compose(c, -s, -c)


def _coerce(x) -> Dual2 | None:
    if isinstance(x, Dual2):
        return x
    if isinstance(x, (int, float, np.floating, np.integer)):
        return Dual2(float(x))
    return None


def sqrt(x):
    return x.sqrt() if isinstance(x, Dual2) else math.sqrt(x)


def log(x):
    return x.log() if isinstance(x, Dual2) else math.log(x)


def sin(x):
    return x.sin() if isinstance(x, Dual2) else math.sin(x)


def cos(x):
    return x.cos() if isinstance(x, Dual2) else math.cos(x)


def lift(point: ParamPoint) -> tuple[Dual2, Dual2]:
    """Seed the two coordinates of a point for differentiation.

    Seed i carries value = coordinate i, gradient = e_i, Hessian = 0.
    """
    return Dual2(point.c1, g1=1.0), Dual2(point.c2, g2=1.0)


def value(x) -> float:
    """Plain float of a Dual2 or number (for fields evaluated either way)."""
    return x.val if isinstance(x, Dual2) else float(x)


def gradient(f: Callable, point: ParamPoint) -> np.ndarray:
    """Gradient of f(c1, c2) at the point, via a single Dual2 evaluation."""
    a, b = lift(point)
    return _coerce(f(a, b)).grad


def hessian(f: Callable, point: ParamPoint) -> np.ndarray:
    """Symmetric Hessian of f(c1, c2) at the point, via Dual2."""
    a, b = lift(point)
    return _coerce(f(a, b)).hess
