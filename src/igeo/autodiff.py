"""Forward-mode differentiation of scalar functions of two parameters.

Dual2 carries a value, a 2-vector of first partials, and a symmetric 2x2
Hessian through arithmetic, so one evaluation of a closed-form field at a
lifted point yields the field together with its first and second derivatives.
Its components are floats for one point, or numpy arrays for a block of
points; a float point keeps the ``math`` functions and their bits.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import ParamPoint


class Dual2:
    """Second-order dual scalar: value, gradient (g1, g2), Hessian (h11, h12, h22).

    The Hessian is stored as three entries, so symmetry holds by construction.
    Each component is a float or an array that broadcasts with the others.
    All operations are pure; instances are safe to share across threads.
    """

    __slots__ = ("val", "g1", "g2", "h11", "h12", "h22")
    __array_ufunc__ = None  # ndarray * Dual2 defers to Dual2, not an object array

    def __init__(self, val, g1=0.0, g2=0.0, h11=0.0, h12=0.0, h22=0.0):
        self.val = val
        self.g1 = g1
        self.g2 = g2
        self.h11 = h11
        self.h12 = h12
        self.h22 = h22

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
        return self._compose(_pow(u, n), n * _pow(u, n - 1), n * (n - 1) * _pow(u, n - 2))

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
        r = _sqrt(self.val)
        return self._compose(r, 0.5 / r, -0.25 / (r * self.val))

    def sin(self):
        s, c = _sin(self.val), _cos(self.val)
        return self._compose(s, c, -s)


def _elementary(scalar: Callable, array: Callable) -> Callable:
    """``scalar`` (math.*) on a plain number, ``array`` (np.*) on an array."""
    return lambda u, *args: array(u, *args) if isinstance(u, np.ndarray) else scalar(u, *args)


def _float_pow(u: float, n) -> float:
    """u ** n by libm pow; an overflow names its operation, as numpy's float errors do."""
    try:
        return u**n
    except OverflowError:
        raise OverflowError("overflow encountered in power") from None


# float ** n calls libm pow, which can differ from the product np's ** takes for n = 2
_pow = _elementary(_float_pow, np.float_power)
_sqrt = _elementary(math.sqrt, np.sqrt)
_sin = _elementary(math.sin, np.sin)
_cos = _elementary(math.cos, np.cos)


def _coerce(x) -> Dual2 | None:
    if isinstance(x, Dual2):
        return x
    if isinstance(x, (int, float, np.floating, np.integer)):
        return Dual2(float(x))
    if isinstance(x, np.ndarray):
        return Dual2(np.asarray(x, dtype=float))
    return None


def sqrt(x):
    return x.sqrt() if isinstance(x, Dual2) else _sqrt(x)


def sin(x):
    return x.sin() if isinstance(x, Dual2) else _sin(x)


def stack(entries) -> np.ndarray:
    """Floats, or arrays of one block shape, stacked as (k, *block); a float entry
    (a constant, or a derivative that is zero everywhere) is broadcast over the block."""
    try:
        return np.array(entries, dtype=float)  # a point's floats, or a block's arrays
    except ValueError:  # floats among block arrays
        return np.array(np.broadcast_arrays(*entries), dtype=float)


def batch_array(entries, shape: tuple[int, ...]) -> np.ndarray:
    """Entries in C order, as ``stack`` takes them, as a C-ordered (*block, *shape)."""
    flat = stack(entries)
    return np.ascontiguousarray(flat.reshape(len(flat), -1).T).reshape(flat.shape[1:] + shape)


def lift(point: ParamPoint) -> tuple[Dual2, Dual2]:
    """Seed the two coordinates of a point for differentiation.

    Seed i carries value = coordinate i, gradient = e_i, Hessian = 0.  A block
    point lifts to Dual2 values that carry its coordinate arrays.
    """
    return Dual2(point.c1, g1=1.0), Dual2(point.c2, g2=1.0)

