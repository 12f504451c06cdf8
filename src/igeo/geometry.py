"""Chart-generic tensor kernels on a two-parameter manifold.

A *metric field* is a callable ``field(c1, c2) -> 2x2 matrix`` whose entries
are plain floats or :class:`~igeo.autodiff.Dual2` values, so the same closed
form serves both direct evaluation and differentiation.  From such a field
this module derives the Levi-Civita connection, torsion, the rank-4 curvature
array, and the scalar curvature, and provides the transformation laws for
metrics, (0,3)-tensors, and connection coefficients.

Index conventions (fixed throughout):

* ``MetricAt.g[i, j]``          metric components g_ij
* ``ConnAt.lower[i, j, k]``     all-lower coefficients <nabla_i d_j, d_k>
* ``ConnAt.mixed[k, i, j]``     mixed coefficients Gamma^k_ij
* ``RiemannAt.r[i, j, k, m]``   curvature with (i, j) the antisymmetric pair,
  assembled as (d_i Gamma^s_jk - d_j Gamma^s_ik) g_sm
  + (Gamma_irm Gamma^r_jk - Gamma_jrm Gamma^r_ik)
* scalar curvature = (1/2) r[i, j, k, m] g^im g^jk  (n = 2 normalisation);
  with these conventions the unit sphere scores +1 and the Gaussian
  Fisher-Rao plane -1/2.

The metric, connection and curvature kernels and the metric, tensor and
connection laws also take a block point, whose coordinates are arrays: every
result then carries the block axes first (``g[..., i, j]``,
``r[..., i, j, k, m]``, ``scalar[...]``), and a single point is the shape-()
case of the same code.  Each sum over an index is written out term by term in
the order a per-point loop would add it, so a point of a block gets the same
bits as the point alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import Dual2, batch_array, lift, value
from .core import ParamPoint, SingularMetricError

MetricField = Callable[[object, object], object]  # (c1, c2) -> 2x2 of float/Dual2


_COFACTOR_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])  # g^-1 det = g reversed, times these


class _Result:
    """The arrays a result object names in ``_FROZEN`` are read-only.

    The constructor copies them, so an object never aliases an array its caller
    passed in.  The kernels build through ``_adopt`` instead.
    """

    _FROZEN: tuple[str, ...] = ()

    def __post_init__(self):
        for name in self._FROZEN:
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def _adopt(cls, **fields):
        """The object over float arrays a kernel has just made and no one else
        holds: they are made read-only in place, not copied."""
        obj = object.__new__(cls)
        for name in cls._FROZEN:
            fields[name].setflags(write=False)
        obj.__dict__.update(fields)  # costs less than a frozen setattr per field
        return obj


@dataclass(frozen=True, eq=False)
class MetricAt(_Result):
    """Metric matrix and its inverse at a point, or at each point of a block."""

    point: ParamPoint
    g: np.ndarray
    g_inv: np.ndarray
    _FROZEN = ("g", "g_inv")

    @classmethod
    def from_matrix(cls, point: ParamPoint, g) -> "MetricAt":
        """Validate symmetry and positive definiteness, attach the inverse.

        ``g`` is an array (..., 2, 2), such as ``batch_array`` builds from a
        block's entries, or 2x2 nested floats.  The whole block is validated at
        once; its first failing point raises.
        """
        g = np.array(g, dtype=float)
        if g.shape[-2:] != (2, 2):
            raise SingularMetricError(f"metric at {point} is not a finite 2x2 matrix")
        # [()] makes the entries of one matrix numpy scalars, whose errors name scalar ops
        g00, g01, g10, g11 = g[..., 0, 0][()], g[..., 0, 1][()], g[..., 1, 0][()], g[..., 1, 1][()]
        # one count (a fraction of .all()'s cost on a few values) passes finite g00, g01 and
        # g11 with g10 == g01, and no float op can raise before it; anything else takes the
        # checks in order
        ok = np.isfinite(g)
        ok[..., 1, 0] = g01 == g10
        if np.count_nonzero(ok) < ok.size:
            finite = np.isfinite(g)
            if not finite.all():
                _, p = _first(point, ~finite.all(axis=(-2, -1)))
                raise SingularMetricError(f"metric at {p} is not a finite 2x2 matrix")
            scale = np.maximum(1.0, np.max(np.abs(g), axis=(-2, -1)))
            bad = np.abs(g01 - g10) > 1e-12 * scale
            if bad.any():
                at, p = _first(point, bad)
                raise SingularMetricError(f"metric at {p} is not symmetric: {g[at]}")
        g[..., 1, 0] = g01
        det = g00 * g11 - g01 * g01
        pd = (g00 > 0.0) & (det > 0.0)
        if np.count_nonzero(pd) < pd.size:
            at, p = _first(point, ~pd)
            raise SingularMetricError(f"metric at {p} is not positive definite (det = {det[at]})")
        # [[g11, -g01], [-g01, g00]] / det
        g_inv = g[..., ::-1, ::-1] * _COFACTOR_SIGNS
        g_inv /= det[..., None, None]
        return cls._adopt(point=point, g=g, g_inv=g_inv)

    @property
    def det(self):
        g = self.g
        # the square as libm pow rounds it, like float ** 2 (np's ** 2 multiplies)
        return g[..., 0, 0] * g[..., 1, 1] - np.float_power(g[..., 0, 1], 2)


def _first(point: ParamPoint, bad: np.ndarray) -> tuple[tuple, ParamPoint]:
    """Index and point of the first point where ``bad`` holds: the point itself at shape ()."""
    at = np.unravel_index(np.argmax(bad), bad.shape)
    return at, point if bad.ndim == 0 else point.at(at)


@dataclass(frozen=True, eq=False)
class ConnAt(_Result):
    """Connection coefficients at a point, in both storages.

    ``lower[i, j, k]`` and ``mixed[k, i, j]`` are related by
    mixed[k, i, j] = g^km lower[i, j, m].
    """

    point: ParamPoint
    lower: np.ndarray
    mixed: np.ndarray
    _FROZEN = ("lower", "mixed")


@dataclass(frozen=True, eq=False)
class TorsionAt(_Result):
    """Torsion components T_ijk = Gamma_ijk - Gamma_jik."""

    point: ParamPoint
    t: np.ndarray
    _FROZEN = ("t",)


@dataclass(frozen=True, eq=False)
class RiemannAt(_Result):
    """All-lower curvature array plus the normalised scalar curvature."""

    point: ParamPoint
    r: np.ndarray
    scalar: float
    _FROZEN = ("r",)


# ---------------------------------------------------------------------------
# field evaluation
# ---------------------------------------------------------------------------

def _field_entries(field: MetricField, a, b):
    """Evaluate a metric field, reading only the upper triangle.

    Using the (0, 1) entry for both off-diagonal slots keeps every derived
    quantity exactly symmetric, which the torsion-free checks rely on.
    """
    m = field(a, b)
    e00, e01, e11 = m[0][0], m[0][1], m[1][1]
    return e00, e01, e11


def evaluate_metric(field: MetricField, point: ParamPoint) -> MetricAt:
    """Plain-float (or plain-array, for a block) evaluation of a metric field."""
    e00, e01, e11 = (value(e) for e in _field_entries(field, point.c1, point.c2))
    return MetricAt.from_matrix(point, batch_array([e00, e01, e01, e11], (2, 2)))


def _metric_jet(field: MetricField, point: ParamPoint):
    """g[..., i, j], dg[..., l, i, j] = d_l g_ij and d2g[..., l, m, i, j] = d_l d_m g_ij."""
    a, b = lift(point)
    e00, e01, e11 = (e if isinstance(e, Dual2) else Dual2(value(e))
                     for e in _field_entries(field, a, b))
    ij = (e00, e01, e01, e11)  # the entries in (i, j) order
    g = batch_array([e.val for e in ij], (2, 2))
    dg = batch_array([e.g1 for e in ij] + [e.g2 for e in ij], (2, 2, 2))
    d2g = batch_array([e.h11 for e in ij] + [e.h12 for e in ij] * 2 + [e.h22 for e in ij],
                      (2, 2, 2, 2))
    return g, dg, d2g


def _lower(dg: np.ndarray) -> np.ndarray:
    """Gamma_ijk = (d_i g_jk + d_j g_ik - d_k g_ij) / 2 over the last three axes.

    Applied to d2g (leading axis l) it gives d_l Gamma_ijk.
    """
    # the two swaps make np.moveaxis(dg, -3, -1)'s view at a fraction of its cost
    return 0.5 * (dg + dg.swapaxes(-3, -2) - dg.swapaxes(-3, -2).swapaxes(-2, -1))


def _sum2(t0, t1):
    """t0 + t1 from a zero start, the order (and zero sign) of einsum and sum()."""
    return 0.0 + t0 + t1


def _raise_index(ginv: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """mixed[..., k, i, j] = g^k0 lower[..., i, j, 0] + g^k1 lower[..., i, j, 1]."""
    a, t = ginv[..., :, None, None, :], lower[..., None, :, :, :]
    return _sum2(a[..., 0] * t[..., 0], a[..., 1] * t[..., 1])


def _lc_jet(field: MetricField, point: ParamPoint):
    """Levi-Civita coefficients with the metric data curvature needs.

    One Dual2 evaluation of the metric field supplies g, dg and d2g, so
    curvature never needs more than second derivatives of the metric.
    """
    g, dg, d2g = _metric_jet(field, point)
    metric = MetricAt.from_matrix(point, g)
    lower = _lower(dg)
    return metric, dg, d2g, lower, _raise_index(metric.g_inv, lower)


# ---------------------------------------------------------------------------
# connection, torsion, curvature
# ---------------------------------------------------------------------------

def levi_civita(metric_field: MetricField, point: ParamPoint) -> ConnAt:
    """Levi-Civita connection Gamma^k_ij = (1/2) g^km (d_i g_jm + d_j g_im - d_m g_ij).

    Metric derivatives come from one Dual2 evaluation of the field.
    Raises SingularMetricError when the metric is not invertible.
    """
    _, _, _, lower, mixed = _lc_jet(metric_field, point)
    return ConnAt._adopt(point=point, lower=lower, mixed=mixed)


def torsion(conn: ConnAt) -> TorsionAt:
    """T_ijk = Gamma_ijk - Gamma_jik; exactly zero for any symmetric connection."""
    lower = np.asarray(conn.lower)
    return TorsionAt._adopt(point=conn.point, t=lower - lower.swapaxes(-3, -2))


def riemann_levi_civita(metric_field: MetricField, point: ParamPoint) -> RiemannAt:
    """Curvature of the Levi-Civita connection, all derivatives via Dual2."""
    return _levi_civita_and_riemann(metric_field, point)[1]


def _levi_civita_and_riemann(metric_field: MetricField,
                             point: ParamPoint) -> tuple[ConnAt, RiemannAt]:
    """levi_civita and riemann_levi_civita from one Dual2 evaluation of the field."""
    metric, dg, d2g, lower, mixed = _lc_jet(metric_field, point)
    g, ginv = metric.g, metric.g_inv
    # d_l g^-1 = -g^-1 (d_l g) g^-1, one 2x2 product per matrix
    dginv = -ginv[..., None, :, :] @ dg @ ginv[..., None, :, :]
    # dmixed[..., l, k, i, j] = d_l Gamma^k_ij
    dmixed = (_raise_index(dginv, lower[..., None, :, :, :])
              + _raise_index(ginv[..., None, :, :], _lower(d2g)))
    # r[i, j, k, m] = sum_s (dmixed[i, s, j, k] - dmixed[j, s, i, k]) g[s, m]
    #               + sum_s (lower[i, s, m] mixed[s, j, k] - lower[j, s, m] mixed[s, i, k]),
    # each term formed for both s at once on axis -5 of (..., s, i, j, k, m)
    d = (dmixed - dmixed.swapaxes(-4, -2)).swapaxes(-4, -3)  # d[..., s, i, j, k]
    curl = d[..., None] * g[..., :, None, None, None, :]
    p = lower.swapaxes(-3, -2)[..., :, :, None, None, :] * mixed[..., :, None, :, :, None]
    prod = p - p.swapaxes(-4, -3)
    r = _sum2(curl[..., 0, :, :, :, :], curl[..., 1, :, :, :, :]) \
        + _sum2(prod[..., 0, :, :, :, :], prod[..., 1, :, :, :, :])
    # 0.5 r[i, j, k, m] g^im g^jk, summed in (i, j, k, m) order as one running total
    terms = r * ginv[..., :, None, None, :] * ginv[..., None, :, :, None]
    total = np.add.accumulate(terms.reshape(terms.shape[:-4] + (16,)), axis=-1)[..., -1]
    return (ConnAt._adopt(point=point, lower=lower, mixed=mixed),
            RiemannAt._adopt(point=point, r=r, scalar=0.5 * (0.0 + total)))


def sectional_curvature(riem: RiemannAt, metric: MetricAt):
    """Plane curvature r[0,1,1,0] / det g (equals the scalar for Levi-Civita)."""
    return riem.r[..., 0, 1, 1, 0] / metric.det


# ---------------------------------------------------------------------------
# transformation laws
# ---------------------------------------------------------------------------

def _basis_change(jac_inv: np.ndarray) -> np.ndarray:
    # rows: target-chart index alpha; columns: source index i
    return np.asarray(jac_inv, dtype=float).swapaxes(-1, -2)


def transform_metric(m: MetricAt, jac_inv, to_point: ParamPoint) -> MetricAt:
    """Bilinear metric transformation g'_ab = B_a^i B_b^j g_ij.

    ``jac_inv`` holds d(source)_i / d(target)_a with source components as
    rows.  The full law is applied, cross terms included.
    """
    b = _basis_change(jac_inv)
    return MetricAt.from_matrix(to_point, b @ m.g @ b.swapaxes(-1, -2))


def transform_lower_tensor3(t, jac_inv) -> np.ndarray:
    """(0,3)-tensor law t'_abc = B_a^i B_b^j B_c^k t_ijk."""
    b = _basis_change(jac_inv)
    return np.einsum("...ai,...bj,...ck,...ijk->...abc", b, b, b, np.asarray(t, dtype=float))


def transform_connection(
    conn: ConnAt,
    jac,
    jac_inv,
    second_derivs,
    metric: MetricAt,
    to_point: ParamPoint,
) -> ConnAt:
    """Proper (inhomogeneous) change of chart for connection coefficients.

    Gamma'^c_ab = B_a^i B_b^j (dxi_c/dth_k) Gamma^k_ij
                  + (dxi_c/dth_m) d2th_m/dxi_a dxi_b

    ``second_derivs[m, a, b]`` holds the second derivatives of the source
    coordinates with respect to the target ones.  ``metric`` is the source
    metric at the same underlying point; it fixes the all-lower storage.
    """
    b = _basis_change(jac_inv)
    jac = np.asarray(jac, dtype=float)
    sd = np.asarray(second_derivs, dtype=float)
    mixed = np.einsum("...ai,...bj,...gk,...kij->...gab", b, b, jac, conn.mixed)
    mixed += np.einsum("...gm,...mab->...gab", jac, sd)
    lower = transform_lower_tensor3(conn.lower, jac_inv)
    lower += _connection_shift_lower(sd, jac_inv, metric)
    return ConnAt._adopt(point=to_point, lower=lower, mixed=mixed)


def _connection_shift_lower(second_derivs: np.ndarray, jac_inv, metric: MetricAt) -> np.ndarray:
    """The inhomogeneous term of the all-lower connection law, which the (0,3)-tensor
    law leaves out: second_derivs[m, a, b] B_c^k g_mk, g the source metric."""
    return np.einsum("...mab,...ck,...mk->...abc", second_derivs, _basis_change(jac_inv), metric.g)
