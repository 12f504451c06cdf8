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
bits as the point alone.  Inside, the curvature kernels hold the component axes
first (``dg[l, i, j, ...]``), so each ufunc loops contiguously over the block, not
over two entries per point; a public array leaves with its block axes first again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import Dual2, batch_array, lift
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
            # in C order, since einsum rounds by the layout; [()] leaves a 0-d value the
            # numpy scalar a kernel gives at a point
            arr = np.array(getattr(self, name), dtype=float, order="C")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr[()])

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
    _FROZEN = ("r", "scalar")


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
    e00, e01, e11 = _field_entries(field, point.c1, point.c2)
    return MetricAt.from_matrix(point, batch_array([e00, e01, e01, e11], (2, 2)))


def _metric_jet(field: MetricField, point: ParamPoint):
    """g[i, j], dg[l, i, j] = d_l g_ij and d2g[l, m, i, j] = d_l d_m g_ij, component
    axes first: views of one stack of the jet's 28 entries."""
    a, b = lift(point)
    e00, e01, e11 = (e if isinstance(e, Dual2) else Dual2(e) for e in _field_entries(field, a, b))
    ij = (e00, e01, e01, e11)  # the entries in (i, j) order
    entries = [getattr(e, part) for part in ("val", "g1", "g2", "h11", "h12", "h12", "h22")
               for e in ij]
    try:
        jet = np.array(entries, dtype=float)  # a point's floats, or a block's arrays
    except ValueError:  # floats among block arrays
        jet = np.array(np.broadcast_arrays(*entries), dtype=float)
    block = jet.shape[1:]
    return (jet[:4].reshape((2, 2) + block), jet[4:12].reshape((2, 2, 2) + block),
            jet[12:].reshape((2, 2, 2, 2) + block))


def _roll_axes(a: np.ndarray, k: int) -> np.ndarray:
    """a with its axes rolled as np.roll rolls items, in C order (einsum and matmul round
    by the layout): a copy, or a itself where nothing moves, as at a single point."""
    k %= a.ndim
    return np.ascontiguousarray(a.transpose(*range(-k, a.ndim - k))) if k else a


def _lower(dg: np.ndarray, a: int = 0) -> np.ndarray:
    """Gamma_ijk = (d_i g_jk + d_j g_ik - d_k g_ij) / 2 over component axes a, a + 1, a + 2.

    Applied to d2g with a = 1 (leading axis l) it gives d_l Gamma_ijk.
    """
    # the two swaps make a moveaxis view at a fraction of its cost
    return 0.5 * (dg + dg.swapaxes(a, a + 1) - dg.swapaxes(a, a + 1).swapaxes(a + 1, a + 2))


def _sum2(t0, t1):
    """t0 + t1 from a zero start, the order (and zero sign) of einsum and sum()."""
    return 0.0 + t0 + t1


def _raise_index(ginv: np.ndarray, lower: np.ndarray, a: int = 0) -> np.ndarray:
    """mixed[k, i, j] = g^k0 lower[i, j, 0] + g^k1 lower[i, j, 1], component axes first,
    behind a leading axes (such as the l of d_l) over which the two broadcast."""
    x, c = (slice(None),) * a, slice(None)
    return _sum2(ginv[x + (c, None, None, 0)] * lower[x + (None, c, c, 0)],
                 ginv[x + (c, None, None, 1)] * lower[x + (None, c, c, 1)])


def _lc_jet(field: MetricField, point: ParamPoint):
    """Levi-Civita coefficients with the metric data curvature needs, components first.

    One Dual2 evaluation of the metric field supplies g, dg and d2g, so
    curvature never needs more than second derivatives of the metric.
    """
    g, dg, d2g = _metric_jet(field, point)
    metric = MetricAt.from_matrix(point, _roll_axes(g, -2))  # g itself after its checks
    ginv = _roll_axes(metric.g_inv, 2)
    lower = _lower(dg)
    return metric, g, ginv, dg, d2g, lower, _raise_index(ginv, lower)


# ---------------------------------------------------------------------------
# connection, torsion, curvature
# ---------------------------------------------------------------------------

def levi_civita(metric_field: MetricField, point: ParamPoint) -> ConnAt:
    """Levi-Civita connection Gamma^k_ij = (1/2) g^km (d_i g_jm + d_j g_im - d_m g_ij).

    Metric derivatives come from one Dual2 evaluation of the field.
    Raises SingularMetricError when the metric is not invertible.
    """
    *_, lower, mixed = _lc_jet(metric_field, point)
    return ConnAt._adopt(point=point, lower=_roll_axes(lower, -3), mixed=_roll_axes(mixed, -3))


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
    metric, g, ginv, dg, d2g, lower, mixed = _lc_jet(metric_field, point)
    # d_l g^-1 = -g^-1 (d_l g) g^-1 by matmul on block-first operands, which rounds its own way
    inv = metric.g_inv[..., None, :, :]
    dginv = _roll_axes(-inv @ _roll_axes(dg, -3) @ inv, 3)
    # dmixed[l, k, i, j] = d_l Gamma^k_ij
    dmixed = (_raise_index(dginv, lower[None], 1)
              + _raise_index(ginv[None], _lower(d2g, 1), 1))
    # r[i, j, k, m] = sum_s (dmixed[i, s, j, k] - dmixed[j, s, i, k]) g[s, m]
    #               + sum_s (lower[i, s, m] mixed[s, j, k] - lower[j, s, m] mixed[s, i, k]),
    # each term formed for both s at once on axis 0 of [s, i, j, k, m]
    d = (dmixed - dmixed.swapaxes(0, 2)).swapaxes(0, 1)  # d[s, i, j, k]
    curl = d[:, :, :, :, None] * g[:, None, None, None, :]
    p = lower.swapaxes(0, 1)[:, :, None, None, :] * mixed[:, None, :, :, None]
    prod = p - p.swapaxes(1, 2)
    r = _sum2(curl[0], curl[1]) + _sum2(prod[0], prod[1])
    # 0.5 r[i, j, k, m] g^im g^jk, summed in (i, j, k, m) order as one running total
    terms = r * ginv[:, None, None, :] * ginv[None, :, :, None]
    total = np.add.accumulate(terms.reshape((16,) + terms.shape[4:]), axis=0)[-1]
    return (ConnAt._adopt(point=point, lower=_roll_axes(lower, -3), mixed=_roll_axes(mixed, -3)),
            RiemannAt._adopt(point=point, r=_roll_axes(r, -4), scalar=0.5 * (0.0 + total)))


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
    g = b @ m.g @ b.swapaxes(-1, -2)
    g[..., 1, 0] = g[..., 0, 1]  # the product rounds its two off-diagonal entries apart
    return MetricAt.from_matrix(to_point, g)


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
