"""Chart-generic tensor kernels on a two-parameter manifold.

A *metric field* is a callable ``field(c1, c2) -> 2x2 matrix`` whose entries
are plain floats or :class:`~igeo.autodiff.Dual2` values, so the same closed
form serves both direct evaluation and differentiation.  From such a field
this module derives the Levi-Civita connection, torsion, the rank-4 curvature
array, and the scalar curvature, and provides the transformation laws for
metrics, (0,3)- and (0,4)-tensors, and connection coefficients.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import Dual2, lift, value
from .core import ParamPoint, SingularMetricError

MetricField = Callable[[object, object], object]  # (c1, c2) -> 2x2 of float/Dual2


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class MetricAt:
    """Metric matrix and its inverse at a point."""

    point: ParamPoint
    g: np.ndarray
    g_inv: np.ndarray

    @classmethod
    def from_matrix(cls, point: ParamPoint, g) -> "MetricAt":
        """Validate symmetry and positive definiteness, attach the inverse."""
        g = np.array(g, dtype=float)
        if g.shape != (2, 2) or not np.isfinite(g).all():
            raise SingularMetricError(f"metric at {point} is not a finite 2x2 matrix")
        scale = max(1.0, float(np.max(np.abs(g))))
        if abs(g[0, 1] - g[1, 0]) > 1e-12 * scale:
            raise SingularMetricError(f"metric at {point} is not symmetric: {g}")
        g[1, 0] = g[0, 1]
        det = g[0, 0] * g[1, 1] - g[0, 1] * g[0, 1]
        if not (g[0, 0] > 0.0 and det > 0.0):
            raise SingularMetricError(
                f"metric at {point} is not positive definite (det = {det})"
            )
        g_inv = np.array([[g[1, 1], -g[0, 1]], [-g[0, 1], g[0, 0]]]) / det
        return cls(point=point, g=_frozen(g), g_inv=_frozen(g_inv))

    @property
    def det(self) -> float:
        return float(self.g[0, 0] * self.g[1, 1] - self.g[0, 1] ** 2)


@dataclass(frozen=True, eq=False)
class ConnAt:
    """Connection coefficients at a point, in both storages.

    ``lower[i, j, k]`` and ``mixed[k, i, j]`` are related by
    mixed[k, i, j] = g^km lower[i, j, m].
    """

    point: ParamPoint
    lower: np.ndarray
    mixed: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", _frozen(self.lower))
        object.__setattr__(self, "mixed", _frozen(self.mixed))


@dataclass(frozen=True, eq=False)
class TorsionAt:
    """Torsion components T_ijk = Gamma_ijk - Gamma_jik."""

    point: ParamPoint
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", _frozen(self.t))


@dataclass(frozen=True, eq=False)
class RiemannAt:
    """All-lower curvature array plus the normalised scalar curvature."""

    point: ParamPoint
    r: np.ndarray
    scalar: float

    def __post_init__(self):
        object.__setattr__(self, "r", _frozen(self.r))


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
    """Plain-float evaluation of a metric field."""
    e00, e01, e11 = _field_entries(field, point.c1, point.c2)
    g = [[value(e00), value(e01)], [value(e01), value(e11)]]
    return MetricAt.from_matrix(point, g)


def _metric_jet(field: MetricField, point: ParamPoint):
    """g, dg[l,i,j] = d_l g_ij and d2g[l,m,i,j] = d_l d_m g_ij at the point."""
    a, b = lift(point)
    g = np.zeros((2, 2))
    dg = np.zeros((2, 2, 2))
    d2g = np.zeros((2, 2, 2, 2))
    e00, e01, e11 = _field_entries(field, a, b)
    for (i, j), e in (((0, 0), e00), ((0, 1), e01), ((1, 0), e01), ((1, 1), e11)):
        d = e if isinstance(e, Dual2) else Dual2(value(e))
        g[i, j] = d.val
        dg[:, i, j] = d.grad
        d2g[:, :, i, j] = d.hess
    return g, dg, d2g


def _lc_jet(field: MetricField, point: ParamPoint):
    """Levi-Civita data with first derivatives of the mixed coefficients.

    One Dual2 evaluation of the metric field supplies g, dg and d2g; the
    Christoffel formula and its derivative are then assembled in closed form,
    so curvature never needs more than second derivatives of the metric.
    """
    g, dg, d2g = _metric_jet(field, point)
    metric = MetricAt.from_matrix(point, g)
    ginv = np.asarray(metric.g_inv)
    g = np.asarray(metric.g)

    lower = np.zeros((2, 2, 2))
    dlower = np.zeros((2, 2, 2, 2))  # dlower[l, i, j, k] = d_l Gamma_ijk
    for i in range(2):
        for j in range(2):
            for k in range(2):
                lower[i, j, k] = 0.5 * (dg[i, j, k] + dg[j, i, k] - dg[k, i, j])
                for l in range(2):
                    dlower[l, i, j, k] = 0.5 * (
                        d2g[l, i, j, k] + d2g[l, j, i, k] - d2g[l, k, i, j]
                    )
    mixed = np.einsum("km,ijm->kij", ginv, lower)
    # d_l g^{-1} = -g^{-1} (d_l g) g^{-1}
    dginv = np.stack([-ginv @ dg[l] @ ginv for l in range(2)])
    dmixed = np.einsum("lkm,ijm->lkij", dginv, lower) + np.einsum(
        "km,lijm->lkij", ginv, dlower
    )
    return g, ginv, lower, mixed, dmixed, metric


# ---------------------------------------------------------------------------
# connection, torsion, curvature
# ---------------------------------------------------------------------------

def levi_civita(metric_field: MetricField, point: ParamPoint) -> ConnAt:
    """Levi-Civita connection Gamma^k_ij = (1/2) g^km (d_i g_jm + d_j g_im - d_m g_ij).

    Metric derivatives come from one Dual2 evaluation of the field.
    Raises SingularMetricError when the metric is not invertible.
    """
    _, _, lower, mixed, _, _ = _lc_jet(metric_field, point)
    return ConnAt(point=point, lower=lower, mixed=mixed)


def torsion(conn: ConnAt) -> TorsionAt:
    """T_ijk = Gamma_ijk - Gamma_jik; exactly zero for any symmetric connection."""
    lower = np.asarray(conn.lower)
    return TorsionAt(point=conn.point, t=lower - lower.transpose(1, 0, 2))


def _assemble_riemann(g, lower, mixed, dmixed) -> np.ndarray:
    r = np.zeros((2, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for m in range(2):
                    curl = sum(
                        (dmixed[i, s, j, k] - dmixed[j, s, i, k]) * g[s, m]
                        for s in range(2)
                    )
                    prod = sum(
                        lower[i, s, m] * mixed[s, j, k]
                        - lower[j, s, m] * mixed[s, i, k]
                        for s in range(2)
                    )
                    r[i, j, k, m] = curl + prod
    return r


def riemann_levi_civita(metric_field: MetricField, point: ParamPoint) -> RiemannAt:
    """Curvature of the Levi-Civita connection, all derivatives via Dual2."""
    g, ginv, lower, mixed, dmixed, metric = _lc_jet(metric_field, point)
    r = _assemble_riemann(g, lower, mixed, dmixed)
    scalar = float(0.5 * np.einsum("ijkm,im,jk->", r, ginv, ginv))
    return RiemannAt(point=point, r=r, scalar=scalar)


def sectional_curvature(riem: RiemannAt, metric: MetricAt) -> float:
    """Plane curvature r[0,1,1,0] / det g (equals the scalar for Levi-Civita)."""
    return float(riem.r[0, 1, 1, 0]) / metric.det


# ---------------------------------------------------------------------------
# transformation laws
# ---------------------------------------------------------------------------

def _basis_change(jac_inv: np.ndarray) -> np.ndarray:
    # rows: target-chart index alpha; columns: source index i
    return np.asarray(jac_inv, dtype=float).T


def transform_metric(m: MetricAt, jac_inv, to_point: ParamPoint) -> MetricAt:
    """Bilinear metric transformation g'_ab = B_a^i B_b^j g_ij.

    ``jac_inv`` holds d(source)_i / d(target)_a with source components as
    rows.  The full law is applied, cross terms included.
    """
    b = _basis_change(jac_inv)
    g_new = b @ np.asarray(m.g) @ b.T
    return MetricAt.from_matrix(to_point, g_new)


def transform_lower_tensor3(t, jac_inv) -> np.ndarray:
    """(0,3)-tensor law t'_abc = B_a^i B_b^j B_c^k t_ijk."""
    b = _basis_change(jac_inv)
    return np.einsum("ai,bj,ck,ijk->abc", b, b, b, np.asarray(t, dtype=float))


def transform_lower_tensor4(r, jac_inv) -> np.ndarray:
    """(0,4)-tensor law r'_abcd = B_a^i B_b^j B_c^k B_d^m r_ijkm."""
    b = _basis_change(jac_inv)
    return np.einsum("ai,bj,ck,dm,ijkm->abcd", b, b, b, b, np.asarray(r, dtype=float))


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
    mixed = np.einsum("ai,bj,gk,kij->gab", b, b, jac, np.asarray(conn.mixed))
    mixed += np.einsum("gm,mab->gab", jac, sd)
    lower = np.einsum("ai,bj,ck,ijk->abc", b, b, b, np.asarray(conn.lower))
    lower += np.einsum("mab,ck,mk->abc", sd, b, np.asarray(metric.g))
    return ConnAt(point=to_point, lower=lower, mixed=mixed)
