"""Shared value types: chart identifiers, parameter points, errors, tolerances."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np


class DomainError(ValueError):
    """A coordinate pair (or evaluation point) violates its chart's domain."""


class EngineError(ValueError):
    """An expectation engine is misconfigured for the requested computation."""


class SingularMetricError(ValueError):
    """A metric matrix is not symmetric positive definite / not invertible."""


class Chart(enum.Enum):
    """Coordinate chart on the two-parameter Gaussian manifold.

    THETA holds the natural parameters (mu, sigma) with sigma > 0.
    XI holds the dual pair (mu, mu^2 + sigma^2); its domain is c2 - c1^2 > 0.
    """

    THETA = "theta"
    XI = "xi"

    def __str__(self) -> str:
        return self.value


def validate_coords(chart: Chart, c1, c2) -> None:
    """Raise DomainError unless (c1, c2) lies in the chart's domain.

    For a block of points (arrays of one shape) the first point outside the
    domain raises, with the message it raises on its own.
    """
    if isinstance(c1, np.ndarray) or isinstance(c2, np.ndarray):
        c1, c2 = np.broadcast_arrays(c1, c2)
        with np.errstate(over="ignore", invalid="ignore"):
            inside = np.isfinite(c1) & np.isfinite(c2) & (
                c2 > 0.0 if chart is Chart.THETA else c2 - c1 * c1 > 0.0
            )
        if not inside.all():
            first = int(np.argmin(inside))
            validate_coords(chart, float(c1.flat[first]), float(c2.flat[first]))
        return
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise DomainError(f"{chart} chart requires finite coordinates, got ({c1}, {c2})")
    if chart is Chart.THETA:
        if not c2 > 0.0:
            raise DomainError(f"theta chart requires sigma > 0, got sigma = {c2}")
    else:
        if not c2 - c1 * c1 > 0.0:
            raise DomainError(
                f"xi chart requires c2 - c1^2 > 0, got {c2} - {c1}^2 = {c2 - c1 * c1}"
            )


@dataclass(frozen=True)
class ParamPoint:
    """A point on the manifold, tagged with the chart its coordinates live in.

    ``c1`` and ``c2`` are floats, or arrays of one shape for a block of points
    that the geometry kernels evaluate in one call, block axes first.
    """

    chart: Chart
    c1: float
    c2: float

    def __post_init__(self) -> None:
        validate_coords(self.chart, self.c1, self.c2)

    def __str__(self) -> str:
        """The point as messages name it, e.g. ``theta point (0.0, 1e+200)``."""
        return f"{self.chart} point ({self.c1!r}, {self.c2!r})"

    def at(self, index) -> "ParamPoint":
        """The single point at ``index`` of a block."""
        c1, c2 = np.broadcast_arrays(self.c1, self.c2)
        return ParamPoint(self.chart, float(c1[index]), float(c2[index]))

    @classmethod
    def theta(cls, mu, sigma) -> "ParamPoint":
        return cls(Chart.THETA, _coord(mu), _coord(sigma))

    @classmethod
    def xi(cls, x1, x2) -> "ParamPoint":
        return cls(Chart.XI, _coord(x1), _coord(x2))


def _coord(x):
    """A float, or a float array for a block."""
    return float(x) if isinstance(x, (float, int, np.number)) else np.asarray(x, dtype=float)


@dataclass(frozen=True)
class Tolerances:
    """Default numeric gates, shared by tests, the audit, and the CLI.

    closed_form_abs gates quantities reached by exact algebra only;
    derived_abs gates anything that went through a differentiation layer.
    rel is the relative companion used for large-magnitude entries.
    """

    closed_form_abs: float = 1e-10
    derived_abs: float = 1e-8
    rel: float = 1e-8

    def __post_init__(self) -> None:
        for f in fields(self):
            if not is_tolerance(getattr(self, f.name)):
                raise ValueError(f"tolerance {f.name} must be finite and >= 0, "
                                 f"got {getattr(self, f.name)}")


def is_tolerance(value: float) -> bool:
    """A usable gate: finite and >= 0 (a NaN gate passes no gap, a negative one none)."""
    return math.isfinite(value) and value >= 0.0


DEFAULT_TOLERANCES = Tolerances()
