"""Shared value types: chart identifiers, parameter points, errors, tolerances."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


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


def validate_coords(chart: Chart, c1: float, c2: float) -> None:
    """Raise DomainError unless (c1, c2) lies in the chart's domain."""
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
    """A point on the manifold, tagged with the chart its coordinates live in."""

    chart: Chart
    c1: float
    c2: float

    def __post_init__(self) -> None:
        validate_coords(self.chart, self.c1, self.c2)

    @property
    def coords(self) -> tuple[float, float]:
        return (self.c1, self.c2)

    @classmethod
    def theta(cls, mu: float, sigma: float) -> "ParamPoint":
        return cls(Chart.THETA, float(mu), float(sigma))

    @classmethod
    def xi(cls, x1: float, x2: float) -> "ParamPoint":
        return cls(Chart.XI, float(x1), float(x2))


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


DEFAULT_TOLERANCES = Tolerances()
