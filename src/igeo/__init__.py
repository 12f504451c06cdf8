"""Numerical information geometry of the two-parameter Gaussian family.

Computes the Fisher metric, connection coefficients, torsion, curvature and
scalar curvature in the natural chart (mu, sigma) and the dual chart
(mu, mu^2 + sigma^2), and audits a published closed-form table for the dual
chart against independent numerical oracles.
"""

__version__ = "0.1.0"

from .autodiff import Dual2, lift
from .core import (
    Chart,
    DEFAULT_TOLERANCES,
    DomainError,
    EngineError,
    ParamPoint,
    SingularMetricError,
    Tolerances,
)
from .geometry import (
    ConnAt,
    MetricAt,
    RiemannAt,
    TorsionAt,
    evaluate_metric,
    levi_civita,
    riemann_levi_civita,
    sectional_curvature,
    torsion,
    transform_connection,
    transform_lower_tensor3,
    transform_metric,
)
from .models import (
    ClosedForm,
    GaussHermite,
    MonteCarlo,
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
from .papertable import (
    AuditReport,
    AuditRow,
    QUANTITY_IDS,
    audit,
    paper_christoffel_xi,
    paper_metric_xi,
    paper_riemann_xi,
    paper_table,
)

__all__ = [
    "__version__",
    "Chart", "ParamPoint", "Tolerances", "DEFAULT_TOLERANCES",
    "DomainError", "EngineError", "SingularMetricError",
    "Dual2", "lift",
    "MetricAt", "ConnAt", "TorsionAt", "RiemannAt",
    "evaluate_metric", "levi_civita", "torsion",
    "riemann_levi_civita", "sectional_curvature",
    "transform_metric", "transform_lower_tensor3", "transform_connection",
    "ClosedForm", "GaussHermite", "MonteCarlo",
    "fisher_metric_theta", "conn_expectation_theta",
    "fisher_metric", "expectation_connection",
    "chart_forward", "chart_backward", "jacobian", "chart_second_derivatives",
    "fisher_metric_field",
    "QUANTITY_IDS", "paper_metric_xi", "paper_christoffel_xi",
    "paper_riemann_xi", "paper_table", "audit", "AuditReport", "AuditRow",
]
