"""Name-based tracer: spans around igeo's public functions, from outside igeo.

Each target names a public function or method.  Entering the tracer replaces
every ``igeo.*`` module attribute that *is* the target object (so names
imported into ``igeo.cli`` and ``igeo.papertable`` are covered) with a wrapper
that records a span; exiting restores the originals.  A target that no longer
exists is reported in ``absent`` and its metrics read zero.

Spans are kept in memory as (id, parent id, layer, group, start ns, end ns,
nested) and summarised per pass.  ``nested`` marks a span opened inside a span
of the same group, so inclusive times are not counted twice.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# (layer, group, module, qualified name)
TARGETS = (
    ("cli", "main", "igeo.cli", "main"),
    ("cli", "build_parser", "igeo.cli", "build_parser"),
    ("models", "engine", "igeo.models", "GaussHermite.expect"),
    ("models", "engine", "igeo.models", "MonteCarlo.expect"),
    ("models", "metric", "igeo.models", "fisher_metric_theta"),
    ("models", "conn", "igeo.models", "conn_expectation_theta"),
    ("models", "chart", "igeo.models", "chart_forward"),
    ("models", "chart", "igeo.models", "chart_backward"),
    ("models", "chart", "igeo.models", "jacobian"),
    ("models", "chart", "igeo.models", "chart_second_derivatives"),
    ("models", "field_factory", "igeo.models", "fisher_metric_field"),
    ("geometry", "levi_civita", "igeo.geometry", "levi_civita"),
    ("geometry", "riemann", "igeo.geometry", "riemann_levi_civita"),
    ("geometry", "evaluate_metric", "igeo.geometry", "evaluate_metric"),
    ("geometry", "transform", "igeo.geometry", "transform_metric"),
    ("geometry", "transform", "igeo.geometry", "transform_connection"),
    ("geometry", "transform", "igeo.geometry", "transform_lower_tensor3"),
    ("geometry", "torsion", "igeo.geometry", "torsion"),
    ("geometry", "other", "igeo.geometry", "sectional_curvature"),
    ("papertable", "audit", "igeo.papertable", "audit"),
    ("papertable", "table", "igeo.papertable", "paper_table"),
)
# the callables fisher_metric_field returns are timed as this group
FIELD = ("autodiff", "field")

# per-layer metric -> the groups whose outermost inclusive time it sums
TIME_METRICS = {
    "cli.main_s": ("main",),
    "cli.build_parser_s": ("build_parser",),
    "models.engine_s": ("engine",),
    "models.metric_s": ("metric",),
    "models.conn_s": ("conn",),
    "models.chart_s": ("chart",),
    "autodiff.field_s": ("field",),
    "geometry.levi_civita_s": ("levi_civita",),
    "geometry.riemann_s": ("riemann",),
    "geometry.evaluate_metric_s": ("evaluate_metric",),
    "geometry.transform_s": ("transform",),
    "geometry.torsion_s": ("torsion",),
    "papertable.audit_s": ("audit",),
    "papertable.table_s": ("table",),
}
# self time: span duration minus the part its direct children cover.  cli.self_s
# is the self time of main alone; build_parser is reported on its own.
SELF_METRICS = {
    "cli.self_s": ("main",),
    "models.self_s": ("engine", "metric", "conn", "chart", "field_factory"),
    "geometry.self_s": ("levi_civita", "riemann", "evaluate_metric", "transform",
                        "torsion", "other"),
    "papertable.self_s": ("audit", "table"),
}
COUNT_METRICS = ("cli.requests", "models.expect_calls", "models.mc_samples",
                 "autodiff.field_evals", "geometry.calls", "papertable.rows")

_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "igeo" or name.startswith("igeo."))]
        for layer, group, module, qualname in TARGETS:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                owner = _MISSING
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, _MISSING)
            original = _MISSING if owner is _MISSING else getattr(owner, attr, _MISSING)
            if original is _MISSING:
                self.absent.append(f"{module}:{qualname}")
                continue
            wrapper = self._wrap(original, layer, group)
            if path:  # a method: the class attribute is the one shared object
                self._patch(owner, attr, wrapper)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, layer, group):
        spans, stack, open_groups, counts = self.spans, self._stack, self._open, self.counts
        after = {
            "engine": self._count_engine,
            "field_factory": self._wrap_field,
            "audit": self._count_rows,
        }.get(group)

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else 0
            nested = open_groups[group] > 0
            open_groups[group] += 1
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                open_groups[group] -= 1
                spans.append((span_id, parent, layer, group, start, end, nested))
                counts[group] += 1
            return after(args, result) if after else result

        traced.__wrapped__ = fn
        return traced

    def _count_engine(self, args, result):
        self.counts["models.expect_calls"] += 1
        samples = getattr(args[0], "samples", None)
        if samples is not None:
            self.counts["models.mc_samples"] += samples
        return result

    def _wrap_field(self, args, field):
        return self._wrap(field, *FIELD)

    def _count_rows(self, args, report):
        self.counts["papertable.rows"] += len(report.rows)
        return report

    # -- summarising --------------------------------------------------------

    def take(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last call; clears them."""
        incl: Counter = Counter()
        self_ns: Counter = Counter()
        layer_self: Counter = Counter()
        child: defaultdict = defaultdict(int)
        layer_calls: Counter = Counter()
        for span_id, parent, layer, group, start, end, nested in self.spans:  # children first
            dur = end - start
            own = dur - child.pop(span_id, 0)
            child[parent] += dur
            self_ns[group] += own
            layer_self[layer] += own
            layer_calls[layer] += 1
            if not nested:
                incl[group] += dur
        out = {name: sum(incl[g] for g in groups) / 1e9 for name, groups in TIME_METRICS.items()}
        out.update({name: sum(self_ns[g] for g in groups) / 1e9
                    for name, groups in SELF_METRICS.items()})
        out["cli.requests"] = self.counts["main"]
        out["models.expect_calls"] = self.counts["models.expect_calls"]
        out["models.mc_samples"] = self.counts["models.mc_samples"]
        out["autodiff.field_evals"] = self.counts["field"]
        out["geometry.calls"] = layer_calls["geometry"]
        out["papertable.rows"] = self.counts["papertable.rows"]
        # every span lies inside a main span, so the layers' self times add up to it
        out["_self_sum_ns"] = sum(layer_self.values())
        out["_main_ns"] = incl["main"]
        self.spans.clear()
        self.counts.clear()
        return out
