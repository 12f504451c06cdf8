"""Command-line front end: evaluate quantities at points or grids, run the audit.

Points are given in the coordinates of the chart named by ``--chart``; no
command converts charts silently — ``transform`` is the only converting
command.  Output is TEXT for humans or JSON/CSV for machines; identical
configurations (including the Monte Carlo seed) produce byte-identical JSON.

Exit codes: 0 success, 2 domain error, 3 audit mismatch under ``--strict``,
64 malformed usage.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
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
    levi_civita,
    riemann_levi_civita,
    sectional_curvature,
    torsion,
    transform_metric,
)
from .models import (
    DEFAULT_MC_SEED,
    ClosedForm,
    GaussHermite,
    MonteCarlo,
    chart_backward,
    chart_forward,
    expectation_connection,
    fisher_metric,
    fisher_metric_field,
    jacobian,
    selftest_checks,
)
from .papertable import audit as run_audit

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_AUDIT = 3
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract is 64
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# deterministic serialisation (floats with 17 significant digits)
# ---------------------------------------------------------------------------

def _num(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalise -0.0
    return format(x, ".17g")


def _json_value(v) -> str:
    if isinstance(v, str):
        escaped = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _num(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{_json_value(k)}: {_json_value(x)}" for k, x in v.items()) + "}"
    raise TypeError(f"cannot serialise {type(v)}")


def _to_json(meta: dict, records: list[dict], notes: tuple[str, ...] = ()) -> str:
    lines = ["{"]
    lines.append(f'  "meta": {_json_value(meta)},')
    if notes:
        lines.append(f'  "notes": {_json_value(list(notes))},')
    lines.append('  "records": [')
    for i, rec in enumerate(records):
        comma = "," if i + 1 < len(records) else ""
        lines.append(f"    {_json_value(rec)}{comma}")
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, str):
        return '"' + v.replace('"', '""') + '"' if ("," in v or '"' in v) else v
    if v is None:
        return ""
    if isinstance(v, (list, tuple)):
        return '"' + _json_value(v).replace('"', '""') + '"'
    if isinstance(v, (float, np.floating)):
        return _num(v)
    return str(v)


def _to_csv(records: list[dict]) -> str:
    if not records:
        return "\n"
    header = list(records[0].keys())
    lines = [",".join(header)]
    for rec in records:
        lines.append(",".join(_csv_cell(rec.get(k)) for k in header))
    return "\n".join(lines) + "\n"


def _render_value(v, indent="  ") -> list[str]:
    if isinstance(v, (float, int, np.floating, np.integer)):
        return [format(float(v), ".12g")]
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 1:
        return ["[" + "  ".join(format(x, ".12g") for x in arr) + "]"]
    if arr.ndim == 2:
        return ["[" + "  ".join(f"{x:>15.12g}" for x in row) + "]" for row in arr]
    out = []
    for i, sub in enumerate(arr):
        block = _render_value(sub, indent)
        out.append(f"[{i + 1}] " + block[0])
        out.extend(indent + b for b in block[1:])
    return out


def _to_text(meta: dict, records: list[dict], notes: tuple[str, ...] = ()) -> str:
    lines = ["# " + "  ".join(f"{k}={v}" for k, v in meta.items())]
    last_point = None
    for rec in records:
        pt = tuple(rec["point"])
        if pt != last_point:
            lines.append(f"point ({format(pt[0], '.12g')}, {format(pt[1], '.12g')})")
            last_point = pt
        if "paper" in rec:  # audit row
            note = f"   # {rec['note']}" if rec.get("note") else ""
            label = f"oracle[{rec['oracle_label']}]"
            lines.append(
                f"  {rec['quantity']:<22} paper={rec['paper']:<+24.16g} "
                f"{label:<34}={rec['oracle']:<+24.16g} "
                f"gap={rec['abs_gap']:<12.4g} {rec['verdict']}{note}"
            )
        elif "bound" in rec:  # selftest row
            lines.append(
                f"  {rec['quantity']:<46} residual={rec['value']:<12.4g} "
                f"bound={rec['bound']:<10.4g} {rec['verdict']}"
            )
        else:
            val = _render_value(rec["value"])
            if len(val) == 1:
                lines.append(f"  {rec['quantity']}: {val[0]}")
            else:
                lines.append(f"  {rec['quantity']}:")
                lines.extend("    " + v for v in val)
    for n in notes:
        lines.append(f"note: {n}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _parse_point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--point wants 'c1,c2', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise UsageError(f"--point wants two reals, got {text!r}") from exc


def _parse_grid(text: str) -> list[tuple[float, float]]:
    axes = []
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--grid wants 'start:stop:steps,start:stop:steps', got {text!r}")
    for part in parts:
        bits = part.split(":")
        if len(bits) != 3:
            raise UsageError(f"--grid axis wants 'start:stop:steps', got {part!r}")
        try:
            start, stop, steps = float(bits[0]), float(bits[1]), int(bits[2])
        except ValueError as exc:
            raise UsageError(f"bad --grid axis {part!r}") from exc
        if steps < 1:
            raise UsageError(f"--grid steps must be >= 1, got {steps}")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise DomainError(f"--grid axis {part!r} requires finite endpoints")
        axes.append(np.linspace(start, stop, steps))
    return [(float(a), float(b)) for a in axes[0] for b in axes[1]]


def _points(args, chart: Chart) -> list[ParamPoint]:
    if args.point is None and args.grid is None:
        raise UsageError("one of --point or --grid is required")
    if args.point is not None and args.grid is not None:
        raise UsageError("--point and --grid are mutually exclusive")
    coords = [_parse_point(args.point)] if args.point is not None else _parse_grid(args.grid)
    # every grid point must satisfy the chart invariant before any computation
    return [ParamPoint(chart, c1, c2) for c1, c2 in coords]


def _parse_engine(spec: str):
    name, *fields = spec.split(":")
    try:
        nums = [int(f) for f in fields]
        if name == "monte_carlo" and len(nums) < 2:
            nums = (nums or [1_000_000]) + [int(os.environ.get("IGEO_SEED", DEFAULT_MC_SEED))]
    except ValueError as exc:
        raise UsageError(
            f"bad --engine spec {spec!r}: nodes, samples and seed (also IGEO_SEED) are integers"
        ) from exc
    if name == "closed_form" and not nums:
        return ClosedForm(), "closed_form"
    if name == "gauss_hermite" and len(nums) <= 1:
        nodes = nums[0] if nums else 64
        return GaussHermite(nodes), f"gauss_hermite:{nodes}"
    if name == "monte_carlo" and len(nums) == 2:
        samples, seed = nums
        return MonteCarlo(samples, seed), f"monte_carlo:{samples}:{seed}"
    raise UsageError(
        f"unknown --engine {spec!r}; want closed_form, gauss_hermite[:nodes] "
        "or monte_carlo[:samples[:seed]]"
    )


def _require_closed_form(engine, what: str):
    if not isinstance(engine, ClosedForm):
        raise UsageError(f"{what} derives from the closed-form metric field; use --engine closed_form")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _require_finite(p: ParamPoint, what: str, values) -> None:
    # einsum ignores np.errstate, so an overflow can reach the output silently
    if not (math.isfinite(values) if isinstance(values, float) else np.isfinite(values).all()):
        raise DomainError(
            f"{what} at {p.chart} point ({p.c1!r}, {p.c2!r}) is not finite in double precision"
        )


def _rec(point: ParamPoint, quantity: str, value, provenance: str = "oracle") -> dict:
    _require_finite(point, quantity, value)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    return {
        "point": [point.c1, point.c2],
        "quantity": quantity,
        "value": value,
        "provenance": provenance,
    }


def _connection(p: ParamPoint, args, engine):
    if args.connection == "levi_civita":
        _require_closed_form(engine, "the levi_civita connection")
        return levi_civita(fisher_metric_field(p.chart), p)
    return expectation_connection(p, engine)


def _metric(p, args, engine):
    m = fisher_metric(p, engine)
    return (("g", m.g), ("g_inv", m.g_inv), ("g_det", m.det))


def _christoffel(p, args, engine):
    conn = _connection(p, args, engine)
    return (("Gamma_lower", conn.lower), ("Gamma_mixed", conn.mixed))


def _torsion(p, args, engine):
    t = torsion(_connection(p, args, engine)).t
    return (("T", t), ("T_max_abs", float(np.max(np.abs(t)))))


def _curvature(p, args, engine):
    _require_closed_form(engine, "curvature")
    riem = riemann_levi_civita(fisher_metric_field(p.chart), p)
    return (("R", riem.r), ("scalar", riem.scalar),
            ("sectional", sectional_curvature(riem, fisher_metric(p))))


def _scalar(p, args, engine):
    _require_closed_form(engine, "scalar curvature")
    return (("scalar", riemann_levi_civita(fisher_metric_field(p.chart), p).scalar),)


def _transform(p, args, engine):
    if p.chart is Chart.THETA:
        q = chart_forward(p)
        jac, jac_inv = jacobian(p)
        m = transform_metric(fisher_metric(p), jac_inv, q)
        return (("point_xi", [q.c1, q.c2]), ("jacobian", jac), ("jacobian_inv", jac_inv),
                ("g_xi", m.g), ("g_xi_det", m.det))
    th = chart_backward(p)
    jac, jac_inv = jacobian(th)
    return (("point_theta", [th.c1, th.c2]), ("jacobian", jac), ("jacobian_inv", jac_inv),
            ("g_theta", fisher_metric(th).g))


# per-point command -> (quantity, value) pairs at one point
_QUANTITIES = {
    "metric": _metric,
    "christoffel": _christoffel,
    "torsion": _torsion,
    "curvature": _curvature,
    "scalar": _scalar,
    "transform": _transform,
}


def _at(p: ParamPoint, fn, *args):
    """fn(p, *args); a float that overflows or divides by zero there is a domain error."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return fn(p, *args)
    except ArithmeticError as exc:
        raise DomainError(
            f"{p.chart} point ({p.c1!r}, {p.c2!r}) is outside the double-precision "
            f"range of the formulas: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="igeo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, chart=True, engine=True, connection=False):
        sp.add_argument("--point", help="c1,c2 in the chart's own coordinates")
        sp.add_argument("--grid", help="c1start:c1stop:c1steps,c2start:c2stop:c2steps")
        if chart:
            sp.add_argument("--chart", choices=["theta", "xi"], default="theta")
        if engine:
            sp.add_argument("--engine", default="closed_form",
                            help="closed_form | gauss_hermite[:nodes] | monte_carlo[:samples[:seed]]")
        if connection:
            sp.add_argument("--connection", choices=["levi_civita", "expectation"],
                            default="levi_civita")
        sp.add_argument("--format", choices=["json", "csv", "text"], default="text")
        sp.add_argument("--output", help="write the report here instead of stdout")

    common(sub.add_parser("metric", help="Fisher metric at points"))
    common(sub.add_parser("christoffel", help="connection coefficients"), connection=True)
    common(sub.add_parser("torsion", help="torsion of a connection"), connection=True)
    common(sub.add_parser("curvature", help="curvature array, scalar, sectional"))
    common(sub.add_parser("scalar", help="scalar curvature"))
    common(sub.add_parser("transform", help="convert a point and push the metric"), engine=False)

    sp = sub.add_parser("audit", help="published table vs oracles")
    common(sp, chart=False, engine=False)
    sp.add_argument("--strict", action="store_true",
                    help="exit 3 when any row mismatches")
    sp.add_argument("--tol-closed", type=float, default=DEFAULT_TOLERANCES.closed_form_abs)
    sp.add_argument("--tol-derived", type=float, default=DEFAULT_TOLERANCES.derived_abs)
    sp.add_argument("--tol-rel", type=float, default=DEFAULT_TOLERANCES.rel)

    sp = sub.add_parser("selftest", help="quick internal consistency checks")
    sp.add_argument("--format", choices=["json", "csv", "text"], default="text")
    sp.add_argument("--output")
    return parser


def _emit(args, meta: dict, records: list[dict], notes: tuple[str, ...] = ()) -> None:
    fmt = args.format
    if fmt == "json":
        text = _to_json(meta, records, notes)
    elif fmt == "csv":
        text = _to_csv(records)
    else:
        text = _to_text(meta, records, notes)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _join_values(argv: list[str]) -> list[str]:
    """'--point X' -> '--point=X' (and --grid), so argparse reads '-1,2' as a value."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--point", "--grid"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        notes: tuple[str, ...] = ()
        chart = Chart(getattr(args, "chart", "theta"))
        engine, engine_desc = ClosedForm(), "closed_form"
        if args.command == "selftest":
            records = [{
                "point": [0.0, 1.0],
                "quantity": f"selftest.{name}",
                "value": residual,
                "bound": bound,
                "verdict": "PASS" if residual <= bound else "FAIL",
                "provenance": "oracle",
            } for name, residual, bound in selftest_checks()]
            code = EXIT_OK if all(r["verdict"] == "PASS" for r in records) else 1
        elif args.command == "audit":
            points = _points(args, chart)
            tol = Tolerances(args.tol_closed, args.tol_derived, args.tol_rel)
            records, mismatch = [], False
            for p in points:
                report = _at(p, run_audit, tol)
                # a finite |paper - oracle| makes both sides and the relative gap finite
                _require_finite(p, "an audit gap", [row.abs_gap for row in report.rows])
                records += ({"point": [p.c1, p.c2], **vars(row)} for row in report.rows)
                mismatch = mismatch or bool(report.mismatches)
            notes = report.notes
            code = EXIT_AUDIT if (mismatch and args.strict) else EXIT_OK
        else:
            points = _points(args, chart)
            if hasattr(args, "engine"):
                engine, engine_desc = _parse_engine(args.engine)
            quantities = _QUANTITIES[args.command]
            records = [_rec(p, quantity, value) for p in points
                       for quantity, value in _at(p, quantities, args, engine)]
            code = EXIT_OK
        meta = {"command": args.command, "chart": chart.value, "engine": engine_desc,
                "tool_version": __version__}
        _emit(args, meta, records, notes)
        return code
    except UsageError as exc:
        print(f"igeo: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EngineError as exc:
        print(f"igeo: engine error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, SingularMetricError) as exc:
        print(f"igeo: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
