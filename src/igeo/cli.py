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
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from .autodiff import batch_array
from .core import (
    Chart,
    DEFAULT_TOLERANCES,
    DomainError,
    EngineError,
    ParamPoint,
    SingularMetricError,
    Tolerances,
    is_tolerance,
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
from .papertable import MISMATCH, NOTES as AUDIT_NOTES, audit as run_audit

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_AUDIT = 3
EXIT_USAGE = 64
MAX_GRID_POINTS = 1_000_000  # a larger --grid is a typo, not a computation
BLOCK_POINTS = 4096  # grid points per kernel call; bounds the temporaries of a large grid


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract is 64
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# deterministic serialisation (floats with 17 significant digits)
# ---------------------------------------------------------------------------

def _num(x) -> str:
    return _float(float(x))


def _float(x: float) -> str:
    """A float with 17 significant digits; -0.0 is written as 0."""
    return f"{x:.17g}" if x else "0"


def _json_str(v: str) -> str:
    if "\\" in v or '"' in v:
        v = v.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{v}"'


def _json_bool(v: bool) -> str:
    return "true" if v else "false"


def _json_list(v) -> str:
    get = _JSON_BY_TYPE.get
    return "[" + ", ".join([get(type(x), _json_other)(x) for x in v]) + "]"


def _json_dict(v: dict) -> str:
    get = _JSON_BY_TYPE.get
    return "{" + ", ".join([f"{get(type(k), _json_other)(k)}: {get(type(x), _json_other)(x)}"
                            for k, x in v.items()]) + "}"


# exact type -> writer; subclasses and numpy scalars take the isinstance path
_JSON_BY_TYPE = {
    float: _float,
    str: _json_str,
    bool: _json_bool,
    type(None): lambda v: "null",
    int: str,
    list: _json_list,
    tuple: _json_list,
    dict: _json_dict,
}


def _json_other(v) -> str:
    if isinstance(v, str):
        return _json_str(v)
    if isinstance(v, bool):
        return _json_bool(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _num(v)
    if isinstance(v, (list, tuple)):
        return _json_list(v)
    if isinstance(v, dict):
        return _json_dict(v)
    raise TypeError(f"cannot serialise {type(v)}")


def _json_value(v) -> str:
    return _JSON_BY_TYPE.get(type(v), _json_other)(v)


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


def _csv_str(v: str) -> str:
    return '"' + v.replace('"', '""') + '"' if ("," in v or '"' in v) else v


def _csv_list(v) -> str:
    return '"' + _json_list(v).replace('"', '""') + '"'


# the JSON number writers, with CSV's own strings, empty None and quoted arrays
_CSV_BY_TYPE = {
    float: _float,
    str: _csv_str,
    bool: str,
    type(None): lambda v: "",
    int: str,
    list: _csv_list,
    tuple: _csv_list,
}


def _csv_other(v) -> str:
    if isinstance(v, str):
        return _csv_str(v)
    if isinstance(v, (list, tuple)):
        return _csv_list(v)
    if isinstance(v, (float, np.floating)):
        return _num(v)
    return str(v)


def _csv_cell(v) -> str:
    return _CSV_BY_TYPE.get(type(v), _csv_other)(v)


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


def _parse_grid(text: str) -> tuple[np.ndarray, np.ndarray]:
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
        if not math.isfinite(stop - start):
            raise DomainError(f"--grid axis {part!r}: stop - start overflows double precision")
        axes.append((start, stop, steps))
    if axes[0][2] * axes[1][2] > MAX_GRID_POINTS:
        raise UsageError(
            f"--grid asks for {axes[0][2] * axes[1][2]} points; at most {MAX_GRID_POINTS} "
            "(MAX_GRID_POINTS)"
        )
    c1s, c2s = np.meshgrid(*(np.linspace(*axis) for axis in axes), indexing="ij")
    return c1s.ravel(), c2s.ravel()  # row-major: the second coordinate varies fastest


def _points(args, chart: Chart) -> ParamPoint:
    """The --point (floats), or the --grid's points as one block of flat arrays."""
    if args.point is None and args.grid is None:
        raise UsageError("one of --point or --grid is required")
    if args.point is not None and args.grid is not None:
        raise UsageError("--point and --grid are mutually exclusive")
    c1, c2 = _parse_point(args.point) if args.point is not None else _parse_grid(args.grid)
    # every grid point must satisfy the chart invariant before any computation
    return ParamPoint(chart, c1, c2)


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not is_tolerance(value):
        raise argparse.ArgumentTypeError(f"want a finite number >= 0, got {text!r}")
    return value


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
    # einsum ignores np.errstate, so an overflow can reach the output silently; a
    # block that fails here runs again point by point, so the message names a point
    if not (math.isfinite(values) if isinstance(values, float) else np.isfinite(values).all()):
        raise DomainError(
            f"{what} at {p.chart} point ({p.c1!r}, {p.c2!r}) is not finite in double precision"
        )


def _each_point(p: ParamPoint) -> list[tuple]:
    """(index, c1, c2) of each point of a block in order; index () for a single point."""
    if np.ndim(p.c1) == 0:
        return [((), p.c1, p.c2)]
    return list(zip(range(p.c1.size), p.c1.tolist(), p.c2.tolist()))


def _quantity_records(fn):
    """A command of (quantity, value) pairs, values with block axes first, as records."""
    def records(p: ParamPoint, args, engine) -> list[dict]:
        pairs = fn(p, args, engine)
        for quantity, value in pairs:
            _require_finite(p, quantity, value)
        return [{"point": [c1, c2], "quantity": quantity, "value": value[n].tolist(),
                 "provenance": "oracle"}
                for n, c1, c2 in _each_point(p) for quantity, value in pairs]
    return records


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
    return (("T", t), ("T_max_abs", np.max(np.abs(t), axis=(-3, -2, -1))))


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
        return (("point_xi", batch_array([q.c1, q.c2], (2,))), ("jacobian", jac),
                ("jacobian_inv", jac_inv), ("g_xi", m.g), ("g_xi_det", m.det))
    th = chart_backward(p)
    jac, jac_inv = jacobian(th)
    return (("point_theta", batch_array([th.c1, th.c2], (2,))), ("jacobian", jac),
            ("jacobian_inv", jac_inv), ("g_theta", fisher_metric(th).g))


def _audit(p, args, engine) -> list[dict]:
    rows = run_audit(p, Tolerances(args.tol_closed, args.tol_derived, args.tol_rel)).rows
    # a finite |paper - oracle| makes both sides and the relative gap finite
    _require_finite(p, "an audit gap", [row.abs_gap for row in rows])
    points = [[c1, c2] for _, c1, c2 in _each_point(p)]
    per_point = len(rows) // len(points)  # the rows come point by point
    return [{"point": points[i // per_point], **vars(row)} for i, row in enumerate(rows)]


# command -> the records of a point, or of each point of a block in order
_COMMANDS = {
    "metric": _quantity_records(_metric),
    "christoffel": _quantity_records(_christoffel),
    "torsion": _quantity_records(_torsion),
    "curvature": _quantity_records(_curvature),
    "scalar": _quantity_records(_scalar),
    "transform": _quantity_records(_transform),
    "audit": _audit,
}


def _blocks(p: ParamPoint, engine) -> list[ParamPoint]:
    """A single point as it is; a grid in blocks of BLOCK_POINTS for the closed
    form, one point per call for a numerical engine."""
    if np.ndim(p.c1) == 0:
        return [p]
    if not isinstance(engine, ClosedForm):
        return [p.at(i) for i in range(p.c1.size)]
    return [ParamPoint(p.chart, p.c1[i:i + BLOCK_POINTS], p.c2[i:i + BLOCK_POINTS])
            for i in range(0, p.c1.size, BLOCK_POINTS)]


def _run(p: ParamPoint, fn, args, engine) -> list[dict]:
    """fn's records at a point or block.  A float that overflows or divides by zero
    at a point is a domain error; a block that raises runs again point by point,
    so its first failing point raises its own message."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return fn(p, args, engine)
    except (DomainError, SingularMetricError, ArithmeticError) as exc:
        if np.ndim(p.c1):
            return [rec for i in range(p.c1.size) for rec in _run(p.at(i), fn, args, engine)]
        if not isinstance(exc, ArithmeticError):
            raise
        raise DomainError(
            f"{p.chart} point ({p.c1!r}, {p.c2!r}) is outside the double-precision "
            f"range of the formulas: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process; each parse_args returns a fresh namespace."""
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
    sp.add_argument("--tol-closed", type=_tolerance, default=DEFAULT_TOLERANCES.closed_form_abs)
    sp.add_argument("--tol-derived", type=_tolerance, default=DEFAULT_TOLERANCES.derived_abs)
    sp.add_argument("--tol-rel", type=_tolerance, default=DEFAULT_TOLERANCES.rel)

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
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --output {args.output!r}: {exc.strerror}") from exc
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
        else:
            point = _points(args, chart)
            if hasattr(args, "engine"):
                engine, engine_desc = _parse_engine(args.engine)
            records = [rec for block in _blocks(point, engine)
                       for rec in _run(block, _COMMANDS[args.command], args, engine)]
            code = EXIT_OK
            if args.command == "audit":
                notes = AUDIT_NOTES
                if args.strict and any(rec["verdict"] == MISMATCH for rec in records):
                    code = EXIT_AUDIT
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
