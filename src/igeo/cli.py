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
from .papertable import MISMATCH, NOTES as AUDIT_NOTES, AuditRow, audit as run_audit

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
# records and their writers (floats with 17 significant digits)
# ---------------------------------------------------------------------------

# each report's records are tuples in the order of its keys; a cell is a str,
# None, a float, a (c1, c2) point or an array
QUANTITY_KEYS = ("point", "quantity", "value", "provenance")
AUDIT_KEYS = ("point",) + AuditRow._fields
SELFTEST_KEYS = ("point", "quantity", "value", "bound", "verdict", "provenance")


def _float(x: float) -> str:
    """A float with 17 significant digits; -0.0 is written as 0."""
    return f"{x:.17g}" if x else "0"


@functools.cache
def _template(shape: tuple[int, ...]) -> str:
    """A slot for each float of an array of this shape, nested as JSON lists."""
    if not shape:
        return "{}"
    return "[" + ", ".join([_template(shape[1:])] * shape[0]) + "]"


def _json_str(v: str) -> str:
    if "\\" in v or '"' in v:
        v = v.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{v}"'


def _json_cell(v) -> str:
    if isinstance(v, float):
        return _float(v)
    if isinstance(v, str):
        return _json_str(v)
    if v is None:
        return "null"
    if isinstance(v, tuple):
        return f"[{_float(v[0])}, {_float(v[1])}]"
    return _template(v.shape).format(*map(_float, v.ravel().tolist()))


def _to_json(meta: dict, keys: tuple[str, ...], records: list[tuple],
             notes: tuple[str, ...] = ()) -> str:
    record = "    {{" + ", ".join(f"{_json_str(k)}: {{}}" for k in keys) + "}},"
    meta_items = ", ".join(f"{_json_str(k)}: {_json_str(v)}" for k, v in meta.items())
    lines = ["{", f'  "meta": {{{meta_items}}},']
    if notes:
        lines.append('  "notes": [' + ", ".join(map(_json_str, notes)) + "],")
    lines.append('  "records": [')
    lines.extend([record.format(*map(_json_cell, rec)) for rec in records])
    lines[-1] = lines[-1][:-1]  # no comma after the last record
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return _float(v)
    if isinstance(v, str):
        return '"' + v.replace('"', '""') + '"' if ("," in v or '"' in v) else v
    if v is None:
        return ""
    return f'"{_json_cell(v)}"'  # a point or an array: its JSON numbers, quoted


def _to_csv(keys: tuple[str, ...], records: list[tuple]) -> str:
    lines = [",".join(keys)]
    lines.extend([",".join(map(_csv_cell, rec)) for rec in records])
    return "\n".join(lines) + "\n"


def _render_value(v, indent="  ") -> list[str]:
    if v.ndim == 0:
        return [format(float(v), ".12g")]
    if v.ndim == 1:
        return ["[" + "  ".join(format(x, ".12g") for x in v) + "]"]
    if v.ndim == 2:
        return ["[" + "  ".join(f"{x:>15.12g}" for x in row) + "]" for row in v]
    out = []
    for i, sub in enumerate(v):
        block = _render_value(sub, indent)
        out.append(f"[{i + 1}] " + block[0])
        out.extend(indent + b for b in block[1:])
    return out


def _quantity_lines(rec: tuple) -> list[str]:
    _, quantity, value, _ = rec
    val = _render_value(value)
    if len(val) == 1:
        return [f"  {quantity}: {val[0]}"]
    return [f"  {quantity}:"] + ["    " + v for v in val]


def _audit_lines(rec: tuple) -> list[str]:
    _, quantity, paper, oracle, abs_gap, _, verdict, oracle_label, note = rec
    note = f"   # {note}" if note else ""
    label = f"oracle[{oracle_label}]"
    return [f"  {quantity:<22} paper={paper:<+24.16g} {label:<34}={oracle:<+24.16g} "
            f"gap={abs_gap:<12.4g} {verdict}{note}"]


def _selftest_lines(rec: tuple) -> list[str]:
    _, quantity, value, bound, verdict, _ = rec
    return [f"  {quantity:<46} residual={value:<12.4g} bound={bound:<10.4g} {verdict}"]


_TEXT_LINES = {QUANTITY_KEYS: _quantity_lines, AUDIT_KEYS: _audit_lines,
               SELFTEST_KEYS: _selftest_lines}


def _to_text(meta: dict, keys: tuple[str, ...], records: list[tuple],
             notes: tuple[str, ...] = ()) -> str:
    lines = ["# " + "  ".join(f"{k}={v}" for k, v in meta.items())]
    record_lines = _TEXT_LINES[keys]
    last_point = None
    for rec in records:
        if rec[0] != last_point:
            last_point = rec[0]
            lines.append(f"point ({last_point[0]:.12g}, {last_point[1]:.12g})")
        lines.extend(record_lines(rec))
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
        raise DomainError(f"{what} at {p} is not finite in double precision")


def _coords(p: ParamPoint) -> list[tuple[float, float]]:
    """The (c1, c2) of each point of a block in order, or of the single point."""
    return list(zip(np.ravel(p.c1).tolist(), np.ravel(p.c2).tolist()))


def _quantity_records(fn):
    """A command of (quantity, value) pairs, values with block axes first, as records."""
    def records(p: ParamPoint, args, engine) -> list[tuple]:
        pairs = fn(p, args, engine)
        for quantity, value in pairs:
            _require_finite(p, quantity, value)
        # a single point's values as a block of one
        columns = [value if np.ndim(p.c1) else value[None] for _, value in pairs]
        return [(point, quantity, value, "oracle")
                for point, values in zip(_coords(p), zip(*columns))
                for (quantity, _), value in zip(pairs, values)]
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


def _audit(p, args, engine) -> list[tuple]:
    rows = run_audit(p, Tolerances(args.tol_closed, args.tol_derived, args.tol_rel)).rows
    # a finite |paper - oracle| makes both sides and the relative gap finite
    _require_finite(p, "an audit gap", [row.abs_gap for row in rows])
    points = _coords(p)
    per_point = len(rows) // len(points)  # the rows come point by point
    return [(points[i // per_point],) + row for i, row in enumerate(rows)]


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


def _blocks(p: ParamPoint) -> list[ParamPoint]:
    """A single point as it is; a grid in blocks of BLOCK_POINTS."""
    if np.ndim(p.c1) == 0:
        return [p]
    return [ParamPoint(p.chart, p.c1[i:i + BLOCK_POINTS], p.c2[i:i + BLOCK_POINTS])
            for i in range(0, p.c1.size, BLOCK_POINTS)]


def _run(p: ParamPoint, fn, args, engine) -> list[tuple]:
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
            f"{p} is outside the double-precision range of the formulas: {exc}"
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


def _emit(args, meta: dict, keys: tuple[str, ...], records: list[tuple],
          notes: tuple[str, ...] = ()) -> None:
    fmt = args.format
    if fmt == "json":
        text = _to_json(meta, keys, records, notes)
    elif fmt == "csv":
        text = _to_csv(keys, records)
    else:
        text = _to_text(meta, keys, records, notes)
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
            keys, checks = SELFTEST_KEYS, selftest_checks()
            records = [((0.0, 1.0), f"selftest.{name}", residual, bound,
                        "PASS" if residual <= bound else "FAIL", "oracle")
                       for name, residual, bound in checks]
            code = EXIT_OK if all(residual <= bound for _, residual, bound in checks) else 1
        else:
            keys = QUANTITY_KEYS
            point = _points(args, chart)
            if hasattr(args, "engine"):
                engine, engine_desc = _parse_engine(args.engine)
            records = [rec for block in _blocks(point)
                       for rec in _run(block, _COMMANDS[args.command], args, engine)]
            code = EXIT_OK
            if args.command == "audit":
                keys, notes = AUDIT_KEYS, AUDIT_NOTES
                verdict = AUDIT_KEYS.index("verdict")
                if args.strict and any(rec[verdict] == MISMATCH for rec in records):
                    code = EXIT_AUDIT
        meta = {"command": args.command, "chart": chart.value, "engine": engine_desc,
                "tool_version": __version__}
        _emit(args, meta, keys, records, notes)
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
