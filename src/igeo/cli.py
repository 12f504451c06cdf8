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
import itertools
import math
import operator
import os
import sys
from typing import NamedTuple

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
    ClosedForm,
    GaussHermite,
    MonteCarlo,
    _sigma_representatives,
    chart_backward,
    chart_forward,
    expectation_connection,
    fisher_metric,
    fisher_metric_field,
    integrates_blocks,
    jacobian,
    selftest_checks,
)
from .papertable import (
    MATCH,
    MISMATCH,
    NOTES as AUDIT_NOTES,
    ROWS as AUDIT_ROWS,
    AuditRow,
    audit as run_audit,
)

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_AUDIT = 3
EXIT_USAGE = 64
MAX_GRID_POINTS = 1_000_000  # a larger --grid is a typo, not a computation
PARSE_MEMO_SIZE = 256  # argv shapes whose parse main keeps; more evict the least recent
BLOCK_POINTS = 4096  # grid points per kernel call; bounds the temporaries of a large grid
JOIN_POINTS = 32  # points per join of a JSON or CSV block's records; bounds their strings
FORMAT_VALUES = 1 << 17  # floats per np.unique of a JSON or CSV block; bounds their texts


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract is 64
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def _get_values(self, action, arg_strings):
        # argparse drops '--' as an option's value (--opt=--, or --point -- after
        # _join_values) and stores [] for it; refuse it as it refuses --opt --
        if action.option_strings and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


# ---------------------------------------------------------------------------
# records as columns, and their writers (floats with 17 significant digits, 12 in text)
# ---------------------------------------------------------------------------

QUANTITY_KEYS = ("point", "quantity", "value", "provenance")
AUDIT_KEYS = ("point",) + AuditRow._fields
SELFTEST_KEYS = ("point", "quantity", "value", "bound", "verdict", "provenance")


class Floats(NamedTuple):
    """A cell that holds a value's floats: one for shape (), else nested lists."""

    shape: tuple[int, ...]

    @property
    def size(self) -> int:
        return math.prod(self.shape)


class Verdict(NamedTuple):
    """A cell that holds a row's verdict: ``ok`` where it holds, else ``fail``.
    The Verdict cells of one report share their words."""

    fail: str
    ok: str


class Block(NamedTuple):
    """The records of a point or block, as columns.

    ``rows`` is each point's row pattern: per record, the cells after the point
    in key order, each a constant str or None, a ``Floats`` or a ``Verdict``.
    ``coords[i]`` is point i's (c1, c2), ``floats[i]`` its floats row by row, and
    ``ok[i]`` the verdict of each of its rows, for a report with verdicts.
    """

    coords: np.ndarray
    rows: tuple[tuple, ...]
    floats: np.ndarray
    ok: np.ndarray | None = None


class Report(NamedTuple):
    """What a request writes: its meta, record keys, Blocks in point order, notes."""

    meta: dict
    keys: tuple[str, ...]
    blocks: list[Block]
    notes: tuple[str, ...] = ()


_FLOAT = Floats(())
_SIGN, _INF = np.uint64(1 << 63), np.uint64(0x7FF << 52)  # a float's sign bit; inf's bits
_AUDIT_ROWS = tuple((qid, _FLOAT, _FLOAT, _FLOAT, _FLOAT, Verdict(MISMATCH, MATCH), label, note)
                    for qid, label, _, note in AUDIT_ROWS)


def _json_str(v: str) -> str:
    if "\\" in v or '"' in v:
        v = v.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{v}"'


def _csv_str(v: str) -> str:
    return '"' + v.replace('"', '""') + '"' if ("," in v or '"' in v) else v


def _lit(v: str, width: int = 0) -> str:
    """v left-aligned in width, as literal text of a %-template."""
    return v.ljust(width).replace("%", "%%")


def _nested(shape: tuple[int, ...]) -> str:
    """A %.17g slot for each float of an array of this shape, nested as JSON lists."""
    if not shape:
        return "%.17g"
    return "[" + ", ".join([_nested(shape[1:])] * shape[0]) + "]"


def _text_lines(shape: tuple[int, ...]) -> list[str]:
    """A value of this shape as text lines: a %.12g slot per float, %15.12g in a
    matrix row, and an indented [i] block per index above rank 2."""
    if len(shape) < 2:
        return ["[" + "  ".join(["%.12g"] * shape[0]) + "]" if shape else "%.12g"]
    if len(shape) == 2:
        return ["[" + "  ".join(["%15.12g"] * shape[1]) + "]"] * shape[0]
    lines = []
    for i in range(shape[0]):
        first, *rest = _text_lines(shape[1:])
        lines += [f"[{i + 1}] {first}", *("  " + line for line in rest)]
    return lines


def _record(keys: tuple[str, ...], row: tuple, fmt: str) -> tuple[str, tuple[str, ...]]:
    """A row as a JSON or CSV record: its %-template and the keys of its slots, in order.
    Keys and constants are escaped here once, with % doubled."""
    esc, null = (_json_str, "null") if fmt == "json" else (_csv_str, "")
    cells = ["[%s, %s]" if fmt == "json" else '"[%s, %s]"']
    for c in row:
        if isinstance(c, Floats):
            slots = _nested(c.shape)
            cells.append(slots if fmt == "json" or not c.shape else f'"{slots}"')
        elif isinstance(c, Verdict):
            cells.append("%s")
        else:
            cells.append(null if c is None else _lit(esc(c)))
    if fmt == "csv":
        return ",".join(cells) + "\n", keys
    return "    {" + ", ".join(f"{_lit(esc(k))}: {c}" for k, c in zip(keys, cells)) + "},\n", keys


def _quantity_text(quantity, value, provenance):
    lines = _text_lines(value.shape)
    text = f" {lines[0]}" if len(lines) == 1 else "".join(f"\n    {line}" for line in lines)
    return f"  {_lit(quantity)}:{text}\n", ("value",)


def _audit_text(quantity, paper, oracle, abs_gap, rel_gap, verdict, oracle_label, note):
    note = _lit(f"   # {note}") if note else ""
    return (f"  {_lit(quantity, 22)} paper=%-+24.16g {_lit(f'oracle[{oracle_label}]', 34)}"
            f"=%-+24.16g gap=%-12.4g %s{note}\n"), ("paper", "oracle", "abs_gap", "verdict")


def _selftest_text(quantity, value, bound, verdict, provenance):
    return (f"  {_lit(quantity, 46)} residual=%-12.4g bound=%-10.4g %s\n",
            ("value", "bound", "verdict"))


# report keys -> the text layout of its rows, which leaves out provenance and rel_gap
_TEXT_LAYOUTS = {QUANTITY_KEYS: _quantity_text, AUDIT_KEYS: _audit_text,
                 SELFTEST_KEYS: _selftest_text}


@functools.cache
def _template(keys: tuple[str, ...], rows: tuple[tuple, ...], fmt: str):
    """The records of one point in fmt as one %-template, the picker that orders a
    point's arguments [c1, c2, *floats, *verdicts] for it, the verdict words, and,
    for JSON and CSV, the same template as the layout a block is joined from.

    Each JSON and CSV record writes the point as two %s slots, its coordinates'
    texts; text records write no point.  The layout is the template's literal
    pieces, %% unescaped, and the column of each slot's argument, which is the
    picker's order: a point's records are pieces[0], the value of columns[0],
    pieces[1], ..., pieces[-1].
    """
    esc = {"json": _json_str, "csv": _csv_str, "text": str}[fmt]
    template, order, words = [], [], ()
    at, verdict = 2, 2 + sum(c.size for row in rows for c in row if isinstance(c, Floats))
    for row in rows:
        slots = {"point": [0, 1]}  # key -> the places of its arguments
        for key, c in zip(keys[1:], row):
            if isinstance(c, Floats):
                slots[key] = range(at, at + c.size)
                at += c.size
            elif isinstance(c, Verdict):
                slots[key] = [verdict]
                verdict += 1
                words = (esc(c.fail), esc(c.ok))
        record, written = _TEXT_LAYOUTS[keys](*row) if fmt == "text" else _record(keys, row, fmt)
        template.append(record)
        order.extend(i for key in written for i in slots.get(key, ()))
    template = "".join(template)
    if fmt == "text":
        return template, operator.itemgetter(*order), words, None
    parts = iter(template.split("%"))
    pieces = [next(parts)]
    for part in parts:
        if not part:  # %%: a literal %, and the text after it
            pieces[-1] += "%" + next(parts)
        else:  # the text after the slot's .17g or s
            pieces.append(part[4:] if part[0] == "." else part[1:])
    return template, operator.itemgetter(*order), words, (tuple(pieces), np.array(order))


def _coords(p: ParamPoint) -> np.ndarray:
    """(n, 2): the (c1, c2) of each point of a block in order, or of the single point."""
    return np.array([p.c1, p.c2]).reshape(2, -1).T


def _mirrored(distinct: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Of sorted distinct float bits, a mask of the negatives (they sort last) whose
    magnitude is among them and is not NaN (%.17g writes no sign on a NaN), and the index
    of each one's magnitude."""
    neg = np.searchsorted(distinct, _SIGN)
    magnitude, positive = distinct[neg:] ^ _SIGN, distinct[:neg]
    mirror = np.searchsorted(positive, magnitude)
    signed = (distinct[mirror] == magnitude) & (magnitude <= _INF)
    return np.concatenate([np.zeros(neg, dtype=bool), signed]), mirror[signed].tolist()


def _write_columns(out: list[str], block: Block, layout, words: tuple[str, ...]) -> None:
    """Append a JSON or CSV block's records to out, joined from _template's layout
    JOIN_POINTS points at a time, in segments of about FORMAT_VALUES floats.  A column
    with one float or verdict across a segment is written into the literal pieces; each
    distinct float of the others is formatted once, or as '-' and its magnitude's text."""
    pieces, columns = layout
    # + 0.0 makes -0.0 the 0.0 that %.17g writes as 0; equal bits write equal text
    values = np.concatenate([block.coords, block.floats], axis=1, dtype=float) + 0.0
    nf = values.shape[1]  # float columns; the verdict columns follow, as 0 or 1
    bits = values.view(np.uint64) if block.ok is None else \
        np.concatenate([values.view(np.uint64), block.ok], axis=1, dtype=np.uint64)
    segment = max(1, FORMAT_VALUES // (JOIN_POINTS * nf)) * JOIN_POINTS  # whole joins
    for s in range(0, len(values), segment):
        seg = bits[s:s + segment]
        same = (seg == seg[0]).all(axis=0)
        first, oks = values[s].tolist(), seg[0, nf:].tolist()
        text = {c: "%.17g" % first[c] if c < nf else words[oks[c - nf]]
                for c in np.flatnonzero(same).tolist()}
        parts, slots = [pieces[0]], []  # the segment's layout, those columns written in
        for c, piece in zip(columns.tolist(), pieces[1:]):
            if c in text:
                parts[-1] += text[c] + piece
            else:
                slots.append(c)
                parts.append(piece)
        vary = np.flatnonzero(~same)
        distinct, inverse = np.unique(seg[:, vary[vary < nf]], return_inverse=True)
        signed, mirror = _mirrored(distinct)
        if mirror:  # their texts take the last rows
            row = np.cumsum(~signed) - 1
            row[signed] = np.arange(len(row) - len(mirror), len(row))
            inverse, distinct = row[inverse], distinct[~signed]
        texts = ("%.17g," * len(distinct) % tuple(distinct.view(float).tolist())).split(",")
        texts[-1:] = ["-" + texts[m] for m in mirror]  # in place of the "" after the last ","
        table = np.array(texts + [*words, *parts], dtype=object)
        index, verdicts = inverse.reshape(len(seg), -1), vary[vary >= nf]
        if len(verdicts):  # a verdict's column picks its word
            index = np.concatenate([index, len(texts) + seg[:, verdicts]], axis=1, dtype=np.intp)
        slots = np.searchsorted(vary, slots)
        cells = np.empty((JOIN_POINTS, 2 * len(slots) + 1), dtype=np.intp)
        cells[:, 0::2] = np.arange(len(table) - len(parts), len(table))
        for a in range(0, len(index), JOIN_POINTS):
            chunk = cells[:len(index) - a]
            chunk[:, 1::2] = index[a:a + JOIN_POINTS, slots]
            out.append("".join(table[chunk.ravel()].tolist()))


def _write_records(out: list[str], keys: tuple[str, ...], blocks: list[Block], fmt: str) -> None:
    """Append each point's records in fmt to out: a JSON or CSV block of more
    than one point by columns, else one %-format per point."""
    last = None
    for block in blocks:
        template, pick, words, layout = _template(keys, block.rows, fmt)
        if layout and len(block.coords) > 1:
            _write_columns(out, block, layout, words)
            continue
        oks = itertools.repeat(()) if block.ok is None else block.ok.tolist()
        if fmt == "text":  # keeps the sign of a zero
            points, floats = block.coords.tolist(), block.floats.tolist()
        else:  # + 0.0 makes -0.0 the 0.0 that %.17g writes as 0
            points = [("%.17g %.17g" % tuple(c)).split() for c in (block.coords + 0.0).tolist()]
            floats = (block.floats + 0.0).tolist()
        for point, values, ok in zip(points, floats, oks):
            if fmt == "text" and point != last:  # text heads a point only where it changes
                out.append("point (%.12g, %.12g)\n" % tuple(point))
                last = point
            out.append(template % pick([*point, *values, *map(words.__getitem__, ok)]))


def _to_json(report: Report) -> str:
    meta_items = ", ".join(f"{_json_str(k)}: {_json_str(v)}" for k, v in report.meta.items())
    out = ["{\n", f'  "meta": {{{meta_items}}},\n']
    if report.notes:
        out.append('  "notes": [' + ", ".join(map(_json_str, report.notes)) + "],\n")
    out.append('  "records": [\n')
    _write_records(out, report.keys, report.blocks, "json")
    out[-1] = out[-1][:-2] + "\n"  # no comma after the last record
    out.append("  ]\n}\n")
    return "".join(out)


def _to_csv(report: Report) -> str:
    out = [",".join(report.keys) + "\n"]
    _write_records(out, report.keys, report.blocks, "csv")
    return "".join(out)


def _to_text(report: Report) -> str:
    out = ["# " + "  ".join(f"{k}={v}" for k, v in report.meta.items()) + "\n"]
    _write_records(out, report.keys, report.blocks, "text")
    out.extend(f"note: {n}\n" for n in report.notes)
    return "".join(out)


_WRITERS = {"json": _to_json, "csv": _to_csv, "text": _to_text}


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
            seed = int(os.environ.get("IGEO_SEED", MonteCarlo.seed))
            nums = (nums or [MonteCarlo.samples]) + [seed]
    except ValueError as exc:
        raise UsageError(
            f"bad --engine spec {spec!r}: nodes, samples and seed (also IGEO_SEED) are integers"
        ) from exc
    if name == "closed_form" and not nums:
        return ClosedForm(), "closed_form"
    if name == "gauss_hermite" and len(nums) <= 1:
        nodes = nums[0] if nums else GaussHermite.nodes
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
    # einsum ignores np.errstate, so an overflow can reach the output silently;
    # _run reruns a block that fails here point by point, so the message names a point
    if np.count_nonzero(np.isfinite(values)) < values.size:
        raise DomainError(f"{what} at {p} is not finite in double precision")


@functools.cache
def _quantity_rows(quantities: tuple[str, ...], shapes: tuple[tuple[int, ...], ...]) -> tuple:
    """The row pattern of a point's (quantity, value) records, values of these shapes."""
    return tuple((quantity, Floats(shape), "oracle") for quantity, shape in zip(quantities, shapes))


def _quantity_block(fn, by_sigma: bool = True):
    """A command of (quantity, value) pairs, values with block axes first, as a Block.

    Every value is an ndarray or a numpy scalar.  A command by_sigma runs on a
    block's `_sigma_representatives` where models gives them, and take gathers the
    block's rows from theirs; a block that fails there is rerun point by point by
    `_run`, as any failing block is.  One finiteness check covers the floats; only
    where it fails are the values checked one by one, so the message names the
    first quantity that is not finite.
    """
    def block(p: ParamPoint, args, engine) -> Block:
        q, index = by_sigma and _sigma_representatives(p, engine) or (p, None)
        pairs = fn(q, args, engine)
        n, axes = (1, 0) if type(q.c1) is float else (q.c1.size, q.c1.ndim)
        floats = np.concatenate([v.reshape(n, -1) for _, v in pairs], axis=1)
        if np.count_nonzero(np.isfinite(floats)) < floats.size:
            for quantity, value in pairs:
                _require_finite(q, quantity, value)
        rows = _quantity_rows(tuple([quantity for quantity, _ in pairs]),
                              tuple([v.shape[axes:] for _, v in pairs]))
        return Block(_coords(p), rows, floats if index is None else floats.take(index, axis=0))
    return block


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


def _audit(p, args, engine) -> Block:
    r = run_audit(p, Tolerances(args.tol_closed, args.tol_derived, args.tol_rel))
    # a finite |paper - oracle| makes both sides and the relative gap finite
    _require_finite(p, "an audit gap", r.abs_gap)
    coords = _coords(p)
    n = len(coords)
    floats = np.concatenate([a[..., None] for a in (r.paper, r.oracle, r.abs_gap, r.rel_gap)],
                            axis=-1).reshape(n, -1)
    return Block(coords, _AUDIT_ROWS, floats, r.match.reshape(n, -1))


# command -> the Block of a point, or of a block of points
_COMMANDS = {
    "metric": _quantity_block(_metric, by_sigma=False),  # its kernels cost little per point
    "christoffel": _quantity_block(_christoffel),
    "torsion": _quantity_block(_torsion),
    "curvature": _quantity_block(_curvature),
    "scalar": _quantity_block(_scalar),
    "transform": _quantity_block(_transform, by_sigma=False),
    "audit": _audit,
}


def _run(p: ParamPoint, fn, args, engine) -> list[Block]:
    """fn's Block at a point or block.  A float that overflows or divides by zero
    at a point is a domain error; a block, which _report makes only for an engine
    that integrates blocks, runs again point by point when it raises, so its first
    failing point raises its own message."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return [fn(p, args, engine)]
    except (DomainError, SingularMetricError, ArithmeticError) as exc:
        if type(p.c1) is not float:
            return [b for q in p.points() for b in _run(q, fn, args, engine)]
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


def _selftest() -> tuple[Block, bool]:
    """The selftest's checks as one Block at (0, 1), and whether every check passes."""
    checks = selftest_checks()
    rows = tuple((f"selftest.{name}", _FLOAT, _FLOAT, Verdict("FAIL", "PASS"), "oracle")
                 for name, _, _ in checks)
    ok = np.array([[residual <= bound for _, residual, bound in checks]])
    floats = np.array([[x for _, residual, bound in checks for x in (residual, bound)]])
    return Block(np.array([[0.0, 1.0]]), rows, floats, ok), bool(ok.all())


def _emit(args, report: Report) -> None:
    text = _WRITERS[args.format](report)
    if args.output is not None:  # an empty path is refused, not read as stdout
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


# argv shape -> its namespace, the least recently used first; see _parse
_PARSE_MEMO: dict[tuple[str, ...], argparse.Namespace] = {}


def _parse(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """parser.parse_args(argv), memoised per argv shape; each call gets a fresh namespace.

    argparse stores the V of an exact --point=V or --grid=V as given, so an
    argv's shape has each such V (but '--', which argparse reads) replaced by a
    placeholder for its position.  A new shape is first parsed as given, so
    help and errors exit inside argparse and are never kept; only a parse that
    returns keeps the shape's namespace.  A kept namespace is copied, and a
    placeholder in its ``point`` or ``grid`` becomes that token's value.  An
    argv holding a NUL, which no process's argv can, is parsed as given.
    """
    if "\0" in "".join(argv):
        return parser.parse_args(argv)
    shape, values = [], {}
    for i, tok in enumerate(argv):
        name, eq, value = tok.partition("=")
        if eq and name in ("--point", "--grid") and value != "--":
            values[f"\0{i}"] = value
            tok = f"{name}=\0{i}"
        shape.append(tok)
    key = tuple(shape)
    kept = _PARSE_MEMO.pop(key, None)
    if kept is None:
        args = parser.parse_args(argv)
        kept = parser.parse_args(shape)
        if len(_PARSE_MEMO) >= PARSE_MEMO_SIZE:
            del _PARSE_MEMO[next(iter(_PARSE_MEMO))]
    else:
        args = argparse.Namespace(**vars(kept))
        for dest in ("point", "grid"):
            if getattr(args, dest, None) in values:
                setattr(args, dest, values[getattr(args, dest)])
    _PARSE_MEMO[key] = kept
    return args


def _report(args) -> tuple[Report, int]:
    """The report of a parsed request, and its exit code."""
    notes: tuple[str, ...] = ()
    chart = Chart(getattr(args, "chart", "theta"))
    engine, engine_desc = ClosedForm(), "closed_form"
    if args.command == "selftest":
        block, passed = _selftest()
        keys, blocks, code = SELFTEST_KEYS, [block], EXIT_OK if passed else 1
    else:
        keys = QUANTITY_KEYS
        point = _points(args, chart)
        if hasattr(args, "engine"):
            engine, engine_desc = _parse_engine(args.engine)
        size = BLOCK_POINTS if integrates_blocks(engine) else 1
        blocks = [b for block in point.points(size)
                  for b in _run(block, _COMMANDS[args.command], args, engine)]
        code = EXIT_OK
        if args.command == "audit":
            keys, notes = AUDIT_KEYS, AUDIT_NOTES
            if args.strict and not all(b.ok.all() for b in blocks):
                code = EXIT_AUDIT
    meta = {"command": args.command, "chart": chart.value, "engine": engine_desc,
            "tool_version": __version__}
    return Report(meta, keys, blocks, notes), code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse(parser, _join_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, code = _report(args)
        _emit(args, report)
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
