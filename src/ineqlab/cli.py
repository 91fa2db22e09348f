"""Command-line front end: CSV in, JSON or CSV out.

Exit codes: 0 success, 2 input/configuration error, 3 numeric/domain error
(an infinite value where finiteness is required, or a transform domain
violation).
"""

from __future__ import annotations

import codecs
import csv
import json
import math
import sys
from itertools import chain, combinations, repeat
from typing import Sequence

import click
import numpy as np

from .decomposition import atkinson_decompose, decompose, subgroup_decompose
from .errors import (
    IneqError,
    InfiniteMeasure,
    InvalidMeasure,
    TransformDomainError,
)
from .measures import MeasureSpec, atkinson, inequality, parse_measure
from .population import (
    Dataset,
    _level_encoder,
    _sorted_encoding,
    grouped_columns,
    population_matrix,
)
from .shapley import _all_values, _phi
# not called here; perfbench/run.py traces calls through these names
from .shapley import game_synergy, shapley_values  # noqa: F401
from .zonogon import canonical_chain


class InputError(click.ClickException):
    exit_code = 2


class NumericError(click.ClickException):
    exit_code = 3


class _Main(click.Group):
    """The one place where library errors become exit codes; click prints
    each as `Error: <message>` on stderr."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (InfiniteMeasure, TransformDomainError) as exc:
            raise NumericError(str(exc)) from exc
        except IneqError as exc:
            raise InputError(str(exc)) from exc


def ingest(path: str, value_col: str, attrs: Sequence[str]) -> Dataset:
    """Read a UTF-8 CSV with a header row into a Dataset.

    Of the columns other than the value column, those named in `attrs`
    become attributes, handed to `Dataset` as `_Encoded` level codes, which
    only the CLI and `Dataset.scaled` give; every other column is checked as
    they are, but not kept. A name that is not a column is left for the
    library to reject as an unknown attribute. The file is read once, by
    `_read_csv`. A UTF-8 byte order mark is skipped; a byte that is not
    UTF-8 is reported by its offset in the file and its line.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            columns = _read_csv(fh, value_col, attrs)
    except UnicodeDecodeError as exc:
        raise InputError(_decode_error(path, exc)) from exc
    except (OSError, csv.Error) as exc:
        raise InputError(str(exc)) from exc
    return Dataset(*columns)


def _line_breaks(data: bytes) -> int:
    """Line breaks as the csv reader counts them: LF, CR LF or a lone CR."""
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")


def _decode_error(path: str, exc: UnicodeDecodeError) -> str:
    """The decode error of the whole file, whose position is the byte's
    offset in the file, with the byte's line; `exc` counts positions from
    the start of the text decoder's chunk.

    The file is decoded in blocks of bytes; a sequence cut by a block's end
    is held by the decoder, so its first error is the whole file's.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset, line, after_cr = 0, 1, False  # bytes and lines before `block`
    with open(path, "rb") as fh:
        while True:
            block = fh.read(_BLOCK_CHARS)
            held = decoder.getstate()[0]  # no line break: bytes of one sequence
            try:
                decoder.decode(block, final=not block)
            except UnicodeDecodeError as err:
                # positions count from the start of held + block
                start = offset - len(held) + err.start
                prefix = (held + block)[: err.start]
                line += _line_breaks(prefix) - (after_cr and prefix.startswith(b"\n"))
                if err.end == err.start + 1:
                    where = f"byte 0x{err.object[err.start]:02x} in position {start}"
                else:
                    where = f"bytes in position {start}-{start + err.end - err.start - 1}"
                return f"'utf-8' codec can't decode {where}: {err.reason} (line {line})"
            if not block:
                return str(exc)
            # a \r\n split across two blocks is one line break
            line += _line_breaks(block) - (after_cr and block.startswith(b"\n"))
            offset += len(block)
            after_cr = block.endswith(b"\r")


def _check_header(header: list[str], value_col: str) -> None:
    for i, h in enumerate(header):
        if h in header[:i]:
            raise InputError(f"header repeats column {h!r}")
    if value_col not in header:
        raise InputError(f"missing value column {value_col!r}")


# characters per block of lines (bytes per block in `_decode_error`): a
# block's fields are transient, so they stay small next to the columns they fill
_BLOCK_CHARS = 1 << 16


def _read_csv(fh, value_col: str, attrs=None):
    """Values, attribute columns and names of a CSV, for `ingest`.

    The attributes are the columns named in `attrs`, in the header's order,
    or with None every column but the value column. The header is read with
    `csv.reader`, then blocks of whole lines: a block that `_split_block`
    takes is split on commas, and any other is read by `_read_rows`, which
    reads on into the file only for a quoted field that spans the block's
    end. Each block's labels of the attributes become level codes at once,
    sorted at the end into an `_Encoded` column (only this and
    `Dataset.scaled` give one); the other columns are checked and dropped.
    Raises the header's or first invalid row's error.
    """
    reader = csv.reader(fh)
    try:
        if (header := next(reader, None)) is None:
            raise InputError("empty dataset")
    except csv.Error as exc:
        raise csv.Error(f"line 1: {exc}") from None
    _check_header(header, value_col)
    vi = header.index(value_col)
    attr_idx = [i for i, h in enumerate(header) if i != vi]
    # positions in attr_idx of the attributes kept
    kept = [k for k, j in enumerate(attr_idx) if attrs is None or header[j] in attrs]
    encoders = [_level_encoder() for _ in kept]
    # each block's values and, per attribute, first-seen level codes; each
    # list starts with an empty block, so that a CSV without rows concatenates
    blocks = [np.empty(0)]
    codes = [[np.empty(0, np.uint8)] for _ in kept]
    lines_read = reader.line_num
    while lines := fh.readlines(_BLOCK_CHARS):
        block = _split_block(lines, len(header), vi, attr_idx)
        if block is None:
            reader = csv.reader(chain(lines, fh))
            block = _read_rows(reader, len(lines), lines_read, header, vi, attr_idx)
            lines_read += reader.line_num
        else:
            lines_read += len(lines)
        values, labels = block
        blocks.append(values)
        for code_of, column, k in zip(encoders, codes, kept):
            cells = labels[k]
            first_seen = np.fromiter(map(code_of.__getitem__, cells), np.intp, len(cells))
            column.append(first_seen.astype(np.min_scalar_type(len(code_of))))
    names = [header[attr_idx[k]] for k in kept]
    attributes = {
        name: _sorted_encoding(code_of, np.concatenate(column))
        for name, code_of, column in zip(names, encoders, codes)
    }
    return np.concatenate(blocks), attributes, names


def _split_block(lines: list[str], k: int, vi: int, attr_idx: list[int]):
    """`_columns` of a block of lines split on commas, or None where that
    may not read what `csv.reader` reads: a quote or carriage return, a
    line without k - 1 commas, or a field over `csv.field_size_limit()`."""
    text = "".join(lines)
    if '"' in text or "\r" in text:
        return None
    if list(map(str.count, lines, repeat(","))).count(k - 1) != len(lines):
        return None
    flat = text.removesuffix("\n").replace("\n", ",").split(",")
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, flat)) > limit:
        return None  # csv.reader rejects a field this long
    return _columns([flat[j::k] for j in range(k)], vi, attr_idx)


def _columns(fields: list, vi: int, attr_idx: list[int]):
    """Values and, per attribute, labels of a block's fields given column by
    column, or None for a value that does not parse or is negative or not
    finite, or for an empty label."""
    try:
        # float() as in `_checked_rows`, so the same texts parse, to the same bits
        values = np.fromiter(map(float, fields[vi]), float, len(fields[vi]))
    except ValueError:
        return None
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        return None
    labels = [fields[j] for j in attr_idx]
    if any("" in cells for cells in labels):
        return None
    return values, labels


def _read_rows(reader, stop: int, start: int, header: list[str], vi: int, attr_idx: list[int]):
    """`_columns`, or where it gives None `_checked_rows`, of the rows `reader`
    reads until it has read `stop` lines, `start` lines of the file before;
    the first invalid row raises an InputError, or a csv.Error, with its line."""
    rows, ends = [], [start]  # each row's file line is the line after ends[i]
    try:
        for row in reader:
            rows.append(row)
            ends.append(start + reader.line_num)
            if reader.line_num >= stop:
                break
    except csv.Error as exc:
        _checked_rows(rows, ends, header, vi, attr_idx)
        raise csv.Error(f"line {ends[-1] + 1}: {exc}") from None
    same_length = list(map(len, rows)).count(len(header)) == len(rows)
    block = same_length and _columns(list(zip(*rows)), vi, attr_idx)
    return block or _checked_rows(rows, ends, header, vi, attr_idx)


def _checked_rows(rows, ends, header: list[str], vi: int, attr_idx: list[int]):
    """The values and labels of `rows`, row by row: blank rows are skipped,
    and the first invalid row raises an InputError with its line."""
    values = []
    labels: list[list[str]] = [[] for _ in attr_idx]
    for end, row in zip(ends, rows):
        lineno = end + 1
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise InputError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            v = float(row[vi])
        except ValueError:
            raise InputError(f"line {lineno}: cannot parse value {row[vi]!r}") from None
        if not math.isfinite(v) or v < 0:
            raise InputError(f"line {lineno}: value must be non-negative and finite")
        values.append(v)
        for j, cells in zip(attr_idx, labels):
            if row[j] == "":
                raise InputError(f"line {lineno}: missing category for attribute {header[j]!r}")
            cells.append(row[j])
    return np.array(values, dtype=float), labels


def _emit(payload: dict, fmt: str, precision: int) -> None:
    """Print `payload` as JSON or as key,value CSV rows, each float rounded
    by `_rounded`."""
    payload = _rounded(payload, precision)
    if fmt == "json":
        click.echo(json.dumps(payload, indent=2))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in _flatten(payload):
            writer.writerow([key, value])


def _rounded(obj, precision: int):
    """`obj` with every float rounded to `precision` digits, -0.0 as 0.0,
    and an infinity as "inf" or "-inf"."""
    if isinstance(obj, dict):
        return {k: _rounded(v, precision) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v, precision) for v in obj]
    if not isinstance(obj, float):
        return obj
    if math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return round(obj, precision) + 0.0


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}.{i}" if prefix else str(i))
    else:
        yield prefix, obj


input_opt = click.option("--input", "-i", "path", required=True, help="input CSV file")
value_opt = click.option("--value-col", required=True, help="name of the indicator column")
measure_opt = click.option("--measure", "measure_str", default="theil", show_default=True)
format_opt = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True
)
precision_opt = click.option(
    "--precision", type=click.IntRange(min=0), default=6, show_default=True
)


@click.group(cls=_Main)
def main() -> None:
    """Inequality measures and attribute decompositions."""


@main.command("measure")
@input_opt
@value_opt
@measure_opt
@format_opt
@precision_opt
def cmd_measure(path, value_col, measure_str, fmt, precision):
    """Compute one inequality measure over the whole population."""
    kind, parsed = parse_measure(measure_str)
    pop = ingest(path, value_col, ())
    if kind == "atkinson":
        value = atkinson(pop, parsed)
    else:
        value = inequality(population_matrix(pop), parsed)
    _emit({"measure": measure_str, "value": value}, fmt, precision)


@main.command("lorenz")
@input_opt
@value_opt
@click.option("--group-by", "group_attrs", default=None, help="comma-separated attributes")
@precision_opt
def cmd_lorenz(path, value_col, group_attrs, precision):
    """Emit the canonical chain vertices as x,y CSV."""
    attrs = [a.strip() for a in group_attrs.split(",")] if group_attrs else []
    pop = ingest(path, value_col, attrs)
    if group_attrs:
        cols = grouped_columns(pop, attrs)
    else:
        cols = population_matrix(pop)
    vertices = canonical_chain(cols).vertices.tolist()
    click.echo("\n".join(["x,y"] + [f"{x:.{precision}g},{y:.{precision}g}" for x, y in vertices]))


@main.command("decompose")
@input_opt
@value_opt
@measure_opt
@click.option("--attrs", "attrs_str", required=True, help="2 or 3 comma-separated attributes")
@format_opt
@precision_opt
def cmd_decompose(path, value_col, measure_str, attrs_str, fmt, precision):
    """Redundant/unique/synergetic decomposition over the attribute lattice."""
    kind, parsed = parse_measure(measure_str)
    attrs = [a.strip() for a in attrs_str.split(",")]
    pop = ingest(path, value_col, attrs)
    if kind == "atkinson":
        result = atkinson_decompose(pop, attrs, parsed)
    else:
        result = decompose(pop, attrs, parsed)
    payload = {"measure": measure_str, "attributes": attrs, "total": result.total}
    if len(attrs) == 2:
        named = result.named(attrs[0], attrs[1])
        payload["components"] = {
            "redundant": named["redundant"],
            "unique": {a: named[f"unique_{a}"] for a in attrs},
            "synergy": named["synergetic"],
        }
    payload["lattice"] = [
        {"node": node.label(), "cumulative": cum, "partial": part}
        for node, cum, part in result.nodes
    ]
    _emit(payload, fmt, precision)


@main.command("shapley")
@input_opt
@value_opt
@measure_opt
@click.option("--attrs", "attrs_str", required=True, help="comma-separated attributes")
@format_opt
@precision_opt
def cmd_shapley(path, value_col, measure_str, attrs_str, fmt, precision):
    """Exact Shapley values of the grouped-inequality game."""
    kind, parsed = parse_measure(measure_str)
    if kind == "atkinson":
        raise InvalidMeasure("shapley requires an f-inequality measure")
    attrs = [a.strip() for a in attrs_str.split(",")]
    pop = ingest(path, value_col, attrs)
    values = _all_values(pop, attrs, parsed)
    phi = _phi(values, attrs)
    interactions = {
        f"{a}|{b}": values[(a, b)] - values[(a,)] - values[(b,)]
        for a, b in combinations(attrs, 2)
    }
    payload = {"values": phi, "efficiency_check": sum(phi.values()), "interactions": interactions}
    _emit(payload, fmt, precision)


@main.command("subgroup")
@input_opt
@value_opt
@measure_opt
@click.option("--group-by", "group_attr", required=True, help="single grouping attribute")
@format_opt
@precision_opt
def cmd_subgroup(path, value_col, measure_str, group_attr, fmt, precision):
    """Classical GE between/within subgroup decomposition."""
    kind, parsed = parse_measure(measure_str)
    if kind == "atkinson":
        raise InvalidMeasure("subgroup decomposition is defined for the GE family")
    c = _ge_parameter(parsed)
    group_attr = group_attr.strip()
    pop = ingest(path, value_col, [group_attr])
    result = subgroup_decompose(pop, group_attr, c)
    payload = {
        "between": result.between,
        "within": [
            {"group": "|".join(key), "weight": w, "value": v} for key, w, v in result.within
        ],
        "reconstruction": result.reconstruction,
        "total": result.total,
    }
    _emit(payload, fmt, precision)


def _ge_parameter(spec: MeasureSpec) -> float:
    if spec.p != 0:
        raise InvalidMeasure("subgroup decomposition requires p = 0")
    if spec.f.c is None:
        raise InvalidMeasure("subgroup decomposition is defined for the GE family")
    return spec.f.c


if __name__ == "__main__":
    main()
