"""Command-line front end: CSV in, JSON or CSV out.

Exit codes: 0 success, 2 input/configuration error, 3 numeric/domain error
(an infinite value where finiteness is required, or a transform domain
violation). Set INEQLAB_LOG=debug|info|off to control logging.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import sys
from itertools import combinations, repeat

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

log = logging.getLogger("ineqlab")
log.addHandler(logging.NullHandler())


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


def _setup_logging() -> None:
    """Set the level of the `ineqlab` logger only; other loggers in the
    process are left as they are."""
    level = os.environ.get("INEQLAB_LOG", "off").lower()
    if level == "off":
        log.setLevel(logging.CRITICAL + 1)
        return
    log.setLevel(logging.DEBUG if level == "debug" else logging.INFO)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")


def ingest(path: str, value_col: str) -> Dataset:
    """Read a UTF-8 CSV with a header row into a Dataset.

    Every column other than the value column becomes an attribute. A CSV
    without quotes or carriage returns is read column by column, each
    attribute as `Encoded` level codes; any other text, and any text with
    a row the columnar reader does not accept, is read again row by row,
    which gives the same Dataset and raises every line-numbered input
    error. A UTF-8 byte order mark is skipped; a byte that is not UTF-8 is
    reported by its offset in the file and its line.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            columns = _read_columns(fh, value_col)
            if columns is None:
                fh.seek(0)
                columns = _read_rows(fh, value_col)
    except UnicodeDecodeError as exc:
        raise InputError(_decode_error(path, exc)) from exc
    except (OSError, csv.Error) as exc:
        raise InputError(str(exc)) from exc
    return Dataset(*columns)


def _decode_error(path: str, exc: UnicodeDecodeError) -> str:
    """The decode error of the whole file, whose position is the byte's
    offset in the file, with the byte's line; `exc` counts positions from
    the start of the text decoder's chunk."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as whole:
        # line breaks as the csv reader counts them: \n, \r\n or a lone \r
        line = len((raw[: whole.start] + b".").splitlines())
        return f"{whole} (line {line})"
    return str(exc)


def _check_header(header: list[str], value_col: str) -> None:
    for i, h in enumerate(header):
        if h in header[:i]:
            raise InputError(f"header repeats column {h!r}")
    if value_col not in header:
        raise InputError(f"missing value column {value_col!r}")


# characters per block of lines in the columnar reader: a block's flat list
# of fields is transient, so it stays small next to the columns it fills
_BLOCK_CHARS = 1 << 16


def _read_columns(fh, value_col: str):
    """Values, `Encoded` attribute columns and names of a CSV without quotes
    or carriage returns, or None where `_read_rows` must read it.

    Reads blocks of whole lines and splits each block into one flat list
    of fields. Raises only the header errors; every row it does not take
    as it is (a blank row, a wrong field count, a value that does not
    parse or is negative or not finite, an empty category, a field longer
    than `csv.field_size_limit()`) gives None.
    """
    line = fh.readline().removesuffix("\n")
    if not line or '"' in line or "\r" in line:
        return None
    header = line.split(",")
    _check_header(header, value_col)
    k = len(header)
    vi = header.index(value_col)
    attr_names = [h for h in header if h != value_col]
    attr_idx = [header.index(a) for a in attr_names]
    encoders = [_level_encoder() for _ in attr_names]
    # the values and, per attribute, the first-seen level codes of each
    # block; each list starts with an empty block, so that a CSV without
    # rows concatenates too
    blocks = [np.empty(0)]
    codes = [[np.empty(0, np.uint8)] for _ in attr_names]
    while lines := fh.readlines(_BLOCK_CHARS):
        text = "".join(lines)
        if '"' in text or "\r" in text:
            return None
        if list(map(str.count, lines, repeat(","))).count(k - 1) != len(lines):
            return None
        flat = text.replace("\n", ",").split(",")
        if text.endswith("\n"):
            flat.pop()
        limit = csv.field_size_limit()
        if len(text) > limit and max(map(len, flat)) > limit:
            return None  # csv.reader rejects a field this long
        cells = flat[vi::k]
        try:
            # float() as in `_read_rows`, so the same texts parse, to the same bits
            block = np.fromiter(map(float, cells), float, len(cells))
        except ValueError:
            return None
        if not np.all(np.isfinite(block)) or np.any(block < 0):
            return None
        blocks.append(block)
        for j, code_of, column in zip(attr_idx, encoders, codes):
            cells = flat[j::k]
            if "" in cells:
                return None
            first_seen = np.fromiter(map(code_of.__getitem__, cells), np.intp, len(cells))
            column.append(first_seen.astype(np.min_scalar_type(len(code_of))))
    attrs = {
        a: _sorted_encoding(code_of, np.concatenate(column))
        for a, code_of, column in zip(attr_names, encoders, codes)
    }
    return np.concatenate(blocks), attrs, attr_names


def _read_rows(fh, value_col: str):
    """Values, attribute lists and names read with `csv.reader`; the first
    row it rejects raises an InputError, or a csv.Error, with its line."""
    rows = _records(csv.reader(fh))
    try:
        _, header = next(rows)
    except StopIteration:
        raise InputError("empty dataset") from None
    _check_header(header, value_col)
    vi = header.index(value_col)
    attr_names = [h for h in header if h != value_col]
    attr_idx = {a: header.index(a) for a in attr_names}
    values = []
    attrs: dict[str, list[str]] = {a: [] for a in attr_names}
    for lineno, row in rows:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise InputError(
                f"line {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        try:
            v = float(row[vi])
        except ValueError:
            raise InputError(
                f"line {lineno}: cannot parse value {row[vi]!r}"
            ) from None
        if not math.isfinite(v) or v < 0:
            raise InputError(
                f"line {lineno}: value must be non-negative and finite"
            )
        values.append(v)
        for a in attr_names:
            cell = row[attr_idx[a]]
            if cell == "":
                raise InputError(
                    f"line {lineno}: missing category for attribute {a!r}"
                )
            attrs[a].append(cell)
    return values, attrs, attr_names


def _records(reader):
    """(line, row) per record, the line being the file line the record
    starts on; a csv.Error the reader raises is raised again with it."""
    lineno = 1
    try:
        for row in reader:
            yield lineno, row
            lineno = reader.line_num + 1
    except csv.Error as exc:
        raise csv.Error(f"line {lineno}: {exc}") from None


def _round(value: float, precision: int):
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return round(value + 0.0, precision)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps(payload, indent=2))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(["key", "value"])
        for key, value in _flatten(payload):
            writer.writerow([key, value])


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
    _setup_logging()


@main.command("measure")
@input_opt
@value_opt
@measure_opt
@format_opt
@precision_opt
def cmd_measure(path, value_col, measure_str, fmt, precision):
    """Compute one inequality measure over the whole population."""
    pop = ingest(path, value_col)
    kind, parsed = parse_measure(measure_str)
    if kind == "atkinson":
        value = atkinson(pop, parsed)
    else:
        value = inequality(population_matrix(pop), parsed)
    log.info("measure %s = %s", measure_str, value)
    _emit({"measure": measure_str, "value": _round(value, precision)}, fmt)


@main.command("lorenz")
@input_opt
@value_opt
@click.option("--group-by", "group_attrs", default=None, help="comma-separated attributes")
@precision_opt
def cmd_lorenz(path, value_col, group_attrs, precision):
    """Emit the canonical chain vertices as x,y CSV."""
    pop = ingest(path, value_col)
    if group_attrs:
        cols = grouped_columns(pop, [a.strip() for a in group_attrs.split(",")])
    else:
        cols = population_matrix(pop)
    chain = canonical_chain(cols)
    click.echo("\n".join(
        ["x,y"] + [f"{x:.{precision}g},{y:.{precision}g}" for x, y in chain.vertices.tolist()]
    ))


@main.command("decompose")
@input_opt
@value_opt
@measure_opt
@click.option("--attrs", "attrs_str", required=True, help="2 or 3 comma-separated attributes")
@format_opt
@precision_opt
def cmd_decompose(path, value_col, measure_str, attrs_str, fmt, precision):
    """Redundant/unique/synergetic decomposition over the attribute lattice."""
    pop = ingest(path, value_col)
    attrs = [a.strip() for a in attrs_str.split(",")]
    kind, parsed = parse_measure(measure_str)
    if kind == "atkinson":
        result = atkinson_decompose(pop, attrs, parsed)
    else:
        result = decompose(pop, attrs, parsed)
    payload = {
        "measure": measure_str,
        "attributes": attrs,
        "total": _round(result.total, precision),
    }
    if len(attrs) == 2:
        named = result.named(attrs[0], attrs[1])
        payload["components"] = {
            "redundant": _round(named["redundant"], precision),
            "unique": {
                attrs[0]: _round(named[f"unique_{attrs[0]}"], precision),
                attrs[1]: _round(named[f"unique_{attrs[1]}"], precision),
            },
            "synergy": _round(named["synergetic"], precision),
        }
    payload["lattice"] = [
        {
            "node": node.label(),
            "cumulative": _round(cum, precision),
            "partial": _round(part, precision),
        }
        for node, cum, part in result.nodes
    ]
    _emit(payload, fmt)


@main.command("shapley")
@input_opt
@value_opt
@measure_opt
@click.option("--attrs", "attrs_str", required=True, help="comma-separated attributes")
@format_opt
@precision_opt
def cmd_shapley(path, value_col, measure_str, attrs_str, fmt, precision):
    """Exact Shapley values of the grouped-inequality game."""
    pop = ingest(path, value_col)
    attrs = [a.strip() for a in attrs_str.split(",")]
    kind, parsed = parse_measure(measure_str)
    if kind == "atkinson":
        raise InvalidMeasure("shapley requires an f-inequality measure")
    values = _all_values(pop, attrs, parsed)
    phi = _phi(values, attrs)
    interactions = {
        f"{a}|{b}": _round(values[(a, b)] - values[(a,)] - values[(b,)], precision)
        for a, b in combinations(attrs, 2)
    }
    payload = {
        "values": {a: _round(v, precision) for a, v in phi.items()},
        "efficiency_check": _round(sum(phi.values()), precision),
        "interactions": interactions,
    }
    _emit(payload, fmt)


@main.command("subgroup")
@input_opt
@value_opt
@measure_opt
@click.option("--group-by", "group_attr", required=True, help="single grouping attribute")
@format_opt
@precision_opt
def cmd_subgroup(path, value_col, measure_str, group_attr, fmt, precision):
    """Classical GE between/within subgroup decomposition."""
    pop = ingest(path, value_col)
    kind, parsed = parse_measure(measure_str)
    if kind == "atkinson":
        raise InvalidMeasure("subgroup decomposition is defined for the GE family")
    c = _ge_parameter(parsed)
    result = subgroup_decompose(pop, group_attr, c)
    payload = {
        "between": _round(result.between, precision),
        "within": [
            {
                "group": "|".join(key),
                "weight": _round(w, precision),
                "value": _round(v, precision),
            }
            for key, w, v in result.within
        ],
        "reconstruction": _round(result.reconstruction, precision),
        "total": _round(result.total, precision),
    }
    _emit(payload, fmt)


def _ge_parameter(spec: MeasureSpec) -> float:
    if spec.p != 0:
        raise InvalidMeasure("subgroup decomposition requires p = 0")
    if spec.f.c is None:
        raise InvalidMeasure("subgroup decomposition is defined for the GE family")
    return spec.f.c


if __name__ == "__main__":
    main()
