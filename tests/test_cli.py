"""CLI commands: ingestion, output formats, schemas, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import validate

import ineqlab.shapley
from ineqlab import Dataset, cli
from ineqlab.cli import InputError, _check_header, _rounded, main

XOR_CSV = "region,industry,income\nr1,i1,1\nr1,i2,3\nr2,i1,3\nr2,i2,1\n"
UNIFORM_CSV = "g,income\na,2\nb,2\nc,2\n"
# 12 incomes of 3 +- 1e-9: every measure is a sum of terms near f(1) = 0,
# each with about 1e-16 of error
NEAR_UNIFORM = str(Path(__file__).parent / "near_uniform.csv")


def schema(name):
    path = resources.files("ineqlab") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def xor_file(tmp_path):
    p = tmp_path / "xor.csv"
    p.write_text(XOR_CSV)
    return str(p)


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_measure_pietra(runner, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("g,income\na,1\nb,3\n")
    res = invoke(runner, ["measure", "-i", str(p), "--value-col", "income", "--measure", "pietra"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    validate(payload, schema("measure"))
    assert payload == {"measure": "pietra", "value": 0.25}


def test_measure_infinite_value(runner, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("g,income\na,0\nb,3\n")
    res = invoke(runner, ["measure", "-i", str(p), "--value-col", "income", "--measure", "mld"])
    assert res.exit_code == 0
    assert json.loads(res.output)["value"] == "inf"


def test_lorenz_uniform(runner, tmp_path):
    p = tmp_path / "u.csv"
    p.write_text(UNIFORM_CSV)
    res = invoke(runner, ["lorenz", "-i", str(p), "--value-col", "income"])
    assert res.exit_code == 0
    assert res.output.splitlines() == ["x,y", "0,0", "1,1"]


def test_lorenz_grouped(runner, xor_file):
    res = invoke(
        runner,
        ["lorenz", "-i", xor_file, "--value-col", "income", "--group-by", "region,industry"],
    )
    assert res.exit_code == 0
    assert res.output.splitlines()[0] == "x,y"
    assert len(res.output.splitlines()) == 4  # (0,0), two interior, (1,1)


def test_decompose_xor(runner, xor_file):
    res = invoke(
        runner,
        [
            "decompose",
            "-i",
            xor_file,
            "--value-col",
            "income",
            "--attrs",
            "region,industry",
            "--measure",
            "theil",
        ],
    )
    assert res.exit_code == 0
    payload = json.loads(res.output)
    validate(payload, schema("decompose"))
    assert payload["components"]["redundant"] == 0.0
    assert payload["components"]["unique"] == {"region": 0.0, "industry": 0.0}
    assert payload["components"]["synergy"] == pytest.approx(0.130812)
    assert len(payload["lattice"]) == 4


def test_decompose_three_attrs_omits_components(runner, tmp_path):
    p = tmp_path / "d3.csv"
    p.write_text(
        "a,b,c,income\nx,p,u,1\nx,q,v,3\ny,p,u,2\ny,q,v,5\nx,p,v,4\ny,q,u,1\n"
    )
    res = invoke(
        runner,
        ["decompose", "-i", str(p), "--value-col", "income", "--attrs", "a,b,c"],
    )
    assert res.exit_code == 0
    payload = json.loads(res.output)
    validate(payload, schema("decompose"))
    assert "components" not in payload
    assert len(payload["lattice"]) == 18


def test_shapley_output(runner, xor_file):
    res = invoke(
        runner,
        ["shapley", "-i", xor_file, "--value-col", "income", "--attrs", "region,industry"],
    )
    assert res.exit_code == 0
    payload = json.loads(res.output)
    validate(payload, schema("shapley"))
    assert payload["values"]["region"] == pytest.approx(0.065406)
    assert payload["efficiency_check"] == pytest.approx(0.130812)
    assert payload["interactions"]["region|industry"] == pytest.approx(0.130812)


def test_subgroup_output(runner, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("region,income\nr1,1\nr1,3\nr2,2\nr2,6\n")
    res = invoke(
        runner,
        ["subgroup", "-i", str(p), "--value-col", "income", "--group-by", "region"],
    )
    assert res.exit_code == 0
    payload = json.loads(res.output)
    validate(payload, schema("subgroup"))
    assert payload["between"] == pytest.approx(0.056633)
    assert payload["reconstruction"] == pytest.approx(0.187445)
    assert payload["total"] == pytest.approx(0.187445)


def test_subgroup_group_by_is_stripped(runner, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("income,A,B\n1,a,x\n3,a,y\n2,b,x\n6,b,y\n")
    args = ["subgroup", "-i", str(p), "--value-col", "income", "--group-by"]
    padded, plain = invoke(runner, [*args, " A "]), invoke(runner, [*args, "A"])
    assert padded.exit_code == plain.exit_code == 0
    assert json.loads(padded.output) == json.loads(plain.output)


@pytest.mark.parametrize("quoted", [False, True], ids=["columnar", "row-reader"])
def test_subgroup_keeps_labels_differing_by_trailing_nul(runner, tmp_path, quoted):
    p = tmp_path / "d.csv"
    p.write_text("g,income\n" + ('"a\x00",1\n' if quoted else "a\x00,1\n") + "a,2\nb,3\n")
    res = invoke(runner, ["subgroup", "-i", str(p), "--value-col", "income", "--group-by", "g"])
    assert res.exit_code == 0
    assert [g["group"] for g in json.loads(res.output)["within"]] == ["a", "a\x00", "b"]


def test_subgroup_total_is_the_measure_at_every_digit_of_c(runner, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("income,region\n1,a\n3,a\n2,b\n7,b\n0.5,c\n")
    args = ["-i", str(p), "--value-col", "income", "--measure", "ge:0.123456789",
            "--precision", "17"]
    whole = json.loads(invoke(runner, ["measure", *args]).output)
    split = json.loads(invoke(runner, ["subgroup", *args, "--group-by", "region"]).output)
    assert split["total"] == whole["value"]


def test_subgroup_zero_income_group_mld_is_infinite(runner, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("income,region\n0,r1\n0,r1\n3,r2\n5,r2\n")
    res = invoke(
        runner,
        ["subgroup", "-i", str(p), "--value-col", "income", "--group-by", "region",
         "--measure", "mld"],
    )
    assert res.exit_code == 0

    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    payload = json.loads(res.output, parse_constant=reject)
    validate(payload, schema("subgroup"))
    assert payload["reconstruction"] == payload["total"] == "inf"
    # MLD's within weights are population shares, 0^0 = 1 for a zero-income group
    assert payload["within"][0] == {"group": "r1", "weight": 0.5, "value": 0.0}
    assert payload["within"][1]["weight"] == 0.5


def test_subgroup_zero_income_group_mld_is_infinite_in_csv(runner, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("income,region\n0,r1\n0,r1\n3,r2\n5,r2\n")
    res = invoke(
        runner,
        ["subgroup", "-i", str(p), "--value-col", "income", "--group-by", "region",
         "--measure", "mld", "--format", "csv"],
    )
    assert res.exit_code == 0
    want = {"reconstruction,inf", "total,inf", "within.0.weight,0.5", "within.1.weight,0.5"}
    assert want <= set(res.output.splitlines())


def test_ingest_negative_value_exit_2(runner, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("g,income\na,-1\n")
    res = runner.invoke(main, ["measure", "-i", str(p), "--value-col", "income"])
    assert res.exit_code == 2
    assert "line 2" in res.output


def test_ingest_empty_file_exit_2(runner, tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    res = runner.invoke(main, ["measure", "-i", str(p), "--value-col", "income"])
    assert res.exit_code == 2
    assert "empty dataset" in res.output


def test_ingest_missing_column_exit_2(runner, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("g,income\na,1\n")
    res = runner.invoke(main, ["measure", "-i", str(p), "--value-col", "wage"])
    assert res.exit_code == 2


def test_ingest_missing_category_exit_2(runner, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("g,income\n,1\na,2\n")
    res = runner.invoke(main, ["measure", "-i", str(p), "--value-col", "income"])
    assert res.exit_code == 2


def test_decompose_infinite_exit_3(runner, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,income\nx,p,0\nx,q,1\ny,p,2\ny,q,3\n")
    res = runner.invoke(
        main,
        ["decompose", "-i", str(p), "--value-col", "income", "--attrs", "a,b", "--measure", "mld"],
    )
    assert res.exit_code == 3
    assert "Error: cumulative value of node [[a,b]] is infinite\n" in res.output


def test_decompose_keeps_a_tiny_share(runner, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("A,B,income\na,x,1e-13\nb,y,2\nb,z,1\nc,y,3\nc,z,1\nc,y,2\n")
    res = invoke(
        runner,
        ["decompose", "-i", str(p), "--value-col", "income", "--attrs", "A,B", "--measure", "mld"],
    )
    assert res.exit_code == 0
    assert isinstance(json.loads(res.output)["components"]["redundant"], float)


def test_decompose_child_does_not_import_numpy_ma():
    # np.unique imports numpy.ma, about 16 ms of every decompose process
    golden = Path(__file__).resolve().parent / "golden" / "population.csv"
    args = ["decompose", "-i", str(golden), "--value-col", "income", "--attrs", "tier,region,size"]
    code = (
        "import sys\n"
        "from ineqlab.cli import main\n"
        f"main({args!r}, standalone_mode=False)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.splitlines()[-1] == "False"


def test_unknown_measure_exit_2(runner, xor_file):
    res = runner.invoke(
        main, ["measure", "-i", xor_file, "--value-col", "income", "--measure", "gini"]
    )
    assert res.exit_code == 2
    assert "Error: unknown measure 'gini'\n" in res.output


@pytest.mark.parametrize(
    "measure, message",
    [(f"ge:{c}", f"GE parameter must be finite, got {c}") for c in ["nan", "inf", "-inf"]]
    + [(f"atkinson:{e}", f"atkinson requires a finite eps, got {e}") for e in ["nan", "inf"]],
)
@pytest.mark.parametrize(
    "command",
    [
        ["measure"],
        ["decompose", "--attrs", "region,industry"],
        ["subgroup", "--group-by", "region"],
    ],
)
def test_non_finite_measure_parameter_exit_2(runner, xor_file, command, measure, message):
    args = [command[0], "-i", xor_file, "--value-col", "income", "--measure", measure]
    res = runner.invoke(main, args + command[1:])
    assert res.exit_code == 2
    assert res.output.endswith(f"Error: {message}\n")


@pytest.mark.parametrize(
    "args, message",
    [
        (["measure", "--measure", "bogus"], "unknown measure 'bogus'"),
        (["decompose", "--attrs", "A,B", "--measure", "bogus"], "unknown measure 'bogus'"),
        (["shapley", "--attrs", "A,B", "--measure", "bogus"], "unknown measure 'bogus'"),
        (["subgroup", "--group-by", "A", "--measure", "bogus"], "unknown measure 'bogus'"),
        (["shapley", "--attrs", "A,B", "--measure", "atkinson:1"],
         "shapley requires an f-inequality measure"),
        (["subgroup", "--group-by", "A", "--measure", "atkinson:1"],
         "subgroup decomposition is defined for the GE family"),
        (["subgroup", "--group-by", "A", "--measure", "pietra"],
         "subgroup decomposition is defined for the GE family"),
        (["subgroup", "--group-by", "A", "--measure", "ge:2@p=0.5"],
         "subgroup decomposition requires p = 0"),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else "",
)
def test_measure_is_checked_before_the_file_is_read(runner, tmp_path, args, message):
    missing = str(tmp_path / "missing.csv")
    res = runner.invoke(main, [args[0], "-i", missing, "--value-col", "income", *args[1:]])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"Error: {message}\n"


# income is zero in both records of a = x: a grouping that separates them
# has an infinite between-group MLD and GE(-1)
ZERO_CELL_CSV = "income,a,b\n0,x,p\n0,x,q\n3,y,p\n5,y,q\n"


@pytest.mark.parametrize("measure", ["mld", "ge:-1"])
def test_shapley_of_an_infinite_game_exit_3(runner, tmp_path, measure):
    p = tmp_path / "d.csv"
    p.write_text(ZERO_CELL_CSV)
    args = ["shapley", "-i", str(p), "--value-col", "income", "--attrs", "a,b"]
    res = runner.invoke(main, [*args, "--measure", measure])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == "Error: value of coalition [a] is infinite\n"


def test_round_trip_determinism(runner, xor_file):
    args = [
        "decompose",
        "-i",
        xor_file,
        "--value-col",
        "income",
        "--attrs",
        "region,industry",
    ]
    outputs = {invoke(runner, args).output for _ in range(3)}
    assert len(outputs) == 1


def test_csv_format(runner, xor_file):
    res = invoke(
        runner,
        ["measure", "-i", xor_file, "--value-col", "income", "--format", "csv"],
    )
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "key,value"
    assert lines[1] == "measure,theil"


def test_precision_flag(runner, xor_file):
    res = invoke(
        runner,
        ["measure", "-i", xor_file, "--value-col", "income", "--precision", "2"],
    )
    assert json.loads(res.output)["value"] == 0.13


def test_rounding_gives_no_negative_zero():
    zero = _rounded(-1e-17, 6)
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0


@pytest.mark.parametrize(
    "args",
    [
        ["measure", "--measure", "mld"],
        ["measure", "--measure", "atkinson:0.5"],
        ["measure", "--measure", "ge:2@p=0.25"],
        ["decompose", "--measure", "atkinson:0.5", "--attrs", "A,B"],
        ["decompose", "--measure", "atkinson:0.5", "--attrs", "A,B,C"],
        ["decompose", "--measure", "theil", "--attrs", "A,B,C"],
        ["shapley", "--measure", "theil", "--attrs", "A,B,C"],
        ["subgroup", "--measure", "ge:2", "--group-by", "A"],
    ],
    ids=" ".join,
)
def test_near_uniform_incomes_give_no_negative_measure(runner, args):
    """Rounded, no value is negative or -0.0; at full precision, no measure
    (a value, total, cumulative, between or reconstruction) is negative,
    while a partial or a Shapley value may be."""
    base = [*args, "-i", NEAR_UNIFORM, "--value-col", "income"]
    for fmt in ("json", "csv"):
        res = invoke(runner, [*base, "--format", fmt])
        assert res.exit_code == 0, res.output
        assert "-" not in res.output
    res = invoke(runner, [*base, "--format", "csv", "--precision", "20"])
    measures = ("value", "total", "cumulative", "between", "reconstruction")
    rows = list(csv.reader(io.StringIO(res.output)))[1:]
    assert all(float(v) >= 0 for key, v in rows if key.rpartition(".")[2] in measures)


@pytest.mark.parametrize("command", ["decompose", "shapley", "lorenz"])
def test_repeated_attribute_exit_2(runner, xor_file, command):
    option = "--group-by" if command == "lorenz" else "--attrs"
    res = runner.invoke(
        main, [command, "-i", xor_file, "--value-col", "income", option, "region,region"]
    )
    assert res.exit_code == 2
    assert "'region' is repeated" in res.output


@pytest.mark.parametrize("command", ["measure", "lorenz"])
def test_negative_precision_exit_2(runner, xor_file, command):
    res = runner.invoke(
        main, [command, "-i", xor_file, "--value-col", "income", "--precision", "-1"]
    )
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "header, repeated", [("income,A,income", "income"), ("income,A,A", "A")]
)
def test_ingest_repeated_column_exit_2(runner, tmp_path, header, repeated):
    p = tmp_path / "d.csv"
    p.write_text(header + "\n1,a,2\n3,b,4\n")
    res = runner.invoke(main, ["measure", "-i", str(p), "--value-col", "income"])
    assert res.exit_code == 2
    assert f"header repeats column {repeated!r}" in res.output


def test_shapley_values_each_coalition_once(runner, monkeypatch):
    calls = []
    game_value = ineqlab.shapley.game_value

    def counted(pop, coalition, spec):
        calls.append(tuple(coalition))
        return game_value(pop, coalition, spec)

    monkeypatch.setattr(ineqlab.shapley, "game_value", counted)
    csv_path = Path(__file__).resolve().parent / "golden" / "population.csv"
    res = invoke(
        runner,
        ["shapley", "-i", str(csv_path), "--value-col", "income", "--attrs", "tier,region,size"],
    )
    assert res.exit_code == 0
    assert len(calls) == 7
    assert len(set(calls)) == 7


@pytest.mark.parametrize(
    "body, message",
    [
        ("a,1\nb,2,3\n", "line 3: expected 2 fields, got 3"),
        ("a,1\n\nb\n", "line 4: expected 2 fields, got 1"),
        ("a,1\nb,x\n", "line 3: cannot parse value 'x'"),
        ('a,1\n"b,c",1e400\n', "line 3: value must be non-negative and finite"),
        # lines of the file, not records: the quoted field spans lines 2 and 3
        ('"a\nb",1\nc,x\n', "line 4: cannot parse value 'x'"),
    ],
)
def test_ingest_line_errors_exit_2(runner, tmp_path, body, message):
    p = tmp_path / "d.csv"
    p.write_text("g,income\n" + body)
    res = runner.invoke(main, ["measure", "-i", str(p), "--value-col", "income"])
    assert res.exit_code == 2
    assert f"Error: {message}\n" in res.output


@pytest.mark.parametrize("quoted", [False, True], ids=["columns", "rows"])
@pytest.mark.parametrize(
    "args",
    [
        ["measure", "--measure", "theil"],
        ["decompose", "--measure", "theil", "--attrs", "tier,region"],
    ],
)
def test_utf8_bom_is_skipped(runner, tmp_path, args, quoted):
    text = (Path(__file__).resolve().parent / "golden" / "population.csv").read_text()
    if quoted:  # a quoted field sends its block to the row loop
        text = text.replace(",north,", ',"north",', 1)
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode())
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    outputs = [
        invoke(runner, [args[0], "-i", str(p), "--value-col", "income", *args[1:]])
        for p in (plain, bom)
    ]
    assert [r.exit_code for r in outputs] == [0, 0]
    assert outputs[0].output == outputs[1].output


def _no_row_loop():
    return mock.patch.object(cli, "_read_rows", side_effect=AssertionError("row loop"))


def test_unquoted_csv_is_read_by_columns():
    """Every block of the golden CSV is split on commas: none reaches the
    row loop."""
    text = (Path(__file__).resolve().parent / "golden" / "population.csv").read_text()
    with mock.patch.object(cli, "_BLOCK_CHARS", 1000), _no_row_loop():
        reading = _read(cli._read_csv, text, "income")
    assert _same_reading(reading, _read(_read_rows, text, "income"))


def test_field_size_limit_is_the_row_readers():
    """A field of the limit's length is split on commas; one longer sends
    its block to the row loop, which raises the csv reader's error with
    the field's line, unless an earlier row is invalid."""
    limit = csv.field_size_limit(8)
    try:
        text = "v,a\n" + "1,y\n" * 3 + f"2,{'x' * 8}\n"
        with _no_row_loop():
            reading = _read(cli._read_csv, text, "v")
        assert _same_reading(reading, _read(_read_rows, text, "v"))
        text = text.replace("x" * 8, "x" * 9)
        message = "line 5: field larger than field limit (8)"
        with pytest.raises(csv.Error) as exc:
            cli._read_csv(io.StringIO(text, newline=""), "v")
        assert str(exc.value) == message
        assert _read(_read_rows, text, "v") == message
        # a row before the long field's in the same block is rejected first
        text = text.replace("1,y\n", "x,y\n", 1)
        assert _read(cli._read_csv, text, "v") == "line 2: cannot parse value 'x'"
        assert _read(_read_rows, text, "v") == "line 2: cannot parse value 'x'"
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("first", ['"a",1\n', '"a\nb",1\n'], ids=["quoted", "spanning"])
def test_the_row_loop_reads_only_the_block_it_is_given(first):
    """One line a block: a quoted field sends its line alone to the row
    loop, and one that spans the block's end also the lines up to its
    end; every later line is split on commas."""
    text = "g,income\n" + first + "a,1\n" * 100
    row_counts = []
    read_rows = cli._read_rows

    def counted(*args):
        values, labels = read_rows(*args)
        row_counts.append(len(values))
        return values, labels

    with mock.patch.object(cli, "_BLOCK_CHARS", 1), mock.patch.object(cli, "_read_rows", counted):
        reading = _read(cli._read_csv, text, "income")
    assert row_counts == [1]
    assert _same_reading(reading, _read(_read_rows, text, "income"))


@pytest.mark.parametrize(
    "data, offset, line",
    # 0xff in the header line, and 0xff after the first 64 KB block of lines
    [
        (b"g\xff,income\na,1\n", 1, 1),
        (b"g,income\n" + b"a,1\n" * 20_000 + b"\xff,2\n", 80_009, 20_002),
    ],
    ids=["header", "later-block"],
)
def test_non_utf8_input_exit_2(runner, tmp_path, data, offset, line):
    p = tmp_path / "d.csv"
    # the offset counts the bytes of the file, a byte order mark included
    for bom in [b"", b"\xef\xbb\xbf"]:
        p.write_bytes(bom + data)
        res = runner.invoke(main, ["measure", "-i", str(p), "--value-col", "income"])
        assert res.exit_code == 2
        assert res.output.endswith(
            "Error: 'utf-8' codec can't decode byte 0xff in position "
            f"{len(bom) + offset}: invalid start byte (line {line})\n"
        )


def _whole_file_decode_error(raw: bytes) -> str:
    """The message `ingest` gives for a file of bytes `raw` that is not
    UTF-8, from the whole file decoded at once."""
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as whole:
        line = len((raw[: whole.start] + b".").splitlines())
        return f"{whole} (line {line})"
    raise AssertionError("the bytes are UTF-8")


@pytest.mark.parametrize(
    "data, block",
    [
        # a CR LF whose CR ends the first block, before the bad byte
        (b"g,income\r\na,1\r\n\xff,2\r\n", len(b"g,income\r")),
        # a bad byte after the first block, CR and lone-CR lines before it
        (b"g,income\ra,1\r\nb,2\n" * 5 + b"\xff,2\n", 8),
        # a two-byte sequence cut by the block's end, then a bad continuation
        (b"g,income\n\xc3\xa9,1\n\xe2\x82A,2\n", len(b"g,income\n\xc3")),
    ],
    ids=["crlf-across-blocks", "after-first-block", "sequence-across-blocks"],
)
def test_decode_error_is_read_block_by_block(runner, tmp_path, data, block):
    p = tmp_path / "d.csv"
    p.write_bytes(data)
    with mock.patch.object(cli, "_BLOCK_CHARS", block):
        res = runner.invoke(main, ["measure", "-i", str(p), "--value-col", "income"])
    assert res.exit_code == 2
    assert res.output.endswith(f"Error: {_whole_file_decode_error(data)}\n")


PIECES = [b"a", b",", b"\n", b"\r", b"\r\n", "\u00e9".encode(), "\u20ac".encode(),
          "\U0001f600".encode(), b"\xff", b"\x80", b"\xe2", b"\xe2\x82", b"\xf0\x9f",
          b"\xc0\xaf", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=30), st.sampled_from([1, 2, 3, 5, 64]))
def test_decode_error_matches_the_whole_file_decode(tmp_path_factory, pieces, block):
    """Bytes in blocks of any size give the message of the whole file
    decoded at once: the first bad sequence's offset, bytes and reason, and
    its line, with LF, CR LF and lone CR breaks, a CR LF or a sequence cut
    by a block's end, and a sequence the file's end cuts short."""
    raw = b"".join(pieces)
    try:
        raw.decode("utf-8")
        return
    except UnicodeDecodeError:
        pass
    p = tmp_path_factory.mktemp("decode") / "d.csv"
    p.write_bytes(raw)
    with mock.patch.object(cli, "_BLOCK_CHARS", block):
        assert cli._decode_error(str(p), None) == _whole_file_decode_error(raw)


COMMANDS_AND_ATTRIBUTES = [
    (["measure"], []),
    (["lorenz"], []),
    (["lorenz", "--group-by", "C, A"], ["A", "C"]),
    (["decompose", "--attrs", "B,A"], ["A", "B"]),
    (["shapley", "--attrs", "C,A,B"], ["A", "B", "C"]),
    (["subgroup", "--group-by", "B", "--measure", "theil"], ["B"]),
]


@pytest.mark.parametrize("args, encoded", COMMANDS_AND_ATTRIBUTES,
                         ids=[" ".join(a) for a, _ in COMMANDS_AND_ATTRIBUTES])
def test_ingest_encodes_only_the_attributes_a_command_uses(runner, tmp_path, args, encoded):
    p = tmp_path / "d.csv"
    p.write_text("A,income,B,C\na,1,x,p\nb,2,y,q\na,3,y,p\nb,0,x,q\n")
    datasets = []
    ingest = cli.ingest

    def recorded(*a):
        datasets.append(ingest(*a))
        return datasets[-1]

    with mock.patch.object(cli, "ingest", recorded):
        res = invoke(runner, [args[0], "-i", str(p), "--value-col", "income", *args[1:]])
    assert res.exit_code == 0
    assert [list(d.attribute_names) for d in datasets] == [encoded]
    with open(p, newline="") as fh:
        every = Dataset(*cli._read_csv(fh, "income"))
    for name in encoded:
        assert datasets[0].attributes[name].tolist() == every.attributes[name].tolist()


@pytest.mark.parametrize("args", [a for a, _ in COMMANDS_AND_ATTRIBUTES],
                         ids=[" ".join(a) for a, _ in COMMANDS_AND_ATTRIBUTES])
@pytest.mark.parametrize(
    "row, message",
    [
        ("b,2,y,", "line 3: missing category for attribute 'C'"),
        ("b,2,y", "line 3: expected 4 fields, got 3"),
        ('"b",2,"y",""', "line 3: missing category for attribute 'C'"),
    ],
    ids=["empty", "short", "quoted-empty"],
)
def test_columns_a_command_does_not_use_are_still_checked(runner, tmp_path, args, row, message):
    p = tmp_path / "d.csv"
    p.write_text(f"A,income,B,C\na,1,x,p\n{row}\na,3,y,p\n")
    res = runner.invoke(main, [args[0], "-i", str(p), "--value-col", "income", *args[1:]])
    assert res.exit_code == 2
    assert res.output.endswith(f"Error: {message}\n")


@pytest.mark.parametrize(
    "args",
    [
        ["lorenz", "--group-by", "A,Z"],
        ["decompose", "--attrs", "A,Z"],
        ["decompose", "--attrs", "A,income"],
        ["shapley", "--attrs", "Z"],
        ["subgroup", "--group-by", "Z"],
    ],
)
def test_a_name_that_is_not_an_attribute_exit_2(runner, tmp_path, args):
    p = tmp_path / "d.csv"
    p.write_text("A,income,B\na,1,x\nb,2,y\n")
    res = runner.invoke(main, [args[0], "-i", str(p), "--value-col", "income", *args[1:]])
    assert res.exit_code == 2
    name = args[-1].split(",")[-1]
    assert res.output.endswith(f"Error: unknown attribute {name!r}\n")


def test_field_over_the_size_limit_exit_2(runner, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("g,income\n" + "a,1\n" * 3 + f"{'x' * 9},2\n")
    h = tmp_path / "h.csv"
    h.write_text(f"{'x' * 9},income\na,1\n")
    limit = csv.field_size_limit(8)
    try:
        res = runner.invoke(main, ["measure", "-i", str(p), "--value-col", "income"])
        in_header = runner.invoke(main, ["measure", "-i", str(h), "--value-col", "income"])
    finally:
        csv.field_size_limit(limit)
    assert res.exit_code == in_header.exit_code == 2
    assert "Error: line 5: field larger than field limit (8)\n" in res.output
    assert in_header.stderr == "Error: line 1: field larger than field limit (8)\n"


# -- the block reader against the whole-file row reader ---------------------------

# The row reader `ingest` used for a whole file before it read each file by
# blocks, kept verbatim as the oracle of the block reader.


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


VALUES = ["1", "0", "2.5", "1e3", "0.1", "-0"]
CATEGORIES = ["x", "y", "zz"]
# at most two per text, so that many texts have one odd feature alone
ODD = (
    [("plain",), ("quoted",), ("crlf",)]
    + [("row", kind) for kind in ["short", "long", "blank", "commas", "spaces", "open"]]
    + [("v", v) for v in ["1_000", " 1.5", "nan", "inf", "1e400", "0x10", "", " ", "-1", "2\r\n"]]
    + [("category", c) for c in ["", " ", "a,b", 'q"r', "a\nb", "a\rb", "a\r\nb"]]
)


def _field(text, quote):
    if quote or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def csv_texts(draw):
    """CSV texts with a header `v` plus 0-3 attributes, and the field size
    limit to read them under."""
    odd = draw(st.sets(st.sampled_from(ODD), min_size=1, max_size=2))
    names = draw(st.permutations(["v"] + ["a", "b", "c"][: draw(st.integers(0, 3))]))
    k = len(names)
    odd_kinds = [f[1] for f in odd if f[0] == "row"]
    odd_values = [f[1] for f in odd if f[0] == "v"]
    odd_categories = [f[1] for f in odd if f[0] == "category"]
    quote = st.booleans() if ("quoted",) in odd else st.just(False)

    def field(name):
        odd_cells = odd_values if name == "v" else odd_categories
        if odd_cells and draw(st.booleans()):
            text = draw(st.sampled_from(odd_cells))
        else:
            text = draw(st.sampled_from(VALUES if name == "v" else CATEGORIES))
        return _field(text, draw(quote))

    lines = [",".join(_field(n, draw(quote)) for n in names)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 2 + odd_kinds))
        if kind == "blank":
            lines.append("")
        elif kind == "commas":
            lines.append("," * draw(st.integers(1, 3)))
        elif kind == "spaces":
            lines.append(" " * draw(st.integers(1, 3)))
        else:
            fields = [field(n) for n in names]
            if kind == "short" and k > 1:
                fields.pop()
            elif kind == "long":
                fields.append("x")
            elif kind == "open":  # a quote that a later one, or no other, closes
                fields[-1] = '"' + fields[-1]
            lines.append(",".join(fields))
    # CRLF, or a mix of CRLF and LF
    end = st.sampled_from(["\r\n", "\n"]) if ("crlf",) in odd else st.just("\n")
    text = "".join(line + draw(end) for line in lines)
    text = text if draw(st.booleans()) else text.removesuffix("\n").removesuffix("\r")
    # in a third of the texts, a field size limit that "1_000" and "1e400" exceed
    return text, draw(st.sampled_from([csv.field_size_limit()] * 2 + [4]))


def _read(reader, text, value_col="v"):
    """The reading, or the message of the InputError or csv.Error raised."""
    try:
        return reader(io.StringIO(text, newline=""), value_col)
    except (InputError, csv.Error) as exc:
        return str(exc)


def _same_reading(reading, rows):
    """The block reader's reading has the row reader's values, bit for bit,
    and names, and per attribute the levels and codes that a Dataset gives
    the row reader's labels, as a list of strictly increasing strings and
    read-only codes; or both raised the same message."""
    if isinstance(reading, str) or isinstance(rows, str):
        return reading == rows
    (vc, encoded, nc), (vr, attrs, nr) = reading, rows
    if np.asarray(vc, dtype=float).tobytes() != np.asarray(vr, dtype=float).tobytes():
        return False
    if list(nc) != list(nr) or list(encoded) != list(attrs):
        return False
    for name in nr:
        levels, codes = encoded[name]
        if type(levels) is not list or not all(isinstance(level, str) for level in levels):
            return False
        if any(a >= b for a, b in zip(levels, levels[1:])) or codes.flags.writeable:
            return False
        if vr:
            expected = Dataset(np.ones(len(vr)), {name: attrs[name]})._encode(name)
        else:
            expected = ([], np.empty(0, np.uint8))
        if list(levels) != list(expected[0]) or codes.dtype != expected[1].dtype:
            return False
        if not np.array_equal(codes, expected[1]):
            return False
        if np.array(levels, dtype=object)[codes].tolist() != attrs[name]:
            return False
    return True


@settings(max_examples=500, deadline=None)
@given(csv_texts(), st.sampled_from([1, 8, 64, 1 << 16]))
def test_columnar_reader_agrees_with_row_reader(text_and_limit, block_chars):
    """Block by block, with quoted fields that span lines and blocks, the
    block reader reads what the whole-file row reader reads, or raises the
    same InputError or csv.Error message."""
    text, limit = text_and_limit
    limit = csv.field_size_limit(limit)
    try:
        with mock.patch.object(cli, "_BLOCK_CHARS", block_chars):
            reading = _read(cli._read_csv, text)
        rows = _read(_read_rows, text)
    finally:
        csv.field_size_limit(limit)
    assert _same_reading(reading, rows)
