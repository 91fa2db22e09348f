"""CLI commands: ingestion, output formats, schemas, exit codes."""

import json
import logging
from importlib import resources

import pytest
from click.testing import CliRunner
from jsonschema import validate

from ineqlab.cli import main

XOR_CSV = "region,industry,income\nr1,i1,1\nr1,i2,3\nr2,i1,3\nr2,i2,1\n"
UNIFORM_CSV = "g,income\na,2\nb,2\nc,2\n"


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
    assert payload["within"][0] == {"group": "r1", "weight": "inf", "value": 0.0}


def test_logging_off_leaves_other_loggers_alone(runner, xor_file, monkeypatch):
    monkeypatch.delenv("INEQLAB_LOG", raising=False)
    invoke(runner, ["measure", "-i", xor_file, "--value-col", "income"])
    assert logging.root.manager.disable == 0
    assert not logging.getLogger("ineqlab").isEnabledFor(logging.CRITICAL)
    assert logging.getLogger("elsewhere").isEnabledFor(logging.WARNING)


def test_logging_info_reaches_handlers(runner, xor_file, monkeypatch, caplog):
    monkeypatch.setenv("INEQLAB_LOG", "info")
    with caplog.at_level(logging.INFO, logger="ineqlab"):
        invoke(runner, ["measure", "-i", xor_file, "--value-col", "income"])
    assert "measure theil" in caplog.text


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


def test_unknown_measure_exit_2(runner, xor_file):
    res = runner.invoke(
        main, ["measure", "-i", xor_file, "--value-col", "income", "--measure", "gini"]
    )
    assert res.exit_code == 2


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


@pytest.mark.parametrize("command", ["decompose", "shapley"])
def test_repeated_attribute_exit_2(runner, xor_file, command):
    res = runner.invoke(
        main, [command, "-i", xor_file, "--value-col", "income", "--attrs", "region,region"]
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
