"""Byte-exact CLI output on a committed 2,000-row CSV.

The CSV is seeded and zero-free, with three attributes whose string order
differs from their numeric order ("10" sorts before "9"). Each command's
output is compared byte for byte with a committed golden file, so any
change in grouping order, rounding or formatting shows here.

Regenerate the CSV and every golden file (only when an output change is
intended) with:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from ineqlab import cli
from ineqlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CSV = GOLDEN / "population.csv"
ALL3 = "tier,region,size"

COMMANDS = {
    "measure_theil": ["measure", "--measure", "theil"],
    "measure_atkinson": ["measure", "--measure", "atkinson:0.5"],
    "lorenz": ["lorenz"],
    "lorenz_grouped": ["lorenz", "--group-by", ALL3],
    "decompose_theil": ["decompose", "--measure", "theil", "--attrs", ALL3],
    "decompose_theil_pair": ["decompose", "--measure", "theil", "--attrs", "tier,size"],
    "decompose_theil_pair_csv": [
        "decompose", "--measure", "theil", "--attrs", "tier,size", "--format", "csv"
    ],
    "decompose_atkinson": ["decompose", "--measure", "atkinson:0.5", "--attrs", "tier,region"],
    "shapley": ["shapley", "--measure", "theil", "--attrs", ALL3],
    "shapley_csv": ["shapley", "--measure", "theil", "--attrs", ALL3, "--format", "csv"],
    "subgroup": ["subgroup", "--measure", "ge:2", "--group-by", "tier"],
    "subgroup_csv": ["subgroup", "--measure", "mld", "--group-by", "size", "--format", "csv"],
}


def write_csv(path: Path, rows: int = 2000, seed: int = 20261018) -> None:
    """Lognormal incomes with main effects per level and a tier x region interaction."""
    rng = np.random.default_rng(seed)
    tiers = ["2", "9", "10", "30"]
    regions = ["north", "south", "east", "west", "centre"]
    sizes = ["1", "5", "12", "100"]
    t = rng.integers(0, len(tiers), rows)
    r = rng.integers(0, len(regions), rows)
    s = rng.integers(0, len(sizes), rows)
    log_income = (
        0.3 * t
        + np.array([0.0, 0.2, -0.1, 0.4, 0.1])[r]
        + 0.15 * s
        + 0.25 * ((t + r) % 2)
        + 0.6 * rng.standard_normal(rows)
    )
    income = np.round(np.exp(log_income) * 1000.0, 2)
    lines = ["income,tier,region,size"]
    lines += [
        f"{v!r},{tiers[a]},{regions[b]},{sizes[c]}" for v, a, b, c in zip(income.tolist(), t, r, s)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def arguments(name: str) -> list[str]:
    """The command line of a golden file, after the program's name."""
    return COMMANDS[name] + ["-i", str(CSV), "--value-col", "income", "--precision", "17"]


def run(name: str) -> str:
    res = CliRunner().invoke(main, arguments(name), catch_exceptions=False)
    assert res.exit_code == 0, res.output
    return res.output


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name):
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert run(name) == expected


def test_csv_golden_output_in_its_own_process():
    """The CliRunner output above reads a CR LF as LF; the program's own
    stdout must hold the golden bytes. CI runs every golden command so."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "ineqlab.cli", *arguments("subgroup_csv")]
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(argv, env=env, capture_output=True, check=True).stdout
    assert out == (GOLDEN / "subgroup_csv.out").read_bytes()


def test_golden_csv_is_zero_free_with_string_ordered_levels():
    rows = CSV.read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 2000
    assert all(float(r.split(",")[0]) > 0 for r in rows)
    assert {r.split(",")[1] for r in rows} == {"2", "9", "10", "30"}


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    write_csv(CSV)
    for cmd in COMMANDS:
        (GOLDEN / f"{cmd}.out").write_text(run(cmd), encoding="utf-8")
    sys.stdout.write(f"wrote {CSV} and {len(COMMANDS)} golden files\n")
