"""Quick tests of the benchmark itself: `python -m pytest perfbench -q`.

Every workload runs end to end at a tiny size, traced and untraced, and
each check rejects a wrong answer.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ["grouped-200k", "many-small", "cli-csv"])
def test_workload_runs_and_checks_pass(workload, trace):
    result = run.run(workload, seed=3, seconds=0.2, trace=trace, small=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(run.OPS) and result["attempted"] % len(run.OPS) == 0
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(names)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.fixture(scope="module")
def program_outputs():
    """Reference and the program's output of every operation on one population."""
    pop = inputs.draw_population(np.random.default_rng(7), 400, (3, 4, 2))
    lib = run.Library([pop])
    lib.set_up()
    return lib.refs[0], {op: lib.run(op)[1][0] for op in run.OPS}


def test_checks_accept_the_program(program_outputs):
    ref, outs = program_outputs
    for op, out in outs.items():
        run.CHECKS[op](ref, out)


def _perturbed_partial(out):
    nodes, total = out
    (sources, cum, part), *rest = nodes
    return [(sources, cum, part + 1e-6), *rest], total


def _chain_without_a_vertex(vertices):
    return np.delete(vertices, len(vertices) // 2, axis=0)


def _inefficient_shapley(out):
    phi, synergy = out
    return {a: 1.01 * v for a, v in phi.items()}, synergy


def _broken_reconstruction(out):
    between, within, recon, total = out
    return between, within, recon * (1 + 1e-6), total


@pytest.mark.parametrize("op, spoil, reason", [
    ("decompose", _perturbed_partial, "sum of partials"),
    ("lorenz", _chain_without_a_vertex, "chain"),
    ("shapley", _inefficient_shapley, "efficiency"),
    ("subgroup", _broken_reconstruction, "reconstruction"),
    ("measure", lambda out: {**out, "theil": out["theil"] * (1 + 1e-6)}, "measure theil"),
])
def test_checks_reject_a_wrong_answer(program_outputs, op, spoil, reason):
    ref, outs = program_outputs
    with pytest.raises(checks.CheckFailed, match=reason):
        run.CHECKS[op](ref, spoil(outs[op]))


def test_lattice_matches_the_redundancy_lattice():
    two, three = checks.lattice(("A", "B")), checks.lattice(("A", "B", "C"))
    assert (len(two), len(three)) == (4, 18)  # Dedekind numbers minus 2
    bottom = frozenset(frozenset(a) for a in "ABC")
    assert three[bottom] == 0
    assert two[frozenset([frozenset("AB")])] == 2  # synergy covers both unique nodes


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "many-small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
