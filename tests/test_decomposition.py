"""Redundancy lattice, Moebius inversion and subgroup baseline."""

import pytest

from ineqlab import (
    Dataset,
    InfiniteMeasure,
    InvalidMeasure,
    LatticeNode,
    MeasureSpec,
    TooManyAttributes,
    atkinson,
    atkinson_decompose,
    cumulative,
    decompose,
    mld,
    redundancy_lattice,
    subgroup_decompose,
    theil,
)
from conftest import random_dataset

THEIL_13 = 0.13081203594113697
ATK1_13 = 0.1339745962155613  # 1 - exp(-MLD({1,3}))

SPEC = MeasureSpec(theil())


def test_lattice_two_attributes():
    nodes, covers = redundancy_lattice(["A", "B"])
    labels = [n.label() for n in nodes]
    assert labels == ["[[A],[B]]", "[[A]]", "[[B]]", "[[A,B]]"]
    got = {(a.label(), b.label()) for a, b in covers}
    assert got == {
        ("[[A],[B]]", "[[A]]"),
        ("[[A],[B]]", "[[B]]"),
        ("[[A]]", "[[A,B]]"),
        ("[[B]]", "[[A,B]]"),
    }


def test_lattice_three_attributes():
    nodes, covers = redundancy_lattice(["A", "B", "C"])
    assert len(nodes) == 18
    # brute-force antichain count oracle
    from itertools import combinations

    subsets = [frozenset(c) for r in (1, 2, 3) for c in combinations("ABC", r)]
    count = 0
    for r in range(1, len(subsets) + 1):
        for combo in combinations(subsets, r):
            if not any(a < b or b < a for a, b in combinations(combo, 2)):
                count += 1
    assert count == 18
    assert nodes[0].label() == "[[A],[B],[C]]"
    assert nodes[-1].label() == "[[A,B,C]]"


def test_lattice_rejects_bad_sizes():
    with pytest.raises(TooManyAttributes):
        redundancy_lattice(["A"])
    with pytest.raises(TooManyAttributes):
        redundancy_lattice(["A", "B", "C", "D"])


def test_cumulative_values(d_xor, d_red):
    joint = LatticeNode.of(("A", "B"))
    both = LatticeNode.of(("A",), ("B",))
    assert cumulative(joint, d_xor, SPEC) == pytest.approx(THEIL_13)
    assert cumulative(both, d_xor, SPEC) == pytest.approx(0.0, abs=1e-12)
    assert cumulative(both, d_red, SPEC) == pytest.approx(THEIL_13)


def test_decompose_xor_all_synergy(d_xor):
    res = decompose(d_xor, ["A", "B"], SPEC)
    named = res.named("A", "B")
    assert named["redundant"] == pytest.approx(0.0, abs=1e-12)
    assert named["unique_A"] == pytest.approx(0.0, abs=1e-12)
    assert named["unique_B"] == pytest.approx(0.0, abs=1e-12)
    assert named["synergetic"] == pytest.approx(res.total, abs=1e-12)
    assert res.total == pytest.approx(THEIL_13)


def test_decompose_red_all_redundant(d_red):
    named = decompose(d_red, ["A", "B"], SPEC).named("A", "B")
    assert named["redundant"] == pytest.approx(THEIL_13, abs=1e-12)
    assert named["unique_A"] == named["unique_B"] == pytest.approx(0.0, abs=1e-12)
    assert named["synergetic"] == pytest.approx(0.0, abs=1e-12)


def test_decompose_unique_case():
    d = Dataset([1, 3], {"A": ["a1", "a2"], "B": ["k", "k"]}, ["A", "B"])
    named = decompose(d, ["A", "B"], SPEC).named("A", "B")
    assert named["unique_A"] == pytest.approx(THEIL_13)
    assert named["redundant"] == named["unique_B"] == pytest.approx(0.0, abs=1e-12)
    assert named["synergetic"] == pytest.approx(0.0, abs=1e-12)


def test_decompose_consistency(rng):
    for _ in range(100):
        d = random_dataset(rng, n_attrs=2, max_n=60)
        res = decompose(d, ["A", "B"], SPEC)
        named = res.named("A", "B")
        r = named["redundant"]
        assert r + named["unique_A"] == pytest.approx(
            res.cumulative(LatticeNode.of(("A",))), abs=1e-10
        )
        assert r + named["unique_B"] == pytest.approx(
            res.cumulative(LatticeNode.of(("B",))), abs=1e-10
        )
        assert sum(p for _, _, p in res.nodes) == pytest.approx(res.total, abs=1e-10)


def test_decompose_three_attributes_sums(rng):
    for _ in range(20):
        d = random_dataset(rng, n_attrs=3, max_n=60, max_cats=3)
        res = decompose(d, ["A", "B", "C"], SPEC)
        assert sum(p for _, _, p in res.nodes) == pytest.approx(res.total, abs=1e-10)


def test_decompose_infinite_aborts():
    d = Dataset([0, 1, 2, 3], {"A": list("xxyy"), "B": list("pqpq")}, ["A", "B"])
    with pytest.raises(InfiniteMeasure):
        decompose(d, ["A", "B"], MeasureSpec(mld()))


def test_atkinson_decompose_red(d_red):
    res = atkinson_decompose(d_red, ["A", "B"], 1.0)
    named = res.named("A", "B")
    assert named["redundant"] == pytest.approx(ATK1_13)
    assert named["unique_A"] == named["unique_B"] == pytest.approx(0.0, abs=1e-12)
    assert named["synergetic"] == pytest.approx(0.0, abs=1e-12)
    assert res.total == pytest.approx(atkinson(Dataset.from_values([1, 3]), 1.0))


def test_atkinson_decompose_xor(d_xor):
    named = atkinson_decompose(d_xor, ["A", "B"], 1.0).named("A", "B")
    assert named["synergetic"] == pytest.approx(ATK1_13)
    assert named["redundant"] == pytest.approx(0.0, abs=1e-12)


def test_atkinson_decompose_uniform():
    d = Dataset([2, 2, 2, 2], {"A": list("xxyy"), "B": list("pqpq")}, ["A", "B"])
    for eps in (0.5, 1.0, 2.0):
        res = atkinson_decompose(d, ["A", "B"], eps)
        for _, cum, part in res.nodes:
            assert cum == pytest.approx(0.0, abs=1e-12)
            assert part == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0])
def test_atkinson_decompose_rejects_eps(d_xor, eps):
    with pytest.raises(InvalidMeasure):
        atkinson_decompose(d_xor, ["A", "B"], eps)


def test_subgroup_worked_example():
    d = Dataset([1, 3, 2, 6], {"region": ["r1", "r1", "r2", "r2"]}, ["region"])
    res = subgroup_decompose(d, "region", 1.0)
    assert res.between == pytest.approx(0.056633, abs=1e-5)
    assert res.reconstruction == pytest.approx(0.187445, abs=1e-5)
    assert res.reconstruction == pytest.approx(res.total, abs=1e-10)
    weights = {key: w for key, w, _ in res.within}
    assert weights[("r1",)] == pytest.approx(1 / 3)
    assert weights[("r2",)] == pytest.approx(2 / 3)


def test_subgroup_single_group():
    d = Dataset([1, 3], {"g": ["x", "x"]}, ["g"])
    res = subgroup_decompose(d, "g", 1.0)
    assert res.between == pytest.approx(0.0, abs=1e-12)
    assert res.reconstruction == pytest.approx(res.total, abs=1e-12)


def test_subgroup_singleton_groups():
    d = Dataset([1, 3, 5], {"g": ["x", "y", "z"]}, ["g"])
    res = subgroup_decompose(d, "g", 2.0)
    assert res.between == pytest.approx(res.total, abs=1e-12)
    for _, _, v in res.within:
        assert v == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 2.0])
def test_subgroup_reconstruction_random(rng, c):
    for _ in range(50):
        d = random_dataset(rng, n_attrs=1, max_n=80)
        res = subgroup_decompose(d, "A", c)
        assert res.reconstruction == pytest.approx(res.total, abs=1e-10)


def test_decompose_scale_invariance(rng):
    for _ in range(30):
        d = random_dataset(rng, n_attrs=2, max_n=40)
        a = decompose(d, ["A", "B"], SPEC)
        b = decompose(d.scaled(7.3), ["A", "B"], SPEC)
        for (n1, c1, p1), (n2, c2, p2) in zip(a.nodes, b.nodes):
            assert n1 == n2
            assert c1 == pytest.approx(c2, abs=1e-12)
            assert p1 == pytest.approx(p2, abs=1e-12)
