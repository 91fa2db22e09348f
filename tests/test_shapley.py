"""Shapley values and game synergy of the grouped-inequality game."""

import math
import re

import pytest

from ineqlab import (
    Dataset,
    InfiniteMeasure,
    MeasureSpec,
    TooManyAttributes,
    decompose,
    game_synergy,
    game_value,
    ge,
    mld,
    shapley_values,
    theil,
)
from conftest import random_dataset

THEIL_13 = 0.13081203594113697
PHI = 0.065406

SPEC = MeasureSpec(theil())


def test_game_value_empty_coalition(d_xor):
    assert game_value(d_xor, (), SPEC) == 0.0


def test_game_values_xor_and_red(d_xor, d_red):
    assert game_value(d_xor, ("A",), SPEC) == pytest.approx(0.0, abs=1e-12)
    assert game_value(d_xor, ("B",), SPEC) == pytest.approx(0.0, abs=1e-12)
    assert game_value(d_xor, ("A", "B"), SPEC) == pytest.approx(THEIL_13)
    for coalition in (("A",), ("B",), ("A", "B")):
        assert game_value(d_red, coalition, SPEC) == pytest.approx(THEIL_13)


def test_shapley_xor_and_red(d_xor, d_red):
    for d in (d_xor, d_red):
        phi = shapley_values(d, ["A", "B"], SPEC)
        assert phi["A"] == pytest.approx(PHI, abs=1e-6)
        assert phi["B"] == pytest.approx(PHI, abs=1e-6)


def test_shapley_single_attribute(d_red):
    phi = shapley_values(d_red, ["A"], SPEC)
    assert phi["A"] == pytest.approx(game_value(d_red, ("A",), SPEC))


def test_shapley_rejects_too_many_players():
    d = Dataset([1, 2], {chr(65 + i): ["x", "y"] for i in range(11)})
    with pytest.raises(TooManyAttributes):
        shapley_values(d, list(d.attribute_names), SPEC)


def test_game_synergy_signs(d_xor, d_red):
    assert game_synergy(d_xor, "A", "B", SPEC) == pytest.approx(THEIL_13)
    assert game_synergy(d_red, "A", "B", SPEC) == pytest.approx(-THEIL_13)


def test_game_synergy_requires_two_attributes(d_xor):
    with pytest.raises(ValueError, match="two distinct attributes"):
        game_synergy(d_xor, "A", "A", SPEC)


def _zero_cell(incomes):
    return Dataset(incomes, {"a": ["x", "x", "y", "y"], "b": ["p", "q", "p", "q"]}, ["a", "b"])


@pytest.mark.parametrize("spec", [MeasureSpec(mld()), MeasureSpec(ge(-1))], ids=["mld", "ge:-1"])
@pytest.mark.parametrize(
    "incomes, coalition",
    [([0, 0, 3, 5], "[a]"), ([0, 1, 2, 3], "[a,b]")],
    ids=["a-and-pair", "pair-only"],
)
def test_an_infinite_coalition_raises(spec, incomes, coalition):
    """The error names the infinite coalition of the fewest attributes, not
    the grand coalition the values start from; with one record of zero
    income only the grand coalition is infinite."""
    d = _zero_cell(incomes)
    message = re.escape(f"value of coalition {coalition} is infinite") + "$"
    with pytest.raises(InfiniteMeasure, match=message):
        shapley_values(d, ["a", "b"], spec)
    with pytest.raises(InfiniteMeasure, match=message):
        game_synergy(d, "a", "b", spec)


def test_theil_with_a_zero_income_cell_stays_finite():
    d = _zero_cell([0, 0, 3, 5])
    phi = shapley_values(d, ["a", "b"], SPEC)
    assert all(math.isfinite(v) for v in phi.values())
    assert math.isfinite(game_synergy(d, "a", "b", SPEC))


def test_game_synergy_independent_attributes():
    d = Dataset(
        [1, 3, 1, 3],
        {"A": ["a1", "a2", "a1", "a2"], "B": ["k", "k", "k", "k"]},
        ["A", "B"],
    )
    assert game_synergy(d, "A", "B", SPEC) == pytest.approx(0.0, abs=1e-12)


def test_efficiency_on_random_datasets(rng):
    for _ in range(30):
        d = random_dataset(rng, n_attrs=3, max_n=50, max_cats=3)
        phi = shapley_values(d, ["A", "B", "C"], SPEC)
        total = game_value(d, ("A", "B", "C"), SPEC)
        assert sum(phi.values()) == pytest.approx(total, abs=1e-10)


def test_symmetry_under_attribute_swap(rng):
    for _ in range(20):
        d = random_dataset(rng, n_attrs=2, max_n=40)
        swapped = Dataset(
            d.indicators,
            {"A": d.attributes["B"], "B": d.attributes["A"]},
            ["A", "B"],
        )
        phi = shapley_values(d, ["A", "B"], SPEC)
        phi_swapped = shapley_values(swapped, ["A", "B"], SPEC)
        assert phi["A"] == pytest.approx(phi_swapped["B"], abs=1e-12)
        assert phi["B"] == pytest.approx(phi_swapped["A"], abs=1e-12)


def test_monotone_game(rng):
    for _ in range(20):
        d = random_dataset(rng, n_attrs=3, max_n=50, max_cats=3)
        va = game_value(d, ("A",), SPEC)
        vab = game_value(d, ("A", "B"), SPEC)
        vabc = game_value(d, ("A", "B", "C"), SPEC)
        assert va <= vab + 1e-12
        assert vab <= vabc + 1e-12


def test_indistinguishability_vs_decomposition(d_xor, d_red):
    # Shapley cannot separate the two datasets; the lattice decomposition can.
    phi_xor = shapley_values(d_xor, ["A", "B"], SPEC)
    phi_red = shapley_values(d_red, ["A", "B"], SPEC)
    assert phi_xor["A"] == pytest.approx(phi_red["A"], abs=1e-12)
    assert phi_xor["B"] == pytest.approx(phi_red["B"], abs=1e-12)
    named_xor = decompose(d_xor, ["A", "B"], SPEC).named("A", "B")
    named_red = decompose(d_red, ["A", "B"], SPEC).named("A", "B")
    assert named_xor["synergetic"] == pytest.approx(THEIL_13)
    assert named_red["redundant"] == pytest.approx(THEIL_13)
