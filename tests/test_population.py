"""Population matrices, grouping and their invariances."""

import numpy as np
import pytest

from ineqlab import (
    Dataset,
    DegeneratePopulation,
    EmptyPopulation,
    NegativeComponent,
    Record,
    UnknownAttribute,
    WeightedColumns,
    bottom,
    canonical_chain,
    group_by,
    order,
    OrderRelation,
    population_matrix,
)
from conftest import random_dataset


def test_population_matrix_hand_example():
    cols = population_matrix(Dataset.from_values([1, 3]))
    assert cols.pairs() == [(0.5, 0.25), (0.5, 0.75)]


def test_population_matrix_uniform():
    for c, n in [(1.0, 3), (7.5, 5)]:
        cols = population_matrix(Dataset.from_values([c] * n))
        np.testing.assert_allclose(cols.weights, 1 / n)
        np.testing.assert_allclose(cols.shares, 1 / n)


def test_population_matrix_scale_invariant():
    a = population_matrix(Dataset.from_values([1, 3]))
    b = population_matrix(Dataset.from_values([2, 6]))
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.shares, b.shares)


def test_population_errors():
    with pytest.raises(EmptyPopulation):
        Dataset([])
    with pytest.raises(DegeneratePopulation):
        Dataset([0, 0, 0])
    with pytest.raises(NegativeComponent):
        Dataset([1, -2])
    with pytest.raises(NegativeComponent):
        Dataset([1, float("nan")])


def test_zero_indicators_are_retained():
    cols = population_matrix(Dataset.from_values([0, 2]))
    assert cols.pairs() == [(0.5, 0.0), (0.5, 1.0)]


def test_from_records():
    d = Dataset.from_records(
        [Record(1, {"region": "r1"}), Record(3, {"region": "r2"})]
    )
    assert d.attribute_names == ("region",)
    assert len(d) == 2


def test_group_by_xor_marginal(d_xor):
    cols, groups = group_by(d_xor, {"A"})
    assert cols.pairs() == [(0.5, 0.5), (0.5, 0.5)]
    assert [k for k, _ in groups] == [("a1",), ("a2",)]
    assert sorted(groups[0][1].indicators.tolist()) == [1, 3]


def test_group_by_xor_joint(d_xor):
    cols, groups = group_by(d_xor, {"A", "B"})
    assert cols.pairs() == [
        (0.25, 0.125),
        (0.25, 0.375),
        (0.25, 0.375),
        (0.25, 0.125),
    ]
    assert groups[0][0] == ("a1", "b1")


def test_group_by_empty_is_bottom(d_xor):
    cols, groups = group_by(d_xor, set())
    assert cols.pairs() == bottom().pairs() == [(1.0, 1.0)]
    assert len(groups) == 1


def test_group_by_unknown_attribute(d_xor):
    with pytest.raises(UnknownAttribute):
        group_by(d_xor, {"C"})


def test_group_by_integer_levels_in_string_order():
    d = Dataset([1, 2, 3, 4], {"age": [9, 10, 9, 2]}, ["age"])
    cols, groups = group_by(d, {"age"})
    assert [k for k, _ in groups] == [("10",), ("2",), ("9",)]
    assert cols.pairs() == [(0.25, 0.2), (0.25, 0.4), (0.5, 0.4)]


def test_attribute_columns_are_read_only_copies():
    labels = np.array(["a", "a", "b", "b"], dtype=object)
    d = Dataset([1, 1, 3, 3], {"A": labels}, ["A"])
    cols, _ = group_by(d, {"A"})  # encodes A
    labels[:] = "a"
    assert group_by(d, {"A"})[0].pairs() == cols.pairs() == [(0.5, 0.25), (0.5, 0.75)]
    with pytest.raises(ValueError):
        d.attributes["A"][0] = "b"


def test_weighted_columns_validation():
    with pytest.raises(ValueError):
        WeightedColumns([0.5, 0.4], [0.5, 0.5])
    with pytest.raises(NegativeComponent):
        WeightedColumns([1.5, -0.5], [0.5, 0.5])


def test_column_sums_on_random_inputs(rng):
    for _ in range(50):
        d = random_dataset(rng)
        for cols in (population_matrix(d), group_by(d, {"A"})[0]):
            assert abs(cols.weights.sum() - 1) < 1e-12 * max(1, len(cols))
            assert abs(cols.shares.sum() - 1) < 1e-12 * max(1, len(cols))


def test_permutation_is_column_permutation(rng):
    d = random_dataset(rng, max_n=30)
    perm = rng.permutation(len(d))
    dp = Dataset(
        d.indicators[perm],
        {k: v[perm] for k, v in d.attributes.items()},
        d.attribute_names,
    )
    a = population_matrix(d)
    b = population_matrix(dp)
    assert sorted(a.pairs()) == pytest.approx(sorted(b.pairs()))


def test_duplication_same_zonogon(rng):
    d = random_dataset(rng, max_n=30)
    doubled = Dataset(
        np.concatenate([d.indicators, d.indicators]),
        {k: np.concatenate([v, v]) for k, v in d.attributes.items()},
        d.attribute_names,
    )
    za = canonical_chain(population_matrix(d))
    zb = canonical_chain(population_matrix(doubled))
    assert order(za, zb) is OrderRelation.EQUAL


def test_refinement_coarsening(rng):
    for _ in range(20):
        d = random_dataset(rng, n_attrs=2)
        z1 = canonical_chain(group_by(d, {"A"})[0])
        z2 = canonical_chain(group_by(d, {"A", "B"})[0])
        assert order(z1, z2) in (OrderRelation.EQUAL, OrderRelation.STRICTLY_BELOW)
