"""Population matrices, grouping and their invariances."""

import dataclasses
import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ineqlab import (
    Dataset,
    IneqError,
    DegeneratePopulation,
    EmptyPopulation,
    MeasureSpec,
    NegativeComponent,
    UnknownAttribute,
    WeightedColumns,
    atkinson_decompose,
    bottom,
    canonical_chain,
    decompose,
    game_synergy,
    game_value,
    group_by,
    grouped_columns,
    inequality,
    mld,
    order,
    OrderRelation,
    pietra,
    population_matrix,
    shapley_values,
    subgroup_decompose,
    theil,
)
from ineqlab import decomposition, population, shapley
from ineqlab.measures import ge
from ineqlab.population import _cells, _ordered_attrs, _sorted_encoding
from conftest import pairs, random_dataset


def encoded(levels, codes):
    """The `_Encoded` column that `_sorted_encoding`, the CLI's encoder, makes
    of sorted `levels` and each record's code in them."""
    return _sorted_encoding({level: i for i, level in enumerate(levels)}, np.asarray(codes))


def test_population_matrix_hand_example():
    cols = population_matrix(Dataset.from_values([1, 3]))
    assert pairs(cols) == [(0.5, 0.25), (0.5, 0.75)]


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
    with pytest.raises(UnknownAttribute, match="has 1 values for 2 records"):
        Dataset([1, 2], {"A": ["a"]})
    with pytest.raises(UnknownAttribute, match="do not match"):
        Dataset([1, 2], {"A": ["a", "b"]}, ["B"])


def test_zero_indicators_are_retained():
    cols = population_matrix(Dataset.from_values([0, 2]))
    assert pairs(cols) == [(0.5, 0.0), (0.5, 1.0)]


def test_group_by_xor_marginal(d_xor):
    cols, groups = group_by(d_xor, {"A"})
    assert pairs(cols) == [(0.5, 0.5), (0.5, 0.5)]
    assert [k for k, _ in groups] == [("a1",), ("a2",)]
    assert sorted(groups[0][1].indicators.tolist()) == [1, 3]


def test_group_by_xor_joint(d_xor):
    cols, groups = group_by(d_xor, {"A", "B"})
    assert pairs(cols) == [
        (0.25, 0.125),
        (0.25, 0.375),
        (0.25, 0.375),
        (0.25, 0.125),
    ]
    assert groups[0][0] == ("a1", "b1")


def test_group_by_empty_is_bottom(d_xor):
    cols, groups = group_by(d_xor, set())
    assert pairs(cols) == pairs(bottom()) == [(1.0, 1.0)]
    assert len(groups) == 1


def test_group_by_unknown_attribute(d_xor):
    with pytest.raises(UnknownAttribute):
        group_by(d_xor, {"C"})


@pytest.mark.parametrize("names", [["X", "Y"], ["Y", "X"]])
def test_the_first_unknown_attribute_given_is_named(d_xor, names):
    """Names are checked in the order given, whatever the hash seed; known
    ones come back in the Dataset's order."""
    with pytest.raises(UnknownAttribute, match=f"unknown attribute '{names[0]}'$"):
        _ordered_attrs(d_xor, names)
    with pytest.raises(UnknownAttribute, match=f"unknown attribute '{names[0]}'$"):
        _ordered_attrs(d_xor, ["B", *names, "A"])
    assert _ordered_attrs(d_xor, ["B", "A"]) == ("A", "B")


def test_dataset_rejects_repeated_attribute_names():
    # else every grouping would read A twice, with keys like ('x', 'x')
    with pytest.raises(UnknownAttribute, match="attribute 'A' is repeated"):
        Dataset([1, 2], {"A": ["x", "y"]}, ["A", "A"])


@pytest.mark.parametrize("grouping", [grouped_columns, group_by])
def test_a_repeated_grouping_attribute_is_rejected(d_xor, grouping):
    """Every grouping follows the rule of decompose and shapley, rather than
    grouping by A alone."""
    with pytest.raises(UnknownAttribute, match="attribute 'A' is repeated"):
        grouping(d_xor, ["A", "A"])
    with pytest.raises(UnknownAttribute, match="attribute 'B' is repeated"):
        grouping(d_xor, ["B", "A", "B"])


@pytest.mark.parametrize("c, weight", [(-1.0, math.inf), (0.0, 0.5), (2.0, 0.0)])
def test_subgroup_weight_of_a_zero_income_group(c, weight):
    """pshare^(1-c) * ishare^c at ishare = 0: inf for c < 0, the population
    share at c = 0 (0^0 = 1) and 0 for c > 0; its within value is 0."""
    d = Dataset([0, 0, 3, 5], {"region": ["r1", "r1", "r2", "r2"]})
    result = subgroup_decompose(d, "region", c)
    assert result.within[0] == (("r1",), weight, 0.0)
    assert result.within[1][0] == ("r2",)


def test_group_by_integer_levels_in_string_order():
    d = Dataset([1, 2, 3, 4], {"age": [9, 10, 9, 2]}, ["age"])
    cols, groups = group_by(d, {"age"})
    assert [k for k, _ in groups] == [("10",), ("2",), ("9",)]
    assert pairs(cols) == [(0.25, 0.2), (0.25, 0.4), (0.5, 0.4)]


def test_attribute_columns_are_read_only_copies():
    labels = np.array(["a", "a", "b", "b"], dtype=object)
    d = Dataset([1, 1, 3, 3], {"A": labels}, ["A"])
    cols, _ = group_by(d, {"A"})  # encodes A
    labels[:] = "a"
    assert pairs(group_by(d, {"A"})[0]) == pairs(cols) == [(0.5, 0.25), (0.5, 0.75)]
    with pytest.raises(ValueError):
        d.attributes["A"][0] = "b"


def test_group_by_names_an_all_zero_group():
    d = Dataset([0.0, 1.0], {"g": ["a", "b"]})
    with pytest.raises(DegeneratePopulation, match=r"group \('a',\)"):
        group_by(d, {"g"})
    assert [k for k, _ in group_by(d, set())[1]] == [()]


def test_labels_differing_by_trailing_nul_are_distinct():
    d = Dataset([1, 2, 3], {"A": ["a", "a\x00", "b"]})
    assert [k for k, _ in group_by(d, {"A"})[1]] == [("a",), ("a\x00",), ("b",)]


def unique_encoding(labels):
    """The encoder before the dict encoder: numpy's sorted unique strings.
    Its `U` dtype drops trailing NUL characters."""
    levels, codes = np.unique(np.array(labels, dtype=object).astype(str), return_inverse=True)
    return levels.tolist(), codes.astype(np.min_scalar_type(len(levels)))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.text(st.characters(exclude_characters="\x00"), max_size=4),
            st.integers(-1000, 10**20),
            st.floats(),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_encoding_is_numpys_on_nul_free_labels(labels):
    d = Dataset(np.ones(len(labels)), {"A": labels})
    (levels, codes), (want_levels, want_codes) = d._encode("A"), unique_encoding(labels)
    assert levels == want_levels
    assert codes.dtype == want_codes.dtype and np.array_equal(codes, want_codes)


def test_encoded_columns_decode_read_only():
    columns = {"A": encoded(["x", "y", "z"], [1, 0, 1, 2]), "B": ["p", "q", "p", "q"]}
    d = Dataset([1, 2, 3, 4], columns)
    assert list(d._encoded) == ["A"]
    assert d.attributes["A"].tolist() == ["y", "x", "y", "z"]
    with pytest.raises(ValueError):
        d.attributes["A"][0] = "x"
    plain = Dataset([1, 2, 3, 4], {"A": ["y", "x", "y", "z"], "B": ["p", "q", "p", "q"]})
    assert pairs(grouped_columns(d, ["A", "B"])) == pairs(grouped_columns(plain, ["A", "B"]))


@pytest.mark.parametrize("attributes", [None, {"A": ["a", "b"]}])
def test_an_indicator_sum_past_the_largest_float_is_degenerate(attributes):
    """Shares are undefined when the indicators sum to infinity."""
    with pytest.raises(DegeneratePopulation, match="sum past the largest float"):
        Dataset([1e308, 1e308], attributes)


def test_scaled_keeps_the_attributes_as_given():
    """Integer labels stay ints and an encoded column decodes to the same
    strings, grouped or not; a scaled Dataset keeps no grouping."""
    d = Dataset([1, 2, 3], {"A": [10, 9, 10], "B": encoded(["p", "q"], [1, 0, 0])})
    for _ in range(2):
        scaled = d.scaled(2.0)
        assert scaled.indicators.tolist() == [2.0, 4.0, 6.0] and not scaled._groupings
        assert scaled.attribute_names == d.attribute_names
        for name in d.attribute_names:
            got, want = scaled.attributes[name].tolist(), d.attributes[name].tolist()
            assert got == want and list(map(type, got)) == list(map(type, want))
        grouped_columns(d, ["A", "B"])


@pytest.mark.parametrize("grouped", [0, 1, 3, 8])
@pytest.mark.parametrize("k", [2.0, 0.3, 1e-3])
def test_groupings_of_a_scaled_dataset_have_a_fresh_ones_bits(grouped, k):
    """Every grouping of `d.scaled(k)`, whatever `d` kept, has the bits of
    a freshly built Dataset's."""
    rng = np.random.default_rng(grouped)
    n = 60
    values = rng.uniform(0.0, 5.0, n)
    columns = {
        "A": encoded(["a", "b", "c"], rng.integers(0, 3, n)),
        "B": rng.choice(["p", "q"], n),
        "C": encoded(["x", "y"], rng.integers(0, 2, n)),
    }
    d = Dataset(values, columns)
    subsets = [c for r in range(4) for c in combinations("ABC", r)]
    for subset in subsets[::-1][:grouped]:
        grouped_columns(d, subset)
    fresh, scaled = Dataset(values * k, columns), d.scaled(k)
    for subset in subsets:
        got, want = _cells(scaled, subset), _cells(fresh, subset)
        assert got.codes.dtype == want.codes.dtype and bits(got.codes) == bits(want.codes)
        assert bits(got.digits) == bits(want.digits) and bits(got.counts) == bits(want.counts)
        assert bits(got.sums) == bits(want.sums) and got.keys() == want.keys()


def test_weighted_columns_validation():
    with pytest.raises(ValueError):
        WeightedColumns([0.5, 0.4], [0.5, 0.5])
    with pytest.raises(ValueError, match="equal length"):
        WeightedColumns([1.0], [0.5, 0.5])
    with pytest.raises(NegativeComponent):
        WeightedColumns([1.5, -0.5], [0.5, 0.5])
    for nan_in in ([math.nan, 1.0], [0.5, 0.5]), ([0.5, 0.5], [math.nan, 1.0]):
        with pytest.raises(NegativeComponent):
            WeightedColumns(*nan_in)
    with pytest.raises(ValueError):
        WeightedColumns([math.inf, 0.5], [0.5, 0.5])


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
    assert sorted(pairs(a)) == pytest.approx(sorted(pairs(b)))


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


def grouped_by_records(d, subset):
    """Per-record grouping by string keys, independent of the cell table:
    each record's group index, the sorted keys, counts, and sums added in
    record order."""
    names = [a for a in d.attribute_names if a in subset]
    record_keys = [tuple(str(d.attributes[a][i]) for a in names) for i in range(len(d))]
    keys = sorted(set(record_keys))
    codes = [keys.index(k) for k in record_keys]
    counts = [0] * len(keys)
    sums = [0.0] * len(keys)
    for g, x in zip(codes, d.indicators.tolist()):
        counts[g] += 1
        sums[g] += x
    return codes, keys, counts, sums


def unpacked_cells(d, attrs):
    cells = _cells(d, attrs)
    return cells.codes, cells.keys(), cells.counts, cells.sums


@st.composite
def datasets_with_subset_orders(draw):
    n = draw(st.integers(1, 30))
    names = ["A", "B", "C", "D"][: draw(st.integers(1, 4))]
    attrs = {}
    for name in names:
        # integer levels, so string order ("10" < "9") differs from numeric
        # order; a pool of one level gives a single-level attribute
        pool = draw(st.lists(st.integers(0, 12), min_size=1, max_size=4, unique=True))
        attrs[name] = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    values = draw(
        st.lists(st.one_of(st.just(0.0), st.floats(0.001, 1000.0)), min_size=n, max_size=n)
    )
    assume(any(v > 0 for v in values))
    d = Dataset(values, attrs, draw(st.permutations(names)))
    subsets = [c for r in range(len(names) + 1) for c in combinations(names, r)]
    # the order of the groupings decides which cell table each is projected from
    return d, draw(st.permutations(subsets))


@settings(max_examples=300, deadline=None)
@given(datasets_with_subset_orders())
def test_cells_match_a_per_record_grouping(case):
    d, subsets = case
    for subset in subsets:
        codes, keys, counts, sums = unpacked_cells(d, subset[::-1])
        exp_codes, exp_keys, exp_counts, exp_sums = grouped_by_records(d, subset)
        assert codes.tolist() == exp_codes
        assert keys == exp_keys
        assert counts.tolist() == exp_counts
        assert sums.tolist() == exp_sums


def test_one_attribute_groupings_of_many_attributes():
    """Twenty 10-level attributes grouped one at a time: each table covers
    only its grouping, so no joint code spans all the attributes (10**20
    would pass 2**63)."""
    rng = np.random.default_rng(5)
    n = 200
    names = [f"X{j:02d}" for j in range(20)]
    attrs = {name: rng.integers(0, 10, n) for name in names}
    d = Dataset(rng.uniform(0.0, 5.0, n), attrs, names)
    for name in names + names[::-1]:
        codes, keys, counts, sums = unpacked_cells(d, [name])
        exp_codes, exp_keys, exp_counts, exp_sums = grouped_by_records(d, [name])
        assert codes.tolist() == exp_codes
        assert keys == exp_keys
        assert counts.tolist() == exp_counts
        assert sums.tolist() == exp_sums


def test_joint_codes_past_int64_give_the_records_own_keys():
    """300 records with 8 attributes of 300 levels: the level counts
    multiply to 300**8 > 2**63, so a joint code packed into one int64
    would wrap and give keys of no record."""
    rng = np.random.default_rng(8)
    names = [f"X{j}" for j in range(8)]
    attrs = {name: rng.permutation(300) for name in names}
    d = Dataset(rng.uniform(0.0, 5.0, 300), attrs, names)
    exp_codes, exp_keys, exp_counts, exp_sums = grouped_by_records(d, names)
    spec = MeasureSpec(theil())
    per_record = WeightedColumns(
        np.array(exp_counts) / len(d), np.array(exp_sums) / d.indicators.sum()
    )
    assert game_value(d, names, spec) == inequality(per_record, spec)
    codes, keys, counts, sums = unpacked_cells(d, names)
    assert codes.tolist() == exp_codes
    assert keys == exp_keys
    assert counts.tolist() == exp_counts
    assert sums.tolist() == exp_sums


def three_attribute_dataset(n=500, seed=3):
    rng = np.random.default_rng(seed)
    attrs = {name: rng.choice([f"{name}{j}" for j in range(3)], n) for name in "ABC"}
    return Dataset(rng.uniform(0.1, 10.0, n), attrs, ["A", "B", "C"])


@pytest.mark.parametrize(
    "group",
    [lambda d: grouped_columns(d, ["A"]), lambda d: subgroup_decompose(d, "A", 2.0)],
    ids=["grouped_columns", "subgroup_decompose"],
)
def test_grouping_encodes_only_grouped_attributes(group):
    d = three_attribute_dataset()
    group(d)
    assert list(d._encoded) == ["A"]


@pytest.mark.parametrize(
    "run",
    [
        lambda d, spec: decompose(d, ["A", "B", "C"], spec),
        lambda d, spec: (
            shapley_values(d, ["A", "B", "C"], spec),
            [game_synergy(d, a, b, spec) for a, b in combinations("ABC", 2)],
        ),
    ],
    ids=["decompose", "shapley"],
)
def test_three_attributes_sort_the_records_once(run, monkeypatch):
    """One sort of the records' integer codes builds the cell table; every
    grouping after it is projected from the table's cells."""
    d = three_attribute_dataset()
    sorts = []
    unique, lexsort = np.unique, np.lexsort

    def counting_unique(ar, *args, **kwargs):
        ar = np.asarray(ar)
        if ar.size == len(d) and ar.dtype.kind in "iu":
            sorts.append("unique")
        return unique(ar, *args, **kwargs)

    def counting_lexsort(keys, *args, **kwargs):
        if np.shape(keys)[-1] == len(d):
            sorts.append("lexsort")
        return lexsort(keys, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counting_unique)
    monkeypatch.setattr(np, "lexsort", counting_lexsort)
    run(d, MeasureSpec(theil()))
    assert len(sorts) == 1


def parent_distinct_columns(rows):
    order = np.lexsort(rows[::-1]) if len(rows) else np.arange(rows.shape[1])
    ordered = rows[:, order]
    starts = np.ones(rows.shape[1], dtype=bool)
    starts[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    index = np.empty(rows.shape[1], dtype=np.intp)
    index[order] = np.cumsum(starts) - 1
    return index, ordered[:, starts]


class ParentGrouping:
    """The grouping code that built one mask per group, kept verbatim as
    the oracle; only its joint cell table lives here, not on the Dataset."""

    def __init__(self, pop):
        self.pop = pop
        self.table = None

    def joint(self, attrs):
        pop = self.pop
        if self.table is None or not set(attrs) <= set(self.table[0]):
            codes = np.array([pop._encode(a)[1] for a in attrs]).reshape(len(attrs), len(pop))
            index, digits = parent_distinct_columns(codes)
            self.table = attrs, index.astype(np.min_scalar_type(digits.shape[1])), digits
        return self.table

    def cells(self, attrs):
        pop = self.pop
        attrs = _ordered_attrs(pop, attrs)
        table_attrs, index, cell_digits = self.joint(attrs)
        cell_codes, digits = parent_distinct_columns(
            cell_digits[[table_attrs.index(a) for a in attrs]]
        )
        codes = cell_codes[index]
        levels = [pop._encode(a)[0] for a in attrs]
        names = [[lv[d] for d in row] for lv, row in zip(levels, digits.tolist())]
        keys = list(zip(*names)) if attrs else [()]
        counts = np.bincount(codes, minlength=len(keys))
        sums = np.bincount(codes, weights=pop.indicators, minlength=len(keys))
        return codes, keys, counts, sums

    def grouped_columns(self, pop, attrs):
        assert pop is self.pop
        _, _, counts, sums = self.cells(attrs)
        return WeightedColumns(counts / len(pop), sums / pop.indicators.sum())

    def group_by(self, attrs):
        pop = self.pop
        codes, keys, counts, sums = self.cells(attrs)
        cols = WeightedColumns(counts / len(pop), sums / pop.indicators.sum())
        groups = []
        for g, key in enumerate(keys):
            mask = codes == g
            sub_attrs = {n: c[mask] for n, c in pop.attributes.items()}
            groups.append((key, Dataset(pop.indicators[mask], sub_attrs, pop.attribute_names)))
        return cols, groups

    def subgroup_decompose(self, attr, c):
        pop = self.pop
        spec = MeasureSpec(ge(c))
        codes, keys, counts, sums = self.cells([attr])
        cols = WeightedColumns(counts / len(pop), sums / pop.indicators.sum())
        between = inequality(cols, spec)
        total = inequality(population_matrix(pop), spec)
        within = []
        recon = between
        for g, key in enumerate(keys):
            pshare, ishare = cols.weights[g], cols.shares[g]
            if ishare == 0:
                within.append((key, math.inf if c < 0 else pshare ** (1.0 - c) * ishare**c, 0.0))
                continue
            weight = pshare ** (1.0 - c) * ishare**c
            value = inequality(population_matrix(Dataset(pop.indicators[codes == g])), spec)
            within.append((key, weight, value))
            recon += weight * value
        return between, tuple(within), recon, total


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def outcome(run):
    """A call's result, or the type of the IneqError it raised."""
    try:
        return run()
    except IneqError as exc:
        return type(exc)


@st.composite
def dataset_inputs(draw):
    """Indicators, attribute columns and attribute names of a Dataset."""
    n = draw(st.integers(1, 40))
    names = ["A", "B", "C"][: draw(st.integers(1, 3))]
    attrs = {}
    for name in names:
        # a pool of one label gives a one-level attribute; "a" and "a\x00"
        # are distinct labels
        pool = draw(st.lists(st.sampled_from(["a", "a\x00", "b", "10", "9"]), min_size=1,
                             max_size=4, unique=True))
        labels = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        if draw(st.booleans()):
            levels = sorted(set(labels))
            attrs[name] = encoded(levels, [levels.index(x) for x in labels])
        else:
            attrs[name] = labels
    # few distinct values, many zeros: zero-income and single-record groups
    values = draw(st.lists(st.one_of(st.just(0.0), st.sampled_from([1.0, 2.5, 1e-3]),
                                     st.floats(0.001, 1000.0)), min_size=n, max_size=n))
    assume(any(v > 0 for v in values))
    return values, attrs, draw(st.permutations(names))


@st.composite
def grouping_cases(draw):
    values, attrs, names = draw(dataset_inputs())
    d = Dataset(values, attrs, names)
    subsets = [c for r in range(len(names) + 1) for c in combinations(names, r)]
    # the order of the groupings decides which kept grouping each is
    # projected from; a cap on kept groupings below the number of subsets
    # drops some of them
    cap = draw(st.integers(1, min(population._KEPT_GROUPINGS, len(subsets) - 1)))
    return d, draw(st.permutations(subsets)), cap


def same_group_by(got, want):
    if isinstance(got, type) or isinstance(want, type):
        return got is want
    (cols, groups), (want_cols, want_groups) = got, want
    if bits(cols.weights) != bits(want_cols.weights) or bits(cols.shares) != bits(want_cols.shares):
        return False
    if [k for k, _ in groups] != [k for k, _ in want_groups]:
        return False
    for (_, sub), (_, want_sub) in zip(groups, want_groups):
        if bits(sub.indicators) != bits(want_sub.indicators):
            return False
        if sub.attribute_names != want_sub.attribute_names:
            return False
        for name in sub.attribute_names:
            if sub.attributes[name].tolist() != want_sub.attributes[name].tolist():
                return False
            (levels, codes), (want_levels, want_codes) = sub._encode(name), want_sub._encode(name)
            if levels != want_levels or codes.dtype != want_codes.dtype or bits(codes) != bits(
                want_codes
            ):
                return False
    return True


@settings(max_examples=200, deadline=None)
@given(grouping_cases())
def test_grouping_is_the_mask_per_group_code_bit_for_bit(case):
    """Cells, between-group columns, group_by's sub-datasets, subgroup
    within values and the decompositions built on them are those of the
    mask-per-group code, float for float by their bytes.

    Every subset is grouped twice in a row, the second time from its kept
    grouping, and then all once more, under a drawn cap on kept groupings
    below the number of subsets, so groupings are also dropped and built
    again. Every kept array, codes, sums and columns, is read-only."""
    d, subsets, cap = case
    parent = ParentGrouping(d)
    with mock.patch.object(population, "_KEPT_GROUPINGS", cap):
        check_mask_grouping_bits(d, parent, [s for s in subsets for _ in range(2)] + subsets)
    assert len(d._groupings) == cap
    for cells in d._groupings.values():
        for array in (cells.codes, cells.counts, cells.sums, cells.digits,
                      cells.columns.weights, cells.columns.shares):
            with pytest.raises(ValueError):
                array[...] = 0


def check_mask_grouping_bits(d, parent, sequence):
    for subset in sequence:
        cells, (codes, keys, counts, sums) = _cells(d, subset[::-1]), parent.cells(subset)
        assert cells.codes.tolist() == codes.tolist() and cells.keys() == keys
        assert cells.counts.tolist() == counts.tolist() and bits(cells.sums) == bits(sums)
        cols, want = grouped_columns(d, subset), parent.grouped_columns(d, subset)
        assert bits(cols.weights) == bits(want.weights) and bits(cols.shares) == bits(want.shares)
        assert same_group_by(outcome(lambda: group_by(d, subset)),
                             outcome(lambda: parent.group_by(subset)))
        assert len(d._groupings) <= population._KEPT_GROUPINGS
    for attr in d.attribute_names:
        for c in (-1.0, 0.0, 0.5, 1.0, 2.0):
            got = subgroup_decompose(d, attr, c)
            between, within, recon, total = parent.subgroup_decompose(attr, c)
            assert [bits(v) for v in (got.between, got.reconstruction, got.total)] == [
                bits(v) for v in (between, recon, total)
            ]
            assert [(k, bits(w), bits(v)) for k, w, v in got.within] == [
                (k, bits(w), bits(v)) for k, w, v in within
            ]
    names = list(d.attribute_names)
    for spec in (MeasureSpec(theil()), MeasureSpec(ge(2.0), 0.25)):
        runs = [lambda: shapley_values(d, names, spec)]
        if len(names) >= 2:
            runs.append(lambda: decompose(d, names, spec))
        for run in runs:
            got = outcome(run)
            with mock.patch.object(decomposition, "grouped_columns", parent.grouped_columns), \
                    mock.patch.object(shapley, "grouped_columns", parent.grouped_columns):
                want = outcome(run)
            if isinstance(got, type) or isinstance(want, type):
                assert got is want
            elif isinstance(got, dict):
                assert got.keys() == want.keys()
                assert [bits(got[a]) for a in got] == [bits(want[a]) for a in got]
            else:
                assert [(node, bits(cum), bits(part)) for node, cum, part in got.nodes] == [
                    (node, bits(cum), bits(part)) for node, cum, part in want.nodes
                ]
                assert bits(got.total) == bits(want.total)


def counting_record_passes(monkeypatch, n):
    """Every `np.bincount` over `n` entries from now on, in a list."""
    passes = []
    bincount = np.bincount

    def counting_bincount(x, *args, **kwargs):
        if np.shape(x) == (n,):
            passes.append(x)
        return bincount(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", counting_bincount)
    return passes


def test_every_grouping_makes_one_pass_over_the_records(monkeypatch):
    """The first use of a grouping bincounts the records once, for its
    indicator sums; its counts come from the kept grouping it is projected
    from. Every later call finds the sums and columns kept and makes no
    pass over the records."""
    d = three_attribute_dataset()
    passes = counting_record_passes(monkeypatch, len(d))

    def count(run):
        del passes[:]
        run()
        return len(passes)

    joint = ["A", "B", "C"]
    assert count(lambda: grouped_columns(d, ["B"])) == 1  # built from the codes
    assert count(lambda: grouped_columns(d, joint)) == 1  # built from the codes
    for subset in [c for r in range(3) for c in combinations(joint, r)]:
        first = count(lambda: grouped_columns(d, subset))
        assert first == (subset != ("B",))
        assert count(lambda: grouped_columns(d, subset)) == 0
        assert count(lambda: group_by(d, subset)) == 0
    assert count(lambda: group_by(d, joint)) == 0
    for attr in joint:
        assert count(lambda: subgroup_decompose(d, attr, 2.0)) == 0
    for subset, cells in list(d._groupings.items()):
        assert _cells(d, subset) is cells
        assert grouped_columns(d, subset) is cells.columns


@pytest.mark.parametrize(
    "run",
    [
        lambda d, spec: decompose(d, ["A", "B", "C"], spec),
        lambda d, spec: shapley_values(d, ["A", "B", "C"], spec),
        lambda d, spec: [game_synergy(d, a, b, spec) for a, b in combinations("ABC", 2)],
    ],
    ids=["decompose", "shapley", "synergy"],
)
def test_a_second_call_groups_nothing_again(run, monkeypatch):
    """A second call on the same Dataset finds every grouping kept: it
    sorts no records, projects no cells and sums no indicators, and gives
    the same bits."""
    d = three_attribute_dataset()
    spec = MeasureSpec(theil())
    first = run(d, spec)
    passes = counting_record_passes(monkeypatch, len(d))
    calls = []
    lexsort, distinct_columns = np.lexsort, population._distinct_columns

    def counted(name, f):
        def call(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return call

    monkeypatch.setattr(np, "lexsort", counted("lexsort", lexsort))
    monkeypatch.setattr(population, "_distinct_columns", counted("distinct", distinct_columns))
    assert repr(run(d, spec)) == repr(first)
    assert calls == [] and passes == []


def test_shapley_over_five_attributes_keeps_seven_groupings(monkeypatch):
    """Shapley over five attributes asks for 31 groupings: the Dataset
    keeps at most seven, and the grand coalition, which every other one is
    projected from, stays kept, so the records are sorted once."""
    rng = np.random.default_rng(6)
    n = 300
    names = list("ABCDE")
    d = Dataset(rng.uniform(0.1, 10.0, n), {a: rng.integers(0, 3, n) for a in names}, names)
    kept, sorts = [], []
    grouping, lexsort = Dataset._grouping, np.lexsort

    def counting_grouping(self, attrs):
        result = grouping(self, attrs)
        kept.append(len(self._groupings))
        return result

    def counting_lexsort(keys, *args, **kwargs):
        if np.shape(keys)[-1] == n:
            sorts.append(keys)
        return lexsort(keys, *args, **kwargs)

    monkeypatch.setattr(Dataset, "_grouping", counting_grouping)
    monkeypatch.setattr(np, "lexsort", counting_lexsort)
    spec = MeasureSpec(theil())
    first = shapley_values(d, names, spec)
    assert len(kept) == 31 and max(kept) == population._KEPT_GROUPINGS == 7
    assert len(sorts) == 1 and tuple(names) in d._groupings
    assert shapley_values(d, names, spec) == first


def test_subgroup_decompose_measures_all_groups_at_once(monkeypatch):
    """No Dataset per group and two WeightedColumns, the between-group and
    the per-record ones: every within value comes from one r pass."""
    rng = np.random.default_rng(4)
    n = 400
    values = rng.uniform(0.1, 10.0, n)
    codes = rng.integers(0, 40, n)
    values[codes == 7] = 0.0  # one zero-income group
    d = Dataset(values, {"A": encoded([f"g{j:02d}" for j in range(40)], codes)})
    built = []
    for cls in (Dataset, WeightedColumns):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__, **kwargs):
            built.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    result = subgroup_decompose(d, "A", 2.0)
    assert sorted(built) == ["WeightedColumns", "WeightedColumns"]
    assert len(result.within) == 40 and result.within[7][1:] == (0.0, 0.0)
    assert result.reconstruction == pytest.approx(result.total, rel=1e-12)


def canonical(result):
    """A result as nested tuples, each float by its bytes."""
    if isinstance(result, (float, np.floating, np.ndarray)):
        return bits(result)
    if isinstance(result, WeightedColumns):
        return "columns", bits(result.weights), bits(result.shares)
    if isinstance(result, Dataset):
        names = result.attribute_names
        return bits(result.indicators), names, [result.attributes[a].tolist() for a in names]
    if dataclasses.is_dataclass(result):
        return canonical([getattr(result, f.name) for f in dataclasses.fields(result)])
    if isinstance(result, dict):
        return [(key, canonical(value)) for key, value in result.items()]
    if isinstance(result, (tuple, list)):
        return [canonical(item) for item in result]
    return result


SPECS = [MeasureSpec(theil()), MeasureSpec(ge(2.0), 0.25), MeasureSpec(mld()),
         MeasureSpec(pietra())]


@st.composite
def call_sequences(draw):
    """A Dataset's inputs, a cap on kept groupings and a sequence of calls,
    each a (name, function of a Dataset) pair."""
    values, attrs, names = draw(dataset_inputs())
    attr_lists = st.lists(st.sampled_from(names), unique=True, max_size=len(names))
    call = st.one_of(
        st.builds(lambda a: (f"grouped_columns{a}", lambda d: grouped_columns(d, a)), attr_lists),
        st.builds(lambda a: (f"group_by{a}", lambda d: group_by(d, a)), attr_lists),
        st.builds(lambda a, c: (f"subgroup{a, c}", lambda d: subgroup_decompose(d, a, c)),
                  st.sampled_from(names), st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])),
        st.builds(lambda a, s: (f"decompose{a}", lambda d: decompose(d, a, s)),
                  attr_lists, st.sampled_from(SPECS)),
        st.builds(lambda a, e: (f"atkinson{a, e}", lambda d: atkinson_decompose(d, a, e)),
                  attr_lists, st.sampled_from([0.5, 1.0, 2.0])),
        st.builds(lambda a, s: (f"shapley{a}", lambda d: shapley_values(d, a, s)),
                  attr_lists, st.sampled_from(SPECS)),
        st.builds(lambda a, s: (f"synergy{a}", lambda d: game_synergy(d, *a, s)),
                  st.permutations(names).map(lambda p: p[:2]).filter(lambda p: len(p) == 2),
                  st.sampled_from(SPECS)),
        st.builds(lambda k: (f"scaled({k})", lambda d: d.scaled(k)),
                  st.sampled_from([2.0, 0.3, 1e-3])),
    )
    cap = draw(st.integers(1, 7))
    return values, attrs, names, cap, draw(st.lists(call, min_size=1, max_size=12))


@settings(max_examples=150, deadline=None)
@given(call_sequences())
def test_calls_on_one_dataset_have_the_bits_of_a_fresh_one(case):
    """A sequence of calls on one Dataset, under a cap on kept groupings
    that drops and rebuilds them, gives each result the bits of the same
    call on a fresh Dataset of the same indicators. A `scaled` result is
    the Dataset the calls after it run on."""
    values, attrs, names, cap, calls = case
    d = Dataset(values, attrs, names)
    with mock.patch.object(population, "_KEPT_GROUPINGS", cap):
        for name, call in calls:
            got = outcome(lambda: call(d))
            want = outcome(lambda: call(Dataset(d.indicators, attrs, names)))
            assert canonical(got) == canonical(want), name
            assert len(d._groupings) <= cap
            if isinstance(got, Dataset):
                d = got


def test_writing_the_callers_indicators_changes_no_result():
    values = np.array([1.0, 3.0, 2.0, 6.0])
    attrs = {"A": ["x", "y", "x", "y"]}
    d, want = Dataset(values, attrs), Dataset(values.copy(), attrs)
    values *= [5.0, 0.0, 1.0, 2.0]
    spec = MeasureSpec(theil())
    assert bits(d.indicators) == bits(want.indicators)
    assert canonical(grouped_columns(d, ["A"])) == canonical(grouped_columns(want, ["A"]))
    assert canonical(group_by(d, ["A"])) == canonical(group_by(want, ["A"]))
    assert inequality(population_matrix(d), spec) == inequality(population_matrix(want), spec)


def test_indicators_are_read_only():
    d = Dataset([1.0, 2.0, 3.0], {"A": ["x", "y", "x"]})
    grouped_columns(d, ["A"])
    with pytest.raises(ValueError):
        d.indicators[0] = 5.0
    assert d.indicators.tolist() == [1.0, 2.0, 3.0]
    assert grouped_columns(d, ["A"]).shares.tolist() == [4 / 6, 2 / 6]
