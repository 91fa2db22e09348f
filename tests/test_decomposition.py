"""Redundancy lattice, Moebius inversion and subgroup baseline."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqlab import (
    Dataset,
    InfiniteMeasure,
    InvalidMeasure,
    LatticeNode,
    MeasureSpec,
    NegativeComponent,
    TooManyAttributes,
    UnknownAttribute,
    Zonogon,
    atkinson,
    atkinson_decompose,
    cumulative,
    decompose,
    ge,
    mld,
    pietra,
    redundancy_lattice,
    subgroup_decompose,
    theil,
)
from ineqlab import decomposition, zonogon
from ineqlab.decomposition import DecompositionResult, _lattice_cached
from ineqlab.measures import _check_eps, atkinson_transform, inequality
from ineqlab.population import grouped_columns
from ineqlab.zonogon import canonical_chain, meet_all
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
    with pytest.raises(KeyError):
        decompose(d_xor, ["A", "B"], SPEC).cumulative(LatticeNode.of(("C",)))


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


def test_near_uniform_incomes_decompose_with_no_negative_measure():
    """tests/near_uniform.csv: 12 incomes of 3 +- 1e-9, whose measures sum
    terms near f(1) = 0 that rounding could take below zero."""
    rows = np.loadtxt(Path(__file__).with_name("near_uniform.csv"), delimiter=",", skiprows=1)
    d = Dataset(rows[:, 0], {a: rows[:, j].astype(int) for j, a in enumerate("ABC", 1)})
    for attrs in (["A", "B"], ["A", "B", "C"]):
        results = [atkinson_decompose(d, attrs, eps) for eps in (0.5, 1.0, 2.0)]
        results += [decompose(d, attrs, MeasureSpec(f)) for f in (theil(), mld(), ge(2.0))]
        for res in results:
            assert res.total >= 0 and all(cum >= 0 for _, cum, _ in res.nodes)
    for attr in "ABC":
        for c in (0.5, 1.0, 2.0):
            res = subgroup_decompose(d, attr, c)
            values = [res.between, res.reconstruction, res.total]
            assert min(values + [value for *_, value in res.within]) >= 0


def test_guaranteed_partials_are_non_negative_in_floats():
    """Seeded 2- and 3-attribute Datasets, half with near-uniform incomes
    (3 +- 1e-9): under every measure no partial at a node with at most one
    lower cover is below 0.0, and no lower cover has a larger cumulative."""
    specs = [MeasureSpec(f) for f in (theil(), mld(), ge(2.0))] + [MeasureSpec(ge(0.5), 0.25)]
    rng = np.random.default_rng(21)
    for k in range(80):
        n_attrs = 2 + k % 2
        n = int(rng.integers(20, 200))
        attrs = {
            name: rng.integers(0, int(rng.integers(2, 6)), n).astype(str)
            for name in "ABC"[:n_attrs]
        }
        incomes = 3 + rng.uniform(-1e-9, 1e-9, n) if k % 4 < 2 else rng.lognormal(0, 1, n)
        d = Dataset(incomes, attrs)
        nodes, covers = redundancy_lattice(d.attribute_names)
        single = {node for node in nodes if sum(b == node for _, b in covers) <= 1}
        for spec in specs:
            res = decompose(d, d.attribute_names, spec)
            cum = {node: c for node, c, _ in res.nodes}
            assert all(part >= 0.0 for node, _, part in res.nodes if node in single)
            assert all(cum[a] <= cum[b] for a, b in covers)


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


# -- the one-pass lattice against the node-by-node loop ---------------------------

# The node-by-node loop `decompose` ran before it evaluated the lattice in one
# pass, kept as the oracle: `meet_all` per node, every node's columns built
# (and so checked) before any is measured, `inequality` of each node's
# columns closed upward, then the Moebius pass.


def _source_zonogon(pop, source, cache):
    if source not in cache:
        cache[source] = canonical_chain(grouped_columns(pop, source))
    return cache[source]


def _node_zonogon(pop, node, cache):
    return meet_all([_source_zonogon(pop, s, cache) for s in node.sources])


def _oracle_decompose(pop, attrs, spec, transform=None):
    nodes, _, preds = _lattice_cached(tuple(attrs))
    cache: dict = {}
    _source_zonogon(pop, nodes[-1].sources[0], cache)
    columns = [_node_zonogon(pop, node, cache).to_columns() for node in nodes]
    cumulatives = []
    for node, cols, below in zip(nodes, columns, preds):
        value = inequality(cols, spec)
        if math.isinf(value):
            raise InfiniteMeasure(f"cumulative value of node {node} is infinite")
        value = value if transform is None else transform(value)
        cumulatives.append(max([value, *(cumulatives[j] for j in below)]))
    partials: list[float] = []
    for cum, below in zip(cumulatives, preds):
        partials.append(cum - sum(partials[i] for i in below))
    return DecompositionResult(tuple(zip(nodes, cumulatives, partials)), cumulatives[-1])


def _oracle_atkinson(pop, attrs, eps):
    _check_eps(eps)
    return _oracle_decompose(
        pop, attrs, MeasureSpec(ge(1.0 - eps)), lambda v: atkinson_transform(v, eps)
    )


def _outcome(call):
    """Cumulatives, partials and total as arrays, or the error's class and message."""
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), str(exc)
    cums = np.array([c for _, c, _ in result.nodes])
    parts = np.array([p for _, _, p in result.nodes])
    return [[n for n, _, _ in result.nodes], cums, parts, np.array(result.total)]


def _same_outcome(got, want):
    if isinstance(want, tuple) or isinstance(got, tuple):
        return got == want
    return got[0] == want[0] and all(np.array_equal(a, b) for a, b in zip(got[1:], want[1:]))


@st.composite
def lattice_cases(draw):
    """A Dataset of 2 or 3 attributes, some incomes zero, its attributes, and
    a MeasureSpec or, for the Atkinson route, an eps."""
    k = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 40))
    names = ["A", "B", "C"][:k]
    levels = [draw(st.integers(1, 4)) for _ in names]
    attrs = {
        name: [f"{name.lower()}{draw(st.integers(0, m - 1))}" for _ in range(n)]
        for name, m in zip(names, levels)
    }
    income = st.one_of(st.just(0.0), st.sampled_from([1.0, 2.0, 3.5]), st.floats(0.01, 100.0))
    values = [draw(income) for _ in range(n)]
    if not any(values):
        values[draw(st.integers(0, n - 1))] = draw(st.floats(0.01, 100.0))
    d = Dataset(values, attrs, names)
    f = draw(st.sampled_from([theil(), mld(), ge(-1.0), ge(0.5), ge(2.0), pietra(), None]))
    if f is None:  # the Atkinson route
        return d, names, None, draw(st.sampled_from([0.5, 1.0, 2.0]))
    p = draw(st.sampled_from([0.0, 0.3, 1.0])) if f.name == "pietra" else 0.0
    return d, names, MeasureSpec(f, p), None


@settings(max_examples=400, deadline=None)
@given(lattice_cases())
def test_one_pass_lattice_matches_the_node_by_node_loop(case):
    """Every cumulative, partial and total has the loop's bits, or the same
    error is raised, for the f-measure and the Atkinson routes."""
    d, attrs, spec, eps = case
    if spec is None:
        got = _outcome(lambda: atkinson_decompose(d, attrs, eps))
        want = _outcome(lambda: _oracle_atkinson(d, attrs, eps))
    else:
        got = _outcome(lambda: decompose(d, attrs, spec))
        want = _outcome(lambda: _oracle_decompose(d, attrs, spec))
    assert _same_outcome(got, want)


def _count_meets(monkeypatch):
    calls = []
    meet = zonogon.meet

    def counted(z1, z2):
        calls.append(1)
        return meet(z1, z2)

    monkeypatch.setattr(zonogon, "meet", counted)
    return calls


@pytest.mark.parametrize("k, meets", [(2, 1), (3, 11)])
def test_each_meet_is_made_once(monkeypatch, rng, k, meets):
    """A meet shared by several nodes is made once: 1 of 2-attribute
    lattices' meets and 11 of 3-attribute ones' (13 node by node)."""
    d = random_dataset(rng, n_attrs=k, max_n=60, max_cats=3)
    calls = _count_meets(monkeypatch)
    decompose(d, d.attribute_names, SPEC)
    assert len(calls) == meets


@pytest.mark.parametrize("k", [2, 3])
def test_cumulative_is_the_decomposition_cumulative(rng, k):
    """A decomposition's cumulative is the node's own measure raised to its
    strict predecessors' largest cumulative, bit for bit."""
    for _ in range(10):
        d = random_dataset(rng, n_attrs=k, max_n=60, max_cats=3)
        result = decompose(d, d.attribute_names, SPEC)
        cums = [cum for _, cum, _ in result.nodes]
        preds = _lattice_cached(tuple(d.attribute_names))[2]
        for (node, cum, _), below in zip(result.nodes, preds):
            assert cum == max([cumulative(node, d, SPEC), *(cums[j] for j in below)])


def _chain(edges):
    edges = np.array(edges, dtype=float)
    return Zonogon(np.vstack([[0.0, 0.0], np.cumsum(edges, axis=0)]), generators=edges)


GOOD = [[0.5, 0.8], [0.5, 0.2]]
INFINITE = [[0.5, 1.0], [0.5, 0.0]]  # MLD of a zero-share column is infinite
NEGATIVE = [[0.5, 1.0 + 1e-9], [0.5, -1e-9]]
NAN = [[0.5, float("nan")], [0.5, 0.5]]
OFF_SUM = [[0.5, 0.7], [0.5, 0.2]]
NEGATIVE_OFF_SUM = [[0.5, 1.2], [0.5, -0.1]]
NEAR_SUM = [[0.5, 0.8], [0.5, 0.2 + 1.5e-12]]  # within 1e-12 per column of one


NEGATIVE_ERROR = (NegativeComponent, "weights and shares must be non-negative")
OFF_SUM_ERROR = (ValueError, "weights and shares must each sum to one")
JOINT_INFINITE = (InfiniteMeasure, "cumulative value of node [[A,B]] is infinite")


@pytest.mark.parametrize(
    "bad, error",
    [
        pytest.param({1: NEGATIVE, 3: INFINITE}, NEGATIVE_ERROR, id="negative-then-infinite"),
        pytest.param({1: INFINITE, 3: NEGATIVE}, NEGATIVE_ERROR, id="infinite-then-negative"),
        pytest.param({1: INFINITE, 2: OFF_SUM}, OFF_SUM_ERROR, id="infinite-then-off-sum"),
        pytest.param({0: OFF_SUM, 1: NEGATIVE}, NEGATIVE_ERROR, id="off-sum-then-negative"),
        pytest.param(
            {1: OFF_SUM, 2: NEGATIVE}, NEGATIVE_ERROR, id="off-sum-then-negative-later"
        ),
        pytest.param({2: NEGATIVE_OFF_SUM}, NEGATIVE_ERROR, id="negative-and-off-sum"),
        pytest.param({1: NAN, 2: OFF_SUM}, NEGATIVE_ERROR, id="nan-then-off-sum"),
        pytest.param({3: INFINITE}, JOINT_INFINITE, id="infinite-joint"),
        pytest.param({1: NEAR_SUM, 3: INFINITE}, JOINT_INFINITE, id="near-sum-then-infinite"),
    ],
)
@pytest.mark.parametrize("atkinson_route", [False, True])
def test_errors_come_in_node_order(monkeypatch, bad, error, atkinson_route):
    """Every node's columns are checked before any is measured: a negative
    or NaN at any node raises NegativeComponent, else the first node whose
    sums are off raises the ValueError, else the first infinite cumulative
    in node order raises InfiniteMeasure."""
    d = Dataset([1.0, 2.0], {"A": ["a", "b"], "B": ["x", "y"]})
    nodes = redundancy_lattice(["A", "B"])[0]
    chains = {n.sources: _chain(bad.get(i, GOOD)) for i, n in enumerate(nodes)}
    # each source's chain is looked up by the source, and the one meet of a
    # two-attribute lattice gives the bottom node's chain
    monkeypatch.setattr(decomposition, "grouped_columns", lambda pop, source: source)
    monkeypatch.setattr(decomposition, "canonical_chain", lambda source: chains[(source,)])
    monkeypatch.setattr(decomposition, "meet_all", lambda _: chains[nodes[0].sources])
    if atkinson_route:
        got = _outcome(lambda: atkinson_decompose(d, ["A", "B"], 1.0))
    else:
        got = _outcome(lambda: decompose(d, ["A", "B"], MeasureSpec(mld())))
    assert got == error


def test_named_checks_its_lattice():
    """`named(a, b)` reads only the lattice of a and b, in either order."""
    rng = np.random.default_rng(23)
    attrs = {name: rng.choice(["x", "y", "z"], 400) for name in "ABC"}
    d = Dataset(rng.uniform(0.05, 20.0, 400), attrs)
    pair = decompose(d, ["A", "B"], SPEC)
    assert pair.named("B", "A") == pair.named("A", "B")
    with pytest.raises(UnknownAttribute):
        decompose(d, ["A", "B", "C"], SPEC).named("A", "B")
    with pytest.raises(UnknownAttribute):
        pair.named("A", "C")
