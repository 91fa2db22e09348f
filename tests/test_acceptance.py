"""Acceptance suite: one printed pass/fail line per criterion.

Each criterion accumulates violations and reports a single line on the real
stdout so the verdicts survive pytest's output capture.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ineqlab import (
    Dataset,
    MeasureSpec,
    OrderRelation,
    WeightedColumns,
    atkinson,
    atkinson_decompose,
    atkinson_transform,
    canonical_chain,
    decompose,
    ge,
    inequality,
    minkowski_sum,
    mld,
    order,
    pietra,
    population_matrix,
    r_fp,
    redundancy_lattice,
    shapley_values,
    subgroup_decompose,
    theil,
)
import conftest
from conftest import classic_index, random_dataset

SEED = 20250823
# written on every run; ignored by git, so a change in it shows as a failure
# of the count asserted below, not as a dirty tree
COUNTEREXAMPLES = (
    Path(__file__).resolve().parents[1] / "artifacts" / "negative_partial_counterexamples.json"
)


def report(label):
    """Queue `[PASS] label` or `[FAIL] label` for the end-of-run summary."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                detail = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
                conftest.VERDICTS.append(f"[FAIL] {label}: {detail}")
                raise
            conftest.VERDICTS.append(f"[PASS] {label}")

        return run

    return wrap


def random_population(rng, max_n=50, low=1e-3, high=100.0):
    return Dataset.from_values(rng.uniform(low, high, int(rng.integers(2, max_n + 1))))


GENERATORS = [pietra(), ge(-1), ge(0.5), ge(2), theil(), mld()]


@report("criterion 1: special cases reproduce the classic indices (1e-9, under 5 s)")
def test_01_special_cases():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        d = random_population(rng)
        cols = population_matrix(d)
        for gen in GENERATORS:
            got = inequality(cols, MeasureSpec(gen))
            want = classic_index(d, gen)
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"worst deviation {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


@report("criterion 2: column measure is linear, convex and subadditive (1e-10)")
def test_02_column_measure_properties():
    rng = np.random.default_rng(SEED)
    strict_gens = [theil(), ge(2)]
    weak_gens = [pietra()]
    for _ in range(10_000):
        # two columns with well-separated slopes, components bounded away
        # from zero so the strict margins are meaningful
        while True:
            v1 = rng.uniform(0.1, 1.0, 2)
            v2 = rng.uniform(0.1, 1.0, 2)
            if abs(v1[1] / v1[0] - v2[1] / v2[0]) >= 0.2:
                break
        strict = bool(rng.integers(0, 2))
        gen = strict_gens[int(rng.integers(len(strict_gens)))] if strict else weak_gens[0]
        # at p=1 the measure degenerates to zero, so strict margins need p < 1
        spec = MeasureSpec(gen, float(rng.uniform(0.0, 0.95)))

        scale = float(rng.uniform(0.01, 5.0))
        r1, r2 = r_fp(tuple(v1), spec), r_fp(tuple(v2), spec)
        assert abs(r_fp(tuple(scale * v1), spec) - scale * r1) <= 1e-10 * max(1.0, r1)

        lam = float(rng.uniform(0.1, 0.9))
        mix = r_fp(tuple(lam * v1 + (1 - lam) * v2), spec)
        chord = lam * r1 + (1 - lam) * r2
        assert mix <= chord + 1e-10
        if strict:
            assert chord - mix > 1e-12, f"convexity margin {chord - mix:.3e}"

        tri = r_fp(tuple(v1 + v2), spec)
        assert tri <= r1 + r2 + 1e-10
        if strict:
            assert r1 + r2 - tri > 1e-12, f"triangle margin {r1 + r2 - tri:.3e}"
        # parallel columns: the triangle inequality is tight
        c = float(rng.uniform(0.2, 3.0))
        tight = r_fp(tuple(v1 + c * v1), spec)
        assert abs(tight - (r1 + r_fp(tuple(c * v1), spec))) <= 1e-10


@report("criterion 3: transfers and stochastic coarsenings never raise inequality")
def test_03_transfers_and_coarsenings():
    rng = np.random.default_rng(SEED)
    theil_spec = MeasureSpec(theil())
    pietra_spec = MeasureSpec(pietra())
    for _ in range(1000):
        values = rng.uniform(0.5, 100.0, int(rng.integers(3, 40)))
        i, j = 0, 1
        while abs(values[i] - values[j]) < 1e-6:
            i, j = rng.choice(len(values), 2, replace=False)
        if values[i] > values[j]:
            i, j = j, i
        delta = float(rng.uniform(0.0, 0.5)) * (values[j] - values[i])
        transferred = values.copy()
        transferred[i] += delta
        transferred[j] -= delta
        before = population_matrix(Dataset.from_values(values))
        after = population_matrix(Dataset.from_values(transferred))
        drop = inequality(before, theil_spec) - inequality(after, theil_spec)
        assert drop > 0, f"Theil did not strictly decrease (drop {drop:.3e})"
        assert inequality(after, pietra_spec) <= inequality(before, pietra_spec) + 1e-12

    specs = [MeasureSpec(g, p) for g in GENERATORS for p in (0.0, 0.4)]
    for _ in range(1000):
        d = random_population(rng, max_n=20, low=0.5)
        cols = population_matrix(d)
        n = len(cols.weights)
        m = int(rng.integers(1, n + 1))
        lam = rng.uniform(0.0, 1.0, (n, m))
        lam /= lam.sum(axis=1, keepdims=True)
        coarse = WeightedColumns(cols.weights @ lam, cols.shares @ lam)
        for spec in specs:
            assert inequality(coarse, spec) <= inequality(cols, spec) + 1e-12


@report("criterion 4: relabel, duplicate, scale and uniform invariances (1e-12)")
def test_04_invariances():
    rng = np.random.default_rng(SEED)
    specs = [MeasureSpec(pietra()), MeasureSpec(theil()), MeasureSpec(ge(2), 0.3)]
    for _ in range(500):
        d = random_population(rng, max_n=40, low=0.05)
        values = d.indicators
        doubled = Dataset.from_values(np.concatenate([values, values]))
        shuffled = Dataset.from_values(rng.permutation(values))
        scaled = d.scaled(float(rng.uniform(0.1, 20.0)))
        uniform = Dataset.from_values(
            np.full(int(rng.integers(1, 30)), float(rng.uniform(0.1, 50.0)))
        )
        for spec in specs:
            base = inequality(population_matrix(d), spec)
            for variant in (shuffled, doubled, scaled):
                assert abs(inequality(population_matrix(variant), spec) - base) <= 1e-12
            assert inequality(population_matrix(uniform), spec) <= 1e-12


@report("criterion 5: equal scaled sums of chains give equal inequality sums (1e-9)")
def test_05_additivity():
    rng = np.random.default_rng(SEED)
    gens = [pietra(), theil(), ge(2)]
    for _ in range(200):
        # equal sizes and equal means make the pooled population's chain the
        # scaled sum of the two separate chains
        n = int(rng.integers(2, 25))
        a = rng.uniform(0.1, 10.0, n)
        b = rng.uniform(0.1, 10.0, n)
        b *= a.mean() / b.mean()
        pooled = Dataset.from_values(np.concatenate([a, b]))
        za = canonical_chain(population_matrix(Dataset.from_values(a)))
        zb = canonical_chain(population_matrix(Dataset.from_values(b)))
        zp = canonical_chain(population_matrix(pooled))
        assert order(minkowski_sum([za, zb]), zp) is OrderRelation.EQUAL
        spec = MeasureSpec(gens[int(rng.integers(len(gens)))], float(rng.uniform(0, 1)))
        lhs = inequality(za.to_columns(), spec) + inequality(zb.to_columns(), spec)
        rhs = 2 * inequality(zp.to_columns(), spec)
        assert abs(lhs - rhs) <= 1e-9


@report("criterion 6: exact, consistent; single-cover partials >= 0, negatives match exact oracle")
def test_06_decomposition_properties():
    rng = np.random.default_rng(SEED)
    spec = MeasureSpec(theil())

    d_xor = Dataset(
        [1, 3, 3, 1],
        {"A": ["a1", "a1", "a2", "a2"], "B": ["b1", "b2", "b1", "b2"]},
        ["A", "B"],
    )
    named = decompose(d_xor, ["A", "B"], spec).named("A", "B")
    total = decompose(d_xor, ["A", "B"], spec).total
    assert abs(named["redundant"]) <= 1e-12
    assert abs(named["unique_A"]) <= 1e-12 and abs(named["unique_B"]) <= 1e-12
    assert abs(named["synergetic"] - total) <= 1e-12

    d_red = Dataset([1, 3], {"A": ["a1", "a2"], "B": ["b1", "b2"]}, ["A", "B"])
    named = decompose(d_red, ["A", "B"], spec).named("A", "B")
    total = decompose(d_red, ["A", "B"], spec).total
    assert abs(named["redundant"] - total) <= 1e-12
    assert abs(named["unique_A"]) <= 1e-12 and abs(named["unique_B"]) <= 1e-12
    assert abs(named["synergetic"]) <= 1e-12

    # smallest two-attribute instance of negative synergy in the artifact
    d_neg = Dataset(
        [66.45961027305714, 58.75227678846315, 32.08752232429392, 80.35623929982661],
        {"A": ["a2", "a2", "a0", "a2"], "B": ["b0", "b0", "b0", "b1"]},
        ["A", "B"],
    )
    synergy = decompose(d_neg, ["A", "B"], spec).named("A", "B")["synergetic"]
    exact = conftest.exact_partials(d_neg, ["A", "B"], spec)[(("A", "B"),)]
    assert exact < -1e-10, f"oracle synergy {exact:.3e} is not negative"
    assert abs(synergy - exact) <= 1e-12, f"synergy {synergy!r} vs oracle {exact!r}"
    assert synergy >= conftest.exact_synergy_bound(d_neg, "A", "B", spec) - 1e-10

    # a node with at most one lower cover gamma has partial cum(node) -
    # cum(gamma), non-negative by monotonicity, which decompose keeps in
    # floats by closing cumulatives upward; elsewhere partials may be negative
    guaranteed = {}
    counterexamples = []
    for k in range(10_000):
        n_attrs = 3 if k % 10 == 0 else 2
        gen = ge(2) if k % 7 == 0 else theil()
        d = random_dataset(rng, n_attrs=n_attrs, max_n=30, max_cats=3, low=0.05)
        attrs = list(d.attribute_names)
        res = decompose(d, attrs, MeasureSpec(gen))
        cum = {node: c for node, c, _ in res.nodes}
        assert abs(sum(p for _, _, p in res.nodes) - res.total) <= 1e-10
        for alpha in cum:
            for beta in cum:
                if alpha != beta and alpha.precedes(beta):
                    assert cum[alpha] <= cum[beta]
        scaled = decompose(d.scaled(11.7), attrs, MeasureSpec(gen))
        for (n1, c1, p1), (n2, c2, p2) in zip(res.nodes, scaled.nodes):
            assert n1 == n2 and abs(c1 - c2) <= 1e-10 and abs(p1 - p2) <= 1e-10

        if n_attrs not in guaranteed:
            nodes, covers = redundancy_lattice(attrs)
            lower = Counter(beta for _, beta in covers)
            guaranteed[n_attrs] = {node for node in nodes if lower[node] <= 1}
        for node, _, part in res.nodes:
            if node in guaranteed[n_attrs]:
                assert part >= 0.0, f"partial {part!r} at single-cover node {node}"

        negatives = [(node, part) for node, _, part in res.nodes if part < -1e-10]
        exact = conftest.exact_partials(d, attrs, MeasureSpec(gen)) if negatives else {}
        for node, part in negatives:
            want = exact[node.sources]
            assert want < -1e-10 and abs(part - want) <= 1e-10, (
                f"partial {part!r} at {node}, exact oracle gives {want!r}"
            )
            counterexamples.append(
                {
                    "generator": gen.name,
                    "node": node.label(),
                    "partial": part,
                    "indicators": d.indicators.tolist(),
                    "attributes": {a: d.attributes[a].tolist() for a in attrs},
                }
            )
        if n_attrs == 2:
            bound = conftest.exact_synergy_bound(d, "A", "B", MeasureSpec(gen))
            synergy = res.named("A", "B")["synergetic"]
            assert synergy >= bound - 1e-10, f"synergy {synergy:.3e} below bound {bound:.3e}"
    artifact = {
        "count": len(counterexamples),
        "worst_partial": min((c["partial"] for c in counterexamples), default=0.0),
        "examples": counterexamples[:50],
    }
    COUNTEREXAMPLES.parent.mkdir(exist_ok=True)
    with open(COUNTEREXAMPLES, "w") as fh:
        json.dump(artifact, fh, indent=2)
    # the draws are seeded, so the negatives found are fixed
    assert artifact["count"] == 812, f"{artifact['count']} negative partials, expected 812"
    assert artifact["worst_partial"] == pytest.approx(-0.0425160976382396, rel=1e-12)


@report("criterion 7: Atkinson agrees with its transformed entropy route (1e-10)")
def test_07_atkinson_consistency():
    rng = np.random.default_rng(SEED)
    epsilons = (0.25, 0.5, 1.0, 2.0)
    for _ in range(500):
        d = random_population(rng, max_n=40, low=0.05)
        cols = population_matrix(d)
        for eps in epsilons:
            via_entropy = atkinson_transform(
                inequality(cols, MeasureSpec(ge(1 - eps))), eps
            )
            assert abs(atkinson(d, eps) - via_entropy) <= 1e-10
    for _ in range(100):
        d = random_dataset(rng, n_attrs=2, max_n=30, low=0.05)
        # the decomposition total measures the population grouped by both
        # attributes jointly: replace each value by its group mean
        labels = np.char.add(d.attributes["A"], np.char.add("|", d.attributes["B"]))
        smoothed = d.indicators.copy()
        for lab in np.unique(labels):
            mask = labels == lab
            smoothed[mask] = smoothed[mask].mean()
        for eps in epsilons:
            res = atkinson_decompose(d, ["A", "B"], eps)
            assert abs(res.total - atkinson(Dataset.from_values(smoothed), eps)) <= 1e-10


@report("criterion 8: between plus weighted within reconstructs the total (1e-10)")
def test_08_subgroup_reconstruction():
    rng = np.random.default_rng(SEED)
    for c in (0.0, 0.5, 1.0, 2.0):
        for _ in range(250):
            d = random_dataset(rng, n_attrs=1, max_n=80, low=0.05)
            res = subgroup_decompose(d, "A", c)
            assert abs(res.reconstruction - res.total) <= 1e-10
    d = Dataset([1, 3, 2, 6], {"region": ["r1", "r1", "r2", "r2"]}, ["region"])
    res = subgroup_decompose(d, "region", 1.0)
    assert abs(res.between - 0.056633) <= 1e-5
    assert abs(res.total - 0.187445) <= 1e-5
    assert abs(res.between + (res.total - res.between) - 0.187445) <= 1e-5


@report("criterion 9: equal Shapley values, separated lattice decomposition")
def test_09_shapley_contrast():
    spec = MeasureSpec(theil())
    d_xor = Dataset(
        [1, 3, 3, 1],
        {"A": ["a1", "a1", "a2", "a2"], "B": ["b1", "b2", "b1", "b2"]},
        ["A", "B"],
    )
    d_red = Dataset([1, 3], {"A": ["a1", "a2"], "B": ["b1", "b2"]}, ["A", "B"])
    phi_xor = shapley_values(d_xor, ["A", "B"], spec)
    phi_red = shapley_values(d_red, ["A", "B"], spec)
    named_xor = decompose(d_xor, ["A", "B"], spec).named("A", "B")
    named_red = decompose(d_red, ["A", "B"], spec).named("A", "B")
    assert (
        abs(phi_xor["A"] - 0.065406) <= 1e-6
        and abs(phi_xor["B"] - 0.065406) <= 1e-6
        and abs(phi_red["A"] - 0.065406) <= 1e-6
        and abs(phi_red["B"] - 0.065406) <= 1e-6
        and named_xor["synergetic"] > 0.13
        and named_xor["redundant"] < 1e-12
        and named_red["redundant"] > 0.13
        and named_red["synergetic"] < 1e-12
    )


@report("criterion 10: large-input runtime bounds (1 s for 2 attrs, 5 s for 3)")
def test_10_performance():
    rng = np.random.default_rng(SEED)
    n = 100_000
    values = rng.uniform(0.1, 100.0, n)
    cats = [f"c{j}" for j in range(10)]
    attrs3 = {name: rng.choice(cats, n) for name in ("A", "B", "C")}
    spec = MeasureSpec(theil())

    d2 = Dataset(values, {k: attrs3[k] for k in ("A", "B")}, ["A", "B"])
    start = time.perf_counter()
    decompose(d2, ["A", "B"], spec)
    t2 = time.perf_counter() - start
    assert t2 < 1.0, f"2-attribute decomposition took {t2:.2f} s"

    d3 = Dataset(values, attrs3, ["A", "B", "C"])
    start = time.perf_counter()
    decompose(d3, ["A", "B", "C"], spec)
    t3 = time.perf_counter() - start
    assert t3 < 5.0, f"3-attribute decomposition took {t3:.2f} s"
