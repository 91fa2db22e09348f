"""Canonical chains, the containment order, meet and Minkowski sums."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqlab import (
    Dataset,
    LatticeNode,
    MeasureSpec,
    OrderRelation,
    WeightedColumns,
    Zonogon,
    canonical_chain,
    cumulative,
    decompose,
    grouped_columns,
    inequality,
    meet,
    minkowski_sum,
    mld,
    order,
    population_matrix,
    theil,
)
from ineqlab.zonogon import MERGE_TOL, _merge_parallel, _rest_and_slope
from conftest import chain_value, random_dataset, upper_hull


def chain_of(values):
    return canonical_chain(population_matrix(Dataset.from_values(values)))


def test_canonical_chain_two_points():
    z = canonical_chain(WeightedColumns([0.5, 0.5], [0.25, 0.75]))
    np.testing.assert_allclose(z.vertices, [[0, 0], [0.5, 0.75], [1, 1]])


def test_canonical_chain_bottom():
    z = canonical_chain(WeightedColumns([1.0], [1.0]))
    np.testing.assert_allclose(z.vertices, [[0, 0], [1, 1]])
    assert len(z.vertices) == 2


def test_canonical_chain_merges_equal_slopes():
    z = canonical_chain(WeightedColumns([0.25, 0.25, 0.5], [0.25, 0.25, 0.5]))
    np.testing.assert_allclose(z.vertices, [[0, 0], [1, 1]])


def test_canonical_chain_slopes_strictly_decreasing(rng):
    for _ in range(100):
        d = random_dataset(rng, max_n=50)
        e = canonical_chain(population_matrix(d)).edges
        slopes = e[:, 1] / e[:, 0]
        assert np.all(np.diff(slopes) < 0)


def test_canonical_chain_against_hull_oracle(rng):
    # the chain must be the upper hull of all subset sums of the columns
    for _ in range(30):
        d = random_dataset(rng, max_n=10)
        cols = population_matrix(d)
        z = canonical_chain(cols)
        vectors = np.column_stack([cols.weights, cols.shares])
        sums = np.array(
            [np.dot(mask, vectors) for mask in product([0, 1], repeat=len(vectors))]
        )
        hull = upper_hull(sums)
        np.testing.assert_allclose(z.vertices, hull, atol=1e-12)


def test_order_bottom_below_everything(rng):
    zb = canonical_chain(WeightedColumns([1.0], [1.0]))
    for _ in range(20):
        z = canonical_chain(population_matrix(random_dataset(rng)))
        assert order(zb, z) in (OrderRelation.EQUAL, OrderRelation.STRICTLY_BELOW)


def test_order_pigou_dalton_transfer():
    assert order(chain_of([1.5, 2.5]), chain_of([1, 3])) is OrderRelation.STRICTLY_BELOW


def test_order_incomparable_crossing_chains():
    v1 = np.array([[0, 0], [0.2, 0.6], [1, 1]], dtype=float)
    v2 = np.array([[0, 0], [0.6, 0.9], [1, 1]], dtype=float)
    z1, z2 = Zonogon(v1, np.diff(v1, axis=0)), Zonogon(v2, np.diff(v2, axis=0))
    assert order(z1, z2) is OrderRelation.INCOMPARABLE


def test_order_matches_dense_comparison_oracle(rng):
    xs = np.linspace(0, 1, 2001)
    for _ in range(50):
        z1 = canonical_chain(population_matrix(random_dataset(rng, max_n=20)))
        z2 = canonical_chain(population_matrix(random_dataset(rng, max_n=20)))
        y1 = chain_value(z1.vertices, xs)
        y2 = chain_value(z2.vertices, xs)
        below = bool(np.all(y1 <= y2 + 1e-9))
        above = bool(np.all(y2 <= y1 + 1e-9))
        expected = {
            (True, True): OrderRelation.EQUAL,
            (True, False): OrderRelation.STRICTLY_BELOW,
            (False, True): OrderRelation.STRICTLY_ABOVE,
            (False, False): OrderRelation.INCOMPARABLE,
        }[(below, above)]
        assert order(z1, z2) is expected


def test_order_is_partial_order(rng):
    chains = [canonical_chain(population_matrix(random_dataset(rng, max_n=15))) for _ in range(15)]
    for z in chains:
        assert order(z, z) is OrderRelation.EQUAL
    for z1, z2 in product(chains, repeat=2):
        r12, r21 = order(z1, z2), order(z2, z1)
        if r12 is OrderRelation.STRICTLY_BELOW:
            assert r21 is OrderRelation.STRICTLY_ABOVE
    for z1, z2, z3 in zip(chains, chains[1:], chains[2:]):
        if (
            order(z1, z2) is OrderRelation.STRICTLY_BELOW
            and order(z2, z3) is OrderRelation.STRICTLY_BELOW
        ):
            assert order(z1, z3) is OrderRelation.STRICTLY_BELOW


def test_meet_idempotent_and_bottom(rng):
    zb = canonical_chain(WeightedColumns([1.0], [1.0]))
    z = chain_of([1, 3, 7])
    assert order(meet(z, z), z) is OrderRelation.EQUAL
    assert order(meet(z, zb), zb) is OrderRelation.EQUAL


def test_meet_crossing_example():
    v1 = np.array([[0, 0], [0.2, 0.6], [1, 1]], dtype=float)
    v2 = np.array([[0, 0], [0.6, 0.9], [1, 1]], dtype=float)
    z1, z2 = Zonogon(v1, np.diff(v1, axis=0)), Zonogon(v2, np.diff(v2, axis=0))
    m = meet(z1, z2)
    np.testing.assert_allclose(m.vertices, [[0, 0], [0.5, 0.75], [1, 1]], atol=1e-12)


def test_meet_matches_pointwise_min_oracle(rng):
    xs = np.linspace(0, 1, 2001)
    for _ in range(50):
        z1 = canonical_chain(population_matrix(random_dataset(rng, max_n=20)))
        z2 = canonical_chain(population_matrix(random_dataset(rng, max_n=20)))
        m = meet(z1, z2)
        want = np.minimum(chain_value(z1.vertices, xs), chain_value(z2.vertices, xs))
        np.testing.assert_allclose(chain_value(m.vertices, xs), want, atol=1e-12)


def test_meet_is_greatest_lower_bound(rng):
    for _ in range(30):
        z1 = canonical_chain(population_matrix(random_dataset(rng, max_n=15)))
        z2 = canonical_chain(population_matrix(random_dataset(rng, max_n=15)))
        z3 = canonical_chain(population_matrix(random_dataset(rng, max_n=15)))
        m = meet(z1, z2)
        assert order(m, z1) in (OrderRelation.EQUAL, OrderRelation.STRICTLY_BELOW)
        assert order(m, z2) in (OrderRelation.EQUAL, OrderRelation.STRICTLY_BELOW)
        below_both = order(z3, z1) in (
            OrderRelation.EQUAL,
            OrderRelation.STRICTLY_BELOW,
        ) and order(z3, z2) in (OrderRelation.EQUAL, OrderRelation.STRICTLY_BELOW)
        if below_both:
            assert order(z3, m) in (OrderRelation.EQUAL, OrderRelation.STRICTLY_BELOW)


def test_meet_commutative(rng):
    for _ in range(20):
        z1 = canonical_chain(population_matrix(random_dataset(rng, max_n=12)))
        z2 = canonical_chain(population_matrix(random_dataset(rng, max_n=12)))
        assert order(meet(z1, z2), meet(z2, z1)) is OrderRelation.EQUAL


def test_meet_absorption():
    small = chain_of([1.5, 2.5])
    big = chain_of([1, 3])
    assert order(meet(small, big), small) is OrderRelation.EQUAL


# A seeded random population (74 rows, 11 zero incomes, attributes of 5, 5
# and 4 levels). Differencing the vertices of a meet left an edge a few ulps
# below zero, and Theil `decompose` raised NegativeComponent.
ULP_VALUES = [
    5.914468514039799, 0.6085561048368002, 0.29931842817395554, 2.967540927197827,
    0.052579907912910506, 0.14733466875408188, 0.12109213966705655, 4.0174705369918025,
    0.0, 0.12811447183376318, 3.112603237495331, 0.3293109519955484,
    0.5094045104715891, 0.45217230369457034, 12.30743645526132, 0.5004950560988856,
    0.7472044243091751, 0.4261585816549304, 2.6129339704874535, 3.3892349137479445,
    0.6456134285804372, 0.3006002892554432, 0.7933197349326814, 2.1228480517554384,
    1.7205961900589342, 0.3638756713599493, 0.2736920490409908, 1.4306614513388374,
    1.4605430318766774, 0.9796245968752495, 0.19182485330343274, 4.861474211787496,
    2.022859859335068, 0.38396092104908813, 1.1513057214817743, 0.0,
    0.7520702560215682, 1.286631908971068, 0.0, 1.7420750020593183,
    0.1616378226668035, 0.49095194907955925, 0.357872906959616, 2.2439434782626586,
    0.0, 0.3703979449582619, 0.58515182592958, 0.0,
    0.2125266092490391, 0.0, 9.481958075261366, 5.456790928934794,
    0.7562680399368862, 4.400123363210821, 1.1725752334020922, 0.3406547709512056,
    0.0, 0.22429339908723164, 0.0, 0.5776625125066073,
    4.228207825998051, 0.5796933802349122, 0.0, 1.5163308262819948,
    0.0, 1.8260704875129696, 4.5949301184069125, 0.639712938911822,
    0.0, 0.5721361936034638, 3.4800541720920135, 0.7469281132845249,
    2.1879457856299145, 0.37210644316284197,
]
# the level of A, B and C per row
ULP_CODES = (
    "140 410 310 002 033 121 020 212 011 142 430 110 410 001 141 440 401 122 120 131 "
    "201 023 032 203 002 313 310 101 441 041 011 200 340 441 003 243 322 043 420 113 "
    "012 322 313 223 233 210 023 423 343 233 130 243 423 021 333 212 341 110 131 442 "
    "242 243 442 410 141 243 342 343 042 402 130 202 432 223"
).split()


def test_meet_leaves_no_ulp_residue():
    attrs = {a: [f"{a.lower()}{row[j]}" for row in ULP_CODES] for j, a in enumerate("ABC")}
    d = Dataset(ULP_VALUES, attrs, ["A", "B", "C"])
    spec = MeasureSpec(theil())
    result = decompose(d, ["A", "B", "C"], spec)
    assert sum(part for _, _, part in result.nodes) == pytest.approx(result.total, abs=1e-12)
    assert result.total == pytest.approx(inequality(grouped_columns(d, ["A", "B", "C"]), spec), abs=1e-12)
    chains = {a: canonical_chain(grouped_columns(d, [a])) for a in "ABC"}
    for z1, z2 in product(chains.values(), repeat=2):
        assert np.all(meet(z1, z2).edges >= 0)


@pytest.mark.parametrize("values, a, b", [
    # the last edge of the meet came out with a 2-ulp share
    ([0.0, 5.0, 2.0, 1.0, 0.0], ["a2", "a0", "a1", "a0", "a2"], ["b2", "b0", "b0", "b0", "b1"]),
    # a crossing inserted next to a vertex: a 10-ulp share
    ([2.0, 0.0, 0.0, 3.0, 0.0], ["a2", "a0", "a2", "a2", "a0"], ["b2", "b1", "b1", "b0", "b0"]),
])
def test_meet_of_infinite_mld_sources_stays_infinite(values, a, b):
    d = Dataset(values, {"A": a, "B": b}, ["A", "B"])
    spec = MeasureSpec(mld())
    assert inequality(grouped_columns(d, ["A"]), spec) == np.inf
    assert inequality(grouped_columns(d, ["B"]), spec) == np.inf
    assert cumulative(LatticeNode.of(("A",), ("B",)), d, spec) == np.inf


@pytest.mark.parametrize("values, a, b", [
    # group a's share, 1.1e-14, keeps two digits as a difference of heights
    # near 1; taken as zero, it made the MLD of the bottom node infinite
    ([1e-13, 2, 1, 3, 1, 2], list("abbccc"), list("xyzyzy")),
    # over the last piece the two chains' heights differ by about an ulp;
    # their rests 1 - y, summed from the top, tell which one is lower
    (
        [0.06901270724557172, 3.2565591631430577e-16, 1.6682026798455823e-15,
         1.8911414534398072, 7.086251587740464e-16],
        ["a1", "a2", "a2", "a3", "a2"],
        ["b3", "b2", "b2", "b4", "b3"],
    ),
])
def test_meet_keeps_a_tiny_share(values, a, b):
    d = Dataset(values, {"A": a, "B": b}, ["A", "B"])
    spec = MeasureSpec(mld())
    result = decompose(d, ["A", "B"], spec)
    cum = {node: c for node, c, _ in result.nodes}
    part = {node: p for node, _, p in result.nodes}
    bottom = cum[LatticeNode.of(("A",), ("B",))]
    assert np.isfinite(bottom)
    single = [inequality(grouped_columns(d, [a]), spec) for a in "AB"]
    assert bottom <= min(single) * (1 + 1e-12)
    only_a = LatticeNode.of(("A",))
    assert part[only_a] >= -1e-12 * cum[only_a]


# A seeded random population (20 rows, 4 zero incomes, attributes of 5, 4
# and 5 levels). A meet in its decomposition has a piece of share 1.7e-7 at
# y = 0.998 over a corner that collinearity pruning dropped: the slope of a
# single source edge misses its share by 5 %, and the shares no longer sum
# to one.
CORNER_VALUES = [
    0.0, 0.0, 6.636355392967968, 0.0, 5.183526737778849, 0.09087833593869209,
    0.4110571977691573, 5.464044168943363, 6.877592553760349, 0.09088112074057889,
    1.0678634732073546, 20.79669791189911, 0.12977659492423657, 0.0, 0.343881916966315,
    1.1118338236057796, 0.7305349897284902, 7.0078698254907765, 0.41546304985274923,
    0.09554196054976681,
]
CORNER_CODES = "332 410 201 302 124 102 434 024 114 304 330 414 414 214 133 114 411 224 124 220"


def test_meet_piece_over_a_pruned_corner_keeps_its_share():
    codes = CORNER_CODES.split()
    attrs = {a: [f"{a.lower()}{row[j]}" for row in codes] for j, a in enumerate("ABC")}
    d = Dataset(CORNER_VALUES, attrs, ["A", "B", "C"])
    result = decompose(d, ["A", "B", "C"], MeasureSpec(theil()))
    assert sum(part for _, _, part in result.nodes) == pytest.approx(result.total, abs=1e-12)


def test_minkowski_single_and_bottom():
    z = chain_of([1, 3])
    zb = canonical_chain(WeightedColumns([1.0], [1.0]))
    assert order(minkowski_sum([z]), z) is OrderRelation.EQUAL
    assert len(minkowski_sum([zb, zb]).vertices) == 2
    with pytest.raises(ValueError, match="at least one zonogon"):
        minkowski_sum([])


def test_minkowski_hand_example():
    m = minkowski_sum([chain_of([1, 3]), canonical_chain(WeightedColumns([1.0], [1.0]))])
    np.testing.assert_allclose(
        m.vertices, [[0, 0], [0.25, 0.375], [0.75, 0.875], [1, 1]], atol=1e-12
    )


def test_minkowski_against_subset_sum_oracle(rng):
    for _ in range(20):
        zs = [
            canonical_chain(population_matrix(random_dataset(rng, max_n=4)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        m = minkowski_sum(zs)
        gens = np.vstack([z.edges for z in zs]) / len(zs)
        sums = np.array(
            [np.dot(mask, gens) for mask in product([0, 1], repeat=len(gens))]
        )
        hull = upper_hull(sums)
        xs = np.linspace(0, 1, 501)
        np.testing.assert_allclose(
            chain_value(m.vertices, xs), chain_value(hull, xs), atol=1e-9
        )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=20)
)
def test_canonical_chain_concave_property(values):
    z = chain_of(values)
    e = z.edges
    slopes = e[:, 1] / e[:, 0]
    assert np.all(np.diff(slopes) < 1e-9)
    assert z.vertices[0].tolist() == [0.0, 0.0]
    assert z.vertices[-1].tolist() == [1.0, 1.0]


def _merge_parallel_oracle(vectors):
    """The merge loop over numpy scalars, kept as the reference that
    `_merge_parallel` must match bit for bit."""
    if len(vectors) <= 1:
        return vectors
    out = [vectors[0].copy()]
    for v in vectors[1:]:
        u = out[-1]
        cross = u[0] * v[1] - u[1] * v[0]
        scale = max(1.0, float(np.hypot(*u) * np.hypot(*v)))
        if abs(cross) <= MERGE_TOL * scale:
            out[-1] = u + v
        else:
            out.append(v.copy())
    return np.array(out)


def _slope_sorted(vectors):
    """Nonzero vectors in the order canonical_chain gives them."""
    v = np.array(vectors, dtype=float).reshape(-1, 2)
    v = v[(v[:, 0] > 0) | (v[:, 1] > 0)]
    return v[np.argsort(-np.arctan2(v[:, 1], v[:, 0]), kind="stable")]


# zero weights (vertical columns), zero shares and a wide range of sizes
_COORD = st.one_of(st.just(0.0), st.floats(1e-9, 2.0), st.sampled_from([0.25, 0.5, 1.0]))


@st.composite
def _pooled_vectors(draw):
    """Vectors drawn with repetition from a small pool, exact duplicates,
    rescaled so that their weights and shares each sum to one; a row that
    sums to zero is set to ones."""
    pool = draw(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=6))
    v = np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30)))
    sums = v.sum(axis=0)
    v[:, sums == 0] = 1.0
    v /= np.where(sums == 0, len(v), sums)
    return _slope_sorted(v)


@st.composite
def _near_cutoff_pairs(draw):
    """Two vectors whose cross product is within a few rounding steps of
    MERGE_TOL, a few ulps of 1e-12. In slope order the cross product is
    about -1e-12; the reverse order, about +1e-12, is what rounding in the
    angles can give for nearly parallel vectors."""
    size = draw(st.sampled_from([1e-6, 1e-3]))
    ux, uy, vx = (draw(st.floats(size / 8, size)) for _ in range(3))
    vy = (MERGE_TOL + uy * vx) / ux
    steps = draw(st.integers(-4, 4))
    for _ in range(abs(steps)):
        vy = np.nextafter(vy, np.sign(steps) * np.inf)
    pair = np.array([(vx, vy), (ux, uy)])
    return pair if draw(st.booleans()) else pair[::-1].copy()


@st.composite
def _grouped_cells(draw):
    """The between-group columns of 1 to 300 records in up to 40 cells, each
    record's income its cell's mean from a small pool, so that cell means
    tie and cells of different sizes have equal slopes."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 40))
    cell = rng.integers(0, k, n)
    means = rng.choice([0.0, 0.5, 1.0, 1.3, 2.7, 1e-9], k)
    values = means[cell]
    if not values.any():
        values[0] = 1.0
    d = Dataset(values, {"A": cell.astype(str)}, ["A"])
    cols = grouped_columns(d, ["A"])
    return _slope_sorted(np.column_stack([cols.weights, cols.shares]))


@st.composite
def _minkowski_generators(draw):
    """The generators `minkowski_sum` passes to `canonical_chain`: the edges
    of 1 to 4 chains of up to 30 records, divided by the number of chains;
    incomes from a small pool with zeros tie, others are distinct."""
    incomes = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.7]), st.floats(0.01, 100.0))
    chains = []
    for _ in range(draw(st.integers(1, 4))):
        values = draw(st.lists(incomes, min_size=1, max_size=30))
        chains.append(chain_of(values if any(values) else [1.0, *values]))
    return _slope_sorted(np.vstack([z.edges for z in chains]) / len(chains))


@st.composite
def _columns_of_size_1_over_n(draw):
    """One column of weight 1/n per record, as canonical_chain sees a
    population of 1 to 10,000 records."""
    n = draw(st.integers(1, 10_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.lognormal(size=n)
    if draw(st.booleans()):  # few distinct incomes: long runs of equal slopes
        x = np.round(x, draw(st.integers(0, 2)))
    if draw(st.booleans()):  # zero incomes: zero-share columns
        x[rng.random(n) < 0.05] = 0.0
    if x.sum() == 0:
        x[0] = 1.0
    return _slope_sorted(np.column_stack([np.full(n, 1.0 / n), x / x.sum()]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _pooled_vectors(),
    _near_cutoff_pairs(),
    _columns_of_size_1_over_n(),
    _grouped_cells(),
    _minkowski_generators(),
))
def test_merge_parallel_matches_the_numpy_scalar_loop(vectors):
    assert np.array_equal(_merge_parallel(vectors), _merge_parallel_oracle(vectors))


# `meet` as it was before it made fewer numpy calls, kept verbatim as the
# oracle: its vertices and generating edges must keep their bits.


def _prune_collinear_oracle(points):
    if len(points) <= 2:
        return points
    d1 = points[1:-1] - points[:-2]
    d2 = points[2:] - points[1:-1]
    cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    scale = np.maximum(1.0, np.hypot(*d1.T) * np.hypot(*d2.T))
    keep = np.ones(len(points), dtype=bool)
    keep[1:-1] = np.abs(cross) > MERGE_TOL * scale
    return points[keep]


def _meet_oracle(z1, z2):
    xs = np.sort(np.concatenate([z1.vertices[:, 0], z2.vertices[:, 0]]))
    first = np.ones(len(xs), dtype=bool)
    first[1:] = xs[1:] != xs[:-1]
    xs = xs[first]
    y1 = z1.value_at(xs)
    y2 = z2.value_at(xs)
    d = y1 - y2
    pts_x = [xs]
    pts_y = [np.minimum(y1, y2)]
    sign_change = d[:-1] * d[1:] < 0
    if np.any(sign_change):
        i = np.nonzero(sign_change)[0]
        t = d[i] / (d[i] - d[i + 1])
        cx = xs[i] + t * (xs[i + 1] - xs[i])
        cy = y1[i] + t * (y1[i + 1] - y1[i])
        pts_x.append(cx)
        pts_y.append(cy)
    px = np.concatenate(pts_x)
    py = np.concatenate(pts_y)
    order_idx = np.argsort(px, kind="stable")
    points = np.column_stack([px, py])[order_idx]
    distinct = np.ones(len(points), dtype=bool)
    distinct[1:] = np.diff(points[:, 0]) > MERGE_TOL
    points = points[distinct]
    if points[0, 1] > 0:
        points = np.vstack([[0.0, 0.0], points])
    points = _prune_collinear_oracle(points)
    edges = np.diff(points, axis=0)
    thin = np.flatnonzero(np.abs(edges[:, 1]) <= 2.0**-20 * points[1:, 1])
    if len(thin):
        mid = (points[thin, 0] + points[thin + 1, 0]) / 2
        (rest1, slope1), (rest2, slope2) = _rest_and_slope(z1, mid), _rest_and_slope(z2, mid)
        share = edges[thin, 0] * np.where(rest1 >= rest2, slope1, slope2)
        agree = np.abs(share - edges[thin, 1]) <= MERGE_TOL * points[thin + 1, 1]
        edges[thin[agree], 1] = share[agree]
    return Zonogon(points, generators=edges)


@st.composite
def _grouped_chains(draw):
    """The chain of a few groups: counts 0-3 (a zero count gives a vertical
    edge), sums from a small pool with zeros, so that slopes tie and edges
    are horizontal; now and then the meet of two such chains."""
    def chain():
        k = draw(st.integers(1, 6))
        counts = [draw(st.integers(0, 3)) for _ in range(k)]
        sums = [draw(st.sampled_from([0.0, 1.0, 2.0, 0.5, 3.7, 1e-9])) for _ in range(k)]
        if not any(counts):
            counts[0] = 1
        if not any(sums):
            sums[-1] = 1.0
        w, s = np.array(counts, float), np.array(sums)
        return canonical_chain(WeightedColumns(w / w.sum(), s / s.sum()))

    z = chain()
    return meet(z, chain()) if draw(st.booleans()) else z


@settings(max_examples=400, deadline=None)
@given(_grouped_chains(), _grouped_chains())
def test_meet_matches_the_former_meet(z1, z2):
    got, want = meet(z1, z2), _meet_oracle(z1, z2)
    assert np.array_equal(got.vertices, want.vertices)
    assert np.array_equal(got.edges, want.edges)
