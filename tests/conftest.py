"""Shared fixtures and independent oracle helpers."""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from ineqlab import (
    Dataset,
    DegeneratePopulation,
    Generator,
    InvalidMeasure,
    MeasureSpec,
    WeightedColumns,
)
from ineqlab.measures import _r


# verdict lines from the acceptance suite, echoed after the test run;
# fd-level capture would swallow prints made inside the tests themselves
VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    for line in VERDICTS:
        terminalreporter.write_line(line)


@pytest.fixture
def d_xor() -> Dataset:
    """Attributes individually uninformative; only jointly do they separate."""
    return Dataset(
        [1, 3, 3, 1],
        {"A": ["a1", "a1", "a2", "a2"], "B": ["b1", "b2", "b1", "b2"]},
        ["A", "B"],
    )


@pytest.fixture
def d_red() -> Dataset:
    """Both attributes carry the identical grouping."""
    return Dataset([1, 3], {"A": ["a1", "a2"], "B": ["b1", "b2"]}, ["A", "B"])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250823)


def random_dataset(rng, n_attrs=2, max_n=200, max_cats=4, low=0.01, high=100.0) -> Dataset:
    n = int(rng.integers(4, max_n + 1))
    names = [chr(65 + i) for i in range(n_attrs)]
    attrs = {
        name: rng.choice([f"{name.lower()}{j}" for j in range(int(rng.integers(2, max_cats + 1)))], n)
        for name in names
    }
    return Dataset(rng.uniform(low, high, n), attrs, names)


def pairs(cols: WeightedColumns) -> list[tuple[float, float]]:
    """The (weight, share) columns as a list of float pairs."""
    return list(zip(cols.weights.tolist(), cols.shares.tolist()))


def classic_index(pop: Dataset, gen: Generator) -> float:
    """Direct textbook evaluation of the classic index named by ``gen``:
    an independent oracle for ``inequality`` at p = 0."""
    s = pop.indicators
    n = len(pop)
    mean = pop.mean
    if mean <= 0:
        raise DegeneratePopulation("population mean is zero")
    rel = s / mean
    if gen.name == "pietra":
        return float(np.abs(s - mean).sum() / (2 * n * mean))
    if gen.name == "theil":
        pos = rel > 0
        return float((rel[pos] * np.log(rel[pos])).sum() / n)
    if gen.name == "mld":
        if np.any(rel == 0):
            return math.inf
        return float(-np.log(rel).sum() / n)
    if gen.c is not None:
        c = gen.c
        if np.any(rel == 0) and c < 0:
            return math.inf
        with np.errstate(divide="ignore"):
            powered = rel**c
        if np.any(np.isinf(powered)):
            return math.inf
        return float((powered - 1).sum() / (n * c * (c - 1)))
    raise InvalidMeasure(f"no classic formula for generator {gen.name!r}")


def upper_hull(points: np.ndarray) -> np.ndarray:
    """Upper convex hull by the monotone-chain scan; independent of zonogon.py."""
    pts = np.asarray(points, dtype=float)
    pts = pts[np.lexsort((-pts[:, 1], pts[:, 0]))]
    hull: list[np.ndarray] = []
    for p in pts:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            if cross >= -1e-15:
                hull.pop()
            else:
                break
        if hull and abs(hull[-1][0] - p[0]) < 1e-15:
            if p[1] <= hull[-1][1]:
                continue
            hull.pop()
        hull.append(p)
    return np.array(hull)


def chain_value(vertices: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Plain piecewise-linear interpolation of a vertex chain."""
    v = np.asarray(vertices, dtype=float)
    return np.interp(x, v[:, 0], v[:, 1])


# Exact oracle for the lattice decomposition; independent of zonogon.py.
# Chains are lists of (Fraction x, Fraction y) vertices from (0,0) to (1,1);
# every construction step is exact and floats appear only inside f.


def exact_chain(pop: Dataset, attrs) -> list[tuple[Fraction, Fraction]]:
    """Concave between-group chain of `pop` grouped jointly by `attrs`."""
    # floats are dyadic rationals: scaling all of them to one power-of-two
    # denominator turns every sum into exact integer arithmetic
    ratios = [v.as_integer_ratio() for v in pop.indicators.tolist()]
    denom = max(d for _, d in ratios)
    groups: dict[tuple, list[int]] = {}
    for i, (num, d) in enumerate(ratios):
        key = tuple(str(pop.attributes[a][i]) for a in attrs)
        count_sum = groups.setdefault(key, [0, 0])
        count_sum[0] += 1
        count_sum[1] += num * (denom // d)
    n = len(pop)
    grand = sum(total for _, total in groups.values())
    edges = [(Fraction(count, n), Fraction(total, grand)) for count, total in groups.values()]
    edges.sort(key=lambda e: e[1] / e[0], reverse=True)
    chain = [(Fraction(0), Fraction(0))]
    for dx, dy in edges:
        x, y = chain[-1]
        chain.append((x + dx, y + dy))
    return _prune_exact(chain)


def _cross(a, b, c) -> Fraction:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _prune_exact(points):
    out = [points[0]]
    for p in points[1:]:
        if len(out) >= 2 and _cross(out[-2], out[-1], p) == 0:
            out.pop()
        out.append(p)
    return out


def _exact_value(chain, x: Fraction) -> Fraction:
    i = min(bisect_right([v[0] for v in chain], x), len(chain) - 1)
    (x0, y0), (x1, y1) = chain[i - 1], chain[i]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def exact_envelope(c1, c2, pick):
    """Pointwise `pick` (min or max) of two chains, crossings inserted."""
    xs = sorted({x for x, _ in c1} | {x for x, _ in c2})
    points = []
    prev = None
    for x in xs:
        y1, y2 = _exact_value(c1, x), _exact_value(c2, x)
        if prev is not None and prev[1] * (y1 - y2) < 0:
            px, d, py1 = prev
            t = d / (d - (y1 - y2))
            points.append((px + t * (x - px), py1 + t * (y1 - py1)))
        points.append((x, pick(y1, y2)))
        prev = (x, y1 - y2, y1)
    return _prune_exact(points)


def exact_upper_hull(points):
    """Concave majorant of the points: upper hull with exact turn tests."""
    hull = []
    for p in sorted(set(points)):
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) >= 0:
            hull.pop()
        hull.append(p)
    return hull


def generator_at(f: Generator, t) -> np.ndarray:
    """f at each t >= 0, its limit at zero where t is 0: r of the columns
    (t, 1) at p = 0, where a is 1."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return _r(t, np.ones_like(t), MeasureSpec(f))


def exact_measure(chain, spec) -> float:
    """Sum of a*f(x/a) over the chain's edges, a = p*x + (1-p)*y > 0."""
    p = Fraction(spec.p)
    weights, ratios = [], []
    for (x0, y0), (x1, y1) in zip(chain, chain[1:]):
        dx, dy = x1 - x0, y1 - y0
        a = p * dx + (1 - p) * dy
        weights.append(float(a))
        ratios.append(float(dx / a))
    return math.fsum(np.array(weights) * generator_at(spec.f, ratios))


def exact_partials(pop: Dataset, attrs, spec) -> dict[tuple, float]:
    """Moebius-inverted partial per antichain of attribute subsets.

    Keys are antichains in the canonical form of `LatticeNode.sources`.
    """
    subsets = [c for r in range(1, len(attrs) + 1) for c in combinations(sorted(attrs), r)]
    antichains = [
        tuple(sorted(combo))
        for r in range(1, len(subsets) + 1)
        for combo in combinations(subsets, r)
        if not any(set(s) < set(t) or set(t) < set(s) for s, t in combinations(combo, 2))
    ]
    chains = {s: exact_chain(pop, s) for s in subsets}
    partials: dict[tuple, float] = {}

    def below(alpha, beta):
        return alpha != beta and all(any(set(s) <= set(t) for s in alpha) for t in beta)

    # fewer predecessors first is a topological order
    preds = {b: [a for a in antichains if below(a, b)] for b in antichains}
    for beta in sorted(antichains, key=lambda b: len(preds[b])):
        meet = chains[beta[0]]
        for source in beta[1:]:
            meet = exact_envelope(meet, chains[source], min)
        cumulative = exact_measure(meet, spec)
        partials[beta] = cumulative - math.fsum(partials[a] for a in preds[beta])
    return partials


def exact_synergy_bound(pop: Dataset, a: str, b: str, spec) -> float:
    """I(join) - I(max) of the two single-attribute chains.

    Two-attribute synergy equals I(Z_ab) - I(max(Z_a, Z_b)) and the joint
    chain contains the join (the concave hull of the max), so synergy is
    at least this non-positive gap.
    """
    za, zb = exact_chain(pop, (a,)), exact_chain(pop, (b,))
    upper = exact_envelope(za, zb, max)
    return exact_measure(exact_upper_hull(upper), spec) - exact_measure(upper, spec)
