"""Reference values and output checks, written without ineqlab.

Every reference is computed here from the generated values and level
codes: textbook formulas for the population measures, and a per-cell
table (count, sum, sum of squares for each joint combination of levels)
for everything between-group. Each `check_*` raises `CheckFailed` with
the reason when an output is wrong; the program's output arrives as plain
floats, tuples and arrays.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

REL_TOL = 1e-9  # relative agreement with a reference value
ABS_TOL = 1e-12  # absolute floor under REL_TOL, for values near zero
PARTIAL_FLOOR = -1e-10  # guaranteed non-negative partials may dip this far
HEIGHT_TOL = 1e-8  # vertical distance between chain and reference curve


class CheckFailed(Exception):
    pass


def _expect_close(what: str, got: float, want: float) -> None:
    if not math.isfinite(got) or abs(got - want) > REL_TOL * max(abs(got), abs(want)) + ABS_TOL:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


class Reference:
    """Oracle for one population (see `inputs.Population`)."""

    def __init__(self, pop):
        self.values = pop.values
        self.names = tuple(pop.names)
        self.label = pop.label
        self.levels = tuple(pop.levels)
        self.n = pop.values.size
        self.total = float(pop.values.sum())
        joint = np.ravel_multi_index(tuple(pop.codes.T), self.levels)
        size = math.prod(self.levels)
        shape = self.levels
        self._count = np.bincount(joint, minlength=size).reshape(shape).astype(float)
        self._sum = np.bincount(joint, weights=pop.values, minlength=size).reshape(shape)
        self._sumsq = np.bincount(joint, weights=pop.values**2, minlength=size).reshape(shape)

    def _cells(self, attrs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Count, sum and sum of squares per level combination of `attrs`."""
        drop = tuple(j for j, a in enumerate(self.names) if a not in attrs)
        return tuple(t.sum(axis=drop).ravel() for t in (self._count, self._sum, self._sumsq))

    def columns(self, attrs) -> tuple[np.ndarray, np.ndarray]:
        """(population share, indicator share) of each non-empty group, by slope."""
        count, total, _ = self._cells(attrs)
        keep = count > 0
        w, s = count[keep] / self.n, total[keep] / self.total
        order = np.argsort(-(s / w), kind="stable")
        return w[order], s[order]

    # -- textbook population measures -------------------------------------

    def theil(self) -> float:
        r = self.values / (self.total / self.n)
        r = r[r > 0]
        return float(np.sum(r * np.log(r)) / self.n)

    def pietra(self) -> float:
        mean = self.total / self.n
        return float(np.abs(self.values - mean).sum() / (2 * self.n * mean))

    def ge2(self) -> float:
        r = self.values / (self.total / self.n)
        return float(0.5 * (np.mean(r**2) - 1.0))

    def ge2_p(self, p: float) -> float:
        """I_{f,p} from its definition, f(t) = (1/t - t)/2 (GE with c = 2).

        Column i is (w, s) = (1/n, x_i/total); its term is a f(w/a) with
        a = p w + (1-p) s, which is (a^2/w - w)/2.
        """
        w = 1.0 / self.n
        a = p * w + (1 - p) * self.values / self.total
        return float(np.sum(a * a / w - w) / 2)

    def atkinson1(self) -> float:
        if np.any(self.values == 0):
            return 1.0  # the geometric mean is zero
        return float(1.0 - math.exp(np.mean(np.log(self.values))) / (self.total / self.n))

    def measure(self, text: str) -> float:
        return {
            "theil": self.theil,
            "pietra": self.pietra,
            "ge:2@p=0.25": lambda: self.ge2_p(0.25),
            "atkinson:1": self.atkinson1,
        }[text]()

    # -- between-group values ------------------------------------------------

    def theil_between(self, attrs) -> float:
        """Theil of the group means: sum of s log(s/w) over groups."""
        if not attrs:
            return 0.0
        w, s = self.columns(attrs)
        pos = s > 0
        return float(np.sum(s[pos] * np.log(s[pos] / w[pos])))

    def ge2_groups(self, attr) -> dict[int, tuple[float, float, float, float]]:
        """Per non-empty level of `attr`: population share, indicator share,
        within-group GE(2) and its weight share^(-1) * ishare^2."""
        count, total, sumsq = self._cells((attr,))
        out = {}
        for code in np.nonzero(count)[0].tolist():
            w, s = count[code] / self.n, total[code] / self.total
            if total[code] > 0:
                mean = total[code] / count[code]
                within = 0.5 * (sumsq[code] / count[code] / mean**2 - 1.0)
                out[code] = (w, s, within, s * s / w)
            else:
                out[code] = (w, s, 0.0, 0.0)
        return out

    def ge2_between(self, attr) -> float:
        groups = self.ge2_groups(attr).values()
        return float(0.5 * (sum(s * s / w for w, s, _, _ in groups) - 1.0))

    def shapley(self, attrs) -> dict[str, float]:
        n = len(attrs)
        phi = {}
        for a in attrs:
            others = [x for x in attrs if x != a]
            phi[a] = sum(
                math.factorial(r) * math.factorial(n - r - 1) / math.factorial(n)
                * (self.theil_between(set(c) | {a}) - self.theil_between(set(c)))
                for r in range(n)
                for c in combinations(others, r)
            )
        return phi


# -- the redundancy lattice, rebuilt from its definition ---------------------


def _leq(a: frozenset, b: frozenset) -> bool:
    """a precedes b when every source of b contains some source of a."""
    return all(any(s <= t for s in a) for t in b)


@lru_cache(maxsize=None)
def lattice(names: tuple[str, ...]) -> dict[frozenset, int]:
    """Antichains of non-empty attribute sets, each with its lower-cover count."""
    subsets = [frozenset(c) for r in range(1, len(names) + 1) for c in combinations(names, r)]
    nodes = [
        frozenset(combo)
        for r in range(1, len(subsets) + 1)
        for combo in combinations(subsets, r)
        if not any(x < y or y < x for x, y in combinations(combo, 2))
    ]
    below = {b: [a for a in nodes if a != b and _leq(a, b)] for b in nodes}
    return {
        b: sum(1 for a in below[b] if not any(a in below[c] for c in below[b]))
        for b in nodes
    }


# -- checks ------------------------------------------------------------------


def check_measures(ref: Reference, values: dict[str, float]) -> None:
    for text, got in values.items():
        _expect_close(f"measure {text}", got, ref.measure(text))


def check_chain(ref: Reference, vertices: np.ndarray, attrs) -> None:
    """Chain of the population grouped by `attrs` (every row its own group
    when `attrs` is empty): ends, monotone, on the reference dual Lorenz
    curve, and with the reference Theil."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or len(v) < 2:
        raise CheckFailed(f"chain has shape {v.shape}")
    if np.abs(v[0]).max() > ABS_TOL or np.abs(v[-1] - 1).max() > ABS_TOL:
        raise CheckFailed(f"chain runs from {v[0].tolist()} to {v[-1].tolist()}")
    edges = np.diff(v, axis=0)
    if edges.min() < -ABS_TOL:
        raise CheckFailed("chain is not monotone")
    if attrs:
        w, s = ref.columns(attrs)
        theil = ref.theil_between(attrs)
    else:
        s = np.sort(ref.values)[::-1] / ref.total
        w = np.full(ref.n, 1.0 / ref.n)
        theil = ref.theil()
    pos = edges[:, 1] > 0
    with np.errstate(divide="ignore"):
        chain_theil = float(np.sum(edges[pos, 1] * np.log(edges[pos, 1] / edges[pos, 0])))
    _expect_close("Theil of the chain", chain_theil, theil)
    rx = np.concatenate([[0.0], np.cumsum(w)])
    ry = np.concatenate([[0.0], np.cumsum(s)])
    gap = max(
        np.abs(np.interp(rx, v[:, 0], v[:, 1]) - ry).max(),
        np.abs(np.interp(v[:, 0], rx, ry) - v[:, 1]).max(),
    )
    if gap > HEIGHT_TOL:
        raise CheckFailed(f"chain is {gap:.3g} off the reference curve")


def check_decomposition(ref: Reference, nodes, total: float) -> None:
    """`nodes` holds (sources, cumulative, partial) per lattice node."""
    attrs = tuple(sorted({a for sources, _, _ in nodes for src in sources for a in src}))
    covers = lattice(attrs)
    got = {frozenset(frozenset(s) for s in sources): (cum, part) for sources, cum, part in nodes}
    if set(got) != set(covers) or len(got) != len(nodes):
        raise CheckFailed(f"lattice has {len(nodes)} nodes, expected {len(covers)}")
    _expect_close("sum of partials", math.fsum(p for _, p in got.values()), total)
    _expect_close("total", total, ref.theil_between(attrs))
    for node, (cum, part) in got.items():
        if len(node) == 1:
            (src,) = node
            _expect_close(f"cumulative of [{','.join(sorted(src))}]", cum, ref.theil_between(src))
        if covers[node] <= 1 and part < PARTIAL_FLOOR:
            raise CheckFailed(f"partial {part!r} < 0 at a node with {covers[node]} lower covers")


def check_shapley(ref: Reference, phi: dict[str, float], synergy: dict[tuple[str, str], float]):
    attrs = tuple(phi)
    _expect_close("efficiency (sum of Shapley values)", math.fsum(phi.values()), ref.theil_between(attrs))
    for a, want in ref.shapley(attrs).items():
        _expect_close(f"Shapley value of {a}", phi[a], want)
    if len(synergy) != len(attrs) * (len(attrs) - 1) // 2:
        raise CheckFailed(f"{len(synergy)} synergy terms for {len(attrs)} attributes")
    for (a, b), got in synergy.items():
        want = ref.theil_between((a, b)) - ref.theil_between((a,)) - ref.theil_between((b,))
        _expect_close(f"synergy {a}|{b}", got, want)


def check_subgroup(ref: Reference, attr: str, between, within: dict[str, tuple], recon, total):
    """GE(2) by `attr`; `within` maps a level label to (weight, value)."""
    _expect_close("reconstruction", recon, total)
    _expect_close("total GE(2)", total, ref.ge2())
    _expect_close("between GE(2)", between, ref.ge2_between(attr))
    j = ref.names.index(attr)
    want = {ref.label(j, code): g for code, g in ref.ge2_groups(attr).items()}
    if set(within) != set(want):
        raise CheckFailed(f"groups {sorted(within)}, expected {sorted(want)}")
    for label, (weight, value) in within.items():
        _, _, w_value, w_weight = want[label]
        _expect_close(f"weight of group {label}", weight, w_weight)
        _expect_close(f"GE(2) within group {label}", value, w_value)
