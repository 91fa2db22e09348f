"""Attribute decomposition into redundant, unique and synergetic parts.

Lattice nodes are antichains of attribute subsets. The cumulative value of
a node is the inequality of the meet of its sources' between-group
zonogons; a Moebius pass over the lattice turns cumulative values into
partial contributions that sum to the total (joint-grouping) inequality.
Also contains the classical GE subgroup decomposition used as a baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
from typing import Sequence

import numpy as np

from .errors import InfiniteMeasure, TooManyAttributes, UnknownAttribute
from .measures import MeasureSpec, _check_eps, _run_measures, atkinson_transform, ge, inequality
from .population import Dataset, _cells, _check_distinct, grouped_columns, population_matrix
from .zonogon import canonical_chain, meet_all

MAX_ATTRIBUTES = 3
# math.log(sys.float_info.max): math.exp raises OverflowError past it
_LOG_MAX_FLOAT = 709.782712893384


@dataclass(frozen=True)
class LatticeNode:
    """Antichain of sources; each source is a non-empty set of attributes."""

    sources: tuple[tuple[str, ...], ...]

    @classmethod
    def of(cls, *sources: Sequence[str]) -> "LatticeNode":
        canon = tuple(sorted(tuple(sorted(s)) for s in sources))
        return cls(canon)

    def label(self) -> str:
        return "[" + ",".join("[" + ",".join(s) + "]" for s in self.sources) + "]"

    def __str__(self) -> str:
        return self.label()

    def precedes(self, other: "LatticeNode") -> bool:
        """True when every source of `other` contains some source of self."""
        return all(any(set(s) <= set(t) for s in self.sources) for t in other.sources)


def redundancy_lattice(
    attrs: Sequence[str],
) -> tuple[list[LatticeNode], list[tuple[LatticeNode, LatticeNode]]]:
    """All antichains of non-empty attribute subsets, topologically sorted.

    Returns the nodes (predecessors first) and the covering edges of the
    lattice order.
    """
    nodes, covers, _ = _lattice_cached(tuple(attrs))
    return list(nodes), list(covers)


@lru_cache(maxsize=64)
def _lattice_cached(attrs: tuple[str, ...]):
    """Nodes, covering edges, and each node's strict predecessors as
    indices in node order."""
    attrs = list(attrs)
    if not 2 <= len(attrs) <= MAX_ATTRIBUTES:
        raise TooManyAttributes(
            f"decomposition supports 2..{MAX_ATTRIBUTES} attributes, got {len(attrs)}"
        )
    _check_distinct(attrs)
    subsets = [
        tuple(sorted(c)) for r in range(1, len(attrs) + 1) for c in combinations(attrs, r)
    ]
    nodes = []
    for r in range(1, len(subsets) + 1):
        for combo in combinations(subsets, r):
            if any(set(a) < set(b) or set(b) < set(a) for a, b in combinations(combo, 2)):
                continue
            nodes.append(LatticeNode.of(*combo))
    below = {n: [m for m in nodes if m != n and m.precedes(n)] for n in nodes}
    # strict predecessor counts grow along the order, so sorting by them is
    # a deterministic topological sort; the joint node ends up last
    nodes.sort(key=lambda n: (len(below[n]), n.sources))
    index = {n: i for i, n in enumerate(nodes)}
    preds = tuple(tuple(sorted(index[m] for m in below[n])) for n in nodes)
    # a covers b when a precedes b and precedes no other predecessor of b
    covers = tuple(
        (a, b)
        for i, a in enumerate(nodes)
        for j, b in enumerate(nodes)
        if i in preds[j] and not any(i in preds[k] for k in preds[j])
    )
    return tuple(nodes), covers, preds


@dataclass(frozen=True)
class DecompositionResult:
    """Cumulative and partial value per lattice node, plus the total."""

    nodes: tuple[tuple[LatticeNode, float, float], ...]
    total: float

    def named(self, a: str, b: str) -> dict[str, float]:
        """Two-attribute view: redundant / unique / synergetic components.

        Redundant is the bottom cumulative and each unique component is a
        difference of two cumulatives, each a node's measure raised to its
        predecessors' largest, so all three are non-negative. Synergy
        equals I(Z_ab) - I(max(Z_a, Z_b)) and can be negative. It is at
        least I(join) - I(max), where join is the concave hull of the
        pointwise max of the two single-attribute chains. Another lattice
        than that of a and b (in either order) raises UnknownAttribute.
        """
        if self.nodes[-1][0] != LatticeNode.of((a, b)):
            raise UnknownAttribute(f"the result is not the lattice of {a!r} and {b!r}")
        partial = {node: part for node, _, part in self.nodes}
        return {
            "redundant": partial[LatticeNode.of((a,), (b,))],
            f"unique_{a}": partial[LatticeNode.of((a,))],
            f"unique_{b}": partial[LatticeNode.of((b,))],
            "synergetic": partial[LatticeNode.of((a, b))],
        }


def cumulative(node: LatticeNode, pop: Dataset, spec: MeasureSpec) -> float:
    """The node's own measure: the inequality of the meet of its source
    zonogons. In a decomposition it is raised to its predecessors' largest."""
    chains = [canonical_chain(grouped_columns(pop, s)) for s in node.sources]
    return inequality(meet_all(chains).to_columns(), spec)


def _decompose(pop: Dataset, attrs: Sequence[str], spec: MeasureSpec, transform=None):
    """Cumulative per node (through `transform`, if given) closed upward,
    then a Moebius pass: each partial is the cumulative minus its strict
    predecessors' partials.

    Chains are built from the joint node down, so the Dataset sorts the
    records once. A node of several sources meets the chains of two nodes
    above it, built already: its sources but the last, and the last (the
    fold of `meet_all`, so `cumulative` has the same bits). A chain depends
    on the population only, so the Dataset keeps the last lattice measured:
    its nodes, every node's edges end to end, read-only, and where each
    node's run ends. A repeat over the same nodes makes no grouping and no
    meet; another lattice replaces it. The first infinite measure in node
    order raises. A node's cumulative is the largest of its measure and its
    strict predecessors' cumulatives.
    """
    nodes, _, preds = _lattice_cached(tuple(attrs))
    if pop._lattice is None or pop._lattice[0] != nodes:
        position = {node.sources: i for i, node in enumerate(nodes)}
        chains: list = [None] * len(nodes)
        for i in reversed(range(len(nodes))):
            s = nodes[i].sources
            if len(s) == 1:
                chains[i] = canonical_chain(grouped_columns(pop, s[0]))
            else:
                chains[i] = meet_all([chains[position[a]] for a in (s[:-1], s[-1:])])
        edges = np.concatenate([chain.edges for chain in chains])
        edges.flags.writeable = False
        pop._lattice = nodes, edges, tuple(accumulate(len(chain.edges) for chain in chains))
    _, edges, stops = pop._lattice
    measures = _run_measures(edges[:, 0], edges[:, 1], stops, spec)
    cumulatives = []
    for node, value, below in zip(nodes, measures, preds):
        if math.isinf(value):
            raise InfiniteMeasure(f"cumulative value of node {node} is infinite")
        value = value if transform is None else transform(value)
        # cumulatives are monotone on the lattice: a measure below one is rounding
        cumulatives.append(max([value, *(cumulatives[j] for j in below)]))
    partials: list[float] = []
    for cum, below in zip(cumulatives, preds):
        partials.append(cum - sum(partials[i] for i in below))
    return DecompositionResult(tuple(zip(nodes, cumulatives, partials)), cumulatives[-1])


def decompose(pop: Dataset, attrs: Sequence[str], spec: MeasureSpec) -> DecompositionResult:
    """Full lattice decomposition of the between-group inequality.

    Partials sum to the total. A node's cumulative is `cumulative(node, ...)`
    raised to its strict predecessors' largest, so cumulatives are monotone
    along the lattice order. The bottom partial is its cumulative, so it is
    non-negative, and so is the partial cum(node) - cum(gamma) of a node with
    exactly one lower cover gamma. Nodes with several lower covers can
    have negative partials; for two attributes the synergetic partial is
    at least I(join) - I(max) (see `DecompositionResult.named`).
    """
    return _decompose(pop, attrs, spec)


def atkinson_decompose(pop: Dataset, attrs: Sequence[str], eps: float) -> DecompositionResult:
    """Decompose the Atkinson index.

    Cumulative values are computed with the GE(1-eps) generator, pushed
    through the monotone Atkinson transform, and only then inverted; this
    keeps the transformed cumulatives monotone on the lattice.
    """
    _check_eps(eps)
    return _decompose(pop, attrs, MeasureSpec(ge(1.0 - eps)), lambda v: atkinson_transform(v, eps))


@dataclass(frozen=True)
class SubgroupResult:
    between: float
    within: tuple[tuple[tuple[str, ...], float, float], ...]  # (key, weight, value)
    reconstruction: float
    total: float


def subgroup_decompose(pop: Dataset, attr: str, c: float) -> SubgroupResult:
    """Classical GE_c between/within decomposition for one attribute.

    Within-group weights are pshare^(1-c) * ishare^c (see `_within_weight`);
    the reconstruction between + sum(w_g * within_g) equals the total GE_c.
    A zero-income group weighs 0 for c > 0, its population share at c = 0
    and `inf` for c < 0. A within value of 0 adds nothing at any weight,
    and an `inf` one adds `inf` at any weight, so the reconstruction is
    never NaN.

    The records are split into groups by one sort, each group's in record
    order, and `measures._run_measures` checks and measures every group's
    run of columns at once. A group's indicator sum and within value are
    sums over its run, so each has the bits of the group's own population
    matrix and `inequality`.
    """
    spec = MeasureSpec(ge(c))
    cells = _cells(pop, [attr])
    cols = cells.columns
    between = inequality(cols, spec)
    total = inequality(population_matrix(pop), spec)
    # a zero-income group is internally uniform at zero: its value is 0, so
    # it adds nothing to the reconstruction (inf * 0 would make it NaN when
    # c < 0); only the other groups' records are measured
    live = cols.shares > 0
    order = cells.order()
    if not live.all():
        order = order[np.repeat(live, cells.counts)]
    sizes = cells.counts[live]
    stops = np.cumsum(sizes).tolist()
    # the parent Dataset's indicators are finite and non-negative, and a
    # live group has a positive sum, so each group's columns are those of a
    # valid population; what remains is the column rule
    x = pop.indicators[order]
    del order
    group_sums = np.array([x[a:b].sum() for a, b in zip([0, *stops], stops)])
    shares = np.divide(x, np.repeat(group_sums, sizes), out=x)
    values = iter(_run_measures(np.repeat(1.0 / sizes, sizes), shares, stops, spec))
    within = []
    recon = between
    # a weight whose power under- or overflows is taken again through logs,
    # and a reconstruction past the largest float is inf
    with np.errstate(over="ignore", invalid="ignore"):
        for key, pshare, ishare in zip(cells.keys(), cols.weights, cols.shares):
            weight = _within_weight(pshare, ishare, c)
            value = 0.0
            if ishare > 0:
                value = next(values)
                # a uniform group adds nothing, even at an `inf` weight, and
                # an `inf` value adds `inf`, even at a weight of 0
                if value > 0:
                    recon += value if value == math.inf else weight * value
            within.append((key, weight, value))
    return SubgroupResult(between, tuple(within), recon, total)


def _within_weight(pshare: float, ishare: float, c: float) -> float:
    """pshare^(1-c) * ishare^c of a group with pshare > 0.

    A zero-income group weighs 0 for c > 0, pshare at c = 0 and `inf` for
    c < 0. Otherwise a positive, finite product is the weight. Where it is
    0 or not finite, a power under- or overflowed (a large |c|; the caller
    silences numpy's warning) and the weight is
    exp((1-c) log pshare + c log ishare) instead, `inf` past the largest float.
    """
    if ishare == 0:
        return math.inf if c < 0 else 0.0 if c > 0 else pshare
    weight = pshare ** (1.0 - c) * ishare**c
    if 0 < weight < math.inf:
        return weight
    log_weight = (1.0 - c) * math.log(pshare) + c * math.log(ishare)
    return math.exp(log_weight) if log_weight <= _LOG_MAX_FLOAT else math.inf
