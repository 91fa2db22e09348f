"""Cooperative-game view of grouped inequality.

The value of a coalition of attributes is the between-group inequality of
the joint grouping; the empty coalition collapses everyone into one group
and is worth zero. Shapley values split the grand-coalition value among
attributes but, unlike the lattice decomposition, cannot tell redundancy
from synergy.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial, isinf
from typing import Sequence

from .errors import InfiniteMeasure, TooManyAttributes
from .measures import MeasureSpec, inequality
from .population import Dataset, _check_distinct, grouped_columns

MAX_PLAYERS = 10


def game_value(pop: Dataset, coalition: Sequence[str], spec: MeasureSpec) -> float:
    """Between-group inequality when grouping by the coalition's attributes."""
    if not coalition:
        return 0.0
    return inequality(grouped_columns(pop, coalition), spec)


def _all_values(pop: Dataset, attrs: Sequence[str], spec: MeasureSpec) -> dict:
    """Value of every coalition of `attrs`, keyed by its attributes in the
    order of `attrs`; raises `_check_finite`'s error."""
    _check_distinct(attrs)
    if len(attrs) > MAX_PLAYERS:
        raise TooManyAttributes(f"exact enumeration supports up to {MAX_PLAYERS} attributes")
    values = {(): 0.0}
    # the grand coalition first, so the Dataset sorts the records once and
    # projects every other coalition's grouping from it
    for r in reversed(range(1, len(attrs) + 1)):
        for coalition in combinations(attrs, r):
            values[coalition] = game_value(pop, coalition, spec)
    _check_finite(values)
    return values


def _check_finite(values: dict) -> None:
    """Raise InfiniteMeasure naming the first infinite coalition of the
    fewest attributes, coalitions of one size in the order of `values`."""
    for coalition in sorted(values, key=len):
        if isinf(values[coalition]):
            raise InfiniteMeasure(f"value of coalition [{','.join(coalition)}] is infinite")


def _phi(values: dict, attrs: Sequence[str]) -> dict[str, float]:
    """Shapley values from the coalition values `_all_values` gives."""
    n = len(attrs)
    phi = {}
    for a in attrs:
        others = [x for x in attrs if x != a]
        total = 0.0
        for r in range(len(others) + 1):
            weight = factorial(r) * factorial(n - r - 1) / factorial(n)
            for coalition in combinations(others, r):
                joined = tuple(x for x in attrs if x == a or x in coalition)
                total += weight * (values[joined] - values[coalition])
        phi[a] = total
    return phi


def shapley_values(pop: Dataset, attrs: Sequence[str], spec: MeasureSpec) -> dict[str, float]:
    """Exact Shapley values of the grouped-inequality game.

    Enumerates all 2^n coalitions; efficiency (values summing to the
    grand-coalition value) holds by construction. An infinite coalition
    value raises InfiniteMeasure (`_check_finite`).
    """
    attrs = list(attrs)
    return _phi(_all_values(pop, attrs, spec), attrs)


def game_synergy(pop: Dataset, a: str, b: str, spec: MeasureSpec) -> float:
    """Interaction term v({a,b}) - v({a}) - v({b}); negative means redundancy.
    An infinite value raises InfiniteMeasure (`_check_finite`)."""
    if a == b:
        raise ValueError("game_synergy requires two distinct attributes")
    values = _all_values(pop, [a, b], spec)
    return values[(a, b)] - values[(a,)] - values[(b,)]
