"""Populations of individuals with attributes and their matrix representations.

A population is reduced to a 2 x m matrix of (weight, share) columns: one
column per individual (``population_matrix``) or per joint category group
(``grouped_columns``). Both rows sum to one, so the columns generate a zonogon
anchored at (0,0) and ending at (1,1).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import count
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegeneratePopulation,
    EmptyPopulation,
    NegativeComponent,
    UnknownAttribute,
)

_SUM_TOL = 1e-12

# Groupings a Dataset keeps: every source of a three-attribute lattice, so
# decompose and shapley over three attributes group each attribute set once.
# Without a cap, shapley over ten attributes would keep 1,023 cell indexes of
# n entries each.
_KEPT_GROUPINGS = 2**3 - 1


class _Encoded(NamedTuple):
    """An attribute column as `_sorted_encoding` makes it: strictly
    increasing level strings and each record's read-only level code."""

    levels: list[str]
    codes: np.ndarray


def _level_encoder() -> defaultdict:
    """A dict that gives each label it has not seen the next code, from 0:
    its keys are the distinct labels in first-seen order."""
    return defaultdict(count().__next__)


def _sorted_encoding(code_of: Mapping[str, int], codes: np.ndarray) -> _Encoded:
    """The labels of a `_level_encoder` as sorted levels, and its codes
    remapped to them, read-only, in the smallest unsigned dtype that holds
    the level count."""
    seen = list(code_of)
    order = sorted(range(len(seen)), key=seen.__getitem__)
    rank = np.empty(len(seen), dtype=np.min_scalar_type(len(seen)))
    rank[order] = np.arange(len(seen))
    codes = rank[codes]
    codes.flags.writeable = False
    return _Encoded([seen[i] for i in order], codes)


class Dataset:
    """Column-oriented store of records.

    Invariants: non-empty, all indicators finite and non-negative with a
    finite sum (one past the largest float is an input error), at least one
    indicator strictly positive, every record carries the same attributes.
    The indicators are kept as a read-only copy, and so is an attribute
    column given as values, encoded on first grouping. An `_Encoded` column,
    which only the CLI's `ingest` and `scaled` give, is kept as given and
    decoded on first access to `attributes`. A Dataset keeps its encodings
    and up to `_KEPT_GROUPINGS` read-only cell tables (`_Cells`), each of
    codes, indicator sums and checked between-group columns, all made at once.
    It also keeps the last lattice `decomposition._decompose` measured, which
    depends on the indicators and attribute columns only.
    """

    def __init__(self, indicators, attributes=None, attribute_names=None):
        ind = np.array(indicators, dtype=float)
        if ind.ndim != 1 or ind.size == 0:
            raise EmptyPopulation("dataset must contain at least one record")
        if not np.all(np.isfinite(ind)):
            raise NegativeComponent("indicator values must be finite")
        if np.any(ind < 0):
            raise NegativeComponent("indicator values must be non-negative")
        if not np.any(ind > 0):
            raise DegeneratePopulation("all indicator values are zero")
        with np.errstate(over="ignore"):
            if np.isinf(ind.sum()):
                raise DegeneratePopulation("indicator values sum past the largest float")
        attributes = {} if attributes is None else dict(attributes)
        columns: dict[str, np.ndarray] = {}
        encoded: dict[str, _Encoded] = {}
        for name, col in attributes.items():
            if isinstance(col, _Encoded):
                encoded[name] = col
                continue
            # an own read-only copy, so the cached codes cannot go stale
            col = np.array(col, dtype=object)
            if col.shape != ind.shape:
                raise UnknownAttribute(
                    f"attribute {name!r} has {col.size} values for {ind.size} records"
                )
            col.flags.writeable = False
            columns[name] = col
        if attribute_names is None:
            attribute_names = tuple(attributes)
        else:
            attribute_names = tuple(attribute_names)
            _check_distinct(attribute_names)
            if set(attribute_names) != set(attributes):
                raise UnknownAttribute("attribute_names do not match attribute columns")
        ind.flags.writeable = False
        self.indicators = ind
        self.attribute_names = attribute_names
        self._columns = columns
        self._encoded = encoded
        self._attributes: dict[str, np.ndarray] | None = None
        self._groupings: dict[tuple[str, ...], _Cells] = {}
        # (nodes, edges, stops) of the last lattice `_decompose` measured
        self._lattice: tuple | None = None

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "Dataset":
        """Dataset without attributes, for plain inequality measurement."""
        return cls(values)

    def __len__(self) -> int:
        return int(self.indicators.size)

    @property
    def mean(self) -> float:
        return float(self.indicators.mean())

    @property
    def attributes(self) -> dict[str, np.ndarray]:
        """Each attribute column as a read-only object array; a column
        given encoded holds its level strings, decoded on first access.
        The dict is a new one on each access, so changing it changes no
        column of the Dataset."""
        if self._attributes is None:
            self._attributes = {}
            for name in self.attribute_names:
                col = self._columns.get(name)
                if col is None:
                    levels, codes = self._encoded[name]
                    col = np.array(levels, dtype=object)[codes]
                    col.flags.writeable = False
                self._attributes[name] = col
        return dict(self._attributes)

    def scaled(self, k: float) -> "Dataset":
        """A new Dataset of every indicator times `k`, with no kept grouping and
        each attribute column passed on as it was given: values or `_Encoded`."""
        attributes = {**self._encoded, **self._columns}
        return Dataset(self.indicators * k, attributes, self.attribute_names)

    def _encode(self, attr: str) -> _Encoded:
        """Sorted levels of an attribute, the `str` of each distinct label,
        and each record's level code.

        Encoded on first use and kept; codes take the smallest unsigned
        dtype that holds the level count.
        """
        if attr not in self._encoded:
            col = self._columns[attr]
            code_of = _level_encoder()
            codes = np.fromiter(map(code_of.__getitem__, map(str, col)), np.intp, col.size)
            self._encoded[attr] = _sorted_encoding(code_of, codes)
        return self._encoded[attr]

    def _grouping(self, attrs: tuple[str, ...]) -> _Cells:
        """The cell table of the grouping by `attrs` (in Dataset order), read-only.

        A grouping not kept is projected from the kept grouping with the
        most attributes that holds all of `attrs`: its cells' codes are
        projected, their counts summed (exact) and each record's cell taken
        with one `take` on small codes. With none, it is built with one sort
        of the records' code rows, so only grouped attributes are ever
        encoded. Its sums are one weighted `bincount` over the records in
        record order, so each has the same bits whatever is kept. Each use
        moves a grouping last, and past `_KEPT_GROUPINGS` the first is
        dropped, so the grouping later ones are projected from stays kept.
        """
        kept = self._groupings
        cells = kept.pop(attrs, None)
        if cells is None:
            source = max((a for a in kept if set(attrs) <= set(a)), key=len, default=None)
            if source is None:
                codes = np.array([self._encode(a)[1] for a in attrs]).reshape(len(attrs), len(self))
                index, digits, counts = _distinct_columns(codes)
                index = index.astype(np.min_scalar_type(len(counts)))
            else:
                parent = kept[source] = kept.pop(source)
                rows = parent.digits[[source.index(a) for a in attrs]]
                cell_codes, digits, _ = _distinct_columns(rows)
                counts = np.bincount(cell_codes, weights=parent.counts).astype(np.intp)
                index = cell_codes.astype(np.min_scalar_type(len(counts))).take(parent.codes)
            levels = [self._encode(a).levels for a in attrs]
            sums = np.bincount(index, weights=self.indicators, minlength=len(counts))
            cols = WeightedColumns(counts / len(self), sums / self.indicators.sum())
            for array in (index, counts, digits, sums, cols.weights, cols.shares):
                array.flags.writeable = False
            cells = _Cells(index, counts, sums, cols, digits, levels)
        if len(kept) == _KEPT_GROUPINGS:
            del kept[next(iter(kept))]
        kept[attrs] = cells
        return cells


def _column_error(
    weights: np.ndarray, shares: np.ndarray, stops: Sequence[int]
) -> Exception | None:
    """The error of the runs of (weight, share) columns ending at `stops`, or None.

    The rule: weights and shares are non-negative, a NaN failing, and each
    run's weights and shares each sum to one within `_SUM_TOL * max(1, size)`.
    A negative anywhere is reported before the first run whose sums are off.
    """
    valid = weights >= 0
    valid &= shares >= 0  # a NaN fails
    if not valid.all():
        return NegativeComponent("weights and shares must be non-negative")
    for a, b in zip([0, *stops], stops):
        tol = _SUM_TOL * max(1, b - a)
        if not (abs(weights[a:b].sum() - 1.0) <= tol and abs(shares[a:b].sum() - 1.0) <= tol):
            return ValueError("weights and shares must each sum to one")
    return None


class WeightedColumns:
    """Normalized (weight, share) columns that keep the rule of
    `_column_error`; both rows sum to one."""

    def __init__(self, weights, shares):
        w = np.asarray(weights, dtype=float)
        s = np.asarray(shares, dtype=float)
        if w.shape != s.shape or w.ndim != 1:
            raise ValueError("weights and shares must be 1-d arrays of equal length")
        error = _column_error(w, s, [w.size])
        if error is not None:
            raise error
        self.weights = w
        self.shares = s

    def __len__(self) -> int:
        return int(self.weights.size)


def population_matrix(pop: Dataset) -> WeightedColumns:
    """One column per record: weight 1/n, share s/(n*mean)."""
    n = len(pop)
    return WeightedColumns(np.full(n, 1.0 / n), pop.indicators / pop.indicators.sum())


def _distinct_columns(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct columns of a 2-d array of small integer codes.

    Returns each column's index among the distinct columns, the distinct
    columns themselves, in lexicographic order with the first row most
    significant, and how many columns each one stands for. Zero rows give
    one empty column: grouping by no attributes gives the single cell ().
    """
    n = rows.shape[1]
    order = np.lexsort(rows[::-1]) if len(rows) else np.arange(n)
    ordered = rows[:, order]
    # where each run of equal sorted columns starts, and one past the end,
    # so the start positions bound the runs
    starts = np.ones(n + 1, dtype=bool)
    starts[1:n] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    index = np.empty(n, dtype=np.intp)
    index[order] = np.cumsum(starts[:n]) - 1
    bounds = starts.nonzero()[0]
    return index, ordered[:, starts[:n]], bounds[1:] - bounds[:-1]


class _Cells(NamedTuple):
    """The non-empty joint cells of a grouping: each record's cell index
    (smallest unsigned dtype), each cell's record count and indicator sum,
    the between-group columns, and each cell's level code per attribute
    with the attributes' levels, from which `keys` names the cells."""

    codes: np.ndarray
    counts: np.ndarray
    sums: np.ndarray
    columns: WeightedColumns
    digits: np.ndarray
    levels: list[Sequence[str]]

    def keys(self) -> list[tuple[str, ...]]:
        """Each cell's joint key, in cell order (lexicographic)."""
        names = [[lv[d] for d in row] for lv, row in zip(self.levels, self.digits.tolist())]
        return list(zip(*names)) if self.levels else [()]

    def order(self) -> np.ndarray:
        """The records cell by cell, each cell's in record order: one stable
        sort of the cell index, a radix sort on its small unsigned dtype."""
        return np.argsort(self.codes, kind="stable")


def _cells(pop: Dataset, attrs: Iterable[str]) -> _Cells:
    """Non-empty joint cells of the attributes, taken in the Dataset's order.

    No attributes give the single cell (). The table is the Dataset's kept
    grouping, made on first use: a repeat makes no pass over the records.
    """
    return pop._grouping(_ordered_attrs(pop, attrs))


def grouped_columns(pop: Dataset, attrs: Sequence[str]) -> WeightedColumns:
    """The between-group columns of the grouping by `attrs`, in cell order."""
    return _cells(pop, attrs).columns


def _ordered_attrs(pop: Dataset, attrs: Iterable[str]) -> tuple[str, ...]:
    attrs = list(attrs)  # not a set: the first unknown name as given raises
    _check_distinct(attrs)
    for a in attrs:
        if a not in pop.attribute_names:
            raise UnknownAttribute(f"unknown attribute {a!r}")
    return tuple(a for a in pop.attribute_names if a in attrs)


def _check_distinct(attrs: Sequence[str]) -> None:
    """Reject an attribute named twice in an attribute list."""
    for i, a in enumerate(attrs):
        if a in attrs[:i]:
            raise UnknownAttribute(f"attribute {a!r} is repeated")
