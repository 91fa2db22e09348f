"""Seeded inputs of the benchmark workloads, drawn with numpy alone.

A population is a float indicator per row plus one integer level code per
row and attribute. The benchmark turns codes into string labels before it
hands them to ineqlab; the checks work from the codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

GROUPED_ROWS = 200_000
GROUPED_LEVELS = (10, 10, 10)
SMALL_POPULATIONS = 200
SMALL_ROWS = (50, 2000)
SMALL_LEVELS = (2, 6)
SMALL_ZERO_SHARE = 0.05
SMALL_SHAPE_KEY = 20240705
CSV_ROWS = 100_000
CSV_LEVELS = (10, 10, 10)
# The ungrouped `lorenz` of cli-csv fails its check on every input tried
# (a fault in the program). Its CSV is drawn from this fixed key, not from
# --seed, so that the failure is the same in every run.
LORENZ_CSV_KEY = 20240704

ATTRIBUTE_NAMES = ("A", "B", "C")


@dataclass(frozen=True)
class Population:
    values: np.ndarray  # indicator per row, float64, non-negative
    codes: np.ndarray  # (rows, attributes) level codes, each in range(levels[j])
    levels: tuple[int, ...]
    names: tuple[str, ...]

    def label(self, j: int, code: int) -> str:
        """String value of level `code` of attribute j; sorts as the codes do."""
        return f"{self.names[j].lower()}{code}"

    def labels(self, j: int) -> np.ndarray:
        table = np.array([self.label(j, c) for c in range(self.levels[j])])
        return table[self.codes[:, j]]


def draw_population(
    rng: np.random.Generator, rows: int, levels: tuple[int, ...], zero_share: float = 0.0
) -> Population:
    """Lognormal indicators whose log-mean depends on every attribute.

    Main effects per attribute plus an interaction of the first two, so
    that unique, redundant and synergetic parts are all non-zero.
    """
    k = len(levels)
    codes = np.column_stack([rng.integers(0, lv, rows) for lv in levels])
    log_mean = np.zeros(rows)
    for j, lv in enumerate(levels):
        log_mean += rng.normal(0.0, 0.3, lv)[codes[:, j]]
    log_mean += rng.normal(0.0, 0.2, (levels[0], levels[1]))[codes[:, 0], codes[:, 1]]
    values = np.exp(log_mean + rng.normal(0.0, 1.0, rows))
    if zero_share > 0:
        values[rng.random(rows) < zero_share] = 0.0
        if not np.any(values > 0):
            values[0] = 1.0
    return Population(values, codes, tuple(levels), ATTRIBUTE_NAMES[:k])


def grouped(seed: int, rows: int = GROUPED_ROWS) -> Population:
    return draw_population(np.random.default_rng([seed, 1]), rows, GROUPED_LEVELS)


def many_small(
    seed: int, count: int = SMALL_POPULATIONS, rows: tuple[int, int] = SMALL_ROWS
) -> list[Population]:
    """Populations of every size, shape and zero share in the ranges above.

    The shapes come from a fixed key and only the values and codes from
    the seed, so that every seed asks the program for the same work.
    """
    shape = np.random.default_rng(SMALL_SHAPE_KEY)
    rng = np.random.default_rng([seed, 2])
    pops = []
    for i, n in enumerate(np.geomspace(rows[0], rows[1], count).round().astype(int).tolist()):
        k = 2 + i % 2
        levels = tuple(int(v) for v in shape.integers(SMALL_LEVELS[0], SMALL_LEVELS[1] + 1, k))
        zero_share = SMALL_ZERO_SHARE if i % 4 < 2 else 0.0
        pops.append(draw_population(rng, n, levels, zero_share))
    return pops


def csv_population(seed: int | None, rows: int = CSV_ROWS) -> Population:
    """The cli-csv population; seed None gives the fixed `lorenz` input."""
    key = [LORENZ_CSV_KEY] if seed is None else [seed, 3]
    return draw_population(np.random.default_rng(key), rows, CSV_LEVELS)


def write_csv(pop: Population, path: Path) -> None:
    """Header `income,A,B,C`; repr() keeps every value exact on re-reading."""
    labels = [pop.labels(j) for j in range(len(pop.names))]
    lines = [",".join(("income",) + pop.names)]
    lines.extend(
        ",".join((repr(v),) + row)
        for v, row in zip(pop.values.tolist(), zip(*(lab.tolist() for lab in labels)))
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
