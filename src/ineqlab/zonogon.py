"""Canonical zonogons, the containment order, the lattice meet and sums.

The zonogon generated by (weight, share) columns is represented by its upper
chain only: vertices from (0,0) to (1,1) with strictly decreasing edge
slopes. The lower half follows by central symmetry about (0.5, 0.5), so
containment of zonogons reduces to pointwise dominance of upper chains.
"""

from __future__ import annotations

import enum

import numpy as np

from .population import WeightedColumns

# The cutoff on cross products below which `_merge_parallel` merges two
# edge vectors and `_prune_collinear` drops a vertex.
MERGE_TOL = 1e-12
# A vertex is "on" a chain when its vertical distance is within this bound.
CONTAIN_TOL = 1e-9


class OrderRelation(enum.Enum):
    EQUAL = "equal"
    STRICTLY_BELOW = "strictly_below"
    STRICTLY_ABOVE = "strictly_above"
    INCOMPARABLE = "incomparable"


class Zonogon:
    """Concave upper chain from (0,0) to (1,1), with its edge vectors."""

    def __init__(self, vertices: np.ndarray, generators: np.ndarray):
        self.vertices = np.asarray(vertices, dtype=float)
        self.edges = np.asarray(generators, dtype=float)

    def to_columns(self) -> WeightedColumns:
        e = self.edges
        return WeightedColumns(e[:, 0], e[:, 1])

    def value_at(self, x) -> np.ndarray:
        """Chain height at x; at x=0 this is the top of any vertical edge."""
        xs = self.vertices[:, 0]
        ys = self.vertices[:, 1]
        start = 1 if xs[1] == xs[0] else 0  # skip an initial vertical edge
        return np.interp(x, xs[start:], ys[start:])

    def __repr__(self) -> str:
        pts = ", ".join(f"({x:g},{y:g})" for x, y in self.vertices)
        return f"Zonogon[{pts}]"


def _merge_parallel(vectors: np.ndarray) -> np.ndarray:
    """Sum runs of slope-sorted vectors whose slopes coincide.

    A vector v joins the run when its cross product with the run's sum u is
    at most MERGE_TOL, an absolute cutoff, so distinct slopes of columns of
    size 1/n merge at large n (see the ROADMAP item on an exact, scale-free
    chain construction). A cutoff scaled by max(1, |u||v|) would be the same:
    u and v are disjoint sums of non-negative columns whose rows each sum to
    one, so where they are nearly parallel |u||v| <= |u + v|^2 / 4, about 1/2.

    One pass over Python floats; the run's sum is kept as two floats and
    stored only where the run ends. The merges and sums equal those of a
    loop over numpy scalars bit for bit (the oracle in tests/test_zonogon.py).
    """
    if len(vectors) <= 1:
        return vectors
    it = iter(vectors.tolist())
    ux, uy = next(it)
    out = []
    for vx, vy in it:
        if abs(ux * vy - uy * vx) <= MERGE_TOL:
            ux += vx
            uy += vy
        else:
            out.append((ux, uy))
            ux, uy = vx, vy
    out.append((ux, uy))
    return np.array(out)


def canonical_chain(cols: WeightedColumns) -> "Zonogon":
    """Sort columns by slope descending, merge parallel ones, accumulate."""
    vectors = np.column_stack([cols.weights, cols.shares])
    vectors = vectors[(vectors[:, 0] > 0) | (vectors[:, 1] > 0)]
    # atan2 is monotone in slope on the closed first quadrant and handles
    # zero-weight (vertical) columns without special cases.
    angles = np.arctan2(vectors[:, 1], vectors[:, 0])
    vectors = vectors[np.argsort(-angles, kind="stable")]
    vectors = _merge_parallel(vectors)
    chain = np.vstack([[0.0, 0.0], np.cumsum(vectors, axis=0)])
    chain[-1] = [1.0, 1.0]  # endpoint is exact by construction; pin it
    return Zonogon(chain, generators=vectors)


def order(z1: Zonogon, z2: Zonogon) -> OrderRelation:
    """Containment relation of the two zonogons."""
    below = bool(np.all(z1.vertices[:, 1] <= z2.value_at(z1.vertices[:, 0]) + CONTAIN_TOL))
    above = bool(np.all(z2.vertices[:, 1] <= z1.value_at(z2.vertices[:, 0]) + CONTAIN_TOL))
    if below and above:
        return OrderRelation.EQUAL
    if below:
        return OrderRelation.STRICTLY_BELOW
    if above:
        return OrderRelation.STRICTLY_ABOVE
    return OrderRelation.INCOMPARABLE


def _prune_collinear(points: np.ndarray) -> np.ndarray:
    """Drop interior points of straight runs; keep a concave vertex chain."""
    if len(points) <= 2:
        return points
    d = points[1:] - points[:-1]
    cross = d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0]
    keep = np.ones(len(points), dtype=bool)
    # consecutive pieces of a meet sum to at most (1, 1), so |d1||d2| <= 1
    keep[1:-1] = np.abs(cross) > MERGE_TOL
    return points[keep]


def meet(z1: Zonogon, z2: Zonogon) -> Zonogon:
    """Greatest zonogon below both: the lower envelope of the upper chains.

    Exact construction: evaluate both chains at the union of their vertex
    x-coordinates, insert the crossing point wherever the difference changes
    sign between neighbours, then prune collinear points.
    """
    xs = np.sort(np.concatenate([z1.vertices[:, 0], z2.vertices[:, 0]]))
    y1 = z1.value_at(xs)
    y2 = z2.value_at(xs)
    d = y1 - y2
    px, py = xs, np.minimum(y1, y2)
    sign_change = d[:-1] * d[1:] < 0
    if sign_change.any():
        i = np.flatnonzero(sign_change)
        # both chains are linear between consecutive candidate x's
        t = d[i] / (d[i] - d[i + 1])
        cx = xs[i] + t * (xs[i + 1] - xs[i])
        cy = y1[i] + t * (y1[i + 1] - y1[i])
        px, py = np.concatenate([px, cx]), np.concatenate([py, cy])
        order_idx = np.argsort(px, kind="stable")
        px, py = px[order_idx], py[order_idx]
    # collapse x values one ulp apart; a near-zero edge between them would
    # defeat the collinearity pruning and drop a genuine corner
    distinct = np.ones(len(px), dtype=bool)
    distinct[1:] = px[1:] - px[:-1] > MERGE_TOL
    points = np.empty((int(distinct.sum()), 2))
    points[:, 0], points[:, 1] = px[distinct], py[distinct]
    if points[0, 1] > 0:  # both chains start with a vertical edge
        points = np.vstack([[0.0, 0.0], points])
    points = _prune_collinear(points)
    # a difference of heights near y keeps fewer than about 32 bits of a
    # share below 2**-20 * y (two digits of 1e-14 near y = 1) and turns a zero
    # share into a residue of either sign; take such a share from the slope
    # of the lower source chain's edge under the piece, where the two agree
    # within MERGE_TOL * y (a piece over a corner pruned as collinear does not)
    edges = points[1:] - points[:-1]
    thin = np.flatnonzero(np.abs(edges[:, 1]) <= 2.0**-20 * points[1:, 1])
    if len(thin):
        mid = (points[thin, 0] + points[thin + 1, 0]) / 2
        (rest1, slope1), (rest2, slope2) = _rest_and_slope(z1, mid), _rest_and_slope(z2, mid)
        share = edges[thin, 0] * np.where(rest1 >= rest2, slope1, slope2)
        agree = np.abs(share - edges[thin, 1]) <= MERGE_TOL * points[thin + 1, 1]
        edges[thin[agree], 1] = share[agree]
    return Zonogon(points, generators=edges)


def _rest_and_slope(z: Zonogon, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1 minus the chain's height at each x in (0, 1), and share over weight
    of the edge over it; the rest is summed from the top end over the edges'
    shares, so it keeps its digits where the height is close to 1."""
    e = z.edges
    k = np.searchsorted(z.vertices[:, 0], x, side="right") - 1
    slope = e[k, 1] / e[k, 0]
    rest_at_vertices = np.append(np.cumsum(e[::-1, 1])[::-1], 0.0)
    return rest_at_vertices[k + 1] + (z.vertices[k + 1, 0] - x) * slope, slope


def meet_all(zonogons: list[Zonogon]) -> Zonogon:
    z = zonogons[0]
    for other in zonogons[1:]:
        z = meet(z, other)
    return z


def minkowski_sum(zonogons: list[Zonogon]) -> Zonogon:
    """Sum of the zonogons, rescaled by 1/m so the result ends at (1,1)."""
    m = len(zonogons)
    if m == 0:
        raise ValueError("minkowski_sum requires at least one zonogon")
    generators = np.vstack([z.edges for z in zonogons]) / m
    return canonical_chain(WeightedColumns(generators[:, 0], generators[:, 1]))
