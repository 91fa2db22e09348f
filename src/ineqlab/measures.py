"""Generator functions, the vector measure r and the population measure I.

A generator is a convex function f with f(1) = 0. The measure of a column
vector (x, y) with mixing parameter p is a*f(x/a) with a = p*x + (1-p)*y
and the convention 0*f(0/0) = 0. Summing over the columns of a population
matrix gives the population measure; with p = 0 this reproduces the Pietra
index and the Generalized Entropy family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegeneratePopulation,
    InvalidMeasure,
    NegativeComponent,
    TransformDomainError,
)
from .population import Dataset, WeightedColumns, _column_error

_C_SINGULAR_TOL = 1e-9
# how much a sampled limit of a custom generator may still grow
_LIMIT_RTOL = 1e-3


@dataclass(frozen=True)
class Generator:
    """Convex generator f with f(1) = 0.

    ``at_zero`` is lim f(t) for t -> 0+ and ``tail_slope`` is
    lim f(t)/t for t -> inf; both may be infinite and close the measure
    over zero-weight and zero-share columns. ``c`` is the Generalized
    Entropy parameter of a GE-family generator (1 for Theil, 0 for MLD)
    and None for any other.
    """

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    strictly_convex: bool
    at_zero: float
    tail_slope: float
    c: float | None = None

    def __repr__(self) -> str:
        return f"Generator({self.name})"


def pietra() -> Generator:
    return Generator("pietra", lambda t: np.abs(t - 1) / 2, False, 0.5, 0.5)


def theil() -> Generator:
    # GE_1: reverse-KL generator
    return Generator("theil", lambda t: -np.log(t), True, math.inf, 0.0, 1.0)


def mld() -> Generator:
    # GE_0: KL generator; t*ln(t) -> 0 as t -> 0
    return Generator("mld", lambda t: t * np.log(t), True, 0.0, math.inf, 0.0)


def ge(c: float) -> Generator:
    """Generalized Entropy generator (t^(1-c) - t)/(c(c-1)).

    Values of c within 1e-9 of 0 or 1 dispatch to MLD/Theil, whose
    generators are the limits at the singularities. c must be finite, and
    so must c(c-1): |c| is at most about 1.34e154. A large |c| can take
    t^(1-c) past the largest float; the generator is then `inf` there,
    with no warning.
    """
    if not math.isfinite(c):
        raise InvalidMeasure(f"GE parameter must be finite, got {c}")
    denom = c * (c - 1)
    if not math.isfinite(denom):
        raise InvalidMeasure(f"GE parameter must have a finite c(c-1), got {c}")
    if abs(c) < _C_SINGULAR_TOL:
        return mld()
    if abs(c - 1) < _C_SINGULAR_TOL:
        return theil()
    at_zero = math.inf if c > 1 else 0.0
    tail = -1.0 / denom if c > 0 else math.inf

    def f(t):
        # a power past the largest float is inf, silently; any finite one
        # keeps its bits
        with np.errstate(over="ignore"):
            return (t ** (1 - c) - t) / denom

    return Generator(f"ge:{c:g}", f, True, at_zero, tail, c)


def custom(
    func: Callable[[np.ndarray], np.ndarray],
    strictly_convex: bool,
    name: str = "custom",
    *,
    at_zero: float | None = None,
    tail_slope: float | None = None,
) -> Generator:
    """Wrap a user generator after a convexity and f(1)=0 spot-check.

    `at_zero` (lim f(t), t -> 0+) and `tail_slope` (lim f(t)/t, t -> inf)
    may be given, infinite ones too. A limit not given is sampled, at
    t = 1e-12 and at t = 1e12; one that still grows by more than
    `_LIMIT_RTOL` of its size on to 1e-24 or 1e24 is rejected, as it may
    be infinite (as -log t is at zero).
    """
    t = np.logspace(-6, 6, 2001)
    v = np.asarray(func(t), dtype=float)
    if not np.all(np.isfinite(v)):
        raise InvalidMeasure("custom generator must be finite on t > 0")
    if abs(float(np.asarray(func(np.asarray([1.0])))[0])) > 1e-9:
        raise InvalidMeasure("custom generator must satisfy f(1) = 0")
    # midpoint test over the grid; robust to kinks, unlike slope differencing
    mid = np.asarray(func((t[:-1] + t[1:]) / 2), dtype=float)
    tol = 1e-9 * np.maximum(1.0, np.abs(v[:-1]) + np.abs(v[1:]))
    if np.any(mid > (v[:-1] + v[1:]) / 2 + tol):
        raise InvalidMeasure("custom generator failed the convexity check")
    if at_zero is None:
        at_zero = _sampled_limit(func, 1e-12, 1e-24, "at_zero")
    if tail_slope is None:
        tail_slope = _sampled_limit(lambda t: func(t) / t, 1e12, 1e24, "tail_slope")
    return Generator(name, func, strictly_convex, float(at_zero), float(tail_slope))


def _sampled_limit(g: Callable, near: float, far: float, name: str) -> float:
    """g at `near`, standing in for its limit past `far`, unless g at `far`
    is larger by more than `_LIMIT_RTOL` of its size: a convex generator's
    limits can only grow without bound. A NaN fails."""
    at_near, at_far = float(g(near)), float(g(far))
    if not at_far <= at_near + _LIMIT_RTOL * max(1.0, abs(at_near)):
        raise InvalidMeasure(
            f"custom generator's {name} still grows ({at_near:g} -> {at_far:g}); pass {name}="
        )
    return at_near


@dataclass(frozen=True)
class MeasureSpec:
    """Generator plus the reference-mixing parameter p in [0, 1]."""

    f: Generator
    p: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise InvalidMeasure("p must lie in [0, 1]")


def _r(x: np.ndarray, y: np.ndarray, spec: MeasureSpec) -> np.ndarray:
    """r of each column (x, y): a*f(x/a) with a = p*x + (1-p)*y, a times
    f's limit at zero where x/a is 0, x times the tail slope where a
    vanishes with x > 0, and 0 for the zero column.

    One pass over whole columns: f.func sees every quotient at once, with
    1 standing in where the quotient is 0 (it may underflow with x > 0) or
    a is not positive, so a user generator only ever sees t > 0. The two
    limit cases are written over the result only where they occur. Each
    element gets the bits the masked evaluation gives.
    """
    f = spec.f
    a = spec.p * x + (1 - spec.p) * y
    pos = a > 0
    t = np.divide(x, a, out=np.ones_like(a), where=pos)
    zero = t == 0
    any_zero = zero.any()
    if any_zero:
        t[zero] = 1.0
    terms = np.multiply(a, f.func(t), out=t)  # t is dead once f has read it
    if any_zero:
        terms[zero] = a[zero] * f.at_zero
    if not pos.all():
        terms[~pos] = 0.0
        tail = ~pos & (x > 0)
        terms[tail] = x[tail] * f.tail_slope
    return terms


def r_fp(v: tuple[float, float], spec: MeasureSpec) -> float:
    """Measure of one column vector, possibly infinite. One column's r can be
    negative; a sum over columns whose rows each sum to one is at least 0."""
    x, y = float(v[0]), float(v[1])
    if not (x >= 0 and y >= 0):  # a NaN fails too
        raise NegativeComponent("vector components must be non-negative")
    return float(_r(np.array([x]), np.array([y]), spec)[0])


def _summed(terms: np.ndarray) -> float:
    """Sum of r terms; +inf propagates and a NaN stays NaN. A sum that rounding
    takes below zero is 0.0: by Jensen it is at least f(1) = 0."""
    total = float(terms.sum())
    # a finite sum has no infinite term; only a non-finite one needs the scan
    if not math.isfinite(total) and np.isinf(terms).any():
        return math.inf
    return max(total, 0.0)


def inequality(cols: WeightedColumns, spec: MeasureSpec) -> float:
    """Sum of r over the columns; +inf is propagated explicitly."""
    return _summed(_r(cols.weights, cols.shares, spec))


def _run_measures(x: np.ndarray, y: np.ndarray, stops, spec: MeasureSpec) -> list[float]:
    """The measure of each run of columns (x, y) ending at `stops`.

    Every run is checked by `population._column_error` before any is
    measured, and r is taken over all columns in one pass; a run's measure
    is the sum of its slice, with the bits of `inequality` on its columns.
    """
    error = _column_error(x, y, stops)
    if error is not None:
        raise error
    terms = _r(x, y, spec)
    return [_summed(terms[a:b]) for a, b in zip([0, *stops], stops)]


def _check_eps(eps: float) -> None:
    """Reject an Atkinson parameter that is not finite and positive."""
    if not math.isfinite(eps):
        raise InvalidMeasure(f"atkinson requires a finite eps, got {eps}")
    if eps <= 0:
        raise InvalidMeasure("atkinson requires eps > 0")


def atkinson(pop: Dataset, eps: float) -> float:
    """Atkinson index 1 - (generalized mean of order 1-eps)/mean, at least 0.

    Scale-free at any magnitude: with q = 1-eps, each (s/ref)^q lies in
    [0, 1], ref the largest indicator for q > 0 and the smallest for q < 0.
    """
    _check_eps(eps)
    s = pop.indicators
    mean = pop.mean
    if mean <= 0:
        raise DegeneratePopulation("population mean is zero")
    q = 1.0 - eps
    ref = s.max() if q > 0 else s.min()
    if ref == 0:
        return 1.0  # eps >= 1 with a zero indicator: the generalized mean is 0
    if eps == 1:
        return max(1.0 - math.exp(float(np.log(s).mean()) - math.log(mean)), 0.0)
    ratios = np.divide(s, ref) if q > 0 else np.divide(ref, s)
    m = float(np.power(ratios, abs(q), out=ratios).mean())
    return max(1.0 - ref / mean * m ** (1.0 / q), 0.0)


def atkinson_transform(x: float, eps: float) -> float:
    """Monotone map taking the GE(1-eps) f-inequality to the Atkinson index."""
    _check_eps(eps)
    if x < 0:
        raise TransformDomainError("f-inequality input must be non-negative")
    c = 1.0 - eps
    if abs(c) < _C_SINGULAR_TOL:
        return 1.0 - math.exp(-x)  # MLD route at eps = 1
    if math.isinf(x):
        if c < 0:
            return 1.0
        raise TransformDomainError("infinite input outside transform domain")
    base = 1.0 + c * (c - 1.0) * x
    if base < 0:
        raise TransformDomainError(f"1 + c(c-1)x = {base:g} < 0")
    return 1.0 - base ** (1.0 / c)


_GENERATOR_ALIASES = {
    "pietra": pietra,
    "theil": theil,
    "mld": mld,
}


def parse_measure(text: str) -> tuple[str, object]:
    """Parse the measure grammar shared with the CLI.

    Returns ("f", MeasureSpec) for f-inequality measures and
    ("atkinson", eps) for the Atkinson index.
    """
    text = text.strip()
    p = 0.0
    if "@" in text:
        base, _, suffix = text.partition("@")
        if not suffix.startswith("p="):
            raise InvalidMeasure(f"bad measure suffix {suffix!r}; expected p=<value>")
        try:
            p = float(suffix[2:])
        except ValueError as exc:
            raise InvalidMeasure(f"bad p value in {text!r}") from exc
        text = base
    if text in _GENERATOR_ALIASES:
        return "f", MeasureSpec(_GENERATOR_ALIASES[text](), p)
    if text.startswith("ge:"):
        try:
            c = float(text[3:])
        except ValueError as exc:
            raise InvalidMeasure(f"bad GE parameter in {text!r}") from exc
        return "f", MeasureSpec(ge(c), p)
    if text.startswith("atkinson:"):
        try:
            eps = float(text[9:])
        except ValueError as exc:
            raise InvalidMeasure(f"bad Atkinson parameter in {text!r}") from exc
        _check_eps(eps)
        if p != 0.0:
            raise InvalidMeasure("atkinson does not take a p parameter")
        return "atkinson", eps
    raise InvalidMeasure(f"unknown measure {text!r}")
