"""Generators, the vector measure, population measures and transforms."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ineqlab import (
    Dataset,
    DegeneratePopulation,
    InvalidMeasure,
    MeasureSpec,
    NegativeComponent,
    TransformDomainError,
    WeightedColumns,
    atkinson,
    atkinson_transform,
    custom,
    decompose,
    atkinson_decompose,
    ge,
    grouped_columns,
    inequality,
    mld,
    parse_measure,
    pietra,
    population_matrix,
    r_fp,
    shapley_values,
    subgroup_decompose,
    theil,
)
from ineqlab.measures import _r
from conftest import classic_index, generator_at, random_dataset

# frozen via the direct textbook formulas (independent script)
THEIL_13 = 0.13081203594113697
MLD_13 = 0.14384103622589045
GE2_13 = 0.125
GE05_13 = 0.13629669484372697
ATK05_13 = 0.0669872981077807
ATK1_13 = 0.1339745962155613


def kappa_13():
    return population_matrix(Dataset.from_values([1, 3]))


def test_generator_basics():
    for gen in (pietra(), theil(), mld(), ge(2), ge(-1), ge(0.5)):
        assert generator_at(gen, 1.0).tolist() == [pytest.approx(0.0, abs=1e-12)]
    assert not pietra().strictly_convex
    assert theil().strictly_convex and mld().strictly_convex and ge(2).strictly_convex


def test_ge_singular_parameters_dispatch():
    assert ge(0).name == "mld"
    assert ge(1e-12).name == "mld"
    assert ge(1).name == "theil"
    assert ge(1 + 1e-12).name == "theil"


def test_r_fp_slope_one_is_zero():
    for spec in (MeasureSpec(pietra()), MeasureSpec(theil(), 0.3), MeasureSpec(ge(2), 1.0)):
        assert r_fp((0.7, 0.7), spec) == pytest.approx(0.0, abs=1e-12)
        assert r_fp((0.0, 0.0), spec) == 0.0


def test_r_fp_hand_values():
    assert r_fp((0.5, 0.25), MeasureSpec(pietra())) == pytest.approx(0.125)
    assert r_fp((0.2, 0.6), MeasureSpec(pietra(), 0.5)) == pytest.approx(0.1)


def test_r_fp_p_one_collapses():
    for gen in (pietra(), theil(), ge(2)):
        assert r_fp((0.4, 0.9), MeasureSpec(gen, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_r_fp_rejects_negative():
    with pytest.raises(NegativeComponent):
        r_fp((-0.1, 0.5), MeasureSpec(pietra()))
    for v in (math.nan, 0.5), (0.5, math.nan):
        with pytest.raises(NegativeComponent):
            r_fp(v, MeasureSpec(theil()))


def test_r_fp_zero_share_limits():
    # p=0 and share 0: the generator's slope at infinity decides the value
    assert r_fp((0.5, 0.0), MeasureSpec(pietra())) == pytest.approx(0.25)
    assert r_fp((0.5, 0.0), MeasureSpec(theil())) == 0.0
    assert r_fp((0.5, 0.0), MeasureSpec(mld())) == math.inf


def test_inequality_bottom_is_zero():
    for spec in (MeasureSpec(pietra()), MeasureSpec(theil()), MeasureSpec(ge(2), 0.4)):
        assert inequality(WeightedColumns([1.0], [1.0]), spec) == pytest.approx(0.0, abs=1e-12)


def test_inequality_hand_values():
    assert inequality(kappa_13(), MeasureSpec(theil())) == pytest.approx(THEIL_13)
    assert inequality(kappa_13(), MeasureSpec(pietra())) == pytest.approx(0.25)


def test_inequality_mld_infinite_on_zero_income():
    cols = population_matrix(Dataset.from_values([0, 1, 3]))
    assert inequality(cols, MeasureSpec(mld())) == math.inf


def test_classic_index_hand_values():
    d = Dataset.from_values([1, 3])
    assert classic_index(d, ge(2)) == pytest.approx(GE2_13)
    assert classic_index(d, mld()) == pytest.approx(MLD_13)
    assert classic_index(d, theil()) == pytest.approx(THEIL_13)
    u = Dataset.from_values([5, 5, 5])
    for gen in (pietra(), ge(2), theil(), mld()):
        assert classic_index(u, gen) == pytest.approx(0.0, abs=1e-12)


def test_ge_parameter_is_not_read_back_from_the_name():
    gen = ge(0.123456789)
    assert gen.name == "ge:0.123457" and gen.c == 0.123456789
    d = Dataset.from_values([1, 3, 2, 7, 0.5])
    want = inequality(population_matrix(d), MeasureSpec(gen))
    assert classic_index(d, gen) == pytest.approx(want, rel=1e-12)


def test_special_cases_match_classic(rng):
    for _ in range(100):
        d = random_dataset(rng, max_n=50, low=0.01, high=100.0)
        for gen in (pietra(), ge(-1), ge(0.5), ge(2), theil(), mld()):
            got = inequality(population_matrix(d), MeasureSpec(gen))
            want = classic_index(d, gen)
            assert got == pytest.approx(want, abs=1e-9)


def test_atkinson_hand_values():
    d = Dataset.from_values([1, 3])
    assert atkinson(d, 0.5) == pytest.approx(ATK05_13)
    assert atkinson(d, 1) == pytest.approx(ATK1_13)
    assert atkinson(Dataset.from_values([4, 4]), 2) == pytest.approx(0.0, abs=1e-12)


def test_atkinson_zero_income_limits():
    d = Dataset.from_values([0, 1])
    assert atkinson(d, 1) == 1.0
    assert atkinson(d, 2) == 1.0


def test_atkinson_of_a_mean_that_rounds_to_zero():
    with pytest.raises(DegeneratePopulation):
        atkinson(Dataset([5e-324, 0, 0]), 0.5)  # a Dataset, with mean 5e-324 / 3 == 0


def test_atkinson_limit_of_a_large_eps_is_one_minus_min_over_mean():
    d = Dataset([1.0, 2.0, 3.0, 0.5], {"A": ["a", "b", "a", "b"]})
    assert atkinson(d, 1e100) == pytest.approx(1 - 0.5 / 1.625, rel=1e-12)


def _scale_free_values(d):
    """Every measure, and every decomposition's total, of `d` by name."""
    values = {m: inequality(population_matrix(d), parse_measure(m)[1])
              for m in ("theil", "mld", "pietra", "ge:2", "ge:-1", "ge:0.5@p=0.25")}
    values.update({f"atkinson:{eps}": atkinson(d, eps) for eps in (0.5, 1.0, 3.0, 50.0)})
    values["decompose"] = decompose(d, ["A", "B"], MeasureSpec(theil())).total
    values["atkinson_decompose"] = atkinson_decompose(d, ["A", "B"], 3.0).total
    values["subgroup"] = subgroup_decompose(d, "A", 2.0).total
    values["shapley"] = sum(shapley_values(d, ["A", "B"], MeasureSpec(theil())).values())
    return values


@pytest.mark.parametrize("k", [1e-250, 1e-100, 1e100, 1e250])
def test_every_measure_is_scale_free_at_extreme_magnitudes(k):
    """Scaling every indicator by k, however far from 1, keeps each
    measure: no power or sum may overflow or underflow with the units."""
    rng = np.random.default_rng(23)
    n = 200
    attrs = {"A": rng.choice(["a0", "a1", "a2"], n), "B": rng.choice(["b0", "b1", "b2", "b3"], n)}
    d = Dataset(rng.uniform(0.05, 20.0, n), attrs)
    want, got = _scale_free_values(d), _scale_free_values(d.scaled(k))
    for name, value in want.items():
        assert got[name] == pytest.approx(value, rel=1e-12, abs=0), name


@pytest.mark.parametrize("c", [1e200, -1e200, 1.4e154])
def test_ge_parameter_with_an_infinite_c_c_minus_1_is_invalid(c):
    with pytest.raises(InvalidMeasure, match="finite c\\(c-1\\)"):
        ge(c)
    with pytest.raises(InvalidMeasure):
        parse_measure(f"ge:{c}")
    assert ge(1.3e154).c == 1.3e154


@pytest.mark.parametrize("c", [-1e150, -2000.0, -1.0, 0.5, 2.0, 2000.0, 1e10, 1e150])
def test_ge_past_the_float_range_is_a_silent_inf(c):
    """A power past the largest float makes the generator `inf`, with no
    warning; every value has the bits of the plain formula."""
    t = np.array([1e-300, 0.5, 2.0 / 3.0, 1.0, 1.5, 2.0, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = ge(c).func(t)
        measured = inequality(population_matrix(Dataset([1.0, 2.0, 3.0])), MeasureSpec(ge(c)))
    with np.errstate(over="ignore"):
        want = (t ** (1 - c) - t) / (c * (c - 1))
    assert np.array_equal(values, want)
    assert (measured == math.inf) == (abs(c) >= 2000.0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-3e-9, 3e-9), st.booleans(), st.booleans()), min_size=2, max_size=40
    )
)
def test_measures_of_near_uniform_incomes_are_not_negative(rows):
    """Incomes of 3 + e: each measure sums terms near f(1) = 0, with about
    1e-16 of error each, and no such sum, nor the Atkinson index, is
    below zero."""
    errors, a, b = zip(*rows)
    d = Dataset([3.0 + e for e in errors], {"A": a, "B": b})
    for f in (theil(), mld(), ge(2.0), ge(0.5), pietra()):
        spec = MeasureSpec(f)
        assert inequality(population_matrix(d), spec) >= 0
        for attrs in (["A"], ["B"], ["A", "B"]):
            assert inequality(grouped_columns(d, attrs), spec) >= 0
    for eps in (0.5, 1.0, 2.0):
        assert atkinson(d, eps) >= 0


def test_atkinson_transform_hand_values():
    assert atkinson_transform(0.0, 0.7) == pytest.approx(0.0, abs=1e-12)
    assert atkinson_transform(GE05_13, 0.5) == pytest.approx(ATK05_13)
    assert atkinson_transform(MLD_13, 1) == pytest.approx(ATK1_13)
    assert atkinson_transform(math.inf, 2.0) == 1.0  # c < 0: the limit as x -> inf


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_rejected(bad):
    # atkinson(., inf) would be 0.667 on [2, 3, 4], not its limit 1 - min/mean = 0.333
    with pytest.raises(InvalidMeasure):
        ge(bad)
    with pytest.raises(InvalidMeasure):
        atkinson(Dataset([2, 3, 4]), bad)
    with pytest.raises(InvalidMeasure):
        atkinson_transform(0.1, bad)


def test_atkinson_transform_domain_error():
    with pytest.raises(TransformDomainError):
        atkinson_transform(100.0, 0.5)
    with pytest.raises(TransformDomainError, match="infinite input"):
        atkinson_transform(math.inf, 0.5)


def test_custom_generator_roundtrip():
    gen = custom(lambda t: np.abs(t - 1) / 2, strictly_convex=False)
    got = inequality(kappa_13(), MeasureSpec(gen))
    assert got == pytest.approx(0.25)


def test_custom_generator_rejects_concave():
    with pytest.raises(InvalidMeasure):
        custom(lambda t: -((t - 1) ** 2), strictly_convex=True)
    with pytest.raises(InvalidMeasure):
        custom(lambda t: t, strictly_convex=False)  # f(1) != 0
    with pytest.raises(InvalidMeasure, match="finite"):
        custom(lambda t: np.where(t > 1e3, np.nan, np.abs(t - 1)), strictly_convex=False)


@pytest.mark.parametrize(
    "func, limit, builtin",
    [(lambda t: -np.log(t), "at_zero", theil()), (lambda t: t * np.log(t), "tail_slope", mld())],
    ids=["-log t", "t log t"],
)
def test_custom_generator_takes_an_infinite_limit_only_given(func, limit, builtin):
    """-log t is infinite at zero and t log t / t at infinity: sampled,
    each limit still grows, so it is rejected; given, it closes the measure
    as the built-in generator's does."""
    with pytest.raises(InvalidMeasure, match=limit):
        custom(func, True)
    gen = custom(func, True, **{limit: math.inf})
    assert getattr(gen, limit) == getattr(builtin, limit) == math.inf
    # the column whose measure is the limit: zero share, or zero weight
    assert r_fp((0.0, 0.5) if limit == "at_zero" else (0.5, 0.0), MeasureSpec(gen)) == math.inf
    full = custom(func, True, at_zero=builtin.at_zero, tail_slope=builtin.tail_slope)
    for v in [(0.0, 0.5), (0.5, 0.0), (0.25, 0.75), (0.0, 0.0)]:
        assert r_fp(v, MeasureSpec(full)) == r_fp(v, MeasureSpec(builtin))
    assert inequality(kappa_13(), MeasureSpec(full)) == inequality(kappa_13(), MeasureSpec(builtin))


def test_custom_generator_samples_a_settled_limit():
    gen = custom(lambda t: np.abs(t - 1) / 2, strictly_convex=False)
    assert gen.at_zero == gen.tail_slope == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(InvalidMeasure, match="at_zero"):
        custom(ge(2).func, True)  # (1/t - t)/2: infinite at zero


def test_linearity(rng):
    for _ in range(200):
        v = rng.uniform(0.0, 2.0, 2)
        ell = float(rng.uniform(0.01, 5.0))
        spec = MeasureSpec(ge(float(rng.uniform(-2, 3))), float(rng.uniform(0, 1)))
        assert r_fp(tuple(ell * v), spec) == pytest.approx(
            ell * r_fp(tuple(v), spec), abs=1e-10, rel=1e-10
        )


def test_parse_measure_grammar():
    kind, spec = parse_measure("pietra")
    assert kind == "f" and spec.f.name == "pietra" and spec.p == 0.0
    kind, spec = parse_measure("ge:2@p=0.25")
    assert kind == "f" and spec.f.name == "ge:2" and spec.p == 0.25
    kind, spec = parse_measure("theil@p=1")
    assert spec.p == 1.0
    kind, eps = parse_measure("atkinson:0.5")
    assert kind == "atkinson" and eps == 0.5


@pytest.mark.parametrize(
    "bad",
    ["gini", "ge:x", "atkinson:0", "atkinson:-1", "theil@q=1", "theil@p=2", "atkinson:1@p=0.5"]
    + ["ge:nan", "ge:inf", "ge:-inf", "atkinson:nan", "atkinson:inf", "theil@p=nan"]
    + ["theil@p=x", "atkinson:x"],
)
def test_parse_measure_rejects(bad):
    with pytest.raises(InvalidMeasure):
        parse_measure(bad)


# the masked-copy evaluation of r, kept verbatim: _r must match it bit for bit
def _masked_generator_call(f, t):
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty_like(t)
    zero = t == 0
    out[zero] = f.at_zero
    if np.any(~zero):
        out[~zero] = f.func(t[~zero])
    return float(out[0]) if scalar else out


def _masked_r(x, y, spec):
    a = spec.p * x + (1 - spec.p) * y
    pos = a > 0
    terms = np.zeros_like(a)
    terms[pos] = a[pos] * _masked_generator_call(spec.f, x[pos] / a[pos])
    vanished = ~pos & (x > 0)
    terms[vanished] = x[vanished] * spec.f.tail_slope
    return terms


def _positive_only(t):
    # a user generator must see only positive quotients: no 0, no NaN from 0/0
    assert np.all(t > 0), t
    return (t - 1) ** 2


_KERNEL_GENERATORS = {
    "pietra": pietra(),
    "theil": theil(),
    "mld": mld(),
    "ge:2": ge(2),
    "ge:-1": ge(-1),
    "ge:0.5": ge(0.5),
    "ge:3": ge(3),
    "custom": custom(_positive_only, strictly_convex=True, tail_slope=math.inf),
}
_components = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e300]),
    st.floats(min_value=0.0, max_value=1e300),
)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(sorted(_KERNEL_GENERATORS)),
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.lists(st.tuples(_components, _components), min_size=1, max_size=40),
)
# 5e-324/2 underflows to 0: the limit at zero, not f(0) = 0*log(0) = NaN
@example("mld", 0.0, [(5e-324, 2.0)])
@example("theil", 0.25, [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (5e-324, 1e300)])
def test_r_is_the_masked_kernel_bit_for_bit(name, p, columns):
    spec = MeasureSpec(_KERNEL_GENERATORS[name], p)
    x, y = (np.array(c, dtype=float) for c in zip(*columns))
    with np.errstate(all="ignore"):
        got, want = _r(x, y, spec), _masked_r(x, y, spec)
    assert got.tobytes() == want.tobytes(), (got, want)


@pytest.mark.parametrize("measure", ["theil", "mld", "pietra", "ge:2@p=0.25"])
def test_inequality_temporaries_stay_under_five_columns(measure):
    n = 10**6
    cols = population_matrix(Dataset.from_values(np.random.default_rng(0).lognormal(size=n)))
    spec = parse_measure(measure)[1]
    tracemalloc.start()
    try:
        inequality(cols, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * n, f"{peak / (8 * n):.2f} float arrays of n"
