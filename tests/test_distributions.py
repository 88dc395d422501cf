"""Distribution primitives: CDF/quantile round trips, moments, sampling."""

import re

import numpy as np
import pytest
from scipy import integrate, stats

from drnewsvendor import (
    Beta,
    Heaviside,
    PiecewiseLinear,
    RngStream,
    Uniform01,
    deform_lower,
    deform_upper,
    expected_loss,
    read_quantile_forecast,
    standard_forecast_levels,
    worst_case_cdf,
)
from drnewsvendor.distributions import _forecast_text

from conftest import random_dist, random_piecewise

# frozen oracle values (adaptive quadrature of the Beta(2,6) density /
# bisection on it to 1e-11 / 2e6-point trapezoid of the survival function)
CDF_BETA26_AT_025 = 0.5550537109375
Q75_BETA26 = 0.3407102142991789
UNDER_BETA26_AT_04 = 0.16539648
PIECEWISE20_MEAN = 0.25396154515221225


def all_dists():
    levels = standard_forecast_levels()
    pw = PiecewiseLinear(levels, Beta(2, 6).quantile(levels))
    return [Beta(2, 6), Uniform01(), Heaviside(0.4), pw]


@pytest.mark.parametrize("dist", [
    deform_lower(Beta(2, 6), 0.3),
    deform_upper(Beta(2, 6), 0.6),
    worst_case_cdf(Beta(2, 6), 0.7, 0.4),
], ids=["lower", "upper", "worst_case"])
def test_quadrature_losses_do_not_depend_on_the_call_shape(dist):
    # these price their moments by the default quadrature rule; an offer's
    # loss must carry the same bits alone, in a row and in a matrix
    offers = np.random.default_rng(5).random(100)
    alone = np.array([expected_loss(dist, float(y), 0.75) for y in offers])
    row = np.asarray(expected_loss(dist, offers, 0.75))
    matrix = np.asarray(expected_loss(dist, offers.reshape(4, 25), 0.75))
    assert row.tobytes() == alone.tobytes()
    assert matrix.ravel().tobytes() == alone.tobytes()


def test_cdf_upper_support_bound():
    for dist in all_dists():
        assert dist.cdf(1.0) == 1.0
        assert dist.cdf(1.7) == 1.0
        assert dist.cdf(-0.2) == 0.0


def test_cdf_uniform_identity():
    assert Uniform01().cdf(0.3) == pytest.approx(0.3, abs=0)


def test_cdf_beta_against_quadrature_oracle():
    assert Beta(2, 6).cdf(0.25) == pytest.approx(CDF_BETA26_AT_025, abs=1e-12)


def test_quantile_examples():
    assert Uniform01().quantile(0.75) == 0.75
    for p in (1e-9, 0.3, 1.0):
        assert Heaviside(0.0).quantile(p) == 0.0
    assert Beta(2, 6).quantile(0.75) == pytest.approx(Q75_BETA26, abs=1e-9)


def test_quantile_domain_errors():
    for dist in all_dists():
        with pytest.raises(ValueError):
            dist.quantile(-0.01)
        with pytest.raises(ValueError):
            dist.quantile(1.01)


@pytest.mark.parametrize("a, b", [(1, np.inf), (np.inf, 1), (0, 1), (1, -2), (np.nan, 1)])
def test_beta_rejects_shapes_that_are_not_positive_and_finite(a, b):
    with pytest.raises(ValueError, match=re.escape(
            f"Beta shape parameters must be positive and finite, got a={float(a)}, b={float(b)}")):
        Beta(a, b)


def test_cdf_monotone_and_quantile_monotone(rng):
    xs = np.linspace(0, 1, 101)
    ps = np.linspace(0, 1, 101)
    for dist in all_dists():
        assert np.all(np.diff(np.asarray(dist.cdf(xs))) >= -1e-15)
        assert np.all(np.diff(np.asarray(dist.quantile(ps))) >= -1e-15)


def test_means():
    assert Beta(2, 6).mean() == pytest.approx(0.25, abs=0)
    assert Uniform01().mean() == 0.5
    assert Heaviside(0.4).mean() == 0.4
    levels = standard_forecast_levels()
    pw = PiecewiseLinear(levels, Beta(2, 6).quantile(levels))
    assert pw.mean() == pytest.approx(PIECEWISE20_MEAN, abs=1e-9)
    # full-support tails keep the discretization error small
    assert pw.mean() == pytest.approx(0.25, abs=0.005)


def test_piecewise_mean_19_level_variant():
    levels = np.round(np.arange(0.05, 0.951, 0.05), 3)
    pw = PiecewiseLinear(levels, Beta(2, 6).quantile(levels))
    assert pw.mean() == pytest.approx(0.25810542956798915, abs=1e-9)


@pytest.mark.parametrize("dist_idx", [0, 1, 3])
def test_sampling_kolmogorov_smirnov(dist_idx):
    # inverse-transform draws: the quantile of uniform draws follows the CDF;
    # 1% critical value for n = 1e5 is 1.628/sqrt(n)
    dist = all_dists()[dist_idx]
    n = 100_000
    draws = np.asarray(dist.quantile(RngStream(11, dist_idx).generator.random(n)))
    stat = stats.kstest(draws, lambda x: np.asarray(dist.cdf(x))).statistic
    assert stat < 1.628 / np.sqrt(n)


def test_partial_expectations_at_lower_bound():
    for dist in all_dists():
        under, over = dist.partial_expectations(0.0)
        assert under == pytest.approx(0.0, abs=1e-12)
        assert over == pytest.approx(dist.mean(), abs=1e-10)


def test_partial_expectations_uniform_closed_form():
    assert Uniform01().partial_expectations(0.5) == pytest.approx((0.125, 0.125), abs=0)


def test_partial_expectations_beta_against_quadrature():
    # dual route: implementation is the incomplete-beta closed form,
    # the oracle integrates the CDF numerically
    under, over = Beta(2, 6).partial_expectations(0.4)
    assert under == pytest.approx(UNDER_BETA26_AT_04, abs=1e-10)
    oracle, _ = integrate.quad(lambda x: stats.beta(2, 6).cdf(x), 0, 0.4, epsabs=1e-12)
    assert under == pytest.approx(oracle, abs=1e-9)
    assert over == pytest.approx(under - 0.4 + 0.25, abs=1e-12)


def test_partial_expectation_identity_on_grid():
    for dist in all_dists():
        mu = dist.mean()
        for y in np.linspace(0.0, 1.0, 101):
            under, over = dist.partial_expectations(float(y))
            assert under - over == pytest.approx(y - mu, abs=1e-8)
            assert under + over - abs(mu - y) >= -1e-8


@pytest.mark.parametrize("dist", [*all_dists(), deform_lower(Beta(2, 6), 0.3)],
                         ids=["beta", "uniform", "heaviside", "piecewise", "deformed"])
def test_partial_expectations_answer_a_scalar_with_floats_and_reject_a_bad_offer(dist):
    under, over = dist.partial_expectations(0.3)
    assert type(under) is float and type(over) is float
    row = dist.partial_expectations(np.array([0.3, 0.6]))
    assert [np.shape(v) for v in row] == [(2,), (2,)]
    assert (row[0][0], row[1][0]) == (under, over)
    for y in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match=r"^y must lie in \[0, 1\]"):
            dist.partial_expectations(y)


def test_quantile_cdf_round_trip_property(rng):
    for _ in range(40):
        dist = random_dist(rng)
        ps = rng.random(25)
        for p in ps:
            assert float(dist.cdf(dist.quantile(float(p)))) == pytest.approx(p, abs=1e-9)


def test_cdf_quantile_round_trip_where_strictly_increasing(rng):
    for _ in range(20):
        dist = random_piecewise(rng)
        xs = rng.uniform(0.01, 0.99, 25)
        for x in xs:
            assert float(dist.quantile(dist.cdf(float(x)))) == pytest.approx(x, abs=1e-9)


def test_piecewise_atom_semantics():
    # repeated value = point mass; cdf right-continuous, quantile flat
    pw = PiecewiseLinear([0.2, 0.6, 0.8], [0.3, 0.3, 0.9])
    assert pw.cdf(0.3) == pytest.approx(0.6, abs=0)          # upper level at the atom
    assert pw.cdf(0.3 - 1e-12) < 0.21
    for p in (0.25, 0.4, 0.55):
        assert pw.quantile(p) == pytest.approx(0.3, abs=1e-12)


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewiseLinear([0.5, 0.2], [0.1, 0.2])       # levels not increasing
    with pytest.raises(ValueError):
        PiecewiseLinear([0.2, 0.5], [0.4, 0.1])       # values decreasing
    with pytest.raises(ValueError):
        PiecewiseLinear([0.0, 0.5], [0.1, 0.2])       # level at 0
    with pytest.raises(ValueError):
        PiecewiseLinear([0.2, 0.5], [0.1, 1.2])       # value above 1
    with pytest.raises(ValueError):
        PiecewiseLinear([], [])


def test_piecewise_single_knot():
    pw = PiecewiseLinear([0.5], [0.3])
    assert pw.quantile(0.5) == 0.3
    assert pw.quantile(0.0) == 0.0 and pw.quantile(1.0) == 1.0
    assert pw.cdf(0.3) == pytest.approx(0.5, abs=1e-15)
    assert pw.mean() == pytest.approx(0.5 * 0.15 + 0.5 * 0.65, abs=1e-15)


def test_beta_validation():
    with pytest.raises(ValueError):
        Beta(0.0, 2.0)
    with pytest.raises(ValueError):
        Beta(2.0, -1.0)


def test_beta_quantile_of_no_levels_is_an_empty_float_array():
    q = Beta(2, 6).quantile(np.array([]))
    assert q.shape == (0,) and q.dtype == np.float64


def test_rng_stream_determinism_and_independence():
    a = RngStream(123456789, 4).generator.random(1000)
    b = RngStream(123456789, 4).generator.random(1000)
    assert np.array_equal(a, b)
    c = RngStream(123456789, 5).generator.random(1000)
    assert not np.array_equal(a, c)
    assert abs(np.corrcoef(a, c)[0, 1]) < 0.1


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(1, -2)


def test_quantile_forecast_round_trip(tmp_path, rng):
    dist = random_piecewise(rng)
    path = tmp_path / "fc.csv"
    path.write_text(_forecast_text(dist))
    back = read_quantile_forecast(path)
    assert np.array_equal(back.levels, dist.levels)
    assert np.array_equal(back.values, dist.values)


def test_quantile_forecast_errors(tmp_path):
    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("lvl,val\n0.5,0.2\n")
    with pytest.raises(ValueError, match="header"):
        read_quantile_forecast(bad_header)
    bad_cell = tmp_path / "bad2.csv"
    bad_cell.write_text("level,value\n0.5,x\n")
    with pytest.raises(ValueError, match="bad2.csv:2"):
        read_quantile_forecast(bad_cell)
    empty = tmp_path / "bad3.csv"
    empty.write_text("level,value\n")
    with pytest.raises(ValueError, match="no quantile rows"):
        read_quantile_forecast(empty)
    nan_value = tmp_path / "bad4.csv"
    nan_value.write_text("level,value\n0.25,0.1\n0.5,nan\n0.75,0.9\n")
    with pytest.raises(ValueError, match=r"bad4.csv: values must be finite"):
        read_quantile_forecast(nan_value)


@pytest.mark.parametrize("text, message", [
    # exactly two columns, in the header and in every row
    ("level,value,extra\n0.1,0.2\n", r"fc.csv:1: expected header"),
    ("level,value\n0.1,0.2,7\n", r"fc.csv:2: expected two columns"),
    ("level,value\n0.1,0.2\n0.5,0.3,\n", r"fc.csv:3: expected two columns"),
    # a knot error keeps its text and ends with the first offending line
    ("level,value\n0.1,0.2\n\n0.5,0.1\n0.7,0.05\n",
     r"fc.csv: values must be non-decreasing \(line 4\)$"),
    ("level,value\n0.1,0.2\n0.5,0.3\n0.5,0.4\n",
     r"fc.csv: levels must be strictly increasing \(line 4\)$"),
    ("level,value\n0.1,0.2\n0.5,inf\n0.7,nan\n", r"fc.csv: values must be finite.*\(line 3\)$"),
    ("level,value\n1e309,0.2\n", r"fc.csv: levels must be finite.*\(line 2\)$"),
])
def test_quantile_forecast_names_the_line(tmp_path, text, message):
    path = tmp_path / "fc.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_quantile_forecast(path)


@pytest.mark.parametrize("levels, values, what", [
    ([0.25, 0.5, 0.75], [0.1, np.nan, 0.9], "values"),
    ([0.25, 0.5, 0.75], [np.nan, np.nan, np.nan], "values"),
    ([0.25, 0.5, 0.75], [0.1, 0.4, np.inf], "values"),
    ([0.25, np.nan, 0.75], [0.1, 0.4, 0.9], "levels"),
    ([-np.inf, 0.5, 0.75], [0.1, 0.4, 0.9], "levels"),
])
def test_piecewise_rejects_non_finite_knots(levels, values, what):
    # NaN passes every "any element outside" check; the constructor asks
    # "all elements inside" instead
    with pytest.raises(ValueError, match=rf"{what} must be finite"):
        PiecewiseLinear(levels, values)
