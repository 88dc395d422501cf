"""Property tests: moment identities, operator axioms, band ordering, DR-S branches."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drnewsvendor import (
    Beta,
    Heaviside,
    PiecewiseLinear,
    Uniform01,
    deform_lower,
    deform_upper,
    double_power_lower,
    double_power_upper,
    make_bernoulli_ball,
    solve_dr_s,
    worst_case_cdf,
)
from drnewsvendor.solvers import DR_S_BRANCHES, dr_s_rule

unit = st.floats(min_value=0.0, max_value=1.0)
radius = st.floats(min_value=0.0, max_value=0.99)
shape = st.floats(min_value=0.5, max_value=8.0)


@st.composite
def forecasts(draw):
    """Quantile forecasts on a 0.01 level grid; repeated values make atoms."""
    cells = sorted(set(draw(st.lists(st.integers(1, 99), min_size=1, max_size=20))))
    values = sorted(draw(st.lists(st.one_of(unit, st.sampled_from([0.0, 0.5, 1.0])),
                                  min_size=len(cells), max_size=len(cells))))
    return PiecewiseLinear(np.array(cells) / 100.0, values)


betas = st.builds(Beta, shape, shape)
references = st.one_of(forecasts(), betas, st.just(Uniform01()))


@st.composite
def bands(draw, reference):
    side = draw(st.sampled_from([deform_upper, deform_lower]))
    return side(draw(reference), draw(radius))


distributions = st.one_of(
    betas,
    forecasts(),
    st.just(Uniform01()),
    st.builds(Heaviside, unit),
    bands(forecasts()),
    bands(betas),
    st.builds(worst_case_cdf, references, unit, radius),
)


@given(distributions, unit)
def test_partial_expectations_differ_by_offer_minus_mean(dist, y):
    under, over = dist.partial_expectations(y)
    mean = dist.mean()
    assert under - over == pytest.approx(y - mean, abs=1e-9)
    # E[(y - w)+] lies between (y - E w)+ (Jensen) and y; likewise E[(w - y)+]
    assert max(y - mean, 0.0) - 1e-9 <= under <= y + 1e-12
    assert max(mean - y, 0.0) - 1e-9 <= over <= 1.0 - y + 1e-12


@given(distributions, st.lists(unit, min_size=2, max_size=8))
def test_array_partial_expectations_match_scalar_calls(dist, ys):
    under, over = dist.partial_expectations(np.array(ys))
    for i, y in enumerate(ys):
        u, o = dist.partial_expectations(y)
        assert under[i] == pytest.approx(u, abs=1e-12)
        assert over[i] == pytest.approx(o, abs=1e-12)


@given(unit, unit, radius, radius)
def test_operator_axioms(u, v, rho, rho2):
    lo_u, hi_u = sorted((u, v))
    small, large = sorted((rho, rho2))
    for op in (double_power_upper, double_power_lower):
        # identity at rho = 0, fixed endpoints, values in [0, 1]
        assert op(u, 0.0) == pytest.approx(u, abs=1e-12)
        assert op(0.0, rho) == 0.0 and op(1.0, rho) == 1.0
        assert 0.0 <= op(u, rho) <= 1.0
        # non-decreasing in u
        assert op(lo_u, rho) <= op(hi_u, rho) + 1e-15
    # upper pushes CDF values up and lower pushes them down, more so at larger radii
    assert u - 1e-15 <= double_power_upper(u, small) <= double_power_upper(u, large) + 1e-12
    assert double_power_lower(u, large) - 1e-12 <= double_power_lower(u, small) <= u + 1e-15


# the lower operator's slope grows like (1 - u)^-rho near u = 1, so its
# rounding error does too; 1e-12 holds up to 1 - u = 1e-4 at rho = 0.99
@given(st.floats(min_value=0.0, max_value=0.9999), radius)
def test_reflection_identity_and_mirror_inverse(u, rho):
    assert double_power_upper(1.0 - u, rho) == pytest.approx(1.0 - double_power_lower(u, rho), abs=1e-12)
    # each operator's inverse is the mirror operator (see test_ambiguity for
    # the conditioning of the other direction)
    assert double_power_upper(double_power_lower(u, rho), rho) == pytest.approx(u, abs=1e-10)


@given(references, radius, radius, st.lists(unit, min_size=1, max_size=8))
def test_fsd_band_ordering(reference, rho, rho2, xs):
    xs = np.array(xs)
    small, large = sorted((rho, rho2))
    ref = np.asarray(reference.cdf(xs))
    up_s, up_l = (np.asarray(deform_upper(reference, r).cdf(xs)) for r in (small, large))
    lo_s, lo_l = (np.asarray(deform_lower(reference, r).cdf(xs)) for r in (small, large))
    # lower band <= reference <= upper band, and the band widens with rho
    assert np.all(lo_l <= lo_s + 1e-12) and np.all(lo_s <= ref + 1e-12)
    assert np.all(ref <= up_s + 1e-12) and np.all(up_s <= up_l + 1e-12)
    # first-order dominance orders the means the other way round
    means = [deform_upper(reference, large).mean(), deform_upper(reference, small).mean(),
             reference.mean(), deform_lower(reference, small).mean(),
             deform_lower(reference, large).mean()]
    assert all(a <= b + 1e-9 for a, b in zip(means, means[1:]))


@given(st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=16))
def test_dr_s_rule_fires_exactly_one_branch(triples):
    q = np.sort(np.array([t[:2] for t in triples]), axis=1)
    q_lo, q_hi, mean = q[:, 0], q[:, 1], np.array([t[2] for t in triples])
    offer, branch = dr_s_rule(q_lo, q_hi, mean)
    fired = np.stack([q_hi < mean, q_lo > mean, (q_lo <= mean) & (mean <= q_hi)])
    # with q_lo <= q_hi the three conditions partition every case
    assert np.array_equal(fired.sum(axis=0), np.ones(len(triples)))
    assert np.array_equal(branch, fired.argmax(axis=0))
    # the offer is the mean projected onto [q_lo, q_hi]
    assert np.array_equal(offer, np.minimum(np.maximum(mean, q_lo), q_hi))


def choose_reference(q_lo, q_hi, mean):
    """The DR-S rule through ``np.choose``, as a reference for the offers and branches."""
    branch = np.where(q_hi < mean, 0, np.where(q_lo > mean, 1, 2))
    return np.choose(branch, (q_hi, q_lo, mean)), branch


@st.composite
def dr_s_blocks(draw):
    """A (grid x period) block of bound quantiles with a per-period mean.

    Bounds may be ``+inf`` (upper) and ``-inf`` (lower), as the Monte-Carlo
    table passes the ones it does not price, and any entry may be NaN.
    """
    grid, periods = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    special = st.sampled_from([0.0, -0.0, np.nan])

    def block(extra):
        cells = st.one_of(unit, special, st.just(extra))
        return np.array(draw(st.lists(cells, min_size=grid * periods,
                                      max_size=grid * periods))).reshape(grid, periods)

    mean = np.array(draw(st.lists(st.one_of(unit, special), min_size=periods,
                                  max_size=periods)))
    return block(-np.inf), block(np.inf), mean


@given(dr_s_blocks())
def test_dr_s_rule_matches_a_choose_reference(case):
    q_lo, q_hi, mean = case
    offer, branch = dr_s_rule(q_lo, q_hi, mean)
    expect_offer, expect_branch = choose_reference(q_lo, q_hi, mean)
    assert offer.dtype == expect_offer.dtype and offer.shape == expect_offer.shape
    assert offer.tobytes() == expect_offer.tobytes()
    assert branch.dtype == expect_branch.dtype and branch.tobytes() == expect_branch.tobytes()


@given(st.one_of(forecasts(), betas), unit, st.floats(min_value=0.0, max_value=1.0))
def test_solve_dr_s_reports_the_branch_it_took(dist, tau, eps):
    decision = solve_dr_s(dist, make_bernoulli_ball(tau, eps))
    d = decision.diagnostics
    expected = {"upper_quantile": d["q_hi"], "lower_quantile": d["q_lo"], "mean": d["mean"]}
    assert d["branch"] in DR_S_BRANCHES
    assert decision.y_star == expected[d["branch"]]
