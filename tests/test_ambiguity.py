"""Deformation operators, FSD bands and Bernoulli balls."""

import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from drnewsvendor import (
    BacktestPlan,
    BallKind,
    Beta,
    BernoulliBall,
    ChosenParameters,
    CvMode,
    DeformedCdf,
    SimConfig,
    Uniform01,
    deform_lower,
    deform_upper,
    double_power_lower,
    double_power_upper,
    make_bernoulli_ball,
    solve_dr_omega,
)
from drnewsvendor.ambiguity import ball_bounds

from conftest import random_dist

RHOS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def test_operator_values_at_half():
    # direct evaluation of the corrected pair at u=0.5, rho=0.5
    assert double_power_upper(0.5, 0.5) == pytest.approx(0.8660254037844386, abs=1e-12)
    assert double_power_lower(0.5, 0.5) == pytest.approx(0.1339745962155614, abs=1e-12)
    assert double_power_upper(0.5, 0.5) + double_power_lower(0.5, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_identity_axiom_at_rho_zero():
    u = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(double_power_upper(u, 0.0) - u)) <= 1e-12
    assert np.max(np.abs(double_power_lower(u, 0.0) - u)) <= 1e-12


def test_reflection_symmetry():
    u = np.linspace(0.0, 1.0, 1001)
    for rho in RHOS:
        lhs = double_power_upper(1.0 - u, rho)
        rhs = 1.0 - double_power_lower(u, rho)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_operator_inverse_round_trip():
    # Each operator's inverse is its mirror operator.
    # The upper trip composes the pair in the direction whose intermediate
    # approaches 0 (dense doubles): exact on the whole grid, and enough to
    # establish the two maps are mutual inverses. The lower trip's
    # intermediate approaches 1 where double spacing and the operator's
    # unbounded derivative make 1e-10 unattainable; assert it on the
    # well-conditioned region.
    p = np.linspace(0.0, 1.0, 201)
    for rho in RHOS:
        up = double_power_upper(double_power_lower(p, rho), rho)
        assert np.max(np.abs(up - p)) <= 1e-10
        inv = double_power_upper(p, rho)
        mask = (inv <= 1.0 - 1e-6) | (p == 1.0)
        lo = double_power_lower(inv[mask], rho)
        assert np.max(np.abs(lo - p[mask])) <= 1e-10
        # outside that region the trip still lands in [0, 1] monotonically
        rest = double_power_lower(inv[~mask], rho)
        assert np.all((rest >= 0.0) & (rest <= 1.0))
        assert np.all(np.diff(rest) >= -1e-12)


def test_operators_bound_identity():
    u = np.linspace(0.0, 1.0, 501)
    for rho in RHOS:
        assert np.all(double_power_upper(u, rho) >= u - 1e-15)
        assert np.all(double_power_lower(u, rho) <= u + 1e-15)


def test_rho_domain_errors():
    with pytest.raises(ValueError):
        double_power_upper(0.5, 1.0)
    with pytest.raises(ValueError):
        double_power_lower(0.5, -0.1)
    with pytest.raises(ValueError, match=r"^deformation radius must lie in \[0, 1\), got 1.0$"):
        deform_upper(Uniform01(), 1.0)
    with pytest.raises(ValueError, match="^side must be 'upper' or 'lower', got 'middle'$"):
        DeformedCdf(Uniform01(), 0.5, "middle")


def test_deformed_cdf_pointwise_matches_operator():
    dist = Beta(2, 6)
    xs = np.linspace(0, 1, 101)
    for rho in (0.2, 0.7):
        up = deform_upper(dist, rho)
        ref = np.asarray(dist.cdf(xs))
        assert np.allclose(np.asarray(up.cdf(xs)), double_power_upper(ref, rho), atol=1e-14)


def test_deformed_quantile_is_composed_inverse(rng):
    for _ in range(10):
        dist = random_dist(rng)
        rho = rng.uniform(0.05, 0.95)
        p = rng.random(20)
        up = deform_upper(dist, rho)
        lo = deform_lower(dist, rho)
        expect_up = np.asarray(dist.quantile(double_power_lower(p, rho)))
        expect_lo = np.asarray(dist.quantile(double_power_upper(p, rho)))
        assert np.allclose(np.asarray(up.quantile(p)), expect_up, atol=1e-14)
        assert np.allclose(np.asarray(lo.quantile(p)), expect_lo, atol=1e-14)


def test_fsd_ordering_and_monotone_nesting(rng):
    xs = np.linspace(0.0, 1.0, 101)
    rho_grid = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    for dist in (Beta(2, 6), Uniform01(), random_dist(rng)):
        ref = np.asarray(dist.cdf(xs))
        prev_up, prev_lo = ref, ref
        for rho in rho_grid:
            up = np.asarray(deform_upper(dist, rho).cdf(xs))
            lo = np.asarray(deform_lower(dist, rho).cdf(xs))
            assert np.all(lo <= ref + 1e-12) and np.all(ref <= up + 1e-12)
            assert np.all(prev_up <= up + 1e-12)   # upper grows with rho
            assert np.all(prev_lo >= lo - 1e-12)   # lower shrinks with rho
            prev_up, prev_lo = up, lo


def test_fsd_set_limits():
    dist = Beta(2, 6)
    xs = np.linspace(0, 1, 101)
    ref = np.asarray(dist.cdf(xs))
    assert np.allclose(np.asarray(deform_upper(dist, 0.0).cdf(xs)), ref, atol=1e-12)
    assert np.allclose(np.asarray(deform_lower(dist, 0.0).cdf(xs)), ref, atol=1e-12)


def test_robustness_limit_near_one():
    # quantiles at interior levels collapse onto the support bounds
    dist = Beta(2, 6)
    up = deform_upper(dist, 0.999)
    lo = deform_lower(dist, 0.999)
    for p in np.linspace(0.05, 0.95, 19):
        assert float(up.quantile(p)) <= 1e-2
        assert float(lo.quantile(p)) >= 1.0 - 1e-2


def test_band_quantile_keeps_the_upper_tail_where_the_level_rounds_to_one():
    # at rho = 0.99 the mirror level of p >= 0.5 rounds to 1, so the quantile
    # must come from the reference's upper end at the level's exact complement
    band = deform_lower(Beta(0.5, 8), 0.99)
    assert double_power_upper(0.5, 0.99) == 1.0
    assert band.quantile(0.5) == pytest.approx(0.9998810170160655, rel=1e-12)
    p = np.array([0.5, 0.75, 0.9])
    q = np.asarray(band.quantile(p))
    assert np.all(q < 1.0) and np.all(np.diff(q) > 0.0)
    assert q == pytest.approx(np.asarray(band._quantile_above(1.0 - p)), rel=1e-12)


def test_deformed_moments_against_quantile_integral_oracle():
    # the deformed mean/partials of a Beta reference come from the fixed
    # quantile-domain rule; check them against a uniform-grid trapezoid of
    # the closed-form quantile
    dist = Beta(2, 6)
    for rho, side in ((0.4, "upper"), (0.4, "lower"), (0.8, "upper")):
        band = deform_upper(dist, rho) if side == "upper" else deform_lower(dist, rho)
        p = np.linspace(0.0, 1.0, 2_000_001)
        q = np.asarray(band.quantile(p))
        # uniform-grid trapezoid under-resolves the quantile's steep edge
        # at large rho, so the oracle itself limits agreement to ~1e-6
        mean_oracle = trapezoid(q, p)
        assert band.mean() == pytest.approx(mean_oracle, abs=1e-6)
        for y in (0.2, 0.6):
            under, over = band.partial_expectations(y)
            under_oracle = trapezoid(np.maximum(y - q, 0.0), p)
            assert under == pytest.approx(under_oracle, abs=1e-6)
            assert over == pytest.approx(under - y + band.mean(), abs=1e-10)


def test_lower_deformed_uniform_quantile_formula():
    # for the uniform reference the deformed quantile is the operator inverse itself
    rho = 0.6
    lo = deform_lower(Uniform01(), rho)
    for p in (0.1, 0.5, 0.9):
        assert float(lo.quantile(p)) == pytest.approx(double_power_upper(p, rho), abs=1e-14)


def test_bernoulli_ball_uniform():
    ball = make_bernoulli_ball(0.8, 0.05, BallKind.UNIFORM)
    assert ball.tau_lo == pytest.approx(0.75, abs=1e-15)
    assert ball.tau_hi == pytest.approx(0.85, abs=1e-15)
    clipped = make_bernoulli_ball(0.98, 0.05, "uniform")
    assert clipped.tau_lo == pytest.approx(0.93)
    assert clipped.tau_hi == 1.0


def test_bernoulli_ball_level_adjusted():
    ball = make_bernoulli_ball(0.5, 0.1, BallKind.LEVEL_ADJUSTED, theta=0.9)
    # half-width 0.1 * (1 - 0.9) = 0.01 at the center level
    assert ball.tau_lo == pytest.approx(0.49, abs=1e-12)
    assert ball.tau_hi == pytest.approx(0.51, abs=1e-12)


def test_bernoulli_ball_zero_radius():
    ball = make_bernoulli_ball(0.6, 0.0)
    assert ball.tau_lo == ball.tau_hi == 0.6


def test_level_adjusted_half_width_dominated_by_uniform():
    eps, theta = 0.2, 0.7
    for tau in np.linspace(0.0, 1.0, 51):
        uni = make_bernoulli_ball(tau, eps)
        la = make_bernoulli_ball(tau, eps, BallKind.LEVEL_ADJUSTED, theta=theta)
        width_uni = uni.tau_hi - uni.tau_lo
        width_la = la.tau_hi - la.tau_lo
        assert width_la <= width_uni + 1e-12
        if tau in (0.0, 1.0):
            assert width_la == pytest.approx(width_uni, abs=1e-12)


def test_bernoulli_ball_validation():
    with pytest.raises(ValueError):
        make_bernoulli_ball(0.5, 0.1, BallKind.UNIFORM, theta=0.5)  # theta with uniform
    with pytest.raises(ValueError):
        make_bernoulli_ball(0.5, -0.1)
    with pytest.raises(ValueError):
        make_bernoulli_ball(1.5, 0.1)
    with pytest.raises(ValueError):
        make_bernoulli_ball(0.5, 0.1, BallKind.LEVEL_ADJUSTED)      # missing theta
    with pytest.raises(ValueError):
        make_bernoulli_ball(0.5, 0.1, BallKind.LEVEL_ADJUSTED, theta=1.0)
    with pytest.raises(ValueError, match=r"^ball radius must lie in \[0, 10.0\] for "
                                         r"level-adjusted balls, got 11.0$"):
        make_bernoulli_ball(0.5, 11.0, BallKind.LEVEL_ADJUSTED, theta=0.5)
    # a NaN radius is blamed on the radius, not on the bounds it would give
    with pytest.raises(ValueError, match="ball radius must be non-negative, got nan"):
        make_bernoulli_ball(0.75, float("nan"))
    with pytest.raises(ValueError, match="ball radius must be non-negative, got nan"):
        make_bernoulli_ball(0.75, float("nan"), BallKind.LEVEL_ADJUSTED, theta=0.5)


# the radius and theta ranges of a directly built ball are in the _TAKERS table
@pytest.mark.parametrize("center, shape", [(1.5, None), (float("nan"), 0.5)])
def test_a_ball_built_directly_checks_its_center(center, shape):
    message = f"ball center must lie in [0, 1], got {center}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BernoulliBall(center, 0.1, shape)


# each ball's bounds as they were read when a ball stored its kind and bounds
@pytest.mark.parametrize("center, radius, shape, lo, hi", [
    (0.8, 0.05, None, "0x1.8000000000000p-1", "0x1.b333333333334p-1"),
    (0.98, 0.05, None, "0x1.dc28f5c28f5c2p-1", "0x1.0000000000000p+0"),
    (0.37, float("inf"), None, "0x0.0p+0", "0x1.0000000000000p+0"),
    (0.3, 0.17, 0.9, "0x1.08b97785729b2p-2", "0x1.5daceee0f3cb4p-2"),
    (0.0, 0.2, 0.5, "0x0.0p+0", "0x1.999999999999ap-3"),
    (0.61, 10.0, 0.9999999999999999, "0x1.020c49ba5e32cp-3", "0x1.0000000000000p+0"),
])
def test_a_ball_reads_its_kind_and_bounds_off_center_radius_and_shape(center, radius, shape,
                                                                        lo, hi):
    ball = BernoulliBall(center, radius, shape)
    kind = BallKind.UNIFORM if shape is None else BallKind.LEVEL_ADJUSTED
    assert ball.kind is kind
    assert (ball.tau_lo.hex(), ball.tau_hi.hex()) == (lo, hi)
    assert ball == make_bernoulli_ball(center, radius, kind, shape)


def _chosen(strategy, **params):
    return ChosenParameters(CvMode.FIXED_WINDOW, {strategy: {"m": 10, **params}})


def _sim(**kw):
    return SimConfig(true_dist=Beta(2, 6), true_tau=0.75, n_replicates=1, **kw)


# every constructor that takes each parameter, as a function of its value
_TAKERS = {
    "epsilon": (
        lambda v: make_bernoulli_ball(0.5, v),
        lambda v: BernoulliBall(0.5, v),
        lambda v: BacktestPlan(strategies=("dr_s_uniform",), epsilon_grid=(v,)),
        lambda v: _chosen("dr_s_uniform", epsilon=v),
        lambda v: _sim(epsilon_grid=(v,), ball_kinds=("uniform",)),
    ),
    "level_adjusted_epsilon": (
        lambda v: make_bernoulli_ball(0.5, v, BallKind.LEVEL_ADJUSTED, theta=0.5),
        lambda v: BernoulliBall(0.5, v, 0.5),
        lambda v: BacktestPlan(strategies=("dr_s_level_adjusted",), epsilon_grid=(v,)),
        lambda v: _chosen("dr_s_level_adjusted", epsilon=v, theta=0.5),
        lambda v: _sim(epsilon_grid=(v,)),
    ),
    "theta": (
        lambda v: make_bernoulli_ball(0.5, 0.1, BallKind.LEVEL_ADJUSTED, theta=v),
        lambda v: BernoulliBall(0.5, 0.1, v),
        lambda v: BacktestPlan(strategies=("dr_s_level_adjusted",), theta_grid=(v,)),
        lambda v: _chosen("dr_s_level_adjusted", epsilon=0.1, theta=v),
        lambda v: _sim(theta=v),
    ),
    "rho": (
        lambda v: solve_dr_omega(Beta(2, 6), 0.5, v),
        lambda v: BacktestPlan(strategies=("dr_omega",), rho_grid=(v,)),
        lambda v: _chosen("dr_omega", rho=v),
    ),
    "deformation_rho": (
        lambda v: deform_upper(Beta(2, 6), v),
        lambda v: deform_lower(Beta(2, 6), v),
    ),
}


def _accepts(take, value) -> bool:
    try:
        take(value)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("param, value, accepted", [
    *[(param, value, False) for param in _TAKERS for value in (float("nan"), -0.1)],
    ("epsilon", 0.0, True), ("epsilon", 11.0, True),
    ("level_adjusted_epsilon", 10.0, True), ("level_adjusted_epsilon", 11.0, False),
    ("theta", 0.0, True), ("theta", 1.0, False),
    ("rho", 1.0, True), ("rho", 1.5, False),
    ("deformation_rho", 0.5, True), ("deformation_rho", 1.0, False),
])
def test_every_constructor_takes_one_range_per_parameter(param, value, accepted):
    assert [_accepts(take, value) for take in _TAKERS[param]] == [accepted] * len(_TAKERS[param])


unit_tau = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5]), st.floats(0.0, 1.0))


@given(st.lists(unit_tau, min_size=1, max_size=8),
       st.one_of(st.sampled_from([0.0, np.inf]), st.floats(0.0, np.inf)))
def test_uniform_ball_is_the_theta_zero_ball(taus, eps):
    # the factor 1 - 4*0*tau*(1-tau) is exactly 1, so the bounds are bit for bit
    tau = np.array(taus)
    lo, hi = ball_bounds(tau, eps, 0.0)
    assert lo.tobytes() == np.maximum(tau - eps, 0.0).tobytes()
    assert hi.tobytes() == np.minimum(tau + eps, 1.0).tobytes()
    ball = make_bernoulli_ball(taus[0], eps)
    assert (ball.tau_lo, ball.tau_hi) == (lo[0], hi[0])


# mostly values the plan accepts, and anything else
any_number = st.floats(allow_nan=True, allow_infinity=True)
radii = st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.0, 10.0, np.inf]), any_number)
shapes = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                   st.sampled_from([0.0, 0.9999999999999999]), any_number)


@given(unit_tau, radii, shapes, st.sampled_from(["dr_s_uniform", "dr_s_level_adjusted"]))
@example(0.5, 10.0, 0.9999999999999999, "dr_s_level_adjusted")
# just outside the ranges the plan accepts
@example(0.5, 0.1, 1.0, "dr_s_level_adjusted")
@example(0.5, 0.1, 1.5, "dr_s_level_adjusted")
@example(0.5, 10.5, 0.9, "dr_s_level_adjusted")
@example(0.5, -0.1, 0.0, "dr_s_uniform")
@example(0.5, np.nan, 0.0, "dr_s_uniform")
def test_plan_valid_balls_hold_their_center(tau, eps, theta, strategy):
    # ball_bounds checks nothing: the plan's radius and shape checks are
    # what keep every ball it is fed inside [0, 1] and around its center
    try:
        BacktestPlan(epsilon_grid=(eps,), theta_grid=(theta,), strategies=(strategy,))
    except ValueError:
        return
    lo, hi = ball_bounds(tau, eps, theta if strategy == "dr_s_level_adjusted" else 0.0)
    assert 0.0 <= lo <= tau <= hi <= 1.0
