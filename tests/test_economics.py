"""Settlement arithmetic: revenue, penalties, outcomes, expected loss."""

import numpy as np
import pytest

from drnewsvendor import (
    Beta,
    PenaltyPair,
    Uniform01,
    expected_loss,
    penalties,
    regret_and_ratio,
    revenue,
)
from drnewsvendor.economics import bernoulli_outcomes

from conftest import random_dist


def test_effective_balancing_price_cases():
    # the imbalance omega - y settles at the effective price: pi_b when it aggravates the system
    assert revenue(50, 40, +1, 0.3, 0.5) == 50 * 0.3 + 40 * (0.5 - 0.3)  # surplus into long system
    assert revenue(50, 70, +1, 0.5, 0.3) == 50 * 0.5 + 50 * (0.3 - 0.5)  # deficit opposes long system
    assert revenue(50, 70, 0, 0.2, 0.9) == 50 * 0.2 + 50 * (0.9 - 0.2)   # zero length never aggravates


def test_revenue_examples():
    assert revenue(50, 40, +1, 0.3, 0.5) == pytest.approx(23.0)
    # deficit while the system is long settles at the day-ahead price
    assert revenue(50, 70, +1, 0.5, 0.3) == pytest.approx(50 * 0.3)
    # hand-computed second case: deficit aggravating a short system
    assert revenue(50, 70, -1, 0.5, 0.3) == pytest.approx(11.0)


def test_revenue_zero_imbalance_ignores_balancing_price(rng):
    for _ in range(20):
        pi_s = rng.uniform(1, 100)
        pi_b = rng.uniform(1, 100)
        w = float(rng.random())
        assert revenue(pi_s, pi_b, rng.normal(), w, w) == pytest.approx(pi_s * w, rel=1e-12)


def test_penalties_cases():
    assert penalties(50, 40, +1) == PenaltyPair(10.0, 0.0)
    assert penalties(50, 70, -1) == PenaltyPair(0.0, 20.0)
    assert penalties(50, 60, +1) == PenaltyPair(0.0, 0.0)   # negative clamped
    assert penalties(50, 40, -1) == PenaltyPair(0.0, 0.0)
    assert penalties(50, 40, 0) == PenaltyPair(10.0, 0.0)   # zero length counts as long


def test_penalty_mutual_exclusivity(rng):
    for _ in range(200):
        pair = penalties(rng.uniform(0, 100), rng.uniform(0, 100), rng.normal())
        assert not (pair.overage > 0 and pair.underage > 0)
        assert pair.overage >= 0 and pair.underage >= 0


def test_penalty_pair_validation():
    with pytest.raises(ValueError):
        PenaltyPair(1.0, 2.0)
    with pytest.raises(ValueError):
        PenaltyPair(-1.0, 0.0)


def test_bernoulli_outcome():
    outcome = bernoulli_outcomes([10.0, 0.0, 0.0], [0.0, 20.0, 0.0])
    assert outcome[:2].tolist() == [1.0, 0.0]
    assert np.isnan(outcome[2])


def test_revenue_decomposition_against_penalty_split(rng):
    # R = pi_s*w - pi_o*(w-y)+ - pi_u*(y-w)+ with the raw (unclamped) spread,
    # for any nonzero system length
    for _ in range(300):
        pi_s = rng.uniform(1, 100)
        pi_b = rng.uniform(1, 100)
        s_l = rng.normal()
        if s_l == 0.0:
            continue
        y, w = float(rng.random()), float(rng.random())
        r = revenue(pi_s, pi_b, s_l, y, w)
        if s_l > 0:
            pi_o_raw, pi_u_raw = pi_s - pi_b, 0.0
        else:
            pi_o_raw, pi_u_raw = 0.0, pi_b - pi_s
        expected = pi_s * w - pi_o_raw * max(w - y, 0.0) - pi_u_raw * max(y - w, 0.0)
        assert r == pytest.approx(expected, abs=1e-9)


def test_expected_loss_uniform_value():
    assert expected_loss(Uniform01(), 0.5, 0.5) == pytest.approx(0.125, abs=0)


def test_expected_loss_minimized_at_quantile(rng):
    y_grid = np.linspace(0, 1, 1001)
    for _ in range(10):
        dist = random_dist(rng)
        tau = float(rng.uniform(0.05, 0.95))
        losses = np.array([expected_loss(dist, float(y), tau) for y in y_grid])
        y_star = float(dist.quantile(tau))
        assert expected_loss(dist, y_star, tau) <= losses.min() + 1e-9


def test_expected_loss_crossing_identity(rng):
    # every chance-of-success curve passes through the same point at the mean
    for _ in range(50):
        dist = random_dist(rng)
        mu = dist.mean()
        t1, t2 = float(rng.random()), float(rng.random())
        assert abs(expected_loss(dist, mu, t1) - expected_loss(dist, mu, t2)) <= 1e-9


def test_expected_loss_linear_increment_in_tau(rng):
    for _ in range(50):
        dist = random_dist(rng)
        mu = dist.mean()
        y = float(rng.random())
        tau = float(rng.uniform(0, 0.9))
        delta = float(rng.uniform(0, 1.0 - tau))
        lhs = expected_loss(dist, y, tau + delta) - expected_loss(dist, y, tau)
        assert lhs == pytest.approx(delta * (mu - y), abs=1e-9)


def test_expected_loss_convex_in_y(rng):
    y_grid = np.linspace(0, 1, 101)
    for dist in (Beta(2, 6), Uniform01(), random_dist(rng)):
        for tau in (0.1, 0.5, 0.9):
            vals = np.array([expected_loss(dist, float(y), tau) for y in y_grid])
            second = np.diff(vals, 2)
            assert np.all(second >= -1e-9)


def test_regret_and_ratio_identical_to_oracle():
    oracle = np.array([10.0, 12.0, 8.0])
    vols = np.array([0.5, 0.6, 0.4])
    rows = regret_and_ratio({"bn": oracle.copy()}, oracle, vols, reference="bn")
    row = rows["bn"]
    assert row.regret_per_mwh == 0.0
    assert row.advantage_ratio_pct == 100.0
    assert np.all(row.cum_delta_regret == 0.0)


def test_regret_and_ratio_two_period_hand_computed():
    # period 1: (50, 40, +1, y=.3, w=.5) -> 23; oracle 25
    # period 2: (50, 70, -1, y=.5, w=.3) -> 11; oracle 15
    strat = np.array([23.0, 11.0])
    oracle = np.array([25.0, 15.0])
    vols = np.array([0.5, 0.3])
    rows = regret_and_ratio({"bn": strat, "better": np.array([24.0, 11.0])},
                            oracle, vols, reference="bn")
    assert rows["bn"].revenue_per_mwh == pytest.approx(34.0 / 0.8)
    assert rows["bn"].regret_per_mwh == pytest.approx(6.0 / 0.8)
    assert rows["better"].advantage_ratio_pct == 100.0
    assert rows["better"].cum_delta_regret == pytest.approx([1.0, 1.0])


def test_advantage_ratio_tolerates_ulp_ties():
    # settlements that agree economically but differ by summation-order ulps
    ref = np.array([10.0, 20.0, 30.0])
    wiggled = ref - np.array([5e-13, 0.0, 2e-9 * 30.0 * 0.0])
    rows = regret_and_ratio({"bn": ref, "same": wiggled}, ref + 1.0, np.ones(3),
                            reference="bn")
    assert rows["same"].advantage_ratio_pct == 100.0
    clearly_worse = ref - 1e-6
    rows = regret_and_ratio({"bn": ref, "worse": clearly_worse}, ref + 1.0, np.ones(3),
                            reference="bn")
    assert rows["worse"].advantage_ratio_pct == 0.0


def test_regret_and_ratio_misaligned_series():
    with pytest.raises(ValueError, match="^oracle revenues and volumes must be aligned$"):
        regret_and_ratio({"bn": [1.0]}, [1.0], [0.5, 0.5], reference="bn")
    with pytest.raises(ValueError):
        regret_and_ratio({"bn": [1.0, 2.0]}, [1.0], [0.5], reference="bn")
    with pytest.raises(ValueError):
        regret_and_ratio({"bn": [1.0]}, [1.0], [0.0], reference="bn")


def test_settlement_input_validation():
    with pytest.raises(ValueError):
        revenue(50, 40, 1, 1.2, 0.5)
    with pytest.raises(ValueError):
        revenue(50, 40, 1, 0.5, -0.1)


@pytest.mark.parametrize("y, omega, name", [
    (float("nan"), 0.5, "y"),
    (0.5, float("nan"), "omega_star"),
    (np.array([0.2, 1.5]), np.array([0.5, 0.5]), "y"),
    (np.array([0.2, 0.4]), np.array([0.5, np.nan]), "omega_star"),
    (np.array([0.2, 0.4]), np.array([-0.1, 0.5]), "omega_star"),
])
def test_revenue_rejects_a_nan_or_an_array_entry_outside_the_unit_interval(y, omega, name):
    with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\], got "):
        revenue(50.0, 40.0, 1.0, y, omega)
