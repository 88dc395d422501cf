"""Closed-form offers against brute-force grid minimization."""

import numpy as np
import pytest

from drnewsvendor import (
    Beta,
    Heaviside,
    Method,
    OfferDecision,
    Uniform01,
    WorstCaseCdf,
    deform_lower,
    deform_upper,
    expected_loss,
    make_bernoulli_ball,
    solve_direct,
    solve_dr_omega,
    solve_dr_s,
    solve_robust_omega,
    solve_robust_s,
    worst_case_cdf,
)
from drnewsvendor.solvers import dr_omega_levels, dr_omega_offers

from conftest import grid_expected_loss, random_dist

Q75_BETA26 = 0.3407102142991789
Q15_BETA26 = 0.10012318922599661  # bisection oracle; sits left of the mean 0.25

Y_GRID = np.round(np.arange(0.0, 1.0 + 1e-9, 1e-3), 9)


def test_direct_examples():
    assert solve_direct(Uniform01(), 0.75).y_star == 0.75
    assert solve_direct(Beta(2, 6), 0.75).y_star == pytest.approx(Q75_BETA26, abs=1e-9)
    for dist in (Beta(2, 6), Uniform01(), Heaviside(0.3)):
        assert solve_direct(dist, 0.0).y_star == 0.0


def test_direct_is_exact_quantile(rng):
    for _ in range(20):
        dist = random_dist(rng)
        tau = float(rng.random())
        assert solve_direct(dist, tau).y_star == float(dist.quantile(tau))


def test_dr_omega_rho_zero_equals_direct(rng):
    for _ in range(20):
        dist = random_dist(rng)
        tau = float(rng.random())
        assert solve_dr_omega(dist, tau, 0.0).y_star == pytest.approx(
            solve_direct(dist, tau).y_star, abs=1e-12
        )


def test_dr_omega_rho_one_is_tau():
    for tau in (0.0, 0.25, 0.75, 1.0):
        decision = solve_dr_omega(Beta(2, 6), tau, 1.0)
        assert decision.y_star == tau
        assert decision.method is Method.DR_OMEGA


def test_dr_s_eps_zero_equals_direct(rng):
    for _ in range(20):
        dist = random_dist(rng)
        tau = float(rng.random())
        ball = make_bernoulli_ball(tau, 0.0)
        assert solve_dr_s(dist, ball).y_star == pytest.approx(
            solve_direct(dist, tau).y_star, abs=1e-12
        )


def test_dr_s_full_ball_is_mean(rng):
    for _ in range(20):
        dist = random_dist(rng)
        tau = float(rng.random())
        decision = solve_dr_s(dist, make_bernoulli_ball(tau, 1.0))
        assert decision.y_star == dist.mean()
        assert decision.diagnostics["branch"] == "mean"


def test_dr_s_low_tau_upper_branch():
    # tau ball [0.05, 0.15]: the upper-bound quantile sits left of the mean
    decision = solve_dr_s(Beta(2, 6), make_bernoulli_ball(0.1, 0.05))
    assert decision.y_star == pytest.approx(Q15_BETA26, abs=1e-9)
    assert decision.diagnostics["branch"] == "upper_quantile"
    assert decision.y_star < 0.25


def test_robust_s_examples():
    assert solve_robust_s(Beta(2, 6)).y_star == 0.25
    assert solve_robust_s(Uniform01()).y_star == 0.5
    for tau in (0.1, 0.5, 0.9):
        full = solve_dr_s(Uniform01(), make_bernoulli_ball(tau, 1.0))
        assert full.y_star == solve_robust_s(Uniform01()).y_star


def test_robust_omega():
    assert solve_robust_omega(0.42).y_star == 0.42
    with pytest.raises(ValueError):
        solve_robust_omega(1.2)


def test_dr_s_branch_exclusivity(rng):
    # Appendix-C style impossibility: both side branches can never fire
    for _ in range(200):
        dist = random_dist(rng)
        tau = float(rng.random())
        eps = float(rng.uniform(0.0, 1.0))
        ball = make_bernoulli_ball(tau, eps)
        mu = dist.mean()
        q_hi = float(dist.quantile(ball.tau_hi))
        q_lo = float(dist.quantile(ball.tau_lo))
        assert q_hi >= q_lo - 1e-12
        assert not (q_hi < mu and q_lo > mu)
        branch = solve_dr_s(dist, ball).diagnostics["branch"]
        fired = [q_hi < mu, q_lo > mu, q_hi >= mu and q_lo <= mu]
        assert sum(fired) == 1
        assert branch == ("upper_quantile", "lower_quantile", "mean")[fired.index(True)]


def test_dr_omega_monotone_interpolation(rng):
    # endpoints on random instances
    for _ in range(5):
        dist = random_dist(rng)
        tau = float(rng.uniform(0.05, 0.95))
        assert solve_dr_omega(dist, tau, 0.0).y_star == pytest.approx(
            solve_direct(dist, tau).y_star, abs=1e-12
        )
        assert solve_dr_omega(dist, tau, 1.0).y_star == tau
    # continuity in rho on representative shapes: grid refinement shrinks steps
    from drnewsvendor import PiecewiseLinear, standard_forecast_levels

    levels = standard_forecast_levels()
    for dist in (Beta(2, 6), Uniform01(), PiecewiseLinear(levels, Beta(2, 6).quantile(levels))):
        for tau in (0.25, 0.75):
            coarse = np.linspace(0.0, 1.0, 101)
            fine = np.linspace(0.0, 1.0, 401)
            step_c = np.max(np.abs(np.diff(
                [solve_dr_omega(dist, tau, float(r)).y_star for r in coarse]
            )))
            step_f = np.max(np.abs(np.diff(
                [solve_dr_omega(dist, tau, float(r)).y_star for r in fine]
            )))
            assert step_c < 0.05
            assert step_f < 0.6 * step_c + 1e-9


def test_dr_s_moves_monotonically_toward_mean(rng):
    eps_grid = np.linspace(0.0, 1.0, 51)
    for _ in range(10):
        dist = random_dist(rng)
        tau = float(rng.random())
        mu = dist.mean()
        gaps = [
            abs(solve_dr_s(dist, make_bernoulli_ball(tau, float(e))).y_star - mu)
            for e in eps_grid
        ]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] == pytest.approx(0.0, abs=1e-12)


def test_worst_case_cdf_limits(rng):
    dist = Beta(2, 6)
    assert worst_case_cdf(dist, 0.6, 0.0) is dist
    two_point = worst_case_cdf(dist, 0.6, 1.0)
    assert two_point.cdf(0.0) == pytest.approx(0.6)
    assert two_point.cdf(0.5) == pytest.approx(0.6)
    assert two_point.cdf(1.0) == 1.0
    assert two_point.mean() == pytest.approx(0.4, abs=1e-8)


def test_worst_case_cdf_rejects_swapped_bands():
    dist = Beta(2, 6)
    upper, lower = deform_upper(dist, 0.4), deform_lower(dist, 0.4)
    assert repr(upper) == "DeformedCdf(Beta(2, 6), rho=0.4, side='upper')"
    assert repr(WorstCaseCdf(upper, lower, 0.6)) == (
        "WorstCaseCdf(level=0.6, plateau=[0.150175, 0.417761])")
    with pytest.raises(ValueError, match="^upper-band quantile exceeds lower-band quantile$"):
        WorstCaseCdf(lower, upper, 0.6)


def test_worst_case_cdf_is_valid_with_plateau(rng):
    xs = np.linspace(0.0, 1.0, 401)
    for _ in range(20):
        dist = random_dist(rng)
        tau = float(rng.uniform(0.05, 0.95))
        rho = float(rng.uniform(0.05, 0.95))
        wc = worst_case_cdf(dist, tau, rho)
        vals = np.asarray(wc.cdf(xs))
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[-1] == 1.0
        assert wc.cdf(-0.1) == 0.0
        mid = 0.5 * (wc.q_lo + wc.q_hi)
        if wc.q_hi - wc.q_lo > 1e-9:
            assert float(wc.cdf(mid)) == pytest.approx(tau, abs=1e-12)
        # plateau quantile returns the left endpoint
        assert float(wc.quantile(tau)) == pytest.approx(wc.q_lo, abs=1e-12)


def _assert_objective_close_to_grid_min(objective: np.ndarray, y_star: float, tol=2e-3):
    at_solver = np.interp(y_star, Y_GRID, objective)
    at_grid_min = objective.min()
    assert at_solver - at_grid_min <= tol
    # the grid can only do better than the solver by discretization noise
    assert at_grid_min - at_solver <= tol


def test_direct_against_grid_oracle(rng):
    for _ in range(30):
        dist = random_dist(rng)
        tau = float(rng.uniform(0.02, 0.98))
        objective = grid_expected_loss(dist, tau, Y_GRID)
        _assert_objective_close_to_grid_min(objective, solve_direct(dist, tau).y_star)


def test_dr_omega_against_worst_case_grid_oracle(rng):
    for _ in range(30):
        dist = random_dist(rng)
        tau = float(rng.uniform(0.02, 0.98))
        rho = float(rng.uniform(0.0, 0.99))
        wc = worst_case_cdf(dist, tau, rho)
        objective = grid_expected_loss(wc, tau, Y_GRID)
        _assert_objective_close_to_grid_min(objective, solve_dr_omega(dist, tau, rho).y_star)


def test_dr_s_against_endpoint_max_grid_oracle(rng):
    for _ in range(30):
        dist = random_dist(rng)
        tau = float(rng.uniform(0.02, 0.98))
        eps = float(rng.uniform(0.0, 0.6))
        ball = make_bernoulli_ball(tau, eps)
        objective = np.maximum(
            grid_expected_loss(dist, ball.tau_hi, Y_GRID),
            grid_expected_loss(dist, ball.tau_lo, Y_GRID),
        )
        _assert_objective_close_to_grid_min(objective, solve_dr_s(dist, ball).y_star)


def test_worst_case_partials_against_grid_oracle(rng):
    # dual route for the composite CDF's expectations; the 1e-3 grid oracle
    # carries O(h^2 * slope change) error at the plateau kinks, so it can
    # certify about four digits
    for _ in range(10):
        dist = random_dist(rng)
        tau = float(rng.uniform(0.1, 0.9))
        rho = float(rng.uniform(0.1, 0.9))
        wc = worst_case_cdf(dist, tau, rho)
        oracle = grid_expected_loss(wc, tau, Y_GRID)
        for y in (0.15, 0.45, 0.8):
            direct = expected_loss(wc, y, tau)
            assert direct == pytest.approx(np.interp(y, Y_GRID, oracle), abs=5e-4)


def test_worst_case_objective_matches_solver_value(rng):
    # the plateau makes the worst-case objective flat across the solver offer
    for _ in range(10):
        dist = random_dist(rng)
        tau = float(rng.uniform(0.1, 0.9))
        rho = float(rng.uniform(0.1, 0.9))
        wc = worst_case_cdf(dist, tau, rho)
        y = solve_dr_omega(dist, tau, rho).y_star
        loss_at_solver = expected_loss(wc, y, tau)
        loss_at_plateau_left = expected_loss(wc, wc.q_lo, tau)
        assert loss_at_solver == pytest.approx(loss_at_plateau_left, abs=1e-8)


def test_offer_decision_validation():
    with pytest.raises(ValueError):
        solve_dr_omega(Beta(2, 6), 0.5, 1.5)
    with pytest.raises(ValueError):
        solve_direct(Beta(2, 6), -0.2)
    with pytest.raises(ValueError, match=r"^offer must lie in \[0, 1\], got 1.5$"):
        OfferDecision(1.5, Method.DIRECT)


def test_dr_omega_levels_at_rho_one_are_a_block_with_no_rows():
    # the Heaviside limit needs no band quantile: its block is empty, never None
    tau = np.array([0.1, 0.5, 0.9])
    assert dr_omega_levels(tau, 0.3).shape == (2, 3)
    assert dr_omega_levels(tau, 1.0).shape == (0, 3)
    assert dr_omega_levels(np.float64(0.7), 1.0).shape == (0,)
    for dist in (Beta(2, 6), Heaviside(0.4), Uniform01()):
        y, q_upper, q_lower = dr_omega_offers(dist, tau, 1.0)
        assert np.array_equal(y, tau)
        assert np.array_equal(q_upper, [0.0] * 3) and np.array_equal(q_lower, [1.0] * 3)
