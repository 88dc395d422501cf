"""Estimation-noise sweeps: endpoint identities, determinism, loss curves."""

import numpy as np
import pytest
from scipy import stats

from drnewsvendor import (
    Beta,
    SimConfig,
    expected_loss,
    gamma,
    loss_curve,
    run_epsilon_sweep,
    run_m_sweep,
)
from drnewsvendor.montecarlo import _dr_loss_table, sweep_csv_rows, sweep_summary


def small_config(**kw):
    defaults = dict(
        true_dist=Beta(2, 6), true_tau=0.75, m=10, n_replicates=50_000,
        epsilon_grid=tuple(np.round(np.arange(0.0, 1.001, 0.05), 10)),
        master_seed=99,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def test_gamma_definition():
    assert gamma(0.06, 0.05, 0.06) == 0.0
    assert gamma(0.06, 0.05, 0.05) == 1.0
    assert gamma(0.06, 0.05, 0.055) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        gamma(0.05, 0.05, 0.04)
    with pytest.raises(ValueError):
        gamma(0.04, 0.05, 0.03)


def test_dr_curve_endpoints_exact():
    res = run_epsilon_sweep(small_config())
    assert res.curves["dr_uniform"][0] == res.curves["bn"][0]
    assert res.curves["dr_uniform"][-1] == res.curves["robust"][0]
    # level-adjusted starts at the newsvendor point too
    assert res.curves["dr_level_adjusted"][0] == res.curves["bn"][0]


def test_flat_arms_and_oracle_floor():
    res = run_epsilon_sweep(small_config())
    for arm in ("oracle", "bn", "robust"):
        assert np.all(res.curves[arm] == res.curves[arm][0])
    floor = res.curves["oracle"][0]
    for arm, curve in res.curves.items():
        assert np.all(curve >= floor - 1e-12), arm


def test_dr_uniform_curve_continuity():
    # Near eps=0 the curve follows the reference quantile into its thin tail,
    # so steps shrink with refinement only at a fractional-power rate; in the
    # interior the curve is Lipschitz.
    coarse = run_epsilon_sweep(small_config(
        epsilon_grid=tuple(np.round(np.arange(0.0, 1.001, 0.02), 10))))
    fine = run_epsilon_sweep(small_config(
        epsilon_grid=tuple(np.round(np.arange(0.0, 1.0001, 0.005), 10))))
    step_c = np.max(np.abs(np.diff(coarse.curves["dr_uniform"])))
    step_f = np.max(np.abs(np.diff(fine.curves["dr_uniform"])))
    assert step_c < 0.02
    assert step_f < step_c
    interior = np.asarray(fine.epsilon_grid)[:-1] >= 0.1
    assert np.max(np.abs(np.diff(fine.curves["dr_uniform"]))[interior]) < 1e-3


def test_determinism_across_runs_and_seed_sensitivity():
    a = run_epsilon_sweep(small_config())
    b = run_epsilon_sweep(small_config())
    assert np.array_equal(a.tau_hat_counts, b.tau_hat_counts)
    c = run_epsilon_sweep(small_config(master_seed=100))
    assert not np.array_equal(a.tau_hat_counts, c.tau_hat_counts)


def test_common_random_numbers_across_arms():
    # every arm consumes the same estimate draws: restricting the ball kinds
    # must not change the sampled counts
    both = run_epsilon_sweep(small_config())
    uni = run_epsilon_sweep(small_config(ball_kinds=("uniform",)))
    assert np.array_equal(both.tau_hat_counts, uni.tau_hat_counts)
    assert np.array_equal(both.curves["dr_uniform"], uni.curves["dr_uniform"])
    assert uni.gamma_la is None


def test_counts_total_and_sampled_distribution():
    res = run_epsilon_sweep(small_config())
    assert int(res.tau_hat_counts.sum()) == res.n_replicates
    # sampled tau-hat frequencies track the binomial law
    pmf = stats.binom.pmf(np.arange(11), 10, 0.75)
    freq = res.tau_hat_counts / res.n_replicates
    assert np.max(np.abs(freq - pmf)) < 0.01


def test_dr_table_matches_scalar_solver():
    from drnewsvendor import BallKind, make_bernoulli_ball, solve_dr_s

    cfg = small_config(m=6)
    table = _dr_loss_table(cfg, 6, "level_adjusted")
    grid = np.asarray(cfg.epsilon_grid)
    for i in (0, 5, len(grid) - 1):
        for k in range(7):
            ball = make_bernoulli_ball(k / 6, float(grid[i]), BallKind.LEVEL_ADJUSTED,
                                       theta=cfg.theta)
            y = solve_dr_s(cfg.true_dist, ball).y_star
            expect = expected_loss(cfg.true_dist, y, cfg.true_tau)
            assert table[i, k] == pytest.approx(expect, abs=1e-14)


def test_gamma_standard_errors_shrink_with_n():
    small = run_epsilon_sweep(small_config(n_replicates=40_000))
    big = run_epsilon_sweep(small_config(n_replicates=400_000))
    assert big.gamma_se["dr_uniform"] < small.gamma_se["dr_uniform"]
    assert big.gamma_diff_se is not None


def test_m_sweep_smoke():
    cfg = small_config(n_replicates=40_000)
    res = run_m_sweep(cfg, [5, 10, 20])
    assert np.array_equal(res.m_values, [5, 10, 20])
    assert np.all(np.isfinite(res.gamma_u))
    assert np.all(np.isfinite(res.gamma_la))
    # the gap to robustify shrinks with better estimates
    assert res.gamma_u[0] > res.gamma_u[-1]
    # level-adjusted dominates at these sizes
    assert np.all(res.gamma_la >= res.gamma_u - 3.0 * res.gamma_diff_se)


def test_m_sweep_large_m_gamma_vanishes():
    # with a near-perfect estimate there is nothing left to robustify
    cfg = small_config(n_replicates=40_000)
    res = run_m_sweep(cfg, [10_000])
    assert res.gamma_u[0] < 0.05
    assert res.gamma_la[0] < 0.05


def test_loss_curve_geometry():
    dist = Beta(2, 6)
    taus = [0.1, 0.35, 0.5, 0.75, 0.9]
    y_grid = np.round(np.arange(0.0, 1.0001, 0.001), 9)
    matrix = loss_curve(dist, taus, y_grid)
    assert matrix.shape == (5, y_grid.size)
    # all curves cross at the mean
    at_mean = matrix[:, np.searchsorted(y_grid, 0.25)]
    assert np.max(at_mean) - np.min(at_mean) < 1e-9
    # each curve bottoms out at its quantile
    for i, tau in enumerate(taus):
        y_star = float(dist.quantile(tau))
        j = int(np.argmin(matrix[i]))
        assert abs(y_grid[j] - y_star) <= 2e-3
    # worst case over a ball: the high-tau curve rules left of the mean,
    # the low-tau curve right of it
    lo_row, hi_row = matrix[1], matrix[3]   # tau 0.35 and 0.75
    envelope = np.maximum(lo_row, hi_row)
    left = y_grid < 0.25 - 1e-9
    right = y_grid > 0.25 + 1e-9
    assert np.allclose(envelope[left], hi_row[left], atol=1e-12)
    assert np.allclose(envelope[right], lo_row[right], atol=1e-12)


def test_sweep_exports():
    cfg = small_config(n_replicates=10_000,
                      epsilon_grid=(0.0, 0.5, 1.0))
    res = run_epsilon_sweep(cfg)
    rows = sweep_csv_rows(res)
    assert len(rows) == 3 * len(res.curves)
    assert all(len(r) == 3 for r in rows)
    summary = sweep_summary(res, cfg)
    assert set(summary) >= {"gamma_u", "gamma_la", "best_epsilon", "config", "seed"}
    assert summary["config"]["m"] == cfg.m
    assert summary["seed"] == cfg.master_seed


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(m=0)
    with pytest.raises(ValueError):
        small_config(n_replicates=0)
    with pytest.raises(ValueError):
        small_config(epsilon_grid=(0.5, 0.2))
    with pytest.raises(ValueError):
        small_config(epsilon_grid=(0.0, 1.2))
    with pytest.raises(ValueError):
        small_config(theta=1.0)
    with pytest.raises(ValueError):
        small_config(ball_kinds=("round",))
    with pytest.raises(ValueError):
        small_config(true_tau=1.5)
