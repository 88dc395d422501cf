"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Two sub-checks are strict xfails documenting defects that make the
literally stated targets unattainable; the decisions ledger carries the
full analysis. Everything else runs at its stated tolerance.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from drnewsvendor import (
    BacktestPlan,
    Beta,
    PiecewiseLinear,
    SimConfig,
    Uniform01,
    cross_validate,
    deform_lower,
    deform_upper,
    double_power_lower,
    double_power_upper,
    expected_loss,
    make_bernoulli_ball,
    make_synthetic_market,
    offers_for_day,
    run_backtest,
    run_epsilon_sweep,
    run_m_sweep,
    solve_direct,
    solve_dr_omega,
    solve_dr_s,
    solve_robust_s,
    standard_forecast_levels,
    worst_case_cdf,
)
from drnewsvendor.cli import dispatch
from drnewsvendor.montecarlo import _loss_table

from conftest import grid_expected_loss, random_dist

SEED = 20250809
Y_GRID = np.round(np.arange(0.0, 1.0 + 1e-9, 1e-3), 9)


def _line(cid: str, ok: bool, detail: str) -> None:
    print(f"[{cid}] {'PASS' if ok else 'FAIL'} {detail}")


# ---------- C1 / C2: gamma reproduction and curve ordering ----------


@pytest.fixture(scope="module")
def gamma_run():
    config = SimConfig(
        true_dist=Beta(2, 6), true_tau=0.75, n_replicates=1_000_000,
        epsilon_grid=tuple(np.round(np.arange(0.0, 1.0001, 0.01), 10)),
        theta=0.9, master_seed=SEED,
    )
    start = time.perf_counter()
    result = run_epsilon_sweep(config, 15)
    return result, time.perf_counter() - start


def test_c1_gamma_reproduction(gamma_run):
    """Targets gamma_U = 40.3% and gamma_LA = 60.2%, +/- 2pp at N = 1e6.

    The 15-draw estimate is the configuration that actually produces these
    targets; see the companion xfail test and the decisions ledger for the
    10-draw contradiction.
    """
    result, elapsed = gamma_run
    ok_u = abs(result.gamma_u - 0.403) <= 0.02
    ok_la = abs(result.gamma_la - 0.602) <= 0.02
    ok_t = elapsed < 300.0
    _line("C1", ok_u and ok_la and ok_t,
          f"gamma_u={result.gamma_u:.4f} (target 0.403±0.02), "
          f"gamma_la={result.gamma_la:.4f} (target 0.602±0.02), "
          f"runtime={elapsed:.1f}s (<300s)")
    assert ok_u and ok_la and ok_t


@pytest.mark.xfail(
    strict=True,
    reason="documented defect: with a 10-draw estimate the exact gammas are "
    "65.4%/76.1%, so the stated 40.3%/60.2% targets are unattainable; they "
    "correspond to a 15-draw estimate (see decisions ledger)",
)
def test_c1_as_literally_stated_with_m10():
    config = SimConfig(
        true_dist=Beta(2, 6), true_tau=0.75, n_replicates=1_000_000,
        epsilon_grid=tuple(np.round(np.arange(0.0, 1.0001, 0.01), 10)),
        theta=0.9, master_seed=SEED,
    )
    result = run_epsilon_sweep(config, 10)
    _line("C1-literal", False,
          f"m=10 gives gamma_u={result.gamma_u:.4f}, gamma_la={result.gamma_la:.4f}")
    assert abs(result.gamma_u - 0.403) <= 0.02
    assert abs(result.gamma_la - 0.602) <= 0.02


def test_c2_curve_ordering_and_endpoints(gamma_run):
    result, _ = gamma_run
    oracle = result.curves["oracle"][0]
    bn = result.curves["bn"][0]
    robust = result.curves["robust"][0]
    du = result.curves["dr_uniform"]
    dla = result.curves["dr_level_adjusted"]
    ok = (
        oracle <= du.min() <= bn
        and oracle <= dla.min() <= bn
        and np.all(result.curves["oracle"] == oracle)
        and np.all(result.curves["bn"] == bn)
        and np.all(result.curves["robust"] == robust)
        and du[0] == bn
        and du[-1] == robust
    )
    _line("C2", ok,
          f"oracle={oracle:.5f} <= min(DR)={min(du.min(), dla.min()):.5f} <= bn={bn:.5f}; "
          f"flat arms; dr_u(0)==bn and dr_u(1)==robust exactly")
    assert ok


# ---------- C3: m-sweep trend ----------


@pytest.fixture(scope="module")
def m_sweep_run():
    config = SimConfig(
        true_dist=Beta(2, 6), true_tau=0.75, n_replicates=1_000_000,
        epsilon_grid=tuple(np.round(np.arange(0.0, 1.0001, 0.01), 10)),
        theta=0.9, master_seed=SEED + 1,
    )
    return run_m_sweep(config, range(1, 76))


def _exact_gammas(m: int, theta: float = 0.9):
    """Each ball's gamma with no Monte-Carlo error: the loss table weighted by the binomial pmf."""
    cfg = SimConfig(true_dist=Beta(2, 6), true_tau=0.75, n_replicates=1,
                    master_seed=0, theta=theta)
    ks = np.arange(m + 1)
    losses = _loss_table(cfg, m, ks) @ stats.binom.pmf(ks, m, cfg.true_tau)
    l_o, l_bn = losses[:2]
    curves = losses[3:].reshape(len(cfg.ball_kinds), -1)
    return {kind: (l_bn - curve.min()) / (l_bn - l_o)
            for kind, curve in zip(cfg.ball_kinds, curves)}


def test_c3_m_sweep_trend(m_sweep_run):
    """Ordering holds for all m except the documented m in {2, 3} anomaly."""
    res = m_sweep_run
    diff = res.gamma_la - res.gamma_u
    guard = 3.0 * res.gamma_diff_se
    regular = ~np.isin(res.m_values, (2, 3))
    ok_order = bool(np.all(diff[regular] >= -guard[regular]))
    ok_tail = res.gamma_u[-1] < 0.05
    # the two anomalous points match the exact (noise-free) computation,
    # proving they are a property of the ball shapes rather than a bug
    ok_anomaly = True
    for m in (2, 3):
        exact = _exact_gammas(m)
        true_gap = exact["level_adjusted"] - exact["uniform"]
        measured = float(diff[res.m_values == m][0])
        se = float(res.gamma_diff_se[res.m_values == m][0])
        ok_anomaly &= true_gap < 0.0 and abs(measured - true_gap) <= 4.0 * se
    _line("C3", ok_order and ok_tail and ok_anomaly,
          f"gamma_la >= gamma_u - 3se for m not in {{2,3}} "
          f"(min slack {np.min((diff + guard)[regular]):+.4f}); "
          f"gamma_u(75)={res.gamma_u[-1]:.4f} (<0.05); "
          f"m=2,3 anomaly matches exact values")
    assert ok_order and ok_tail and ok_anomaly


def test_c3_every_m_sweep_point_lies_near_its_exact_gamma(m_sweep_run):
    """Each gamma for m = 1..75 is within 4 standard errors of its exact value.

    This pins the whole curve, not only the trend C3 checks. A point with
    no or a zero standard error must equal its exact value to 1e-12.
    """
    res = m_sweep_run
    worst = (0.0, None, None)
    for i, m in enumerate(res.m_values.tolist()):
        exact = _exact_gammas(m)
        for kind, gammas, ses in (("uniform", res.gamma_u, res.gamma_u_se),
                                  ("level_adjusted", res.gamma_la, res.gamma_la_se)):
            gap, se = gammas[i] - exact[kind], ses[i]
            if np.isfinite(se) and se > 0.0:
                z = gap / se
                assert abs(z) <= 4.0, (m, kind, z)
                worst = max(worst, (abs(z), m, kind), key=lambda w: w[0])
            else:
                assert abs(gap) <= 1e-12, (m, kind, gap)
    _line("C3-curve", True,
          f"{2 * res.m_values.size} points within 4se of the exact gammas "
          f"(max |z| {worst[0]:.2f} at m={worst[1]}, {worst[2]})")


@pytest.mark.xfail(
    strict=True,
    reason="documented defect: the level-adjusted ball is exactly worse at "
    "m in {2, 3} for this setup (true gaps -0.9pp and -1.2pp dwarf the "
    "Monte-Carlo noise), so the all-m ordering cannot hold (see ledger)",
)
def test_c3_as_literally_stated_all_m(m_sweep_run):
    res = m_sweep_run
    diff = res.gamma_la - res.gamma_u
    _line("C3-literal", False,
          f"min diff {diff.min():+.4f} at m={res.m_values[np.argmin(diff)]}")
    assert np.all(diff >= -3.0 * res.gamma_diff_se)


# ---------- C4: closed form vs brute force ----------


def test_c4_closed_form_vs_brute_force():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(200):
        dist = random_dist(rng)
        tau = float(rng.uniform(0.02, 0.98))
        rho = float(rng.choice([0.0, 1.0]) if rng.random() < 0.1 else rng.uniform(0.0, 0.99))
        eps = float(rng.choice([0.0, 1.0]) if rng.random() < 0.1 else rng.uniform(0.0, 0.6))

        obj = grid_expected_loss(dist, tau, Y_GRID)
        gap = abs(np.interp(solve_direct(dist, tau).y_star, Y_GRID, obj) - obj.min())
        worst = max(worst, gap)
        assert gap <= 2e-3

        wc = worst_case_cdf(dist, tau, rho)
        obj = grid_expected_loss(wc, tau, Y_GRID)
        gap = abs(np.interp(solve_dr_omega(dist, tau, rho).y_star, Y_GRID, obj) - obj.min())
        worst = max(worst, gap)
        assert gap <= 2e-3

        ball = make_bernoulli_ball(tau, eps)
        obj = np.maximum(
            grid_expected_loss(dist, ball.tau_hi, Y_GRID),
            grid_expected_loss(dist, ball.tau_lo, Y_GRID),
        )
        gap = abs(np.interp(solve_dr_s(dist, ball).y_star, Y_GRID, obj) - obj.min())
        worst = max(worst, gap)
        assert gap <= 2e-3
    _line("C4", True, f"200 instances x 3 solvers, worst objective gap {worst:.2e} (<=2e-3)")


# ---------- C5: loss-function identities ----------


def test_c5_loss_identities():
    rng = np.random.default_rng(SEED + 3)
    worst_cross, worst_incr = 0.0, 0.0
    for _ in range(100):
        dist = random_dist(rng)
        mu = dist.mean()
        t1, t2 = rng.random(), rng.random()
        cross = abs(expected_loss(dist, mu, float(t1)) - expected_loss(dist, mu, float(t2)))
        worst_cross = max(worst_cross, cross)
        assert cross <= 1e-9
        y = float(rng.random())
        tau = float(rng.uniform(0.0, 0.9))
        delta = float(rng.uniform(0.0, 1.0 - tau))
        incr = expected_loss(dist, y, tau + delta) - expected_loss(dist, y, tau)
        err = abs(incr - delta * (mu - y))
        worst_incr = max(worst_incr, err)
        assert err <= 1e-9
    # first-order condition: the quantile beats every grid point
    for _ in range(20):
        dist = random_dist(rng)
        tau = float(rng.uniform(0.02, 0.98))
        losses = np.array([expected_loss(dist, float(y), tau) for y in Y_GRID])
        assert expected_loss(dist, float(dist.quantile(tau)), tau) <= losses.min() + 1e-12
    _line("C5", True,
          f"crossing<=1e-9 (worst {worst_cross:.1e}); increment identity<=1e-9 "
          f"(worst {worst_incr:.1e}); quantile minimizes on the 1e-3 grid")


# ---------- C6: deformation operator axioms ----------


def test_c6_operator_axioms():
    levels = standard_forecast_levels()
    dists = [Beta(2, 6), Uniform01(), PiecewiseLinear(levels, Beta(2, 6).quantile(levels))]
    xs = np.linspace(0.0, 1.0, 101)
    u = np.linspace(0.0, 1.0, 1001)

    ok_ident = True
    for dist in dists:
        ref = np.asarray(dist.cdf(xs))
        ok_ident &= bool(np.max(np.abs(np.asarray(deform_upper(dist, 0.0).cdf(xs)) - ref)) <= 1e-12)
        ok_ident &= bool(np.max(np.abs(np.asarray(deform_lower(dist, 0.0).cdf(xs)) - ref)) <= 1e-12)

    ok_robust = True
    for dist in dists:
        up, lo = deform_upper(dist, 0.999), deform_lower(dist, 0.999)
        for p in np.linspace(0.05, 0.95, 19):
            ok_robust &= float(up.quantile(p)) <= 1e-2
            ok_robust &= float(lo.quantile(p)) >= 1.0 - 1e-2

    ok_nest = True
    rho_grid = np.arange(0.0, 0.91, 0.1)
    for dist in dists:
        prev_up = prev_lo = np.asarray(dist.cdf(xs))
        for rho in rho_grid:
            cur_up = np.asarray(deform_upper(dist, rho).cdf(xs))
            cur_lo = np.asarray(deform_lower(dist, rho).cdf(xs))
            ok_nest &= bool(np.all(cur_up >= prev_up - 1e-12))
            ok_nest &= bool(np.all(cur_lo <= prev_lo + 1e-12))
            prev_up, prev_lo = cur_up, cur_lo

    ok_refl = True
    for rho in rho_grid[1:]:
        gap = np.max(np.abs(double_power_upper(1.0 - u, rho) - (1.0 - double_power_lower(u, rho))))
        ok_refl &= bool(gap <= 1e-12)

    ok = ok_ident and ok_robust and ok_nest and ok_refl
    _line("C6", ok,
          f"identity@rho=0<=1e-12: {ok_ident}; robustness@rho=0.999: {ok_robust}; "
          f"nesting: {ok_nest}; reflection<=1e-12: {ok_refl}")
    assert ok


# ---------- C7: corollary limits ----------


def test_c7_corollary_limits():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(50):
        dist = random_dist(rng)
        tau = float(rng.random())
        assert solve_dr_omega(dist, tau, 1.0).y_star == tau
        full = solve_dr_s(dist, make_bernoulli_ball(tau, 1.0))
        assert full.y_star == solve_robust_s(dist).y_star == dist.mean()
    _line("C7", True, "50 random instances: dr_omega(rho=1)==tau and "
          "dr_s(full ball)==mean(F), exact equality")


# ---------- C8: backtest protocol on synthetic data ----------


@pytest.fixture(scope="module")
def backtest_run():
    records = make_synthetic_market(n_days=731, master_seed=2025)
    # the estimation window length is a protocol parameter; 10 days makes the
    # chance-of-success noise (the thing the robust offers hedge) material on
    # 600 evaluation days, so the predicted ordering is testable above noise
    plan = BacktestPlan(
        m_grid=(10,),
        strategies=("oracle", "bn", "dr_s_uniform", "dr_s_level_adjusted", "robust_s"),
    )
    chosen = cross_validate(records, plan)
    report = run_backtest(records, plan, chosen)
    return records, plan, chosen, report


def test_c8_spread_calibration(backtest_run):
    records, *_ = backtest_run
    pi_s = np.array([r.pi_s for r in records])
    spread = np.abs(np.array([r.pi_b for r in records]) - pi_s)
    frac = float(np.mean(spread / pi_s))
    ok = abs(frac - 0.135) <= 0.015
    _line("C8a", ok, f"mean penalty spread {100 * frac:.2f}% of day-ahead price (target ~13.5%)")
    assert ok


def test_c8_no_look_ahead(backtest_run):
    records, plan, chosen, report = backtest_run
    day = plan.warm_start_days + 50
    first_date = records[0].timestamp.date()

    def poisoned():
        out = []
        for r in records:
            d = (r.timestamp.date() - first_date).days + 1
            if d >= day - 1:
                omega = r.omega_star if d == day else 1.0 - r.omega_star
                out.append(replace(r, pi_s=r.pi_s * 2.1 + 5.0, pi_b=r.pi_b * 0.3,
                                   s_l=-r.s_l if r.s_l != 0.0 else 2.0, omega_star=omega))
            else:
                out.append(r)
        return out

    baseline = offers_for_day(records, plan, chosen, day)
    ok = offers_for_day(poisoned(), plan, chosen, day) == baseline
    _line("C8b", ok, f"offers for evaluation day {day} unchanged under future-data poisoning")
    assert ok


def test_c8_oracle_dominance(backtest_run):
    *_, report = backtest_run
    ok = True
    for name, series in report.revenues.items():
        ok &= bool(np.all(report.oracle_revenues - series >= -1e-9))
    _line("C8c", ok, "oracle revenue >= every strategy's in every settlement period")
    assert ok


def test_c8_dr_beats_plain_newsvendor(backtest_run):
    _, _, chosen, report = backtest_run
    bn = report.rows["bn"].regret_per_mwh
    ok = True
    details = []
    for arm in ("dr_s_uniform", "dr_s_level_adjusted"):
        row = report.rows[arm]
        ok &= row.regret_per_mwh <= bn
        ok &= row.advantage_ratio_pct > 50.0
        details.append(
            f"{arm}: regret {row.regret_per_mwh:.4f} <= bn {bn:.4f}, "
            f"adv {row.advantage_ratio_pct:.1f}%"
        )
    eps = chosen.static["dr_s_uniform"]["epsilon"]
    _line("C8d", ok, f"CV eps={eps}; " + "; ".join(details))
    assert ok


# ---------- C9: determinism ----------


def test_c9_simulate_thread_determinism(tmp_path):
    payloads = []
    for run in (1, 2):
        out = tmp_path / f"det{run}.json"
        code = dispatch([
            "simulate", "--dist", "beta:2,6", "--tau", "0.75", "--m", "12",
            "--n", "300000", "--eps-grid", "0:0.01:1", "--seed", str(SEED),
            "--out", str(out),
        ])
        assert code == 0
        payloads.append(out.read_bytes())
    ok = payloads[0] == payloads[1]
    _line("C9a", ok, "simulate artifacts byte-identical across two runs")
    assert ok


def test_c9_backtest_rerun_determinism(backtest_run):
    records, plan, chosen, report = backtest_run
    again = run_backtest(records, plan, chosen)
    ok = all(
        np.array_equal(report.revenues[name], again.revenues[name])
        for name in report.revenues
    ) and report.rows["bn"].regret_per_mwh == again.rows["bn"].regret_per_mwh
    _line("C9b", ok, "backtest re-run reproduces identical numeric results")
    assert ok


def test_c9_backtest_thread_determinism(tmp_path):
    market, fdir = tmp_path / "market.csv", tmp_path / "fc"
    assert dispatch(["synth", "--days", "36", "--seed", str(SEED),
                     "--market-out", str(market), "--forecasts-out", str(fdir),
                     "--out", str(tmp_path / "synth.json")]) == 0
    flags = ["--market", str(market), "--forecasts", str(fdir),
             "--warm-start-days", "30", "--tau-window-days", "20", "--cv-days", "10",
             "--m-grid", "8", "--eps-grid", "0,0.05,0.1,0.2",
             "--strategies", "oracle,bn,dr_s_uniform,dr_s_level_adjusted"]
    payloads = []
    for run in (1, 2):
        out = tmp_path / f"bt{run}.json"
        assert dispatch(["backtest", *flags, "--seed", str(SEED), "--out", str(out)]) == 0
        payloads.append(out.read_bytes())
    ok = payloads[0] == payloads[1]
    _line("C9c", ok, "backtest artifacts byte-identical across two runs")
    assert ok
