"""The array offer kernel against the scalar rules it replaces.

Each reference below is the per-offer arithmetic written out with Python
floats, one offer at a time; the array code must reproduce it bit for bit.
"""

from dataclasses import replace
from datetime import datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from drnewsvendor import (
    BacktestPlan,
    BallKind,
    Beta,
    ChosenParameters,
    CvMode,
    Heaviside,
    HourlyTauEstimator,
    MarketRecord,
    PiecewiseLinear,
    Uniform01,
    cross_validate,
    deform_lower,
    deform_upper,
    make_bernoulli_ball,
    make_synthetic_market,
    offers_for_day,
    revenue,
    run_backtest,
    solve_direct,
    solve_dr_omega,
    solve_dr_s,
    solve_robust_omega,
    solve_robust_s,
    standard_forecast_levels,
)
from drnewsvendor import backtest
from drnewsvendor.ambiguity import ball_bounds
from drnewsvendor.backtest import STRATEGIES, _param_grid
from drnewsvendor.distributions import PiecewiseLinearBatch
from drnewsvendor.solvers import dr_omega_offers, dr_s_rule

from conftest import penalty_pair, reference_tau

unit = st.floats(min_value=0.0, max_value=1.0)
# atoms come from repeated values; knots sit strictly inside (0, 1)
knot_value = st.one_of(unit, st.sampled_from([0.0, 0.25, 0.5, 1.0]))
knot_level = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@st.composite
def forecasts(draw):
    levels = sorted(set(draw(st.lists(knot_level, min_size=1, max_size=24))))
    values = sorted(draw(st.lists(knot_value, min_size=len(levels), max_size=len(levels))))
    return PiecewiseLinear(levels, values)


@st.composite
def rows(draw):
    """Forecasts with one chance of success each: endpoints, knot hits, anything."""
    dists = draw(st.lists(forecasts(), min_size=1, max_size=8))
    taus = [draw(st.one_of(st.sampled_from([0.0, 1.0]), unit,
                           st.sampled_from(d.levels.tolist()))) for d in dists]
    return dists, np.array(taus)


def reference_dr_omega(dist, tau, rho):
    if rho == 1.0:
        return tau
    q_upper = float(deform_upper(dist, rho).quantile(tau))
    q_lower = float(deform_lower(dist, rho).quantile(tau))
    return tau * q_lower + (1.0 - tau) * q_upper


def reference_dr_s(dist, tau, eps, theta):
    half = eps if theta is None else eps * (1.0 - 4.0 * theta * tau * (1.0 - tau))
    lo, hi = max(tau - half, 0.0), min(tau + half, 1.0)
    mu = float(dist.mean())
    q_hi, q_lo = float(dist.quantile(hi)), float(dist.quantile(lo))
    if q_hi < mu:
        return q_hi
    if q_lo > mu:
        return q_lo
    return mu


@st.composite
def on_shared_levels(draw):
    """Forecasts on one level grid, each holding its own copy of the levels."""
    levels = sorted(set(draw(st.lists(knot_level, min_size=1, max_size=24))))
    values = st.lists(knot_value, min_size=len(levels), max_size=len(levels))
    return [PiecewiseLinear(levels, sorted(draw(values)))
            for _ in range(draw(st.integers(1, 6)))]


def hourly_records(dists):
    """One market record per forecast, an hour apart."""
    start = datetime(2021, 1, 1)
    return [MarketRecord(start + timedelta(hours=k), 50.0, 60.0, 1.0, 0.5, d)
            for k, d in enumerate(dists)]


@st.composite
def indexed_batches(draw):
    """A batch of entries that repeat forecast objects, and levels for a few grid points.

    The batch comes from a forecast list with repeats, from an index into
    a batch of distinct forecasts, or from a market frame's row index.
    """
    pool = draw(st.one_of(on_shared_levels(), st.lists(forecasts(), min_size=1, max_size=6)))
    index = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=10))
    entries = [pool[i] for i in index]
    how = draw(st.sampled_from(["repeats", "take", "frame"]))
    if how == "repeats":
        batch = PiecewiseLinearBatch(entries)
    elif how == "take":
        batch = PiecewiseLinearBatch(pool).take(np.array(index))
    else:
        frame = backtest._MarketFrame(hourly_records(entries))
        batch = frame.forecast.take(np.arange(len(entries)))
    level = [st.one_of(st.sampled_from([0.0, 1.0]), unit, st.sampled_from(d.levels.tolist()))
             for d in entries]
    p = [[draw(lv) for lv in level] for _ in range(draw(st.integers(1, 3)))]
    return pool, entries, batch, np.array(p)


@settings(max_examples=200)
@given(st.one_of(rows(), indexed_batches()))
def test_batch_quantile_and_mean_match_each_row(data):
    if len(data) == 2:
        dists, taus = data
        batch, grid = PiecewiseLinearBatch(dists), taus[None, :]
    else:
        pool, dists, batch, grid = data
        # one knot row per distinct forecast object, one level grid when they share it
        assert batch._xs.shape[0] <= len(pool)
        if all(np.array_equal(d.levels, pool[0].levels) for d in pool):
            assert batch._levels is not None
    for p in grid:
        expect = np.array([np.interp(t, np.r_[0.0, d.levels, 1.0], np.r_[0.0, d.values, 1.0])
                           for d, t in zip(dists, p)])
        assert batch.quantile(p).tobytes() == expect.tobytes()
        assert batch.quantile(p).tolist() == [d.quantile(t) for d, t in zip(dists, p)]
    # many grid points at once: each row as its own call
    assert batch.quantile(grid).tobytes() == np.array([batch.quantile(p) for p in grid]).tobytes()
    assert batch.mean().tolist() == [d.mean() for d in dists]


@settings(max_examples=200)
# at rho = 0.99 the lower band's mirror level rounds to 1 for most taus
@given(rows(), st.one_of(st.sampled_from([0.0, 0.99, 1.0]), st.floats(0.0, 0.99)))
def test_dr_omega_kernel_matches_scalar(data, rho):
    dists, taus = data
    offers = dr_omega_offers(PiecewiseLinearBatch(dists), taus, rho)[0].tolist()
    assert offers == [solve_dr_omega(d, t, rho).y_star for d, t in zip(dists, taus)]
    assert offers == [reference_dr_omega(d, float(t), rho) for d, t in zip(dists, taus)]


@settings(max_examples=200)
@given(rows(), st.one_of(st.just(0.0), st.floats(0.0, 0.3), st.floats(0.5, 5.0)),
       st.one_of(st.none(), st.floats(0.0, 0.99)))
def test_dr_s_kernel_matches_scalar(data, eps, theta):
    dists, taus = data
    kind = BallKind.UNIFORM if theta is None else BallKind.LEVEL_ADJUSTED
    batch = PiecewiseLinearBatch(dists)
    lo, hi = ball_bounds(taus, eps, 0.0 if theta is None else theta)
    offers = dr_s_rule(batch.quantile(lo), batch.quantile(hi), batch.mean())[0].tolist()
    scalar = [solve_dr_s(d, make_bernoulli_ball(t, eps, kind, theta)).y_star
              for d, t in zip(dists, taus)]
    assert offers == scalar
    assert offers == [reference_dr_s(d, float(t), eps, theta) for d, t in zip(dists, taus)]


# ---------- partial expectations ----------


def reference_partial(dist, y):
    """The scalar closed forms, one offer at a time."""
    if isinstance(dist, Beta):
        mu = dist.mean()
        under = y * float(special.betainc(dist.a, dist.b, y)) \
            - mu * float(special.betainc(dist.a + 1.0, dist.b, y))
        return max(under, 0.0), max(under - y + mu, 0.0)
    if isinstance(dist, Uniform01):
        return y * y / 2.0, (1.0 - y) ** 2 / 2.0
    if isinstance(dist, Heaviside):
        return max(y - dist.location, 0.0), max(dist.location - y, 0.0)
    ps, xs = np.r_[0.0, dist.levels, 1.0], np.r_[0.0, dist.values, 1.0]
    cum = np.concatenate(([0.0], np.cumsum(np.diff(ps) * (xs[:-1] + xs[1:]) / 2.0)))
    p = float(np.interp(y, xs, ps))
    i = int(np.searchsorted(ps, p, side="right")) - 1
    if i >= ps.size - 1:
        integral = float(cum[-1])
    else:
        integral = float(cum[i] + (p - ps[i]) * (xs[i] + np.interp(p, ps, xs)) / 2.0)
    under = y * p - integral
    return max(under, 0.0), max(under - y + dist.mean(), 0.0)


distributions = st.one_of(
    st.builds(Beta, st.floats(0.3, 9.0), st.floats(0.3, 9.0)),
    st.just(Uniform01()),
    st.builds(Heaviside, unit),
    forecasts(),
)


@settings(max_examples=200)
@given(distributions, st.lists(st.one_of(st.sampled_from([0.0, 1.0]), unit), min_size=1,
                               max_size=12))
def test_array_partial_expectations_match_scalar(dist, ys):
    under, over = dist.partial_expectations(np.array(ys))
    assert under.shape == over.shape == (len(ys),)
    for y, u, o in zip(ys, under.tolist(), over.tolist()):
        assert (u, o) == dist.partial_expectations(y) == reference_partial(dist, y)


# ---------- cross-validation against a naive loop ----------


def jittered_market(n_days, seed):
    """Hourly forecasts of their own, some with fewer knots and an atom."""
    base = make_synthetic_market(n_days=n_days, master_seed=seed)
    rng = np.random.default_rng(seed)
    levels = standard_forecast_levels()
    out = []
    for i, rec in enumerate(base):
        values = Beta(*rng.uniform(1.5, 7.0, size=2)).quantile(levels)
        if i % 5 == 2:
            fc = PiecewiseLinear([0.1, 0.4, 0.5, 0.9], [values[2], values[8], values[8], values[17]])
        else:
            fc = PiecewiseLinear(levels, values)
        out.append(replace(rec, forecast=fc))
    return out


NAIVE_PLAN = BacktestPlan(
    warm_start_days=24, tau_window_days=16, cv_days=8, m_grid=(2, 9),
    rho_grid=(0.0, 0.15, 1.0), epsilon_grid=(0.0, 0.05, 0.2, 2.0), theta_grid=(0.5, 0.9),
    strategies=STRATEGIES, fallback_tau=0.5,
)


class NaiveBacktest:
    """One scalar offer and one settlement at a time, as the protocol reads."""

    def __init__(self, records):
        first = records[0].timestamp.date()
        self.periods = {((r.timestamp.date() - first).days + 1, r.timestamp.hour): r
                        for r in records}
        days, hours = zip(*self.periods)
        self.estimator = HourlyTauEstimator(
            days, hours, *zip(*(penalty_pair(r) for r in self.periods.values())))
        self.settled = {}

    def offer(self, strategy, params, day, hour):
        rec = self.periods[(day, hour)]
        if strategy == "oracle":
            return rec.omega_star
        if strategy == "robust_s":
            return solve_robust_s(rec.forecast).y_star
        tau = self.estimator.forecast(day - 1, hour, params["m"], NAIVE_PLAN.fallback_tau)
        if strategy == "bn":
            return solve_direct(rec.forecast, tau).y_star
        if strategy == "robust_omega":
            return solve_robust_omega(tau).y_star
        if strategy == "dr_omega":
            return solve_dr_omega(rec.forecast, tau, params["rho"]).y_star
        theta = params.get("theta")
        kind = BallKind.UNIFORM if theta is None else BallKind.LEVEL_ADJUSTED
        return solve_dr_s(rec.forecast, make_bernoulli_ball(tau, params["epsilon"], kind, theta)).y_star

    def revenue(self, strategy, params, day, hour):
        key = (strategy, tuple(sorted(params.items())), day, hour)
        if key not in self.settled:
            rec = self.periods[(day, hour)]
            y = self.offer(strategy, params, day, hour)
            self.settled[key] = revenue(rec.pi_s, rec.pi_b, rec.s_l, y, rec.omega_star)
        return self.settled[key]

    def select(self, first_day, last_day):
        chosen = {}
        for strategy in NAIVE_PLAN.strategies:
            grid = _param_grid(strategy, NAIVE_PLAN)
            totals = []
            for params in grid:
                total = 0.0
                for key in sorted(self.periods):
                    if first_day <= key[0] <= last_day:
                        total += self.revenue(strategy, params, *key)
                totals.append(total)
            chosen[strategy] = grid[int(np.argmax(totals))]
        return chosen


@pytest.mark.parametrize("mode", [CvMode.FIXED_WINDOW, CvMode.SLIDING])
def test_cross_validation_and_backtest_match_naive_loop(mode):
    records = jittered_market(28, seed=41)
    plan = replace(NAIVE_PLAN, cv_mode=mode)
    naive = NaiveBacktest(records)
    chosen = cross_validate(records, plan)
    eval_days = range(plan.warm_start_days + 1, 29)
    if mode is CvMode.FIXED_WINDOW:
        assert chosen.static == naive.select(plan.tau_window_days + 1, plan.warm_start_days)
    else:
        assert chosen.per_day == {day: naive.select(day - 1 - plan.cv_days, day - 2)
                                  for day in eval_days}
    report = run_backtest(records, plan, chosen)
    keys = [key for key in sorted(naive.periods) if key[0] in eval_days]
    for strategy in plan.strategies:
        expect = [naive.revenue(strategy, chosen.params_for(strategy, day, plan), day, hour)
                  for day, hour in keys]
        assert report.revenues[strategy].tolist() == expect, strategy


# ---------- grid-batched selection against one grid point at a time ----------


@st.composite
def gappy_markets(draw):
    """Short hourly markets with dropped hours and days and shared forecast objects.

    Forecasts come from a small pool of objects, on one level grid or on
    mixed grids. On "zero days" prices are negative and the realization is
    0, so the oracle's revenues there are -0.0.
    """
    n_days = draw(st.integers(6, 9))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        pool = draw(on_shared_levels())
    else:
        pool = draw(st.lists(forecasts(), min_size=2, max_size=4))
    dropped_days = set(draw(st.lists(st.integers(2, n_days - 1), max_size=3)))
    zero_days = set(draw(st.lists(st.integers(1, n_days), max_size=4)))
    # the sparsest markets leave some selection windows empty
    keep = draw(st.sampled_from([1.0, 0.7, 0.2, 0.03]))
    records = []
    for k, rec in enumerate(make_synthetic_market(n_days=n_days, master_seed=seed % 7)):
        day = k // 24 + 1
        if day in dropped_days or (rng.random() > keep and k not in (0, 24 * n_days - 1)):
            continue
        rec = replace(rec, forecast=pool[int(rng.integers(len(pool)))])
        if day in zero_days:
            rec = replace(rec, pi_s=-abs(rec.pi_s), pi_b=-abs(rec.pi_b), omega_star=0.0)
        records.append(rec)
    return records


def small_lists(values, max_size):
    return st.lists(st.sampled_from(values), min_size=1, max_size=max_size).map(tuple)


sliding_plans = st.builds(
    lambda m, rho, eps, theta, fallback: BacktestPlan(
        warm_start_days=5, tau_window_days=3, cv_days=2, cv_mode=CvMode.SLIDING,
        m_grid=m, rho_grid=rho, epsilon_grid=eps, theta_grid=theta, strategies=STRATEGIES,
        fallback_tau=fallback),
    small_lists([1, 2], 3), small_lists([0.0, 0.15, 0.5, 1.0], 3),
    small_lists([0.0, 0.05, 0.2, 2.0], 4), small_lists([0.0, 0.5, 0.9], 2),
    st.sampled_from([0.5, None]))

# (the ball width above which a DR-S offer turns 2, the radius whose
# DR-omega offer turns -1 at tau_hat > a cut); a radius of -1 corrupts nothing
corruptions = st.one_of(st.none(), st.tuples(
    st.sampled_from([0.3, np.inf, 0.9, 0.05]),
    st.sampled_from([-1.0, 0.0, 0.15, 0.5, 1.0]), unit))


def corrupting(width_cut, bad_rho, rho_cut):
    """Offer rules that fail the offer range check at entries chosen by value alone."""
    rule, dr_omega = backtest.dr_s_rule, backtest.dr_omega_from_quantiles

    def bad_rule(q_lo, q_hi, mean):
        y, branch = rule(q_lo, q_hi, mean)
        return np.where(q_hi - q_lo > width_cut, 2.0, y), branch

    def bad_dr_omega(dist, tau, rho, u, q):
        y, *rest = dr_omega(dist, tau, rho, u, q)
        return (np.where((rho == bad_rho) & (tau > rho_cut), -1.0, y), *rest)

    return mock.patch.multiple(backtest, dr_s_rule=bad_rule, dr_omega_from_quantiles=bad_dr_omega)


def point_by_point_totals(span, strategy, grid, windows):
    """Window totals with each grid point priced alone, each window a 1-D running sum."""
    totals = np.empty((len(grid), len(windows)))
    for g, params in enumerate(grid):
        rev = span.revenues(strategy, [params])[0]
        for w, (a, b) in enumerate(windows):
            totals[g, w] = np.add.accumulate(rev[a:b])[-1] if b > a else 0.0
    return totals


def batched_totals(span, strategy, grid, windows):
    return backtest._window_totals(span.revenues(strategy, grid), windows)


@settings(max_examples=200)
@given(gappy_markets(), sliding_plans, corruptions)
def test_grid_batched_selection_matches_point_by_point(records, plan, corruption):
    frame = backtest._MarketFrame(records)
    days = range(plan.warm_start_days + 1, frame.n_days + 1)
    periods = frame.periods(days[0] - 1 - plan.cv_days, days[-1] - 2)

    def select(price):
        """Each strategy's totals (as bytes, so -0.0 counts) and choices, or the error."""
        span = backtest._Span(frame, plan, periods)
        windows = [backtest._day_range(span.day, d - 1 - plan.cv_days, d - 2) for d in days]
        out = {}
        try:
            for strategy in plan.strategies:
                grid = _param_grid(strategy, plan)
                totals = price(span, strategy, grid, windows)
                out[strategy] = (totals.tobytes(), [grid[g] for g in np.argmax(totals, axis=0)])
        except ValueError as exc:
            return str(exc)
        chosen = backtest._select(backtest._Span(frame, plan, periods), plan, windows)
        assert [{s: choice[w] for s, (_, choice) in out.items()} for w in range(len(days))] \
            == chosen
        return out

    if corruption is None:
        assert select(batched_totals) == select(point_by_point_totals)
    else:
        with corrupting(*corruption):
            assert select(batched_totals) == select(point_by_point_totals)


# ---------- one gate-closure pass against each strategy priced alone ----------


def strategy_alone(records, plan, chosen, day, corruption):
    """Each strategy's offers at ``day``'s gate closure as bytes, or the first error.

    Each strategy is priced by itself, in roster order, through the public
    rules: a plain windowed mean for tau, ``ball_bounds``, ``dr_omega_offers``,
    ``dr_s_rule`` and one forecast batch of the day; ``corruption`` is
    applied as :func:`corrupting` applies it.
    """
    first = records[0].timestamp.toordinal()
    days = np.array([r.timestamp.toordinal() - first + 1 for r in records])
    hours = np.array([r.timestamp.hour for r in records])
    on = np.flatnonzero(days == day)
    if not on.size:
        return f"no market records for day {day}"
    batch = PiecewiseLinearBatch([records[i].forecast for i in on])
    width_cut, bad_rho, rho_cut = corruption or (np.inf, -1.0, 1.0)
    out = {}
    try:
        for strategy in plan.strategies:
            params = chosen.params_for(strategy, day, plan)
            if "m" in params:
                tau = reference_tau(records, days[on] - 1, hours[on], params["m"],
                                    plan.fallback_tau)
            if strategy == "oracle":
                y = np.array([records[i].omega_star for i in on])
            elif strategy == "robust_s":
                y = batch.mean()
            elif strategy == "robust_omega":
                y = tau
            elif strategy == "bn":
                y = batch.quantile(tau)
            elif strategy == "dr_omega":
                y = dr_omega_offers(batch, tau, params["rho"])[0]
                y = np.where((params["rho"] == bad_rho) & (tau > rho_cut), -1.0, y)
            else:
                lo, hi = ball_bounds(tau, params["epsilon"], params.get("theta", 0.0))
                q_lo, q_hi = batch.quantile(lo), batch.quantile(hi)
                y = dr_s_rule(q_lo, q_hi, batch.mean())[0]
                y = np.where(q_hi - q_lo > width_cut, 2.0, y)
            bad = ~((y >= 0.0) & (y <= 1.0))
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"{records[on[i]].timestamp.isoformat()}: "
                                 f"offer must lie in [0, 1], got {y[i]}")
            out[strategy] = (hours[on].tolist(), y.tobytes())
    except ValueError as exc:
        return str(exc)
    return out


@st.composite
def gate_closure_selections(draw):
    """A fixed-window selection over the strategies, now and then with one fault.

    The fault is a strategy left out or an ``m`` of 3, beyond the plan's windows;
    either fails where that strategy is priced.
    """
    values = {"m": st.sampled_from([1, 2]), "rho": st.sampled_from([0.0, 0.5, 1.0, 0.15]),
              "epsilon": st.sampled_from([0.0, 0.05, 0.2, 2.0]),
              "theta": st.sampled_from([0.0, 0.5, 0.9])}
    static = {strategy: {name: draw(values[name]) for name in backtest._PARAMS[strategy]}
              for strategy in STRATEGIES}
    fault = draw(st.sampled_from([None, None, None, "missing", "m"]))
    if fault == "missing":
        del static[draw(st.sampled_from(STRATEGIES))]
    elif fault == "m":
        static[draw(st.sampled_from([s for s in STRATEGIES if "m" in static[s]]))]["m"] = 3
    return ChosenParameters(mode=CvMode.FIXED_WINDOW, static=static)


@settings(max_examples=300)
@given(gappy_markets(), gate_closure_selections(), st.permutations(STRATEGIES),
       st.sampled_from([None, 0.5]), corruptions, st.data())
def test_one_gate_closure_pass_equals_each_strategy_priced_alone(records, chosen, roster,
                                                                 fallback, corruption, data):
    plan = BacktestPlan(warm_start_days=5, tau_window_days=3, cv_days=2, m_grid=(1, 2),
                        strategies=tuple(roster), fallback_tau=fallback)
    first = records[0].timestamp.toordinal()
    days = sorted({r.timestamp.toordinal() - first + 1 for r in records})
    # mostly a day with records, sometimes any day up to one past the market
    day = data.draw(st.one_of(st.sampled_from(days), st.integers(1, days[-1] + 1)))

    def one_pass():
        try:
            offers = offers_for_day(records, plan, chosen, day)
        except ValueError as exc:
            return str(exc)
        return {strategy: (list(by_hour), np.array(list(by_hour.values())).tobytes())
                for strategy, by_hour in offers.items()}

    if corruption is None:
        assert one_pass() == strategy_alone(records, plan, chosen, day, None)
    else:
        with corrupting(*corruption):
            assert one_pass() == strategy_alone(records, plan, chosen, day, corruption)


@settings(max_examples=200)
@given(gappy_markets(), st.sampled_from([1, 2, 3]), st.sampled_from([None, 0.5, 0.0]),
       st.data())
def test_frame_tau_column_matches_the_estimator_on_any_span(records, m, fallback, data):
    frame = backtest._MarketFrame(records)
    first = data.draw(st.integers(1, frame.n_days))
    periods = frame.periods(first, data.draw(st.integers(first, frame.n_days)))
    plan = BacktestPlan(warm_start_days=5, tau_window_days=4, cv_days=1, m_grid=(m,),
                        fallback_tau=fallback)

    def estimate(tau_hat):
        """The estimates' bytes, or the error that stopped them."""
        try:
            return tau_hat().tobytes()
        except ValueError as exc:
            return str(exc)

    span = backtest._Span(frame, plan, periods)
    expect = estimate(lambda: reference_tau(records, span.day - 1, span.hour, m, fallback))
    assert estimate(lambda: span.tau_hat(m)) == expect
    # the column holds NaN exactly where a window is empty; no fallback names the first
    empty = np.isnan(frame.tau_column(m)[periods])
    if fallback is None and empty.any():
        i = int(np.argmax(empty))
        assert expect == (f"no usable outcomes for hour {span.hour[i]} in the {m} days before "
                          f"day {span.day[i] - 1}; supply a fallback tau to proceed")
    else:
        assert isinstance(expect, bytes)


# ---------- settlement: the kernel's blocks against revenue and the written-out rule ----------


def settled_by_hand(pi_s, pi_b, s_l, y, omega):
    """Two-price settlement in Python floats, one period at a time.

    The imbalance ``omega - y`` is paid at ``pi_b`` when it has the
    system's sign (it aggravates the system), at ``pi_s`` otherwise.
    """
    def one(pi_s, pi_b, s_l, y, omega):
        imbalance = omega - y
        return pi_s * y + (pi_b if imbalance * s_l > 0.0 else pi_s) * imbalance

    columns = [c.tolist() for c in (pi_s, pi_b, s_l)]
    return np.array([[one(*args) for args in zip(*columns, row, omega.tolist())]
                     for row in np.atleast_2d(y).tolist()])


SETTLE_PLAN = BacktestPlan(
    warm_start_days=5, tau_window_days=3, cv_days=2, m_grid=(1, 2), rho_grid=(0.0, 0.5, 1.0),
    epsilon_grid=(0.0, 0.2, 2.0), theta_grid=(0.5,), strategies=STRATEGIES, fallback_tau=0.5)


@settings(max_examples=100)
@given(gappy_markets(), st.data())
def test_kernel_settles_each_block_as_revenue_does(records, data):
    """Settled blocks equal ``revenue`` on the same arrays, byte for byte, -0.0 included.

    Some days get a zero system length (the balancing price never applies)
    or a realization of 1. The first realization is 0 and the last 1, so
    the oracle offers 0 and 1; windows of one day often do the same.
    """
    first = records[0].timestamp.toordinal()
    flat, full = (set(data.draw(st.lists(st.integers(1, 9), max_size=3))) for _ in range(2))

    def redrawn(rec):
        day = rec.timestamp.toordinal() - first + 1
        rec = replace(rec, s_l=0.0) if day in flat else rec
        return replace(rec, omega_star=1.0) if day in full else rec

    records = [redrawn(rec) for rec in records]
    records[0], records[-1] = replace(records[0], omega_star=0.0), replace(records[-1], omega_star=1.0)
    frame = backtest._MarketFrame(records)
    span = backtest._Span(frame, SETTLE_PLAN, frame.periods(1, frame.n_days))
    columns = (span.pi_s, span.pi_b, span.s_l)
    for strategy in STRATEGIES:
        grid = _param_grid(strategy, SETTLE_PLAN)
        y = span.offers([(strategy, params) for params in grid])
        settled = span.revenues(strategy, grid).tobytes()
        assert settled == revenue(*columns, y, span.omega).tobytes(), strategy
        assert settled == settled_by_hand(*columns, y, span.omega).tobytes(), strategy
    # the oracle's revenues over the evaluation span
    report = run_backtest(records, SETTLE_PLAN, cross_validate(records, SETTLE_PLAN))
    on = backtest._Span(frame, SETTLE_PLAN,
                        frame.periods(SETTLE_PLAN.warm_start_days + 1, frame.n_days))
    oracle = (on.pi_s, on.pi_b, on.s_l, on.omega, on.omega)
    assert report.oracle_revenues.tobytes() == revenue(*oracle).tobytes()
    assert report.oracle_revenues.tobytes() == settled_by_hand(*oracle)[0].tobytes()
