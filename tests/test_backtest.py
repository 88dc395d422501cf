"""Backtest protocol: data IO, cross-validation, settlement, look-ahead guard."""

import copy
import csv
import gc
import io
import json
import pickle
import re
import tracemalloc
import weakref
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from datetime import datetime, timedelta, timezone
from itertools import cycle, islice
from unittest import mock
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drnewsvendor import (
    BacktestPlan,
    Beta,
    ChosenParameters,
    CvMode,
    MarketRecord,
    PiecewiseLinear,
    cross_validate,
    load_market_data,
    make_synthetic_market,
    offers_for_day,
    revenue,
    run_backtest,
    scale_penalties,
    standard_forecast_levels,
    write_forecast_dir,
    write_market_csv,
)
from drnewsvendor import backtest
from drnewsvendor.cli import dispatch
from drnewsvendor.distributions import PiecewiseLinearBatch, _forecast_text
from drnewsvendor.estimation import HourlyTauEstimator

from conftest import penalty_pair

SMALL_PLAN = BacktestPlan(
    tau_window_days=20, cv_days=10, m_grid=(8,),
    epsilon_grid=(0.0, 0.05, 0.1, 0.2), theta_grid=(0.9,),
    rho_grid=(0.0, 0.1, 0.3),
)


def small_market(days=45, seed=5, **kw):
    return make_synthetic_market(n_days=days, master_seed=seed, **kw)


def penalty_direction(rec):
    """1 when the period's overproduction is penalized, 0 underproduction, None neither.

    The penalty rule written out: a system length of zero or more
    penalizes overproduction by ``pi_s - pi_b``, a negative one
    underproduction by ``pi_b - pi_s``, and a spread of the other sign
    penalizes nothing.
    """
    if rec.s_l >= 0.0:
        return 1 if rec.pi_s > rec.pi_b else None
    return 0 if rec.pi_b > rec.pi_s else None


# ---------- synthetic generator ----------


def test_synthetic_emits_known_counts():
    recs = make_synthetic_market(n_days=731, master_seed=1)
    assert len(recs) == 731 * 24
    hours = {r.timestamp.hour for r in recs}
    assert hours == set(range(24))
    assert recs[0].timestamp == datetime(2018, 10, 1, 0)
    assert recs[-1].timestamp.date() == datetime(2020, 9, 30).date()


def test_synthetic_calibration():
    recs = make_synthetic_market(n_days=400, master_seed=2)
    pi_s = np.array([r.pi_s for r in recs])
    spread = np.abs(np.array([r.pi_b for r in recs]) - pi_s)
    assert np.mean(spread / pi_s) == pytest.approx(0.135, abs=0.01)
    outcomes = [penalty_direction(r) for r in recs]
    usable = [o for o in outcomes if o is not None]
    assert np.mean(usable) == pytest.approx(0.75, abs=0.02)
    assert 1.0 - len(usable) / len(outcomes) == pytest.approx(0.05, abs=0.02)
    # spread sign always matches the system length, so no clamping occurs
    for r in recs[:500]:
        if r.s_l != 0.0:
            assert penalty_direction(r) is not None


def test_synthetic_validation():
    with pytest.raises(ValueError):
        make_synthetic_market(n_days=0)
    with pytest.raises(ValueError):
        make_synthetic_market(tau=1.3)
    with pytest.raises(ValueError):
        make_synthetic_market(mean_rel_spread=0.7)
    with pytest.raises(ValueError, match=re.escape("no-balancing rate must lie in [0, 1)")):
        make_synthetic_market(no_balancing_rate=1.0)
    # market files key each period by its hour, so the loader would refuse the market
    with pytest.raises(ValueError, match=re.escape("start must be on the hour, got 2020-01-01T00:30:00")):
        make_synthetic_market(n_days=3, start=datetime(2020, 1, 1, 0, 30))


# ---------- file interfaces ----------


def test_market_files_round_trip(tmp_path):
    recs = small_market(days=3)
    market = tmp_path / "market.csv"
    fdir = tmp_path / "forecasts"
    write_market_csv(recs, market)
    write_forecast_dir(recs, fdir)
    assert len(list(fdir.glob("*.csv"))) == 72
    back = load_market_data(market, fdir)
    assert len(back) == len(recs)
    for a, b in zip(recs, back):
        assert a.timestamp == b.timestamp
        assert a.pi_s == b.pi_s and a.pi_b == b.pi_b
        assert a.s_l == b.s_l and a.omega_star == b.omega_star
        assert np.array_equal(a.forecast.values, b.forecast.values)


def _write_fixture(tmp_path, rows):
    market = tmp_path / "m.csv"
    fdir = tmp_path / "fc"
    fdir.mkdir(exist_ok=True)
    lines = ["timestamp,pi_s,pi_b,s_L,omega_star"]
    for ts, *vals in rows:
        lines.append(",".join([ts] + [str(v) for v in vals]))
        (fdir / (ts[:13] + ".csv")).write_text("level,value\n0.25,0.2\n0.5,0.4\n0.75,0.6\n")
    market.write_text("\n".join(lines) + "\n")
    return market, fdir


def test_load_two_row_fixture(tmp_path):
    market, fdir = _write_fixture(tmp_path, [
        ("2020-01-01T00:00:00", 50.0, 40.0, 1.0, 0.5),
        ("2020-01-01T01:00:00", 52.0, 60.0, -1.0, 0.4),
    ])
    # a blank row is skipped
    header, *rows = market.read_text().splitlines()
    market.write_text("\n".join([header, rows[0], "", rows[1]]) + "\n")
    recs = load_market_data(market, fdir)
    assert len(recs) == 2
    assert recs[0].pi_b == 40.0
    assert isinstance(recs[1].forecast, PiecewiseLinear)


def test_load_stores_repeated_knots_once(tmp_path):
    market, fdir = _write_fixture(tmp_path, [
        (f"2020-01-01T0{h}:00:00", 50.0, 40.0, 1.0, 0.5) for h in range(4)
    ])
    (fdir / "2020-01-01T02.csv").write_text("level,value\n0.25,0.1\n0.5,0.4\n0.75,0.9\n")
    (fdir / "2020-01-01T03.csv").write_text("level,value\n0.2,0.1\n0.5,0.4\n0.75,0.9\n")
    a, b, c, d = (rec.forecast for rec in load_market_data(market, fdir))
    assert b is a
    assert c is not b and c._ps is a._ps
    assert d._ps is not c._ps
    assert c.quantile(0.6) == PiecewiseLinear([0.25, 0.5, 0.75], [0.1, 0.4, 0.9]).quantile(0.6)
    assert d.quantile(0.3) == PiecewiseLinear([0.2, 0.5, 0.75], [0.1, 0.4, 0.9]).quantile(0.3)


def test_load_errors_name_row_and_column(tmp_path):
    market = tmp_path / "m.csv"
    market.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_market_data(market, tmp_path)

    market.write_text("time,pi_s,pi_b,s_L,omega_star\n")
    with pytest.raises(ValueError, match="header"):
        load_market_data(market, tmp_path)

    market.write_text("timestamp,pi_s,pi_b,s_L,omega_star\n\n")
    with pytest.raises(ValueError, match=r"m.csv: no data rows$"):
        load_market_data(market, tmp_path)

    m, fdir = _write_fixture(tmp_path, [("2020-01-01T00:00:00", 50.0, "oops", 1.0, 0.5)])
    with pytest.raises(ValueError, match=r"m.csv:2.*pi_b"):
        load_market_data(m, fdir)

    m, fdir = _write_fixture(tmp_path, [("2020-01-01T00:00:00", 50.0, 40.0, 1.0, 1.5)])
    with pytest.raises(ValueError, match=r"omega_star.*1.5"):
        load_market_data(m, fdir)

    m, fdir = _write_fixture(tmp_path, [("2020-01-01T00:30:00", 50.0, 40.0, 1.0, 0.5)])
    with pytest.raises(ValueError, match="not on the hour"):
        load_market_data(m, fdir)

    m, fdir = _write_fixture(tmp_path, [("2020-01-01T00:00:00", 50.0, 40.0, 1.0, 0.5)])
    (fdir / "2020-01-01T00.csv").unlink()
    with pytest.raises(ValueError, match="forecast file"):
        load_market_data(m, fdir)


def test_load_rejects_non_finite_numbers(tmp_path):
    for col, row in (
        ("pi_s", ("2020-01-01T00:00:00", "nan", 40.0, 1.0, 0.5)),
        ("pi_b", ("2020-01-01T00:00:00", 50.0, "inf", 1.0, 0.5)),
        ("s_L", ("2020-01-01T00:00:00", 50.0, 40.0, "-inf", 0.5)),
    ):
        m, fdir = _write_fixture(tmp_path, [row])
        with pytest.raises(ValueError, match=rf"m.csv:2: column '{col}': non-finite"):
            load_market_data(m, fdir)


def test_load_rejects_non_finite_forecast_knots(tmp_path):
    m, fdir = _write_fixture(tmp_path, [
        ("2020-01-01T00:00:00", 50.0, 40.0, 1.0, 0.5),
        ("2020-01-01T01:00:00", 50.0, 40.0, 1.0, 0.5),
    ])
    (fdir / "2020-01-01T01.csv").write_text("level,value\n0.25,0.1\n0.5,nan\n0.75,0.9\n")
    with pytest.raises(ValueError, match=r"m.csv:3: .*2020-01-01T01.csv: values must be finite"):
        load_market_data(m, fdir)


@pytest.fixture(scope="module")
def six_day_files(tmp_path_factory):
    """A six-day hourly market on disk, and the crossval flags that select on it."""
    root = tmp_path_factory.mktemp("six_days")
    records = small_market(days=6, seed=3)
    market, fdir = root / "m.csv", root / "fc"
    write_market_csv(records, market)
    write_forecast_dir(records, fdir)
    flags = ["--market", str(market), "--forecasts", str(fdir), "--warm-start-days", "5",
             "--tau-window-days", "3", "--cv-days", "2", "--m-grid", "1,2",
             "--rho-grid", "0,0.2", "--eps-grid", "0,0.1", "--theta-grid", "0.9",
             "--fallback-tau", "0.5",
             "--out", str(root / "chosen.json")]
    forecasts = sorted(fdir.iterdir())
    return market, fdir, [market, forecasts[0], forecasts[70], forecasts[-1]], flags


# ",0.5" is appended to the cell, giving its row an extra column
BAD_TOKENS = ["", "nan", "inf", "-1", "1e309", "abc", ",0.5"]


@settings(max_examples=60)
@given(st.data())
def test_a_bad_cell_is_loaded_or_rejected_naming_its_file(six_day_files, data):
    market, fdir, files, flags = six_day_files
    path = data.draw(st.sampled_from(files))
    text = path.read_text()
    lines = text.splitlines()
    row = data.draw(st.integers(0, len(lines) - 1))
    cells = lines[row].split(",")
    col = data.draw(st.integers(0, len(cells) - 1))
    token = data.draw(st.sampled_from(BAD_TOKENS))
    cells[col] = cells[col] + token if token.startswith(",") else token
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    try:
        try:
            records = load_market_data(market, fdir)
        except ValueError as exc:
            assert str(path) in str(exc)
        else:
            assert len(records) == 6 * 24
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = dispatch(["crossval", *flags])
        if code:
            assert code == 1
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and "error" in json.loads(lines[0])
    finally:
        path.write_text(text)


def test_six_day_files_cross_validate(six_day_files):
    *_, flags = six_day_files
    with redirect_stdout(io.StringIO()):
        assert dispatch(["crossval", *flags]) == 0


def test_forecast_dir_files_match_single_writes(tmp_path):
    # two forecast objects interleaved hour by hour, each formatted once
    first, second = (PiecewiseLinear([0.1, 0.5, 0.9], [0.2, 0.3, 0.7]),
                     PiecewiseLinear([0.25, 0.75], [1 / 3, 2 / 3]))
    recs = [replace(rec, forecast=first if i % 3 else second)
            for i, rec in enumerate(small_market(days=2))]
    write_forecast_dir(recs, tmp_path / "dir")
    for rec in recs:
        name = rec.timestamp.strftime("%Y-%m-%dT%H") + ".csv"
        assert (tmp_path / "dir" / name).read_bytes() == _forecast_text(rec.forecast).encode()
    assert len(list((tmp_path / "dir").iterdir())) == len(recs)


def _half_past(records):
    return [replace(r, timestamp=r.timestamp + timedelta(minutes=30)) for r in records]


def _fall_back(records):
    # a daylight-saving fall-back: 02:00 local comes at +02:00, then at +01:00,
    # and both stamps would name one forecast file
    stamps = (datetime(2018, 10, 28, 2, tzinfo=timezone(timedelta(hours=2))),
              datetime(2018, 10, 28, 2, tzinfo=timezone(timedelta(hours=1))))
    return [replace(r, timestamp=ts) for r, ts in zip(records, stamps)]


@pytest.mark.parametrize("write", [
    lambda recs, out: write_market_csv(recs, out / "market" / "m.csv"),
    lambda recs, out: write_forecast_dir(recs, out / "fc"),
], ids=["market_csv", "forecast_dir"])
@pytest.mark.parametrize("edit, message", [
    (_half_past, "2018-10-01T00:30:00: not on the hour"),
    (lambda recs: [recs[0], recs[0], *recs[1:]],
     "2018-10-01T00:00:00 follows 2018-10-01T00:00:00; timestamps must be strictly increasing"),
    (_fall_back, "2018-10-28T02:00:00+01:00 does not advance the local hour of 2018-10-28T02:00:00+02:00"),
], ids=["half_past", "repeated_stamp", "repeated_local_hour"])
def test_writers_refuse_a_market_the_loader_would_refuse(tmp_path, write, edit, message):
    # every stamp is checked before any file is made, so nothing is left behind
    records = edit(small_market(days=2))
    with pytest.raises(ValueError, match=re.escape(message)):
        write(iter(records), tmp_path)
    assert not any(tmp_path.iterdir())


def test_load_gap_warns_and_strict_fails(tmp_path):
    market, fdir = _write_fixture(tmp_path, [
        ("2020-01-01T00:00:00", 50.0, 40.0, 1.0, 0.5),
        ("2020-01-01T03:00:00", 52.0, 60.0, -1.0, 0.4),
    ])
    with pytest.warns(UserWarning, match="missing hour"):
        recs = load_market_data(market, fdir)
    assert len(recs) == 2
    with pytest.raises(ValueError, match="missing hour"):
        load_market_data(market, fdir, strict=True)


def test_load_unordered_timestamps(tmp_path):
    market, fdir = _write_fixture(tmp_path, [
        ("2020-01-01T01:00:00", 50.0, 40.0, 1.0, 0.5),
        ("2020-01-01T00:00:00", 52.0, 60.0, -1.0, 0.4),
    ])
    with pytest.raises(ValueError, match="strictly increasing"):
        load_market_data(market, fdir)


def test_load_rejects_a_repeated_local_hour(tmp_path):
    # the daylight-saving fall-back repeats 02:00 local time; both rows would
    # read the same forecast file and share one (day, hour) period
    market, fdir = _write_fixture(tmp_path, [
        (ts, 50.0, 40.0, 1.0, 0.5) for ts in (
            "2021-10-31T00:00:00+02:00", "2021-10-31T01:00:00+02:00",
            "2021-10-31T02:00:00+02:00", "2021-10-31T02:00:00+01:00",
            "2021-10-31T03:00:00+01:00",
        )
    ])
    with pytest.raises(ValueError, match=r"m.csv:5: column 'timestamp': '2021-10-31T02:00:00\+01:00'"):
        load_market_data(market, fdir)


# ---------- cross-validation ----------


def test_single_point_grid_is_chosen():
    plan = replace(SMALL_PLAN, epsilon_grid=(0.07,), rho_grid=(0.11,), theta_grid=(0.5,))
    chosen = cross_validate(small_market(), plan)
    assert chosen.static["dr_s_uniform"] == {"m": 8, "epsilon": 0.07}
    assert chosen.static["dr_omega"] == {"m": 8, "rho": 0.11}
    assert chosen.static["dr_s_level_adjusted"] == {"m": 8, "epsilon": 0.07, "theta": 0.5}
    assert chosen.static["oracle"] == {}


def test_eps_zero_chosen_when_plain_newsvendor_is_optimal():
    # constant overage-penalized market: the estimate is exact (tau-hat = 1)
    # and offering the top quantile is unimprovable, so any positive radius
    # only pulls the offer down into penalties
    recs = small_market(days=45, seed=9, tau=1.0, no_balancing_rate=0.0)
    plan = replace(SMALL_PLAN, strategies=("bn", "dr_s_uniform"))
    chosen = cross_validate(recs, plan)
    assert chosen.static["dr_s_uniform"]["epsilon"] == 0.0


def test_chosen_point_maximizes_exhaustive_grid():
    # the grid evaluation itself is the oracle for the selection
    recs = small_market(days=45, seed=7)
    plan = replace(SMALL_PLAN, strategies=("bn", "dr_s_uniform"))
    chosen = cross_validate(recs, plan)
    totals = {}
    for eps in plan.epsilon_grid:
        probe = ChosenParameters(
            mode=CvMode.FIXED_WINDOW,
            static={"dr_s_uniform": {"m": 8, "epsilon": eps}, "bn": {"m": 8}},
        )
        total = 0.0
        for day in range(plan.tau_window_days + 1, plan.warm_start_days + 1):
            offers = offers_for_day(recs, plan, probe, day)["dr_s_uniform"]
            for rec in recs:
                d = (rec.timestamp.date() - recs[0].timestamp.date()).days + 1
                if d == day:
                    total += revenue(rec.pi_s, rec.pi_b, rec.s_l, offers[rec.timestamp.hour],
                                     rec.omega_star)
        totals[eps] = total
    best = max(totals, key=lambda e: (totals[e], -e))
    assert chosen.static["dr_s_uniform"]["epsilon"] == best


def test_insufficient_history_errors():
    with pytest.raises(ValueError, match="^no market records$"):
        cross_validate([], SMALL_PLAN)
    with pytest.raises(ValueError, match="insufficient"):
        cross_validate(small_market(days=20), SMALL_PLAN)
    # a market exactly as long as the warm start leaves no day to select for
    sliding = replace(SMALL_PLAN, cv_mode=CvMode.SLIDING)
    assert cross_validate(small_market(days=30), sliding).per_day == {}
    with pytest.raises(ValueError, match="evaluation"):
        chosen = cross_validate(small_market(days=30), SMALL_PLAN)
        run_backtest(small_market(days=30), SMALL_PLAN, chosen)


def test_plan_validation():
    with pytest.raises(ValueError, match="warm start"):
        BacktestPlan(warm_start_days=100, tau_window_days=91, cv_days=40)
    with pytest.raises(ValueError, match="unknown strategies"):
        BacktestPlan(strategies=("bn", "alpha"))
    with pytest.raises(ValueError, match="^the tau window needs at least 2 days and the "
                                         "cross-validation span at least 1, got 1 and 10$"):
        BacktestPlan(tau_window_days=1, cv_days=10)


def test_the_warm_start_is_read_back_from_the_two_windows():
    # the benchmark's toy plan passes the sum, and its sliding copy derives it again
    toy = BacktestPlan(warm_start_days=15, tau_window_days=10, cv_days=5, m_grid=(4, 6, 8),
                       rho_grid=(0.0, 0.1), epsilon_grid=(0.0, 0.1), theta_grid=(0.5, 0.9))
    sliding = replace(toy, cv_mode=CvMode.SLIDING)
    assert (toy.warm_start_days, sliding.warm_start_days) == (15, 15)
    assert sliding == replace(toy, cv_mode=CvMode.SLIDING, warm_start_days=15)
    assert BacktestPlan(tau_window_days=20, cv_days=10, m_grid=(8,)).warm_start_days == 30
    assert BacktestPlan().warm_start_days == 131
    assert "warm_start_days" not in {f.name for f in fields(BacktestPlan)}
    with pytest.raises(ValueError, match=re.escape(
            "warm start must equal tau window plus cross-validation days: 100 != 91 + 40")):
        BacktestPlan(warm_start_days=100)
    with pytest.raises(ValueError, match="^warm start must equal"):
        replace(toy, tau_window_days=11, warm_start_days=15)


@pytest.mark.parametrize("grid, strategy", [
    ("rho_grid", "dr_omega"),
    ("epsilon_grid", "dr_s_uniform"),
    ("epsilon_grid", "dr_s_level_adjusted"),
    ("theta_grid", "dr_s_level_adjusted"),
    ("m_grid", "bn"),
])
def test_plan_rejects_an_empty_grid_a_strategy_needs(grid, strategy):
    with pytest.raises(ValueError, match=rf"^{grid} is empty, but strategy '{strategy}' needs it$"):
        BacktestPlan(strategies=("oracle", strategy), **{grid: ()})
    # a grid that no listed strategy draws from may stay empty
    BacktestPlan(strategies=tuple(s for s in ("oracle", "bn", "robust_s") if s != strategy),
                 **{grid: ()})


def test_plan_leaves_the_m_grid_unchecked_when_no_strategy_reads_m():
    # the default m grid (90) outruns a 20-day tau window, but oracle and robust_s read no m
    BacktestPlan(strategies=("oracle", "robust_s"), tau_window_days=20, cv_days=10)


@pytest.mark.parametrize("grids, message", [
    ({"rho_grid": (0.0, 1.5)}, "rho_grid: 1.5 must lie in [0, 1], as strategy 'dr_omega' needs"),
    ({"epsilon_grid": (-0.1,)},
     "epsilon_grid: -0.1 must be non-negative, as strategy 'dr_s_uniform' needs"),
    ({"epsilon_grid": (0.1, 11.0), "strategies": ("dr_s_level_adjusted",)},
     "epsilon_grid: 11.0 must lie in [0, 10.0] for level-adjusted balls, "
     "as strategy 'dr_s_level_adjusted' needs"),
    ({"theta_grid": (1.0,)}, "theta_grid: 1.0 must lie in [0, 1), as strategy "
                             "'dr_s_level_adjusted' needs"),
    ({"theta_grid": (float("nan"),)}, "theta_grid: nan must lie in [0, 1)"),
    ({"m_grid": (2.5,)}, "m_grid: 2.5 must be an integer from 1 to 90, as strategy 'bn' needs"),
    ({"m_grid": (95,)}, "m_grid: 95 must be an integer from 1 to 90, as strategy 'bn' needs"),
    ({"m_grid": (0,)}, "m_grid: 0 must be an integer from 1 to 90, as strategy 'bn' needs"),
])
def test_plan_rejects_grid_values_a_strategy_cannot_use(grids, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        BacktestPlan(**grids)


@pytest.mark.parametrize("strategies, message", [
    (("bn", "bn"), "strategy 'bn' is listed twice"),
    (("oracle", "dr_omega", "bn", "dr_omega"), "strategy 'dr_omega' is listed twice"),
    ((), "the strategy roster is empty"),
])
def test_plan_rejects_a_repeated_or_empty_roster(strategies, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BacktestPlan(strategies=strategies)


def test_plan_rejects_fallback_tau_outside_unit_interval():
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="fallback tau"):
            BacktestPlan(fallback_tau=bad)


def test_backtest_rejects_non_quantile_forecasts():
    recs = small_market()
    with pytest.raises(ValueError, match=recs[100].timestamp.isoformat()):
        replace(recs[100], forecast=Beta(2, 6))


# ---------- evaluation ----------


def test_oracle_has_zero_regret_and_dayahead_revenue():
    recs = small_market()
    chosen = cross_validate(recs, SMALL_PLAN)
    report = run_backtest(recs, SMALL_PLAN, chosen)
    assert report.rows["oracle"].regret_per_mwh == 0.0
    by_ts = {r.timestamp: r for r in recs}
    for ts, rev in zip(report.timestamps, report.revenues["oracle"]):
        rec = by_ts[ts]
        assert rev == pytest.approx(rec.pi_s * rec.omega_star, rel=1e-12)


def test_oracle_dominates_everything():
    recs = small_market(seed=11)
    chosen = cross_validate(recs, SMALL_PLAN)
    report = run_backtest(recs, SMALL_PLAN, chosen)
    for name, row in report.rows.items():
        assert row.regret_per_mwh >= -1e-12, name
        assert np.all(report.oracle_revenues - report.revenues[name] >= -1e-9), name


def test_penalty_free_market_pays_every_strategy_alike():
    recs = [replace(r, pi_b=r.pi_s, s_l=0.0) for r in small_market()]
    plan = replace(SMALL_PLAN, fallback_tau=0.5)  # no outcomes to estimate from
    chosen = cross_validate(recs, plan)
    report = run_backtest(recs, plan, chosen)
    base = report.revenues["oracle"]
    for name in plan.strategies:
        assert np.allclose(report.revenues[name], base, atol=1e-9), name


def test_report_totals_match_independent_settlement():
    recs = small_market(seed=13)
    chosen = cross_validate(recs, SMALL_PLAN)
    report = run_backtest(recs, SMALL_PLAN, chosen)
    assert report.rows["bn"].advantage_ratio_pct == 100.0
    for name, row in report.rows.items():
        series = report.revenues[name]
        assert row.total_revenue == pytest.approx(series.sum(), rel=1e-6)
        per_mwh = series.sum() / report.volumes.sum()
        assert row.revenue_per_mwh == pytest.approx(per_mwh, rel=1e-6)
        delta = series - report.revenues["bn"]
        assert row.cum_delta_regret[-1] == pytest.approx(delta.sum(), rel=1e-6, abs=1e-9)


def test_fallback_missing_tau_raises_without_flag():
    recs = [replace(r, pi_b=r.pi_s, s_l=0.0) for r in small_market()]
    with pytest.raises(ValueError, match="fallback"):
        cross_validate(recs, SMALL_PLAN)


# ---------- look-ahead guard ----------


def _poison(recs, first_day, keep_omega_day):
    first_date = recs[0].timestamp.date()
    out = []
    for r in recs:
        day = (r.timestamp.date() - first_date).days + 1
        if day >= first_day:
            new_omega = r.omega_star if day == keep_omega_day else (1.0 - r.omega_star)
            out.append(replace(
                r, pi_s=r.pi_s * 1.7 + 3.0, pi_b=r.pi_b * 0.4 + 1.0,
                s_l=-r.s_l if r.s_l != 0.0 else 1.0, omega_star=new_omega,
            ))
        else:
            out.append(r)
    return out


def test_no_look_ahead_poisoning():
    recs = small_market(seed=17)
    chosen = cross_validate(recs, SMALL_PLAN)
    day = SMALL_PLAN.warm_start_days + 7
    baseline = offers_for_day(recs, SMALL_PLAN, chosen, day)
    # nothing settled on day-1 or later (beyond the day's own forecast and the
    # oracle's realization) may influence the gate-closure offers
    poisoned = _poison(recs, first_day=day - 1, keep_omega_day=day)
    assert offers_for_day(poisoned, SMALL_PLAN, chosen, day) == baseline
    # sanity: the same perturbation inside the estimation window does move offers
    tainted = _poison(recs, first_day=day - 3, keep_omega_day=day)
    moved = offers_for_day(tainted, SMALL_PLAN, chosen, day)
    assert moved["bn"] != baseline["bn"]


def test_offers_for_day_rejects_days_it_cannot_price():
    recs = small_market(days=40, seed=17)
    chosen = cross_validate(recs, SMALL_PLAN)
    for day in (0, 41, 500):
        with pytest.raises(ValueError, match=rf"no market records for day {day}$"):
            offers_for_day(recs, SMALL_PLAN, chosen, day)
    plan = replace(SMALL_PLAN, cv_mode=CvMode.SLIDING)
    sliding = cross_validate(recs, plan)
    with pytest.raises(ValueError, match=r"no parameters chosen for day 25$"):
        offers_for_day(recs, plan, sliding, 25)


def _flip_outcome(rec):
    """The record with its penalty direction reversed: overage becomes underage."""
    return replace(rec, pi_b=2.0 * rec.pi_s - rec.pi_b, s_l=-rec.s_l)


def test_gate_closures_follow_records_changed_in_place():
    recs = small_market(seed=17)
    chosen = cross_validate(recs, SMALL_PLAN)
    day = SMALL_PLAN.warm_start_days + 7
    before = offers_for_day(recs, SMALL_PLAN, chosen, day)
    # one settled outcome inside the tau window, replaced in the same list
    k = next(i for i, r in enumerate(recs)
             if (r.timestamp.date() - recs[0].timestamp.date()).days + 1 == day - 3
             and penalty_direction(r) is not None)
    recs[k] = _flip_outcome(recs[k])
    after = offers_for_day(recs, SMALL_PLAN, chosen, day)
    fresh = [replace(r) for r in recs]
    assert after == offers_for_day(fresh, SMALL_PLAN, chosen, day)
    assert after["bn"][recs[k].timestamp.hour] != before["bn"][recs[k].timestamp.hour]
    # a new list or a tuple holding the same records reuses the frame
    frame = backtest._frame_for(recs)
    assert offers_for_day(list(recs), SMALL_PLAN, chosen, day) == after
    assert offers_for_day(tuple(recs), SMALL_PLAN, chosen, day) == after
    assert backtest._frame_for(tuple(recs)) is frame
    # a value-equal copy of one record is a new record: records compare by identity
    copied = list(recs)
    copied[k] = replace(recs[k])
    assert backtest._frame_for(copied) is not frame

    # the same for cross-validation, after a larger change in place
    plan = replace(SMALL_PLAN, cv_mode=CvMode.SLIDING)
    old = cross_validate(recs, plan)
    recs[:] = [_flip_outcome(r) for r in recs]
    new = cross_validate(recs, plan)
    assert new == cross_validate([replace(r) for r in recs], plan)
    assert new != old


def test_gate_closures_follow_a_timestamp_moved_to_another_utc_offset():
    # the same instant in another offset compares equal, but falls in another local hour
    recs = [replace(r, timestamp=r.timestamp.replace(tzinfo=timezone.utc))
            for r in small_market(seed=17)]
    chosen = cross_validate(recs, SMALL_PLAN)
    day = SMALL_PLAN.warm_start_days + 7
    before = offers_for_day(recs, SMALL_PLAN, chosen, day)
    original = list(recs)
    k = (day - 1) * 24 + 10
    moved = recs[k].timestamp.astimezone(timezone(timedelta(hours=1)))
    assert moved == recs[k].timestamp and moved.hour == 11
    recs[k] = replace(recs[k], timestamp=moved)
    # hour 11 would now hold two records: the edited list is not read through the held frame
    for edited in (recs, [replace(r) for r in recs]):
        with pytest.raises(ValueError, match=re.escape(
                f"{recs[k + 1].timestamp.isoformat()} does not advance the local hour of "
                f"{moved.isoformat()}; periods are keyed by local date and hour")):
            offers_for_day(edited, SMALL_PLAN, chosen, day)
    assert offers_for_day(original, SMALL_PLAN, chosen, day) == before


@settings(max_examples=80)
@given(st.data())
def test_a_record_must_advance_the_local_hour(data):
    # strictly increasing instants, all naive, each in a UTC offset of its
    # own, or a mix of the two (a naive stamp is read as UTC wall time)
    steps = data.draw(st.lists(st.integers(1, 150), max_size=6))
    instants = [datetime(2020, 3, 1, 1) + timedelta(minutes=sum(steps[:i]))
                for i in range(len(steps) + 1)]
    offset = data.draw(st.sampled_from([st.none(), st.integers(-3, 3),
                                        st.none() | st.integers(-3, 3)]))
    offsets = data.draw(st.lists(offset, min_size=len(instants), max_size=len(instants)))
    stamps = [t if h is None else
              t.replace(tzinfo=timezone.utc).astimezone(timezone(timedelta(hours=h)))
              for t, h in zip(instants, offsets)]
    forecast = PiecewiseLinear([0.5], [0.3])
    records = [MarketRecord(ts, 50.0, 40.0, 1.0, 0.5, forecast) for ts in stamps]
    plan = BacktestPlan(strategies=("oracle",))
    chosen = ChosenParameters(mode=CvMode.FIXED_WINDOW, static={"oracle": {}})
    for prev, cur in zip(stamps, stamps[1:]):
        if (prev.tzinfo is None) != (cur.tzinfo is None):
            # a mixed pair names both stamps
            with pytest.raises(ValueError, match=re.escape(cur.isoformat()) +
                               " mixes naive and timezone-aware timestamps with " +
                               re.escape(prev.isoformat())):
                offers_for_day(records, plan, chosen, 1)
            return
        if (cur.date(), cur.hour) <= (prev.date(), prev.hour):
            with pytest.raises(ValueError, match=re.escape(
                    f"{cur.isoformat()} does not advance the local hour of {prev.isoformat()}; "
                    f"periods are keyed by local date and hour")):
                offers_for_day(records, plan, chosen, 1)
            return
    offers_for_day(records, plan, chosen, 1)
    assert backtest._frame_for(records).timestamps == tuple(stamps)


_BERLIN = ZoneInfo("Europe/Berlin")
_ZONE_SETS = {
    "naive": [None],
    "one zone": [_BERLIN],
    "one offset": [timezone(timedelta(hours=-5))],
    "offset jumps": [timezone.utc, timezone(timedelta(hours=1)), timezone(timedelta(hours=2))],
    "mixed": [None, timezone.utc, timezone(timedelta(hours=2)), _BERLIN],
}


def _instant(ts):
    """A naive stamp's wall time, or an aware stamp's UTC time (its offset reads ``fold``)."""
    return ts if ts.tzinfo is None else ts.replace(tzinfo=None) - ts.utcoffset()


def _order_problem(prev, cur):
    """The order rule written out: what keeps ``cur`` from following ``prev``, or None.

    Stamps are ordered by :func:`_instant`, and a period is keyed by its
    local date and hour.
    """
    if (prev.tzinfo is None) != (cur.tzinfo is None):
        return f"mixes naive and timezone-aware timestamps with {prev.isoformat()}"
    if _instant(cur) <= _instant(prev):
        return f"follows {prev.isoformat()}; timestamps must be strictly increasing"
    if (cur.date(), cur.hour) <= (prev.date(), prev.hour):
        return (f"does not advance the local hour of {prev.isoformat()}; "
                f"periods are keyed by local date and hour")
    return None


@settings(max_examples=300)
@given(st.data())
def test_frame_order_check_matches_the_pairwise_rule(data):
    # wall times across a daylight-saving change, where a Berlin stamp with
    # fold=1 repeats (autumn) or skips (spring) an hour
    start = data.draw(st.sampled_from([datetime(2021, 10, 31, 0), datetime(2021, 3, 28, 0)]))
    steps = data.draw(st.lists(st.sampled_from([60, 60, 60, 0, -60, 30, 90, 1440]), max_size=8))
    zones = _ZONE_SETS[data.draw(st.sampled_from(sorted(_ZONE_SETS)))]
    stamps = [(start + timedelta(minutes=sum(steps[:i]))).replace(
                  tzinfo=data.draw(st.sampled_from(zones)), fold=data.draw(st.integers(0, 1)))
              for i in range(len(steps) + 1)]
    forecast = PiecewiseLinear([0.5], [0.3])
    records = [MarketRecord(ts, 50.0, 40.0, 1.0, 0.5, forecast) for ts in stamps]
    problems = [f"{cur.isoformat()} {problem}" for cur, problem
                in zip(stamps[1:], map(_order_problem, stamps, stamps[1:])) if problem]
    if problems:
        with pytest.raises(ValueError) as exc:
            backtest._MarketFrame(records)
        assert str(exc.value) == problems[0]
    else:
        assert backtest._MarketFrame(records).timestamps == tuple(stamps)


@pytest.mark.parametrize("stamps, words", [
    (("2020-01-01T01:00:00", "2020-01-01T00:00:00"), "strictly increasing"),
    (("2020-01-01T00:00:00", "2020-01-01T01:00:00+00:00"), "naive and timezone-aware"),
    (("2021-10-31T02:00:00+02:00", "2021-10-31T02:00:00+01:00"), "does not advance the local hour"),
])
def test_loader_and_frame_apply_one_order_rule(tmp_path, stamps, words):
    market, fdir = _write_fixture(tmp_path, [(ts, 50.0, 40.0, 1.0, 0.5) for ts in stamps])
    with pytest.raises(ValueError, match=re.escape(f"m.csv:3: column 'timestamp': {stamps[1]!r} ")
                       ) as loaded:
        load_market_data(market, fdir)
    forecast = PiecewiseLinear([0.25, 0.5, 0.75], [0.2, 0.4, 0.6])
    records = [MarketRecord(datetime.fromisoformat(ts), 50.0, 40.0, 1.0, 0.5, forecast)
               for ts in stamps]
    plan = BacktestPlan(strategies=("oracle",))
    chosen = ChosenParameters(mode=CvMode.FIXED_WINDOW, static={"oracle": {}})
    with pytest.raises(ValueError) as api:
        offers_for_day(records, plan, chosen, 1)
    # the API names the stamp where the loader names the row; the rest is one text
    problem = str(api.value).removeprefix(stamps[1])
    assert problem != str(api.value) and words in problem
    assert str(loaded.value).endswith(problem)


@pytest.mark.parametrize("wall, problem", [
    # the fall-back hour, 02:00 at +02:00 then at +01:00: one hour later in time
    (((2, 0, 0), (2, 0, 1)),
     "does not advance the local hour of 2018-10-28T02:00:00+02:00; "
     "periods are keyed by local date and hour"),
    # 02:30 at +01:00, then 02:45 at +02:00: later in wall time, earlier in time
    (((2, 30, 1), (2, 45, 0)),
     "follows 2018-10-28T02:30:00+01:00; timestamps must be strictly increasing"),
], ids=["fall_back_hour", "later_wall_time_earlier_instant"])
def test_stamps_sharing_one_zone_follow_by_instant(tmp_path, wall, problem):
    # both stamps hold one ZoneInfo object, which makes Python compare them by
    # wall time; the rule compares them as the instants the loader's offsets give
    stamps = [datetime(2018, 10, 28, h, m, tzinfo=_BERLIN, fold=fold) for h, m, fold in wall]
    forecast = PiecewiseLinear([0.5], [0.3])
    records = [MarketRecord(ts, 50.0, 40.0, 1.0, 0.5, forecast) for ts in stamps]
    plan = BacktestPlan(strategies=("oracle",))
    chosen = ChosenParameters(mode=CvMode.FIXED_WINDOW, static={"oracle": {}})
    with pytest.raises(ValueError) as api:
        offers_for_day(records, plan, chosen, 1)
    assert str(api.value) == f"{stamps[1].isoformat()} {problem}"
    if stamps[1].minute == 0:
        # the loader reads the same stamps as text, at fixed offsets
        market, fdir = _write_fixture(tmp_path, [(ts.isoformat(), 50.0, 40.0, 1.0, 0.5)
                                                 for ts in stamps])
        with pytest.raises(ValueError, match=re.escape(
                f"m.csv:3: column 'timestamp': {stamps[1].isoformat()!r} {problem}")):
            load_market_data(market, fdir)


def test_gate_closures_estimate_tau_once_per_m_and_price_a_block_in_one_call():
    recs = small_market(seed=29)
    chosen = ChosenParameters(mode=CvMode.FIXED_WINDOW, static={
        "oracle": {}, "bn": {"m": 5}, "dr_omega": {"m": 8, "rho": 0.1},
        "dr_s_uniform": {"m": 5, "epsilon": 0.1},
        "dr_s_level_adjusted": {"m": 8, "epsilon": 0.1, "theta": 0.9}, "robust_s": {}})
    days = list(islice(cycle(range(SMALL_PLAN.warm_start_days + 1, 46)), 100))
    with mock.patch.object(HourlyTauEstimator, "window_means", autospec=True,
                           side_effect=HourlyTauEstimator.window_means) as window_means:
        for day in days:
            offers_for_day(recs, SMALL_PLAN, chosen, day)
    # tau is estimated once per window length, over the whole frame
    assert sorted(call.args[3] for call in window_means.call_args_list) == [5, 8]
    # one quantile call per gate closure: bn's tau row, both DR-S ball bounds,
    # both DR-omega bands; the whole plan's rows are one (7, 24) level matrix
    for strategies, shape in [(("bn",), (1, 24)), (("dr_omega",), (2, 24)),
                              (("dr_s_uniform",), (2, 24)), (("dr_s_level_adjusted",), (2, 24)),
                              (SMALL_PLAN.strategies, (7, 24))]:
        plan = replace(SMALL_PLAN, strategies=strategies)
        with mock.patch.object(PiecewiseLinearBatch, "quantile", autospec=True,
                               side_effect=PiecewiseLinearBatch.quantile) as quantile:
            offers_for_day(recs, plan, chosen, days[-1])
        assert quantile.call_count == 1, strategies
        assert np.shape(quantile.call_args.args[1]) == shape, strategies


def test_frame_stores_a_shared_forecast_once():
    # every hour of the default synthetic market holds the same forecast object
    recs = make_synthetic_market()
    plan = BacktestPlan(m_grid=(10,))
    chosen = cross_validate(recs, plan)
    frame = backtest._frame_for(recs)
    assert frame.forecast._xs.shape == (1, 22)
    periods = frame.periods(plan.warm_start_days + 1, frame.n_days)
    matrix = periods.size * frame.forecast._xs.shape[1] * 8  # one periods x knots float matrix
    # the span run_backtest settles, and each strategy's revenues, allocate less than one
    tracemalloc.start()
    try:
        span = backtest._Span(frame, plan, periods)
        peaks = [tracemalloc.get_traced_memory()[1]]
        for strategy in plan.strategies:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            span.revenues(strategy, [chosen.params_for(strategy, frame.n_days, plan)])
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert span.forecast._xs.shape == (1, 22) and len(span) == 14_400
    assert max(peaks) < matrix


def test_gate_closure_frame_is_let_go_with_its_records():
    def price_one_day():
        recs = small_market(seed=17)
        chosen = cross_validate(recs, SMALL_PLAN)
        offers_for_day(recs, SMALL_PLAN, chosen, SMALL_PLAN.warm_start_days + 1)
        assert backtest._FRAMES

    price_one_day()
    assert not backtest._FRAMES


def test_frame_cache_holds_one_slot():
    a, b = small_market(days=10, seed=17), small_market(days=10, seed=18)
    first = weakref.ref(backtest._frame_for(a))
    second = backtest._frame_for(b)
    gc.collect()
    # a's records are alive, but storing b's frame let a's go
    assert first() is None
    assert backtest._frame_for(tuple(b)) is second


# ---------- penalty scaling ----------


def test_scale_penalties_identity_and_doubling():
    recs = small_market(days=3)
    same = scale_penalties(recs, 1.0)
    assert all(a.pi_b == b.pi_b for a, b in zip(recs, same))
    doubled = scale_penalties(recs, 2.0)
    for a, b in zip(recs, doubled):
        for pa, pb in zip(penalty_pair(a), penalty_pair(b)):
            assert pb == pytest.approx(2 * pa, rel=1e-12, abs=1e-12)
    for factor in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"must be positive and finite, got {factor}"):
            scale_penalties(recs, factor)


def test_scaling_penalties_raises_dr_advantage():
    recs = make_synthetic_market(n_days=200, master_seed=3)
    plan = replace(SMALL_PLAN, strategies=("oracle", "bn", "dr_s_uniform"))
    finals = {}
    for factor in (1.0, 3.0):
        scaled = scale_penalties(recs, factor)
        chosen = cross_validate(scaled, plan)
        report = run_backtest(scaled, plan, chosen)
        finals[factor] = report.rows["dr_s_uniform"].cum_delta_regret[-1]
    assert finals[1.0] > 0.0
    assert finals[3.0] > finals[1.0]


# ---------- sliding cross-validation ----------


def test_sliding_mode_reselects_daily():
    recs = small_market(days=38)
    plan = replace(SMALL_PLAN, cv_mode=CvMode.SLIDING,
                   strategies=("bn", "dr_s_uniform"))
    chosen = cross_validate(recs, plan)
    eval_days = range(plan.warm_start_days + 1, 39)
    assert set(chosen.per_day) == set(eval_days)
    report = run_backtest(recs, plan, chosen)
    assert len(report.timestamps) == 8 * 24


def test_sliding_backtest_settles_each_day_at_its_own_parameters():
    # parameter sets repeat and alternate across days, one written in another key order
    recs = small_market(days=38, seed=31)
    plan = replace(SMALL_PLAN, cv_mode=CvMode.SLIDING)
    first = {"oracle": {}, "bn": {"m": 8}, "dr_omega": {"m": 8, "rho": 0.1},
             "dr_s_uniform": {"m": 8, "epsilon": 0.1},
             "dr_s_level_adjusted": {"m": 8, "epsilon": 0.1, "theta": 0.9}, "robust_s": {}}
    second = {"oracle": {}, "bn": {"m": 5}, "dr_omega": {"rho": 0.3, "m": 8},
              "dr_s_uniform": {"epsilon": 0.05, "m": 12},
              "dr_s_level_adjusted": {"theta": 0.5, "m": 5, "epsilon": 0.2}, "robust_s": {}}
    reordered = {name: dict(reversed(params.items())) for name, params in first.items()}
    days = range(plan.warm_start_days + 1, 39)
    chosen = ChosenParameters(mode=CvMode.SLIDING, per_day=dict(zip(days, (
        first, second, reordered, second, first, reordered, second, first))))
    report = run_backtest(recs, plan, chosen)
    first_date = recs[0].timestamp.date()
    for day in days:
        on_day = [r for r in recs if (r.timestamp.date() - first_date).days + 1 == day]
        at = np.isin(report.timestamps, [r.timestamp for r in on_day])

        def column(name):
            return np.array([getattr(r, name) for r in on_day])

        for strategy, by_hour in offers_for_day(recs, plan, chosen, day).items():
            y = np.array([by_hour[r.timestamp.hour] for r in on_day])
            expect = revenue(column("pi_s"), column("pi_b"), column("s_l"), y, column("omega_star"))
            assert report.revenues[strategy][at].tolist() == expect.tolist(), (strategy, day)
    # a parameter the strategy does not read is named, not grouped on
    extra = {**second, "bn": {"m": 5, "zzz": [1]}}
    with pytest.raises(ValueError, match=r"strategy 'bn' does not read parameter 'zzz' on day 32"):
        run_backtest(recs, plan, replace(chosen, per_day={**chosen.per_day, 32: extra}))


def test_sliding_selection_respects_gate_closure():
    # a day's re-selected parameters may not depend on outcomes from day-1 on
    recs = small_market(days=38, seed=23)
    plan = replace(SMALL_PLAN, cv_mode=CvMode.SLIDING,
                   strategies=("bn", "dr_s_uniform"))
    day = 35
    baseline = cross_validate(recs, plan).per_day[day]
    poisoned = _poison(recs, first_day=day - 1, keep_omega_day=day)
    assert cross_validate(poisoned, plan).per_day[day] == baseline


def test_chosen_parameters_json_round_trip():
    recs = small_market(days=34)
    fixed = cross_validate(recs, SMALL_PLAN)
    assert ChosenParameters.from_json_dict(fixed.to_json_dict()).static == fixed.static
    plan = replace(SMALL_PLAN, cv_mode=CvMode.SLIDING, strategies=("bn",))
    sliding = cross_validate(recs, plan)
    back = ChosenParameters.from_json_dict(sliding.to_json_dict())
    assert back.per_day == sliding.per_day


@pytest.mark.parametrize("kwargs, message", [
    ({"mode": CvMode.FIXED_WINDOW, "static": None},
     "chosen parameters: mode 'fixed_window' needs an object under key 'static'"),
    ({"mode": CvMode.SLIDING, "per_day": None},
     "chosen parameters: mode 'sliding' needs an object under key 'per_day'"),
    ({"mode": CvMode.SLIDING, "per_day": {31: 5}},
     "chosen parameters: day 31 must map to an object of strategies, got 5"),
    ({"mode": "sliding", "per_day": {}}, "chosen parameters: mode must be a CvMode, got 'sliding'"),
])
def test_a_selection_built_in_code_rejects_a_table_that_is_not_an_object(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ChosenParameters(**kwargs)


@pytest.mark.parametrize("data, other", [
    ({"mode": "fixed_window", "static": {"oracle": {}}, "per_day": {"5": {"bogus": 1}}},
     "per_day"),
    ({"mode": "sliding", "per_day": {"132": {"oracle": {}}}, "static": {"bn": {"m": "x"}}},
     "static"),
], ids=["fixed_window", "sliding"])
def test_a_selection_refuses_the_table_its_mode_does_not_read(data, other):
    message = f"chosen parameters: mode {data['mode']!r} reads no key {other!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ChosenParameters.from_json_dict(data)
    built = {"mode": CvMode(data["mode"]), "static": {"oracle": {}}, "per_day": {5: {"bogus": 1}}}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ChosenParameters(**built)
    # the keys crossval writes beside the table are read past
    read = {k: v for k, v in data.items() if k != other}
    chosen = ChosenParameters.from_json_dict({"command": "crossval", "seed": 0, **read})
    assert chosen.to_json_dict() == read
    with pytest.raises(ValueError, match="reads no key 'note'$"):
        ChosenParameters.from_json_dict({**read, "note": "hand-edited"})


def test_a_selection_checks_its_values_when_built_and_its_windows_where_priced():
    static = {"oracle": {}, "bn": {"m": 8}, "dr_omega": {"m": 8, "rho": 0.1},
              "dr_s_uniform": {"m": 8, "epsilon": 0.1},
              "dr_s_level_adjusted": {"m": 8, "epsilon": 0.1, "theta": 0.9}, "robust_s": {}}
    # a day that is never priced is checked too, after every name of every day
    bad_rho = {**static, "dr_omega": {"m": 8, "rho": 1.5}}
    with pytest.raises(ValueError, match=re.escape(
            "chosen parameters: strategy 'dr_omega' parameter 'rho' must lie in [0, 1], "
            "got 1.5 on day 999")):
        ChosenParameters(mode=CvMode.SLIDING, per_day={31: static, 999: bad_rho})
    with pytest.raises(ValueError, match="does not read parameter 'zzz' on day 32"):
        ChosenParameters(mode=CvMode.SLIDING, per_day={
            31: bad_rho, 32: {**static, "bn": {"m": 8, "zzz": 1}}})
    # m is checked against the plan's tau window where a day is priced
    for m in (500, 0, 2.5):
        chosen = ChosenParameters(mode=CvMode.FIXED_WINDOW, static={**static, "bn": {"m": m}})
        with pytest.raises(ValueError, match=re.escape(
                f"chosen parameters: strategy 'bn' parameter 'm' must be an integer from 1 to 19, "
                f"got {m!r}")):
            chosen.params_for("bn", 31, SMALL_PLAN)


_STATIC = {"oracle": {}, "bn": {"m": 8}, "dr_s_uniform": {"m": 8, "epsilon": 0.1}}


@pytest.mark.parametrize("build, message", [
    (lambda eps: BacktestPlan(strategies=("dr_s_uniform",), epsilon_grid=(0.1, eps)),
     "epsilon_grid: inf must be finite, as strategy 'dr_s_uniform' needs"),
    (lambda eps: ChosenParameters(mode=CvMode.FIXED_WINDOW, static={
        **_STATIC, "dr_s_uniform": {"m": 8, "epsilon": eps}}),
     "chosen parameters: strategy 'dr_s_uniform' parameter 'epsilon' must be finite, got inf"),
    (lambda eps: ChosenParameters(mode=CvMode.SLIDING, per_day={
        31: _STATIC, 32: {**_STATIC, "dr_s_uniform": {"m": 8, "epsilon": eps}}}),
     "chosen parameters: strategy 'dr_s_uniform' parameter 'epsilon' must be finite, "
     "got inf on day 32"),
], ids=["plan-grid", "fixed-selection", "sliding-selection"])
def test_an_infinite_uniform_radius_is_rejected_by_plans_and_selections(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(float("inf"))
    # an integer past the float range would overflow where the ball is built
    with pytest.raises(ValueError, match=re.escape(message.replace("inf", str(10**400), 1))):
        build(10**400)
    # a negative infinity keeps its message, and a finite radius of any size passes
    with pytest.raises(ValueError, match="-inf must be non-negative|non-negative, got -inf"):
        build(float("-inf"))
    build(1e300)


# ---------- report artifacts ----------


def test_report_exports(tmp_path):
    recs = small_market(seed=19)
    chosen = cross_validate(recs, SMALL_PLAN)
    report = run_backtest(recs, SMALL_PLAN, chosen)
    write_market_csv(recs, tmp_path / "m.csv")
    write_forecast_dir(recs, tmp_path / "fc")
    argv = ["backtest", "--market", str(tmp_path / "m.csv"), "--forecasts", str(tmp_path / "fc"),
            "--warm-start-days", "30", "--tau-window-days", "20", "--cv-days", "10",
            "--m-grid", "8", "--eps-grid", "0,0.05,0.1,0.2", "--theta-grid", "0.9",
            "--rho-grid", "0,0.1,0.3"]
    assert dispatch([*argv, "--out", str(tmp_path / "r.json")]) == 0
    summary = json.loads((tmp_path / "r.json").read_text())
    assert set(summary["strategies"]) == set(SMALL_PLAN.strategies)
    assert summary["n_periods"] == len(report.timestamps)
    assert "reference_note" in summary
    assert summary["chosen_parameters"] == chosen.to_json_dict()
    assert summary["strategies"]["bn"]["regret_per_mwh"] == report.rows["bn"].regret_per_mwh
    assert dispatch([*argv, "--out", str(tmp_path / "r.csv"), "--output", "csv"]) == 0
    header, *rows = csv.reader((tmp_path / "r.csv").open())
    assert header == ["timestamp", "strategy", "revenue", "regret", "cum_delta_regret"]
    assert len(rows) == len(report.timestamps) * len(SMALL_PLAN.strategies)
    ts, name, rev, regret, cum = rows[0]
    assert datetime.fromisoformat(ts) == report.timestamps[0]
    assert name == sorted(SMALL_PLAN.strategies)[0]
    assert float(rev) == report.revenues[name][0]
    assert float(regret) == report.oracle_revenues[0] - report.revenues[name][0]
    assert float(cum) == report.rows[name].cum_delta_regret[0]


def test_market_record_validation():
    fc = PiecewiseLinear(standard_forecast_levels(), Beta(2, 6).quantile(standard_forecast_levels()))
    with pytest.raises(ValueError, match="omega_star"):
        MarketRecord(datetime(2020, 1, 1), 50.0, 40.0, 1.0, 1.4, fc)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["pi_s", "pi_b", "s_l"])
def test_market_record_rejects_a_non_finite_price_naming_it(field, value):
    # the loader rejects such a cell first; records built in memory are held to the same rule
    fc = PiecewiseLinear([0.5], [0.4])
    prices = {"pi_s": 50.0, "pi_b": 40.0, "s_l": 1.0, field: value}
    with pytest.raises(ValueError, match=re.escape(f"2020-01-01T05:00:00: {field} must be "
                                                   f"finite, got {value}")):
        MarketRecord(datetime(2020, 1, 1, 5), omega_star=0.5, forecast=fc, **prices)


def _fields(record):
    return (record.timestamp, record.pi_s, record.pi_b, record.s_l, record.omega_star,
            _forecast_text(record.forecast))


def test_market_record_is_slotted_and_weakly_referable():
    record = small_market(days=1)[0]
    assert not hasattr(record, "__dict__")
    assert weakref.ref(record)() is record
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert twin is not record and _fields(twin) == _fields(record)
    # replace builds a new record through __post_init__, so its checks still run
    with pytest.raises(ValueError, match="omega_star must lie in"):
        replace(record, omega_star=1.5)


def test_scale_penalties_rejects_a_factor_that_overflows_a_price():
    records = make_synthetic_market(n_days=1, master_seed=0)
    assert any(abs(r.pi_b - r.pi_s) > 2.0 for r in records)
    with pytest.raises(ValueError, match=r"T\d\d:00:00: pi_b must be finite, got -?inf"):
        scale_penalties(records, 1e308)
