"""The chance-of-success estimator: hourly moving averages of penalty outcomes."""

import re
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drnewsvendor import HourlyTauEstimator, RngStream
from drnewsvendor.estimation import fill_empty_windows

# one period's penalties; at most one is nonzero
Pair = namedtuple("Pair", "overage underage")
OVER = Pair(5.0, 0.0)
UNDER = Pair(0.0, 5.0)
NONE_PAIR = Pair(0.0, 0.0)


def estimator(history):
    """The estimator over ``(day, hour, Pair)`` rows, passed as aligned columns."""
    days, hours, pairs = zip(*history) if history else ((), (), ())
    return HourlyTauEstimator(days, hours, [p.overage for p in pairs],
                              [p.underage for p in pairs])


def forecast(history, window_days, target, fallback_tau=None):
    """Tau at a ``(day, hour)`` target from the same-hour history."""
    day, hour = target
    return estimator(history).forecast(day, hour, window_days, fallback_tau=fallback_tau)


def test_hourly_constant_overage():
    history = [(d, 10, OVER) for d in range(1, 61)]
    assert forecast(history, 30, (61, 10)) == 1.0


def test_hourly_alternating_days():
    history = [(d, 5, OVER if d % 2 else UNDER) for d in range(1, 41)]
    assert forecast(history, 40, (41, 5)) == 0.5


def test_hourly_counting_oracle_63_of_90():
    # 63 overage days and 27 underage days inside the 90-day window
    history = [(d, 7, OVER if d <= 63 else UNDER) for d in range(1, 91)]
    assert forecast(history, 90, (91, 7)) == pytest.approx(0.7)


def test_window_bounds_are_exact():
    # day 1 outcome must fall outside a 3-day window targeting day 5
    history = [(1, 0, OVER), (2, 0, UNDER), (3, 0, UNDER), (4, 0, UNDER)]
    assert forecast(history, 3, (5, 0)) == 0.0
    assert forecast(history, 4, (5, 0)) == 0.25
    # the target day itself never enters
    history.append((5, 0, OVER))
    assert forecast(history, 4, (5, 0)) == 0.25


def test_no_balancing_periods_are_excluded():
    history = [(1, 3, OVER), (2, 3, NONE_PAIR), (3, 3, NONE_PAIR), (4, 3, UNDER)]
    assert forecast(history, 4, (5, 3)) == 0.5


@pytest.mark.parametrize("bad", [7.0, -0.5, float("nan")])
def test_forecast_rejects_a_fallback_outside_the_unit_interval(bad):
    est = HourlyTauEstimator([1, 2], [0, 0], [1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError, match=re.escape(f"fallback tau must lie in [0, 1], got {bad}")):
        est.forecast(1, 5, 3, fallback_tau=bad)
    with pytest.raises(ValueError, match="fallback tau"):
        est.forecast(3, 0, 2, bad)  # a window with outcomes needs no fallback, yet it is checked


def test_empty_window_error_and_fallback():
    history = [(1, 3, NONE_PAIR), (2, 3, NONE_PAIR)]
    with pytest.raises(ValueError, match="fallback"):
        forecast(history, 2, (3, 3))
    assert forecast(history, 2, (3, 3), fallback_tau=0.5) == 0.5
    with pytest.raises(ValueError):
        forecast([], 5, (3, 7))


def test_shift_invariance_across_hours():
    base = [(d, 8, OVER if d % 3 else UNDER) for d in range(1, 31)]
    before = forecast(base, 30, (31, 8))
    noisy = base + [(d, 9, UNDER) for d in range(1, 31)] + [(d, 7, OVER) for d in range(1, 31)]
    assert forecast(noisy, 30, (31, 8)) == before


def test_consistency_on_stationary_data():
    tau = 0.6
    m = 10_000
    draws = RngStream(42, 0).generator.random(m) < tau
    history = [(d + 1, 0, OVER if s else UNDER) for d, s in enumerate(draws)]
    est = forecast(history, m, (m + 1, 0))
    assert abs(est - tau) <= 0.02


def test_duplicate_day_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        estimator([(1, 2, OVER), (1, 2, UNDER)])


def test_misaligned_columns_rejected():
    with pytest.raises(ValueError, match="aligned"):
        HourlyTauEstimator([1, 2], [0], [5.0, 0.0], [0.0, 5.0])


def test_empty_window_rejected():
    with pytest.raises(ValueError, match="^window must cover at least one day, got 0$"):
        estimator([(1, 2, OVER)]).window_means([3], [2], 0)


# ---------- the index against a plain window mean ----------


@st.composite
def windowed_histories(draw):
    """Shuffled history with missing cells and unpenalized periods, plus targets.

    Targets reach windows that end before day 1 and start after the last
    day, and an hour with no history at all.
    """
    n_days = draw(st.integers(1, 12))
    hours = draw(st.lists(st.integers(0, 23), max_size=4, unique=True))
    history = []
    for day in range(1, n_days + 1):
        for hour in hours:
            kind = draw(st.sampled_from(("over", "under", "none", "missing")))
            size = float(draw(st.integers(1, 60))) / 4.0
            if kind == "over":
                history.append((day, hour, Pair(size, 0.0)))
            elif kind == "under":
                history.append((day, hour, Pair(0.0, size)))
            elif kind == "none":
                history.append((day, hour, NONE_PAIR))
    history = draw(st.permutations(history))
    # hour 24 never has history
    targets = draw(st.lists(st.tuples(st.integers(-3, n_days + 6), st.sampled_from(hours + [24])),
                            min_size=1, max_size=8))
    window = draw(st.integers(1, n_days + 3))
    fallback = draw(st.one_of(st.none(), st.sampled_from((0.0, 0.25, 1.0))))
    return history, targets, window, fallback


def reference_window(history, day, hour, window):
    """Penalized periods at ``hour`` on days ``day - window`` to ``day - 1``."""
    return [pair for d, h, pair in history
            if h == hour and day - window <= d <= day - 1 and (pair.overage or pair.underage)]


@settings(max_examples=300)
@given(windowed_histories())
def test_index_matches_plain_window_mean(case):
    history, targets, window, fallback = case
    est = estimator(history)
    expected = []
    for day, hour in targets:
        pairs = reference_window(history, day, hour, window)
        tau = sum(1.0 if p.overage > 0.0 else 0.0 for p in pairs) / len(pairs) if pairs else None
        expected.append(tau)
        if pairs:
            assert est.forecast(day, hour, window, fallback) == tau
        else:
            assert np.isnan(est.window_means([day], [hour], window)[0])
            assert est.forecast(day, hour, window, 0.5) == 0.5
    # all targets at once, as the backtest reads them: window means, then the fallback
    days, hours = (np.array(col) for col in zip(*targets))
    means = est.window_means(days, hours, window)
    first_missing = next((t for t, tau in zip(targets, expected) if tau is None), None)
    if first_missing is not None and fallback is None:
        day, hour = first_missing
        with pytest.raises(ValueError,
                           match=rf"^no usable outcomes for hour {hour} in the {window} days "
                                 rf"before day {day};"):
            fill_empty_windows(means, days, hours, window, None)
        return
    got = fill_empty_windows(means, days, hours, window, fallback)
    assert got.tobytes() == np.array([fallback if tau is None else tau
                                      for tau in expected]).tobytes()


def test_duplicate_day_names_the_lowest_hour():
    history = [(4, 9, OVER), (4, 9, UNDER), (2, 3, OVER), (2, 3, NONE_PAIR), (2, 3, UNDER)]
    with pytest.raises(ValueError, match=r"^duplicate day for hour 3$"):
        estimator(history)
