"""Backtesting offer strategies over hourly market data.

The protocol splits the data into a warm start (a chance-of-success
estimation window followed by a cross-validation window) and an
out-of-sample evaluation span. Cross-validation picks each strategy's
parameters by total revenue on its window; evaluation settles every hour
and aggregates per-MWh revenue, regret against the perfect-generation
oracle, the advantage ratio against the plain newsvendor, and the
cumulative regret difference over time.

Gate-closure model: offers for all 24 hours of day D are fixed on day
D-1 using the day-D forecast (issued before gate closure) and penalty
outcomes settled through day D-2 (one-day settlement lag).

Offers and settlements are array code. A market's forecasts are stacked
once, one knot row per distinct forecast object; any list of (strategy,
parameters) rows is priced in one pass, a row per (strategy, parameters)
and a column per period: a gate closure's strategies, or one strategy's
grid in cross-validation, where each selection window sums its columns
of every row in period order.
"""

from __future__ import annotations

import csv
import math
import numbers
import sys
import warnings
import weakref
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import InitVar, dataclass, replace
from datetime import datetime, timezone
from enum import Enum
from itertools import islice, product
from operator import attrgetter
from pathlib import Path

import numpy as np

from .ambiguity import _epsilon_problem, _rho_problem, _theta_problem, ball_bounds
from .distributions import (
    PiecewiseLinear,
    PiecewiseLinearBatch,
    _forecast_text,
    _share_knots,
    read_quantile_forecast,
)
from .economics import StrategyRow, _settle, penalty_split, regret_and_ratio
from .estimation import HourlyTauEstimator, _check_fallback, fill_empty_windows
from .solvers import dr_omega_from_quantiles, dr_omega_levels, dr_s_rule

__all__ = [
    "MarketRecord",
    "CvMode",
    "BacktestPlan",
    "ChosenParameters",
    "BacktestReport",
    "STRATEGIES",
    "load_market_data",
    "write_market_csv",
    "write_forecast_dir",
    "cross_validate",
    "run_backtest",
    "offers_for_day",
    "scale_penalties",
    "check_penalty_scale",
]

# the parameters each strategy's offer rule reads, in candidate order; the
# candidates for parameter "x" come from the plan's "x_grid"
_PARAMS = {
    "oracle": (),
    "bn": ("m",),
    "dr_omega": ("m", "rho"),
    "dr_s_uniform": ("m", "epsilon"),
    "dr_s_level_adjusted": ("m", "epsilon", "theta"),
    "robust_s": (),
    "robust_omega": ("m",),
}
STRATEGIES = tuple(_PARAMS)

MARKET_HEADER = ("timestamp", "pi_s", "pi_b", "s_L", "omega_star")
_TS_FORMAT = "%Y-%m-%dT%H"


@dataclass(frozen=True, slots=True, eq=False, weakref_slot=True)
class MarketRecord:
    """One settlement period with its day-ahead quantile forecast.

    Records compare and hash by identity, as their forecasts do.
    """

    timestamp: datetime
    pi_s: float
    pi_b: float
    s_l: float
    omega_star: float
    forecast: PiecewiseLinear

    def __post_init__(self):
        if not isinstance(self.forecast, PiecewiseLinear):
            raise ValueError(f"{self.timestamp.isoformat()}: backtest forecasts must be quantile "
                             f"forecasts (PiecewiseLinear), got {self.forecast!r}")
        if not (0.0 <= self.omega_star <= 1.0):
            raise ValueError(
                f"{self.timestamp.isoformat()}: omega_star must lie in [0, 1], got {self.omega_star}"
            )
        for name in ("pi_s", "pi_b", "s_l"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{self.timestamp.isoformat()}: {name} must be finite, "
                                 f"got {getattr(self, name)}")


def _follow_problem(prev: datetime, cur: datetime) -> str | None:
    """What keeps a period stamped ``cur`` from following one stamped ``prev``, or None."""
    aware = cur.utcoffset() is not None
    if (prev.utcoffset() is not None) != aware:
        return f"mixes naive and timezone-aware timestamps with {prev.isoformat()}"
    # aware stamps compare as instants: with one tzinfo, Python ignores fold
    if (cur.astimezone(timezone.utc) <= prev.astimezone(timezone.utc)) if aware else cur <= prev:
        return f"follows {prev.isoformat()}; timestamps must be strictly increasing"
    if (cur.date(), cur.hour) <= (prev.date(), prev.hour):
        # e.g. the repeated hour of a daylight-saving fall-back
        return (f"does not advance the local hour of {prev.isoformat()}; "
                f"periods are keyed by local date and hour")
    return None


def _check_follows(stamps: Sequence[datetime]) -> None:
    """Raise, naming the stamp, at the first one that does not follow the one before it."""
    for cur, problem in zip(stamps[1:], map(_follow_problem, stamps, stamps[1:])):
        if problem:
            raise ValueError(f"{cur.isoformat()} {problem}")


class CvMode(Enum):
    FIXED_WINDOW = "fixed_window"
    SLIDING = "sliding"


# the key of the table a selection in each mode reads
_TABLE_KEY = {CvMode.FIXED_WINDOW: "static", CvMode.SLIDING: "per_day"}


@dataclass(frozen=True)
class BacktestPlan:
    """Protocol splits (the warm start is read back as their sum), parameter grids and roster."""

    warm_start_days: InitVar[int | None] = None
    tau_window_days: int = 91
    cv_days: int = 40
    cv_mode: CvMode = CvMode.FIXED_WINDOW
    m_grid: tuple[int, ...] = (90,)
    rho_grid: tuple[float, ...] = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
    epsilon_grid: tuple[float, ...] = (0.0, 0.025, 0.05, 0.075, 0.1, 0.15, 0.2, 0.25)
    theta_grid: tuple[float, ...] = (0.5, 0.9)
    strategies: tuple[str, ...] = ("oracle", "bn", "dr_omega", "dr_s_uniform",
                                   "dr_s_level_adjusted", "robust_s")
    fallback_tau: float | None = None

    def __post_init__(self, warm_start_days):
        if self.tau_window_days < 2 or self.cv_days < 1:
            raise ValueError(f"the tau window needs at least 2 days and the cross-validation span "
                             f"at least 1, got {self.tau_window_days} and {self.cv_days}")
        object.__setattr__(self, "warm_start_days", self.tau_window_days + self.cv_days)
        if warm_start_days not in (None, self.warm_start_days):
            raise ValueError(
                f"warm start must equal tau window plus cross-validation days: "
                f"{warm_start_days} != {self.tau_window_days} + {self.cv_days}"
            )
        unknown = set(self.strategies) - set(STRATEGIES)
        if unknown:
            raise ValueError(f"unknown strategies: {sorted(unknown)}")
        if not self.strategies:
            raise ValueError("the strategy roster is empty")
        repeated = next((s for i, s in enumerate(self.strategies) if s in self.strategies[:i]), None)
        if repeated is not None:
            raise ValueError(f"strategy {repeated!r} is listed twice")
        _check_fallback(self.fallback_tau)
        for strategy in self.strategies:
            for name in _PARAMS[strategy]:
                grid = getattr(self, f"{name}_grid")
                if not grid:
                    raise ValueError(f"{name}_grid is empty, but strategy {strategy!r} needs it")
                for value in grid:
                    problem = (_m_problem(value, self.tau_window_days - 1) if name == "m"
                               else _value_problem(strategy, name, value))
                    if problem:
                        raise ValueError(f"{name}_grid: {value!r} {problem}, as strategy "
                                         f"{strategy!r} needs")


def _m_problem(value, max_m: int) -> str | None:
    """What keeps ``value`` from being a tau window ``m`` under a plan whose largest is ``max_m``, or None."""
    ok = isinstance(value, numbers.Integral) and not isinstance(value, bool) and 1 <= value <= max_m
    return None if ok else f"must be an integer from 1 to {max_m}"


def _value_problem(strategy: str, name: str, value) -> str | None:
    """What keeps ``value`` from being parameter ``name`` (not ``m``) of ``strategy``, or None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return "must be a number"
    if name == "rho":
        return _rho_problem(value)
    if name == "theta":
        return _theta_problem(value)
    # the library lets a uniform ball take an infinite radius, but an artifact
    # cannot record one (JSON has no infinity), and an integer past the float
    # range cannot be priced; NaN is reported as negative
    return (_epsilon_problem(value, strategy == "dr_s_level_adjusted")
            or (None if value <= sys.float_info.max else "must be finite"))


def _param_grid(strategy: str, plan: BacktestPlan) -> list[dict]:
    """Deterministically ordered candidate parameters; ties favor earlier entries."""
    names = _PARAMS[strategy]
    grids = (getattr(plan, f"{name}_grid") for name in names)
    return [dict(zip(names, values)) for values in product(*grids)]


@dataclass(frozen=True)
class ChosenParameters:
    """Cross-validation outcome: one parameter set per strategy (per day when sliding)."""

    mode: CvMode
    static: Mapping[str, Mapping[str, float]] | None = None
    per_day: Mapping[int, Mapping[str, Mapping[str, float]]] | None = None

    def __post_init__(self):
        if not isinstance(self.mode, CvMode):
            raise ValueError(f"chosen parameters: mode must be a CvMode, got {self.mode!r}")
        key = _TABLE_KEY[self.mode]
        table = getattr(self, key)
        if not isinstance(table, Mapping):
            raise ValueError(f"chosen parameters: mode {self.mode.value!r} needs an object "
                             f"under key {key!r}")
        _check_reads(self.mode, [k for k in _TABLE_KEY.values() if getattr(self, k) is not None])
        if self.mode is CvMode.SLIDING:
            for day, strats in table.items():
                if not isinstance(strats, Mapping):
                    raise ValueError(f"chosen parameters: day {day} must map to an object of "
                                     f"strategies, got {strats!r}")
        # every name first, then every value that needs no plan
        for where, strats in self._tables():
            _strategy_table(strats, where)
        for where, strats in self._tables():
            for strategy, params in strats.items():
                for name in _PARAMS[strategy]:
                    if name != "m":
                        _raise_for(strategy, name, params[name], where,
                                   _value_problem(strategy, name, params[name]))

    def _tables(self) -> list[tuple[str, Mapping[str, Mapping[str, float]]]]:
        """Each strategy table with the ``where`` its errors end in: ``""``, or one per day."""
        if self.mode is CvMode.FIXED_WINDOW:
            return [("", self.static)]
        return [(f" on day {day}", strats) for day, strats in self.per_day.items()]

    def check_windows(self, plan: BacktestPlan) -> None:
        """Raise ``ValueError`` at the first ``m``, on any day, that ``plan`` cannot estimate.

        :meth:`params_for` checks the same on each day it is asked for.
        """
        for where, strats in self._tables():
            for strategy, params in strats.items():
                _check_window(strategy, params, where, plan)

    def params_for(self, strategy: str, day: int, plan: BacktestPlan) -> Mapping[str, float]:
        """The parameters ``strategy`` uses on ``day`` under ``plan``.

        Raises ``ValueError`` naming the strategy, if the selection holds
        none for it, or the parameter, if its ``m`` is not a window the
        plan can estimate (other values were checked when the selection
        was built).
        """
        if self.mode is CvMode.FIXED_WINDOW:
            table, where = self.static, ""
        else:
            if day not in self.per_day:
                raise ValueError(f"no parameters chosen for day {day}")
            table, where = self.per_day[day], f" on day {day}"
        params = table.get(strategy)
        if params is None:
            raise ValueError(f"chosen parameters: no parameters for strategy {strategy!r}{where}")
        _check_window(strategy, params, where, plan)
        return params

    def to_json_dict(self) -> dict:
        if self.mode is CvMode.FIXED_WINDOW:
            return {"mode": self.mode.value, "static": {k: dict(v) for k, v in self.static.items()}}
        return {
            "mode": self.mode.value,
            "per_day": {str(d): {k: dict(v) for k, v in strats.items()}
                        for d, strats in self.per_day.items()},
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ChosenParameters":
        """Read :meth:`to_json_dict` output; a bad or missing key raises ``ValueError``.

        Besides ``mode`` and its table, only the ``command`` and ``seed``
        keys that ``crossval`` writes are read past; any other key, the
        other mode's table included, is rejected. A sliding selection's day
        keys must be canonical decimal integers (``str(int(key)) == key``):
        ``"03"``, ``" 4"`` or ``"+5"`` is rejected. The tables are checked as
        for any selection.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"chosen parameters must be a JSON object, got {type(data).__name__}")
        try:
            mode = CvMode(data.get("mode"))
        except (TypeError, ValueError):
            raise ValueError(f"chosen parameters: key 'mode' must be one of "
                             f"{[m.value for m in CvMode]}, got {data.get('mode')!r}") from None
        key = _TABLE_KEY[mode]
        table = data.get(key)
        if isinstance(table, Mapping):
            _check_reads(mode, data)  # a table that is no object is reported first, below
        if mode is CvMode.FIXED_WINDOW or not isinstance(table, Mapping):
            return cls(mode=mode, **{key: table})  # the constructor checks the table
        per_day = {}
        for day, strats in table.items():
            try:
                number = int(day)
            except (TypeError, ValueError):
                number = None
            # one spelling per day, so two keys can never name the same day
            if number is None or str(number) != day:
                raise ValueError(f"chosen parameters: key 'per_day' holds the day key {day!r}; "
                                 f"days are written as plain decimal integers such as '31'")
            per_day[number] = strats
        return cls(mode=mode, per_day=per_day)


def _check_reads(mode: CvMode, keys: Iterable[str]) -> None:
    """Raise at the first of ``keys`` that a selection in ``mode`` does not read."""
    for key in keys:
        if key not in ("mode", _TABLE_KEY[mode], "command", "seed"):
            raise ValueError(f"chosen parameters: mode {mode.value!r} reads no key {key!r}")


def _raise_for(strategy: str, name: str, value, where: str, problem: str | None) -> None:
    """Raise ``problem`` with parameter ``name`` of ``strategy``, if there is one."""
    if problem:
        raise ValueError(f"chosen parameters: strategy {strategy!r} parameter {name!r} "
                         f"{problem}, got {value!r}{where}")


def _check_window(strategy: str, params: Mapping, where: str, plan: BacktestPlan) -> None:
    """Raise if ``params`` holds an ``m`` that is not a tau window ``plan`` can estimate."""
    if "m" in params:
        _raise_for(strategy, "m", params["m"], where,
                   _m_problem(params["m"], plan.tau_window_days - 1))


def _strategy_table(table: Mapping, where: str) -> None:
    """Check that each strategy of ``table`` is on the roster and maps to the parameters it reads."""
    for strategy, params in table.items():
        if strategy not in _PARAMS:
            raise ValueError(f"chosen parameters: unknown strategy {strategy!r}{where}; "
                             f"strategies are {list(STRATEGIES)}")
        if not isinstance(params, Mapping):
            raise ValueError(f"chosen parameters: strategy {strategy!r}{where} must map to an "
                             f"object of parameters, got {params!r}")
        for name in _PARAMS[strategy]:
            if name not in params:
                raise ValueError(f"chosen parameters: strategy {strategy!r} has no "
                                 f"parameter {name!r}{where}")
        for name in params:
            if name not in _PARAMS[strategy]:
                raise ValueError(f"chosen parameters: strategy {strategy!r} does not read "
                                 f"parameter {name!r}{where}; it reads {list(_PARAMS[strategy])}")


@dataclass(frozen=True)
class BacktestReport:
    """Evaluation-period settlement series and their aggregates."""

    timestamps: tuple[datetime, ...]
    volumes: np.ndarray
    oracle_revenues: np.ndarray
    revenues: Mapping[str, np.ndarray]
    rows: Mapping[str, StrategyRow]
    eval_days: tuple[int, int]


def _day_range(days: np.ndarray, first_day: int, last_day: int) -> tuple[int, int]:
    """Index range of the entries of the sorted ``days`` in ``first_day..last_day``."""
    return (int(np.searchsorted(days, first_day, side="left")),
            int(np.searchsorted(days, last_day, side="right")))


class _MarketFrame:
    """Period-ordered columns of a record list, its forecast table and its tau columns.

    Periods are keyed by local (day, hour), day 1 holding the first record.
    Each record must follow the one before it by the rule ``load_market_data``
    applies to its rows, so each record is one period. The forecast table
    holds one knot row per distinct forecast object.
    """

    def __init__(self, records: Sequence[MarketRecord]):
        if not records:
            raise ValueError("no market records")
        stamps = list(map(attrgetter("timestamp"), records))
        _check_follows(stamps)
        ordinal = np.fromiter(map(datetime.toordinal, stamps), np.int64, len(stamps))

        def column(name: str) -> np.ndarray:
            return np.fromiter(map(attrgetter(name), records), float, len(records))

        self.day = ordinal - ordinal[0] + 1
        self.hour = np.fromiter(map(attrgetter("hour"), stamps), np.int64, len(stamps))
        self.n_days = int(self.day[-1])
        self.timestamps = tuple(stamps)
        self.pi_s, self.pi_b = column("pi_s"), column("pi_b")
        self.s_l, self.omega = column("s_l"), column("omega_star")
        self.forecast = PiecewiseLinearBatch(list(map(attrgetter("forecast"), records)))
        self.estimator = HourlyTauEstimator(
            self.day, self.hour, *penalty_split(self.pi_s, self.pi_b, self.s_l)
        )
        self._tau: dict[int, np.ndarray] = {}

    def tau_column(self, m: int) -> np.ndarray:
        """Every period's tau estimate on window ``m``; NaN where the window is empty.

        Tau depends on (day, hour, m) alone, so each ``m`` is estimated once
        per frame, for all periods, and every span reads its periods from it.
        """
        tau = self._tau.get(m)
        if tau is None:
            # target day-1: the window [day-1-m, day-2] respects the settlement lag
            tau = self._tau[m] = self.estimator.window_means(self.day - 1, self.hour, m)
        return tau

    def periods(self, first_day: int, last_day: int) -> np.ndarray:
        """Indices of the periods of days ``first_day`` to ``last_day``."""
        return np.arange(*_day_range(self.day, first_day, last_day))


# The frame of the last record sequence asked for, in one slot weakly keyed by
# the sequence's first record: a list of the rest, and the frame.
_FRAMES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _frame_for(records: Sequence[MarketRecord]) -> _MarketFrame:
    """The frame of ``records``, reused while calls pass the same record objects.

    Records are frozen, so the same objects in the same order give the same
    columns; a list edited in place, or new records, build a new frame.
    Records compare by identity, so the check is one list comparison, which
    passes over each record that is the held one without calling anything.
    The frame is let go with its sequence's first record, so a history that
    its caller has dropped is freed before the next one is loaded.
    Concurrent calls can at worst build a frame twice, or keep two until the
    next store.
    """
    # a list slices in one copy; any other sequence is walked
    rest = records[1:] if isinstance(records, list) else list(islice(records, 1, None))
    held = _FRAMES.get(records[0]) if len(records) else None
    if held is not None and held[0] == rest:
        return held[1]
    frame = _MarketFrame(records)
    _FRAMES.clear()
    _FRAMES[records[0]] = (rest, frame)
    return frame


class _Span:
    """Every strategy's offers and revenues over a period-ordered set of periods.

    Tau is read from the frame's columns for the span's own periods, so a
    window without usable outcomes raises only where an offer needs it.
    """

    def __init__(self, frame: _MarketFrame, plan: BacktestPlan, periods: np.ndarray):
        self.periods = periods
        self.day, self.hour = frame.day[periods], frame.hour[periods]
        self.pi_s, self.pi_b, self.s_l = frame.pi_s[periods], frame.pi_b[periods], frame.s_l[periods]
        self.omega = frame.omega[periods]
        self.forecast = frame.forecast.take(periods)
        self.mean = self.forecast.mean()
        self._frame = frame
        self._fallback = plan.fallback_tau
        self._tau: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return self.day.size

    def tau_hat(self, m: int) -> np.ndarray:
        tau = self._tau.get(m)
        if tau is None:
            # a window mean k/n of 0/1 outcomes, or the plan's checked fallback
            tau = self._tau[m] = fill_empty_windows(self._frame.tau_column(m)[self.periods],
                                                    self.day - 1, self.hour, m, self._fallback)
        return tau

    def offers(self, rows: Iterable[tuple[str, Mapping[str, float]]]) -> np.ndarray:
        """Each (strategy, parameters) row's offers, one column per period, in one pass.

        Tau is read once per window ``m``; the levels of every bn, DR-S and
        DR-omega row are priced in one quantile call, the DR-S rows in one
        rule call. A check fails at the earliest row, then the earliest
        period, as if each row were priced in turn: a row that raises as it
        is drawn from ``rows`` or as its tau window is read raises after the
        rows before it are priced and checked.
        """
        taken = []
        try:
            for strategy, params in rows:
                if "m" in params:
                    self.tau_hat(params["m"])
                taken.append((strategy, params))
        except ValueError:
            self._check_offers(self._price(taken))  # an earlier row's failure comes first
            raise
        y = self._price(taken)
        self._check_offers(y)
        return y

    def _check_offers(self, y: np.ndarray) -> None:
        """Raise for the first offer (by row, then column) that rounding left outside [0, 1]."""
        ok = (y >= 0.0) & (y <= 1.0)
        if not ok.all():
            g, i = np.unravel_index(int(np.argmin(ok)), ok.shape)
            raise ValueError(f"{self._frame.timestamps[self.periods[i]].isoformat()}: "
                             f"offer must lie in [0, 1], got {y[g, i]}")

    def _price(self, rows: Sequence[tuple[str, Mapping[str, float]]]) -> np.ndarray:
        """The offers of ``rows``, whose tau estimates are already read."""
        tau = self._tau
        y = np.empty((len(rows), len(self)))
        bn, dr_s, dr_omega = {}, {}, {}  # each kind's rows: row index -> parameters
        for k, (strategy, params) in enumerate(rows):
            if strategy == "oracle":
                y[k] = self.omega
            elif strategy == "robust_s":
                y[k] = self.mean
            elif strategy == "robust_omega":
                y[k] = tau[params["m"]]
            elif strategy == "bn":
                bn[k] = params
            elif strategy == "dr_omega":
                dr_omega[k] = params
            else:  # the two DR-S balls
                dr_s[k] = params
        # one level matrix: bn's tau rows, every DR-S row's lower and then upper
        # ball bounds (theta = 0 is the uniform ball), and the band levels of
        # each DR-omega row, one radius at a time (no rows at rho = 1)
        levels = []
        for params in bn.values():
            levels.append(tau[params["m"]][None])
        if dr_s:
            levels += ball_bounds(np.array([tau[params["m"]] for params in dr_s.values()]),
                                  np.array([[params["epsilon"]] for params in dr_s.values()]),
                                  np.array([[params.get("theta", 0.0)] for params in dr_s.values()]))
        bands = [dr_omega_levels(tau[params["m"]], params["rho"]) for params in dr_omega.values()]
        levels += bands
        q = self.forecast.quantile(np.concatenate(levels)) if levels else y[:0]
        n_bn, n_s = len(bn), len(dr_s)
        for k, row in zip(bn, q):
            y[k] = row
        if dr_s:
            picked = dr_s_rule(q[n_bn:n_bn + n_s], q[n_bn + n_s:n_bn + 2 * n_s], self.mean)[0]
            for k, row in zip(dr_s, picked):
                y[k] = row
        at = n_bn + 2 * n_s
        for (k, params), u in zip(dr_omega.items(), bands):
            y[k] = dr_omega_from_quantiles(self.forecast, tau[params["m"]], params["rho"],
                                           u, q[at:at + len(u)])[0]
            at += len(u)
        return y

    def revenues(self, strategy: str, grid: Sequence[Mapping[str, float]]) -> np.ndarray:
        """Each grid point's revenues, one row per point and one column per period."""
        y = self.offers([(strategy, params) for params in grid])  # checked offers
        return _settle(self.pi_s, self.pi_b, self.s_l, y, self.omega)


def _window_totals(rev: np.ndarray, windows: Sequence[tuple[int, int]]) -> np.ndarray:
    """Each row's total over each index window of its columns; 0 for an empty window."""
    totals = np.zeros((rev.shape[0], len(windows)))
    for w, (a, b) in enumerate(windows):
        if b > a:
            # a running total of each row in period order; np.sum would sum pairwise
            totals[:, w] = np.add.accumulate(rev[:, a:b], axis=1)[:, -1]
    return totals


def _select(span: _Span, plan: BacktestPlan, windows: Sequence[tuple[int, int]]) -> list[dict]:
    """Each strategy's best grid point on each index window of the span."""
    chosen: list[dict] = [{} for _ in windows]
    for strategy in plan.strategies:
        grid = _param_grid(strategy, plan)
        totals = _window_totals(span.revenues(strategy, grid), windows)
        for w, best in enumerate(np.argmax(totals, axis=0)):  # ties keep the earliest grid point
            chosen[w][strategy] = dict(grid[best])
    return chosen


def cross_validate(records: Sequence[MarketRecord], plan: BacktestPlan) -> ChosenParameters:
    """Pick each strategy's parameters by total revenue on the CV window.

    Fixed-window mode evaluates the single window at the end of the warm
    start. Sliding mode re-selects for every evaluation day on the trailing
    window of the same length, ending at day-2 so the selection only sees
    outcomes already settled at the day's gate closure.
    """
    frame = _frame_for(records)
    if frame.n_days < plan.warm_start_days:
        raise ValueError(
            f"insufficient history: {frame.n_days} days < warm start {plan.warm_start_days}"
        )
    if plan.cv_mode is CvMode.FIXED_WINDOW:
        span = _Span(frame, plan, frame.periods(plan.tau_window_days + 1, plan.warm_start_days))
        return ChosenParameters(mode=CvMode.FIXED_WINDOW,
                                static=_select(span, plan, [(0, len(span))])[0])
    days = range(plan.warm_start_days + 1, frame.n_days + 1)
    if not days:
        return ChosenParameters(mode=CvMode.SLIDING, per_day={})
    span = _Span(frame, plan, frame.periods(days[0] - 1 - plan.cv_days, days[-1] - 2))
    windows = [_day_range(span.day, day - 1 - plan.cv_days, day - 2) for day in days]
    return ChosenParameters(mode=CvMode.SLIDING,
                            per_day=dict(zip(days, _select(span, plan, windows))))


def offers_for_day(records: Sequence[MarketRecord], plan: BacktestPlan,
                   chosen: ChosenParameters, day: int) -> dict[str, dict[int, float]]:
    """The offers fixed at day ``day``'s gate closure, per strategy and hour.

    Everything except the day's own forecast (and, for the oracle
    benchmark, its realization) derives from records settled through day
    ``day - 2``. Repeated calls on the same record objects reuse one
    market frame.

    Raises ``ValueError``, naming the day or the period's timestamp, when
    ``records`` hold no period of ``day``; when sliding ``chosen``
    parameters hold no selection for ``day``; when a record does not
    follow the one before it (out of order, a mix of naive and aware
    timestamps, or a repeated local hour); when a tau window holds no
    usable outcome and the plan sets no fallback; and when an offer leaves
    [0, 1].
    """
    frame = _frame_for(records)
    span = _Span(frame, plan, frame.periods(day, day))
    if not len(span):
        raise ValueError(f"no market records for day {day}")
    offers = span.offers((s, chosen.params_for(s, day, plan)) for s in plan.strategies)
    hours = span.hour.tolist()
    return {strategy: dict(zip(hours, row))
            for strategy, row in zip(plan.strategies, offers.tolist())}


def run_backtest(records: Sequence[MarketRecord], plan: BacktestPlan,
                 chosen: ChosenParameters) -> BacktestReport:
    """Settle every out-of-sample hour and aggregate the report."""
    frame = _frame_for(records)
    first_eval = plan.warm_start_days + 1
    if frame.n_days < first_eval:
        raise ValueError("no evaluation days after the warm start")
    first, end = _day_range(frame.day, first_eval, frame.n_days)
    span = _Span(frame, plan, np.arange(first, end))

    oracle_rev = _settle(span.pi_s, span.pi_b, span.s_l, span.omega, span.omega)
    days, day_at = np.unique(span.day, return_inverse=True)  # each period's index into days
    revenues: dict[str, np.ndarray] = {}
    for strategy in plan.strategies:
        # one revenue vector per distinct parameter set, over the days (as indices) that chose it
        groups: dict[tuple, tuple[Mapping[str, float], list[int]]] = {}
        for d, day in enumerate(days.tolist()):
            params = chosen.params_for(strategy, day, plan)
            key = tuple(params[name] for name in _PARAMS[strategy])
            groups.setdefault(key, (params, []))[1].append(d)
        series = np.empty(len(span))
        for params, on_days in groups.values():
            chose = np.zeros(days.size, dtype=bool)
            chose[on_days] = True
            on = chose[day_at]
            part = span if on.all() else _Span(frame, plan, span.periods[on])
            series[on] = part.revenues(strategy, [params])[0]
        revenues[strategy] = series

    reference = "bn" if "bn" in plan.strategies else None
    rows = regret_and_ratio(revenues, oracle_rev, span.omega, reference=reference)
    return BacktestReport(
        timestamps=frame.timestamps[first:end],
        volumes=span.omega.copy(),
        oracle_revenues=oracle_rev,
        revenues=revenues,
        rows=rows,
        eval_days=(first_eval, frame.n_days),
    )


def check_penalty_scale(factor: float, name: str) -> None:
    """Reject a penalty scale factor that is not positive and finite, naming it ``name``."""
    if not 0.0 < factor < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {factor}")


def scale_penalties(records: Sequence[MarketRecord], factor: float) -> list[MarketRecord]:
    """Scale every balancing-price spread away from the day-ahead price."""
    check_penalty_scale(factor, "scale factor")
    if factor == 1.0:
        return list(records)
    return [
        replace(rec, pi_b=rec.pi_s + factor * (rec.pi_b - rec.pi_s))
        for rec in records
    ]


# ---------- file interfaces ----------


def load_market_data(market_csv, forecast_dir, strict: bool = False) -> list[MarketRecord]:
    """Read the hourly market CSV and resolve one forecast file per record.

    Schema violations, non-finite prices and system lengths, a record that
    ``MarketRecord`` rejects, and a timestamp that does not follow the
    previous row's (by the rule the market frame applies to any records)
    raise with the offending row named. Gaps in the hourly grid warn, or
    raise when ``strict`` is set.
    """
    market_csv = Path(market_csv)
    forecast_dir = Path(forecast_dir)
    records: list[MarketRecord] = []
    forecast: PiecewiseLinear | None = None
    with market_csv.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{market_csv}: empty file")
        if tuple(h.strip() for h in header) != MARKET_HEADER:
            raise ValueError(
                f"{market_csv}: expected header {','.join(MARKET_HEADER)}, got {header!r}"
            )
        prev_ts: datetime | None = None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(MARKET_HEADER):
                raise ValueError(f"{market_csv}:{lineno}: expected {len(MARKET_HEADER)} columns")
            try:
                ts = datetime.fromisoformat(row[0].strip())
            except ValueError as exc:
                raise ValueError(f"{market_csv}:{lineno}: column 'timestamp': {exc}") from exc
            if ts.minute or ts.second or ts.microsecond:
                raise ValueError(f"{market_csv}:{lineno}: column 'timestamp': not on the hour")
            floats = []
            for col, cell in zip(MARKET_HEADER[1:], row[1:]):
                try:
                    floats.append(float(cell))
                except ValueError as exc:
                    raise ValueError(
                        f"{market_csv}:{lineno}: column {col!r}: non-numeric {cell!r}"
                    ) from exc
                if not math.isfinite(floats[-1]):
                    raise ValueError(f"{market_csv}:{lineno}: column {col!r}: non-finite {cell!r}")
            if prev_ts is not None:
                problem = _follow_problem(prev_ts, ts)
                if problem:
                    raise ValueError(f"{market_csv}:{lineno}: column 'timestamp': "
                                     f"{row[0].strip()!r} {problem}")
                gap = int((ts - prev_ts).total_seconds() // 3600) - 1
                if gap > 0:
                    msg = f"{market_csv}:{lineno}: {gap} missing hour(s) before {ts.isoformat()}"
                    if strict:
                        raise ValueError(msg)
                    warnings.warn(msg)
            prev_ts = ts
            fpath = forecast_dir / (ts.strftime(_TS_FORMAT) + ".csv")
            try:
                forecast = _share_knots(read_quantile_forecast(fpath), forecast)
                records.append(MarketRecord(ts, *floats, forecast))
            except FileNotFoundError as exc:
                raise ValueError(f"{market_csv}:{lineno}: forecast file {fpath} not found") from exc
            except ValueError as exc:
                raise ValueError(f"{market_csv}:{lineno}: {exc}") from exc
    if not records:
        raise ValueError(f"{market_csv}: no data rows")
    return records


def _writable(records: Iterable[MarketRecord]) -> list[MarketRecord]:
    """``records`` as a list, once every stamp is one ``load_market_data`` reads back.

    Each stamp must be on the hour and follow the one before it, as the
    loader's rows must. The writers check this before they create any file.
    """
    records = list(records)
    stamps = list(map(attrgetter("timestamp"), records))
    for ts in stamps:
        if ts.minute or ts.second or ts.microsecond:
            raise ValueError(f"{ts.isoformat()}: not on the hour; files key each period by its hour")
    _check_follows(stamps)
    return records


def write_market_csv(records: Iterable[MarketRecord], path) -> None:
    records = _writable(records)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MARKET_HEADER)
        for rec in records:
            writer.writerow([
                rec.timestamp.isoformat(),
                repr(float(rec.pi_s)), repr(float(rec.pi_b)),
                repr(float(rec.s_l)), repr(float(rec.omega_star)),
            ])


def write_forecast_dir(records: Iterable[MarketRecord], dirpath) -> None:
    """One ``level,value`` file per delivery hour, named by its timestamp."""
    records = _writable(records)
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    # records usually share a few forecast objects, which hash by identity:
    # format each one once
    texts: dict[PiecewiseLinear, str] = {}
    for rec in records:
        text = texts.get(rec.forecast)
        if text is None:
            text = texts[rec.forecast] = _forecast_text(rec.forecast)
        with (dirpath / (rec.timestamp.strftime(_TS_FORMAT) + ".csv")).open("w", newline="") as fh:
            fh.write(text)
