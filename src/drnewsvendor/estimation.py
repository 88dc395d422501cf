"""Estimating the Bernoulli chance of success from settled market outcomes.

The estimator is the frequency of overage-penalized periods: each settled
period contributes a binary outcome (1 overage, 0 underage) and
no-balancing periods are excluded since they carry no penalty
information. A separate moving-average model per hour of day captures the
daily pattern of system imbalances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .economics import PenaltyPair, bernoulli_outcomes

__all__ = [
    "TauEstimatorConfig",
    "estimate_tau",
    "HourlyTauEstimator",
    "hourly_tau_forecast",
]


@dataclass(frozen=True)
class TauEstimatorConfig:
    """Moving-average window and exclusion behavior for tau forecasting."""

    window_days: int = 90
    per_hour: bool = True
    fallback_tau: float | None = None

    def __post_init__(self):
        if self.window_days < 1:
            raise ValueError(f"window must cover at least one day, got {self.window_days}")
        if self.fallback_tau is not None and not (0.0 <= self.fallback_tau <= 1.0):
            raise ValueError(f"fallback tau must lie in [0, 1], got {self.fallback_tau}")


def estimate_tau(samples: Sequence[float]) -> float:
    """Sample mean of observed binary outcomes."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot estimate tau from an empty sample")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("outcomes must lie in [0, 1]")
    return float(arr.mean())


def _no_outcomes(hour: int, window_days: int, day: int) -> ValueError:
    return ValueError(
        f"no usable outcomes for hour {hour} in the {window_days} days "
        f"before day {day}; supply a fallback tau to proceed"
    )


class HourlyTauEstimator:
    """Per-hour moving-average forecaster over settled penalty outcomes.

    History is bucketed by hour of day with prefix sums over the day axis,
    so a windowed forecast is O(log n). Periods whose penalty pair is all
    zero are skipped; the raw penalty sums are kept for diagnostics.
    """

    def __init__(self, history: Iterable[tuple[int, int, PenaltyPair]]):
        rows = [(int(day), int(hour), pair.overage, pair.underage) for day, hour, pair in history]
        days, hours = (np.array([r[i] for r in rows], dtype=np.int64) for i in (0, 1))
        overage, underage = (np.array([r[i] for r in rows], dtype=float) for i in (2, 3))
        self._index(days, hours, overage, underage)

    @classmethod
    def from_columns(cls, days, hours, overage, underage) -> "HourlyTauEstimator":
        """The estimator over aligned per-period columns, as from :func:`penalty_split`."""
        est = cls.__new__(cls)
        est._index(np.asarray(days, dtype=np.int64), np.asarray(hours, dtype=np.int64),
                   np.asarray(overage, dtype=float), np.asarray(underage, dtype=float))
        return est

    def _index(self, days, hours, overage, underage) -> None:
        outcome = bernoulli_outcomes(overage, underage)
        usable = ~np.isnan(outcome)
        self._hours: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        for hour in np.unique(hours[usable]):
            at = np.flatnonzero(usable & (hours == hour))
            at = at[np.argsort(days[at], kind="stable")]
            bucket_days = days[at]
            if np.any(np.diff(bucket_days) == 0):
                raise ValueError(f"duplicate day for hour {hour}")
            ones = np.concatenate(([0.0], np.cumsum(outcome[at])))
            po = np.concatenate(([0.0], np.cumsum(overage[at])))
            pu = np.concatenate(([0.0], np.cumsum(underage[at])))
            self._hours[int(hour)] = (bucket_days, ones, po, pu)

    def forecast(
        self,
        day: int,
        hour: int,
        window_days: int,
        fallback_tau: float | None = None,
    ) -> float:
        """Mean outcome at ``hour`` over the ``window_days`` days before ``day``."""
        return float(self.forecast_many([day], [hour], window_days, fallback_tau)[0])

    def forecast_many(self, days, hours, window_days: int,
                      fallback_tau: float | None = None) -> np.ndarray:
        """Mean outcome at each target hour over the ``window_days`` days before its day.

        ``days`` and ``hours`` are aligned arrays. Without a fallback, the
        first target whose window holds no usable outcome raises.
        """
        if window_days < 1:
            raise ValueError(f"window must cover at least one day, got {window_days}")
        days = np.asarray(days, dtype=np.int64)
        hours = np.asarray(hours, dtype=np.int64)
        tau = np.full(days.shape, np.nan)
        for hour in np.unique(hours):
            if int(hour) not in self._hours:
                continue
            bucket_days, ones, _, _ = self._hours[int(hour)]
            at = np.flatnonzero(hours == hour)
            lo = np.searchsorted(bucket_days, days[at] - window_days, side="left")
            hi = np.searchsorted(bucket_days, days[at] - 1, side="right")
            count = hi - lo
            filled = count > 0
            tau[at[filled]] = (ones[hi] - ones[lo])[filled] / count[filled]
        missing = np.isnan(tau)
        if np.any(missing):
            if fallback_tau is None:
                i = int(np.argmax(missing))
                raise _no_outcomes(hours[i], window_days, days[i])
            tau[missing] = float(fallback_tau)
        return tau

    def diagnostics(self, day: int, hour: int, window_days: int) -> dict[str, float]:
        """Windowed penalty averages alongside the frequency estimate."""
        tau = self.forecast_many([day], [hour], window_days, fallback_tau=float("nan"))[0]
        return {"tau_hat": float(tau), **self._window(day, hour, window_days)}

    def _window(self, day: int, hour: int, window_days: int) -> dict[str, float]:
        bucket = self._hours.get(int(hour))
        if bucket is None:
            return {"count": 0.0, "mean_overage": 0.0, "mean_underage": 0.0}
        days, _, po, pu = bucket
        lo = int(np.searchsorted(days, day - window_days, side="left"))
        hi = int(np.searchsorted(days, day - 1, side="right"))
        count = hi - lo
        if count <= 0:
            return {"count": 0.0, "mean_overage": 0.0, "mean_underage": 0.0}
        return {
            "count": float(count),
            "mean_overage": float((po[hi] - po[lo]) / count),
            "mean_underage": float((pu[hi] - pu[lo]) / count),
        }


def hourly_tau_forecast(
    history: Iterable[tuple[int, int, PenaltyPair]],
    window_days: int,
    target: tuple[int, int],
    fallback_tau: float | None = None,
) -> float:
    """Forecast tau for a (day, hour) target from same-hour history.

    Uses the outcomes of the ``window_days`` days strictly before the
    target day at the target hour, skipping unpenalized periods. Raises
    when the window holds no usable observation unless ``fallback_tau``
    is given.
    """
    day, hour = target
    est = HourlyTauEstimator(history)
    return est.forecast(day, hour, window_days, fallback_tau=fallback_tau)
