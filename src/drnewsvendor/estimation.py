"""Estimating the Bernoulli chance of success from settled market outcomes.

The estimator is the frequency of overage-penalized periods: each settled
period contributes a binary outcome (1 overage, 0 underage) and
no-balancing periods are excluded since they carry no penalty
information. A separate moving-average model per hour of day captures the
daily pattern of system imbalances.
"""

from __future__ import annotations

import numpy as np

from .economics import bernoulli_outcomes

__all__ = ["HourlyTauEstimator", "fill_empty_windows"]


def _check_fallback(fallback_tau: float | None) -> None:
    # asked as "inside", so that a NaN fallback fails too
    if fallback_tau is not None and not (0.0 <= fallback_tau <= 1.0):
        raise ValueError(f"fallback tau must lie in [0, 1], got {fallback_tau}")


class HourlyTauEstimator:
    """Per-hour moving-average forecaster over settled penalty outcomes.

    Usable outcomes are sorted once by (hour, day) under one prefix sum of
    the 0/1 outcomes, so each windowed forecast is a pair of binary
    searches on ``hour * stride + day`` keys. Periods whose penalty pair is
    all zero are skipped.
    """

    def __init__(self, days, hours, overage, underage):
        """The estimator over aligned per-period columns, as from :func:`penalty_split`."""
        days, hours = np.asarray(days, dtype=np.int64), np.asarray(hours, dtype=np.int64)
        overage, underage = np.asarray(overage, dtype=float), np.asarray(underage, dtype=float)
        if not (days.ndim == 1 and days.shape == hours.shape == overage.shape == underage.shape):
            raise ValueError("days, hours, overage and underage must be aligned 1-D columns")
        outcome = bernoulli_outcomes(overage, underage)
        usable = np.flatnonzero(~np.isnan(outcome))
        at = usable[np.lexsort((days[usable], hours[usable]))]
        days, hours = days[at], hours[at]
        repeated = (np.diff(hours) == 0) & (np.diff(days) == 0)
        if np.any(repeated):
            raise ValueError(f"duplicate day for hour {hours[int(np.argmax(repeated))]}")
        # keys order by hour, then day: day - first lies in [0, stride)
        self._first = int(days.min()) if days.size else 0
        self._stride = int(days.max()) - self._first + 1 if days.size else 1
        self._keys = hours * self._stride + (days - self._first)
        self._ones = np.concatenate(([0.0], np.cumsum(outcome[at])))

    def _bounds(self, days: np.ndarray, hours: np.ndarray,
                window_days: int) -> tuple[np.ndarray, np.ndarray]:
        """Index range of each target's window, days ``day - window_days`` to ``day - 1``."""
        base = hours * self._stride - self._first
        first = np.clip(days - window_days, self._first, self._first + self._stride)
        last = np.clip(days - 1, self._first - 1, self._first + self._stride - 1)
        lo = np.searchsorted(self._keys, base + first, side="left")
        hi = np.searchsorted(self._keys, base + last, side="right")
        return lo, np.maximum(hi, lo)

    def forecast(self, day: int, hour: int, window_days: int,
                 fallback_tau: float | None = None) -> float:
        """Mean outcome at ``hour`` over the ``window_days`` days before ``day``.

        Without a fallback, a window that holds no usable outcome raises; a
        given fallback must lie in [0, 1].
        """
        _check_fallback(fallback_tau)
        tau = self.window_means([day], [hour], window_days)
        return float(fill_empty_windows(tau, [day], [hour], window_days, fallback_tau)[0])

    def window_means(self, days, hours, window_days: int) -> np.ndarray:
        """Each target's :meth:`forecast`, NaN where its window holds no usable outcome.

        ``days`` and ``hours`` are aligned arrays of targets.
        """
        if window_days < 1:
            raise ValueError(f"window must cover at least one day, got {window_days}")
        days = np.asarray(days, dtype=np.int64)
        hours = np.asarray(hours, dtype=np.int64)
        lo, hi = self._bounds(days, hours, window_days)
        count = hi - lo
        tau = np.full(days.shape, np.nan)
        filled = count > 0
        # the prefix sums count whole numbers, so each difference is exact
        tau[filled] = (self._ones[hi] - self._ones[lo])[filled] / count[filled]
        return tau


def fill_empty_windows(tau: np.ndarray, days, hours, window_days: int,
                       fallback_tau: float | None) -> np.ndarray:
    """``tau`` with its empty windows (NaN) set to ``fallback_tau``.

    ``days`` and ``hours`` are the targets of :meth:`HourlyTauEstimator.window_means`.
    Without a fallback, the first target whose window is empty raises.
    """
    missing = np.isnan(tau)
    if missing.any():
        if fallback_tau is None:
            i = int(np.argmax(missing))
            raise ValueError(f"no usable outcomes for hour {int(hours[i])} in the {window_days} "
                             f"days before day {int(days[i])}; supply a fallback tau to proceed")
        tau = np.where(missing, float(fallback_tau), tau)
    return tau
