"""Market settlement arithmetic under two-price imbalance settlement.

Revenue, the overage/underage penalty split, the binary penalty
direction, and the expected scaled opportunity loss against a predictive
distribution. Prices are plain reals in
currency per MWh; no currency rounding is applied. Settlement, the
penalty split and the expected loss work elementwise on arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .distributions import UnitDistribution, _validate_prob

__all__ = [
    "PenaltyPair",
    "penalty_split",
    "revenue",
    "penalties",
    "bernoulli_outcomes",
    "expected_loss",
    "StrategyRow",
    "regret_and_ratio",
]


@dataclass(frozen=True)
class PenaltyPair:
    """Per-unit overage/underage penalties; at most one is nonzero."""

    overage: float
    underage: float

    def __post_init__(self):
        if self.overage < 0.0 or self.underage < 0.0:
            raise ValueError("penalties must be non-negative after clamping")
        if self.overage > 0.0 and self.underage > 0.0:
            raise ValueError("overage and underage penalties are mutually exclusive")


def revenue(pi_s, pi_b, s_l, y, omega_star):
    """Producer revenue, elementwise: day-ahead payment plus the settled imbalance.

    Arguments are scalars for one period or aligned arrays for many; the
    offer ``y`` and the realization ``omega_star`` must lie in [0, 1].
    """
    _validate_prob(y, "y")
    _validate_prob(omega_star, "omega_star")
    return _settle(pi_s, pi_b, s_l, y, omega_star)


def _settle(pi_s, pi_b, s_l, y, omega_star):
    """:func:`revenue` of offers and realizations already checked to lie in [0, 1].

    The imbalance is settled at pi_b when it aggravates the system, at pi_s otherwise.
    """
    imbalance = np.asarray(omega_star, dtype=float) - y
    return pi_s * y + np.where(imbalance * s_l > 0.0, pi_b, pi_s) * imbalance


def penalty_split(pi_s, pi_b, s_l) -> tuple[np.ndarray, np.ndarray]:
    """Overage and underage penalties by system length, elementwise.

    A non-negative system length penalizes overproduction, a negative one
    underproduction. Negative values (spread opposing the system sign) are
    clamped to zero, leaving no penalty.
    """
    long_system = np.asarray(s_l, dtype=float) >= 0.0
    overage = np.where(long_system, np.maximum(np.subtract(pi_s, pi_b), 0.0), 0.0)
    underage = np.where(long_system, 0.0, np.maximum(np.subtract(pi_b, pi_s), 0.0))
    return overage, underage


def penalties(pi_s: float, pi_b: float, s_l: float) -> PenaltyPair:
    """One period's :func:`penalty_split` as a validated pair."""
    overage, underage = penalty_split(pi_s, pi_b, s_l)
    return PenaltyPair(overage=float(overage), underage=float(underage))


def bernoulli_outcomes(overage, underage) -> np.ndarray:
    """Binary penalty direction, elementwise: 1 for overage, 0 for underage, NaN when unpenalized."""
    return np.where(np.asarray(overage) > 0.0, 1.0, np.where(np.asarray(underage) > 0.0, 0.0, np.nan))


def expected_loss(dist: UnitDistribution, y, tau: float):
    """Expected scaled loss of offer(s) ``y`` when the chance of success is ``tau``."""
    tau = float(_validate_prob(tau, "tau"))
    under, over = dist.partial_expectations(y)
    return (1.0 - tau) * under + tau * over


@dataclass(frozen=True)
class StrategyRow:
    """Aggregate backtest metrics for one strategy."""

    revenue_per_mwh: float
    regret_per_mwh: float
    advantage_ratio_pct: float | None
    cum_delta_regret: np.ndarray
    total_revenue: float


def regret_and_ratio(
    revenues: Mapping[str, Sequence[float]],
    oracle_revenues: Sequence[float],
    volumes: Sequence[float],
    reference: str | None = "bn",
) -> dict[str, StrategyRow]:
    """Per-MWh revenue and regret, advantage ratio and cumulative delta-regret.

    ``volumes`` are the generated energy amounts used for the per-MWh
    scaling. The advantage ratio counts the periods where a strategy's
    revenue is at least the reference strategy's (the plain newsvendor by
    convention), with a 1e-9-scaled tolerance so economically identical
    settlements that differ by summation-order ulps count as ties; the
    cumulative delta-regret series tracks how much less regret than the
    reference a strategy has accumulated.
    """
    oracle = np.asarray(oracle_revenues, dtype=float)
    vols = np.asarray(volumes, dtype=float)
    if oracle.shape != vols.shape:
        raise ValueError("oracle revenues and volumes must be aligned")
    total_volume = float(vols.sum())
    if total_volume <= 0.0:
        raise ValueError("total generated volume must be positive")

    series = {}
    for name, rev in revenues.items():
        arr = np.asarray(rev, dtype=float)
        if arr.shape != oracle.shape:
            raise ValueError(f"revenue series for {name!r} is misaligned")
        series[name] = arr

    ref = series.get(reference) if reference is not None else None
    rows: dict[str, StrategyRow] = {}
    for name, arr in series.items():
        if ref is not None:
            tie_tol = 1e-9 * np.maximum(1.0, np.abs(ref))
            ratio = float(100.0 * np.mean(arr >= ref - tie_tol))
            cum_delta = np.cumsum(arr - ref)
        else:
            ratio = None
            cum_delta = np.zeros_like(arr)
        rows[name] = StrategyRow(
            revenue_per_mwh=float(arr.sum() / total_volume),
            regret_per_mwh=float((oracle - arr).sum() / total_volume),
            advantage_ratio_pct=ratio,
            cum_delta_regret=cum_delta,
            total_revenue=float(arr.sum()),
        )
    return rows
