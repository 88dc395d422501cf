"""Synthetic market data with the backtest's exact schema.

Generates hourly records with a stationary chance of success: each
balanced period penalizes overage with probability ``tau`` (system long,
balancing price below day-ahead) and underage otherwise, with the
relative price spread drawn so its mean matches a target fraction of the
day-ahead price. Generation is drawn from Beta(2, 6) and the forecast is
its quantile representation at the standard levels, so forecasts are
calibrated by construction; day-ahead prices are uniform on [35, 65].
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np

from .backtest import MarketRecord
from .distributions import Beta, PiecewiseLinear, RngStream, _validate_prob, standard_forecast_levels

__all__ = ["make_synthetic_market"]


def make_synthetic_market(
    n_days: int = 731,
    master_seed: int = 0,
    tau: float = 0.75,
    mean_rel_spread: float = 0.135,
    no_balancing_rate: float = 0.05,
    start: datetime = datetime(2018, 10, 1),
) -> list[MarketRecord]:
    """Build ``n_days`` of hourly records with stationary penalty asymmetry.

    ``mean_rel_spread`` calibrates the unconditional mean of
    ``|pi_b - pi_s| / pi_s`` across all periods, including the unpenalized
    ones, so the drawn spread scale is inflated by the balancing rate.
    """
    if n_days < 1:
        raise ValueError("need at least one day")
    if start.minute or start.second or start.microsecond:
        # market files key each period by its hour
        raise ValueError(f"start must be on the hour, got {start.isoformat()}")
    _validate_prob(tau, "tau")
    if not (0.0 <= no_balancing_rate < 1.0):
        raise ValueError("no-balancing rate must lie in [0, 1)")
    if not (0.0 < mean_rel_spread < 0.5):
        raise ValueError(f"mean relative spread must lie in (0, 0.5), got {mean_rel_spread}")
    generation = Beta(2.0, 6.0)
    levels = standard_forecast_levels()
    forecast = PiecewiseLinear(levels, np.asarray(generation.quantile(levels), dtype=float))

    n = n_days * 24
    gen = RngStream(master_seed, 0).generator
    omega = np.asarray(generation.quantile(gen.random(n)), dtype=float)
    pi_s = gen.uniform(35.0, 65.0, size=n)
    balanced = gen.random(n) >= no_balancing_rate
    long_system = gen.random(n) < tau
    scale = mean_rel_spread / (1.0 - no_balancing_rate)
    rel_spread = np.minimum(gen.exponential(scale, size=n), 0.95)
    magnitude = gen.uniform(0.2, 1.5, size=n)

    sign = np.where(long_system, 1.0, -1.0)
    s_l = np.where(balanced, sign * magnitude, 0.0)
    pi_b = np.where(balanced, pi_s * (1.0 - sign * rel_spread), pi_s)

    records = []
    for i in range(n):
        records.append(MarketRecord(
            timestamp=start + timedelta(hours=i),
            pi_s=float(pi_s[i]),
            pi_b=float(pi_b[i]),
            s_l=float(s_l[i]),
            omega_star=float(omega[i]),
            forecast=forecast,
        ))
    return records
