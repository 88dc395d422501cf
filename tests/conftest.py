"""Shared helpers: random problem instances, the brute-force loss oracle and
per-period penalty and tau references written out one period at a time."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from scipy.integrate import cumulative_trapezoid, trapezoid

from drnewsvendor import Beta, PiecewiseLinear

# property tests draw the same examples on every run and never time out
settings.register_profile("reproducible", derandomize=True, deadline=None, database=None)
settings.load_profile("reproducible")


def random_beta(rng: np.random.Generator) -> Beta:
    return Beta(rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0))


def random_piecewise(rng: np.random.Generator, n_levels: int = 20) -> PiecewiseLinear:
    """Strictly increasing knots, so the CDF is continuous and invertible."""
    levels = np.sort(rng.uniform(0.01, 0.99, size=n_levels))
    while np.any(np.diff(levels) < 1e-4):
        levels = np.sort(rng.uniform(0.01, 0.99, size=n_levels))
    values = np.sort(rng.uniform(0.001, 0.999, size=n_levels))
    while np.any(np.diff(values) < 1e-6):
        values = np.sort(rng.uniform(0.001, 0.999, size=n_levels))
    return PiecewiseLinear(levels, values)


def random_dist(rng: np.random.Generator):
    return random_beta(rng) if rng.random() < 0.5 else random_piecewise(rng)


def grid_loss_oracle(dist, y_grid: np.ndarray):
    """Expected-loss ingredients on a grid, by cumulative trapezoid of the CDF.

    Independent of partial_expectations: only cdf evaluations enter. Returns
    (under, over) arrays aligned with the grid.
    """
    cdf_vals = np.asarray(dist.cdf(y_grid), dtype=float)
    under = cumulative_trapezoid(cdf_vals, y_grid, initial=0.0)
    mean = trapezoid(1.0 - cdf_vals, y_grid)
    over = under - y_grid + mean
    return under, over


def grid_expected_loss(dist, tau: float, y_grid: np.ndarray) -> np.ndarray:
    under, over = grid_loss_oracle(dist, y_grid)
    return (1.0 - tau) * under + tau * over


def penalty_pair(rec):
    """A record's (overage, underage) penalties, one period at a time.

    A system length of zero or more penalizes overproduction by
    ``pi_s - pi_b``, a negative one underproduction by ``pi_b - pi_s``,
    each clamped at zero.
    """
    if rec.s_l >= 0.0:
        return max(rec.pi_s - rec.pi_b, 0.0), 0.0
    return 0.0, max(rec.pi_b - rec.pi_s, 0.0)


def reference_tau(records, days, hours, window_days, fallback_tau=None) -> np.ndarray:
    """Tau at each (day, hour) target as a plain windowed mean; day 1 is the first record's date.

    The mean is over the usable 0/1 penalty outcomes (1 overage, 0
    underage; a period with neither is left out) at the target's hour on
    the ``window_days`` days before its day. An empty window takes
    ``fallback_tau`` or, without one, raises the estimator's error.
    """
    first = records[0].timestamp.toordinal()
    outcome = {}
    for rec in records:
        over, under = penalty_pair(rec)
        if over > 0.0 or under > 0.0:
            key = (rec.timestamp.toordinal() - first + 1, rec.timestamp.hour)
            outcome[key] = 1.0 if over > 0.0 else 0.0
    taus = []
    for day, hour in zip(days, hours):
        seen = [outcome[d, hour] for d in range(day - window_days, day) if (d, hour) in outcome]
        if seen:
            taus.append(sum(seen) / len(seen))
        elif fallback_tau is None:
            raise ValueError(f"no usable outcomes for hour {hour} in the {window_days} days "
                             f"before day {day}; supply a fallback tau to proceed")
        else:
            taus.append(float(fallback_tau))
    return np.array(taus)


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)
