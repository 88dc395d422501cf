"""Shared helpers: random problem instances and the brute-force loss oracle."""

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


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)
