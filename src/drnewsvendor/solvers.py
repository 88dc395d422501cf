"""Closed-form offer rules for the Bernoulli newsvendor and its robust variants.

All solvers return an :class:`OfferDecision` carrying the offer, the rule
that produced it and the intermediate quantities (quantiles, ball bounds,
mean) useful for diagnosis. They are pure functions of their inputs.

The two robust rules are written once, as array functions
(:func:`dr_omega_offers`, :func:`dr_s_rule`). In the package only
:func:`solve_dr_omega` calls :func:`dr_omega_offers`; the backtest calls
its two halves (:func:`dr_omega_levels`, :func:`dr_omega_from_quantiles`)
so that it prices the DR-omega levels of many rows in one quantile call.
:func:`solve_dr_s` and the backtest call :func:`dr_s_rule`, the one rule
the Monte-Carlo harness calls. They check nothing: the scalar solvers
check their inputs, and the backtest and the harness feed them values
their plan and configuration have checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .ambiguity import (
    BernoulliBall,
    _require,
    _rho_problem,
    band_levels,
    bands_from_quantiles,
    deform_lower,
    deform_upper,
)
from .distributions import Heaviside, UnitDistribution, _match_input, _validate_prob

__all__ = [
    "Method",
    "OfferDecision",
    "solve_direct",
    "solve_dr_omega",
    "solve_dr_s",
    "solve_robust_s",
    "solve_robust_omega",
    "DR_S_BRANCHES",
    "dr_omega_offers",
    "dr_omega_levels",
    "dr_omega_from_quantiles",
    "dr_s_rule",
    "WorstCaseCdf",
    "worst_case_cdf",
]


class Method(Enum):
    DIRECT = "direct"
    DR_OMEGA = "dr_omega"
    DR_S = "dr_s"
    ROBUST_OMEGA = "robust_omega"
    ROBUST_S = "robust_s"


@dataclass(frozen=True)
class OfferDecision:
    """An offered energy fraction plus the rule and intermediates behind it."""

    y_star: float
    method: Method
    diagnostics: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.y_star <= 1.0):
            raise ValueError(f"offer must lie in [0, 1], got {self.y_star}")
        object.__setattr__(self, "diagnostics", MappingProxyType(dict(self.diagnostics)))


def solve_direct(dist: UnitDistribution, tau_hat: float) -> OfferDecision:
    """Plain Bernoulli newsvendor: offer the tau_hat-quantile of the forecast."""
    tau_hat = float(_validate_prob(tau_hat, "tau_hat"))
    y = float(dist.quantile(tau_hat))
    return OfferDecision(y, Method.DIRECT, {"tau_hat": tau_hat})


def dr_omega_offers(dist, tau_hat, rho: float):
    """Forecast-robust offers at estimates ``tau_hat``, elementwise.

    The offer is the tau_hat-weighted combination of the two deformed
    quantiles at level tau_hat, both read in one quantile call of ``dist``
    at the levels of :func:`dr_omega_levels`, then combined by
    :func:`dr_omega_from_quantiles`. ``dist`` is a distribution or a
    :class:`PiecewiseLinearBatch` (row ``i`` at ``tau_hat[i]``).
    ``tau_hat`` in [0, 1] and ``rho`` in [0, 1] are the caller's to
    validate. Returns ``(offer, q_upper, q_lower)``.
    """
    tau_hat = np.asarray(tau_hat, dtype=float)
    u = dr_omega_levels(tau_hat, rho)
    return dr_omega_from_quantiles(dist, tau_hat, rho, u, dist.quantile(u))


_BANDS = ("upper", "lower")


def dr_omega_levels(tau_hat: np.ndarray, rho: float) -> np.ndarray:
    """The levels of ``dist`` whose quantiles are the upper and lower band quantiles at ``tau_hat``.

    One row per band, each shaped as ``tau_hat``. At ``rho = 1`` the bands are
    the Heaviside pair and need no quantile, so the block has no rows.
    """
    if rho == 1.0:
        return np.empty((0, *np.shape(tau_hat)))
    return band_levels(tau_hat, rho, _BANDS)


def dr_omega_from_quantiles(dist, tau_hat: np.ndarray, rho: float, u, q):
    """:func:`dr_omega_offers` from ``q``, the quantiles of ``dist`` at ``u = dr_omega_levels(tau_hat, rho)``.

    ``rho = 1`` is handled as its analytic limit, where the bands are the
    Heaviside pair and the offer equals tau_hat itself.
    """
    if rho == 1.0:
        q_upper, q_lower = np.zeros_like(tau_hat), np.ones_like(tau_hat)
    else:
        q_upper, q_lower = bands_from_quantiles(dist, tau_hat, rho, _BANDS, u, q)
    return tau_hat * q_lower + (1.0 - tau_hat) * q_upper, q_upper, q_lower


# the DR-S branches, in the order of dr_s_rule's branch index
DR_S_BRANCHES = ("upper_quantile", "lower_quantile", "mean")


def dr_s_rule(q_lo, q_hi, mean):
    """Chance-robust offers from the quantiles at the ball bounds, elementwise.

    Exactly one branch fires: the quantile at the ball's upper bound when it
    sits left of the mean, the quantile at the lower bound when that sits
    right of the mean, and the mean itself otherwise (ties included).
    Returns ``(offer, branch)``, ``branch`` indexing :data:`DR_S_BRANCHES`.
    """
    upper, lower = q_hi < mean, q_lo > mean
    branch = np.where(upper, 0, np.where(lower, 1, 2))
    return np.where(upper, q_hi, np.where(lower, q_lo, mean)), branch


def solve_dr_omega(dist: UnitDistribution, tau_hat: float, rho: float) -> OfferDecision:
    """Robust offer under generation-forecast ambiguity of radius ``rho``.

    See :func:`dr_omega_offers`.
    """
    tau_hat = float(_validate_prob(tau_hat, "tau_hat"))
    rho = float(rho)
    _require("rho", rho, _rho_problem(rho))
    y, q_upper, q_lower = dr_omega_offers(dist, tau_hat, rho)
    return OfferDecision(
        float(y), Method.DR_OMEGA,
        {"tau_hat": tau_hat, "rho": rho, "q_upper": float(q_upper),
         "q_lower": float(q_lower)},
    )


def solve_dr_s(dist: UnitDistribution, ball: BernoulliBall) -> OfferDecision:
    """Robust offer under chance-of-success ambiguity; see :func:`dr_s_rule`."""
    mu = float(dist.mean())
    q_hi = float(dist.quantile(ball.tau_hi))
    q_lo = float(dist.quantile(ball.tau_lo))
    y, branch = dr_s_rule(q_lo, q_hi, mu)
    return OfferDecision(
        float(y), Method.DR_S,
        {
            "tau_hat": ball.center, "tau_lo": ball.tau_lo, "tau_hi": ball.tau_hi,
            "q_lo": q_lo, "q_hi": q_hi, "mean": mu, "branch": DR_S_BRANCHES[int(branch)],
        },
    )


def solve_robust_s(dist: UnitDistribution) -> OfferDecision:
    """Limit of the chance-of-success-robust offer: the forecast mean."""
    mu = float(dist.mean())
    return OfferDecision(mu, Method.ROBUST_S, {"mean": mu})


def solve_robust_omega(tau_hat: float) -> OfferDecision:
    """Limit of the forecast-robust offer: the estimated chance of success."""
    tau_hat = float(_validate_prob(tau_hat, "tau_hat"))
    return OfferDecision(tau_hat, Method.ROBUST_OMEGA, {"tau_hat": tau_hat})


class WorstCaseCdf(UnitDistribution):
    """The adversarial distribution behind the forecast-ambiguity solution.

    Follows the upper band below its tau_hat-quantile, plateaus at level
    tau_hat between the two band quantiles, and follows the lower band
    above. The plateau makes every offer between the two quantiles an
    expected-loss minimizer at level tau_hat.
    """

    def __init__(self, upper: UnitDistribution, lower: UnitDistribution, level: float):
        self.upper = upper
        self.lower = lower
        self.level = float(_validate_prob(level, "level"))
        self.q_lo = float(upper.quantile(self.level))
        self.q_hi = float(lower.quantile(self.level))
        if self.q_lo > self.q_hi + 1e-12:
            raise ValueError("upper-band quantile exceeds lower-band quantile")

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.where(
            arr < self.q_lo,
            np.asarray(self.upper.cdf(arr), dtype=float),
            np.where(arr < self.q_hi, self.level, np.asarray(self.lower.cdf(arr), dtype=float)),
        )
        return _match_input(x, out)

    def quantile(self, p):
        arr = _validate_prob(p, "p")
        below = np.asarray(self.upper.quantile(np.minimum(arr, self.level)), dtype=float)
        above = np.maximum(np.asarray(self.lower.quantile(arr), dtype=float), self.q_hi)
        # at the plateau level the generalized inverse is its left endpoint
        out = np.where(arr <= self.level, np.minimum(below, self.q_lo), above)
        return _match_input(p, out)

    def _cdf_integral(self, y: np.ndarray) -> np.ndarray:
        """Integral of the CDF over [0, y], elementwise, split at the plateau edges.

        The band pieces reuse the component partial expectations, so no
        integral ever crosses the plateau discontinuities.
        """
        below = self.upper.partial_expectations(np.minimum(y, self.q_lo))[0]
        plateau = self.level * (np.clip(y, self.q_lo, self.q_hi) - self.q_lo)
        above = (self.lower.partial_expectations(np.maximum(y, self.q_hi))[0]
                 - self.lower.partial_expectations(self.q_hi)[0])
        return below + plateau + above

    def mean(self) -> float:
        return float(1.0 - self._cdf_integral(1.0))

    def __repr__(self) -> str:
        return f"WorstCaseCdf(level={self.level:g}, plateau=[{self.q_lo:g}, {self.q_hi:g}])"


def worst_case_cdf(dist: UnitDistribution, tau_hat: float, rho: float) -> UnitDistribution:
    """Adversarial CDF attaining the forecast-ambiguity worst case.

    At ``rho = 0`` the plateau has zero width and the reference itself is
    returned; at ``rho = 1`` the result is the two-point distribution with
    mass ``tau_hat`` at 0 and ``1 - tau_hat`` at 1.
    """
    tau_hat = float(_validate_prob(tau_hat, "tau_hat"))
    rho = float(rho)
    _require("rho", rho, _rho_problem(rho))
    if rho == 0.0:
        return dist
    if rho == 1.0:
        return WorstCaseCdf(Heaviside(0.0), Heaviside(1.0), tau_hat)
    return WorstCaseCdf(deform_upper(dist, rho), deform_lower(dist, rho), tau_hat)
