"""Ambiguity sets around predictive distributions.

Two families: first-order stochastic dominance bands around a generation
CDF, produced by double-power deformation operators with radius ``rho``,
and interval balls around the estimated Bernoulli chance of success with
radius ``epsilon``.

The operator pair used here is

    upper(u) = (1 - (1 - u)^(1/(1-rho)))^(1-rho)
    lower(u) = 1 - (1 - u^(1/(1-rho)))^(1-rho)

which interpolates between the identity at rho = 0 and the Heaviside
bounds as rho -> 1, and satisfies the reflection identity
``upper(1 - u) = 1 - lower(u)``. The two maps are mutual inverses on
[0, 1], so each operator's inverse is simply the mirror operator.

With beta = 1 - rho, the substitution t = (1 - u)^(1/beta) (resp.
t = u^(1/beta)) turns the integral of either operator over [0, a] into an
incomplete beta function, which gives bands around a piecewise-linear
forecast their moments in closed form.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import (
    PiecewiseLinear,
    UnitDistribution,
    _match_input,
    _validate_prob,
)

__all__ = [
    "double_power_upper",
    "double_power_lower",
    "DeformedCdf",
    "deform_upper",
    "deform_lower",
    "band_levels",
    "bands_from_quantiles",
    "BallKind",
    "BernoulliBall",
    "ball_bounds",
    "make_bernoulli_ball",
]

# level-adjusted radii beyond this are fully clipped anyway
MAX_LEVEL_ADJUSTED_EPSILON = 10.0


# The one range of each ambiguity parameter: a predicate returns what keeps a
# value out of it, or None, and asks "inside", so that NaN fails.
def _epsilon_problem(epsilon, level_adjusted: bool) -> str | None:
    if level_adjusted:
        return (None if 0.0 <= epsilon <= MAX_LEVEL_ADJUSTED_EPSILON
                else f"must lie in [0, {MAX_LEVEL_ADJUSTED_EPSILON}] for level-adjusted balls")
    return None if epsilon >= 0.0 else "must be non-negative"


def _theta_problem(theta) -> str | None:
    return None if 0.0 <= theta < 1.0 else "must lie in [0, 1)"


def _rho_problem(rho) -> str | None:  # DR-omega reads rho = 1 as the Heaviside bands
    return None if 0.0 <= rho <= 1.0 else "must lie in [0, 1]"


def _require(name: str, value, problem: str | None) -> None:
    """Raise ``"<name> <problem>, got <value>"`` if a predicate found a problem."""
    if problem:
        raise ValueError(f"{name} {problem}, got {value}")


def _check_rho(rho: float) -> float:
    rho = float(rho)
    _require("deformation radius", rho, None if 0.0 <= rho < 1.0 else "must lie in [0, 1)")
    return rho


def double_power_upper(u, rho: float):
    """Push CDF values toward 1 (mass toward the lower support bound)."""
    rho = _check_rho(rho)
    arr = _validate_prob(u, "u")
    with np.errstate(divide="ignore"):
        return _match_input(u, _power(double_power_upper, arr, 1.0 - rho))


def double_power_lower(u, rho: float):
    """Push CDF values toward 0 (mass toward the upper support bound)."""
    rho = _check_rho(rho)
    arr = _validate_prob(u, "u")
    with np.errstate(divide="ignore"):
        return _match_input(u, _power(double_power_lower, arr, 1.0 - rho))


def _power(op, arr: np.ndarray, beta: float) -> np.ndarray:
    """``op(arr)`` at ``beta = 1 - rho``, for levels and a radius already checked."""
    if op is double_power_upper:
        inner = -np.expm1(np.log1p(-arr) / beta)  # 1 - (1-u)^(1/beta), stable near 0 and 1
        return np.power(inner, beta)
    root = np.exp(np.log(arr) / beta)  # u^(1/beta)
    return -np.expm1(beta * np.log1p(-root))


# each band side's operator and its inverse, the mirror operator
_OPERATORS = {"upper": (double_power_upper, double_power_lower),
              "lower": (double_power_lower, double_power_upper)}


def _complement(op, u, rho: float):
    """``1 - op(u, rho)`` for checked levels and radius, without the rounding of the subtraction."""
    beta = 1.0 - rho
    with np.errstate(divide="ignore"):
        if op is double_power_upper:
            # 1 - (1 - (1-u)^(1/beta))^beta
            return -np.expm1(beta * np.log1p(-np.exp(np.log1p(-u) / beta)))
        # (1 - u^(1/beta))^beta
        return np.exp(beta * np.log1p(-np.exp(np.log(u) / beta)))


def _operator_integral(op, a: np.ndarray, rho: float) -> np.ndarray:
    """Integral of ``op`` over [0, a], elementwise, in closed form.

    With beta = 1 - rho, c = beta * B(beta, beta + 1) and I the regularized
    incomplete beta function I(beta, beta + 1):
    upper: c * (1 - I((1 - a)^(1/beta))); lower: a - c * I(a^(1/beta)).
    Both arguments are formed from powers, which stay accurate where the
    operators are within rounding of 0 or 1.
    """
    from scipy import special

    beta = 1.0 - rho
    c = np.exp(2.0 * special.gammaln(beta + 1.0) - special.gammaln(2.0 * beta + 1.0))
    with np.errstate(divide="ignore"):
        if op is double_power_upper:
            return c * (1.0 - special.betainc(beta, beta + 1.0, np.exp(np.log1p(-a) / beta)))
        return a - c * special.betainc(beta, beta + 1.0, np.exp(np.log(a) / beta))


class DeformedCdf(UnitDistribution):
    """A reference CDF deformed pointwise by a double-power operator.

    Quantiles compose the reference quantile with the mirror operator, the
    closed-form inverse (:func:`band_levels`); no root finding is involved.
    Where the mirror level rounds to 1, the reference's upper end is read at
    the level's exact complement instead (:func:`bands_from_quantiles`). Over a
    :class:`PiecewiseLinear` reference the mean and partial expectations
    are exact: substituting x = Q_ref(u) gives
    ``under(y) = sum over segments of slope * (integral of the operator
    over the segment's levels up to F_ref(y))``, an incomplete-beta term
    (see :meth:`_cdf_integral`). Other references use the default
    quantile-domain rule.
    """

    def __init__(self, reference: UnitDistribution, rho: float, side: str):
        if side not in ("upper", "lower"):
            raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
        self.reference = reference
        self.rho = _check_rho(rho)
        self.side = side
        self._op, self._mirror = _OPERATORS[side]

    def cdf(self, x):
        return self._op(self.reference.cdf(x), self.rho)

    def quantile(self, p):
        arr, sides = _validate_prob(p, "p"), (self.side,)
        u = band_levels(arr, self.rho, sides)
        q = self.reference.quantile(u)
        return _match_input(p, bands_from_quantiles(self.reference, arr, self.rho, sides, u, q)[0])

    # the moment rules call these two with levels in [0, 1] and this band's checked radius
    def _quantile_below(self, p):
        with np.errstate(divide="ignore"):
            u = _power(self._mirror, p, 1.0 - self.rho)
        return self._reference_at(u, _complement(self._mirror, p, self.rho))

    def _quantile_above(self, s):
        # the reflection identity gives mirror(1 - s) = 1 - op(s)
        with np.errstate(divide="ignore"):
            c = _power(self._op, s, 1.0 - self.rho)
        return self._reference_at(_complement(self._op, s, self.rho), c)

    def _reference_at(self, u, c):
        """The reference quantile at levels u = 1 - c, from whichever end is nearer.

        The moment rule needs it: u may round to 1 where c is still exact.
        """
        below = self.reference._quantile_below(np.minimum(u, 0.5))
        above = self.reference._quantile_above(np.minimum(c, 0.5))
        return np.where(u <= 0.5, below, above)

    def _cdf_integral(self, y) -> np.ndarray:
        """Integral of this CDF over [0, y], exact for a PiecewiseLinear reference.

        Segment i of the reference, clipped to levels [a, b] at most
        F_ref(y), adds its value rise times the operator's mean over [a, b].
        That mean is a difference quotient of the closed-form integral,
        clamped to [op(a), op(b)], the range the mean of an increasing
        function must lie in; the clamp keeps a narrow, steep segment from
        amplifying rounding in the difference.
        """
        if not isinstance(self.reference, PiecewiseLinear):
            return super()._cdf_integral(y)
        ps, xs = self.reference._ps, self.reference._xs
        y = np.asarray(y, dtype=float)[..., None]
        levels = np.minimum(ps, self.reference.cdf(y))
        rise = np.diff(np.minimum(xs, y), axis=-1)
        op = self._op(levels, self.rho)
        with np.errstate(divide="ignore", invalid="ignore"):
            quotient = np.diff(_operator_integral(self._op, levels, self.rho), axis=-1) \
                / np.diff(levels, axis=-1)
        # fmax/fmin pass over the NaN of a zero-width segment's 0/0
        mean_op = np.fmin(np.fmax(quotient, op[..., :-1]), op[..., 1:])
        return (rise * mean_op).sum(axis=-1)

    def mean(self) -> float:
        if not isinstance(self.reference, PiecewiseLinear):
            return super().mean()
        return float(1.0 - self._cdf_integral(1.0))

    def __repr__(self) -> str:
        return f"DeformedCdf({self.reference!r}, rho={self.rho:g}, side={self.side!r})"


def band_levels(p: np.ndarray, rho: float, sides: Sequence[str]) -> np.ndarray:
    """The reference levels whose quantiles give the band quantiles at levels ``p``.

    Row ``k`` is the mirror operator of side ``sides[k]`` at ``p``; every row
    is read in one reference quantile call, then passed to
    :func:`bands_from_quantiles`. ``p`` and ``rho`` in [0, 1) are the
    caller's to validate. ``rho`` is one scalar: ``np.power`` rounds a
    scalar exponent of 0.5 as a square root, so an exponent array could
    change the levels' bits.
    """
    beta = 1.0 - rho
    with np.errstate(divide="ignore"):
        return np.array([_power(_OPERATORS[side][1], p, beta) for side in sides])


def bands_from_quantiles(reference, p: np.ndarray, rho: float, sides: Sequence[str],
                         u: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The band quantiles, from ``q``, the reference quantiles at ``u = band_levels(p, rho, sides)``.

    Row ``k`` holds the band on side ``sides[k]``. ``reference`` is a
    distribution or a :class:`PiecewiseLinearBatch`. A level that rounds to
    1 while ``p < 1`` would lose the reference's upper tail, so there the
    quantile is read from the upper end, at the level's exact complement,
    in one more reference call. ``p`` and ``rho`` in [0, 1) are the
    caller's to validate, as for :func:`band_levels`.
    """
    top = (u == 1.0) & (p < 1.0)
    if top.any():
        mirrors = [_OPERATORS[side][1] for side in sides]
        s = np.where(top, np.stack([_complement(op, p, rho) for op in mirrors]), 0.0)
        q = np.where(top, reference._quantile_above(s), q)
    return q


def deform_upper(reference: UnitDistribution, rho: float) -> DeformedCdf:
    """Upper FSD bound of the reference at radius ``rho`` in [0, 1)."""
    return DeformedCdf(reference, rho, "upper")


def deform_lower(reference: UnitDistribution, rho: float) -> DeformedCdf:
    """Lower FSD bound of the reference at radius ``rho`` in [0, 1)."""
    return DeformedCdf(reference, rho, "lower")


class BallKind(Enum):
    UNIFORM = "uniform"
    LEVEL_ADJUSTED = "level_adjusted"


@dataclass(frozen=True)
class BernoulliBall:
    """Interval of plausible chances of success around an estimate.

    With no ``shape`` the ball is uniform, with a shape ``theta`` level-adjusted.
    """

    center: float
    radius: float
    shape: float | None = None

    def __post_init__(self):
        _validate_prob(self.center, "ball center")
        # a NaN or negative radius is blamed on its sign, whatever the kind
        _require("ball radius", self.radius, _epsilon_problem(self.radius, level_adjusted=False))
        if self.shape is not None:
            _require("theta", self.shape, _theta_problem(self.shape))
            _require("ball radius", self.radius, _epsilon_problem(self.radius, level_adjusted=True))

    @property
    def kind(self) -> BallKind:
        return BallKind.UNIFORM if self.shape is None else BallKind.LEVEL_ADJUSTED

    @property
    def tau_lo(self) -> float:
        return float(ball_bounds(self.center, self.radius, self.shape or 0.0)[0])

    @property
    def tau_hi(self) -> float:
        return float(ball_bounds(self.center, self.radius, self.shape or 0.0)[1])


def ball_bounds(tau_hat, epsilon, theta=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper ball bounds around estimates ``tau_hat``, elementwise.

    The half-width is ``epsilon * (1 - 4*theta*tau_hat*(1-tau_hat))``: the
    level-adjusted ball, and at ``theta = 0`` (a factor of exactly 1) the
    uniform ball. The bounds are clipped to [0, 1]. The arguments broadcast
    and are the caller's to check (see :class:`BernoulliBall`).
    """
    half = epsilon * (1.0 - 4.0 * theta * tau_hat * (1.0 - tau_hat))
    return np.maximum(tau_hat - half, 0.0), np.minimum(tau_hat + half, 1.0)


def make_bernoulli_ball(
    tau_hat: float,
    epsilon: float,
    kind: BallKind | str = BallKind.UNIFORM,
    theta: float | None = None,
) -> BernoulliBall:
    """Build a uniform or level-adjusted ball around the estimate ``tau_hat``.

    A uniform ball takes no ``theta``; a level-adjusted one needs it.
    """
    tau_hat = float(_validate_prob(tau_hat, "tau_hat"))
    if BallKind(kind) is BallKind.UNIFORM:
        if theta is not None:
            raise ValueError("theta only applies to level-adjusted balls")
    elif theta is None:
        raise ValueError("level-adjusted balls require a shape parameter theta")
    return BernoulliBall(tau_hat, float(epsilon), None if theta is None else float(theta))
