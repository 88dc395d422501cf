"""Monte-Carlo study of offer rules under estimation noise.

One experiment is a :class:`SimConfig` and an estimation sample size
``m``. Each replicate observes ``m`` Bernoulli outcomes, forms the
frequency estimate of the chance of success, and every arm (oracle, plain
newsvendor, robust, distributionally robust with uniform and
level-adjusted balls) prices its offer off that shared estimate. Offers
are scored with the analytic expected loss against the true distribution,
so the only sampled quantity is the estimate itself.

Block ``b`` of an ``m``-draw experiment reads the stream
``(master_seed, (m << 24) + b)``, whether it runs alone
(:func:`run_epsilon_sweep`) or as one point of :func:`run_m_sweep`, so the
two give equal results for equal inputs and each ``m`` has its own
stream family.

Because an ``m``-draw frequency estimate only takes the values ``k/m``,
replicates are drawn as binomial counts and aggregated per ``k`` before
scoring; this is numerically identical to scoring each replicate, and
the integer reduction makes results independent of the block order.
Everything runs serially in the calling thread.

Each block's counts are those of ``generator.binomial`` on the block's
stream, bit for bit, but are mostly found without it. With p = tau, or
p = 1 - tau and X read as m - X when tau > 1/2, numpy inverts wherever
p * m <= 30: one uniform U per variate, and X(U) counts how many pmf
terms the walk ``while U > px: U -= px`` passes. Comparisons with fixed
terms and rounded subtractions are monotone in U, so X(U) is
non-decreasing, and X(U) >= k exactly when U is at least a threshold t_k,
the least double whose walk passes k terms. A block is then one
``generator.random`` call (the same doubles numpy's walk reads), a sort,
one ``searchsorted`` against t_1, t_2, ... and one ``diff``. The terms and
thresholds repeat numpy's arithmetic operation for operation, from the
first term ``exp(m * log1p(-p))`` that numpy 2 computes. All thresholds
of one ``m`` are computed before its first block, and its blocks share
them. The other cases call ``generator.binomial`` itself: outside that
regime (numpy's BTPE sampler, e.g. tau = 1/2 with m > 60) and at p = 0;
and, replayed from a fresh generator at the block's address, a block with
a draw at or above the last threshold, whose walk passes every term, so
numpy would have drawn again.
Either way the stream, and so every count and artifact, is what the
binomial call gives.

Every arm is priced from one loss table per experiment, with one quantile
call and one ``expected_loss`` call, so equal offers get bit-equal losses
whatever rule the distribution integrates by. Its ball rows price the true
quantile function Q only at the bounds that :func:`dr_s_rule` can select.
With p = F(mean): a level u > p has Q(u) > mean, so the upper-bound branch
cannot fire there, and a level u < p has Q(u) <= mean, so the lower-bound
branch cannot either. This holds for any distribution on [0, 1], atoms
included; a guard of 1e-9 in level units absorbs the rounding of F and Q.
Each priced value is the elementwise quantile it always was, so every
offer, curve and artifact is bit-identical to pricing both bounds of every
cell.

The table is scored only over the estimates k/m that some replicate drew;
every other column holds 0.0, in the constant oracle and robust rows too.
Results read the table only through count-weighted sums, the curves and
the per-block gammas, and a column with a zero total count is zero in
every block too. There its term is ``0 * loss = +0.0`` whichever loss the
column holds, so every sum, curve, gamma and artifact is bit-identical to
scoring every column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Mapping, Sequence

import numpy as np

from .ambiguity import _epsilon_problem, _require, _theta_problem, ball_bounds
from .distributions import RngStream, UnitDistribution, _validate_prob
from .economics import expected_loss
from .solvers import dr_s_rule

__all__ = [
    "SimConfig",
    "SimResult",
    "MSweepResult",
    "run_epsilon_sweep",
    "run_m_sweep",
    "gamma",
]

BLOCK_SIZE = 16384
# slack, in level units, for the rounding of ``cdf`` and ``quantile`` when
# _loss_table decides which ball bounds can become offers
_LEVEL_GUARD = 1e-9
_ARM_UNIFORM = "dr_uniform"
_ARM_LEVEL_ADJUSTED = "dr_level_adjusted"


@dataclass(frozen=True)
class SimConfig:
    """Inputs of a simulated estimation-noise experiment, except its sample size ``m``."""

    true_dist: UnitDistribution
    true_tau: float
    n_replicates: int
    epsilon_grid: tuple[float, ...] = tuple(i / 100 for i in range(101))
    theta: float = 0.9
    ball_kinds: tuple[str, ...] = ("uniform", "level_adjusted")
    master_seed: int = 0

    def __post_init__(self):
        _validate_prob(self.true_tau, "true_tau")
        if self.n_replicates < 1:
            raise ValueError(f"need at least one replicate, got {self.n_replicates}")
        grid = np.asarray(self.epsilon_grid, dtype=float)
        if grid.size == 0:
            raise ValueError("epsilon grid is empty")
        # the grid's least and greatest radii bound it, and a NaN makes both NaN
        level_adjusted = "level_adjusted" in self.ball_kinds
        for end in (float(grid.min()), float(grid.max())):
            _require("epsilon grid", end, _epsilon_problem(end, level_adjusted))
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("epsilon grid must be strictly ascending")
        _require("theta", self.theta, _theta_problem(self.theta))
        unknown = set(self.ball_kinds) - {"uniform", "level_adjusted"}
        if unknown:
            raise ValueError(f"unknown ball kinds: {sorted(unknown)}")


@dataclass(frozen=True)
class SimResult:
    """Per-arm expected-loss curves over the config's radius grid plus the gamma scores."""

    curves: Mapping[str, np.ndarray]
    gamma_u: float | None
    gamma_la: float | None
    best_epsilon: Mapping[str, float]
    gamma_se: Mapping[str, float]
    gamma_diff_se: float | None
    tau_hat_counts: np.ndarray


@dataclass(frozen=True)
class MSweepResult:
    """Gamma as a function of the estimation sample size."""

    m_values: np.ndarray
    gamma_u: np.ndarray
    gamma_la: np.ndarray
    gamma_u_se: np.ndarray
    gamma_la_se: np.ndarray
    gamma_diff_se: np.ndarray


def gamma(l_bn: float, l_o: float, l_dr_star: float) -> float:
    """Share of the newsvendor-to-oracle loss gap recovered by the robust arm."""
    if not l_bn > l_o:
        raise ValueError(
            f"performance measure undefined: newsvendor loss {l_bn} "
            f"does not exceed oracle loss {l_o}"
        )
    return (l_bn - l_dr_star) / (l_bn - l_o)


def _draw_count_blocks(config: SimConfig, m: int) -> np.ndarray:
    """Binomial successes per replicate, bucketed by count, one row per block.

    Block ``b`` draws from the stream (master_seed, (m << 24) + b); the
    integer rows make any later reduction order-independent. Every block
    shares the inversion thresholds, computed once per call.
    """
    n, tau = config.n_replicates, config.true_tau
    thresholds = _numpy_thresholds(m, tau)
    return np.vstack([
        _binomial_counts(RngStream(config.master_seed, (m << 24) + b), m, tau,
                         min(BLOCK_SIZE, n - start), thresholds)
        for b, start in enumerate(range(0, n, BLOCK_SIZE))
    ])


def _binomial_counts(stream: RngStream, m: int, tau: float, size: int,
                     thresholds: np.ndarray | None) -> np.ndarray:
    """``np.bincount(stream.generator.binomial(m, tau, size), minlength=m + 1)``, bit for bit.

    ``thresholds`` is :func:`_numpy_thresholds` of ``(m, tau)``. Where numpy
    inverts (see the module docstring), a variate is at least k exactly
    when its uniform draw is at least t_k, so the counts follow from the
    sorted draws. Where numpy does not invert (``thresholds`` is None) the
    block is drawn as numpy draws it, and so is a block with a draw at or
    above the last threshold, which numpy would draw again, from a fresh
    generator at the stream's address.
    """
    if thresholds is None:
        return _reference_counts(stream, m, tau, size)
    u = stream.generator.random(size)
    u.sort()
    if u[-1] >= thresholds[-1]:
        return _reference_counts(replace(stream), m, tau, size)
    counts = np.zeros(m + 1, dtype=np.int64)
    counts[:len(thresholds)] = np.diff(u.searchsorted(thresholds), prepend=0)
    return counts[::-1] if tau > 0.5 else counts


def _reference_counts(stream: RngStream, m: int, tau: float, size: int) -> np.ndarray:
    return np.bincount(stream.generator.binomial(m, tau, size=size), minlength=m + 1).astype(np.int64)


def _numpy_thresholds(m: int, tau: float) -> np.ndarray | None:
    """The thresholds t_1 .. t_L of numpy's inversion walk for ``(m, tau)``, one per pmf term.

    None where numpy does not invert.
    """
    p = tau if tau <= 0.5 else 1.0 - tau
    if p == 0.0 or p * m > 30.0:
        return None
    return np.array(_count_thresholds(_inversion_terms(m, p)))


def _inversion_terms(m: int, p: float) -> list[float]:
    """The pmf terms numpy's inversion walk subtracts, X = 0 .. its bound.

    Written as numpy 2's ``random_binomial_inversion`` computes them, one
    IEEE operation for another, from the first term ``exp(m * log1p(-p))``.
    """
    q = 1.0 - p
    bound = int(min(m, m * p + 10.0 * math.sqrt(m * p * q + 1)))
    terms = [math.exp(m * math.log1p(-p))]
    for x in range(1, bound + 1):
        terms.append(((m - x + 1) * p * terms[-1]) / (x * q))
    return terms


def _count_thresholds(terms: list[float]) -> list[float]:
    """For k = 1 .. len(terms), the least double ``u`` whose walk passes ``terms[:k]``.

    Each is found backwards from the last step: the least remainder above
    ``terms[k - 1]``, then for each earlier term ``c`` the least ``r`` whose
    rounded ``r - c`` reaches the remainder found so far. That difference
    is non-decreasing in ``r``, so a walk of a few ulps from ``s + c``
    finds it.
    """
    nextafter, inf = math.nextafter, math.inf
    thresholds = []
    for k in range(1, len(terms) + 1):
        s = nextafter(terms[k - 1], inf)
        for c in reversed(terms[:k - 1]):
            r = s + c
            while r - c < s:
                r = nextafter(r, inf)
            while (below := nextafter(r, -inf)) - c >= s:
                r = below
            s = r
        thresholds.append(s)
    return thresholds


def _losses_for_offers(dist: UnitDistribution, tau_true: float, offers: np.ndarray) -> np.ndarray:
    flat = np.asarray(offers, dtype=float).ravel()
    uniq, inverse = np.unique(flat, return_inverse=True)
    vals = np.asarray(expected_loss(dist, uniq, tau_true), dtype=float)
    return vals[inverse].reshape(np.shape(offers))


def _loss_table(config: SimConfig, m: int, columns: np.ndarray) -> np.ndarray:
    """Expected loss per (row, tau_hat value): oracle, bn, robust, then each ball kind's grid.

    Only the tau_hat columns ``columns`` are scored; the others hold 0.0.
    Only the ball bounds :func:`dr_s_rule` can pick are priced; the others
    enter the rule as ``+inf`` (upper) and ``-inf`` (lower), which it never
    selects (see the module docstring).
    """
    dist, tau = config.true_dist, config.true_tau
    grid = np.asarray(config.epsilon_grid, dtype=float)
    tau_hats = columns / m
    thetas = np.array([config.theta if kind == "level_adjusted" else 0.0
                       for kind in config.ball_kinds])
    lo, hi = ball_bounds(tau_hats, grid[:, None], thetas[:, None, None])
    mean = dist.mean()
    p = float(dist.cdf(mean))
    at_hi, at_lo = hi <= p + _LEVEL_GUARD, lo >= p - _LEVEL_GUARD
    levels, inverse = np.unique(np.concatenate((tau_hats, [tau], hi[at_hi], lo[at_lo])),
                                return_inverse=True)
    priced = np.asarray(dist.quantile(levels), dtype=float)[inverse]
    n = tau_hats.size
    q_hi, q_lo = np.full(hi.shape, np.inf), np.full(lo.shape, -np.inf)
    q_hi[at_hi], q_lo[at_lo] = np.split(priced[n + 1:], [np.count_nonzero(at_hi)])
    dr_offers, _ = dr_s_rule(q_lo, q_hi, mean)
    offers = np.vstack((np.full(n, priced[n]), priced[:n], np.full(n, mean),
                        dr_offers.reshape(-1, n)))
    table = np.zeros((len(offers), m + 1))
    table[:, columns] = _losses_for_offers(dist, tau, offers)
    return table


def _block_gammas(counts_blocks: np.ndarray, bn_row: np.ndarray,
                  l_oracle: float, dr_column: np.ndarray) -> np.ndarray:
    sizes = counts_blocks.sum(axis=1)
    l_bn = counts_blocks @ bn_row / sizes
    l_dr = counts_blocks @ dr_column / sizes
    denom = l_bn - l_oracle
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0.0, (l_bn - l_dr) / denom, np.nan)


def _se(values: np.ndarray) -> float | None:
    values = values[np.isfinite(values)]
    if values.size < 2:
        return None
    return float(values.std(ddof=1) / np.sqrt(values.size))


def run_epsilon_sweep(config: SimConfig, m: int) -> SimResult:
    """Expected-loss curves over the radius grid plus the gamma scores, from ``m``-draw estimates.

    Deterministic for a given master seed; all arms are scored against
    the same estimate draws.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    grid = np.asarray(config.epsilon_grid, dtype=float)
    counts_blocks = _draw_count_blocks(config, m)
    counts = counts_blocks.sum(axis=0)
    seen = np.flatnonzero(counts)
    # the float64 array np.dot would cast the int64 counts to on each call
    weights = counts.astype(float)
    n = float(config.n_replicates)

    def average(row: np.ndarray) -> float:
        # one shared reduction for every arm, so equal per-estimate losses
        # yield bit-equal curve values (the epsilon-endpoint identities)
        return float(np.dot(row, weights) / n)

    table = _loss_table(config, m, seen)
    l_oracle, l_bn, l_robust = (average(row) for row in table[:3])

    curves: dict[str, np.ndarray] = {
        "oracle": np.full(grid.size, l_oracle),
        "bn": np.full(grid.size, l_bn),
        "robust": np.full(grid.size, l_robust),
    }
    gammas: dict[str, float] = {}
    best_eps: dict[str, float] = {}
    ses: dict[str, float] = {}
    diff_blocks: dict[str, np.ndarray] = {}
    for kind, rows in zip(config.ball_kinds, table[3:].reshape(-1, grid.size, m + 1)):
        arm = _ARM_UNIFORM if kind == "uniform" else _ARM_LEVEL_ADJUSTED
        curve = np.array([average(row) for row in rows])
        curves[arm] = curve
        idx = int(np.argmin(curve))
        best_eps[arm] = float(grid[idx])
        gammas[arm] = gamma(l_bn, l_oracle, float(curve[idx]))
        g_blocks = _block_gammas(counts_blocks, table[1], l_oracle, rows[idx])
        diff_blocks[arm] = g_blocks
        se = _se(g_blocks)
        if se is not None:
            ses[arm] = se

    diff_se = None
    if _ARM_UNIFORM in diff_blocks and _ARM_LEVEL_ADJUSTED in diff_blocks:
        diff_se = _se(diff_blocks[_ARM_LEVEL_ADJUSTED] - diff_blocks[_ARM_UNIFORM])

    return SimResult(
        curves=curves,
        gamma_u=gammas.get(_ARM_UNIFORM),
        gamma_la=gammas.get(_ARM_LEVEL_ADJUSTED),
        best_epsilon=best_eps,
        gamma_se=ses,
        gamma_diff_se=diff_se,
        tau_hat_counts=counts,
    )


def run_m_sweep(config: SimConfig, m_values: Sequence[int]) -> MSweepResult:
    """Gamma versus estimation sample size, optimal radius per m.

    The point at m is ``run_epsilon_sweep(config, m)``, bit for bit: every
    m reads its own stream family, so the curve is deterministic and
    insensitive to which m values are requested.
    """
    m_values = np.asarray(sorted(int(m) for m in m_values), dtype=int)
    if m_values.size == 0:
        raise ValueError("no m values to sweep")
    results = [run_epsilon_sweep(config, int(m)) for m in m_values]

    def column(value) -> np.ndarray:
        # None (an arm not swept, or a standard error of fewer than two blocks) reads NaN
        return np.array([np.nan if v is None else v for v in map(value, results)])

    return MSweepResult(
        m_values=m_values,
        gamma_u=column(attrgetter("gamma_u")),
        gamma_la=column(attrgetter("gamma_la")),
        gamma_u_se=column(lambda res: res.gamma_se.get(_ARM_UNIFORM)),
        gamma_la_se=column(lambda res: res.gamma_se.get(_ARM_LEVEL_ADJUSTED)),
        gamma_diff_se=column(attrgetter("gamma_diff_se")),
    )
