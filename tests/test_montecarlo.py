"""Estimation-noise sweeps: endpoint identities, determinism, loss curves."""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from drnewsvendor import (
    Beta,
    Heaviside,
    PiecewiseLinear,
    SimConfig,
    Uniform01,
    deform_lower,
    deform_upper,
    expected_loss,
    gamma,
    run_epsilon_sweep,
    run_m_sweep,
)
from drnewsvendor import montecarlo
from drnewsvendor.ambiguity import ball_bounds
from drnewsvendor.distributions import RngStream
from drnewsvendor.montecarlo import (
    BLOCK_SIZE,
    _binomial_counts,
    _count_thresholds,
    _draw_count_blocks,
    _inversion_terms,
    _loss_table,
    _losses_for_offers,
    _numpy_thresholds,
)
from drnewsvendor.cli import dispatch
from drnewsvendor.solvers import dr_s_rule


def small_config(**kw):
    defaults = dict(
        true_dist=Beta(2, 6), true_tau=0.75, n_replicates=50_000,
        epsilon_grid=tuple(np.round(np.arange(0.0, 1.001, 0.05), 10)),
        master_seed=99,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def test_gamma_definition():
    assert gamma(0.06, 0.05, 0.06) == 0.0
    assert gamma(0.06, 0.05, 0.05) == 1.0
    assert gamma(0.06, 0.05, 0.055) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        gamma(0.05, 0.05, 0.04)
    with pytest.raises(ValueError):
        gamma(0.04, 0.05, 0.03)


def test_dr_curve_endpoints_exact():
    res = run_epsilon_sweep(small_config(), 10)
    assert res.curves["dr_uniform"][0] == res.curves["bn"][0]
    assert res.curves["dr_uniform"][-1] == res.curves["robust"][0]
    # level-adjusted starts at the newsvendor point too
    assert res.curves["dr_level_adjusted"][0] == res.curves["bn"][0]


@pytest.mark.parametrize("deform", [deform_upper, deform_lower])
def test_dr_curve_endpoints_exact_under_the_quadrature_rule(deform):
    # a deformed Beta takes its partial expectations from the quadrature
    # rule, whose sums round with the shape of the offers priced; equal
    # offers still get equal losses
    dist = deform(Beta(2, 6), 0.3)
    res = run_epsilon_sweep(small_config(true_dist=dist, n_replicates=20_000,
                                         epsilon_grid=(0.0, 0.1, 0.5, 1.0)), 10)
    assert res.curves["dr_uniform"][0] == res.curves["bn"][0]
    assert res.curves["dr_uniform"][-1] == res.curves["robust"][0]
    assert res.curves["dr_level_adjusted"][0] == res.curves["bn"][0]


def test_flat_arms_and_oracle_floor():
    res = run_epsilon_sweep(small_config(), 10)
    for arm in ("oracle", "bn", "robust"):
        assert np.all(res.curves[arm] == res.curves[arm][0])
    floor = res.curves["oracle"][0]
    for arm, curve in res.curves.items():
        assert np.all(curve >= floor - 1e-12), arm


def test_dr_uniform_curve_continuity():
    # Near eps=0 the curve follows the reference quantile into its thin tail,
    # so steps shrink with refinement only at a fractional-power rate; in the
    # interior the curve is Lipschitz.
    coarse = run_epsilon_sweep(small_config(
        epsilon_grid=tuple(np.round(np.arange(0.0, 1.001, 0.02), 10))), 10)
    fine_config = small_config(epsilon_grid=tuple(np.round(np.arange(0.0, 1.0001, 0.005), 10)))
    fine = run_epsilon_sweep(fine_config, 10)
    step_c = np.max(np.abs(np.diff(coarse.curves["dr_uniform"])))
    step_f = np.max(np.abs(np.diff(fine.curves["dr_uniform"])))
    assert step_c < 0.02
    assert step_f < step_c
    interior = np.asarray(fine_config.epsilon_grid)[:-1] >= 0.1
    assert np.max(np.abs(np.diff(fine.curves["dr_uniform"]))[interior]) < 1e-3


def test_determinism_across_runs_and_seed_sensitivity():
    a = run_epsilon_sweep(small_config(), 10)
    b = run_epsilon_sweep(small_config(), 10)
    assert np.array_equal(a.tau_hat_counts, b.tau_hat_counts)
    c = run_epsilon_sweep(small_config(master_seed=100), 10)
    assert not np.array_equal(a.tau_hat_counts, c.tau_hat_counts)


def test_common_random_numbers_across_arms():
    # every arm consumes the same estimate draws: restricting the ball kinds
    # must not change the sampled counts
    both = run_epsilon_sweep(small_config(), 10)
    uni = run_epsilon_sweep(small_config(ball_kinds=("uniform",)), 10)
    assert np.array_equal(both.tau_hat_counts, uni.tau_hat_counts)
    assert np.array_equal(both.curves["dr_uniform"], uni.curves["dr_uniform"])
    assert uni.gamma_la is None


def test_counts_total_and_sampled_distribution():
    cfg = small_config()
    res = run_epsilon_sweep(cfg, 10)
    assert int(res.tau_hat_counts.sum()) == cfg.n_replicates
    # sampled tau-hat frequencies track the binomial law
    pmf = stats.binom.pmf(np.arange(11), 10, 0.75)
    freq = res.tau_hat_counts / cfg.n_replicates
    assert np.max(np.abs(freq - pmf)) < 0.01


def _reference_counts(stream: RngStream, m: int, tau: float, size: int) -> np.ndarray:
    return np.bincount(stream.generator.binomial(m, tau, size=size), minlength=m + 1)


@st.composite
def _count_cases(draw):
    m = draw(st.integers(1, 150))
    # p * m = 30 is where numpy switches from inversion to BTPE
    edge = min(1.0, 30.0 / m)
    near_edge = st.tuples(st.sampled_from([edge, 1.0 - edge]), st.floats(-1e-3, 1e-3)).map(
        lambda at: min(max(at[0] + at[1], 0.0), 1.0))
    tau = draw(st.one_of(st.sampled_from([0.0, 1.0, 0.5]), near_edge, st.floats(0.0, 1.0)))
    return m, tau, draw(st.integers(1, BLOCK_SIZE)), draw(st.integers(0, 2**32))


@settings(max_examples=150)
@given(_count_cases())
def test_binomial_counts_equal_numpys_on_the_same_stream(case):
    m, tau, size, seed = case
    counts = _binomial_counts(RngStream(seed, 5), m, tau, size, _numpy_thresholds(m, tau))
    assert counts.dtype == np.int64
    assert np.array_equal(counts, _reference_counts(RngStream(seed, 5), m, tau, size))


_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


@dataclass
class _FirstDrawStream(RngStream):
    """An ``RngStream`` whose first double is ``first``, a multiple of 2**-53.

    The PCG64 state is set so that its next output is that double's word:
    the generator steps its 128-bit LCG, then outputs the high half XOR the
    low half rotated right by the top six bits. Equal fields give equal
    streams, as for any ``RngStream``.
    """

    first: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        bits = self.generator.bit_generator
        state = bits.state
        high = state["state"]["state"] >> 64
        word, turn = int(self.first * 2.0**53) << 11, high >> 58
        low = high ^ (((word << turn) | (word >> (64 - turn))) & (2**64 - 1))
        state["state"]["state"] = (((high << 64 | low) - state["state"]["inc"])
                                   * pow(_PCG64_MULTIPLIER, -1, 2**128)) % 2**128
        bits.state = state
        probe = np.random.Generator(np.random.PCG64())
        probe.bit_generator.state = state
        assert probe.random() == self.first


_INVERTED = [(1, 0.3), (4, 0.3), (4, 0.7), (15, 0.75), (15, 0.3), (40, 0.5), (60, 0.5),
             (75, 0.75), (75, 0.25), (120, 0.2), (150, 0.19), (150, 0.81), (30, 1e-9)]


def _terms(m: int, tau: float) -> list[float]:
    """The pmf terms of numpy's inversion walk for ``(m, tau)``."""
    return _inversion_terms(m, tau if tau <= 0.5 else 1.0 - tau)


def _inversion_walk(u: float, terms: list[float]) -> int:
    """numpy's variate for the draw ``u``; ``len(terms)`` where numpy draws again."""
    for x, term in enumerate(terms):
        if not u > term:
            return x
        u -= term
    return len(terms)


@st.composite
def _inverting_cases(draw):
    m = draw(st.integers(1, 150))
    # p * m = 30 is where numpy switches from inversion to BTPE
    edge = min(1.0, 30.0 / m)
    near_edge = st.tuples(st.sampled_from([edge, 1.0 - edge]), st.floats(0.0, 1e-3)).map(
        lambda at: at[0] - at[1] if at[0] == edge else at[0] + at[1])
    tau = draw(st.one_of(st.just(1e-9), st.just(1.0 - 1e-9), near_edge,
                         st.floats(0.0, 1.0)).filter(lambda t: 0.0 < min(t, 1.0 - t) * m <= 30.0))
    return m, tau


@settings(max_examples=200)
@given(_inverting_cases())
def test_each_threshold_is_the_least_double_whose_walk_passes_k_terms(case):
    m, tau = case
    terms = _terms(m, tau)
    thresholds = _numpy_thresholds(m, tau)
    assert len(thresholds) == len(terms)
    assert np.all(np.diff(thresholds) >= 0.0)
    for k, t in enumerate(thresholds.tolist(), start=1):
        assert _inversion_walk(t, terms) >= k
        assert _inversion_walk(math.nextafter(t, -math.inf), terms) < k


@pytest.mark.parametrize("m, tau", _INVERTED)
def test_counts_split_the_draws_where_numpy_does(m, tau):
    # a first draw on either side of each threshold, on the 2**-53 grid of
    # numpy's doubles
    terms = _terms(m, tau)
    draws = set()
    for t in _count_thresholds(terms):
        at = math.ceil(t * 2.0**53)
        draws.update(i * 2.0**-53 for i in (at - 1, at) if 0 <= i < 2**53)
    draws = sorted(draws)
    thresholds = _numpy_thresholds(m, tau)
    for first in draws:
        assert np.array_equal(_binomial_counts(_FirstDrawStream(7, 3, first), m, tau, 5, thresholds),
                              _reference_counts(_FirstDrawStream(7, 3, first), m, tau, 5))
    # and the walk is numpy's own, at each of those draws it keeps
    kept = [d for d in draws if _inversion_walk(d, terms) < len(terms)]
    variates = [_FirstDrawStream(7, 3, first).generator.binomial(m, tau) for first in kept]
    walked = [x if tau <= 0.5 else m - x for x in (_inversion_walk(d, terms) for d in kept)]
    assert variates == walked


@pytest.mark.parametrize("m, tau", [(3, 0.35), (10, 0.45), (4, 0.7), (9, 0.55)])
def test_a_draw_numpy_would_redraw_replays_the_block(m, tau):
    # the first draw walks past the bound
    terms = _terms(m, tau)
    first = math.ceil(_count_thresholds(terms)[-1] * 2.0**53) * 2.0**-53
    assert first < 1.0 and _inversion_walk(first, terms) == len(terms)
    stream = _FirstDrawStream(7, 3, first)
    # numpy skips the draw: the first variate comes from the second double
    second = np.random.Generator(np.random.PCG64())
    second.bit_generator.state = stream.generator.bit_generator.state
    second.random()
    x = _inversion_walk(second.random(), terms)
    assert stream.generator.binomial(m, tau) == (x if tau <= 0.5 else m - x)
    thresholds = _numpy_thresholds(m, tau)
    for size in (1, 7, BLOCK_SIZE):
        assert np.array_equal(_binomial_counts(_FirstDrawStream(7, 3, first), m, tau, size, thresholds),
                              _reference_counts(_FirstDrawStream(7, 3, first), m, tau, size))


@pytest.mark.parametrize("m, tau", [(1, 0.3), (4, 0.7), (15, 0.75), (40, 0.3), (75, 0.25),
                                    (120, 0.2), (100, 0.5), (30, 1.0)])
def test_count_blocks_compute_each_threshold_once_per_walk(monkeypatch, m, tau):
    calls = []

    def counted(terms):
        calls.append(len(terms))
        return _count_thresholds(terms)

    monkeypatch.setattr(montecarlo, "_count_thresholds", counted)
    cfg = small_config(true_tau=tau, n_replicates=4 * BLOCK_SIZE + 17, master_seed=5)
    base = m << 24
    blocks = _draw_count_blocks(cfg, m)
    assert blocks.shape == (5, m + 1)
    for b, row in enumerate(blocks):
        size = min(BLOCK_SIZE, cfg.n_replicates - b * BLOCK_SIZE)
        assert np.array_equal(row, _reference_counts(RngStream(5, base + b), m, tau, size))
    # every block shares one threshold array, computed where numpy inverts
    assert len(calls) == (0.0 < min(tau, 1.0 - tau) * m <= 30.0)


@pytest.mark.parametrize("m, tau", [(1, 0.3), (15, 0.3), (40, 0.3), (75, 0.3), (15, 0.75),
                                    (75, 0.75), (4, 0.7), (60, 0.7)])
def test_inverted_block_counts_come_from_the_walk_and_are_never_replayed(monkeypatch, m, tau):
    def replayed(*args):
        raise AssertionError(f"block replayed: {args}")

    monkeypatch.setattr(montecarlo, "_reference_counts", replayed)
    cfg = small_config(true_tau=tau, n_replicates=4 * BLOCK_SIZE + 17, master_seed=5)
    base = m << 24
    blocks = _draw_count_blocks(cfg, m)
    assert blocks.shape == (5, m + 1)
    for b, row in enumerate(blocks):
        size = min(BLOCK_SIZE, cfg.n_replicates - b * BLOCK_SIZE)
        assert np.array_equal(row, _reference_counts(RngStream(5, base + b), m, tau, size))


@pytest.mark.parametrize("m, tau", [(61, 0.5), (100, 0.5), (150, 0.75), (121, 0.25), (10_000, 0.75)])
def test_btpe_counts_pass_through(m, tau):
    # p * m > 30: numpy samples by BTPE, and the counts are its own
    assert min(tau, 1.0 - tau) * m > 30.0
    assert _numpy_thresholds(m, tau) is None
    assert np.array_equal(_binomial_counts(RngStream(11, 2), m, tau, BLOCK_SIZE, None),
                          _reference_counts(RngStream(11, 2), m, tau, BLOCK_SIZE))


def test_dr_table_matches_scalar_solver():
    from drnewsvendor import BallKind, make_bernoulli_ball, solve_dr_s

    cfg = small_config()
    grid = np.asarray(cfg.epsilon_grid)
    # the rows after the oracle, bn, robust and uniform rows
    assert cfg.ball_kinds == ("uniform", "level_adjusted")
    table = _loss_table(cfg, 6, np.arange(7))[3 + grid.size:]
    for i in (0, 5, len(grid) - 1):
        for k in range(7):
            ball = make_bernoulli_ball(k / 6, float(grid[i]), BallKind.LEVEL_ADJUSTED,
                                       theta=cfg.theta)
            y = solve_dr_s(cfg.true_dist, ball).y_star
            expect = expected_loss(cfg.true_dist, y, cfg.true_tau)
            assert table[i, k] == pytest.approx(expect, abs=1e-14)


def test_every_table_cell_is_its_offers_scalar_loss(monkeypatch):
    # a deformed Beta prices its losses by quadrature: pricing the table's
    # offers together must not move a bit from pricing each one alone
    cfg = small_config(true_dist=deform_lower(Beta(2, 6), 0.3),
                       epsilon_grid=(0.0, 0.05, 0.1, 0.2, 0.4))
    priced = []

    def spy(dist, tau, offers):
        priced.append(offers)
        return _losses_for_offers(dist, tau, offers)

    monkeypatch.setattr(montecarlo, "_losses_for_offers", spy)
    columns = np.arange(13)
    table = _loss_table(cfg, 12, columns)
    [offers] = priced
    assert offers.shape == table.shape
    alone = {y: expected_loss(cfg.true_dist, y, cfg.true_tau) for y in np.unique(offers).tolist()}
    expect = np.vectorize(alone.__getitem__, otypes=[float])(offers)
    assert table.tobytes() == expect.tobytes()


def _unpruned_loss_table(config: SimConfig, m: int) -> np.ndarray:
    """The loss table with every estimate k/m and both ball bounds of every cell priced."""
    dist = config.true_dist
    grid = np.asarray(config.epsilon_grid, dtype=float)
    tau_hats = np.arange(m + 1, dtype=float) / m
    rows = [np.full(m + 1, float(dist.quantile(config.true_tau))),
            np.asarray(dist.quantile(tau_hats), dtype=float),
            np.full(m + 1, dist.mean())]
    for kind in config.ball_kinds:
        theta = config.theta if kind == "level_adjusted" else 0.0
        lo, hi = ball_bounds(tau_hats[None, :], grid[:, None], theta)
        offers, _ = dr_s_rule(np.asarray(dist.quantile(lo), dtype=float),
                              np.asarray(dist.quantile(hi), dtype=float), dist.mean())
        rows.extend(offers)
    return _losses_for_offers(dist, config.true_tau, np.array(rows))


@st.composite
def _atom_at_mean(draw) -> PiecewiseLinear:
    """A forecast symmetric about 1/2 with an atom there, on dyadic knots.

    Every knot is a multiple of 1/128, so the trapezoid mean is exactly 1/2
    and the atom sits at the distribution's own mean.
    """
    half = draw(st.integers(1, 8))
    steps = draw(st.lists(st.integers(1, 63 - half), min_size=1, max_size=6, unique=True))
    heights = sorted(draw(st.lists(st.integers(0, 64), min_size=len(steps), max_size=len(steps))))
    lower = np.array(sorted(steps)) / 128.0
    values = np.array(heights) / 128.0
    levels = np.concatenate((lower, [0.5 - half / 128.0, 0.5 + half / 128.0], 1.0 - lower[::-1]))
    return PiecewiseLinear(levels, np.concatenate((values, [0.5, 0.5], 1.0 - values[::-1])))


_ball_kinds = st.sampled_from([(), ("uniform",), ("level_adjusted",),
                               ("uniform", "level_adjusted"), ("level_adjusted", "uniform")])
_unit_dists = st.one_of(
    st.sampled_from([(0.5, 8.0), (8.0, 0.5)]).map(lambda ab: Beta(*ab)),
    st.tuples(st.floats(0.3, 20.0), st.floats(0.3, 20.0)).map(lambda ab: Beta(*ab)),
    _atom_at_mean(),
    st.floats(0.0, 1.0).map(Heaviside),
    st.just(Uniform01()),
)


@given(
    dist=_unit_dists,
    m=st.integers(1, 40),
    kinds=_ball_kinds,
    radii=st.lists(st.floats(0.0, 1.0), max_size=12),
    theta=st.floats(0.0, 0.99),
    tau=st.floats(0.05, 0.95),
)
def test_pruned_dr_table_is_bit_identical(dist, m, kinds, radii, theta, tau):
    if isinstance(dist, PiecewiseLinear):
        assert dist.mean() == 0.5 and dist.cdf(0.5) > dist.cdf(0.5 - 1e-12)
    grid = tuple(sorted({0.0, 1.0, *radii}))
    cfg = SimConfig(true_dist=dist, true_tau=tau, n_replicates=1,
                    epsilon_grid=grid, theta=theta, ball_kinds=kinds)
    table = _loss_table(cfg, m, np.arange(m + 1))
    assert table.shape == (3 + len(kinds) * len(grid), m + 1)
    assert table.tobytes() == _unpruned_loss_table(cfg, m).tobytes()


def _sweep_outputs(cfg: SimConfig, m: int, full_table: bool = False) -> str:
    """Every output of ``run_epsilon_sweep`` but its runtime, or its error, as exact text.

    With ``full_table`` the loss table prices every column, and both ball
    bounds of every cell.
    """
    with pytest.MonkeyPatch.context() as mp:
        if full_table:
            mp.setattr(montecarlo, "_loss_table",
                       lambda config, m, columns: _unpruned_loss_table(config, m))
        try:
            res = run_epsilon_sweep(cfg, m)
        except ValueError as exc:
            return f"ValueError: {exc}"
    return repr((
        [(arm, res.curves[arm].tobytes()) for arm in sorted(res.curves)],
        res.gamma_u, res.gamma_la, sorted(res.gamma_se.items()), res.gamma_diff_se,
        sorted(res.best_epsilon.items()), res.tau_hat_counts.tobytes(),
    ))


@settings(max_examples=150)
@given(
    dist=_unit_dists,
    m=st.one_of(st.integers(1, 40), st.integers(61, 200)),
    kinds=_ball_kinds,
    radii=st.lists(st.floats(0.0, 1.0), max_size=8),
    theta=st.floats(0.0, 0.99),
    tau=st.one_of(st.floats(0.0, 0.02), st.floats(0.98, 1.0), st.just(0.5), st.floats(0.2, 0.8)),
    n=st.integers(2 * BLOCK_SIZE + 1, 3 * BLOCK_SIZE),
    seed=st.integers(0, 2**32),
)
def test_sweep_over_seen_columns_is_bit_identical(dist, m, kinds, radii, theta, tau, n, seed):
    # m above 60 with tau in [0.2, 0.8] crosses p * m = 30, where numpy samples by BTPE
    cfg = SimConfig(true_dist=dist, true_tau=tau, n_replicates=n, ball_kinds=kinds,
                    epsilon_grid=tuple(sorted({0.0, 1.0, *radii})), theta=theta, master_seed=seed)
    assert _sweep_outputs(cfg, m) == _sweep_outputs(cfg, m, full_table=True)


def test_sparse_sweep_scores_only_seen_columns():
    cfg = small_config(n_replicates=3 * BLOCK_SIZE,
                       epsilon_grid=tuple(np.round(np.arange(0.0, 1.001, 0.05), 10)))
    counts = run_epsilon_sweep(cfg, 2000).tau_hat_counts
    seen = np.flatnonzero(counts)
    assert seen.size < 0.2 * counts.size
    assert _sweep_outputs(cfg, 2000) == _sweep_outputs(cfg, 2000, full_table=True)
    table = _loss_table(cfg, 2000, seen)
    full = _unpruned_loss_table(cfg, 2000)
    assert table[:, seen].tobytes() == full[:, seen].tobytes()
    assert not np.any(np.delete(table, seen, axis=1))


class _CountingBeta(Beta):
    """Beta that records how many levels each quantile call prices."""

    def __init__(self, a, b):
        super().__init__(a, b)
        self.priced = []

    def quantile(self, p):
        self.priced.append(np.size(p))
        return super().quantile(p)


@pytest.mark.parametrize("kind, share", [("uniform", 0.05), ("level_adjusted", 1 / 3)])
def test_dr_table_prices_few_levels(kind, share):
    # the msweep default grid at its largest m: 101 radii by 76 estimates,
    # two bounds each, 15,352 levels per ball. Near tau_hat = 1/2 the
    # level-adjusted ball is a tenth as wide, so around F(mean) = 0.555 one
    # of its bounds stays priceable at every radius: it keeps 32%, and the
    # true chance and the 76 estimates fit in the rest of the share.
    dist = _CountingBeta(2, 6)
    cfg = SimConfig(true_dist=dist, true_tau=0.75, n_replicates=1, ball_kinds=(kind,))
    table = _loss_table(cfg, 75, np.arange(76))
    assert len(dist.priced) == 1
    assert dist.priced[0] <= share * 2 * 101 * 76
    dist.priced.clear()
    assert table.tobytes() == _unpruned_loss_table(cfg, 75).tobytes()


def test_bn_row_prices_only_drawn_estimates():
    # at m = 10^6 the 100 replicates draw at most 100 of the 1,000,001
    # estimates; with no DR arm the one quantile call prices those and the
    # true chance
    dist = _CountingBeta(2, 6)
    res = run_epsilon_sweep(SimConfig(true_dist=dist, true_tau=0.75,
                                      n_replicates=100, ball_kinds=()), 10**6)
    assert res.tau_hat_counts.sum() == 100
    assert len(dist.priced) == 1 and dist.priced[0] <= 101


@pytest.mark.parametrize("kinds", [(), ("uniform",), ("level_adjusted", "uniform")])
def test_a_sweep_prices_every_arm_in_one_quantile_and_one_loss_call(monkeypatch, kinds):
    losses = []

    def counted(dist, y, tau):
        losses.append(np.size(y))
        return expected_loss(dist, y, tau)

    monkeypatch.setattr(montecarlo, "expected_loss", counted)
    dist = _CountingBeta(2, 6)
    res = run_epsilon_sweep(small_config(true_dist=dist, ball_kinds=kinds), 10)
    assert len(dist.priced) == 1 and len(losses) == 1
    assert set(res.curves) == {"oracle", "bn", "robust"} | {
        {"uniform": "dr_uniform", "level_adjusted": "dr_level_adjusted"}[kind] for kind in kinds}


def test_gamma_standard_errors_shrink_with_n():
    small = run_epsilon_sweep(small_config(n_replicates=40_000), 10)
    big = run_epsilon_sweep(small_config(n_replicates=400_000), 10)
    assert big.gamma_se["dr_uniform"] < small.gamma_se["dr_uniform"]
    assert big.gamma_diff_se is not None


def test_m_sweep_smoke():
    cfg = small_config(n_replicates=40_000)
    res = run_m_sweep(cfg, [5, 10, 20])
    assert np.array_equal(res.m_values, [5, 10, 20])
    assert np.all(np.isfinite(res.gamma_u))
    assert np.all(np.isfinite(res.gamma_la))
    # the gap to robustify shrinks with better estimates
    assert res.gamma_u[0] > res.gamma_u[-1]
    # level-adjusted dominates at these sizes
    assert np.all(res.gamma_la >= res.gamma_u - 3.0 * res.gamma_diff_se)


def test_an_m_sweep_point_is_the_sweep_at_its_m():
    cfg = small_config(n_replicates=40_000)
    alone = run_epsilon_sweep(cfg, 9)
    res = run_m_sweep(cfg, [3, 9, 20])
    i = 1
    assert res.m_values[i] == 9
    assert [res.gamma_u[i], res.gamma_la[i]] == [alone.gamma_u, alone.gamma_la]
    assert [res.gamma_u_se[i], res.gamma_la_se[i]] == [alone.gamma_se["dr_uniform"],
                                                       alone.gamma_se["dr_level_adjusted"]]
    assert res.gamma_diff_se[i] == alone.gamma_diff_se


def test_m_sweep_reads_an_arm_it_did_not_sweep_as_nan():
    both = run_m_sweep(small_config(n_replicates=40_000), [5, 10])
    res = run_m_sweep(small_config(n_replicates=40_000, ball_kinds=("uniform",)), [5, 10])
    for column in (res.gamma_la, res.gamma_la_se, res.gamma_diff_se):
        assert column.shape == (2,) and np.isnan(column).all()
    # the swept arm scores the same draws either way
    assert np.array_equal(res.gamma_u, both.gamma_u)
    assert np.array_equal(res.gamma_u_se, both.gamma_u_se)
    assert np.isfinite(res.gamma_u_se).all()


def test_m_sweep_large_m_gamma_vanishes():
    # with a near-perfect estimate there is nothing left to robustify
    cfg = small_config(n_replicates=40_000)
    res = run_m_sweep(cfg, [10_000])
    assert res.gamma_u[0] < 0.05
    assert res.gamma_la[0] < 0.05


def test_loss_curve_geometry():
    dist = Beta(2, 6)
    taus = [0.1, 0.35, 0.5, 0.75, 0.9]
    y_grid = np.round(np.arange(0.0, 1.0001, 0.001), 9)
    matrix = np.array([expected_loss(dist, y_grid, tau) for tau in taus])
    assert matrix.shape == (5, y_grid.size)
    # all curves cross at the mean
    at_mean = matrix[:, np.searchsorted(y_grid, 0.25)]
    assert np.max(at_mean) - np.min(at_mean) < 1e-9
    # each curve bottoms out at its quantile
    for i, tau in enumerate(taus):
        y_star = float(dist.quantile(tau))
        j = int(np.argmin(matrix[i]))
        assert abs(y_grid[j] - y_star) <= 2e-3
    # worst case over a ball: the high-tau curve rules left of the mean,
    # the low-tau curve right of it
    lo_row, hi_row = matrix[1], matrix[3]   # tau 0.35 and 0.75
    envelope = np.maximum(lo_row, hi_row)
    left = y_grid < 0.25 - 1e-9
    right = y_grid > 0.25 + 1e-9
    assert np.allclose(envelope[left], hi_row[left], atol=1e-12)
    assert np.allclose(envelope[right], lo_row[right], atol=1e-12)


def test_sweep_exports(tmp_path):
    cfg = small_config(n_replicates=10_000,
                      epsilon_grid=(0.0, 0.5, 1.0))
    res = run_epsilon_sweep(cfg, 10)
    argv = ["simulate", "--dist", "beta:2,6", "--tau", "0.75", "--m", "10", "--n", "10000",
            "--eps-grid", "0,0.5,1", "--seed", "99"]
    assert dispatch([*argv, "--out", str(tmp_path / "sim.csv"), "--output", "csv"]) == 0
    rows = list(csv.reader((tmp_path / "sim.csv").open()))
    assert rows[0] == ["epsilon", "arm", "expected_loss"]
    assert len(rows[1:]) == 3 * len(res.curves)
    assert all(len(r) == 3 for r in rows[1:])
    assert [float(r[2]) for r in rows[1:] if r[1] == "bn"] == res.curves["bn"].tolist()
    assert dispatch([*argv, "--out", str(tmp_path / "sim.json")]) == 0
    summary = json.loads((tmp_path / "sim.json").read_text())
    assert set(summary) >= {"command", "gamma_u", "gamma_la", "best_epsilon", "config", "seed"}
    assert summary["command"] == "simulate"
    assert (summary["gamma_u"], summary["gamma_la"]) == (res.gamma_u, res.gamma_la)
    assert summary["config"]["m"] == 10
    assert summary["config"]["n_replicates"] == cfg.n_replicates
    assert summary["seed"] == cfg.master_seed


def test_config_validation():
    with pytest.raises(ValueError, match="^m must be at least 1, got 0$"):
        run_epsilon_sweep(small_config(), 0)
    with pytest.raises(ValueError, match="^m must be at least 1, got 0$"):
        run_m_sweep(small_config(), [0, 5])
    with pytest.raises(ValueError, match="^no m values to sweep$"):
        run_m_sweep(small_config(), [])
    with pytest.raises(ValueError):
        small_config(n_replicates=0)
    with pytest.raises(ValueError):
        small_config(epsilon_grid=(0.5, 0.2))
    with pytest.raises(ValueError):
        small_config(epsilon_grid=(0.0, 11.0))
    with pytest.raises(ValueError, match="epsilon grid must lie in"):
        small_config(epsilon_grid=(0.0, float("nan")))
    with pytest.raises(ValueError, match="^epsilon grid is empty$"):
        small_config(epsilon_grid=())
    with pytest.raises(ValueError):
        small_config(theta=1.0)
    with pytest.raises(ValueError):
        small_config(ball_kinds=("round",))
    with pytest.raises(ValueError):
        small_config(true_tau=1.5)
