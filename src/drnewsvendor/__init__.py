"""Bernoulli newsvendor offer optimization for renewable energy trading.

Closed-form offer rules (plain, forecast-robust, chance-of-success
robust), the ambiguity sets behind them, market settlement arithmetic, a
Monte-Carlo harness for estimation-noise experiments, and a backtest
engine over hourly market data.
"""

from .ambiguity import (
    BallKind,
    BernoulliBall,
    DeformedCdf,
    deform_lower,
    deform_upper,
    double_power_lower,
    double_power_upper,
    make_bernoulli_ball,
)
from .backtest import (
    BacktestPlan,
    BacktestReport,
    ChosenParameters,
    CvMode,
    MarketRecord,
    cross_validate,
    load_market_data,
    offers_for_day,
    run_backtest,
    scale_penalties,
    write_forecast_dir,
    write_market_csv,
)
from .distributions import (
    Beta,
    Heaviside,
    PiecewiseLinear,
    RngStream,
    Uniform01,
    UnitDistribution,
    read_quantile_forecast,
    standard_forecast_levels,
)
from .economics import (
    PenaltyPair,
    expected_loss,
    penalties,
    regret_and_ratio,
    revenue,
)
from .estimation import HourlyTauEstimator
from .montecarlo import (
    MSweepResult,
    SimConfig,
    SimResult,
    gamma,
    run_epsilon_sweep,
    run_m_sweep,
)
from .solvers import (
    Method,
    OfferDecision,
    WorstCaseCdf,
    solve_direct,
    solve_dr_omega,
    solve_dr_s,
    solve_robust_omega,
    solve_robust_s,
    worst_case_cdf,
)
from .synthetic import make_synthetic_market

__version__ = "0.1.0"
