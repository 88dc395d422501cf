"""Command-line front end: solvers, deformation curves, sweeps and backtests.

Every command accepts ``--seed`` and ``--output {json,csv}``, writes its
artifact atomically (temp file + rename) to ``--out``, by default
``<command>.<output>``, and prints a one-line summary. Each artifact's JSON
payload and CSV rows are built here; the library modules return results.
Usage errors exit 2; data and domain errors exit 1 with a structured
message on stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import io
import json
import os
import sys
import tempfile
import time
from datetime import datetime
from pathlib import Path

import numpy as np

from . import backtest as bt
from . import montecarlo as mc
from .ambiguity import BallKind, deform_lower, deform_upper, make_bernoulli_ball
from .distributions import Beta, Heaviside, Uniform01, UnitDistribution, read_quantile_forecast
from .solvers import (
    solve_direct,
    solve_dr_omega,
    solve_dr_s,
    solve_robust_omega,
    solve_robust_s,
)
from .synthetic import make_synthetic_market

__all__ = ["main", "dispatch"]

_BALL_BY_FLAG = {"uniform": BallKind.UNIFORM, "level-adjusted": BallKind.LEVEL_ADJUSTED}
# the SimConfig ball kinds of each simulate/msweep --ball value
_BALL_KINDS = {"uniform": ("uniform",), "level-adjusted": ("level_adjusted",),
               "both": ("uniform", "level_adjusted")}


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def _atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_artifact(args, payload: dict, header: list[str], rows) -> str:
    """Write the command's artifact in the ``--output`` format; return its path.

    The path is ``--out`` when given, else ``<command>.<output>``. ``rows``
    returns the CSV rows and is called only for CSV output.
    """
    out = f"{args.command}.{args.output}" if args.out is None else args.out
    if args.output == "json":
        text = json.dumps(_jsonify(payload), indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows())
        text = buf.getvalue()
    _atomic_write(out, text)
    return out


def _parse_dist(spec: str) -> UnitDistribution:
    """Parametric distribution specs: beta:2,6 | uniform | heaviside:0.4."""
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    if name == "uniform":
        return Uniform01()
    if name == "beta":
        parts = [p for p in rest.split(",") if p.strip()]
        if len(parts) != 2:
            raise ValueError(f"beta spec needs two parameters, got {spec!r}")
        return Beta(float(parts[0]), float(parts[1]))
    if name == "heaviside":
        if not rest.strip():
            raise ValueError(f"heaviside spec needs a location, got {spec!r}")
        return Heaviside(float(rest))
    raise ValueError(f"unknown distribution spec {spec!r}")


def _parse_grid(spec: str, flag: str) -> tuple[float, ...]:
    """The grid ``flag`` gives, as a start:step:stop range or a comma list.

    A range takes whole steps from start and ends at the last value that
    does not pass stop, up to a slack of 1e-9 steps for rounding. Neither
    form takes an infinite value, which the JSON artifacts cannot hold.
    """
    spec = spec.strip()
    try:
        if ":" not in spec:
            values = tuple(float(p) for p in spec.split(",") if p.strip())
        else:
            start, step, stop = (float(p) for p in spec.split(":"))
    except ValueError:
        raise ValueError(
            f"{flag} must be a start:step:stop range or a comma list of numbers, got {spec!r}"
        ) from None
    if ":" not in spec:
        if np.isinf(values).any():
            raise ValueError(f"{flag} list {spec!r} holds an infinite value; values must be finite")
        return values
    if not (0.0 < step < np.inf and -np.inf < start <= stop < np.inf):
        raise ValueError(
            f"{flag} range {spec!r} needs finite bounds, a positive step and start <= stop"
        )
    n = int(np.floor((stop - start) / step + 1e-9))
    return tuple(float(v) for v in np.round(np.linspace(start, start + n * step, n + 1), 12))


def _flag_text(values) -> str:
    """``values`` as the comma list a flag takes, which parses back to the same values."""
    return ",".join(map(str, values))


def _m_grid(spec: str) -> tuple[int, ...]:
    """``--m-grid`` as window lengths in days: whole numbers only."""
    values = _parse_grid(spec, "--m-grid")
    for v in values:
        if not v.is_integer():
            raise ValueError(f"--m-grid values must be whole numbers of days, got {v!r}")
    return tuple(int(v) for v in values)


def _dist_from_args(args) -> UnitDistribution:
    if args.forecast:
        return read_quantile_forecast(args.forecast)
    if args.dist:
        return _parse_dist(args.dist)
    raise ValueError("supply --dist or --forecast")


def _apply_config(argv: list[str]) -> list[str]:
    """Expand a --config key=value file into flags after the subcommand.

    Explicit command-line flags still win because they come later and
    argparse keeps the last occurrence.
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ValueError("--config needs a file path")
    path = Path(argv[idx + 1])
    rest = argv[:idx] + argv[idx + 2:]
    if not rest:
        raise ValueError("--config requires a subcommand")
    tokens: list[str] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        flag = "--" + key.strip().replace("_", "-")
        value = value.strip()
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                tokens.append(flag)
        else:
            tokens.extend([flag, value])
    return [rest[0], *tokens, *rest[1:]]


# ---------- command handlers ----------


def _cmd_solve(args) -> int:
    strategy = args.strategy
    # robust-omega prices no distribution, but one that is given is still read
    dist = _dist_from_args(args) if strategy != "robust-omega" or args.dist or args.forecast else None
    if strategy == "robust-s":
        decision = solve_robust_s(dist)
    else:
        if args.tau is None:
            raise ValueError(f"--tau is required for strategy {strategy}")
        if strategy == "direct":
            decision = solve_direct(dist, args.tau)
        elif strategy == "dr-omega":
            if args.rho is None:
                raise ValueError("--rho is required for dr-omega")
            decision = solve_dr_omega(dist, args.tau, args.rho)
        elif strategy == "dr-s":
            if args.eps is None:
                raise ValueError("--eps is required for dr-s")
            ball = make_bernoulli_ball(args.tau, args.eps, _BALL_BY_FLAG[args.ball], args.theta)
            decision = solve_dr_s(dist, ball)
        else:
            decision = solve_robust_omega(args.tau)
    payload = {
        "command": "solve",
        "strategy": args.strategy,
        "y_star": decision.y_star,
        "method": decision.method.value,
        "diagnostics": dict(decision.diagnostics),
        "seed": args.seed,
    }
    out = _write_artifact(args, payload, ["key", "value"], lambda: [
        ("y_star", repr(decision.y_star)), ("method", decision.method.value),
        *sorted((k, repr(v) if isinstance(v, float) else str(v))
                for k, v in decision.diagnostics.items()),
    ])
    print(f"y*={decision.y_star:.6f} ({decision.method.value}) -> {out}")
    return 0


def _cmd_deform(args) -> int:
    if not 0.0 < args.grid_step < np.inf:
        raise ValueError(f"--grid-step must be a positive finite number, got {args.grid_step!r}")
    dist = _dist_from_args(args)
    upper = deform_upper(dist, args.rho)
    lower = deform_lower(dist, args.rho)
    xs = np.round(np.arange(0.0, 1.0 + args.grid_step / 2, args.grid_step), 12)
    ref = np.asarray(dist.cdf(xs), dtype=float)
    up = np.asarray(upper.cdf(xs), dtype=float)
    lo = np.asarray(lower.cdf(xs), dtype=float)
    payload = {
        "command": "deform", "rho": args.rho, "seed": args.seed,
        "x": xs, "reference": ref, "upper": up, "lower": lo,
    }
    out = _write_artifact(args, payload, ["x", "reference", "upper", "lower"], lambda: (
        (repr(float(a)), repr(float(b)), repr(float(c)), repr(float(d)))
        for a, b, c, d in zip(xs, ref, up, lo)
    ))
    print(f"deformation band at rho={args.rho:g} over {xs.size} points -> {out}")
    return 0


def _sim_config(args) -> mc.SimConfig:
    return mc.SimConfig(
        true_dist=_dist_from_args(args),
        true_tau=args.tau,
        n_replicates=args.n,
        epsilon_grid=_parse_grid(args.eps_grid, "--eps-grid"),
        theta=args.theta,
        ball_kinds=_BALL_KINDS[args.ball],
        master_seed=args.seed,
    )


def _check_counts(args, *flags: str) -> None:
    """Raise naming the first of the count ``flags`` (say ``--m-min``) that is below 1."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")


def _cmd_simulate(args) -> int:
    _check_counts(args, "--m", "--n")
    config = _sim_config(args)
    start = time.perf_counter()
    result = mc.run_epsilon_sweep(config, args.m)
    seconds = time.perf_counter() - start
    # the runtime stays out of the artifact, which is then the same on every run and machine
    payload = {
        "command": "simulate",
        "gamma_u": result.gamma_u, "gamma_la": result.gamma_la,
        "best_epsilon": dict(result.best_epsilon), "gamma_se": dict(result.gamma_se),
        "gamma_diff_se": result.gamma_diff_se,
        "config": {
            "true_dist": repr(config.true_dist), "true_tau": config.true_tau, "m": args.m,
            "n_replicates": config.n_replicates, "epsilon_grid": config.epsilon_grid,
            "theta": config.theta, "ball_kinds": config.ball_kinds,
        },
        "seed": config.master_seed,
    }
    out = _write_artifact(args, payload, ["epsilon", "arm", "expected_loss"], lambda: (
        (repr(float(eps)), arm, repr(float(loss)))
        for arm, curve in sorted(result.curves.items())
        for eps, loss in zip(config.epsilon_grid, curve)
    ))
    g_u = "n/a" if result.gamma_u is None else f"{result.gamma_u:.4f}"
    g_la = "n/a" if result.gamma_la is None else f"{result.gamma_la:.4f}"
    print(f"gamma_u={g_u} gamma_la={g_la} (m={args.m}, n={args.n}, {seconds:.2f}s) -> {out}")
    return 0


def _cmd_msweep(args) -> int:
    _check_counts(args, "--m-min", "--m-step", "--n")
    if args.m_max < args.m_min:
        raise ValueError(f"--m-min {args.m_min} to --m-max {args.m_max} is an empty range")
    config = _sim_config(args)
    m_values = list(range(args.m_min, args.m_max + 1, args.m_step))
    start = time.perf_counter()
    result = mc.run_m_sweep(config, m_values)
    seconds = time.perf_counter() - start
    arms = (("uniform", result.gamma_u, result.gamma_u_se),
            ("level_adjusted", result.gamma_la, result.gamma_la_se))
    payload = {
        "command": "msweep", "seed": args.seed,
        "m_values": result.m_values,
        "gamma_u": result.gamma_u, "gamma_la": result.gamma_la,
        "gamma_u_se": result.gamma_u_se, "gamma_la_se": result.gamma_la_se,
        "n_replicates": config.n_replicates,
    }
    out = _write_artifact(args, payload, ["m", "ball", "gamma", "gamma_se"], lambda: (
        (str(int(m)), ball, repr(float(gamma[i])), repr(float(se[i])))
        for i, m in enumerate(result.m_values) for ball, gamma, se in arms
    ))
    print(f"m-sweep over {result.m_values.size} sizes ({seconds:.2f}s) -> {out}")
    return 0


def _plan_from_args(args) -> bt.BacktestPlan:
    bt.check_penalty_scale(args.penalty_scale, "--penalty-scale")
    warm_start = args.warm_start_days
    return bt.BacktestPlan(
        warm_start_days=args.tau_window_days + args.cv_days if warm_start is None else warm_start,
        tau_window_days=args.tau_window_days,
        cv_days=args.cv_days,
        cv_mode=bt.CvMode(args.cv_mode),
        m_grid=_m_grid(args.m_grid),
        rho_grid=_parse_grid(args.rho_grid, "--rho-grid"),
        epsilon_grid=_parse_grid(args.eps_grid, "--eps-grid"),
        theta_grid=_parse_grid(args.theta_grid, "--theta-grid"),
        strategies=tuple(s.strip() for s in args.strategies.split(",") if s.strip()),
        fallback_tau=args.fallback_tau,
    )


def _load_market(args) -> list[bt.MarketRecord]:
    """The market records, read only once every flag and ``--params`` has been checked."""
    records = bt.load_market_data(args.market, args.forecasts, strict=args.strict)
    return bt.scale_penalties(records, args.penalty_scale)


def _chosen_rows(chosen: bt.ChosenParameters):
    """``day,strategy,param,value`` rows; a fixed-window selection's day is ``-``."""
    if chosen.mode is bt.CvMode.FIXED_WINDOW:
        tables = [("-", chosen.static)]
    else:
        tables = [(str(day), strats) for day, strats in sorted(chosen.per_day.items())]
    for day, strats in tables:
        for strat, params in sorted(strats.items()):
            for key, val in sorted(params.items()):
                yield day, strat, key, repr(float(val))


def _cmd_crossval(args) -> int:
    plan = _plan_from_args(args)
    chosen = bt.cross_validate(_load_market(args), plan)
    out = _write_artifact(args, {"command": "crossval", "seed": args.seed,
                                 **chosen.to_json_dict()},
                          ["day", "strategy", "param", "value"], lambda: _chosen_rows(chosen))
    print(f"cross-validation ({chosen.mode.value}) -> {out}")
    return 0


def _cmd_backtest(args) -> int:
    plan = _plan_from_args(args)
    chosen = None
    if args.params:
        try:
            data = json.loads(Path(args.params).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"--params {args.params}: not JSON: {exc}") from None
        chosen = bt.ChosenParameters.from_json_dict(data)
        chosen.check_windows(plan)
    records = _load_market(args)
    if chosen is None:
        chosen = bt.cross_validate(records, plan)
    report = bt.run_backtest(records, plan, chosen)
    payload = {
        "command": "backtest", "seed": args.seed,
        "eval_days": report.eval_days,
        "n_periods": len(report.timestamps),
        "total_volume_mwh": report.volumes.sum(),
        "strategies": {
            name: {
                "revenue_per_mwh": row.revenue_per_mwh,
                "regret_per_mwh": row.regret_per_mwh,
                "advantage_ratio_pct": row.advantage_ratio_pct,
                "total_revenue": row.total_revenue,
                "final_cum_delta_regret": row.cum_delta_regret[-1],
            }
            for name, row in report.rows.items()
        },
        "chosen_parameters": chosen.to_json_dict(),
        "reference_note": "Aggregate results are specific to the supplied market data; figures "
                          "obtained on proprietary datasets elsewhere are not reproducible from "
                          "this tool and are never used as test oracles.",
    }

    def rows():
        for name, rev in sorted(report.revenues.items()):
            cum = report.rows[name].cum_delta_regret
            for i, ts in enumerate(report.timestamps):
                yield (ts.isoformat(), name, repr(float(rev[i])),
                       repr(float(report.oracle_revenues[i] - rev[i])), repr(float(cum[i])))

    out = _write_artifact(args, payload,
                          ["timestamp", "strategy", "revenue", "regret", "cum_delta_regret"], rows)
    summary = " ".join(
        f"{name}:r={row.regret_per_mwh:.3f}" for name, row in sorted(report.rows.items())
    )
    print(f"backtest over {len(report.timestamps)} periods [{summary}] -> {out}")
    return 0


def _cmd_synth(args) -> int:
    try:
        start = datetime.fromisoformat(args.start)
    except ValueError:
        raise ValueError(f"--start must be an ISO 8601 date and time, got {args.start!r}") from None
    records = make_synthetic_market(
        n_days=args.days,
        master_seed=args.seed,
        tau=args.tau,
        mean_rel_spread=args.spread,
        no_balancing_rate=args.no_balancing_rate,
        start=start,
    )
    bt.write_market_csv(records, args.market_out)
    bt.write_forecast_dir(records, args.forecasts_out)
    payload = {
        "command": "synth", "seed": args.seed, "days": args.days,
        "records": len(records), "tau": args.tau,
        "market": str(args.market_out), "forecasts": str(args.forecasts_out),
    }
    _write_artifact(args, payload, ["key", "value"],
                    lambda: sorted((k, str(v)) for k, v in payload.items()))
    print(f"synthetic market: {len(records)} records over {args.days} days -> {args.market_out}")
    return 0


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`dispatch` uses, built once per process.

    Parsing leaves no state on the parser, so in-process callers that
    dispatch many commands skip rebuilding its seven subcommands.
    """
    parser = argparse.ArgumentParser(
        prog="drnewsvendor",
        description="Bernoulli newsvendor offers, robust variants, sweeps and backtests",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every default a library object declares is read from it, never restated
    # every command writes one artifact the same way
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed")
    common.add_argument("--output", choices=("json", "csv"), default="json")
    common.add_argument("--out", help="artifact path (default <command>.<output>)")
    dist = argparse.ArgumentParser(add_help=False, parents=[common])
    dist.add_argument("--dist", help="parametric spec, e.g. beta:2,6")
    dist.add_argument("--forecast", help="quantile forecast CSV")
    sim = argparse.ArgumentParser(add_help=False, parents=[dist])
    sim.add_argument("--tau", type=float, required=True)
    sim.add_argument("--theta", type=float, default=mc.SimConfig.theta)
    sim.add_argument("--eps-grid", default=_flag_text(mc.SimConfig.epsilon_grid))
    sim.add_argument("--ball", choices=tuple(_BALL_KINDS),
                     default={v: k for k, v in _BALL_KINDS.items()}[mc.SimConfig.ball_kinds])
    plan, market = bt.BacktestPlan(), argparse.ArgumentParser(add_help=False, parents=[common])
    market.add_argument("--market", required=True, help="hourly market CSV")
    market.add_argument("--forecasts", required=True, help="forecast directory")
    market.add_argument("--strict", action="store_true", help="fail on hourly gaps")
    market.add_argument("--warm-start-days", type=int,
                        help="default: tau window plus CV days; a given value must equal it")
    market.add_argument("--tau-window-days", type=int, default=plan.tau_window_days)
    market.add_argument("--cv-days", type=int, default=plan.cv_days)
    market.add_argument("--cv-mode", choices=[m.value for m in bt.CvMode],
                        default=plan.cv_mode.value)
    market.add_argument("--m-grid", default=_flag_text(plan.m_grid))
    market.add_argument("--rho-grid", default=_flag_text(plan.rho_grid))
    market.add_argument("--eps-grid", default=_flag_text(plan.epsilon_grid))
    market.add_argument("--theta-grid", default=_flag_text(plan.theta_grid))
    market.add_argument("--strategies", default=_flag_text(plan.strategies))
    market.add_argument("--fallback-tau", type=float, default=plan.fallback_tau)
    market.add_argument("--penalty-scale", type=float, default=1.0)

    p = sub.add_parser("solve", parents=[dist], help="compute one offer")
    p.add_argument("--strategy", required=True,
                   choices=("direct", "dr-omega", "dr-s", "robust-omega", "robust-s"))
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--ball", choices=sorted(_BALL_BY_FLAG), default="uniform")
    p.add_argument("--theta", type=float, default=None)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("deform", parents=[dist], help="tabulate a deformation band")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--grid-step", type=float, default=0.01)
    p.set_defaults(handler=_cmd_deform)

    p = sub.add_parser("simulate", parents=[sim], help="estimation-noise sweep over ball radii")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=1_000_000)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("msweep", parents=[sim], help="gamma versus estimation sample size")
    p.add_argument("--m-min", type=int, default=1)
    p.add_argument("--m-max", type=int, default=75)
    p.add_argument("--m-step", type=int, default=1)
    p.add_argument("--n", type=int, default=100_000)
    p.set_defaults(handler=_cmd_msweep)

    p = sub.add_parser("crossval", parents=[market],
                       help="select strategy parameters on the CV window")
    p.set_defaults(handler=_cmd_crossval)

    p = sub.add_parser("backtest", parents=[market], help="run the out-of-sample evaluation")
    p.add_argument("--params", default=None, help="chosen-parameters JSON from crossval")
    p.set_defaults(handler=_cmd_backtest)

    synth = inspect.signature(make_synthetic_market).parameters
    p = sub.add_parser("synth", parents=[common], help="generate synthetic market data files")
    p.add_argument("--days", type=int, default=synth["n_days"].default)
    p.add_argument("--tau", type=float, default=synth["tau"].default)
    p.add_argument("--spread", type=float, default=synth["mean_rel_spread"].default)
    p.add_argument("--no-balancing-rate", type=float, default=synth["no_balancing_rate"].default)
    p.add_argument("--start", default=synth["start"].default.isoformat())
    p.add_argument("--market-out", default="market.csv")
    p.add_argument("--forecasts-out", default="forecasts")
    p.set_defaults(handler=_cmd_synth)
    return parser


def dispatch(argv: list[str] | None = None) -> int:
    """Parse and run; returns the exit status."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(_apply_config(argv))
        return args.handler(args)
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        error = str(exc)
        if isinstance(exc, MemoryError):
            # a size no process can hold; a list's MemoryError carries no text
            error = f"out of memory: {error}" if error else "out of memory"
        print(json.dumps({"error": error}), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
