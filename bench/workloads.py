"""The benchmark's workloads.

Each workload builds its inputs from a seed (``setup``), runs one timed
iteration through the package's public API or its in-process CLI
(``iterate``), counts the work its protocol requires from the plan and the
inputs alone, never from the program (``counts``), and checks the outputs
(``check``). Everything runs in this process with the default ``threads=1``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from scipy import special  # noqa: E402

from drnewsvendor import backtest as bt  # noqa: E402
from drnewsvendor import cli, synthetic  # noqa: E402
from drnewsvendor.backtest import BacktestPlan, CvMode  # noqa: E402
from drnewsvendor.distributions import PiecewiseLinear, standard_forecast_levels  # noqa: E402

HOURS = 24
# strategies whose offer needs the estimated chance of success
TAU_STRATEGIES = frozenset({"bn", "dr_omega", "dr_s_uniform", "dr_s_level_adjusted", "robust_omega"})
REGRET_TOL = 1e-9


@dataclass
class Inputs:
    seed: int
    dir: Path
    records: list | None = None


@dataclass
class Iteration:
    """One timed pass: its wall time, the time ``offers_per_s`` divides by,
    per-request latencies, the operations attempted, their outputs and the
    seconds spent in each stage."""

    wall_s: float
    work_s: float
    latencies_ms: list[float]
    ops: list[str]
    outputs: dict = field(default_factory=dict)
    failed: set[str] = field(default_factory=set)
    stages: dict[str, float] = field(default_factory=dict)


def digest(obj) -> str:
    if not isinstance(obj, bytes):
        obj = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(obj).hexdigest()


def dispatch(argv: list[str]) -> int:
    """The in-process CLI, with its one-line summaries kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.dispatch(argv)


# ---------- the backtest protocol, counted from the plan ----------


def param_grid(strategy: str, plan: BacktestPlan) -> list[dict]:
    """Candidate parameters the protocol evaluates for ``strategy``."""
    if strategy in ("oracle", "robust_s"):
        return [{}]
    if strategy in ("bn", "robust_omega"):
        return [{"m": m} for m in plan.m_grid]
    if strategy == "dr_omega":
        return [{"m": m, "rho": r} for m in plan.m_grid for r in plan.rho_grid]
    if strategy == "dr_s_uniform":
        return [{"m": m, "epsilon": e} for m in plan.m_grid for e in plan.epsilon_grid]
    return [{"m": m, "epsilon": e, "theta": t}
            for m in plan.m_grid for e in plan.epsilon_grid for t in plan.theta_grid]


def backtest_counts(plan: BacktestPlan, n_days: int, gate_calls: int) -> dict:
    """Work the protocol requires on a complete hourly market of ``n_days``.

    ``settlements`` are the (strategy, params, period) revenues of
    cross-validation plus the out-of-sample backtest, and the count
    ``offers_per_s`` divides (``timed_offers``); ``offers`` adds the
    gate-closure offers; ``tau_offers`` are the offers that need a tau
    estimate.
    """
    windows = 1 if plan.cv_mode is CvMode.FIXED_WINDOW else n_days - plan.warm_start_days
    cv_periods = windows * plan.cv_days * HOURS
    eval_periods = (n_days - plan.warm_start_days) * HOURS
    grids = {s: len(param_grid(s, plan)) for s in plan.strategies}
    n_tau = sum(s in TAU_STRATEGIES for s in plan.strategies)
    gate_periods = gate_calls * HOURS
    settlements = cv_periods * sum(grids.values()) + eval_periods * len(plan.strategies)
    return {
        "periods": n_days * HOURS,
        "eval_periods": eval_periods,
        "cv_periods": cv_periods,
        "grid_sizes": grids,
        "settlements": settlements,
        "timed_offers": settlements,
        "offers": settlements + gate_periods * len(plan.strategies),
        "tau_offers": cv_periods * sum(grids[s] for s in grids if s in TAU_STRATEGIES)
        + (eval_periods + gate_periods) * n_tau,
    }


def plan_flags(plan: BacktestPlan) -> list[str]:
    def join(values):
        return ",".join(repr(v) for v in values)

    return [
        "--warm-start-days", str(plan.warm_start_days),
        "--tau-window-days", str(plan.tau_window_days),
        "--cv-days", str(plan.cv_days),
        "--cv-mode", plan.cv_mode.value,
        "--m-grid", join(plan.m_grid),
        "--rho-grid", join(plan.rho_grid),
        "--eps-grid", join(plan.epsilon_grid),
        "--theta-grid", join(plan.theta_grid),
        "--strategies", ",".join(plan.strategies),
    ]


def gate_closures(records, plan, chosen, days) -> tuple[dict, list[float]]:
    """``offers_for_day`` for each day in turn, timing every call."""
    offers, latencies = {}, []
    for day in days:
        start = time.perf_counter()
        offers[day] = bt.offers_for_day(records, plan, chosen, day)
        latencies.append((time.perf_counter() - start) * 1e3)
    return offers, latencies


def check_chosen(plan: BacktestPlan, chosen: dict, op: str) -> list[tuple[str, str]]:
    return [
        (op, f"{strategy}: chosen {params} outside the plan's grid")
        for strategy in plan.strategies
        for params in [chosen.get(strategy)]
        if params not in param_grid(strategy, plan)
    ]


def check_gate_offers(records, offers: dict) -> list[tuple[str, str]]:
    """Every hour offered in [0, 1]; the oracle offers the realised output."""
    first = records[0].timestamp.date()
    realised = {((r.timestamp.date() - first).days + 1, r.timestamp.hour): r.omega_star
                for r in records}
    problems = []
    for day, by_strategy in offers.items():
        for strategy, hours in by_strategy.items():
            if sorted(hours) != list(range(HOURS)):
                problems.append(("offers_for_day", f"day {day} {strategy}: hours {sorted(hours)}"))
            for hour, y in hours.items():
                if not (0.0 <= y <= 1.0):
                    problems.append(("offers_for_day", f"day {day} {strategy} h{hour}: offer {y}"))
                elif strategy == "oracle" and y != realised[(day, hour)]:
                    problems.append(("offers_for_day", f"day {day} h{hour}: oracle offer {y}"))
    return problems


def offers_digest(offers: dict) -> str:
    return digest({str(d): {s: {str(h): repr(y) for h, y in hs.items()} for s, hs in by.items()}
                   for d, by in offers.items()})


# ---------- workloads ----------


@dataclass(frozen=True)
class FixedWindow:
    """The README path through the CLI: synth, crossval, backtest, then gate closures."""

    name: str = "fixed_731"
    request: str = "offers_for_day gate closures"
    days: int = 731
    plan: BacktestPlan = BacktestPlan(m_grid=(10,))
    gate_days: int = 100

    def setup(self, seed: int, workdir: Path) -> Inputs:
        rc = dispatch(["synth", "--days", str(self.days), "--seed", str(seed),
                       "--market-out", str(workdir / "market.csv"),
                       "--forecasts-out", str(workdir / "forecasts"),
                       "--out", str(workdir / "synth.json")])
        if rc != 0:
            raise RuntimeError(f"synth exited {rc}")
        return Inputs(seed, workdir)

    def counts(self, inp: Inputs) -> dict:
        return backtest_counts(self.plan, self.days, self.gate_days)

    def properties(self, inp: Inputs) -> dict:
        files = list((inp.dir / "forecasts").iterdir())
        distinct = len({f.read_bytes() for f in files})
        return {"forecast_files": len(files), "distinct_forecast_share": distinct / len(files)}

    def iterate(self, inp: Inputs) -> Iteration:
        d = inp.dir
        common = ["--market", str(d / "market.csv"), "--forecasts", str(d / "forecasts"),
                  *plan_flags(self.plan), "--seed", str(inp.seed)]
        it = Iteration(0.0, 0.0, [], [])
        laps = [time.perf_counter()]
        for op, argv in (
            ("crossval", ["crossval", *common, "--out", str(d / "chosen.json")]),
            ("backtest", ["backtest", *common, "--params", str(d / "chosen.json"),
                          "--out", str(d / "report.json")]),
        ):
            it.ops.append(op)
            if dispatch(argv) != 0:
                it.failed.add(op)
            laps.append(time.perf_counter())
        records = bt.load_market_data(d / "market.csv", d / "forecasts")
        chosen = bt.ChosenParameters.from_json_dict(json.loads((d / "chosen.json").read_text()))
        it.ops.append("load_market_data")
        laps.append(time.perf_counter())
        days = range(self.days - self.gate_days + 1, self.days + 1)
        offers, it.latencies_ms = gate_closures(records, self.plan, chosen, days)
        it.ops += ["offers_for_day"] * len(days)
        laps.append(time.perf_counter())
        it.wall_s = laps[-1] - laps[0]
        it.work_s = laps[2] - laps[0]
        it.stages = dict(zip(("crossval", "backtest", "load_market_data", "gate_closures"),
                             np.diff(laps).tolist()))
        it.outputs = {
            "chosen": (d / "chosen.json").read_bytes(),
            "report": (d / "report.json").read_bytes(),
            "offers": offers,
            "records": records,
        }
        return it

    def digests(self, it: Iteration) -> dict:
        return {"crossval": digest(it.outputs["chosen"]), "backtest": digest(it.outputs["report"]),
                "offers_for_day": offers_digest(it.outputs["offers"])}

    def check(self, inp: Inputs, it: Iteration) -> list[tuple[str, str]]:
        counts = self.counts(inp)
        chosen = json.loads(it.outputs["chosen"])
        problems = check_chosen(self.plan, chosen.get("static", {}), "crossval")
        report = json.loads(it.outputs["report"])
        if report["n_periods"] != counts["eval_periods"]:
            problems.append(("backtest", f"{report['n_periods']} periods settled, "
                                         f"{counts['eval_periods']} expected"))
        if sorted(report["strategies"]) != sorted(self.plan.strategies):
            problems.append(("backtest", f"strategies {sorted(report['strategies'])}"))
        for strategy, row in report["strategies"].items():
            # the CLI writes non-finite numbers as null
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in row.values()):
                problems.append(("backtest", f"{strategy}: non-finite entry in {row}"))
            elif row["regret_per_mwh"] < -REGRET_TOL:
                problems.append(("backtest", f"{strategy}: negative regret {row['regret_per_mwh']}"))
        return problems + check_gate_offers(it.outputs["records"], it.outputs["offers"])


def jittered_market(n_days: int, seed: int) -> list:
    """A synthetic market in which every hour has its own forecast.

    Prices come from the package's generator; each hour's generation is
    drawn from its own Beta, with both shapes jittered around (2, 6), and
    its forecast is that Beta's quantiles at the standard levels.
    """
    base = synthetic.make_synthetic_market(n_days=n_days, master_seed=seed)
    rng = np.random.default_rng([seed, 1])
    a = 2.0 * np.exp(0.3 * rng.standard_normal(len(base)))
    b = 6.0 * np.exp(0.3 * rng.standard_normal(len(base)))
    levels = standard_forecast_levels()
    values = special.betaincinv(a[:, None], b[:, None], levels[None, :])
    omega = special.betaincinv(a, b, rng.random(len(base)))
    return [replace(rec, omega_star=float(w), forecast=PiecewiseLinear(levels, v))
            for rec, w, v in zip(base, omega, values)]


@dataclass(frozen=True)
class Sliding:
    """Sliding cross-validation and the backtest through the API, in memory."""

    name: str = "sliding_short"
    request: str = "offers_for_day gate closures"
    days: int = 133
    plan: BacktestPlan = BacktestPlan(cv_mode=CvMode.SLIDING)
    gate_rounds: int = 50

    def setup(self, seed: int, workdir: Path) -> Inputs:
        return Inputs(seed, workdir, records=jittered_market(self.days, seed))

    def eval_days(self) -> list[int]:
        return list(range(self.plan.warm_start_days + 1, self.days + 1))

    def counts(self, inp: Inputs) -> dict:
        return backtest_counts(self.plan, self.days, self.gate_rounds * len(self.eval_days()))

    def properties(self, inp: Inputs) -> dict:
        distinct = len({r.forecast.values.tobytes() for r in inp.records})
        return {"records": len(inp.records), "distinct_forecast_share": distinct / len(inp.records)}

    def iterate(self, inp: Inputs) -> Iteration:
        laps = [time.perf_counter()]
        chosen = bt.cross_validate(inp.records, self.plan)
        laps.append(time.perf_counter())
        report = bt.run_backtest(inp.records, self.plan, chosen)
        laps.append(time.perf_counter())
        offers, latencies = gate_closures(inp.records, self.plan, chosen,
                                          self.eval_days() * self.gate_rounds)
        laps.append(time.perf_counter())
        return Iteration(laps[-1] - laps[0], laps[2] - laps[0], latencies,
                         ["cross_validate", "run_backtest"] + ["offers_for_day"] * len(latencies),
                         {"chosen": chosen, "report": report, "offers": offers},
                         stages=dict(zip(("cross_validate", "run_backtest", "gate_closures"),
                                         np.diff(laps).tolist())))

    def digests(self, it: Iteration) -> dict:
        return {"cross_validate": digest(it.outputs["chosen"].to_json_dict()),
                "offers_for_day": offers_digest(it.outputs["offers"])}

    def check(self, inp: Inputs, it: Iteration) -> list[tuple[str, str]]:
        chosen, report = it.outputs["chosen"], it.outputs["report"]
        problems = []
        if sorted(chosen.per_day or {}) != self.eval_days():
            problems.append(("cross_validate", f"selected days {sorted(chosen.per_day or {})}"))
        for by_strategy in (chosen.per_day or {}).values():
            problems += check_chosen(self.plan, {s: dict(p) for s, p in by_strategy.items()},
                                     "cross_validate")
        if len(report.timestamps) != self.counts(inp)["eval_periods"]:
            problems.append(("run_backtest", f"{len(report.timestamps)} periods settled"))
        for strategy, revenues in report.revenues.items():
            if not np.all(np.isfinite(revenues)):
                problems.append(("run_backtest", f"{strategy}: non-finite revenue"))
            worst = float(np.min(report.oracle_revenues - revenues))
            if worst < -REGRET_TOL:
                problems.append(("run_backtest", f"{strategy}: period regret {worst}"))
        return problems + check_gate_offers(inp.records, it.outputs["offers"])


@dataclass(frozen=True)
class MSweep:
    """Gamma against the estimation sample size, one ``msweep`` command per m.

    Each m draws from its own stream family, so the per-m commands give the
    gammas of the single ``--m-min 1 --m-max 75`` command; splitting it
    gives one request latency per m.
    """

    name: str = "msweep_75"
    request: str = "one-m msweep commands"
    m_max: int = 75
    n: int = 100_000
    eps_grid: str = "0:0.01:1"
    eps_points: int = 101
    ball_kinds: int = 2

    def setup(self, seed: int, workdir: Path) -> Inputs:
        return Inputs(seed, workdir)

    def counts(self, inp: Inputs) -> dict:
        # per m: bn and every (ball, epsilon) arm price one offer per tau_hat
        # value k/m, plus one oracle and one robust offer
        per_m = [(m + 1) * (1 + self.ball_kinds * self.eps_points) + 2
                 for m in range(1, self.m_max + 1)]
        return {"m_values": self.m_max, "replicates": self.n, "epsilon_points": self.eps_points,
                "priced_offers": sum(per_m), "timed_offers": sum(per_m)}

    def properties(self, inp: Inputs) -> dict:
        return {"true_distribution": "beta:2,6", "tau": 0.75, "distinct_forecast_share": 1.0}

    def iterate(self, inp: Inputs) -> Iteration:
        it = Iteration(0.0, 0.0, [], [])
        start = time.perf_counter()
        for m in range(1, self.m_max + 1):
            t = time.perf_counter()
            rc = dispatch(["msweep", "--dist", "beta:2,6", "--tau", "0.75",
                           "--m-min", str(m), "--m-max", str(m), "--n", str(self.n),
                           "--eps-grid", self.eps_grid, "--ball", "both", "--theta", "0.9",
                           "--seed", str(inp.seed), "--out", str(inp.dir / f"msweep-{m}.json")])
            it.latencies_ms.append((time.perf_counter() - t) * 1e3)
            it.ops.append("msweep")
            if rc != 0:
                it.failed.add("msweep")
        it.wall_s = it.work_s = time.perf_counter() - start
        it.outputs = {"sweeps": [json.loads((inp.dir / f"msweep-{m}.json").read_text())
                                 for m in range(1, self.m_max + 1)]}
        return it

    def digests(self, it: Iteration) -> dict:
        return {"msweep": digest([[s["m_values"], s["gamma_u"], s["gamma_la"]]
                                  for s in it.outputs["sweeps"]])}

    def check(self, inp: Inputs, it: Iteration) -> list[tuple[str, str]]:
        problems = []
        for m, sweep in enumerate(it.outputs["sweeps"], start=1):
            if sweep["m_values"] != [m]:
                problems.append(("msweep", f"m={m}: artifact holds m {sweep['m_values']}"))
            for key in ("gamma_u", "gamma_la"):
                g = sweep[key][0]
                if g is None or not (0.0 <= g <= 1.0):
                    problems.append(("msweep", f"m={m}: {key} = {g}"))
        return problems


WORKLOADS = {w.name: w for w in (FixedWindow(), Sliding(), MSweep())}
