"""Command-line surface: artifacts, exit codes, reproducibility."""

import csv
import inspect
import json
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from drnewsvendor import (
    BacktestPlan,
    Beta,
    SimConfig,
    cli,
    load_market_data,
    make_synthetic_market,
    write_forecast_dir,
)
from drnewsvendor import backtest as bt
from drnewsvendor.cli import dispatch


def run(tmp_path, *argv):
    return dispatch([str(a) for a in argv])


def test_solve_direct_uniform(tmp_path, capsys):
    out = tmp_path / "solve.json"
    code = dispatch(["solve", "--strategy", "direct", "--dist", "uniform",
                     "--tau", "0.75", "--out", str(out)])
    assert code == 0
    assert "y*=0.750000" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["y_star"] == 0.75
    assert payload["method"] == "direct"


def test_solve_dr_s_full_ball_gives_mean(tmp_path, capsys):
    out = tmp_path / "solve.json"
    code = dispatch(["solve", "--strategy", "dr-s", "--dist", "beta:2,6",
                     "--tau", "0.75", "--eps", "1", "--ball", "uniform",
                     "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["y_star"] == 0.25


def test_solve_dr_omega_robust_limit(tmp_path):
    out = tmp_path / "solve.json"
    code = dispatch(["solve", "--strategy", "dr-omega", "--dist", "beta:2,6",
                     "--tau", "0.6", "--rho", "1", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["y_star"] == 0.6


def test_solve_robust_omega_needs_no_distribution(tmp_path, capsys):
    out = tmp_path / "solve.json"
    code = dispatch(["solve", "--strategy", "robust-omega", "--tau", "0.6", "--out", str(out)])
    assert code == 0
    assert "y*=0.600000" in capsys.readouterr().out
    assert json.loads(out.read_text())["y_star"] == 0.6
    # a distribution that is given is still read, and a malformed one rejected
    for flags, message in ((["--dist", "beta:2"], "beta spec needs two parameters"),
                           (["--forecast", str(tmp_path / "missing.csv")], "missing.csv")):
        code = dispatch(["solve", "--strategy", "robust-omega", "--tau", "0.6", *flags,
                         "--out", str(tmp_path / "bad.json")])
        assert code == 1
        assert message in json.loads(capsys.readouterr().err)["error"]
    assert not (tmp_path / "bad.json").exists()


def test_simulate_reproduces_gamma_targets(tmp_path):
    # the 15-draw estimate is the configuration that attains the gamma targets
    out = tmp_path / "sim.json"
    code = dispatch(["simulate", "--dist", "beta:2,6", "--tau", "0.75",
                     "--m", "15", "--n", "1000000", "--theta", "0.9",
                     "--seed", "20250809", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["gamma_u"] - 0.403) <= 0.02
    assert abs(payload["gamma_la"] - 0.602) <= 0.02


def test_solve_csv_output(tmp_path):
    out = tmp_path / "solve.csv"
    code = dispatch(["solve", "--strategy", "robust-s", "--dist", "beta:2,6",
                     "--output", "csv", "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["key", "value"]
    assert ["y_star", "0.25"] in rows


def test_deform_csv(tmp_path):
    out = tmp_path / "deform.csv"
    code = dispatch(["deform", "--dist", "beta:2,6", "--rho", "0.3",
                     "--grid-step", "0.1", "--output", "csv", "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["x", "reference", "upper", "lower"]
    assert len(rows) == 12
    x, ref, up, lo = (float(v) for v in rows[5])
    assert lo <= ref <= up


@pytest.mark.parametrize("step", ["0", "-0.1", "nan", "inf"])
def test_deform_rejects_a_grid_step_it_cannot_use(tmp_path, capsys, step):
    out = tmp_path / "deform.json"
    code = dispatch(["deform", "--dist", "beta:2,6", "--rho", "0.3",
                     "--grid-step", step, "--out", str(out)])
    assert code == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"--grid-step must be a positive finite number, got {float(step)!r}"
    assert not out.exists()


def test_simulate_json_and_idempotence(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["simulate", "--dist", "beta:2,6", "--tau", "0.75", "--m", "10",
            "--n", "20000", "--eps-grid", "0:0.05:1", "--seed", "31"]
    assert dispatch(args + ["--out", str(out1)]) == 0
    assert dispatch(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert 0.0 < payload["gamma_u"] < 1.0
    assert payload["seed"] == 31
    assert payload["config"]["m"] == 10


def test_threads_flag_is_a_usage_error(tmp_path, capsys):
    # every command runs serially: --threads is no option, given directly or through --config
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads = 1\n")
    sim = ["--dist", "beta:2,6", "--tau", "0.75"]
    market = ["--market", str(tmp_path / "m.csv"), "--forecasts", str(tmp_path / "fc")]
    commands = [["simulate", *sim, "--m", "10"], ["msweep", *sim],
                ["crossval", *market], ["backtest", *market]]
    for argv in commands:
        for extra in (["--threads", "1"], ["--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                dispatch([*argv, *extra, "--out", str(tmp_path / "out.json")])
            assert exc.value.code == 2, (argv[0], extra)
            assert "unrecognized arguments: --threads 1" in capsys.readouterr().err


def test_simulate_csv_curves(tmp_path):
    out = tmp_path / "curves.csv"
    assert dispatch(["simulate", "--dist", "beta:2,6", "--tau", "0.75", "--m", "5",
                     "--n", "10000", "--eps-grid", "0:0.25:1", "--output", "csv",
                     "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["epsilon", "arm", "expected_loss"]
    arms = {r[1] for r in rows[1:]}
    assert arms == {"oracle", "bn", "robust", "dr_uniform", "dr_level_adjusted"}
    assert len(rows) == 1 + 5 * 5


def test_solve_from_forecast_file(tmp_path):
    fc = tmp_path / "fc.csv"
    fc.write_text("level,value\n0.25,0.2\n0.5,0.4\n0.75,0.6\n")
    out = tmp_path / "solve.json"
    assert dispatch(["solve", "--strategy", "direct", "--forecast", str(fc),
                     "--tau", "0.5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["y_star"] == 0.4


def test_solve_rejects_non_finite_forecast_knots(tmp_path, capsys):
    fc = tmp_path / "fc.csv"
    fc.write_text("level,value\n0.25,0.1\n0.5,nan\n0.75,0.9\n")
    code = dispatch(["solve", "--strategy", "direct", "--forecast", str(fc),
                     "--tau", "0.5", "--out", str(tmp_path / "solve.json")])
    assert code == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert "fc.csv: values must be finite" in error


@pytest.mark.parametrize("flags, message", [
    (["--strategy", "dr-s", "--tau", "0.75", "--eps", "nan"],
     "ball radius must be non-negative, got nan"),
    (["--strategy", "dr-s", "--tau", "0.75", "--eps", "nan", "--ball", "level-adjusted",
      "--theta", "0.5"], "ball radius must be non-negative, got nan"),
    (["--strategy", "dr-s", "--tau", "0.75", "--eps", "0.1", "--ball", "level-adjusted"],
     "level-adjusted balls require a shape parameter theta"),
    (["--strategy", "robust-s", "--dist", "beta:1,inf"],
     "Beta shape parameters must be positive and finite, got a=1.0, b=inf"),
    (["--strategy", "robust-s", "--dist", "beta:inf,1"],
     "Beta shape parameters must be positive and finite, got a=inf, b=1.0"),
    (["--strategy", "dr-s", "--tau", "0.5", "--eps", "0.1", "--theta", "0.5"],
     "theta only applies to level-adjusted balls"),
])
def test_solve_rejects_a_radius_or_shape_it_cannot_use(tmp_path, capsys, flags, message):
    out = tmp_path / "solve.json"
    code = dispatch(["solve", "--dist", "beta:2,6", *flags, "--out", str(out)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == message
    assert not out.exists()


def test_synth_rejects_a_start_off_the_hour(tmp_path, capsys):
    market = tmp_path / "s.csv"
    code = dispatch(["synth", "--days", "3", "--start", "2020-01-01T00:30",
                     "--market-out", str(market), "--forecasts-out", str(tmp_path / "fc"),
                     "--out", str(tmp_path / "synth.json")])
    assert code == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == "start must be on the hour, got 2020-01-01T00:30:00"
    assert not market.exists()


def test_synth_names_a_start_that_is_not_a_timestamp(tmp_path, capsys):
    market = tmp_path / "s.csv"
    code = dispatch(["synth", "--days", "3", "--start", "garbage",
                     "--market-out", str(market), "--forecasts-out", str(tmp_path / "fc"),
                     "--out", str(tmp_path / "synth.json")])
    assert code == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == "--start must be an ISO 8601 date and time, got 'garbage'"
    assert not market.exists()


def test_msweep_json(tmp_path):
    out = tmp_path / "ms.json"
    assert dispatch(["msweep", "--dist", "beta:2,6", "--tau", "0.75",
                     "--m-min", "4", "--m-max", "6", "--m-step", "2",
                     "--n", "10000", "--eps-grid", "0:0.1:1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["m_values"] == [4, 6]
    assert len(payload["gamma_u"]) == 2
    assert len(payload["gamma_la_se"]) == 2


def test_msweep_gammas_do_not_depend_on_the_other_m_values(tmp_path):
    # each m draws from its own stream family, so one m per command (the
    # benchmark's msweep workload) reads the same gammas as one range command
    sim = ["--dist", "beta:2,6", "--tau", "0.75", "--n", "40000", "--eps-grid", "0:0.05:1"]
    keys = ("gamma_u", "gamma_la", "gamma_u_se", "gamma_la_se")
    assert dispatch(["msweep", *sim, "--m-min", "1", "--m-max", "8",
                     "--out", str(tmp_path / "all.json")]) == 0
    together = json.loads((tmp_path / "all.json").read_text())
    assert together["m_values"] == list(range(1, 9))
    for i, m in enumerate(together["m_values"]):
        out = tmp_path / f"m{m}.json"
        assert dispatch(["msweep", *sim, "--m-min", str(m), "--m-max", str(m), "--out", str(out)]) == 0
        alone = json.loads(out.read_text())
        assert alone["m_values"] == [m]
        assert [alone[key][0] for key in keys] == [together[key][i] for key in keys], m


@pytest.mark.parametrize("m", [3, 5, 12])
def test_simulate_equals_the_msweep_point_at_its_m(tmp_path, m):
    # an m-draw experiment reads one stream family whichever command runs it
    sim = ["--dist", "beta:2,6", "--tau", "0.75", "--n", "20000", "--eps-grid", "0:0.05:1"]
    assert dispatch(["simulate", *sim, "--m", str(m), "--out", str(tmp_path / "sim.json")]) == 0
    assert dispatch(["msweep", *sim, "--m-min", str(m), "--m-max", str(m),
                     "--out", str(tmp_path / "ms.json")]) == 0
    alone = json.loads((tmp_path / "sim.json").read_text())
    point = json.loads((tmp_path / "ms.json").read_text())
    assert [alone["gamma_u"], alone["gamma_la"]] == [point["gamma_u"][0], point["gamma_la"][0]]
    assert [alone["gamma_se"]["dr_uniform"], alone["gamma_se"]["dr_level_adjusted"]] == \
        [point["gamma_u_se"][0], point["gamma_la_se"][0]]


@pytest.mark.parametrize("flags, message", [
    (["msweep", "--m-min", "10", "--m-max", "5"], "--m-min 10 to --m-max 5 is an empty range"),
    (["msweep", "--m-step", "0"], "--m-step must be at least 1, got 0"),
    (["msweep", "--m-min", "0"], "--m-min must be at least 1, got 0"),
    (["msweep", "--n", "0"], "--n must be at least 1, got 0"),
    (["simulate", "--m", "0"], "--m must be at least 1, got 0"),
    (["simulate", "--m", "5", "--n", "0"], "--n must be at least 1, got 0"),
])
def test_msweep_rejects_a_bad_m_range(tmp_path, capsys, flags, message):
    # both commands name the count flag, which the library texts do not
    command, *counts = flags
    out = tmp_path / "ms.json"
    code = dispatch([command, "--dist", "beta:2,6", "--tau", "0.75", "--n", "1000", *counts,
                     "--out", str(out)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == message
    assert not out.exists()


def test_backtest_penalty_scale_flag(tmp_path):
    market, fdir = tmp_path / "m.csv", tmp_path / "fc"
    dispatch(["synth", "--days", "34", "--seed", "9", "--market-out", str(market),
              "--forecasts-out", str(fdir), "--out", str(tmp_path / "s.json")])
    flags = ["--market", str(market), "--forecasts", str(fdir),
             "--warm-start-days", "30", "--tau-window-days", "20", "--cv-days", "10",
             "--m-grid", "8", "--eps-grid", "0,0.1", "--strategies", "oracle,bn"]
    base, scaled = tmp_path / "b.json", tmp_path / "sc.json"
    assert dispatch(["backtest", *flags, "--out", str(base)]) == 0
    assert dispatch(["backtest", *flags, "--penalty-scale", "2", "--out", str(scaled)]) == 0
    r0 = json.loads(base.read_text())["strategies"]["bn"]["regret_per_mwh"]
    r2 = json.loads(scaled.read_text())["strategies"]["bn"]["regret_per_mwh"]
    assert r2 > r0  # harsher penalties deepen the plain offer's regret


@pytest.fixture(scope="module")
def market_flags(tmp_path_factory):
    """Backtest flags over a small synthetic market written once for the module."""
    root = tmp_path_factory.mktemp("market")
    market, fdir = root / "m.csv", root / "fc"
    assert dispatch(["synth", "--days", "34", "--seed", "9", "--market-out", str(market),
                     "--forecasts-out", str(fdir), "--out", str(root / "s.json")]) == 0
    return ["--market", str(market), "--forecasts", str(fdir),
            "--warm-start-days", "30", "--tau-window-days", "20", "--cv-days", "10",
            "--m-grid", "8", "--rho-grid", "0,0.2", "--eps-grid", "0,0.1",
            "--theta-grid", "0.9"]


# each command's flags short of an artifact path, and the first line of its CSV artifact
_ARTIFACT_COMMANDS = {
    "solve": (["--strategy", "direct", "--dist", "uniform", "--tau", "0.75"], "key,value"),
    "deform": (["--dist", "uniform", "--rho", "0.2", "--grid-step", "0.25"],
               "x,reference,upper,lower"),
    "simulate": (["--dist", "beta:2,6", "--tau", "0.75", "--m", "5", "--n", "1000",
                  "--eps-grid", "0,0.5"], "epsilon,arm,expected_loss"),
    "msweep": (["--dist", "beta:2,6", "--tau", "0.75", "--m-max", "3", "--n", "1000",
                "--eps-grid", "0,0.5"], "m,ball,gamma,gamma_se"),
    "crossval": ([], "day,strategy,param,value"),
    "backtest": ([], "timestamp,strategy,revenue,regret,cum_delta_regret"),
    "synth": (["--days", "3", "--market-out", "m.csv", "--forecasts-out", "fc"], "key,value"),
}


@pytest.mark.parametrize("output", ["json", "csv"])
@pytest.mark.parametrize("command", list(_ARTIFACT_COMMANDS))
def test_default_artifact_name_follows_the_command_and_output(tmp_path, monkeypatch, capsys,
                                                              market_flags, command, output):
    monkeypatch.chdir(tmp_path)
    flags, header = _ARTIFACT_COMMANDS[command]
    argv = [command, *flags, *(market_flags if command in ("crossval", "backtest") else []),
            "--output", output]
    assert dispatch(argv) == 0
    name = f"{command}.{output}"
    text = (tmp_path / name).read_text()
    if output == "json":
        assert json.loads(text)
    else:
        assert text.splitlines()[0] == header
        assert not (tmp_path / f"{command}.json").exists()
    # synth's summary names the market file it wrote, every other one its artifact
    named = "m.csv" if command == "synth" else name
    assert capsys.readouterr().out.rstrip().endswith(f"-> {named}")
    # an explicit --out still wins, and holds the same bytes
    assert dispatch([*argv, "--out", "explicit.out"]) == 0
    assert (tmp_path / "explicit.out").read_bytes() == (tmp_path / name).read_bytes()
    named = "m.csv" if command == "synth" else "explicit.out"
    assert capsys.readouterr().out.rstrip().endswith(f"-> {named}")


def _static(**changes):
    """A fixed-window selection for the default strategies, with some replaced."""
    params = {"oracle": {}, "bn": {"m": 8}, "dr_omega": {"m": 8, "rho": 0.2},
              "dr_s_uniform": {"m": 8, "epsilon": 0.1},
              "dr_s_level_adjusted": {"m": 8, "epsilon": 0.1, "theta": 0.9}, "robust_s": {}}
    return {"mode": "fixed_window", "static": {**params, **changes}}


@pytest.mark.parametrize("params, names", [
    ([], "JSON object"),
    ({}, "'mode'"),
    ({"mode": "weekly"}, "'mode'"),
    ({"mode": "fixed_window"}, "'static'"),
    ({"mode": "sliding", "static": {}}, "'per_day'"),
    ({"mode": "sliding", "per_day": {"day 31": {}}}, "'day 31'"),
    ({"mode": "fixed_window", "static": {}}, "no parameters for strategy 'oracle'"),
    ({"mode": "fixed_window", "static": {"oracle": {}, "bn": {"rho": 0.1}}},
     "strategy 'bn' has no parameter 'm'"),
    ({"mode": "sliding", "per_day": {str(d): {"oracle": {}} for d in range(31, 35)}},
     "no parameters for strategy 'bn' on day 31"),
    # values: each must be one the strategy can use under the plan (tau window 20)
    *[(_static(bn={"m": m}), f"strategy 'bn' parameter 'm' must be an integer from 1 to 19, "
                             f"got {m!r}")
      for m in (None, 500, 2.7, "5", True, 0)],
    (_static(dr_omega={"m": 8, "rho": 1.5}), "strategy 'dr_omega' parameter 'rho' must lie in"),
    (_static(dr_omega={"m": 8, "rho": False}), "strategy 'dr_omega' parameter 'rho' must be a "
                                               "number, got False"),
    (_static(dr_s_uniform={"m": 8, "epsilon": -0.1}),
     "strategy 'dr_s_uniform' parameter 'epsilon' must be non-negative"),
    (_static(dr_s_level_adjusted={"m": 8, "epsilon": 11.0, "theta": 0.9}),
     "strategy 'dr_s_level_adjusted' parameter 'epsilon' must lie in [0, 10.0]"),
    (_static(dr_s_level_adjusted={"m": 8, "epsilon": 0.1, "theta": 1.0}),
     "strategy 'dr_s_level_adjusted' parameter 'theta' must lie in [0, 1)"),
    ({"mode": "sliding", "per_day": {str(d): _static(bn={"m": 8 if d < 33 else 20})["static"]
                                     for d in range(31, 35)}},
     "strategy 'bn' parameter 'm' must be an integer from 1 to 19, got 20 on day 33"),
    # day keys: one canonical spelling each, so "31" and "031" cannot merge
    *[({"mode": "sliding", "per_day": {"31": {}, key: {}}}, repr(key))
      for key in ("031", " 32", "+32", "32 ", "\u0666", "\u0663\u0662", "3_2", "")],
    # shapes: objects only, roster strategies, and only the parameters a strategy reads
    ({"mode": "sliding", "per_day": {**{str(d): _static()["static"] for d in range(31, 35)},
                                     "999": 5}}, "day 999 must map to an object of strategies"),
    ({"mode": "sliding", "per_day": {**{str(d): _static()["static"] for d in range(31, 35)},
                                     "999": {"bn": 3}}},
     "strategy 'bn' on day 999 must map to an object of parameters, got 3"),
    (_static(robust_omega=5), "strategy 'robust_omega' must map to an object of parameters"),
    (_static(junk={}), "unknown strategy 'junk'"),
    (_static(bn={"m": 8, "zzz": "a"}), "strategy 'bn' does not read parameter 'zzz'"),
    (_static(bn={"m": 8, "zzz": [1]}), "strategy 'bn' does not read parameter 'zzz'"),
    # a day that is never evaluated is still checked for parameter names
    ({"mode": "sliding", "per_day": {**{str(d): _static()["static"] for d in range(31, 35)},
                                     "999": {"bn": {"m": 8, "zzz": 1}}}},
     "strategy 'bn' does not read parameter 'zzz' on day 999"),
])
def test_backtest_malformed_params_exit_1(tmp_path, capsys, market_flags, params, names):
    path = tmp_path / "chosen.json"
    path.write_text(json.dumps(params))
    code = dispatch(["backtest", *market_flags, "--params", str(path),
                     "--out", str(tmp_path / "bt.json")])
    assert code == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith("chosen parameters") and names in error


def test_backtest_names_a_params_file_that_is_not_json(tmp_path, capsys, market_flags):
    path = tmp_path / "chosen.json"
    path.write_text("day,strategy,param,value\n")
    out = tmp_path / "bt.json"
    code = dispatch(["backtest", *market_flags, "--params", str(path), "--out", str(out)])
    assert code == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"--params {path}: not JSON: Expecting value: line 1 column 1 (char 0)"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["crossval", "--m-grid", "abc"], "--m-grid must be a start:step:stop range"),
    (["crossval", "--warm-start-days", "5"], "warm start must equal tau window plus"),
    (["backtest", "--params", "notjson.json"], "--params notjson.json: not JSON"),
    # an m the tau window cannot hold, on every priced day and on a day no backtest prices
    (["backtest", "--params", "fixed.json"],
     "chosen parameters: strategy 'bn' parameter 'm' must be an integer from 1 to 90, got 500"),
    (["backtest", "--params", "sliding.json"],
     "chosen parameters: strategy 'bn' parameter 'm' must be an integer from 1 to 90, "
     "got 500 on day 999"),
    # JSON's Infinity parses to a float the artifact could only echo as null
    (["backtest", "--params", "infinite.json"],
     "chosen parameters: strategy 'dr_s_uniform' parameter 'epsilon' must be finite, got inf"),
], ids=["m-grid", "warm-start-days", "params", "params-m-fixed", "params-m-unpriced-day",
        "params-epsilon-infinite"])
def test_flags_and_params_are_checked_before_the_market_is_read(tmp_path, monkeypatch, capsys,
                                                                argv, message):
    def load_market_data(*args, **kwargs):
        raise AssertionError("the market was read before its flags were checked")

    monkeypatch.setattr(bt, "load_market_data", load_market_data)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "notjson.json").write_text("not json\n")
    (tmp_path / "fixed.json").write_text(json.dumps(
        {"mode": "fixed_window", "static": {"oracle": {}, "bn": {"m": 500}}}))
    (tmp_path / "sliding.json").write_text(json.dumps(
        {"mode": "sliding", "per_day": {"131": {"bn": {"m": 90}}, "999": {"bn": {"m": 500}}}}))
    (tmp_path / "infinite.json").write_text(
        '{"mode": "fixed_window", "static": {"dr_s_uniform": {"m": 8, "epsilon": Infinity}}}')
    # the market does not exist either: the flag's own error is the one reported
    assert dispatch([*argv, "--market", "nope.csv", "--forecasts", "fc"]) == 1
    assert json.loads(capsys.readouterr().err)["error"].startswith(message)


def test_crossval_empty_grid_exits_1(tmp_path, capsys, market_flags):
    code = dispatch(["crossval", *market_flags, "--rho-grid", "",
                     "--out", str(tmp_path / "chosen.json")])
    assert code == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == "rho_grid is empty, but strategy 'dr_omega' needs it"


@pytest.mark.parametrize("command, roster, message", [
    ("crossval", "bn,bn", "strategy 'bn' is listed twice"),
    ("backtest", "bn,oracle,bn", "strategy 'bn' is listed twice"),
    ("crossval", "", "the strategy roster is empty"),
    ("crossval", ",", "the strategy roster is empty"),
])
def test_a_roster_with_a_repeat_or_no_strategy_exits_1(tmp_path, capsys, market_flags,
                                                        command, roster, message):
    out = tmp_path / "out.json"
    code = dispatch([command, *market_flags, "--strategies", roster, "--out", str(out)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == message
    assert not out.exists()


@pytest.mark.parametrize("command", ["crossval", "backtest"])
@pytest.mark.parametrize("value", ["10.7", "nan"])
def test_m_grid_rejects_values_that_are_not_whole_days(tmp_path, capsys, market_flags,
                                                       command, value):
    out = tmp_path / "out.json"
    code = dispatch([command, *market_flags, "--m-grid", value, "--out", str(out)])
    assert code == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"--m-grid values must be whole numbers of days, got {float(value)!r}"
    assert not out.exists()


def test_an_m_free_roster_runs_past_the_default_m_grid(tmp_path, market_flags):
    # oracle and robust_s read no m, so the default --m-grid 90 is not held to the 20-day window;
    # the warm start is derived, so the same run needs no --warm-start-days
    artifacts = []
    for warm_start in (["--warm-start-days", "30"], []):
        flags = [*market_flags[:4], *warm_start, "--tau-window-days", "20",
                 "--cv-days", "10", "--strategies", "oracle,robust_s"]
        chosen = tmp_path / f"chosen{len(warm_start)}.json"
        report = tmp_path / f"bt{len(warm_start)}.json"
        assert dispatch(["crossval", *flags, "--out", str(chosen)]) == 0
        assert json.loads(chosen.read_text())["static"] == {"oracle": {}, "robust_s": {}}
        assert dispatch(["backtest", *flags, "--params", str(chosen), "--out", str(report)]) == 0
        assert set(json.loads(report.read_text())["strategies"]) == {"oracle", "robust_s"}
        artifacts.append((chosen.read_bytes(), report.read_bytes()))
    assert artifacts[0] == artifacts[1]


def test_m_grid_whole_float_matches_integer(tmp_path, market_flags):
    for value in ("10", "10.0"):
        assert dispatch(["crossval", *market_flags, "--m-grid", value,
                         "--out", str(tmp_path / f"{value}.json")]) == 0
    assert (tmp_path / "10.json").read_bytes() == (tmp_path / "10.0.json").read_bytes()


SIM_FLAGS = ["--dist", "beta:2,6", "--tau", "0.75", "--m", "5", "--n", "1000"]


@pytest.mark.parametrize("value", ["abc", "0:0:1", "1:0.1:0", "0:0.1", "0:nan:1", "0:0.1:inf",
                                   "0,inf"])
def test_simulate_grid_errors_name_the_flag(tmp_path, capsys, monkeypatch, value):
    # before the sweep, on a uniform ball, which the library lets take an infinite radius
    monkeypatch.setattr(cli.mc, "run_epsilon_sweep", None)
    out = tmp_path / "sim.json"
    code = dispatch(["simulate", *SIM_FLAGS, "--ball", "uniform", "--eps-grid", value,
                     "--out", str(out)])
    assert code == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith("--eps-grid ") and repr(value) in error
    assert not out.exists()


@pytest.mark.parametrize("flags, true_dist", [
    (["--dist", "uniform"], "Uniform01()"),
    (["--dist", "heaviside:0.3"], "Heaviside(0.3)"),
    (["--forecast"], "PiecewiseLinear(20 knots)"),
])
def test_simulate_writes_the_true_distribution_it_read(tmp_path, flags, true_dist):
    if flags == ["--forecast"]:
        write_forecast_dir(make_synthetic_market(n_days=1)[:1], tmp_path / "fc")
        flags = ["--forecast", str(next((tmp_path / "fc").iterdir()))]
    out = tmp_path / "sim.json"
    assert dispatch(["simulate", *flags, "--tau", "0.75", "--m", "3", "--n", "2000",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["true_dist"] == true_dist


@pytest.mark.parametrize("flag", ["--eps-grid", "--rho-grid", "--theta-grid", "--m-grid"])
@pytest.mark.parametrize("value", ["abc", "0:0:1", "inf"])
def test_crossval_grid_errors_name_the_flag(tmp_path, capsys, market_flags, flag, value):
    out = tmp_path / "chosen.json"
    code = dispatch(["crossval", *market_flags, flag, value, "--out", str(out)])
    assert code == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith(f"{flag} ") and repr(value) in error
    assert not out.exists()


@pytest.mark.parametrize("spec, grid", [
    ("0:0.15:0.25", (0.0, 0.15)),
    ("0:0.6:1", (0.0, 0.6)),
    ("0.5:1:0.5", (0.5,)),
])
def test_range_grid_never_passes_stop(spec, grid):
    assert cli._parse_grid(spec, "--eps-grid") == grid


def test_range_grids_on_their_step_lattice_are_unchanged():
    # the values a range gave when its length was rounded rather than floored
    for start, step, stop in [(0, 0.01, 1), (0, 0.05, 1), (0, 0.1, 1), (0.2, 0.1, 0.9),
                              (0, 0.025, 0.25), (1, 1, 75)]:
        n = int(round((stop - start) / step))
        expect = tuple(float(v) for v in np.round(np.linspace(start, start + n * step, n + 1), 12))
        assert cli._parse_grid(f"{start}:{step}:{stop}", "--eps-grid") == expect
    assert len(cli._parse_grid("0:0.01:1", "--eps-grid")) == 101


def test_range_grid_past_stop_is_neither_evaluated_nor_rejected(tmp_path, market_flags):
    for name, grid in (("range", "0:0.15:0.25"), ("list", "0,0.15")):
        assert dispatch(["crossval", *market_flags, "--eps-grid", grid,
                         "--out", str(tmp_path / f"{name}.json")]) == 0
    assert (tmp_path / "range.json").read_bytes() == (tmp_path / "list.json").read_bytes()
    assert dispatch(["simulate", *SIM_FLAGS, "--eps-grid", "0:0.6:1",
                     "--out", str(tmp_path / "sim.json")]) == 0
    config = json.loads((tmp_path / "sim.json").read_text())["config"]
    assert config["epsilon_grid"] == [0.0, 0.6]


def test_simulate_and_msweep_take_the_balls_radius_range(tmp_path, capsys):
    sim = ["--dist", "beta:2,6", "--tau", "0.75", "--n", "1000"]
    for command in (["simulate", "--m", "5"], ["msweep", "--m-max", "3"]):
        out = tmp_path / f"{command[0]}.json"
        assert dispatch([*command, *sim, "--eps-grid", "0:0.5:2", "--out", str(out)]) == 0
    config = json.loads((tmp_path / "simulate.json").read_text())["config"]
    assert config["epsilon_grid"] == [0.0, 0.5, 1.0, 1.5, 2.0]
    # past the level-adjusted cap only a uniform-only sweep runs
    assert dispatch(["simulate", *SIM_FLAGS, "--eps-grid", "0,11", "--ball", "uniform",
                     "--out", str(tmp_path / "uniform.json")]) == 0
    capsys.readouterr()
    assert dispatch(["simulate", *SIM_FLAGS, "--eps-grid", "0,11",
                     "--out", str(tmp_path / "both.json")]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == (
        "epsilon grid must lie in [0, 10.0] for level-adjusted balls, got 11.0")


def test_commands_left_at_their_defaults_build_the_library_defaults(tmp_path, monkeypatch):
    def parsed(*argv):
        return cli._parser().parse_args(list(argv))

    for command in ("crossval", "backtest"):
        args = parsed(command, "--market", "m.csv", "--forecasts", "fc")
        assert cli._plan_from_args(args) == BacktestPlan()
    dist = Beta(2, 6)
    defaults = SimConfig(true_dist=dist, true_tau=0.75, n_replicates=1)
    assert all(type(eps) is float for eps in defaults.epsilon_grid)
    for command in (["simulate", "--m", "1"], ["msweep"]):
        config = cli._sim_config(parsed(*command, "--dist", "beta:2,6", "--tau", "0.75"))
        assert replace(config, true_dist=dist, n_replicates=1) == defaults
        assert all(type(eps) is float for eps in config.epsilon_grid)

    calls = []

    def one_day_market(**kwargs):
        calls.append(kwargs)
        return make_synthetic_market(**{**kwargs, "n_days": 1})

    monkeypatch.setattr(cli, "make_synthetic_market", one_day_market)
    monkeypatch.chdir(tmp_path)
    assert dispatch(["synth"]) == 0
    params = inspect.signature(make_synthetic_market).parameters
    library = {name: p.default for name, p in params.items()}
    assert calls == [library]
    payload = json.loads((tmp_path / "synth.json").read_text())
    assert (payload["days"], payload["tau"], payload["seed"]) == (
        library["n_days"], library["tau"], library["master_seed"])


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
def test_backtest_rejects_a_penalty_scale_it_cannot_use(tmp_path, capsys, market_flags, value):
    out = tmp_path / "bt.json"
    code = dispatch(["backtest", *market_flags, "--penalty-scale", value, "--out", str(out)])
    assert code == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"--penalty-scale must be positive and finite, got {float(value)!r}"
    assert not out.exists()


def test_synth_creates_the_directory_of_each_output(tmp_path):
    market, fdir = tmp_path / "new" / "market.csv", tmp_path / "other" / "fc"
    assert dispatch(["synth", "--days", "2", "--market-out", str(market),
                     "--forecasts-out", str(fdir), "--out", str(tmp_path / "s.json")]) == 0
    assert len(load_market_data(market, fdir)) == 48


@pytest.mark.parametrize("value", ["nan", "0", "0.5", "inf"])
def test_synth_rejects_a_spread_outside_its_range(tmp_path, capsys, value):
    market = tmp_path / "m.csv"
    code = dispatch(["synth", "--days", "2", "--spread", value, "--market-out", str(market),
                     "--forecasts-out", str(tmp_path / "fc"), "--out", str(tmp_path / "s.json")])
    assert code == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith("mean relative spread must lie in (0, 0.5)")
    assert not market.exists()


def test_commands_start_no_threads(tmp_path, monkeypatch, market_flags):
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    sim = ["--dist", "beta:2,6", "--tau", "0.75", "--eps-grid", "0:0.1:1"]
    commands = [
        ["simulate", *sim, "--m", "10", "--n", "50000"],
        ["msweep", *sim, "--m-min", "4", "--m-max", "6", "--n", "20000"],
        ["crossval", *market_flags],
        ["backtest", *market_flags],
    ]
    for i, argv in enumerate(commands):
        assert dispatch([*argv, "--out", str(tmp_path / f"out{i}.json")]) == 0, argv[0]
    assert started == []


def test_solve_dr_omega_keeps_the_band_tail_at_large_radius(tmp_path):
    # the lower band's mirror level rounds to 1 here; its quantile must not
    out = tmp_path / "solve.json"
    assert dispatch(["solve", "--strategy", "dr-omega", "--dist", "beta:0.5,8",
                     "--tau", "0.5", "--rho", "0.99", "--out", str(out)]) == 0
    q_lower = json.loads(out.read_text())["diagnostics"]["q_lower"]
    assert q_lower == pytest.approx(0.9998810170160655, rel=1e-12)


def test_msweep_csv(tmp_path):
    out = tmp_path / "ms.csv"
    assert dispatch(["msweep", "--dist", "beta:2,6", "--tau", "0.75",
                     "--m-min", "4", "--m-max", "8", "--m-step", "2",
                     "--n", "10000", "--eps-grid", "0:0.1:1", "--out", str(out),
                     "--output", "csv"]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["m", "ball", "gamma", "gamma_se"]
    assert len(rows) == 1 + 3 * 2


def test_msweep_writes_an_arm_it_did_not_sweep_as_missing(tmp_path):
    flags = ["msweep", "--dist", "beta:2,6", "--tau", "0.75", "--m-min", "4", "--m-max", "6",
             "--m-step", "2", "--n", "40000", "--ball", "uniform"]
    assert dispatch([*flags, "--out", str(tmp_path / "ms.json")]) == 0
    payload = json.loads((tmp_path / "ms.json").read_text())
    assert payload["gamma_la"] == payload["gamma_la_se"] == [None, None]
    assert all(isinstance(v, float) for v in payload["gamma_u"] + payload["gamma_u_se"])
    assert dispatch([*flags, "--output", "csv", "--out", str(tmp_path / "ms.csv")]) == 0
    rows = list(csv.reader((tmp_path / "ms.csv").open()))[1:]
    assert [row[:2] for row in rows] == [["4", "uniform"], ["4", "level_adjusted"],
                                         ["6", "uniform"], ["6", "level_adjusted"]]
    assert [row[2:] for row in rows[1::2]] == [["nan", "nan"]] * 2
    assert all(np.isfinite(float(v)) for row in rows[::2] for v in row[2:])


def test_synth_crossval_backtest_pipeline(tmp_path):
    market = tmp_path / "market.csv"
    fdir = tmp_path / "forecasts"
    assert dispatch(["synth", "--days", "36", "--seed", "3",
                     "--market-out", str(market), "--forecasts-out", str(fdir),
                     "--out", str(tmp_path / "synth.json")]) == 0
    assert market.exists()
    assert len(list(fdir.glob("*.csv"))) == 36 * 24

    plan_flags = [
        "--market", str(market), "--forecasts", str(fdir),
        "--warm-start-days", "30", "--tau-window-days", "20", "--cv-days", "10",
        "--m-grid", "8", "--eps-grid", "0,0.1,0.2", "--theta-grid", "0.9",
        "--rho-grid", "0,0.2", "--strategies", "oracle,bn,dr_s_uniform,dr_omega",
    ]
    params = tmp_path / "chosen.json"
    assert dispatch(["crossval", *plan_flags, "--out", str(params)]) == 0
    chosen = json.loads(params.read_text())
    assert chosen["mode"] == "fixed_window"
    assert chosen["static"]["dr_s_uniform"]["m"] == 8

    report = tmp_path / "report.json"
    assert dispatch(["backtest", *plan_flags, "--params", str(params),
                     "--out", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["strategies"]["oracle"]["regret_per_mwh"] == 0.0
    assert payload["n_periods"] == 6 * 24

    series = tmp_path / "report.csv"
    assert dispatch(["backtest", *plan_flags, "--params", str(params),
                     "--output", "csv", "--out", str(series)]) == 0
    rows = list(csv.reader(series.open()))
    assert rows[0] == ["timestamp", "strategy", "revenue", "regret", "cum_delta_regret"]
    assert len(rows) == 1 + 4 * 6 * 24


def test_backtest_rerun_is_deterministic(tmp_path):
    market = tmp_path / "market.csv"
    fdir = tmp_path / "forecasts"
    dispatch(["synth", "--days", "34", "--seed", "5", "--market-out", str(market),
              "--forecasts-out", str(fdir), "--out", str(tmp_path / "s.json")])
    flags = ["--market", str(market), "--forecasts", str(fdir),
             "--warm-start-days", "30", "--tau-window-days", "20", "--cv-days", "10",
             "--m-grid", "8", "--eps-grid", "0,0.1", "--strategies", "oracle,bn,dr_s_uniform"]
    a, b = tmp_path / "r1.json", tmp_path / "r2.json"
    assert dispatch(["backtest", *flags, "--out", str(a)]) == 0
    assert dispatch(["backtest", *flags, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_supplies_flags_and_cli_overrides(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "# sweep settings\n"
        "dist = beta:2,6\n"
        "tau = 0.75\n"
        "m = 5\n"
        "n = 5000\n"
        "eps-grid = 0:0.25:1\n"
    )
    out = tmp_path / "sim.json"
    assert dispatch(["simulate", "--config", str(cfg), "--m", "6",
                     "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["m"] == 6          # explicit flag wins
    assert payload["config"]["n_replicates"] == 5000


def _src_env() -> dict:
    """The environment for a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_form_runs_the_command(tmp_path):
    solve = [sys.executable, "-m", "drnewsvendor.cli", "solve", "--strategy", "direct"]
    proc = subprocess.run([*solve, "--dist", "uniform", "--tau", "0.75"], cwd=tmp_path,
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("-> solve.json")
    assert json.loads((tmp_path / "solve.json").read_text())["y_star"] == 0.75
    proc = subprocess.run([*solve, "--dist", "beta:2", "--tau", "0.75"], cwd=tmp_path,
                          env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert "beta spec needs two parameters" in json.loads(line)["error"]


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        dispatch(["solve", "--strategy", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        dispatch([])
    assert exc.value.code == 2


def test_repeated_dispatch_matches_fresh_processes(tmp_path):
    sim = ["--dist", "beta:2,6", "--tau", "0.75", "--eps-grid", "0:0.1:1", "--n", "20000"]
    commands = {
        "simulate.json": ["simulate", *sim, "--m", "12"],
        "msweep.csv": ["msweep", *sim, "--m-min", "3", "--m-max", "6", "--output", "csv"],
    }
    fresh, shared = tmp_path / "fresh", tmp_path / "shared"
    for name, argv in commands.items():
        proc = subprocess.run([sys.executable, "-c", "from drnewsvendor.cli import main; main()",
                               *argv, "--out", str(fresh / name)],
                              env=_src_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    # one process: a command, a usage error, another command
    assert dispatch([*commands["simulate.json"], "--out", str(shared / "simulate.json")]) == 0
    with pytest.raises(SystemExit) as exc:
        dispatch(["msweep", "--tau", "not-a-number"])
    assert exc.value.code == 2
    assert dispatch([*commands["msweep.csv"], "--out", str(shared / "msweep.csv")]) == 0
    for name in commands:
        assert (shared / name).read_bytes() == (fresh / name).read_bytes(), name


def test_domain_error_exits_1(tmp_path, capsys):
    code = dispatch(["solve", "--strategy", "direct", "--dist", "beta:2",
                     "--tau", "0.5", "--out", str(tmp_path / "x.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error"]
    code = dispatch(["solve", "--strategy", "direct", "--dist", "uniform",
                     "--out", str(tmp_path / "x.json")])
    assert code == 1


@pytest.mark.parametrize("argv, message", [
    (["solve", "--strategy", "direct", "--dist", "heaviside:", "--tau", "0.5"],
     "heaviside spec needs a location, got 'heaviside:'"),
    (["solve", "--strategy", "direct", "--dist", "gamma:2,6", "--tau", "0.5"],
     "unknown distribution spec 'gamma:2,6'"),
    (["deform", "--rho", "0.3"], "supply --dist or --forecast"),
    (["solve", "--strategy", "dr-omega", "--dist", "uniform", "--tau", "0.5"],
     "--rho is required for dr-omega"),
    (["solve", "--strategy", "dr-s", "--dist", "uniform", "--tau", "0.5"],
     "--eps is required for dr-s"),
], ids=["heaviside-no-location", "unknown-dist", "deform-no-dist", "dr-omega-no-rho",
        "dr-s-no-eps"])
def test_input_errors_exit_1_naming_the_input(tmp_path, capsys, argv, message):
    out = tmp_path / "out.json"
    assert dispatch([*argv, "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == message
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["solve", "--strategy", "direct", "--out", "out.json", "--config"],
     "--config needs a file path"),
    (["--config", "run.cfg"], "--config requires a subcommand"),
    (["solve", "--config", "run.cfg", "--out", "out.json"], "run.cfg:2: expected key = value"),
], ids=["config-last", "config-no-subcommand", "config-line-without-equals"])
def test_config_errors_exit_1(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("strategy = direct\ntau 0.5\n")  # line 2 has no "="
    assert dispatch(argv) == 1
    assert json.loads(capsys.readouterr().err)["error"] == message
    assert not (tmp_path / "out.json").exists()


# each size lies past a 47-bit address space (128 TiB), so every host refuses it
# at once, whatever its overcommit policy
@pytest.mark.parametrize("argv", [
    ["simulate", "--dist", "beta:2,6", "--tau", "0.75", "--m", "5", "--eps-grid", "0:1e-15:1"],
    ["deform", "--dist", "beta:2,6", "--rho", "0.3", "--grid-step", "1e-15"],
    # a list built from a range raises a MemoryError with no text
    ["msweep", "--dist", "beta:2,6", "--tau", "0.75", "--m-max", str(10**16)],
    ["synth", "--days", str(10**12)],
], ids=["simulate-eps-grid", "deform-grid-step", "msweep-m-max", "synth-days"])
def test_a_size_no_process_can_allocate_exits_1(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert dispatch(argv) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"].startswith("out of memory")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("line, strict", [("strict = true", True), ("strict = false", False)])
def test_a_config_true_line_turns_its_switch_on(tmp_path, monkeypatch, line, strict):
    seen = []

    def load_market_data(market, forecasts, strict=False):
        seen.append(strict)
        raise ValueError("stop before the market is read")

    monkeypatch.setattr(bt, "load_market_data", load_market_data)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n")
    assert dispatch(["crossval", "--config", str(cfg), "--market", "m.csv", "--forecasts", "fc",
                     "--out", str(tmp_path / "chosen.json")]) == 1
    assert seen == [strict]


def test_missing_data_file_exits_1(tmp_path):
    code = dispatch(["backtest", "--market", str(tmp_path / "nope.csv"),
                     "--forecasts", str(tmp_path)])
    assert code == 1


def test_no_temp_residue(tmp_path):
    out = tmp_path / "solve.json"
    dispatch(["solve", "--strategy", "direct", "--dist", "uniform", "--tau", "0.5",
              "--out", str(out)])
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []


def test_out_naming_a_directory_exits_1_and_leaves_no_temp_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.mkdir()
    assert dispatch(["solve", "--strategy", "direct", "--dist", "uniform", "--tau", "0.5",
                     "--out", str(taken)]) == 1
    assert json.loads(capsys.readouterr().err)["error"]
    assert list(tmp_path.iterdir()) == [taken] and list(taken.iterdir()) == []


def test_mixed_naive_and_aware_timestamps_exit_1(tmp_path, capsys):
    market = tmp_path / "m.csv"
    fdir = tmp_path / "fc"
    fdir.mkdir()
    lines = ["timestamp,pi_s,pi_b,s_L,omega_star"]
    for ts in ("2020-01-01T00:00:00", "2020-01-01T01:00:00+00:00"):
        lines.append(f"{ts},50.0,40.0,1.0,0.5")
        (fdir / (ts[:13] + ".csv")).write_text("level,value\n0.25,0.2\n0.5,0.4\n0.75,0.6\n")
    market.write_text("\n".join(lines) + "\n")
    code = dispatch(["backtest", "--market", str(market), "--forecasts", str(fdir),
                     "--out", str(tmp_path / "bt.json")])
    assert code == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert "m.csv:3: column 'timestamp'" in error and "timezone-aware" in error


def test_repeated_local_hour_exits_1(tmp_path, capsys):
    market = tmp_path / "m.csv"
    fdir = tmp_path / "fc"
    fdir.mkdir()
    lines = ["timestamp,pi_s,pi_b,s_L,omega_star"]
    for ts in ("2021-10-31T01:00:00+02:00", "2021-10-31T02:00:00+02:00",
               "2021-10-31T02:00:00+01:00", "2021-10-31T03:00:00+01:00"):
        lines.append(f"{ts},50.0,40.0,1.0,0.5")
        (fdir / (ts[:13] + ".csv")).write_text("level,value\n0.25,0.2\n0.5,0.4\n0.75,0.6\n")
    market.write_text("\n".join(lines) + "\n")
    code = dispatch(["backtest", "--market", str(market), "--forecasts", str(fdir),
                     "--out", str(tmp_path / "bt.json")])
    assert code == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert "m.csv:4: column 'timestamp'" in error and "local hour" in error


_NO_INTEGRATOR = """
import sys
from drnewsvendor.cli import dispatch

def run(*argv):
    assert dispatch(list(argv)) == 0, argv

run("solve", "--strategy", "dr-omega", "--dist", "beta:2,6", "--tau", "0.6", "--rho", "0.3",
    "--out", "solve.json")
run("deform", "--dist", "beta:2,6", "--rho", "0.4", "--grid-step", "0.1", "--out", "deform.json")
run("msweep", "--dist", "beta:2,6", "--tau", "0.75", "--m-min", "4", "--m-max", "4",
    "--n", "1000", "--eps-grid", "0,0.5", "--out", "ms.json")
run("synth", "--days", "34", "--seed", "9", "--market-out", "m.csv", "--forecasts-out", "fc",
    "--out", "synth.json")
run("crossval", "--market", "m.csv", "--forecasts", "fc", "--warm-start-days", "30",
    "--tau-window-days", "20", "--cv-days", "10", "--m-grid", "8", "--rho-grid", "0,0.3",
    "--eps-grid", "0,0.1", "--out", "chosen.json")
assert "scipy.integrate" not in sys.modules, "scipy.integrate was imported"
"""


def test_commands_never_import_scipy_integrate(tmp_path):
    # a fresh interpreter, so that no other test's imports count
    proc = subprocess.run([sys.executable, "-c", _NO_INTEGRATOR], cwd=tmp_path, env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


_NO_SPECIAL = """
import sys
from drnewsvendor.cli import dispatch

flags = ["--market", "m.csv", "--forecasts", "fc", "--warm-start-days", "30",
         "--tau-window-days", "20", "--cv-days", "10", "--m-grid", "8", "--rho-grid", "0,0.3",
         "--eps-grid", "0,0.1"]
assert dispatch(["crossval", *flags, "--out", "chosen.json"]) == 0
assert dispatch(["backtest", *flags, "--params", "chosen.json", "--out", "bt.json"]) == 0
assert "scipy.special" not in sys.modules, "scipy.special was imported"
"""


def test_crossval_and_backtest_never_import_scipy_special(tmp_path):
    # the files are written here, so that only the two commands run in the
    # fresh interpreter (synth draws from a Beta)
    assert dispatch(["synth", "--days", "34", "--seed", "9", "--market-out", str(tmp_path / "m.csv"),
                     "--forecasts-out", str(tmp_path / "fc"), "--out", str(tmp_path / "synth.json")]) == 0
    proc = subprocess.run([sys.executable, "-c", _NO_SPECIAL], cwd=tmp_path, env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


_RHO_1_NO_SPECIAL = """
import sys
from drnewsvendor import Beta, solve_dr_omega
from drnewsvendor.cli import dispatch

assert solve_dr_omega(Beta(2, 6), 0.7, 1.0).y_star == 0.7
assert dispatch(["solve", "--strategy", "dr-omega", "--dist", "beta:2,6", "--tau", "0.7",
                 "--rho", "1", "--out", "solve.json"]) == 0
assert "scipy.special" not in sys.modules, "scipy.special was imported"
"""


def test_a_rho_1_dr_omega_offer_never_imports_scipy_special(tmp_path):
    # at rho = 1 the offer is tau itself, and its empty level block prices no Beta quantile
    proc = subprocess.run([sys.executable, "-c", _RHO_1_NO_SPECIAL], cwd=tmp_path, env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
