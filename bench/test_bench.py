"""The benchmark's own checks, at toy sizes: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import workloads
from drnewsvendor.backtest import BacktestPlan, CvMode

TOY_PLAN = BacktestPlan(warm_start_days=15, tau_window_days=10, cv_days=5, m_grid=(4, 6, 8),
                        rho_grid=(0.0, 0.1), epsilon_grid=(0.0, 0.1), theta_grid=(0.5, 0.9))
TOY = {
    "fixed": workloads.FixedWindow(name="fixed_toy", days=20, plan=TOY_PLAN, gate_days=3),
    "sliding": workloads.Sliding(name="sliding_toy", days=18,
                                 plan=replace(TOY_PLAN, cv_mode=CvMode.SLIDING), gate_rounds=2),
    "msweep": workloads.MSweep(name="msweep_toy", m_max=3, n=2000),
}


def traced(wl, tmp_path):
    ledger = run.Ledger()
    metrics, info = run.trace(wl, 3, tmp_path, ledger, tmp_path / "spans.npz")
    return metrics, info, ledger


@pytest.mark.parametrize("kind", ["fixed", "sliding"])
def test_analytic_settlements_match_traced_revenue_calls(kind, tmp_path):
    wl = TOY[kind]
    metrics, info, ledger = traced(wl, tmp_path)
    counts = info["inputs"]
    # run_backtest settles the oracle benchmark series once more, beside
    # the oracle strategy, to price regret
    assert metrics["economics.revenue.calls"][0] == counts["settlements"] + counts["eval_periods"]
    branches = sum(metrics[f"solvers.solve_dr_s.branch.{b}"][0] for b in ("upper_quantile",
                                                                        "lower_quantile", "mean"))
    assert branches == metrics["solvers.solve_dr_s.calls"][0] > 0
    assert ledger.failed == 0 and not ledger.problems


def test_msweep_leaves_backtest_and_solvers_unreached(tmp_path):
    metrics, info, ledger = traced(TOY["msweep"], tmp_path)
    assert ledger.failed == 0
    assert metrics["economics.expected_loss.calls"][0] > 0
    assert {name for name in info["unreached"]
            if name.startswith(("solvers.", "backtest."))} == {
        name for name in info["layers"] if name.startswith(("solvers.", "backtest."))}


@pytest.mark.parametrize("kind, perturb", [
    ("fixed", lambda out: out.update(chosen=out["chosen"].replace(b'"rho": 0.', b'"rho": 7.'))),
    ("sliding", lambda out: out["report"].revenues["bn"].__setitem__(0, float("nan"))),
    ("msweep", lambda out: out["sweeps"][1].update(gamma_la=[1.5])),
])
def test_perturbed_output_counts_as_an_error(kind, perturb, tmp_path):
    wl = TOY[kind]
    inp = wl.setup(1, tmp_path)
    it = wl.iterate(inp)
    clean = run.Ledger()
    clean.add(wl, inp, it, stored=wl.digests(it))
    assert clean.attempted > 0 and clean.failed == 0

    perturb(it.outputs)
    ledger = run.Ledger()
    ledger.add(wl, inp, it, stored=None)
    assert ledger.failed / ledger.attempted > 0


def test_digest_mismatch_counts_as_an_error(tmp_path):
    wl = TOY["msweep"]
    inp = wl.setup(1, tmp_path)
    it = wl.iterate(inp)
    ledger = run.Ledger()
    ledger.add(wl, inp, it, stored={"msweep": "0" * 64})
    assert ledger.failed == len(it.ops)


def test_benchmark_json_names_every_emitted_metric(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    metrics, _, _ = traced(TOY["msweep"], tmp_path)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()}


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "msweep_75", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
