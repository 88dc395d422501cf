"""Artifact ledger: every command's artifacts, byte for byte, against recorded digests.

Each command runs in-process through ``cli.dispatch`` at toy scale in one
working directory, and every artifact's sha256 is compared with
``tests/data/artifact_digests.json``; a forecast directory gets one digest
over its sorted names and bytes. Synthetic outcomes and forecasts come from
scipy's ``betaincinv`` and the Monte-Carlo counts from numpy's generator, so
the file records the numpy and scipy versions it was made with.

After an intended change to an artifact, rewrite the digests with

    PYTHONPATH=src python tests/test_artifacts.py

and list every digest that changed.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from drnewsvendor.cli import dispatch

DIGESTS = Path(__file__).parent / "data" / "artifact_digests.json"

# 45 days: a 22-day warm start (14-day tau window, 8-day CV window) and 23
# evaluation days, every strategy on the roster
_PLAN = ["--market", "market.csv", "--forecasts", "forecasts",
         "--warm-start-days", "22", "--tau-window-days", "14", "--cv-days", "8",
         "--m-grid", "2,10", "--rho-grid", "0,0.15", "--eps-grid", "0,0.05,0.1",
         "--theta-grid", "0.5,0.9",
         "--strategies", "oracle,bn,dr_omega,dr_s_uniform,dr_s_level_adjusted,robust_s,robust_omega"]
_SPARSE = [*_PLAN, "--market", "sparse.csv", "--forecasts", "sparse", "--fallback-tau", "0.5"]
_SIM = ["--dist", "beta:2,6", "--tau", "0.75", "--eps-grid", "0:0.05:0.5"]
_SOLVE = ["solve", "--dist", "beta:2,6", "--tau", "0.75"]

# artifact name and the command that writes it, in run order; a .csv name
# runs with --output csv, and --params names an artifact written before it
CASES = [
    ("synth.json", ["synth", "--days", "45", "--seed", "3",
                    "--market-out", "market.csv", "--forecasts-out", "forecasts"]),
    ("synth.csv", ["synth", "--days", "45", "--seed", "3",
                   "--market-out", "market.csv", "--forecasts-out", "forecasts"]),
    ("crossval-fixed.json", ["crossval", *_PLAN]),
    ("crossval-fixed.csv", ["crossval", *_PLAN]),
    ("crossval-sliding.json", ["crossval", *_PLAN, "--cv-mode", "sliding"]),
    ("crossval-sliding.csv", ["crossval", *_PLAN, "--cv-mode", "sliding"]),
    ("backtest.json", ["backtest", *_PLAN]),
    ("backtest.csv", ["backtest", *_PLAN]),
    ("backtest-fixed-params.json", ["backtest", *_PLAN, "--params", "crossval-fixed.json"]),
    ("backtest-fixed-params.csv", ["backtest", *_PLAN, "--params", "crossval-fixed.json"]),
    ("backtest-sliding-params.json", ["backtest", *_PLAN, "--cv-mode", "sliding",
                                      "--params", "crossval-sliding.json"]),
    ("backtest-sliding-params.csv", ["backtest", *_PLAN, "--cv-mode", "sliding",
                                     "--params", "crossval-sliding.json"]),
    ("backtest-penalty2.json", ["backtest", *_PLAN, "--penalty-scale", "2"]),
    ("backtest-penalty2.csv", ["backtest", *_PLAN, "--penalty-scale", "2"]),
    # most periods unbalanced, so 2-day tau windows are often empty and read the fallback
    ("synth-sparse.json", ["synth", "--days", "45", "--seed", "5", "--no-balancing-rate", "0.6",
                           "--market-out", "sparse.csv", "--forecasts-out", "sparse"]),
    ("crossval-rho1.json", ["crossval", *_SPARSE, "--rho-grid", "0,0.15,1"]),
    ("crossval-rho1.csv", ["crossval", *_SPARSE, "--rho-grid", "0,0.15,1"]),
    ("backtest-rho1.json", ["backtest", *_SPARSE, "--rho-grid", "1"]),
    ("backtest-rho1.csv", ["backtest", *_SPARSE, "--rho-grid", "1"]),
    ("solve-direct.json", [*_SOLVE, "--strategy", "direct"]),
    ("solve-direct.csv", [*_SOLVE, "--strategy", "direct"]),
    ("solve-dr-omega.json", [*_SOLVE, "--strategy", "dr-omega", "--rho", "0.2"]),
    ("solve-dr-omega.csv", [*_SOLVE, "--strategy", "dr-omega", "--rho", "0.2"]),
    ("solve-dr-omega-rho1.json", [*_SOLVE, "--strategy", "dr-omega", "--rho", "1"]),
    ("solve-dr-omega-rho1.csv", [*_SOLVE, "--strategy", "dr-omega", "--rho", "1"]),
    ("solve-dr-s.json", [*_SOLVE, "--strategy", "dr-s", "--eps", "0.1"]),
    ("solve-dr-s-level-adjusted.csv", [*_SOLVE, "--strategy", "dr-s", "--eps", "0.1",
                                       "--ball", "level-adjusted", "--theta", "0.9"]),
    ("solve-robust-omega.json", [*_SOLVE, "--strategy", "robust-omega"]),
    ("solve-robust-s.json", [*_SOLVE, "--strategy", "robust-s"]),
    ("solve-forecast-dr-s.json", ["solve", "--forecast", "forecasts/2018-10-20T12.csv",
                                  "--tau", "0.6", "--strategy", "dr-s", "--eps", "0.05"]),
    ("deform.json", ["deform", "--dist", "beta:2,6", "--rho", "0.3", "--grid-step", "0.05"]),
    ("deform.csv", ["deform", "--dist", "beta:2,6", "--rho", "0.3", "--grid-step", "0.05"]),
    ("simulate.json", ["simulate", *_SIM, "--m", "15", "--n", "20000", "--seed", "4"]),
    ("simulate.csv", ["simulate", *_SIM, "--m", "15", "--n", "20000", "--seed", "4"]),
    ("msweep.json", ["msweep", *_SIM, "--m-max", "12", "--n", "20000"]),
    ("msweep.csv", ["msweep", *_SIM, "--m-max", "12", "--n", "20000"]),
    ("msweep-uniform.json", ["msweep", *_SIM, "--m-max", "12", "--n", "20000", "--ball", "uniform"]),
    ("msweep-uniform.csv", ["msweep", *_SIM, "--m-max", "12", "--n", "20000", "--ball", "uniform"]),
]
# files the commands write beside their artifacts
_DATA = ("market.csv", "forecasts", "sparse.csv", "sparse")


def _digest(path: Path) -> str:
    """sha256 of a file's bytes, or of a directory's sorted names and file digests."""
    if not path.is_dir():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def run_ledger(workdir: Path) -> dict[str, str]:
    """Run every case in ``workdir``; the digest of each artifact and data file by name."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in CASES:
            output = "csv" if name.endswith(".csv") else "json"
            code = dispatch([*argv, "--output", output, "--out", name])
            assert code == 0, f"{name}: {' '.join(argv)} exited {code}"
        return {name: _digest(workdir / name) for name in (*_DATA, *(n for n, _ in CASES))}
    finally:
        os.chdir(cwd)


# a missing file records nothing, so the coverage test fails and the module can rewrite it
RECORDED = (json.loads(DIGESTS.read_text()) if DIGESTS.exists()
            else {"versions": {}, "digests": {}})


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    return run_ledger(tmp_path_factory.mktemp("ledger"))


def test_the_ledger_covers_every_artifact(ledger):
    assert sorted(ledger) == sorted(RECORDED["digests"])


@pytest.mark.parametrize("name", sorted(RECORDED["digests"]))
def test_artifact_matches_its_recorded_digest(ledger, name):
    assert ledger.get(name) == RECORDED["digests"][name], (
        f"{name}: sha256 {ledger.get(name)} differs from the recorded "
        f"{RECORDED['digests'][name]}; digests made with {RECORDED['versions']}, "
        f"running {_versions()}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_ledger(Path(tmp))
    DIGESTS.write_text(json.dumps({"versions": _versions(), "digests": digests},
                                  indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests -> {DIGESTS}", file=sys.stderr)
