"""Benchmark of drnewsvendor: end-to-end metrics untraced, per-layer metrics traced.

    python3 bench/run.py --workload fixed_731 --seed 0 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` beside this
directory. With ``--trace 0`` the workload's inputs are set up several
times (``setup_s`` is the package import plus their median) and whole
timed iterations, each after a garbage collection, repeat until
``--seconds`` have passed (at least one runs); the gated times are
medians over those iterations. BLAS and OpenMP run one thread. With
``--trace 1`` one traced set-up and one untraced then one traced
iteration run; the per-layer metrics come from the traced spans and the
tracing overhead is the difference between the two iterations' wall
times.

Every output is checked (``workloads.py``); for seeds listed in
``digests.json`` the artifacts must also match the digests stored there.
``error_rate`` is the share of operations that failed or gave a wrong
output. A table and the full report go to standard output and to
``bench/out/``; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, the metrics named in
``BENCHMARK.json``. The table also shows ``error_rate`` (zero when the
program is right, so it is the result's ``failed / attempted`` rather than
a metric) and the request latency percentiles; on a shared 2-core host
those percentiles flip between a fast and a slow mode from run to run, so
only whole-iteration times are gated.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# one thread per numeric library: the benchmark measures one single-threaded process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "offers_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def environment(load_before: float) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
    }


class Ledger:
    """Operations attempted, and those that failed or gave a wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, wl, inp, it, stored: dict | None) -> None:
        problems = wl.check(inp, it)
        if stored is not None:
            problems += [(op, f"digest {got[:12]} != stored {stored.get(op, '-')[:12]}")
                         for op, got in wl.digests(it).items() if got != stored.get(op)]
        bad = set(it.failed) | {op for op, _ in problems}
        self.attempted += len(it.ops)
        self.failed += sum(op in bad for op in it.ops)
        self.problems += [f"{op}: {msg}" for op, msg in problems]
        self.problems += [f"{op}: exit status not 0" for op in sorted(it.failed)]


def measure(wl, seed: int, seconds: float, workdir: Path, ledger: Ledger,
            import_s: float) -> tuple[dict, dict]:
    """Untraced: repeated set-ups, then timed iterations within ``seconds``."""
    setups = []
    for k in range(SETUP_REPEATS):
        d = workdir / f"setup{k}"
        d.mkdir()
        start = time.perf_counter()
        inp = wl.setup(seed, d)
        setups.append(time.perf_counter() - start)
        ledger.attempted += 1
    # written inputs reach the disk before timing, so writeback cannot
    # overlap the timed iterations
    os.sync()
    stored = load_digests().get(wl.name, {}).get(str(seed))
    counts = wl.counts(inp)
    iterations, latencies = [], []
    window = time.perf_counter()
    while True:
        gc.collect()
        it = wl.iterate(inp)
        ledger.add(wl, inp, it, stored)
        iterations.append(it)
        latencies += it.latencies_ms
        if time.perf_counter() - window >= seconds:
            break
    percentiles = statistics.quantiles(latencies, n=100, method="inclusive")
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "wall_s": statistics.median(it.wall_s for it in iterations),
        "offers_per_s": statistics.median(counts["timed_offers"] / it.work_s
                                          for it in iterations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "iterations": len(iterations),
        "import_s": import_s,
        "setup_repeats_s": setups,
        "iteration_wall_s": [it.wall_s for it in iterations],
        "iteration_stages_s": [it.stages for it in iterations],
        "requests": f"{len(latencies)} {wl.request}",
        "request_ms": {"mean": statistics.fmean(latencies), "min": min(latencies),
                       **{f"p{q}": percentiles[q - 1] for q in (10, 25, 50, 75, 90)},
                       "max": max(latencies)},
        "inputs": {**counts, **wl.properties(inp)},
        "digests": wl.digests(iterations[-1]),
        "digests_checked": stored is not None,
    }
    return metrics, info


def trace(wl, seed: int, workdir: Path, ledger: Ledger, spans_path: Path) -> tuple[dict, dict]:
    """One traced set-up, an untraced and a traced iteration; per-layer metrics."""
    from tracing import DR_S_BRANCHES, Tracer

    tracer = Tracer()
    start = time.perf_counter()
    with tracer:
        inp = wl.setup(seed, workdir)
    traced_setup_s = time.perf_counter() - start
    ledger.attempted += 1
    stored = load_digests().get(wl.name, {}).get(str(seed))
    plain = wl.iterate(inp)
    ledger.add(wl, inp, plain, stored)
    with tracer:
        traced = wl.iterate(inp)
    ledger.add(wl, inp, traced, stored)
    tracer.save(spans_path)

    table = tracer.layer_table()
    counts = wl.counts(inp)
    traced_total = traced_setup_s + traced.wall_s

    def calls(name: str) -> int:
        return table[name]["calls"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for name, row in table.items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_pct"] = (100.0 * row["self_s"] / traced_total, "%")
    for branch in DR_S_BRANCHES:
        metrics[f"solvers.solve_dr_s.branch.{branch}"] = (tracer.branches[branch], "count")
    metrics["backtest.frame_builds"] = (calls("estimation.HourlyTauEstimator.__init__"), "count")
    metrics["backtest.settle_ratio"] = (
        ratio(calls("economics.revenue"), counts.get("settlements", 0)), "ratio")
    metrics["estimation.tau_cache_hit_ratio"] = (
        ratio(counts.get("tau_offers", 0) - calls("estimation.HourlyTauEstimator.forecast"),
              counts.get("tau_offers", 0)), "ratio")
    metrics["montecarlo.scored_offer_ratio"] = (
        ratio(calls("economics.expected_loss"), counts.get("priced_offers", 0)), "ratio")
    unreached = [name for name, row in table.items() if row["calls"] == 0]
    metrics["trace.unreached"] = (len(unreached), "count")
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    info = {
        "iterations": 1,
        "traced_setup_s": traced_setup_s,
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced.wall_s,
        "traced_stages_s": traced.stages,
        "spans": len(tracer.name_id),
        "spans_file": spans_path.name,
        "layers": table,
        "unreached": unreached,
        "inputs": {**counts, **wl.properties(inp)},
    }
    return metrics, info


def load_digests() -> dict:
    return json.loads((HERE / "digests.json").read_text())


def print_table(name: str, seed: int, metrics: dict, info: dict, ledger: Ledger) -> None:
    print(f"workload {name}  seed {seed}  iterations {info['iterations']}")
    for key, (value, unit) in metrics.items():
        if not key.endswith((".calls", ".self_pct")):  # those are in the layer table
            print(f"  {key:<52} {value:>16.6g} {unit}")
    if "requests" in info:
        ms = info["request_ms"]
        print(f"  {'request_p50_ms':<52} {ms['p50']:>16.6g} ms")
        print(f"  {'request_p90_ms':<52} {ms['p90']:>16.6g} ms  ({info['requests']})")
    rate = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    print(f"  {'error_rate':<52} {rate:>16.6g} ratio"
          f"  ({ledger.failed} of {ledger.attempted} operations)")
    if "layers" in info:
        print("  per layer: calls, self_s, ns_per_call, self_pct")
        for layer, row in info["layers"].items():
            if row["calls"]:
                print(f"    {layer:<50} {row['calls']:>10d} {row['self_s']:>10.4f} s"
                      f" {row['ns_per_call']:>12.0f} ns {metrics[layer + '.self_pct'][0]:>7.2f} %")
        print(f"  unreached: {', '.join(info['unreached']) or '-'}")
    print(f"  inputs: {json.dumps(info['inputs'], sort_keys=True)}")
    for problem in ledger.problems[:20]:
        print(f"  WRONG {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "drnewsvendor" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'drnewsvendor'}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()[0]
    start = time.perf_counter()
    import workloads  # puts src/ first on the import path

    import drnewsvendor
    import_s = time.perf_counter() - start
    if not Path(drnewsvendor.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported {drnewsvendor.__file__}, not the package under {ROOT}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=OUT))
    ledger = Ledger()
    try:
        if args.trace:
            metrics, info = trace(wl, args.seed, workdir, ledger, OUT / f"{stem}-spans.npz")
        else:
            values, info = measure(wl, args.seed, args.seconds, workdir, ledger, import_s)
            metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": ledger.attempted + 1,
                          "failed": ledger.failed + 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        # the deletions reach the disk before the next run starts
        os.sync()

    env = environment(load_before)
    correct = ledger.failed == 0 and not ledger.problems
    report = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "error_rate": ledger.failed / ledger.attempted, "problems": ledger.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "environment": env, **info,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print_table(wl.name, args.seed, metrics, info, ledger)
    print(f"  environment: {json.dumps(env, sort_keys=True)}")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": report["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
