"""Spans around the package's public names, recorded from outside the package.

A :class:`Tracer` replaces each traced function wherever a package module
binds it (so ``drnewsvendor.backtest.solve_dr_s`` and
``drnewsvendor.cli.solve_dr_s`` both record) and each traced method on its
class. Every call becomes one span: name, start, end and parent span. Spans
stay in flat arrays while the run lasts and are written out once at the end.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# module -> public functions, wrapped at every binding inside the package
FUNCTIONS = {
    "solvers": ("solve_direct", "solve_dr_omega", "solve_dr_s", "solve_robust_s"),
    "ambiguity": ("deform_upper", "deform_lower", "make_bernoulli_ball"),
    "distributions": ("read_quantile_forecast",),
    "economics": ("revenue", "penalties", "expected_loss"),
    "montecarlo": ("run_epsilon_sweep",),
    "backtest": ("load_market_data", "cross_validate", "run_backtest", "offers_for_day",
                 "write_market_csv", "write_forecast_dir"),
    "synthetic": ("make_synthetic_market",),
}
# module.Class -> methods, wrapped on the class
METHODS = {
    "ambiguity.DeformedCdf": ("quantile",),
    "distributions.PiecewiseLinear": ("quantile", "mean"),
    "distributions.Beta": ("quantile", "partial_expectations"),
    "estimation.HourlyTauEstimator": ("__init__", "forecast"),
}
# cli.dispatch gets one span name per subcommand
DISPATCH_COMMANDS = ("synth", "crossval", "backtest", "msweep")
DR_S_BRANCHES = ("upper_quantile", "lower_quantile", "mean")


def traced_names() -> list[str]:
    """Every span name the tracer can record, in report order."""
    names = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
    names += [f"{owner}.{meth}" for owner, meths in METHODS.items() for meth in meths]
    names += [f"cli.dispatch.{cmd}" for cmd in DISPATCH_COMMANDS]
    return names


class Tracer:
    """Records spans while installed (``with tracer: ...``); reusable."""

    def __init__(self):
        self.names = traced_names()
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self._stack = [-1]
        self.branches: Counter[str] = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # ---------- recording ----------

    def _record(self, fn, name_id, observe=None):
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start_ns, self.end_ns
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(name_id(args) if callable(name_id) else name_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _dispatch_name(self, args) -> int:
        # the benchmark passes the argument list positionally
        return self._ids[f"cli.dispatch.{args[0][0]}"]

    def _observe_dr_s(self, decision) -> None:
        self.branches[decision.diagnostics["branch"]] += 1

    # ---------- installation ----------

    def __enter__(self):
        package = [m for name, m in sys.modules.items()
                   if name == "drnewsvendor" or name.startswith("drnewsvendor.")]
        for mod, fns in FUNCTIONS.items():
            module = importlib.import_module(f"drnewsvendor.{mod}")
            for fn in fns:
                original = getattr(module, fn)
                observe = self._observe_dr_s if fn == "solve_dr_s" else None
                wrapper = self._record(original, self._ids[f"{mod}.{fn}"], observe)
                for owner in package:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._swap(owner, attr, wrapper)
        for owner_name, meths in METHODS.items():
            mod, cls_name = owner_name.split(".")
            cls = getattr(importlib.import_module(f"drnewsvendor.{mod}"), cls_name)
            for meth in meths:
                wrapper = self._record(cls.__dict__[meth], self._ids[f"{owner_name}.{meth}"])
                self._swap(cls, meth, wrapper)
        cli = importlib.import_module("drnewsvendor.cli")
        self._swap(cli, "dispatch", self._record(cli.dispatch, self._dispatch_name))
        return self

    def _swap(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    # ---------- results ----------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and self nanoseconds per call."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end_ns, dtype=np.int64)
               - np.frombuffer(self.start_ns, dtype=np.int64)).astype(float)
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        self_ns = dur - covered
        calls = np.bincount(ids, minlength=len(self.names))
        self_total = np.bincount(ids, weights=self_ns, minlength=len(self.names))
        table = {}
        for i, name in enumerate(self.names):
            n = int(calls[i])
            table[name] = {
                "calls": n,
                "self_s": float(self_total[i]) / 1e9,
                "ns_per_call": float(self_total[i]) / n if n else None,
            }
        return table

    def save(self, path) -> None:
        """Write every span (name id, parent, start, end) and the name table."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start_ns, dtype=np.int64),
            end_ns=np.frombuffer(self.end_ns, dtype=np.int64),
        )
