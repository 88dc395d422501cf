"""The benchmark tracer still finds every name it wraps in the package.

``bench/tracing.py`` looks its functions up on their modules and its
methods in their classes' own ``__dict__``, so deleting or moving one of
them breaks ``bench/run.py --trace 1``. Loading the tracer here, by path
and without changing it, makes such a deletion fail the test suite.
"""

import importlib.util
from pathlib import Path

# the package imports every module the tracer patches
from drnewsvendor import cli, economics

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_traced_name():
    tracing = _load_tracing()
    revenue, dispatch = economics.revenue, cli.dispatch
    tracer = tracing.Tracer()
    # not a with-block: a name missing mid-install must still be unwrapped
    try:
        tracer.__enter__()
        assert economics.revenue is not revenue
        assert cli.dispatch is not dispatch
        assert economics.revenue(50.0, 40.0, 1.0, 0.3, 0.5) == 23.0
    finally:
        tracer.__exit__(None, None, None)
    assert economics.revenue is revenue
    assert cli.dispatch is dispatch
    assert "economics.revenue" in tracer.names
