"""The benchmark's span tracer still finds every function it wraps.

``perfbench/tracing.py`` records a function it cannot find as absent, and the
per-layer metrics that read it go missing instead of failing. This test reads
the tracer without changing it, so a deleted or renamed traced function fails
the unit tests on every Python and numpy the suite runs on.
"""
import importlib.util
from pathlib import Path

import qcontain.cli  # noqa: F401  (loads every qcontain module the tracer wraps)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_benchmark_tracer_finds_every_wrapped_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == set()
    finally:
        tracer.uninstall()
