"""The benchmark's span tracer still finds every function it wraps.

``perfbench/tracing.py`` records a function it cannot find as absent, and the
per-layer metrics that read it go missing instead of failing. This test reads
the tracer without changing it, so a deleted or renamed traced function fails
the unit tests on every Python and numpy the suite runs on.
"""
import importlib.util
from pathlib import Path

import pytest

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


PERFBENCH = TRACING.parent
TINY_INSTANCE = "nodes 4\n0 1 0.6 0.1\n0 2 0.5 0.2\n1 3 0.7 0.1\n2 3 0.4 0.3\nseeds 0\nlambda 0.8\n"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("estimator", ["mc", "exact", "qae"])
def test_traced_work_units_match_the_printed_accounting(tmp_path, capsys, estimator):
    # each work-unit note reads its function's arguments or result; one that raises is recorded as absent
    tracing, layers = load("tracing"), load("layers")
    path = tmp_path / "tiny.txt"
    path.write_text(TINY_INSTANCE)
    argv = ["contain", "--instance", str(path), "--estimator", estimator, "--finder", "gmf",
            "--trials", "500", "--epsilon", "0.2", "--k-max", "2"]
    tracer = tracing.Tracer()
    with tracer.installed():
        printed = []
        for plan, rng in enumerate((0, 1)):
            tracer.plan = plan
            assert qcontain.cli.main([*argv, "--rng", str(rng)]) == 0
            line = capsys.readouterr().out.splitlines()[-1]
            printed.append({key: int(value) for key, value in (f.split("=") for f in line.split())})
        assert tracer.absent == set()
    index = layers.SpanIndex(tracer.spans)
    for plan, fields in enumerate(printed):
        traced = layers.accounting_of(index, plan, tracer.absent)
        assert traced == {field: fields[field] for field in layers.ACCOUNTING}
    assert any(fields["grover_oracle_calls"] for fields in printed)
