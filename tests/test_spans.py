"""Every target that the benchmark's tracer wraps exists in the package,
every benchmark workload builds and names known spans, every workload's
outputs pass the benchmark's own reference check and are strict JSON, and a
traced run records calls in every span that the workload names, so a rename,
a new config rule, an output drift or a moved call cannot silently break a
benchmark run."""
import ast
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from powerlaw_spde import cli, config
from powerlaw_spde.config import SimulationConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS_FILE = PERFBENCH / "spans.py"


def spans() -> dict[str, list[str]]:
    """SPANS: span name -> "module:attribute" targets, read without importing."""
    for node in ast.parse(SPANS_FILE.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS in {SPANS_FILE}")


def span_targets() -> list[str]:
    return [target for targets in spans().values() for target in targets]


def load_perfbench(name: str):
    """perfbench/<name>.py as a module, loaded from the file as it is."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass resolves annotations through it
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_perfbench("workloads").WORKLOADS


@pytest.mark.parametrize("target", span_targets())
def test_span_target_resolves(target):
    module_name, attr = target.split(":")
    module = importlib.import_module(f"powerlaw_spde.{module_name}")
    if "." in attr:
        # the tracer patches the class attribute itself
        cls_name, name = attr.split(".")
        assert name in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_builds_and_calls_known_spans(name):
    workload = WORKLOADS[name]
    SimulationConfig(**workload.make_config(0)).build_problem()
    assert set(workload.called) <= set(spans())


@pytest.fixture(scope="module")
def runner():
    """perfbench/run.py, loaded from the file as it is, with perfbench/ on
    sys.path for its own imports."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_outputs_match_the_benchmark_reference(runner, name, tmp_path):
    # one invocation at seed 0 through the benchmark's own check: the
    # comparison with reference.json at RTOL that every benchmark run makes
    bench = runner.Bench(name, 0, tmp_path, cli, config, np)
    bench.invoke()
    assert bench.failed == 0 and not bench.problems, bench.problems
    # every JSON file written is strict JSON: no NaN or Infinity
    written = sorted(bench.out.glob("*.json"))
    assert written
    for path in written:
        json.loads(path.read_text(), parse_constant=reject_constant)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_workload_records_calls_in_every_named_span(runner, name, tmp_path):
    # one invocation at seed 0 under the benchmark's own tracer: the check
    # that a traced benchmark run makes ("spans recorded no calls")
    tracer = load_perfbench("spans").Tracer()
    bench = runner.Bench(name, 0, tmp_path, cli, config, np)
    tracer.install()
    try:
        bench.invoke(tracer.call)
    finally:
        tracer.uninstall()
    calls = {span: count for span, (_, count) in tracer.summary().items()}
    assert bench.failed == 0 and not bench.problems, bench.problems
    assert [span for span in WORKLOADS[name].called if not calls.get(span)] == []
