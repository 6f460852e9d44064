"""Every target that the benchmark's tracer wraps exists in the package, and
every benchmark workload builds and names known spans, so a rename or a new
config rule cannot silently break a benchmark run."""
import ast
import importlib.util
import sys
from pathlib import Path

import pytest

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


def load_workloads() -> dict:
    """WORKLOADS of perfbench/workloads.py, loaded from the file as it is."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass resolves annotations through it
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = load_workloads()


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
