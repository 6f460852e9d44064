"""Every target that the benchmark's tracer wraps exists in the package, so a
rename cannot silently break a traced benchmark run."""
import ast
import importlib
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def span_targets() -> list[str]:
    """The "module:attribute" strings of SPANS, read without importing."""
    for node in ast.parse(SPANS_FILE.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            spans = ast.literal_eval(node.value)
            return [target for targets in spans.values() for target in targets]
    raise AssertionError(f"no SPANS in {SPANS_FILE}")


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
