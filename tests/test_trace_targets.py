"""The benchmark's traced mode wraps graphnav functions and methods by name.

A target that no longer resolves (a renamed function, or a method moved into a
base class) makes `perfbench/run.py --trace 1` fail while patching; this test
catches that in the regular suite. It reads `perfbench/tracer.py` without
importing it.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _span_targets():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPAN_TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPAN_TARGETS in {TRACER}")


def test_every_span_target_resolves():
    targets = _span_targets()
    assert len(targets) > 0
    unresolved = []
    for span, module, attr in targets:
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer takes methods from the class body, not through inheritance
            ok = callable(vars(getattr(mod, cls_name, object)).get(meth))
        else:
            ok = callable(getattr(mod, attr, None))
        if not ok:
            unresolved.append(span)
    assert unresolved == []
