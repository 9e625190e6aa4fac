"""The benchmark's traced mode wraps graphnav functions and methods by name.

A target that no longer resolves (a renamed function, or a method moved into a
base class) makes `perfbench/run.py --trace 1` fail while patching; this test
catches that in the regular suite. It reads `perfbench/tracer.py` without
importing it. The benchmark's other assumptions about graphnav are checked
here too, and in `test_world.py` (one `step_vehicle` call per vehicle step).
"""

import ast
import importlib
import inspect
from pathlib import Path

from graphnav.evaluation import AlwaysBrake
from graphnav.graph import GraphConfig
from graphnav.rollout import run_episode
from graphnav.world import ScenarioConfig

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


def test_run_episode_keeps_what_the_unit_timer_reads():
    """The benchmark's always-on unit timer wraps `run_episode(cfg, seed, ...)`
    and reads `outcome.steps` from the record it returns."""
    assert list(inspect.signature(run_episode).parameters)[:2] == ["cfg", "seed"]
    record = run_episode(ScenarioConfig(density=1, timeout_s=1.0), 0, AlwaysBrake(), GraphConfig())
    assert isinstance(record.outcome.steps, int) and record.outcome.steps > 0
