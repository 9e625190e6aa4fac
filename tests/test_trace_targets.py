"""The benchmark's traced mode wraps graphnav functions and methods by name.

A target that no longer resolves (a renamed function, or a method moved into a
base class) makes `perfbench/run.py --trace 1` fail while patching; this test
catches that in the regular suite, for the span targets and for the tracer's
other patches, along with the argument positions its hooks read. It reads
`perfbench/tracer.py` without importing it. The benchmark's other assumptions
about graphnav are checked here too, and in `test_world.py` (one
`step_vehicle` call per vehicle step).
"""

import ast
import importlib
import inspect
from pathlib import Path

from graphnav.evaluation import AlwaysBrake
from graphnav.graph import GraphConfig
from graphnav.manifest import write_manifest
from graphnav.rollout import run_episode
from graphnav.training import sample_minibatch
from graphnav.world import ScenarioConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# the functions whose arguments the tracer's hooks read, by keyword name
HOOKED = {"step": sample_minibatch, "files": write_manifest}


def _span_targets():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPAN_TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPAN_TARGETS in {TRACER}")


def _resolves(module: str, attr: str) -> bool:
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer takes methods from the class body, not through inheritance
        return callable(vars(getattr(mod, cls_name, object)).get(meth))
    return callable(getattr(mod, attr, None))


def test_every_span_target_resolves():
    targets = _span_targets()
    assert len(targets) > 0
    assert [span for span, module, attr in targets if not _resolves(module, attr)] == []


def test_every_other_patch_target_resolves():
    """The tracer's `patch("graphnav.<module>", "<attr>", ...)` calls outside
    SPAN_TARGETS: the unit timers and the pool that `pool_payload_bytes`
    measures."""
    targets = [tuple(arg.value for arg in node.args[:2])
               for node in ast.walk(ast.parse(TRACER.read_text()))
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "patch" and len(node.args) >= 2
               and all(isinstance(arg, ast.Constant) for arg in node.args[:2])]
    assert ("graphnav.evaluation", "ProcessPoolExecutor") in targets
    assert [t for t in targets if not _resolves(*t)] == []


def test_the_argument_positions_the_hooks_read():
    """A hook reads an argument as `args[i] if len(args) > i else kwargs["name"]`;
    graphnav's function must take `name` at position i."""
    reads = {}
    for node in ast.walk(ast.parse(TRACER.read_text())):
        if isinstance(node, ast.IfExp) and isinstance(node.body, ast.Subscript) \
                and isinstance(node.orelse, ast.Subscript):
            reads[ast.literal_eval(node.orelse.slice)] = ast.literal_eval(node.body.slice)
    assert reads == {"step": 3, "files": 4}
    for name, index in reads.items():
        assert list(inspect.signature(HOOKED[name]).parameters)[index] == name


def test_run_episode_keeps_what_the_unit_timer_reads():
    """The benchmark's always-on unit timer wraps `run_episode(cfg, seed, ...)`
    and reads `outcome.steps` from the record it returns."""
    assert list(inspect.signature(run_episode).parameters)[:2] == ["cfg", "seed"]
    record = run_episode(ScenarioConfig(density=1, timeout_s=1.0), 0, AlwaysBrake(), GraphConfig())
    assert isinstance(record.outcome.steps, int) and record.outcome.steps > 0
