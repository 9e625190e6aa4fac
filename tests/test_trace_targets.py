"""The benchmark's traced mode wraps graphnav functions and methods by name.

A target that no longer resolves (a renamed function, or a method moved into a
base class) makes `perfbench/run.py --trace 1` fail while patching; this test
catches that in the regular suite, for the span targets and for the tracer's
other patches, along with the argument positions its hooks read. It reads
`perfbench/tracer.py` without importing it. The benchmark's other assumptions
about graphnav are checked here too (among them that `perfbench/make_frozen.py`
builds its golden trials on eval's path), and in `test_world.py` (one
`step_vehicle` call per vehicle step).
"""

import ast
import importlib
import inspect
from pathlib import Path

from graphnav.checkpoint import load_checkpoint, save_checkpoint
from graphnav.cli import main
from graphnav.config import load_config, scenario_config
from graphnav.evaluation import AlwaysBrake, run_suite
from graphnav.graph import EdgeStrategy, EdgeStrategyKind, GraphConfig
from graphnav.manifest import write_manifest
from graphnav.policies import NetworkController, build_network
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


def test_frozen_golden_path_acts_as_eval_does(tmp_path):
    """`make_frozen.py golden` runs `run_suite` on a bare `NetworkController`
    of the loaded network with the checkpoint's graph; its trajectories must
    be those `graphnav eval` gives for the same seeds, under a checkpoint
    whose edge strategy is not the default."""
    graph_cfg = GraphConfig(strategy=EdgeStrategy(kind=EdgeStrategyKind.STAR_CONNECTED))
    ckpt = save_checkpoint(tmp_path / "star.json", build_network("gcil", seed=3), graph_cfg)
    assert main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval"),
                 "--trials", "1", "--seed", "11", "--dump-trajectories"]) == 0
    loaded = load_checkpoint(ckpt)
    _, results = run_suite(NetworkController(loaded.network),
                           scenario_config(load_config(None), mode="eval"), loaded.graph, 1, 11,
                           trajectory_dir=tmp_path)
    assert len(results) == 9
    for r in results:
        name = r.trajectory_name
        assert (tmp_path / name).read_bytes() == \
            (tmp_path / "eval" / "trajectories" / name).read_bytes()
