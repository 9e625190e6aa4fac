import os

import pytest

from graphnav import atomic, evaluation
from graphnav.evaluation import collect_dataset
from graphnav.expert import ExpertParams
from graphnav.geometry import Polyline
from graphnav.graph import GraphConfig
from graphnav.layout import COMMANDS, build_layout
from graphnav.world import ScenarioConfig, WorldState


@pytest.fixture
def helper_pids(monkeypatch):
    """The pid of every process forked while the test runs, such as each
    `atomic.WriteBehind` writer, which is forked even on a one-CPU host. At
    teardown every one of them must have been reaped."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recording)
    monkeypatch.setattr(atomic, "usable_cpus", lambda: 2)
    yield pids
    assert [pid for pid in pids if not reaped(pid)] == []


def reaped(pid: int) -> bool:
    try:
        os.kill(pid, 0)  # a zombie still takes the signal
    except ProcessLookupError:
        return True
    return False


@pytest.fixture(scope="session")
def graph_cfg():
    return GraphConfig()


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small but real demonstration set: 2 episodes per command, density 2."""
    cfg = ScenarioConfig(density=2, timeout_s=25.0)
    dataset, _rates = collect_dataset(
        cfg, GraphConfig(), ExpertParams(),
        episodes_per_command=2, base_seed=7,
        densities={c: 2 for c in COMMANDS},
    )
    return dataset


def make_world(vehicles, route, **fields) -> WorldState:
    """A WorldState built by hand: one (x, y, heading, speed) row per vehicle,
    the ego first. Every vehicle is 4 m x 2 m, follows `route` and cruises at
    its start speed in the default layout with dt = 0.1 s; `fields` sets
    `time` or `react_to_ego`."""
    x, y, heading, speed = (list(column) for column in zip(*vehicles))
    n = len(vehicles)
    return WorldState(dt=0.1, layout=build_layout(), route=[route] * n, length=[4.0] * n,
                      width=[2.0] * n, cruise=list(speed), x=x, y=y, heading=heading,
                      speed=speed, **fields)


@pytest.fixture
def projection_calls(monkeypatch):
    """Every (x, y) passed to Polyline.project while the test runs."""
    calls = []
    real = Polyline.project

    def counting(self, x, y):
        calls.append((x, y))
        return real(self, x, y)
    monkeypatch.setattr(Polyline, "project", counting)
    return calls


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records how each pool is built and
    the tasks it is given, and maps in this process, so no worker starts."""

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.built.append(max_workers)
        self.shared.append(initargs)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        tasks = list(tasks)
        self.tasks.extend(tasks)
        return map(fn, tasks)


@pytest.fixture
def recording_pool(monkeypatch):
    """install(module) swaps module.ProcessPoolExecutor for a fresh RecordingPool."""
    monkeypatch.setattr(evaluation, "_worker_shared", ())

    def install(module):
        class Recorder(RecordingPool):
            built, shared, tasks = [], [], []
        monkeypatch.setattr(module, "ProcessPoolExecutor", Recorder)
        return Recorder
    return install
