import json
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from conftest import reaped
from graphnav import atomic, evaluation
from graphnav.dataset import (BUFFER_FILES, DatasetFormatError, DemoDataset, read_buffer,
                              read_dataset, write_dataset)
from graphnav.evaluation import collect_dataset
from graphnav.expert import ExpertController, ExpertParams
from graphnav.graph import GraphConfig
from graphnav.layout import COMMANDS, Command
from graphnav.rollout import run_episode
from graphnav.world import ScenarioConfig


def _collect(seed=13, density=2):
    cfg = ScenarioConfig(density=density)
    expert = ExpertController(ExpertParams(), cfg.vehicle, cfg.tracking)
    record = run_episode(cfg, seed, expert, GraphConfig(), record_samples=True)
    return record.samples, record.outcome


def test_episode_sample_structure():
    samples, outcome = _collect()
    assert len(samples) == outcome.steps
    assert [s.step for s in samples] == list(range(len(samples)))
    for s in samples:
        assert s.features.shape[1] == 12
        assert s.command is Command.FORWARD
        assert np.all(np.abs(s.u_star) <= 1.0)
        assert s.episode_id == 13


def test_collection_is_deterministic():
    a, outcome_a = _collect(seed=99)
    b, outcome_b = _collect(seed=99)
    assert outcome_a == outcome_b
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.features, sb.features)
        assert np.array_equal(sa.u_star, sb.u_star)


def test_roundtrip_is_exact(tmp_path, tiny_dataset):
    write_dataset(tiny_dataset, tmp_path)
    loaded = read_dataset(tmp_path)
    for command in COMMANDS:
        originals = tiny_dataset.buffers[command]
        restored = loaded.buffers[command]
        assert len(originals) == len(restored)
        for a, b in zip(originals, restored):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.u_star, b.u_star)
            assert (a.episode_id, a.step, a.command) == (b.episode_id, b.step, b.command)


def test_records_hold_the_ego_block_once(tmp_path, tiny_dataset):
    write_dataset(tiny_dataset, tmp_path)
    assert json.loads((tmp_path / "manifest.json").read_text())["schema_version"] == 3
    for filename in BUFFER_FILES.values():
        for line in (tmp_path / filename).read_text().splitlines():
            assert set(json.loads(line)) == {"S", "command", "episode_id", "step", "u_star"}


def test_write_is_reproducible(tmp_path, tiny_dataset):
    write_dataset(tiny_dataset, tmp_path / "a")
    write_dataset(tiny_dataset, tmp_path / "b")
    for filename in BUFFER_FILES.values():
        assert (tmp_path / "a" / filename).read_bytes() == (tmp_path / "b" / filename).read_bytes()


def test_manifest_counts_match_files(tmp_path, tiny_dataset):
    write_dataset(tiny_dataset, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for command, filename in BUFFER_FILES.items():
        lines = [l for l in (tmp_path / filename).read_text().splitlines() if l.strip()]
        assert manifest["counts"][command.value] == len(lines)


def test_truncated_line_errors_with_line_number(tmp_path, tiny_dataset):
    write_dataset(tiny_dataset, tmp_path)
    path = tmp_path / "forward.jsonl"
    lines = path.read_text().splitlines()
    n = len(lines)
    truncated = "\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]])
    path.write_text(truncated)
    with pytest.raises(DatasetFormatError) as err:
        read_buffer(path, Command.FORWARD)
    assert err.value.line_no == n
    # earlier records stay readable
    path.write_text("\n".join(lines[:-1]) + "\n")
    recovered = read_buffer(path, Command.FORWARD)
    assert len(recovered) == n - 1


def test_wrong_buffer_command_rejected(tmp_path, tiny_dataset):
    write_dataset(tiny_dataset, tmp_path)
    with pytest.raises(DatasetFormatError):
        read_buffer(tmp_path / "forward.jsonl", Command.TURN_LEFT)


def test_missing_field_rejected(tmp_path):
    path = tmp_path / "forward.jsonl"
    path.write_text('{"episode_id": 1, "step": 0}\n')
    with pytest.raises(DatasetFormatError) as err:
        read_buffer(path, Command.FORWARD)
    assert err.value.line_no == 1
    assert "missing" in str(err.value)


def test_buffer_count_must_match_the_manifest(tmp_path, tiny_dataset):
    write_dataset(tiny_dataset, tmp_path)
    path = tmp_path / "turn_right.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    with pytest.raises(DatasetFormatError) as err:
        read_dataset(tmp_path)
    assert err.value.path == str(path)
    assert f"{len(lines) - 1} records, but {tmp_path / 'manifest.json'} counts {len(lines)}" \
        in err.value.reason


def test_missing_buffer_file_raises(tmp_path, tiny_dataset):
    write_dataset(tiny_dataset, tmp_path)
    (tmp_path / "turn_left.jsonl").unlink()
    with pytest.raises(FileNotFoundError):
        read_dataset(tmp_path)


def test_parallel_collection_matches_serial(tmp_path):
    """jobs=2 writes the same buffer and manifest bytes as jobs=1."""
    cfg = ScenarioConfig(density=2, timeout_s=20.0)
    kwargs = dict(episodes_per_command=2, base_seed=61, densities={c: 2 for c in COMMANDS})
    written = []
    for jobs in (1, 2):
        dataset, _ = collect_dataset(cfg, GraphConfig(), ExpertParams(), jobs=jobs, **kwargs)
        write_dataset(dataset, tmp_path / str(jobs))
        written.append({name: (tmp_path / str(jobs) / name).read_bytes()
                        for name in [*BUFFER_FILES.values(), "manifest.json"]})
    assert written[0] == written[1]


def test_parallel_collection_sends_shared_state_once(recording_pool):
    import pickle

    pool = recording_pool(evaluation)
    cfg = ScenarioConfig(density=1, timeout_s=3.0)
    params = ExpertParams()
    kwargs = dict(base_seed=61, densities={c: 1 for c in COMMANDS})
    collect_dataset(cfg, GraphConfig(), params, episodes_per_command=1, jobs=8, **kwargs)
    assert pool.built == []  # 3 episodes fit one chunk: serial
    pooled, _ = collect_dataset(cfg, GraphConfig(), params, episodes_per_command=3,
                                jobs=8, **kwargs)
    assert pool.built == [3]  # 9 episodes in chunks of 4
    assert pool.shared[0][0].params is params  # one expert, sent once per worker
    assert len(pool.tasks) == 9 and all(params not in t for t in pool.tasks)
    assert len(pickle.dumps(pool.tasks)) < 1000
    serial, _ = collect_dataset(cfg, GraphConfig(), params, episodes_per_command=3,
                                jobs=1, **kwargs)
    for command in COMMANDS:
        for a, b in zip(serial.buffers[command], pooled.buffers[command], strict=True):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.u_star, b.u_star)


@pytest.mark.parametrize("sizes", [None, (0, 1, 5)], ids=["tiny", "0-1-5"])
def test_helper_and_one_cpu_writes_give_the_same_bytes(tmp_path, monkeypatch, helper_pids,
                                                       tiny_dataset, sizes):
    """Buffers whose back half a forked helper writes equal one process's
    bytes; one helper is forked and reaped per buffer of two records or more,
    and write_dataset reports each buffer's processes."""
    dataset = tiny_dataset
    if sizes is not None:
        dataset = DemoDataset({c: tiny_dataset.buffers[c][:n] for c, n in zip(COMMANDS, sizes)},
                              tiny_dataset.manifest)
    written, processes = {}, {}
    for cpus in (2, 1):
        monkeypatch.setattr(atomic, "usable_cpus", lambda cpus=cpus: cpus)
        writes = write_dataset(dataset, tmp_path / str(cpus))
        processes[cpus] = {c: w["processes"] for c, w in writes.items() if not w["behind"]}
        written[cpus] = {p.name: p.read_bytes() for p in (tmp_path / str(cpus)).iterdir()}
    assert written[2] == written[1]
    assert sorted(written[1]) == sorted([*BUFFER_FILES.values(), "manifest.json"])
    forked = sum(len(b) >= 2 for b in dataset.buffers.values())
    assert processes == {cpus: {c.value: 2 if cpus == 2 and len(dataset.buffers[c]) >= 2 else 1
                                for c in COMMANDS} for cpus in (2, 1)}
    assert forked == (3 if sizes is None else 1)
    assert len(helper_pids) == forked and all(map(reaped, helper_pids))


_STREAMED = dict(base_cfg=ScenarioConfig(density=2, timeout_s=20.0), graph_cfg=GraphConfig(),
                 expert_params=ExpertParams(), episodes_per_command=2, base_seed=83,
                 densities={c: 2 for c in COMMANDS})


def _files(directory) -> dict:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("jobs, cpus", [(1, 2), (1, 1), (2, 2), (2, 1)])
def test_a_streamed_collect_writes_the_bytes_of_write_dataset(tmp_path, monkeypatch, jobs, cpus):
    """Buffers written behind the episodes, and the manifest after them, equal
    write_dataset of the same dataset; only a serial collect on two CPUs
    writes forward and turn_left behind."""
    monkeypatch.setattr(atomic, "usable_cpus", lambda: cpus)
    dataset, _ = collect_dataset(**_STREAMED, jobs=jobs)
    write_dataset(dataset, tmp_path / "whole")
    streamed, _ = collect_dataset(**_STREAMED, jobs=jobs, out_dir=tmp_path / "streamed")
    writes = write_dataset(streamed, tmp_path / "streamed")
    assert _files(tmp_path / "streamed") == _files(tmp_path / "whole")
    assert sorted(_files(tmp_path / "whole")) == sorted([*BUFFER_FILES.values(), "manifest.json"])
    behind = jobs == 1 and cpus == 2
    assert {c: w["behind"] for c, w in writes.items()} == {
        "forward": behind, "turn_left": behind, "turn_right": False}
    assert set(streamed.written) == ({tmp_path / "streamed" / BUFFER_FILES[c] for c in COMMANDS[:2]}
                                     if behind else set())


class _LaterEpisodeFails(Exception):
    pass


@pytest.mark.parametrize("error, where", [
    (_LaterEpisodeFails, "run_episode"), (KeyboardInterrupt, "run_episode"),
    (_LaterEpisodeFails, "rates"), (KeyboardInterrupt, "rates"),
], ids=["_LaterEpisodeFails", "KeyboardInterrupt", "rates-_LaterEpisodeFails",
        "rates-KeyboardInterrupt"])
def test_an_episode_that_raises_reaps_every_writer(tmp_path, monkeypatch, helper_pids, error,
                                                    where):
    """The first turn_right episode raises after forward and turn_left went
    to their writers, or `rates` raises after the last episode, as the
    manifest is built: both writers are killed and reaped, and no file is
    left."""
    real = getattr(evaluation, where)

    def failing(*args, **kwargs):
        if where == "rates" or args[0].command is Command.TURN_RIGHT:
            raise error
        return real(*args, **kwargs)
    monkeypatch.setattr(evaluation, where, failing)
    with pytest.raises(error):
        collect_dataset(**_STREAMED, out_dir=tmp_path)
    assert len(helper_pids) == 2 and all(map(reaped, helper_pids))
    assert list(tmp_path.iterdir()) == []


def test_no_process_is_forked_while_the_pool_is_open(tmp_path, monkeypatch):
    """With jobs=2 every buffer is written after the pool has shut down: the
    only forks while it is open are its own workers'."""
    class Tracked(ProcessPoolExecutor):
        open = False

        def __enter__(self):
            Tracked.open = True
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                Tracked.open = False

    forks, fork = [], os.fork

    def recording():
        forks.append((sys._getframe(1).f_globals["__name__"],
                      Tracked.open or threading.active_count() > 1))
        return fork()
    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", Tracked)
    monkeypatch.setattr(os, "fork", recording)
    monkeypatch.setattr(atomic, "usable_cpus", lambda: 2)
    dataset, _ = collect_dataset(**_STREAMED, jobs=2, out_dir=tmp_path)
    write_dataset(dataset, tmp_path)
    ours = [pool_open for caller, pool_open in forks if caller.startswith("graphnav.")]
    assert ours == [False] * 3  # one halves helper per buffer, after the pool
    assert any(pool_open for caller, pool_open in forks if not caller.startswith("graphnav."))
