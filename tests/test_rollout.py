import numpy as np
import pytest

from graphnav.evaluation import AlwaysBrake, pool_size
from graphnav.expert import ExpertController, ExpertParams
from graphnav.graph import GraphConfig
from graphnav.policies import NetworkController, build_network
from graphnav.rollout import ActionNoise, NoiseParams, run_episode
from graphnav.vehicle import Action
from graphnav.world import OutcomeTag, ScenarioConfig

CFG = ScenarioConfig(density=3)


def _expert():
    return ExpertController(ExpertParams(), CFG.vehicle, CFG.tracking)


def test_exactly_one_terminal_outcome():
    record = run_episode(CFG, 5, _expert(), GraphConfig())
    assert record.outcome.tag in OutcomeTag
    assert record.outcome.steps >= 1
    assert record.outcome.elapsed <= CFG.timeout_s + CFG.dt


def test_timeout_ends_on_the_step_count():
    # `world.time` sums dt: after 10 steps of 0.1 s it reads 0.9999999999999999
    record = run_episode(ScenarioConfig(density=1, timeout_s=1.0), 0, AlwaysBrake(), GraphConfig())
    assert record.outcome.tag is OutcomeTag.TIMEOUT
    assert record.outcome.steps == 10


def test_recorded_samples_carry_their_episode_step_and_label():
    record = run_episode(CFG, 5, _expert(), GraphConfig(), record_samples=True,
                         record_trajectory=True)
    assert [s.step for s in record.samples] == list(range(record.outcome.steps))
    ego_rows = [row for row in record.trajectory if row[1] == 0]
    for s, row in zip(record.samples, ego_rows, strict=True):
        assert (s.episode_id, s.command) == (5, record.command)
        assert s.u_star.tolist() == [row[6], row[7]]  # no action noise: executed == label


def test_replay_is_bit_identical():
    a = run_episode(CFG, 17, _expert(), GraphConfig(), record_trajectory=True)
    b = run_episode(CFG, 17, _expert(), GraphConfig(), record_trajectory=True)
    assert a.outcome == b.outcome
    assert a.trajectory == b.trajectory


def test_network_policy_episode_runs():
    policy = NetworkController(build_network("gcil", seed=1))
    record = run_episode(CFG, 23, policy, GraphConfig(), record_trajectory=True)
    assert record.outcome.tag in OutcomeTag
    # every vehicle logged every step: (1 ego + 3 agents) rows per step
    steps = {row[0] for row in record.trajectory}
    assert len(record.trajectory) == 4 * len(steps)


def test_trajectory_rows_shape():
    record = run_episode(CFG, 29, _expert(), GraphConfig(), record_trajectory=True)
    row = record.trajectory[0]
    assert len(row) == 8  # step, vehicle_id, x, y, heading, speed, delta, tau
    ids = {r[1] for r in record.trajectory}
    assert ids == {0, 1, 2, 3}


def test_action_noise_perturbs_execution_not_labels():
    noise = ActionNoise(NoiseParams(burst_prob=1.0, duration_s=(0.5, 0.5),
                                    delta_amp=0.3, tau_amp=0.2),
                        np.random.default_rng(0), dt=0.1)
    clean = Action(0.0, 0.0)
    out = noise(clean)
    assert (out.delta, out.tau) != (0.0, 0.0)
    assert -1.0 <= out.delta <= 1.0 and -1.0 <= out.tau <= 1.0

    with_noise = run_episode(CFG, 31, _expert(), GraphConfig(), record_samples=True,
                             noise=NoiseParams())
    without = run_episode(CFG, 31, _expert(), GraphConfig(), record_samples=True)
    # first recorded label identical (same spawn state); later states diverge
    assert np.array_equal(with_noise.samples[0].u_star, without.samples[0].u_star)


def test_noise_bursts_are_deterministic():
    def run():
        noise = ActionNoise(NoiseParams(), np.random.default_rng([7, 5]), 0.1)
        return [(noise(Action(0.0, 0.0)).delta, noise(Action(0.0, 0.0)).tau)
                for _ in range(200)]

    assert run() == run()


def test_pool_size_caps_at_chunk_count():
    assert pool_size(8, 2) == 1      # one chunk of 4: serial
    assert pool_size(8, 12) == 3     # three chunks
    assert pool_size(2, 36) == 2
    assert pool_size(1, 36) == 1
    assert pool_size(4, 0) == 0
    for bad in (0, -3):
        with pytest.raises(ValueError):
            pool_size(bad, 10)


def test_trajectory_values_are_plain_floats():
    # numpy scalars would be written as "np.float64(...)" in trajectory CSVs
    policy = NetworkController(build_network("gcil", seed=1))
    record = run_episode(CFG, 23, policy, GraphConfig(), record_trajectory=True)
    assert all(type(v) is float for row in record.trajectory[:40] for v in row[2:])
