import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphnav.graph import (EdgeStrategy, EdgeStrategyKind, GraphConfig, _rotate,
                            adjacency_from_features, build_adjacency, build_features,
                            edge_weight, encode_world, world_positions)
from graphnav.world import ScenarioConfig, spawn_scenario

NCLOSE = EdgeStrategy(kind=EdgeStrategyKind.N_CLOSE_WEIGHTED)
FULLY = EdgeStrategy(kind=EdgeStrategyKind.FULLY_CONNECTED)
STAR = EdgeStrategy(kind=EdgeStrategyKind.STAR_CONNECTED)
UNWEIGHTED = EdgeStrategy(kind=EdgeStrategyKind.NON_WEIGHTED)
ALL_STRATEGIES = (NCLOSE, FULLY, STAR, UNWEIGHTED)


class TestEdgeWeight:
    def test_self_connection_weight_is_one(self):
        assert edge_weight(0.0, 10.0) == 1.0

    def test_at_distance_alpha(self):
        assert edge_weight(10.0, 10.0) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_far_weight(self):
        assert edge_weight(30.0, 10.0) == pytest.approx(math.exp(-9.0), rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            edge_weight(-1.0, 10.0)
        with pytest.raises(ValueError):
            edge_weight(1.0, 0.0)


class TestFeatures:
    def _spawned(self, density=4, seed=3):
        return spawn_scenario(ScenarioConfig(density=density), seed=seed)

    def test_shape_and_shared_ego_block(self):
        world, goal, _ = self._spawned(density=4)
        feats = build_features(world, goal, v_pref=6.0)
        assert feats.shape == (5, 12)
        for i in range(5):
            assert np.array_equal(feats[i, :6], feats[0, :6])
        assert np.all(feats[0, 6:] == 0.0)

    def test_fields_match_independent_recomputation(self):
        world, goal, _ = self._spawned(density=5, seed=8)
        feats = build_features(world, goal, v_pref=6.0)
        x, y, heading, speed = world.x, world.y, world.heading, world.speed
        evx = speed[0] * math.cos(heading[0])
        evy = speed[0] * math.sin(heading[0])
        gx, gy = goal.target[0] - x[0], goal.target[1] - y[0]
        assert feats[0, 0] == pytest.approx(math.sqrt(gx * gx + gy * gy), abs=1e-9)
        assert feats[0, 1] == gx and feats[0, 2] == gy
        assert feats[0, 3] == pytest.approx(6.0 - speed[0])
        assert feats[0, 4] == pytest.approx(evx) and feats[0, 5] == pytest.approx(evy)
        for i in range(1, len(x)):
            dx = x[i] - x[0]
            dy = y[i] - y[0]
            avx = speed[i] * math.cos(heading[i]) - evx
            avy = speed[i] * math.sin(heading[i]) - evy
            assert feats[i, 6] == pytest.approx(math.hypot(dx, dy), abs=1e-9)
            assert feats[i, 7] == pytest.approx(dx) and feats[i, 8] == pytest.approx(dy)
            assert feats[i, 9] == pytest.approx(math.hypot(avx, avy), abs=1e-9)
            assert feats[i, 10] == pytest.approx(avx) and feats[i, 11] == pytest.approx(avy)

    def test_norm_invariants(self):
        world, goal, _ = self._spawned(density=6, seed=12)
        feats = build_features(world, goal, v_pref=6.0)
        assert feats[0, 0] == pytest.approx(math.hypot(feats[0, 1], feats[0, 2]), abs=1e-9)
        for i in range(1, feats.shape[0]):
            assert feats[i, 6] == pytest.approx(math.hypot(feats[i, 7], feats[i, 8]), abs=1e-9)
            assert feats[i, 9] == pytest.approx(math.hypot(feats[i, 10], feats[i, 11]), abs=1e-9)

    def test_ego_frame_flag_rotates_vectors(self):
        world, goal, _ = self._spawned(density=3, seed=5)
        plain = build_features(world, goal, 6.0, ego_frame=False)
        rotated = build_features(world, goal, 6.0, ego_frame=True)
        # norms unchanged, vector components rotated
        assert np.allclose(plain[:, 0], rotated[:, 0])
        assert np.allclose(plain[1:, 6], rotated[1:, 6])
        assert rotated[0, 4] == pytest.approx(world.speed[0], abs=1e-9)  # velocity now forward
        assert rotated[0, 5] == pytest.approx(0.0, abs=1e-9)


class TestAdjacency:
    def test_single_node(self):
        for strategy in ALL_STRATEGIES:
            assert np.array_equal(build_adjacency([[0.0, 0.0]], strategy), [[1.0]])

    def test_fully_connected_four_nodes_uniform(self):
        pos = [[0, 0], [5, 0], [0, 7], [-3, -3]]
        adj = build_adjacency(pos, FULLY)
        assert np.allclose(adj, 0.25)
        assert adj.shape == (4, 4)

    def test_ncLose_ego_row_hand_computed(self):
        pos = [[0.0, 0.0], [5.0, 0.0], [0.0, 10.0], [-20.0, 0.0]]
        adj = build_adjacency(pos, NCLOSE)
        raw = np.array([1.0, math.exp(-0.25), math.exp(-1.0), math.exp(-4.0)])
        assert np.allclose(adj[0], raw / raw.sum(), atol=1e-12)
        assert adj[0].sum() == pytest.approx(1.0, abs=1e-9)

    def test_star_restricts_offdiagonal_to_ego(self):
        pos = [[0, 0], [6, 0], [0, -8], [10, 10]]
        adj = build_adjacency(pos, STAR)
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert adj[i, j] == 0.0
            assert adj[i, 0] > 0.0
        assert np.all(adj[0] > 0.0)

    def test_non_weighted_rows_are_uniform_over_support(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(-30, 30, size=(6, 2))
        adj = build_adjacency(pos, UNWEIGHTED)
        for row in adj:
            support = row[row > 0]
            assert np.allclose(support, 1.0 / len(support))

    def test_sparsity_counts(self):
        rng = np.random.default_rng(1)
        for n in (5, 6, 8):
            pos = rng.uniform(-30, 30, size=(n, 2))
            adj = build_adjacency(pos, NCLOSE)
            assert np.count_nonzero(adj[0]) == n
            for i in range(1, n):
                assert np.count_nonzero(adj[i]) == NCLOSE.k + 1

    def test_small_n_connects_everything(self):
        rng = np.random.default_rng(2)
        pos = rng.uniform(-10, 10, size=(3, 2))
        adj = build_adjacency(pos, NCLOSE)
        assert np.all(adj > 0.0)

    def test_row_stochastic_and_positive_diagonal_all_strategies(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            pos = rng.uniform(-40, 40, size=(n, 2))
            for strategy in ALL_STRATEGIES:
                adj = build_adjacency(pos, strategy)
                assert np.all(np.abs(adj.sum(axis=1) - 1.0) < 1e-9)
                assert np.all(np.diag(adj) > 0.0)

    def test_scale_shrinks_weights(self):
        pos = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 6.0], [-5.0, 2.0]])
        near = build_adjacency(pos, NCLOSE)
        far = build_adjacency(pos * 2.0, NCLOSE)
        # pre-normalization weights shrink with distance; the self loop then
        # takes a strictly larger share of each row
        assert np.all(np.diag(far) > np.diag(near))

    def test_exclude_ego_candidate_flag(self):
        strategy = EdgeStrategy(kind=EdgeStrategyKind.N_CLOSE_WEIGHTED, include_ego_candidate=False)
        pos = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0], [50.0, 0.0]]
        adj = build_adjacency(pos, strategy)
        # node 1 sits right next to the ego, but may not pick it as neighbor
        assert adj[1, 0] == 0.0
        assert np.count_nonzero(adj[1]) == strategy.k + 1

    def test_permutation_consistency(self):
        rng = np.random.default_rng(7)
        pos = rng.uniform(-25, 25, size=(6, 2))
        feats_like = build_adjacency(pos, NCLOSE)
        perm = np.array([0, 3, 1, 5, 4, 2])
        permuted = build_adjacency(pos[perm], NCLOSE)
        assert np.array_equal(permuted, feats_like[np.ix_(perm, perm)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10_000))
def test_row_sums_property(n, seed):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-50, 50, size=(n, 2))
    for strategy in ALL_STRATEGIES:
        adj = build_adjacency(pos, strategy)
        assert np.all(np.abs(adj.sum(axis=1) - 1.0) < 1e-9)
        assert np.all(np.diag(adj) > 0.0)
        assert np.all(adj >= 0.0)


def test_adjacency_from_features_matches_direct_build():
    world, goal, _ = spawn_scenario(ScenarioConfig(density=5), seed=17)
    feats, adj, _ = encode_world(world, goal, GraphConfig())
    rebuilt = adjacency_from_features(feats, NCLOSE)
    assert np.allclose(rebuilt, adj, atol=1e-12)
    star = adjacency_from_features(feats, STAR)
    direct = build_adjacency(world_positions(world), STAR)
    assert np.allclose(star, direct, atol=1e-12)


def _reference_adjacency(positions, strategy: EdgeStrategy) -> np.ndarray:
    """The numpy formulation build_adjacency replaced: boolean mask, one
    stable argsort for the neighbor pick, np.where, fsum per row."""
    pos = np.asarray(positions, dtype=float)
    n = pos.shape[0]
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.hypot(diff[:, :, 0], diff[:, :, 1])
    weights = np.exp(-(dist**2) / (strategy.alpha_m**2))
    kind = strategy.kind
    if kind is EdgeStrategyKind.FULLY_CONNECTED:
        raw = np.ones((n, n))
    else:
        mask = np.zeros((n, n), dtype=bool)
        np.fill_diagonal(mask, True)
        mask[0, :] = True
        if kind is EdgeStrategyKind.STAR_CONNECTED:
            mask[:, 0] = True
        else:
            orders = np.argsort(dist, axis=1, kind="stable").tolist()
            for i in range(1, n):
                picked = 0
                for j in orders[i]:
                    if j == i or (j == 0 and not strategy.include_ego_candidate):
                        continue
                    mask[i, j] = True
                    picked += 1
                    if picked >= strategy.k:
                        break
        entries = np.ones((n, n)) if kind is EdgeStrategyKind.NON_WEIGHTED else weights
        raw = np.where(mask, entries, 0.0)
    row_sums = np.array([math.fsum(row) for row in raw.tolist()])
    return raw / row_sums[:, None]


def _position_sets(n, rng):
    """Random, coincident and equidistant layouts of n nodes."""
    yield rng.uniform(-40, 40, size=(n, 2))
    yield np.zeros((n, 2))
    yield np.round(rng.uniform(-3, 3, size=(n, 2)))  # repeated points and equal gaps
    angles = 2 * np.pi * np.arange(n) / max(n - 1, 1)
    ring = np.stack([7.5 * np.cos(angles), 7.5 * np.sin(angles)], axis=1)
    ring[0] = 0.0  # every other node equidistant from the ego
    yield ring
    yield np.stack([np.arange(n) * 4.0, np.zeros(n)], axis=1)  # a line: equal neighbor gaps
    yield -np.zeros((n, 2))


def test_adjacency_bit_identical_to_numpy_reference():
    rng = np.random.default_rng(11)
    for kind in EdgeStrategyKind:
        for include_ego in (True, False):
            for k in (1, 3, 7):
                strategy = EdgeStrategy(kind=kind, k=k, include_ego_candidate=include_ego)
                for n in range(1, 10):
                    for pos in _position_sets(n, rng):
                        got = build_adjacency(pos, strategy)
                        want = _reference_adjacency(pos, strategy)
                        assert got.shape == want.shape and got.dtype == want.dtype
                        assert np.array_equal(got, want), (kind, include_ego, k, n, pos)


def test_adjacency_from_features_bit_identical_to_numpy_reference():
    rng = np.random.default_rng(12)
    features = []
    for seed in range(12):
        world, goal, _ = spawn_scenario(ScenarioConfig(density=seed % 7), seed=seed)
        features.append(build_features(world, goal, v_pref=6.0))
    for n in range(1, 10):
        feats = np.zeros((n, 12))
        feats[1:, 7:9] = np.round(rng.uniform(-5, 5, size=(n - 1, 2)))
        features.append(feats)
    for kind in EdgeStrategyKind:
        for include_ego in (True, False):
            for k in (1, 3, 7):
                strategy = EdgeStrategy(kind=kind, k=k, include_ego_candidate=include_ego)
                for feats in features:
                    rel = np.zeros((feats.shape[0], 2))
                    rel[1:] = feats[1:, 7:9]
                    assert np.array_equal(adjacency_from_features(feats, strategy),
                                          _reference_adjacency(rel, strategy))


def _reference_features(world, goal, v_pref, ego_frame):
    """The numpy formulation build_features replaced: row setitems into a
    zero matrix, block assignments and one np.hypot per column pair."""
    x, y, heading, speed = world.x, world.y, world.heading, world.speed
    evx, evy = speed[0] * math.cos(heading[0]), speed[0] * math.sin(heading[0])
    gx = goal.target[0] - x[0]
    gy = goal.target[1] - y[0]
    n = len(x)
    rel = np.zeros((n, 4))
    for i in range(1, n):
        avx, avy = speed[i] * math.cos(heading[i]), speed[i] * math.sin(heading[i])
        rel[i] = (x[i] - x[0], y[i] - y[0], avx - evx, avy - evy)
    if ego_frame:
        back = -heading[0]
        gx, gy = _rotate(np.array([[gx, gy]]), back)[0]
        evx, evy = _rotate(np.array([[evx, evy]]), back)[0]
        rel[:, 0:2] = _rotate(rel[:, 0:2], back)
        rel[:, 2:4] = _rotate(rel[:, 2:4], back)
    x_ego = np.array([math.hypot(gx, gy), gx, gy, v_pref - speed[0], evx, evy])
    feats = np.zeros((n, 12))
    feats[:, :6] = x_ego
    feats[1:, 6] = np.hypot(rel[1:, 0], rel[1:, 1])
    feats[1:, 7:9] = rel[1:, 0:2]
    feats[1:, 9] = np.hypot(rel[1:, 2], rel[1:, 3])
    feats[1:, 10:12] = rel[1:, 2:4]
    return feats


def test_features_bit_identical_to_numpy_reference():
    for seed in range(40):
        world, goal, _ = spawn_scenario(ScenarioConfig(density=seed % 7), seed=seed)
        for ego_frame in (False, True):
            got = build_features(world, goal, 6.0, ego_frame)
            want = _reference_features(world, goal, 6.0, ego_frame)
            assert got.shape == want.shape and np.array_equal(got, want), (seed, ego_frame)
