import numpy as np
import pytest

import graphnav.training
from graphnav.gradcheck import run_policy_check
from graphnav.graph import EdgeStrategy, EdgeStrategyKind, GraphConfig, build_features, encode_world
from graphnav.layout import COMMANDS, Command
from graphnav.nn import batch_action_loss
from graphnav.policies import (BLOCK_SCALE, FEATURE_SCALE, NETWORK_KINDS, NETWORKS,
                               GcilNetwork, NetworkController, NnCilNetwork, SetCilNetwork,
                               build_network, nncil_vector, set_elements)
from graphnav.world import ScenarioConfig, spawn_scenario


def _features(density=4, seed=3):
    world, goal, _ = spawn_scenario(ScenarioConfig(density=density), seed=seed)
    return encode_world(world, goal, GraphConfig())


def _observation(density=4, seed=3):
    """gcil's (features, adjacency) inputs of one spawned world."""
    return GcilNetwork.inputs(_features(density, seed), GraphConfig().strategy)


def _permute(feats, adj, perm):
    order = np.concatenate([[0], np.asarray(perm)])
    return feats[order], adj[np.ix_(order, order)]


class TestGcil:
    def test_output_inside_action_box(self):
        net = build_network("gcil", seed=0)
        rng = np.random.default_rng(1)
        for density in (0, 1, 3, 7):
            feats, adj = _observation(density=density, seed=int(rng.integers(1000)))
            action = net.act(feats, adj, Command.FORWARD)
            assert -1.0 <= action.delta <= 1.0
            assert -1.0 <= action.tau <= 1.0

    def test_forward_deterministic(self):
        net = build_network("gcil", seed=0)
        feats, adj = _observation()
        a1 = net.act(feats, adj, Command.TURN_LEFT)
        a2 = net.act(feats, adj, Command.TURN_LEFT)
        assert a1 == a2

    def test_branch_isolation_bitwise(self):
        net = build_network("gcil", seed=0)
        feats, adj = _observation()
        before = net.act(feats, adj, Command.FORWARD)
        # mangle the weights of the two non-selected branches
        for cmd in (Command.TURN_LEFT, Command.TURN_RIGHT):
            for layer in net.head.branches[cmd].layers:
                layer.w += 123.0
                layer.b -= 7.0
        after = net.act(feats, adj, Command.FORWARD)
        assert before == after

    def test_non_selected_branch_gradients_exactly_zero(self):
        net = build_network("gcil", seed=0)
        feats, adj = _observation()
        _, cache = net.forward(feats, adj, Command.FORWARD)
        grads = net.backward_batch(cache, np.array([0.3, -0.7]).reshape(1, 2))
        for cmd in (Command.TURN_LEFT, Command.TURN_RIGHT):
            for i in range(2):
                assert np.all(grads[f"branch.{cmd.value}.{i}.w"] == 0.0)
                assert np.all(grads[f"branch.{cmd.value}.{i}.b"] == 0.0)
        assert any(np.any(grads[k] != 0.0) for k in grads if k.startswith("gcn."))

    def test_zero_upstream_zero_gradients(self):
        net = build_network("gcil", seed=0)
        feats, adj = _observation()
        _, cache = net.forward(feats, adj, Command.FORWARD)
        grads = net.backward_batch(cache, np.zeros(2).reshape(1, 2))
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_permutation_equivariance_bit_exact(self):
        net = build_network("gcil", seed=2)
        rng = np.random.default_rng(5)
        for seed in range(8):
            feats, adj = _observation(density=5, seed=seed)
            base = net.act(feats, adj, Command.TURN_RIGHT)
            perm = rng.permutation(np.arange(1, feats.shape[0]))
            pf, pa = _permute(feats, adj, perm)
            permuted = net.act(pf, pa, Command.TURN_RIGHT)
            assert base == permuted  # bitwise, thanks to canonical node ordering

    def test_handles_any_node_count_without_reinstantiation(self):
        net = build_network("gcil", seed=0)
        for density in (0, 2, 6):
            feats, adj = _observation(density=density, seed=9)
            assert feats.shape == (density + 1, 12)
            net.act(feats, adj, Command.FORWARD)

    def test_batched_forward_matches_singles(self):
        net = build_network("gcil", seed=3)
        obs = [_observation(density=4, seed=s) for s in range(6)]
        feats = np.stack([o[0] for o in obs])
        adj = np.stack([o[1] for o in obs])
        batched, _ = net.forward_batch(*net.canonical(feats, adj), Command.FORWARD)
        for i, (f, a) in enumerate(obs):
            single, _ = net.forward(f, a, Command.FORWARD)
            # BLAS kernel choice varies with batch size, so agreement is to
            # rounding, not bitwise
            assert np.allclose(batched[i], single, rtol=0, atol=1e-12)

    def test_batched_backward_matches_summed_singles(self):
        net = build_network("gcil", seed=3)
        obs = [_observation(density=3, seed=s) for s in range(4)]
        feats = np.stack([o[0] for o in obs])
        adj = np.stack([o[1] for o in obs])
        targets = np.random.default_rng(0).uniform(-0.5, 0.5, size=(4, 2))
        u, cache = net.forward_batch(*net.canonical(feats, adj), Command.FORWARD)
        _, du = batch_action_loss(u, targets, denom=len(u))
        batched = net.backward_batch(cache, du)
        summed = None
        for i, (f, a) in enumerate(obs):
            ui, ci = net.forward(f, a, Command.FORWARD)
            gi = net.backward_batch(ci, du[i].reshape(1, 2))
            summed = gi if summed is None else {k: summed[k] + gi[k] for k in gi}
        for k in batched:
            assert np.allclose(batched[k], summed[k], atol=1e-12)


def _reference_nncil_vector(feats):
    """The per-sample construction nncil_vector replaced: slots filled one
    nearest agent at a time."""
    out = np.zeros(24)
    out[:6] = feats[0, :6]
    if feats.shape[0] > 1:
        order = np.argsort(feats[1:, 6], kind="stable")[:3]
        for slot, idx in enumerate(order):
            out[6 + 6 * slot: 6 + 6 * (slot + 1)] = feats[1 + idx, 6:]
    return out


def _reference_set_elements(feats):
    """The per-sample construction set_elements replaced."""
    return np.vstack([feats[0, :6], feats[1:, 6:]])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_inputs_bit_identical_to_per_sample_reference(n):
    # a stack of samples with tied distances among random ones gives each
    # sample's reference vector and elements; n < 4 exercises nncil's padding
    rng = np.random.default_rng(n)
    feats = rng.uniform(-30.0, 30.0, size=(40, n, 12))
    feats[:, :, :6] = feats[:, :1, :6]
    feats[::2, 1:, 6] = np.round(feats[::2, 1:, 6] / 20.0)  # equal distances
    feats[:, 0, 6:] = 0.0
    vectors, elements = nncil_vector(feats), set_elements(feats)
    assert vectors.shape == (40, 24) and elements.shape == (40, n, 6)
    for sample, vec, elems in zip(feats, vectors, elements, strict=True):
        assert vec.tobytes() == _reference_nncil_vector(sample).tobytes()
        assert nncil_vector(sample).tobytes() == vec.tobytes()
        assert elems.tobytes() == _reference_set_elements(sample).tobytes()
        assert set_elements(sample).tobytes() == elems.tobytes()


class TestNnCilInput:
    def test_empty_road_pads_with_zeros(self):
        world, goal, _ = spawn_scenario(ScenarioConfig(density=0), seed=1)
        vec = nncil_vector(build_features(world, goal, v_pref=6.0))
        assert vec.shape == (24,)
        assert np.all(vec[6:] == 0.0)

    def test_orders_by_distance(self):
        feats = np.zeros((6, 12))
        for i, d in enumerate([15.0, 3.0, 9.0, 20.0, 7.0], start=1):
            feats[i, 6] = d
            feats[i, 7] = d  # marker
        vec = nncil_vector(feats)
        assert vec[6] == 3.0 and vec[12] == 7.0 and vec[18] == 9.0

    def test_ties_break_by_lower_id(self):
        feats = np.zeros((4, 12))
        feats[1, 6] = 5.0
        feats[1, 7] = 111.0
        feats[2, 6] = 5.0
        feats[2, 7] = 222.0
        feats[3, 6] = 1.0
        feats[3, 7] = 333.0
        vec = nncil_vector(feats)
        assert vec[7] == 333.0 and vec[13] == 111.0 and vec[19] == 222.0

    def test_network_output_in_box(self):
        net = build_network("nncil", seed=1)
        feats, _ = _observation(density=5, seed=4)
        action = net.act(nncil_vector(feats), Command.TURN_LEFT)
        assert -1.0 <= action.delta <= 1.0 and -1.0 <= action.tau <= 1.0


class TestSetCil:
    def test_permutation_invariance_bit_exact(self):
        net = build_network("setcil", seed=1)
        feats, _ = _observation(density=6, seed=2)
        elements = set_elements(feats)
        base = net.act(elements, Command.FORWARD)
        rng = np.random.default_rng(0)
        for _ in range(5):
            shuffled = elements[rng.permutation(len(elements))]
            assert net.act(shuffled, Command.FORWARD) == base

    def test_single_element_equals_sum(self):
        from graphnav.policies import BLOCK_SCALE

        net = build_network("setcil", seed=1)
        element = np.array([[1.0, 2.0, -1.0, 0.5, 0.2, -0.3]])
        u_single, cache = net.forward(element, Command.FORWARD)
        # encoding of one element equals the pooled representation
        enc, _ = net.encoder.forward(element / BLOCK_SCALE)
        pooled_u, _ = net.head.forward(enc, Command.FORWARD)
        assert np.allclose(u_single, pooled_u[0], rtol=0, atol=1e-15)

    def test_duplicate_element_doubles_contribution(self):
        from graphnav.policies import BLOCK_SCALE

        net = build_network("setcil", seed=1)
        rng = np.random.default_rng(3)
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        # brute-force pooled encodings computed element by element
        enc_a = net.encoder.forward(a[None] / BLOCK_SCALE)[0][0]
        enc_b = net.encoder.forward(b[None] / BLOCK_SCALE)[0][0]
        doubled, _ = net.head.forward((2 * enc_a + enc_b)[None], Command.FORWARD)
        via_set, _ = net.forward(np.stack([a, a, b]), Command.FORWARD)
        assert np.allclose(via_set, doubled[0], atol=1e-12)

    def test_elements_layout_from_features(self):
        feats, _ = _observation(density=3, seed=6)
        elements = set_elements(feats)
        assert elements.shape == (4, 6)
        assert np.array_equal(elements[0], feats[0, :6])
        assert np.array_equal(elements[1:], feats[1:, 6:])


class TestGradientFidelity:
    @pytest.mark.parametrize("kind", ["gcil", "nncil", "setcil"])
    def test_end_to_end_finite_difference(self, kind):
        err = run_policy_check(kind, seed=0, n_samples=120)
        assert err < 1e-4

    @pytest.mark.parametrize("kind", NETWORK_KINDS)
    def test_a_wrong_training_gradient_fails_the_check(self, kind, monkeypatch):
        # the check runs training's own step: doubling the output gradient
        # that `_train_step` backpropagates must show, the loss staying right
        def doubled(u, targets, denom):
            per_sample, du = batch_action_loss(u, targets, denom=denom)
            return per_sample, 2.0 * du
        monkeypatch.setattr(graphnav.training, "batch_action_loss", doubled)
        assert run_policy_check(kind, seed=0, n_samples=40) > 1e-4

    @pytest.mark.parametrize("kind", NETWORK_KINDS)
    def test_the_analytic_gradient_outlives_later_steps(self, kind, monkeypatch):
        # the check calls `_train_step` again for every central difference
        # while it holds the first call's gradient, so that gradient must not
        # share memory with a buffer a later step writes
        check = graphnav.gradcheck.finite_diff_check
        held = []

        def holding(loss_fn, params, analytic, **kwargs):
            before = {k: g.copy() for k, g in analytic.items()}
            worst = check(loss_fn, params, analytic, **kwargs)
            held.append(all(np.array_equal(before[k], analytic[k]) for k in before))
            return worst
        monkeypatch.setattr(graphnav.gradcheck, "finite_diff_check", holding)
        run_policy_check(kind, seed=0, n_samples=10)
        assert held == [True]

    def test_perception_dimension(self):
        net = build_network("gcil", seed=0)
        assert net.head.n_in == 16  # 10 graph channels + 6 ego entries


@pytest.mark.parametrize("kind", NETWORK_KINDS)
def test_branch_isolation_holds_for_every_network(kind):
    net = build_network(kind, seed=4)
    inputs = net.inputs(_features(density=4, seed=8), GraphConfig().strategy)
    before = net.act(*inputs, Command.TURN_RIGHT)
    for cmd in (Command.FORWARD, Command.TURN_LEFT):
        for layer in net.head.branches[cmd].layers:
            layer.w -= 11.0
    assert net.act(*inputs, Command.TURN_RIGHT) == before
    _, cache = net.forward(*inputs, Command.TURN_RIGHT)
    grads = net.backward_batch(cache, np.array([0.1, 0.9]).reshape(1, 2))
    for cmd in (Command.FORWARD, Command.TURN_LEFT):
        for i in range(2):
            assert np.all(grads[f"branch.{cmd.value}.{i}.w"] == 0.0)
            assert np.all(grads[f"branch.{cmd.value}.{i}.b"] == 0.0)


def _bits(action) -> bytes:
    return np.array([action.delta, action.tau]).tobytes()


@pytest.mark.parametrize("strategy_kind", [k for k in EdgeStrategyKind
                                           if k is not EdgeStrategy().kind], ids=lambda k: k.value)
@pytest.mark.parametrize("kind", NETWORK_KINDS)
def test_controller_acts_under_its_edge_strategy(kind, strategy_kind):
    """The controller's action is the network's on its `inputs` of the
    world's features under the rollout's graph config and its strategy, bit
    for bit; only gcil's action can move with the strategy."""
    net = build_network(kind, seed=6)
    controller = NetworkController(net)
    graph_cfg = GraphConfig(strategy=EdgeStrategy(kind=strategy_kind))
    moved = 0
    for seed in range(6):
        world, goal, _ = spawn_scenario(ScenarioConfig(density=4), seed=seed)
        feats = encode_world(world, goal, graph_cfg)
        for command in COMMANDS:
            action = controller.act(world, goal, command, graph_cfg)
            assert _bits(action) == _bits(net.act(*net.inputs(feats, graph_cfg.strategy), command))
            moved += _bits(action) != _bits(controller.act(world, goal, command, GraphConfig()))
    assert (moved > 0) == (kind == "gcil")


def test_build_network_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_network("mlp")


def test_registry_maps_each_kind_to_its_class():
    assert NETWORKS == {"gcil": GcilNetwork, "nncil": NnCilNetwork, "setcil": SetCilNetwork}
    assert NETWORK_KINDS == ("gcil", "nncil", "setcil")
    for kind, cls in NETWORKS.items():
        assert type(build_network(kind, seed=0)) is cls and cls.kind == kind


def _layer_names(prefix, n, bias=True):
    return [f"{prefix}.{i}.{p}" for i in range(n) for p in (("w", "b") if bias else ("w",))]


HEAD_NAMES = _layer_names("trunk", 4) + [
    name for c in ("forward", "turn_left", "turn_right") for name in _layer_names(f"branch.{c}", 2)]
HEAD_TOPOLOGY = {"trunk_widths": [128, 256, 64, 64], "branch_hidden": 64}


@pytest.mark.parametrize("kind, frontend_names, frontend_topology", [
    ("gcil", _layer_names("gcn", 3, bias=False), {"feature_dim": 12, "gcn_widths": [32, 32, 10]}),
    ("nncil", _layer_names("perception", 3), {"input_dim": 24, "perception_widths": [64, 64, 64]}),
    ("setcil", _layer_names("encoder", 3), {"element_dim": 6, "encoder_widths": [64, 64, 64]}),
])
def test_parameter_names_and_topology_are_pinned(kind, frontend_names, frontend_topology):
    net = build_network(kind, seed=0)
    assert list(net.parameters()) == frontend_names + HEAD_NAMES
    assert net.topology() == {**frontend_topology, **HEAD_TOPOLOGY}
    inputs = net.inputs(_features(density=3, seed=2), GraphConfig().strategy)
    _, cache = net.forward(*inputs, Command.TURN_LEFT)
    grads = net.backward_batch(cache, np.array([0.3, -0.2]).reshape(1, 2))
    assert sorted(grads) == sorted(net.parameters())


@pytest.mark.parametrize("kind", NETWORK_KINDS)
def test_the_kink_margin_is_the_smallest_relu_pre_activation(kind):
    """A batch's kink margin is its smallest |pre-activation| over every ReLU
    layer it went through: the frontend, the trunk and the active branch's
    hidden layer, not the branch's tanh output layer."""
    net = build_network(kind, seed=4)
    feats = np.stack([_features(density=3, seed=s) for s in range(4)])
    inputs = net.canonical(*net.inputs(feats, GraphConfig().strategy))
    for command in COMMANDS:
        _, cache = net.forward_batch(*inputs, command)
        frontend, (cached_command, trunk, (hidden, _tanh)) = cache[:2]
        assert cached_command is command
        pres = [c[2] if kind == "gcil" else c[1] for c in frontend]  # GcnLayer: (adj, ah, pre)
        pres += [c[1] for c in trunk] + [hidden[1]]  # DenseLayer: (x, pre, out)
        assert len(pres) == 3 + 4 + 1
        assert net.kink_margin(cache) == min(float(np.abs(pre).min()) for pre in pres)


def _reference_gcil_order(feats, adj):
    """The per-sample canonicalization the shared helper replaced: ego first,
    the other rows by np.lexsort, gathered with np.ix_."""
    out_f = np.empty_like(feats)
    out_a = np.empty_like(adj)
    for b in range(feats.shape[0]):
        n = feats.shape[1]
        order = np.arange(n)
        if n > 2:
            order = np.concatenate([[0], np.lexsort(feats[b][1:].T[::-1]) + 1])
        out_f[b] = feats[b][order]
        out_a[b] = adj[b][np.ix_(order, order)]
    return out_f, out_a


def _reference_set_order(elems):
    canon = np.empty_like(elems)
    for i in range(elems.shape[0]):
        canon[i] = elems[i][np.lexsort(elems[i].T[::-1])]
    return canon


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and a.tobytes() == b.tobytes()


def _tie_heavy_rows(rng, shape):
    """Rows drawn from a few values, -0.0 and 0.0 among them, so that equal
    rows and ties decided several columns in are common."""
    values = np.array([-1.5, -0.0, 0.0, 0.25, 2.0])
    rows = values[rng.integers(0, len(values), size=shape)]
    rows[..., -1] = rng.normal(size=shape[:-1]) * (rng.uniform(size=shape[:-1]) < 0.5)
    return rows


@pytest.mark.parametrize("batch", [1, 7, 512])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_canonical_order_matches_lexsort_reference(batch, n):
    rng = np.random.default_rng(batch * 10 + n)
    feats = _tie_heavy_rows(rng, (batch, n, 12))
    feats[:, :, :6] = feats[:, :1, :6]  # the shared ego block, as in real features
    adj = rng.uniform(size=(batch, n, n))
    got_f, got_a = GcilNetwork.canonical(feats, adj)
    # the order is that of the scaled rows; scaling and gathering commute bitwise
    want_f, want_a = _reference_gcil_order(feats / FEATURE_SCALE, adj)
    assert _same_bits(got_f / FEATURE_SCALE, want_f) and _same_bits(got_a, want_a)
    assert _same_bits(got_f[:, 0], feats[:, 0])  # the ego row, which forward_batch reads

    elems = _tie_heavy_rows(rng, (batch, n, 6))
    (got_e,) = SetCilNetwork.canonical(elems)
    assert _same_bits(got_e / BLOCK_SCALE, _reference_set_order(elems / BLOCK_SCALE))


def test_canonical_order_of_a_sample_does_not_depend_on_its_batch():
    rng = np.random.default_rng(9)
    feats = _tie_heavy_rows(rng, (64, 8, 12))
    adj = rng.uniform(size=(64, 8, 8))
    batch_f, batch_a = GcilNetwork.canonical(feats, adj)
    (batch_e,) = SetCilNetwork.canonical(feats[:, :, 6:])
    for i in (0, 17, 63):
        alone_f, alone_a = GcilNetwork.canonical(feats[i:i + 1], adj[i:i + 1])
        (alone_e,) = SetCilNetwork.canonical(feats[i:i + 1, :, 6:])
        assert _same_bits(alone_f[0], batch_f[i]) and _same_bits(alone_a[0], batch_a[i])
        assert _same_bits(alone_e[0], batch_e[i])


def test_canonical_order_on_recorded_observations():
    obs = [_observation(density=d, seed=s) for d in (0, 3, 7) for s in range(3)]
    for feats, adj in obs:
        got_f, got_a = GcilNetwork.canonical(feats[None], adj[None])
        want_f, want_a = _reference_gcil_order(feats[None] / FEATURE_SCALE, adj[None])
        assert _same_bits(got_f / FEATURE_SCALE, want_f) and _same_bits(got_a, want_a)


def _collapsing_pair():
    """Two raw values a < b whose quotients by 20 m are equal."""
    a = 0.7
    while True:
        b = np.nextafter(a, 1.0)
        if a / 20.0 == b / 20.0:
            return a, b
        a = b


def test_canonical_order_is_that_of_the_scaled_rows():
    # raw rows order by their first column, but scaled they tie there and the
    # second column decides the other way
    a, b = _collapsing_pair()
    feats = np.zeros((1, 3, 12))
    feats[0, 1, 6:8] = (b, 0.0)
    feats[0, 2, 6:8] = (a, 1.0)
    adj = np.arange(9.0).reshape(1, 3, 3)
    got_f, got_a = GcilNetwork.canonical(feats, adj)
    assert got_f[0, 1, 6] == b and got_f[0, 2, 6] == a
    assert np.array_equal(got_a, adj)
    (got_e,) = SetCilNetwork.canonical(feats[:, :, 6:])
    assert got_e[0, 1, 0] == b and got_e[0, 2, 0] == a


def test_nncil_canonical_is_the_identity():
    x = np.random.default_rng(0).normal(size=(5, 24))
    (got,) = NnCilNetwork.canonical(x)
    assert got is x
