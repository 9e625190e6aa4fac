import math

import numpy as np
import pytest

from graphnav.gradcheck import finite_diff_check
from graphnav.nn import (Adam, DenseLayer, GcnLayer, IDENTITY, Mlp, RELU, TANH,
                         batch_action_loss)


def test_identity_layer_passes_through():
    layer = DenseLayer(np.eye(3), np.zeros(3), IDENTITY)
    x = np.array([[1.0, -2.0, 0.5]])
    y, _ = layer.forward(x)
    assert np.array_equal(y, x)


def test_tanh_outputs_bounded():
    # tanh lands in (-1, 1) mathematically; under saturation float64 rounds
    # to exactly +-1.0, so the guaranteed box is the closed interval
    rng = np.random.default_rng(0)
    layer = DenseLayer.create(rng, 4, 6, TANH)
    y, _ = layer.forward(rng.normal(0, 10, size=(32, 4)))
    assert np.all(y >= -1.0) and np.all(y <= 1.0)


def test_relu_zeroes_negative_preactivations():
    layer = DenseLayer(np.eye(2), np.zeros(2), RELU)
    y, _ = layer.forward(np.array([[3.0, -4.0]]))
    assert np.array_equal(y, [[3.0, 0.0]])


def test_dense_shape_mismatch_rejected():
    layer = DenseLayer(np.eye(3), np.zeros(3), RELU)
    with pytest.raises(ValueError):
        layer.forward(np.ones((2, 4)))
    with pytest.raises(ValueError):
        DenseLayer(np.eye(3), np.zeros(4), RELU)
    with pytest.raises(ValueError):
        DenseLayer(np.eye(3), np.zeros(3), "sigmoid")


def test_shape_errors_name_the_shapes():
    dense = DenseLayer(np.eye(3), np.zeros(3), TANH)
    with pytest.raises(ValueError, match=r"^dense layer expects \(B, 3\), got \(2, 4\)$"):
        dense.forward(np.ones((2, 4)))
    with pytest.raises(ValueError, match=r"^dense layer expects \(B, 3\), got \(3,\)$"):
        dense.forward(np.ones(3))
    _, cache = dense.forward(np.ones((2, 3)))
    with pytest.raises(ValueError, match=r"^upstream shape \(2, 2\) does not match \(2, 3\)$"):
        dense.backward(cache, np.ones((2, 2)))
    with pytest.raises(ValueError, match=r"^dense weight must be 2-d, got shape \(3,\)$"):
        DenseLayer(np.ones(3), np.zeros(3), RELU)
    with pytest.raises(ValueError, match=r"^bias shape \(4,\) does not fit weight \(3, 3\)$"):
        DenseLayer(np.eye(3), np.zeros(4), RELU)
    with pytest.raises(ValueError, match=r"^unknown activation 'sigmoid'$"):
        DenseLayer(np.eye(3), np.zeros(3), "sigmoid")

    gcn = GcnLayer(np.ones((4, 2)))
    with pytest.raises(ValueError, match=r"^adjacency must be \(B, N, N\), got \(1, 3, 2\)$"):
        gcn.forward(np.ones((1, 3, 2)), np.ones((1, 3, 4)))
    with pytest.raises(ValueError, match=r"^node features must be \(B, 3, 4\), got \(1, 3, 5\)$"):
        gcn.forward(np.ones((1, 3, 3)), np.ones((1, 3, 5)))
    with pytest.raises(ValueError, match=r"^node features must be \(B, 3, 4\), got \(2, 3, 4\)$"):
        gcn.forward(np.ones((1, 3, 3)), np.ones((2, 3, 4)))
    _, cache = gcn.forward(np.ones((1, 3, 3)), np.ones((1, 3, 4)))
    with pytest.raises(ValueError, match=r"^upstream shape \(1, 3, 4\) does not match \(1, 3, 2\)$"):
        gcn.backward(cache, np.ones((1, 3, 4)))
    with pytest.raises(ValueError, match=r"^gcn weight must be 2-d, got shape \(4,\)$"):
        GcnLayer(np.ones(4))

    with pytest.raises(ValueError, match=r"^batch actions must be \(B, 2\), got \(3, 2\) and \(2, 2\)$"):
        batch_action_loss(np.zeros((3, 2)), np.zeros((2, 2)), denom=3)
    with pytest.raises(ValueError, match=r"^batch actions must be \(B, 2\), got \(3,\) and \(3,\)$"):
        batch_action_loss(np.zeros(3), np.zeros(3), denom=3)


def test_gcn_worked_example():
    adj = np.array([[[0.6, 0.4], [0.5, 0.5]]])
    h = np.array([[[1.0, -1.0], [2.0, 0.0]]])
    layer = GcnLayer(np.eye(2))
    out, cache = layer.forward(adj, h)
    assert np.allclose(cache[2], [[[1.4, -0.6], [1.5, -0.5]]], atol=1e-15)
    assert np.allclose(out, [[[1.4, 0.0], [1.5, 0.0]]], atol=1e-15)


def test_gcn_identity_reduces_to_dense():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(5, 3))
    gcn = GcnLayer(w)
    dense = DenseLayer(w, np.zeros(3), RELU)
    h = rng.normal(size=(1, 6, 5))
    eye = np.broadcast_to(np.eye(6), (1, 6, 6)).copy()
    out_gcn, _ = gcn.forward(eye, h)
    out_dense, _ = dense.forward(h[0])
    assert np.allclose(out_gcn[0], out_dense, atol=1e-12)


def test_gcn_zero_upstream_gives_zero_gradients():
    rng = np.random.default_rng(5)
    layer = GcnLayer.create(rng, 4, 3)
    adj = np.broadcast_to(np.eye(5), (2, 5, 5)).copy()
    h = rng.normal(size=(2, 5, 4))
    out, cache = layer.forward(adj, h)
    dh, dw = layer.backward(cache, np.zeros_like(out))
    assert np.all(dh == 0.0) and np.all(dw == 0.0)


def _fd_layer_check(forward, params, analytic, rng, eps=1e-5, n=60):
    return finite_diff_check(forward, params, analytic, n_samples=n, eps=eps, rng=rng)


def test_gcn_gradients_match_finite_differences():
    for attempt in range(10):
        rng = np.random.default_rng([6, attempt])
        layer = GcnLayer.create(rng, 4, 3)
        raw = np.abs(rng.normal(1.0, 0.5, size=(1, 3, 3))) + 0.1
        adj = raw / raw.sum(axis=2, keepdims=True)
        h = rng.normal(size=(1, 3, 4))
        upstream = rng.normal(size=(1, 3, 3))
        out, cache = layer.forward(adj, h)
        if layer.kink_margin(cache) < 1e-3:
            continue
        _, dw = layer.backward(cache, upstream)

        def loss():
            y, _ = layer.forward(adj, h)
            return float((upstream * y).sum())

        err = _fd_layer_check(loss, {"w": layer.w}, {"w": dw}, rng)
        assert err < 1e-6
        # input gradient dH against finite differences too
        dh, _ = layer.backward(cache, upstream)

        def loss_h():
            y, _ = layer.forward(adj, h)
            return float((upstream * y).sum())

        err_h = _fd_layer_check(loss_h, {"h": h}, {"h": dh}, rng)
        assert err_h < 1e-6
        return
    pytest.fail("no kink-free configuration found")


def test_dense_gradients_match_finite_differences():
    for attempt in range(10):
        rng = np.random.default_rng([7, attempt])
        layer = DenseLayer.create(rng, 5, 4, RELU)
        x = rng.normal(size=(3, 5))
        upstream = rng.normal(size=(3, 4))
        out, cache = layer.forward(x)
        if layer.kink_margin(cache) < 1e-3:
            continue
        dx, dw, db = layer.backward(cache, upstream)

        def loss():
            y, _ = layer.forward(x)
            return float((upstream * y).sum())

        err = _fd_layer_check(loss, {"w": layer.w, "b": layer.b}, {"w": dw, "b": db}, rng)
        assert err < 1e-6
        err_x = _fd_layer_check(loss, {"x": x}, {"x": dx}, rng)
        assert err_x < 1e-6
        return
    pytest.fail("no kink-free configuration found")


def test_linear_network_finite_differences_are_tight():
    rng = np.random.default_rng(8)
    mlp = Mlp.create(rng, [4, 5, 2], [IDENTITY, IDENTITY])
    x = rng.normal(size=(2, 4))
    target = rng.uniform(-0.5, 0.5, size=(2, 2))
    out, caches = mlp.forward(x)
    per, du = batch_action_loss(out, target, denom=len(out))
    _, grads = mlp.backward(caches, du)
    params = {"0.w": mlp.layers[0].w, "0.b": mlp.layers[0].b,
              "1.w": mlp.layers[1].w, "1.b": mlp.layers[1].b}
    analytic = {"0.w": grads[0][0], "0.b": grads[0][1],
                "1.w": grads[1][0], "1.b": grads[1][1]}

    def loss():
        y, _ = mlp.forward(x)
        p, _ = batch_action_loss(y, target, denom=len(y))
        return float(p.mean())

    err = finite_diff_check(loss, params, analytic, n_samples=40, eps=1e-5,
                            rng=np.random.default_rng(1))
    assert err < 1e-8  # quadratic loss in the parameters: exact up to roundoff


class TestActionLoss:
    def test_zero_at_match(self):
        per, du = batch_action_loss(np.array([[0.3, -0.4]]), np.array([[0.3, -0.4]]), denom=1)
        assert per.tolist() == [0.0]
        assert np.array_equal(du, [[0.0, 0.0]])

    def test_forced_arithmetic(self):
        per, du = batch_action_loss(np.array([[0.5, 0.2]]), np.array([[0.0, 0.2]]), denom=1)
        assert per[0] == pytest.approx(0.25)
        assert du[0, 0] == pytest.approx(1.0) and du[0, 1] == 0.0

    def test_non_negative(self):
        u, t = np.random.default_rng(9).uniform(-1, 1, size=(2, 100, 2))
        per, _ = batch_action_loss(u, t, denom=len(u))
        assert np.all(per >= 0.0)

    def test_batch_mean_matches_scalar_recompute(self):
        u = np.array([[0.5, 0.0], [-0.2, 0.3]])
        t = np.array([[0.0, 0.0], [0.0, 0.0]])
        per, du = batch_action_loss(u, t, denom=len(u))
        singles = ((u - t) ** 2).sum(axis=1)
        assert per.tolist() == pytest.approx(singles.tolist())
        assert float(per.mean()) == pytest.approx(float(singles.sum()) / 2)
        assert np.allclose(du, 2.0 * u / 2)


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        opt = Adam({"w": np.array([1.0, 2.0])})
        opt.step(opt.params, opt.grads)
        assert np.array_equal(opt.params["w"], [1.0, 2.0])

    def test_first_step_magnitude(self):
        opt = Adam({"w": np.array([0.0])}, lr=1e-3)
        opt.grads["w"][...] = 1.0
        opt.step(opt.params, opt.grads)
        w = opt.params["w"][0]
        expected = -1e-3 / (1.0 + 1e-8)  # bias-corrected m_hat = v_hat = 1 at t = 1
        assert w == pytest.approx(expected, abs=1e-15)
        assert abs(w + 1e-3) < 1e-6

    def test_identical_runs_identical_trajectories(self):
        def run():
            rng = np.random.default_rng(12)
            opt = Adam({"w": rng.normal(size=(3, 2))}, lr=0.01)
            w = opt.params["w"]
            for _ in range(25):
                opt.grads["w"][...] = w * 0.5 - 0.1
                opt.step(opt.params, opt.grads)
            return w.copy()

        assert np.array_equal(run(), run())

    def test_state_dict_roundtrip(self):
        opt = Adam({"w": np.array([1.0, -1.0])}, lr=0.01)
        opt.grads["w"][...] = 0.5
        opt.step(opt.params, opt.grads)
        state = opt.state_dict()
        assert state["m"]["w"] is opt.m["w"]  # the live arrays: saving copies nothing
        opt2 = Adam.from_state_dict(state, opt.params)
        assert opt2.t == opt.t
        assert np.array_equal(opt2.m["w"], opt.m["w"])
        assert np.array_equal(opt2.v["w"], opt.v["w"])
        # the restored moments are copies: stepping one optimizer leaves the other
        opt2.grads["w"][...] = 0.5
        opt2.step(opt2.params, opt2.grads)
        assert not np.array_equal(opt2.m["w"], opt.m["w"])

    def test_mismatched_keys_rejected(self):
        opt = Adam({"w": np.zeros(2)})
        with pytest.raises(ValueError):
            opt.step(opt.params, {"b": np.zeros(2)})

    def test_dicts_other_than_its_views_are_rejected(self):
        params = {"w": np.array([1.0, 2.0])}
        opt = Adam(params)
        for args in ((params, opt.grads), (opt.params, {"w": np.ones(2)}),
                     (dict(opt.params), dict(opt.grads))):
            with pytest.raises(ValueError, match="own params and grads views"):
                opt.step(*args)
        assert opt.t == 0 and not opt.flat[1:].any()


def reference_adam_step(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam one parameter array at a time, as nn.Adam did before its update
    became one elementwise pass over a flat buffer."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for name, p in params.items():
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * (g * g)
        p -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + eps)


SHAPES = {"gcn.0.w": (3, 4), "trunk.0.w": (4, 5), "trunk.0.b": (5,), "branch.0.b": (2,)}
SIZE = 39  # elements over all SHAPES


def test_flat_adam_equals_the_per_parameter_reference():
    """The flat update gives the reference bits over 8 steps, through a
    from_state_dict resume after the fourth."""
    rng = np.random.default_rng(5)
    ref = {k: rng.normal(size=shape) for k, shape in SHAPES.items()}
    m_ref = {k: np.zeros(shape) for k, shape in SHAPES.items()}
    v_ref = {k: np.zeros(shape) for k, shape in SHAPES.items()}
    opt = Adam({k: p.copy() for k, p in ref.items()}, lr=0.01)
    assert opt.flat.shape == (4, SIZE)
    for t in range(1, 9):
        if t == 5:
            opt = Adam.from_state_dict(opt.state_dict(), opt.params)
        grads = {k: rng.normal(size=shape) for k, shape in SHAPES.items()}
        reference_adam_step(ref, grads, m_ref, v_ref, t, lr=0.01)
        for k, g in grads.items():
            opt.grads[k][...] = g
        opt.step(opt.params, opt.grads)
        for k in SHAPES:
            assert opt.params[k].tobytes() == ref[k].tobytes()
            assert opt.m[k].tobytes() == m_ref[k].tobytes()
            assert opt.v[k].tobytes() == v_ref[k].tobytes()


def test_adam_steps_its_own_views_in_place():
    params = {k: np.full(shape, 2.0) for k, shape in SHAPES.items()}
    opt = Adam(params)
    assert np.array_equal(opt.flat[0], np.full(SIZE, 2.0)) and not opt.flat[1:].any()
    opt.grads["trunk.0.b"][...] = 1.0
    opt.step(opt.params, opt.grads)
    assert np.shares_memory(opt.m["trunk.0.b"], opt.flat) and np.count_nonzero(opt.flat[2]) == 5
    assert np.count_nonzero(opt.flat[0] != 2.0) == 5
    assert np.array_equal(params["trunk.0.b"], [2.0] * 5)  # a copy: the caller's arrays stay
