import numpy as np
import pytest

from mbrlab import nets
from mbrlab.nets import AdamState, DenseNet, adam_step
from mbrlab.rng import SeededRng

from util import assert_grads_close, finite_difference


def test_forward_identity_layer():
    net = DenseNet([np.eye(2)], [np.zeros(2)], ["identity"])
    assert np.allclose(nets.forward(net, np.array([1.0, 2.0])), [1.0, 2.0])


def test_forward_relu_clamps_negative():
    net = DenseNet([np.array([[-1.0]])], [np.zeros(1)], ["relu"])
    assert nets.forward(net, np.array([3.0]))[0] == 0.0


def test_forward_matches_straight_line_reimplementation():
    rng = SeededRng.from_seed(7)
    net = nets.init_dense(rng, [3, 5, 2], ["tanh", "identity"])
    x = SeededRng.from_seed(8).normal(size=(4, 3))
    # independent straight-line recomputation
    h = np.tanh(x @ net.weights[0].T + net.biases[0])
    expect = h @ net.weights[1].T + net.biases[1]
    assert np.allclose(nets.forward(net, x), expect, atol=0, rtol=0)


def test_forward_dimension_mismatch():
    net = nets.init_dense(SeededRng.from_seed(0), [3, 2])
    with pytest.raises(nets.ContractViolation):
        nets.forward(net, np.zeros((4, 5)))


def test_backward_zero_upstream():
    net = nets.init_dense(SeededRng.from_seed(1), [3, 4, 2])
    x = SeededRng.from_seed(2).normal(size=(5, 3))
    grads, dx = nets.backward(net, x, np.zeros((5, 2)))
    assert all(np.all(g == 0) for g in grads)
    assert np.all(dx == 0)


def test_backward_linear_scalar_case():
    # f(x) = w*x, upstream 1 -> dL/dw = x
    net = DenseNet([np.array([[2.0]])], [np.zeros(1)], ["identity"])
    grads, dx = nets.backward(net, np.array([[3.0]]), np.array([[1.0]]))
    assert grads[0][0, 0] == 3.0
    assert grads[1][0] == 1.0
    assert dx[0, 0] == 2.0


def test_backward_matches_finite_differences():
    rng = SeededRng.from_seed(11)
    net = nets.init_dense(rng, [4, 16, 16, 3], ["tanh", "relu", "identity"])
    x = SeededRng.from_seed(12).normal(size=(6, 4))
    up = SeededRng.from_seed(13).normal(size=(6, 3))

    def loss_fn(params):
        net.set_params(params)
        return float((nets.forward(net, x) * up).sum())

    params = [p.copy() for p in net.params()]
    net.set_params(params)
    analytic, _ = nets.backward(net, x, up)
    numeric = finite_difference(loss_fn, params)
    net.set_params(params)
    assert_grads_close(analytic, numeric, rtol=1e-4)


def test_adam_zero_gradients_leave_params_unchanged():
    p = [np.array([1.0, -2.0])]
    state = AdamState.for_params(p, lr=0.1)
    out = adam_step(state, p, [np.zeros(2)])
    assert np.allclose(out[0], p[0])
    assert state.t == 1


def test_adam_descends_on_quadratic():
    p = [np.array([1.0])]
    state = AdamState.for_params(p, lr=0.1)
    out = adam_step(state, p, [np.array([2.0])])  # f(w) = w^2
    assert out[0][0] < 1.0


def test_adam_reaches_quadratic_optimum():
    # closed-form optimum of f(w) = w^2 is 0; 100 steps at lr 0.15 get there
    p = [np.array([1.0])]
    state = AdamState.for_params(p, lr=0.15)
    for _ in range(100):
        p = adam_step(state, p, [2.0 * p[0]])
    assert float(p[0][0] ** 2) < 1e-6


def test_adam_rejects_non_finite_gradient():
    p = [np.zeros(2), np.zeros(3)]
    state = AdamState.for_params(p, lr=0.1)
    bad = [np.zeros(2), np.array([0.0, np.nan, 0.0])]
    with pytest.raises(nets.NonFiniteGradient, match="parameter 1"):
        adam_step(state, p, bad)
    assert state.t == 0  # step rejected, state untouched


def test_adam_step_counter_increments_by_one():
    p = [np.zeros(2)]
    state = AdamState.for_params(p, lr=0.1)
    for k in range(5):
        p = adam_step(state, p, [np.ones(2)])
        assert state.t == k + 1


def test_parameter_trajectory_bit_determinism():
    def run():
        rng = SeededRng.from_seed(42)
        net = nets.init_dense(rng, [3, 8, 2])
        state = AdamState.for_params(net.params(), lr=1e-3)
        x = rng.normal(size=(16, 3))
        for _ in range(100):
            grads, _ = nets.backward(net, x, np.ones((16, 2)))
            net.set_params(adam_step(state, net.params(), grads))
        return net.params()

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


def test_split_streams_are_independent_and_reproducible():
    a1, b1 = SeededRng.from_seed(5).split(2)
    a2, b2 = SeededRng.from_seed(5).split(2)
    assert np.array_equal(a1.normal(size=8), a2.normal(size=8))
    assert not np.array_equal(b1.normal(size=8), a2.normal(size=8))
