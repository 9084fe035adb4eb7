import numpy as np
import pytest

from mbrlab import nets
from mbrlab.nets import AdamState, DenseNet, adam_step

from util import assert_grads_close, finite_difference


def test_forward_identity_layer():
    net = DenseNet([2, 2], ["identity"])
    net.weights[0][:] = np.eye(2)
    assert np.allclose(nets.forward(net, np.array([[1.0, 2.0]])), [[1.0, 2.0]])


def test_forward_relu_clamps_negative():
    net = DenseNet([1, 1], ["relu"])
    net.weights[0][:] = -1.0
    assert nets.forward(net, np.array([[3.0]]))[0, 0] == 0.0


def test_forward_matches_straight_line_reimplementation():
    rng = np.random.default_rng(7)
    net = nets.init_dense(rng, [3, 5, 2], ["tanh", "identity"])
    x = np.random.default_rng(8).normal(size=(4, 3))
    # independent straight-line recomputation
    h = np.tanh(x @ net.weights[0].T + net.biases[0])
    expect = h @ net.weights[1].T + net.biases[1]
    assert np.allclose(nets.forward(net, x), expect, atol=0, rtol=0)


def test_forward_dimension_mismatch():
    net = nets.init_dense(np.random.default_rng(0), [3, 2])
    with pytest.raises(nets.ContractViolation):
        nets.forward(net, np.zeros((4, 5)))


def test_forward_cache_takes_batches_only():
    # a single sample is a batch of one row; sac.act and controller_act add the axis
    net = nets.init_dense(np.random.default_rng(0), [3, 2])
    with pytest.raises(nets.ContractViolation):
        nets.forward_cache(net, np.zeros(3))
    assert nets.forward_cache(net, np.zeros((1, 3)))[0].shape == (1, 2)


def test_dense_net_rejects_unknown_activation():
    with pytest.raises(nets.ContractViolation, match="layer 1: unknown activation 'gelu'"):
        DenseNet([2, 3, 1], ["relu", "gelu"])


def test_backward_zero_upstream():
    net = nets.init_dense(np.random.default_rng(1), [3, 4, 2])
    x = np.random.default_rng(2).normal(size=(5, 3))
    _, cache = nets.forward_cache(net, x)
    grads, dx = nets.backward_from_cache(net, cache, np.zeros((5, 2)))
    assert np.all(grads == 0)
    assert np.all(dx == 0)


def test_backward_linear_scalar_case():
    # f(x) = w*x, upstream 1 -> dL/dw = x
    net = DenseNet([1, 1], ["identity"])
    net.weights[0][:] = 2.0
    _, cache = nets.forward_cache(net, np.array([[3.0]]))
    grads, dx = nets.backward_from_cache(net, cache, np.array([[1.0]]))
    assert grads.tolist() == [3.0, 1.0]  # [dL/dw, dL/db]
    assert dx[0, 0] == 2.0


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(11)
    net = nets.init_dense(rng, [4, 16, 16, 3], ["tanh", "relu", "identity"])
    x = np.random.default_rng(12).normal(size=(6, 4))
    up = np.random.default_rng(13).normal(size=(6, 3))

    def loss_fn(_):  # finite_difference perturbs net.theta in place
        return float((nets.forward(net, x) * up).sum())

    analytic, _ = nets.backward_from_cache(net, nets.forward_cache(net, x)[1], up)
    numeric = finite_difference(loss_fn, [net.theta])
    assert_grads_close([analytic], numeric, rtol=1e-4)



# ------------------------------------------------------------ stacked nets

def _stacked(lead, hidden, seed=0):
    """A stack of nets (tanh, relu, identity layers) with theta (*lead, n)."""
    rng = np.random.default_rng(seed)
    sizes = [6, hidden, hidden, 3]
    thetas = [nets.init_dense(r, sizes, ["tanh", "relu", "identity"]).theta
              for r in rng.spawn(int(np.prod(lead)))]
    return DenseNet(sizes, ["tanh", "relu", "identity"],
                    np.stack(thetas).reshape(*lead, -1))


def _inputs(lead, rows, how, rng):
    if how == "shared":
        return rng.normal(size=(rows, 6))
    if how == "broadcast":  # one input per leading row, shared along the last leading axis
        return rng.normal(size=(*lead[:-1], 1, rows, 6))
    return rng.normal(size=(*lead, rows, 6))


@pytest.mark.parametrize("hidden", [8, 16, 32])
@pytest.mark.parametrize("rows", [1, 2, 64, 128, 256])
def test_stacked_forward_and_backward_match_each_net_bit_for_bit(rows, hidden):
    rng = np.random.default_rng(rows + hidden)
    for lead, how in [((2,), "shared"), ((2,), "per-slice"), ((2, 2), "shared"),
                      ((2, 2), "broadcast"), ((2, 2), "per-slice")]:
        stack = _stacked(lead, hidden, seed=rows)
        x = _inputs(lead, rows, how, rng)
        up = rng.normal(size=(*lead, rows, 3))
        for ws in (None, nets.Workspace.for_net(stack, lead, rows)):
            y, cache = nets.forward_cache(stack, x, ws)
            y = y.copy()
            grad, dx = nets.backward_from_cache(stack, cache, up, ws=ws)
            dx = dx.copy()
            none, dx_only = nets.backward_from_cache(stack, cache, up, params=False, ws=ws)
            assert none is None and grad.shape == stack.theta.shape
            for idx in np.ndindex(*lead):
                net = DenseNet(stack.sizes, stack.activations, stack.theta[idx])
                xi = x if how == "shared" else x[(*idx[:-1], 0) if how == "broadcast" else idx]
                y_ref, cache_ref = nets.forward_cache(net, xi)
                g_ref, dx_ref = nets.backward_from_cache(net, cache_ref, up[idx])
                assert np.array_equal(y[idx], y_ref)
                assert np.array_equal(grad[idx], g_ref)
                assert np.array_equal(dx[idx], dx_ref)
                assert np.array_equal(dx_only[idx], dx_ref)


def test_stacked_backward_matches_finite_differences():
    stack = _stacked((2, 2), 8, seed=3)
    rng = np.random.default_rng(4)
    x = _inputs((2, 2), 5, "broadcast", rng)
    up = rng.normal(size=(2, 2, 5, 3))

    def loss_fn(_):  # finite_difference perturbs the stacked theta in place
        return float((nets.forward(stack, x) * up).sum())

    _, cache = nets.forward_cache(stack, x)
    analytic, _ = nets.backward_from_cache(stack, cache, up)
    numeric = finite_difference(loss_fn, [stack.theta])
    assert_grads_close([analytic], numeric, rtol=1e-4)


def test_workspace_is_one_block_and_slices_are_views():
    stack = _stacked((2, 2), 4)
    ws = nets.Workspace.for_net(stack, (2, 2), 3)
    bufs = ws.pre + ws.act + ws.d_pre + ws.d_in
    assert len({id(b.base) for b in bufs}) == 1 and all(b.flags.c_contiguous for b in bufs)
    # pre and act own their buffers; every d_pre starts one shared part, every
    # d_in a second, and no d_pre meets a d_in
    own = ws.pre + ws.act
    assert not any(np.shares_memory(a, b) for i, a in enumerate(own)
                   for b in own[:i] + ws.d_pre + ws.d_in)
    assert not any(np.shares_memory(a, b) for a in ws.d_pre for b in ws.d_in)
    assert len({b.ctypes.data for b in ws.d_pre}) == len({b.ctypes.data for b in ws.d_in}) == 1
    sub = ws[1]
    for whole, part in zip(ws.pre + ws.act + ws.d_pre + ws.d_in,
                           sub.pre + sub.act + sub.d_pre + sub.d_in):
        assert part.shape == whole.shape[1:] and np.shares_memory(part, whole[1])

def test_adam_zero_gradients_leave_params_unchanged():
    p = np.array([1.0, -2.0])
    state = AdamState.for_theta(p, lr=0.1)
    adam_step(state, p, np.zeros(2))
    assert np.array_equal(p, [1.0, -2.0])
    assert state.t == 1


def test_adam_descends_on_quadratic():
    p = np.array([1.0])
    state = AdamState.for_theta(p, lr=0.1)
    adam_step(state, p, np.array([2.0]))  # f(w) = w^2
    assert p[0] < 1.0


def test_adam_reaches_quadratic_optimum():
    # closed-form optimum of f(w) = w^2 is 0; 100 steps at lr 0.15 get there
    p = np.array([1.0])
    state = AdamState.for_theta(p, lr=0.15)
    for _ in range(100):
        adam_step(state, p, 2.0 * p)
    assert float(p[0] ** 2) < 1e-6


def test_adam_rejects_non_finite_gradient():
    p = np.arange(5.0)
    state = AdamState.for_theta(p, lr=0.1)
    adam_step(state, p, np.ones(5))
    before = (p.copy(), state.m.copy(), state.v.copy(), state.t)
    bad = np.array([0.0, 0.0, 0.0, np.nan, np.inf])
    with pytest.raises(nets.NonFiniteGradient, match="entry 3"):
        adam_step(state, p, bad)
    # step rejected: theta, both moments and the counter untouched
    assert np.array_equal(p, before[0])
    assert np.array_equal(state.m, before[1]) and np.array_equal(state.v, before[2])
    assert state.t == before[3] == 1


def test_adam_rejects_mismatched_shapes():
    p = np.zeros(3)
    state = AdamState.for_theta(p, lr=0.1)
    with pytest.raises(nets.ContractViolation):
        adam_step(state, p, np.zeros(4))
    assert state.t == 0


def test_adam_step_counter_increments_by_one():
    p = np.zeros(2)
    state = AdamState.for_theta(p, lr=0.1)
    for k in range(5):
        adam_step(state, p, np.ones(2))
        assert state.t == k + 1


def test_flat_adam_matches_per_tensor_reference_bit_for_bit():
    # the per-layer update the flat one replaced, term for term
    def reference_step(params, grads, m, v, t, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            m_hat = m[i] / (1.0 - b1 ** t)
            v_hat = v[i] / (1.0 - b2 ** t)
            out.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        return out

    net = nets.init_dense(np.random.default_rng(3), [5, 32, 32, 4])
    x = np.random.default_rng(4).normal(size=(64, 5))
    up = np.random.default_rng(5).normal(size=(64, 4))
    ref = [p.copy() for p in net.params()]
    m = [np.zeros_like(p) for p in ref]
    v = [np.zeros_like(p) for p in ref]
    state = AdamState.for_theta(net.theta, lr=1e-3)
    for t in range(1, 31):
        grad, _ = nets.backward_from_cache(net, nets.forward_cache(net, x)[1], up)
        layer_grads = nets.DenseNet(net.sizes, net.activations, grad).params()
        ref = reference_step(ref, layer_grads, m, v, t)
        adam_step(state, net.theta, grad)
        assert np.array_equal(net.theta, np.concatenate([p.ravel() for p in ref]))
    assert np.array_equal(state.m, np.concatenate([a.ravel() for a in m]))
    assert np.array_equal(state.v, np.concatenate([a.ravel() for a in v]))


@pytest.mark.parametrize("shape", [(5, 37), (4, 2, 6)])
def test_stacked_adam_rows_match_their_own_steps_bit_for_bit(shape):
    g = np.random.default_rng(8)
    rows = shape[0]
    # each row has its own history: mixed step counts, lr and moments
    flat = [AdamState.for_theta(np.zeros(shape[1:]), lr=1e-2) for _ in range(rows)]
    thetas = [g.normal(size=shape[1:]) for _ in range(rows)]
    for i, (state, theta) in enumerate(zip(flat, thetas)):
        for _ in range((0, 1, 9, 140)[i % 4] + i):
            adam_step(state, theta, g.normal(size=shape[1:]))
    stacked = AdamState(np.stack([s.m for s in flat]), np.stack([s.v for s in flat]), 1e-2,
                        np.array([s.t for s in flat]))
    theta = np.stack(thetas)
    assert len(set(stacked.t.tolist())) == rows
    for step in range(6):
        grad = g.normal(size=shape)
        bad = 1 if step in (2, 3) else None  # one non-finite row, twice
        if bad is not None:
            grad[bad].flat[4] = np.nan if step == 2 else np.inf
        if bad is None:
            adam_step(stacked, theta, grad)
        else:
            with pytest.raises(nets.NonFiniteGradient, match="row 1: .* at entry 4") as err:
                adam_step(stacked, theta, grad)
            assert err.value.rows.tolist() == [bad]
        for i in range(rows):
            if i == bad:
                with pytest.raises(nets.NonFiniteGradient):
                    adam_step(flat[i], thetas[i], grad[i])
            else:
                adam_step(flat[i], thetas[i], grad[i])
            assert theta[i].tobytes() == thetas[i].tobytes()
            assert stacked.m[i].tobytes() == flat[i].m.tobytes()
            assert stacked.v[i].tobytes() == flat[i].v.tobytes()
            assert stacked.t[i] == flat[i].t
    picked = stacked.rows(np.array([True, False, True] + [False] * (rows - 3)))
    assert picked.t.tolist() == [flat[0].t, flat[2].t]
    assert np.array_equal(picked.m, stacked.m[[0, 2]])


def test_unstacked_adam_over_a_stack_steps_every_row_or_none():
    # one step count for a (2, n) theta: the critics' state in sac
    state = AdamState.for_theta(np.zeros((2, 3)), lr=0.1)
    theta, grad = np.zeros((2, 3)), np.ones((2, 3))
    grad[1, 2] = np.nan
    with pytest.raises(nets.NonFiniteGradient, match="entry 5") as err:
        adam_step(state, theta, grad)
    assert err.value.rows is None
    assert state.t == 0 and not theta.any() and not state.m.any()


def test_parameter_trajectory_bit_determinism():
    def run():
        rng = np.random.default_rng(42)
        net = nets.init_dense(rng, [3, 8, 2])
        state = AdamState.for_theta(net.theta, lr=1e-3)
        x = rng.normal(size=(16, 3))
        for _ in range(100):
            _, cache = nets.forward_cache(net, x)
            grad, _ = nets.backward_from_cache(net, cache, np.ones((16, 2)))
            adam_step(state, net.theta, grad)
        return net.theta

    assert np.array_equal(run(), run())


# ------------------------------------------------------- flat parameter layout

def test_theta_layout_and_views():
    net = nets.init_dense(np.random.default_rng(9), [3, 5, 4, 2])
    assert net.theta.shape == (3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2,)
    assert np.array_equal(net.theta, np.concatenate([p.ravel() for p in net.params()]))
    for w, b, (fan_in, fan_out) in zip(net.weights, net.biases,
                                       zip(net.sizes[:-1], net.sizes[1:])):
        assert w.shape == (fan_out, fan_in) and b.shape == (fan_out,)
        assert np.shares_memory(w, net.theta) and np.shares_memory(b, net.theta)
    # init draws each layer's weights in order, biases start at zero
    rng = np.random.default_rng(9)
    for w, b in zip(net.weights, net.biases):
        bound = np.sqrt(6.0 / sum(w.shape))
        assert np.array_equal(w, rng.uniform(-bound, bound, size=w.shape))
        assert not b.any()
    # an in-place update of theta is what forward reads
    x = np.random.default_rng(10).normal(size=(4, 3))
    net.theta *= 0.5
    fresh = DenseNet(net.sizes, net.activations, net.theta.copy())
    assert np.array_equal(nets.forward(net, x), nets.forward(fresh, x))


def test_dense_net_rejects_bad_theta():
    with pytest.raises(nets.ContractViolation):
        DenseNet([2, 3], ["identity"], np.zeros(8))
    with pytest.raises(nets.ContractViolation):
        DenseNet([2, 3], ["identity"], np.zeros(9, dtype=np.float32))
    with pytest.raises(nets.ContractViolation):
        DenseNet([2, 3, 1], ["relu"])


def test_split_streams_are_independent_and_reproducible():
    a1, b1 = np.random.default_rng(5).spawn(2)
    a2, b2 = np.random.default_rng(5).spawn(2)
    assert np.array_equal(a1.normal(size=8), a2.normal(size=8))
    assert not np.array_equal(b1.normal(size=8), a2.normal(size=8))
