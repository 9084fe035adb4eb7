import copy
import pickle

import numpy as np
import pytest

from mbrlab import checkpoint, nets
from mbrlab.buffers import TransitionBuffer


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    net = nets.init_dense(rng, [3, 7, 2])
    path = tmp_path / "net.json"
    checkpoint.save(path, checkpoint.net_tensors("net", net), {"alpha": 0.2})
    tensors, meta = checkpoint.load(path)
    assert meta["alpha"] == 0.2
    restored = nets.init_dense(np.random.default_rng(1), [3, 7, 2])
    checkpoint.load_net("net", tensors, restored)
    assert np.array_equal(net.theta, restored.theta)
    assert all(np.shares_memory(p, restored.theta) for p in restored.params())


@pytest.mark.parametrize("name, value, match", [
    ("net.layer1.weight", None, "missing tensor net.layer1.weight"),
    ("net.layer0.bias", np.zeros(6), r"shape \(6,\), expected \(7,\)"),
    ("net.layer1.bias", np.zeros(1), r"shape \(1,\), expected \(2,\)"),  # would broadcast
    ("net.layer0.weight", np.zeros((3, 7)), r"shape \(3, 7\), expected \(7, 3\)"),
])
def test_load_net_rejects_bad_tensors(name, value, match):
    net = nets.init_dense(np.random.default_rng(0), [3, 7, 2])
    tensors = {k: v.copy() for k, v in checkpoint.net_tensors("net", net).items()}
    if value is None:
        del tensors[name]
    else:
        tensors[name] = value
    target = nets.init_dense(np.random.default_rng(1), [3, 7, 2])
    before = target.theta.copy()
    with pytest.raises(checkpoint.CheckpointError, match=match):
        checkpoint.load_net("net", tensors, target)
    assert np.array_equal(target.theta, before)  # nothing partially written


def test_checkpoint_version_field_mandatory(tmp_path):
    p = tmp_path / "x.json"
    p.write_text('{"tensors": [], "metadata": {}}')
    with pytest.raises(checkpoint.CheckpointError, match="format_version"):
        checkpoint.load(p)


def test_checkpoint_rejects_wrong_version(tmp_path):
    p = tmp_path / "x.json"
    p.write_text('{"format_version": 99, "tensors": []}')
    with pytest.raises(checkpoint.CheckpointError, match="unsupported"):
        checkpoint.load(p)


def _row(seed, sd=2, ad=1):
    """One transition as one-row columns (s, a, r, s2, done)."""
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(1, sd)), rng.normal(size=(1, ad)), rng.normal(size=1),
            rng.normal(size=(1, sd)), np.zeros(1, dtype=bool))


def test_buffer_ring_eviction_oldest_first():
    buf = TransitionBuffer(3, 2, 1)
    for i in range(5):
        assert buf.push_batch(*_row(i)) == 1
    assert len(buf) == 3
    recent = buf.recent(3)
    # entries 2, 3, 4 survive in insertion order
    assert np.array_equal(recent["s"][0], _row(2)[0][0])
    assert np.array_equal(recent["s"][-1], _row(4)[0][0])


def _columns(n, seed, sd=2, ad=1):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, sd)), rng.normal(size=(n, ad)), rng.normal(size=n),
            rng.normal(size=(n, sd)), rng.uniform(size=n) < 0.3)


@pytest.mark.parametrize("prefill, n", [(0, 3), (3, 4), (2, 12)],
                         ids=["no-wrap", "crosses-end", "longer-than-capacity"])
def test_push_batch_matches_row_by_row_push(prefill, n):
    batched = TransitionBuffer(5, 2, 1)
    rowwise = TransitionBuffer(5, 2, 1)
    for buf in (batched, rowwise):
        for i in range(prefill):
            buf.push_batch(*_row(100 + i), behavior_density=1.5)
    s, a, r, s2, done = _columns(n, seed=7)
    density = np.random.default_rng(8).uniform(size=n)
    assert batched.push_batch(s, a, r, s2, done, density) == n
    for i in range(n):
        rows = slice(i, i + 1)
        assert rowwise.push_batch(s[rows], a[rows], r[rows], s2[rows], done[rows],
                                  behavior_density=density[i]) == 1
    for col in ("s", "a", "r", "s2", "done", "behavior_density"):
        assert np.array_equal(getattr(batched, col), getattr(rowwise, col)), col
    assert (batched.cursor, batched.size) == (rowwise.cursor, rowwise.size)
    if n > 5:
        # only the last `capacity` rows survive, oldest first
        assert np.array_equal(batched.recent(5)["s"], s[-5:])


def test_buffer_sampling_uniform_with_replacement():
    buf = TransitionBuffer(10, 2, 1)
    for i in range(4):
        buf.push_batch(*_row(i))
    idx = buf.sample_indices(10_000, np.random.default_rng(5))
    counts = np.bincount(idx, minlength=4)
    assert np.all(counts > 0)
    assert np.all(np.abs(counts / 10_000 - 0.25) < 0.05)


def test_buffer_empty_sampling_errors():
    buf = TransitionBuffer(4, 2, 1)
    with pytest.raises(ValueError):
        buf.sample_indices(1, np.random.default_rng(0))


def test_buffer_columns_are_writable_zeros_that_copy():
    buf = TransitionBuffer(50, 3, 2)
    for col, shape, dtype in [(buf.s, (50, 3), np.float64), (buf.a, (50, 2), np.float64),
                              (buf.r, (50,), np.float64), (buf.s2, (50, 3), np.float64),
                              (buf.done, (50,), bool), (buf.behavior_density, (50,), np.float64)]:
        assert col.shape == shape and col.dtype == dtype and not col.any()
        assert col.flags.writeable and col.flags.c_contiguous
    buf.push_batch(np.ones((1, 3)), np.ones((1, 2)), np.ones(1), np.ones((1, 3)),
                   np.ones(1, dtype=bool), behavior_density=0.5)
    for copied in (copy.deepcopy(buf), pickle.loads(pickle.dumps(buf))):
        for name in ("s", "a", "r", "s2", "done", "behavior_density"):
            assert np.array_equal(getattr(copied, name), getattr(buf, name))
            assert not np.shares_memory(getattr(copied, name), getattr(buf, name))
        copied.s[0] = 2.0
        assert buf.s[0, 0] == 1.0
