import copy
import pickle

import numpy as np
import pytest

from mbrlab import checkpoint, nets
from mbrlab.buffers import TransitionBuffer
from mbrlab.envs import Transition
from mbrlab.rng import SeededRng


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = SeededRng.from_seed(0)
    net = nets.init_dense(rng, [3, 7, 2])
    path = tmp_path / "net.json"
    checkpoint.save(path, checkpoint.net_tensors("net", net), {"alpha": 0.2})
    tensors, meta = checkpoint.load(path)
    assert meta["alpha"] == 0.2
    restored = nets.init_dense(SeededRng.from_seed(1), [3, 7, 2])
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
    net = nets.init_dense(SeededRng.from_seed(0), [3, 7, 2])
    tensors = {k: v.copy() for k, v in checkpoint.net_tensors("net", net).items()}
    if value is None:
        del tensors[name]
    else:
        tensors[name] = value
    target = nets.init_dense(SeededRng.from_seed(1), [3, 7, 2])
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


def _tr(seed, sd=2, ad=1, source="real"):
    rng = SeededRng.from_seed(seed)
    return Transition(rng.normal(size=sd), rng.normal(size=ad),
                      float(rng.normal()), rng.normal(size=sd), False, source)


def test_buffer_ring_eviction_oldest_first():
    buf = TransitionBuffer(3, 2, 1, "real")
    for i in range(5):
        tr = _tr(i)
        buf.push(tr)
    assert len(buf) == 3
    recent = buf.recent(3)
    # entries 2, 3, 4 survive in insertion order
    assert np.array_equal(recent["s"][0], _tr(2).s)
    assert np.array_equal(recent["s"][-1], _tr(4).s)


def _columns(n, seed, sd=2, ad=1):
    rng = SeededRng.from_seed(seed)
    return (rng.normal(size=(n, sd)), rng.normal(size=(n, ad)), rng.normal(size=n),
            rng.normal(size=(n, sd)), rng.uniform(size=n) < 0.3)


@pytest.mark.parametrize("prefill, n", [(0, 3), (3, 4), (2, 12)],
                         ids=["no-wrap", "crosses-end", "longer-than-capacity"])
def test_push_batch_matches_row_by_row_push(prefill, n):
    batched = TransitionBuffer(5, 2, 1, "imaginary")
    rowwise = TransitionBuffer(5, 2, 1, "imaginary")
    for buf in (batched, rowwise):
        for i in range(prefill):
            buf.push(_tr(100 + i, source="imaginary"), behavior_density=1.5)
    s, a, r, s2, done = _columns(n, seed=7)
    assert batched.push_batch(s, a, r, s2, done) == n
    for i in range(n):
        rowwise.push(Transition(s[i], a[i], float(r[i]), s2[i], bool(done[i]),
                                "imaginary"))
    for col in ("s", "a", "r", "s2", "done", "behavior_density"):
        assert np.array_equal(getattr(batched, col), getattr(rowwise, col)), col
    assert (batched.cursor, batched.size) == (rowwise.cursor, rowwise.size)
    if n > 5:
        # only the last `capacity` rows survive, oldest first
        assert np.array_equal(batched.recent(5)["s"], s[-5:])


def test_buffer_rejects_wrong_source_tag():
    buf = TransitionBuffer(4, 2, 1, "imaginary")
    with pytest.raises(ValueError, match="imaginary"):
        buf.push(_tr(0, source="real"))


def test_buffer_sampling_uniform_with_replacement():
    buf = TransitionBuffer(10, 2, 1, "real")
    for i in range(4):
        buf.push(_tr(i))
    idx = buf.sample_indices(10_000, SeededRng.from_seed(5))
    counts = np.bincount(idx, minlength=4)
    assert np.all(counts > 0)
    assert np.all(np.abs(counts / 10_000 - 0.25) < 0.05)


def test_buffer_empty_sampling_errors():
    buf = TransitionBuffer(4, 2, 1, "real")
    with pytest.raises(ValueError):
        buf.sample_indices(1, SeededRng.from_seed(0))


def test_buffer_columns_are_writable_zeros_that_copy():
    buf = TransitionBuffer(50, 3, 2, "real")
    for col, shape, dtype in [(buf.s, (50, 3), np.float64), (buf.a, (50, 2), np.float64),
                              (buf.r, (50,), np.float64), (buf.s2, (50, 3), np.float64),
                              (buf.done, (50,), bool), (buf.behavior_density, (50,), np.float64)]:
        assert col.shape == shape and col.dtype == dtype and not col.any()
        assert col.flags.writeable and col.flags.c_contiguous
    buf.push(Transition(np.ones(3), np.ones(2), 1.0, np.ones(3), True, "real"), 0.5)
    for copied in (copy.deepcopy(buf), pickle.loads(pickle.dumps(buf))):
        for name in ("s", "a", "r", "s2", "done", "behavior_density"):
            assert np.array_equal(getattr(copied, name), getattr(buf, name))
            assert not np.shares_memory(getattr(copied, name), getattr(buf, name))
        copied.s[0] = 2.0
        assert buf.s[0, 0] == 1.0
