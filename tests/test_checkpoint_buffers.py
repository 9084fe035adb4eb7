import copy
import json
import pickle

import numpy as np
import pytest

from mbrlab import checkpoint, controller, nets
from mbrlab.buffers import TransitionBuffer


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    net = nets.init_dense(rng, [3, 7, 2])
    path = tmp_path / "net.json"
    checkpoint.save(path, "test-net", {"theta": net.theta}, {"alpha": 0.2})
    arrays, meta = checkpoint.load(path, "test-net")
    assert meta == {"alpha": 0.2}
    assert list(arrays) == ["theta"]
    restored = nets.DenseNet(net.sizes, net.activations, arrays["theta"])
    assert np.array_equal(net.theta, restored.theta)
    assert all(np.shares_memory(p, restored.theta) for p in restored.params())
    x = rng.normal(size=(4, 3))
    assert np.array_equal(nets.forward(net, x), nets.forward(restored, x))


def _saved_controller_doc(tmp_path):
    pol = controller.init_controller(np.random.default_rng(0), hidden=7)
    path = tmp_path / "controller.json"
    controller.save_controller(pol, path)
    return json.loads(path.read_text())


@pytest.mark.parametrize("theta, match", [
    ("missing", "theta"),
    ("short", r"theta must be float64 of shape \(\.\.\., 151\)"),
    ("long", r"theta must be float64 of shape \(\.\.\., 151\)"),
    ("non-finite", "not a finite vector"),
], ids=["missing", "short", "long", "non-finite"])
def test_load_controller_rejects_bad_theta(tmp_path, theta, match):
    doc = _saved_controller_doc(tmp_path)
    assert len(doc["arrays"]["theta"]) == 151  # 8 -> 7 -> 11
    if theta == "missing":
        del doc["arrays"]["theta"]
    elif theta == "short":
        doc["arrays"]["theta"] = doc["arrays"]["theta"][:-1]
    elif theta == "long":
        doc["arrays"]["theta"].append(0.0)
    else:
        doc["arrays"]["theta"][5] = None  # JSON null: NaN once read as float64
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    loaded = []
    with pytest.raises(checkpoint.CheckpointError, match=match):
        loaded.append(controller.load_controller(bad))
    assert loaded == []  # a refused load returns nothing


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_checkpoint_load_refuses_every_non_finite_number(tmp_path, token):
    doc = _saved_controller_doc(tmp_path)
    text = json.dumps(doc).replace('"hidden": 7', f'"hidden": {token}')
    assert token in text
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    with pytest.raises(checkpoint.CheckpointError, match="non-finite value"):
        checkpoint.load(bad, "hyper-controller")


def test_checkpoint_save_refuses_non_finite_arrays(tmp_path):
    with pytest.raises(ValueError):
        checkpoint.save(tmp_path / "x.json", "test-net", {"theta": np.array([1.0, np.nan])}, {})


def test_checkpoint_version_field_mandatory(tmp_path):
    p = tmp_path / "x.json"
    p.write_text('{"kind": "test-net", "arrays": {}, "metadata": {}}')
    with pytest.raises(checkpoint.CheckpointError, match="format_version 'missing'"):
        checkpoint.load(p, "test-net")


def test_checkpoint_rejects_wrong_version(tmp_path):
    p = tmp_path / "x.json"
    p.write_text('{"format_version": 99, "kind": "test-net", "arrays": {}, "metadata": {}}')
    with pytest.raises(checkpoint.CheckpointError, match="unsupported format_version 99"):
        checkpoint.load(p, "test-net")
    # a format-1 controller checkpoint, its layer table cut to one bias
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps({
        "format_version": 1,
        "metadata": {"kind": "hyper-controller", "head_mask": [True] * 4,
                     "feature_mask": [True] * 8, "head_sizes": [3, 2, 3, 3],
                     "config_hash": ""},
        "tensors": [{"name": "controller.layer1.bias", "shape": [11], "values": [0.0] * 11}]}))
    with pytest.raises(checkpoint.CheckpointError,
                       match="unsupported format_version 1, this reader reads 2"):
        controller.load_controller(v1)


@pytest.mark.parametrize("edit, match", [
    (lambda doc: doc.pop("arrays"), "malformed array table"),
    (lambda doc: doc.update(arrays=[1.0, 2.0]), "malformed array table"),
    (lambda doc: doc["arrays"].update(theta="abc"), "malformed array table"),
    (lambda doc: doc["arrays"].update(theta=[[1.0], [2.0]]), "not a finite vector"),
    (lambda doc: doc.update(metadata=5), "metadata"),
    (lambda doc: doc.update(kind="baseline-curve"), "'baseline-curve' file, not a 'hyper"),
    (lambda doc: doc.pop("kind"), "None file, not a 'hyper-controller'"),
], ids=["no-arrays", "arrays-list", "string-array", "matrix", "metadata-int", "other-kind",
        "no-kind"])
def test_checkpoint_load_refuses_malformed_documents(tmp_path, edit, match):
    doc = _saved_controller_doc(tmp_path)
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(checkpoint.CheckpointError, match=match):
        checkpoint.load(bad, "hyper-controller")


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
    density = 0.25  # one behavior density per push, as every caller passes
    assert batched.push_batch(s, a, r, s2, done, density) == n
    for i in range(n):
        rows = slice(i, i + 1)
        assert rowwise.push_batch(s[rows], a[rows], r[rows], s2[rows], done[rows],
                                  behavior_density=density) == 1
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
