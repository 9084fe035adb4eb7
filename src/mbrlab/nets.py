"""Minimal dense-network substrate.

Plain-numpy MLPs with explicit layer-by-layer reverse-mode gradients, a
bias-corrected Adam, and the softplus/tanh helpers shared by the squashed
Gaussian policy and the model's soft log-variance bounds. All math is
float64; architectures are fixed small MLPs, so there is no tape or graph
machinery.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0

ACTIVATIONS = ("relu", "tanh", "identity")


class ContractViolation(ValueError):
    """Caller broke a documented precondition (usually a shape mismatch)."""


class NonFiniteGradient(FloatingPointError):
    """An optimizer step was handed a NaN/inf gradient; the step was rejected.
    `rows` lists the rejected rows of a stacked step (None otherwise)."""

    def __init__(self, message: str, rows: np.ndarray | None = None):
        super().__init__(message)
        self.rows = rows


def _act(z: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    if kind == "tanh":
        return np.tanh(z, out=out)
    return z  # identity


def _times_act_grad(dly: np.ndarray, z: np.ndarray, kind: str,
                    out: np.ndarray | None = None) -> np.ndarray:
    """dly times the activation's derivative at the pre-activation z."""
    if kind == "relu":
        return np.multiply(dly, np.greater(z, 0.0, out=out), out=out)
    if kind == "tanh":
        t = np.tanh(z, out=out)
        np.multiply(t, t, out=t)
        np.subtract(1.0, t, out=t)
        return np.multiply(dly, t, out=t)
    return dly  # identity


class DenseNet:
    """Stack of affine layers with elementwise activations.

    All parameters live in one float64 vector `theta`, laid out as W0
    (row-major, shape (out_0, in_0)), b0, W1, b1, ...; `weights[i]` and
    `biases[i]` are views into it, so in-place updates of `theta` are what
    the next forward pass reads. Copies and pickles rebuild the views.

    A `theta` of shape (..., n) is a stack of nets with one layout: the
    views gain the same leading axes, and forward and backward run every
    slice at once (see `forward_cache`).
    """

    def __init__(self, sizes, activations, theta: np.ndarray | None = None):
        self.sizes = tuple(int(s) for s in sizes)
        self.activations = list(activations)
        if len(self.activations) != len(self.sizes) - 1:
            raise ContractViolation("one activation per layer required")
        for i, a in enumerate(self.activations):
            if a not in ACTIVATIONS:
                raise ContractViolation(f"layer {i}: unknown activation {a!r}")
        n = sum(o * (i + 1) for i, o in zip(self.sizes[:-1], self.sizes[1:]))
        self.theta = np.zeros(n) if theta is None else theta
        if self.theta.shape[-1:] != (n,) or self.theta.dtype != np.float64:
            raise ContractViolation(f"theta must be float64 of shape (..., {n})")
        self.weights, self.biases = self.layer_views(self.theta)

    def layer_views(self, vec: np.ndarray) -> tuple:
        """(weights, biases): per-layer views into a vector laid out like theta."""
        weights, biases, lo = [], [], 0
        lead = vec.shape[:-1]
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            weights.append(vec[..., lo:lo + fan_out * fan_in].reshape(*lead, fan_out, fan_in))
            lo += fan_out * fan_in
            biases.append(vec[..., lo:lo + fan_out])
            lo += fan_out
        return tuple(weights), tuple(biases)

    def __reduce__(self):
        return DenseNet, (self.sizes, self.activations, self.theta)

    @property
    def input_dim(self) -> int:
        return self.sizes[0]

    @property
    def output_dim(self) -> int:
        return self.sizes[-1]

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1

    def params(self) -> list:
        """Interleaved [W0, b0, W1, b1, ...] views into theta."""
        return [p for wb in zip(self.weights, self.biases) for p in wb]


def init_dense(rng: np.random.Generator, sizes: list,
               activations: list | None = None) -> DenseNet:
    """Glorot-uniform init; default activations are relu...relu, identity."""
    if len(sizes) < 2:
        raise ContractViolation("need at least input and output size")
    if activations is None:
        activations = ["relu"] * (len(sizes) - 2) + ["identity"]
    net = DenseNet(sizes, activations)
    for w in net.weights:
        bound = np.sqrt(6.0 / sum(w.shape))  # fan_in + fan_out
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    return net


def forward(net: DenseNet, batch: np.ndarray) -> np.ndarray:
    """Forward pass of a float64 batch of shape (..., B, in)."""
    return forward_cache(net, batch)[0]


def mapped_zeros(shape, dtype=np.float64) -> np.ndarray:
    """Zeros on an anonymous mapping of their own: only written pages become
    resident and a freed array returns to the system, whatever the heap
    layout (np.zeros may reuse freed heap and then write all of it), and
    freeing it leaves the allocator's mmap threshold where it was."""
    count = int(np.prod(shape))
    mapping = mmap.mmap(-1, max(count * np.dtype(dtype).itemsize, 1))
    return np.frombuffer(mapping, dtype=dtype, count=count).reshape(shape)


class Workspace:
    """Preallocated per-layer arrays for `forward_cache` and
    `backward_from_cache` at one leading shape and batch size.

    A hot loop that passes the same workspace on every call allocates none
    of its (..., B, width) temporaries, so the allocator is not asked for
    (and the kernel does not fault in) fresh large blocks each step. A cache
    written into a workspace is valid until the workspace's next use;
    `ws[i]` is the workspace of leading slice i.
    """

    def __init__(self, pre: list, act: list, d_pre: list, d_in: list):
        self.pre, self.act, self.d_pre, self.d_in = pre, act, d_pre, d_in

    @classmethod
    def for_net(cls, net: DenseNet, lead: tuple, rows: int) -> "Workspace":
        # one mapping carved into contiguous buffers: one long-lived heap
        # block per buffer fragmented the heap of a process that builds many
        # runs, and its peak RSS rose by ~12 MB in half the runs; a
        # short-lived heap block raised glibc's mmap threshold when freed,
        # and a model-heavy run's peak RSS by ~0.7 MB
        outs, ins = net.sizes[1:], net.sizes[:-1]
        widths = (*outs, *outs, *outs, *ins)
        size = int(np.prod(lead, dtype=int)) * rows
        block = mapped_zeros(size * sum(widths))
        bufs = [b.reshape(*lead, rows, w) for b, w in
                zip(np.split(block, np.cumsum([size * w for w in widths])[:-1]), widths)]
        k = len(outs)
        return cls(bufs[:k], bufs[k:2 * k], bufs[2 * k:3 * k], bufs[3 * k:])

    def __getitem__(self, index) -> "Workspace":
        return Workspace(*([a[index] for a in group]
                           for group in (self.pre, self.act, self.d_pre, self.d_in)))


def forward_cache(net: DenseNet, batch: np.ndarray, ws: Workspace | None = None) -> tuple:
    """Forward pass keeping per-layer inputs and pre-activations for backward.

    A stacked net (theta of shape (..., n)) takes a batch of shape
    (..., B, in) whose leading axes broadcast against theta's. `np.matmul`
    makes the same BLAS call for every slice, so each slice's output is
    bit-for-bit the output of that slice's own net on its own rows. The
    batch is float64; a single sample is a batch of one row.
    """
    if batch.ndim < 2 or batch.shape[-1] != net.input_dim:
        raise ContractViolation(f"batch of shape {batch.shape} is not (..., B, {net.input_dim})")
    inputs, preacts = [], []
    h = batch
    for i, (w, b, a) in enumerate(zip(net.weights, net.biases, net.activations)):
        inputs.append(h)
        z = np.matmul(h, w.swapaxes(-1, -2), out=None if ws is None else ws.pre[i])
        z += b[..., None, :]
        preacts.append(z)
        h = _act(z, a, None if ws is None else ws.act[i])
    return h, (inputs, preacts)


def backward_from_cache(net: DenseNet, cache: tuple, upstream_grad: np.ndarray,
                        params: bool = True, ws: Workspace | None = None) -> tuple:
    """Reverse-mode pass from cached forward state.

    Returns (param_grad laid out like net.theta, input_grad). With
    params=False it is the input-only backward: no parameter gradient is
    formed and param_grad is None. Stacked nets work as in `forward_cache`;
    each slice's gradients are bit-for-bit its own net's.
    """
    inputs, preacts = cache
    dly = upstream_grad
    if dly.shape != preacts[-1].shape:
        raise ContractViolation(
            f"upstream grad shape {dly.shape} inconsistent with batch/output dims"
        )
    grad = np.empty_like(net.theta) if params else None
    if params:
        grad_w, grad_b = net.layer_views(grad)
    for i in range(net.n_layers - 1, -1, -1):
        dz = _times_act_grad(dly, preacts[i], net.activations[i],
                             None if ws is None else ws.d_pre[i])
        if params:
            np.matmul(dz.swapaxes(-1, -2), inputs[i], out=grad_w[i])
            dz.sum(axis=-2, out=grad_b[i])
        dly = np.matmul(dz, net.weights[i], out=None if ws is None else ws.d_in[i])
    return grad, dly


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam moments for a theta of the same shape. With `t` an int array of
    shape (E,) it is a stack: row i of theta (axis 0) is its own Adam run
    with step count t[i] (see `adam_step`); `rows` selects some of them."""

    m: np.ndarray
    v: np.ndarray
    lr: float
    t: int | np.ndarray = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_theta(cls, theta: np.ndarray, lr: float, stacked: bool = False) -> "AdamState":
        t = np.zeros(len(theta), dtype=int) if stacked else 0
        return cls(np.zeros_like(theta), np.zeros_like(theta), lr, t)

    def rows(self, index) -> "AdamState":
        return AdamState(self.m[index], self.v[index], self.lr, self.t[index],
                         self.beta1, self.beta2, self.eps)


def _first_bad(grad: np.ndarray) -> int:
    return int(np.argmin(np.isfinite(grad)))


def adam_step(state: AdamState, theta: np.ndarray, grad: np.ndarray) -> None:
    """One bias-corrected Adam update of theta, m and v, all in place.

    A non-finite gradient rejects the whole step before anything is written
    (theta and state untouched) and names the first offending entry. A
    stacked state steps every row whose gradient is finite, bit for bit as
    that row's own `adam_step` would, then raises for the other rows, which
    are left untouched; the error's `rows` lists them.
    """
    if not (grad.shape == theta.shape == state.m.shape):
        raise ContractViolation(f"gradient {grad.shape} != theta {theta.shape} or Adam state")
    stacked = np.ndim(state.t) == 1
    if not np.isfinite(grad).all():
        if not stacked:
            raise NonFiniteGradient(f"non-finite gradient at entry {_first_bad(grad)}")
        ok = np.isfinite(grad.reshape(len(grad), -1)).all(axis=1)
        good = state.rows(ok)
        good_theta = theta[ok]
        adam_step(good, good_theta, grad[ok])
        theta[ok], state.m[ok], state.v[ok], state.t[ok] = good_theta, good.m, good.v, good.t
        bad = np.flatnonzero(~ok)
        raise NonFiniteGradient("; ".join(f"row {i}: non-finite gradient at entry "
                                          f"{_first_bad(grad[i])}" for i in bad), bad)
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    if stacked:
        # per-row Python floats, as an unstacked step computes them
        col = (len(theta),) + (1,) * (theta.ndim - 1)
        bc1 = np.array([1.0 - b1 ** t for t in state.t.tolist()]).reshape(col)
        bc2 = np.array([1.0 - b2 ** t for t in state.t.tolist()]).reshape(col)
    else:
        bc1 = 1.0 - b1 ** state.t
        bc2 = 1.0 - b2 ** state.t
    state.m[:] = b1 * state.m + (1.0 - b1) * grad
    state.v[:] = b2 * state.v + (1.0 - b2) * grad * grad
    m_hat = state.m / bc1
    v_hat = state.v / bc2
    theta -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


# ---------------------------------------------------------------------------
# Squashing helpers
# ---------------------------------------------------------------------------


def softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def tanh_log_jacobian(u: np.ndarray) -> np.ndarray:
    # log(1 - tanh(u)^2), written to stay finite for large |u|
    return 2.0 * (np.log(2.0) - u - softplus(-2.0 * u))
