"""Minimal dense-network substrate.

Plain-numpy MLPs with explicit layer-by-layer reverse-mode gradients, a
bias-corrected Adam, and the softplus/tanh helpers shared by the squashed
Gaussian policy and the model's soft log-variance bounds. All math is
float64; architectures are fixed small MLPs, so there is no tape or graph
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import SeededRng

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0

ACTIVATIONS = ("relu", "tanh", "identity")


class ContractViolation(ValueError):
    """Caller broke a documented precondition (usually a shape mismatch)."""


class NonFiniteGradient(FloatingPointError):
    """An optimizer step was handed a NaN/inf gradient; the step was rejected."""


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    if kind == "identity":
        return z
    raise ContractViolation(f"unknown activation {kind!r}")


def _act_grad(z: np.ndarray, kind: str) -> np.ndarray:
    # derivative w.r.t. the pre-activation z
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    if kind == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    if kind == "identity":
        return np.ones_like(z)
    raise ContractViolation(f"unknown activation {kind!r}")


class DenseNet:
    """Stack of affine layers with elementwise activations.

    All parameters live in one float64 vector `theta`, laid out as W0
    (row-major, shape (out_0, in_0)), b0, W1, b1, ...; `weights[i]` and
    `biases[i]` are views into it, so in-place updates of `theta` are what
    the next forward pass reads. Copies and pickles rebuild the views.
    """

    def __init__(self, sizes, activations, theta: np.ndarray | None = None):
        self.sizes = tuple(int(s) for s in sizes)
        self.activations = list(activations)
        if len(self.activations) != len(self.sizes) - 1:
            raise ContractViolation("one activation per layer required")
        n = sum(o * (i + 1) for i, o in zip(self.sizes[:-1], self.sizes[1:]))
        self.theta = np.zeros(n) if theta is None else theta
        if self.theta.shape != (n,) or self.theta.dtype != np.float64:
            raise ContractViolation(f"theta must be float64 of shape ({n},)")
        self.weights, self.biases = self.layer_views(self.theta)

    def layer_views(self, vec: np.ndarray) -> tuple:
        """(weights, biases): per-layer views into a vector laid out like theta."""
        weights, biases, lo = [], [], 0
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            weights.append(vec[lo:lo + fan_out * fan_in].reshape(fan_out, fan_in))
            lo += fan_out * fan_in
            biases.append(vec[lo:lo + fan_out])
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

    def validate(self) -> None:
        for i, a in enumerate(self.activations):
            if a not in ACTIVATIONS:
                raise ContractViolation(f"layer {i}: unknown activation {a!r}")
        if not np.isfinite(self.theta).all():
            raise ContractViolation("non-finite parameters")

    def params(self) -> list:
        """Interleaved [W0, b0, W1, b1, ...] views into theta."""
        return [p for wb in zip(self.weights, self.biases) for p in wb]

    def copy(self) -> "DenseNet":
        return DenseNet(self.sizes, self.activations, self.theta.copy())


def init_dense(rng: SeededRng, sizes: list, activations: list | None = None) -> DenseNet:
    """Glorot-uniform init; default activations are relu...relu, identity."""
    if len(sizes) < 2:
        raise ContractViolation("need at least input and output size")
    if activations is None:
        activations = ["relu"] * (len(sizes) - 2) + ["identity"]
    net = DenseNet(sizes, activations)
    for w in net.weights:
        bound = np.sqrt(6.0 / sum(w.shape))  # fan_in + fan_out
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    net.validate()
    return net


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim == 2:
        return x, False
    raise ContractViolation(f"batch must be 1-D or 2-D, got ndim={x.ndim}")


def forward(net: DenseNet, batch: np.ndarray) -> np.ndarray:
    """Forward pass; accepts (B, in) or a single (in,) sample."""
    x, was_1d = _as_batch(batch)
    y = forward_cache(net, x)[0]
    return y[0] if was_1d else y


def forward_cache(net: DenseNet, batch: np.ndarray) -> tuple:
    """Forward pass keeping per-layer inputs and pre-activations for backward."""
    x, _ = _as_batch(batch)
    if x.shape[1] != net.input_dim:
        raise ContractViolation(f"batch width {x.shape[1]} != input_dim {net.input_dim}")
    inputs, preacts = [], []
    h = x
    for w, b, a in zip(net.weights, net.biases, net.activations):
        inputs.append(h)
        z = h @ w.T + b
        preacts.append(z)
        h = _act(z, a)
    return h, (inputs, preacts)


def backward_from_cache(net: DenseNet, cache: tuple, upstream_grad: np.ndarray) -> tuple:
    """Reverse-mode pass from cached forward state.

    Returns (param_grad laid out like net.theta, input_grad).
    """
    inputs, preacts = cache
    dly = np.asarray(upstream_grad, dtype=np.float64)
    if dly.ndim == 1:
        dly = dly[None, :]
    if dly.shape != (inputs[0].shape[0], net.output_dim):
        raise ContractViolation(
            f"upstream grad shape {dly.shape} inconsistent with batch/output dims"
        )
    grad = np.empty_like(net.theta)
    grad_w, grad_b = net.layer_views(grad)
    for i in range(net.n_layers - 1, -1, -1):
        dz = dly * _act_grad(preacts[i], net.activations[i])
        np.matmul(dz.T, inputs[i], out=grad_w[i])
        dz.sum(axis=0, out=grad_b[i])
        dly = dz @ net.weights[i]
    return grad, dly


def backward(net: DenseNet, batch: np.ndarray, upstream_grad: np.ndarray) -> tuple:
    """Exact gradients of <upstream_grad, forward(net, batch)>.

    Returns (param_grad, input_grad); input_grad matches the batch shape.
    """
    x, was_1d = _as_batch(batch)
    up = np.asarray(upstream_grad, dtype=np.float64)
    if was_1d and up.ndim == 1:
        up = up[None, :]
    _, cache = forward_cache(net, x)
    grad, dx = backward_from_cache(net, cache, up)
    return grad, (dx[0] if was_1d else dx)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    lr: float
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_theta(cls, theta: np.ndarray, lr: float) -> "AdamState":
        return cls(np.zeros_like(theta), np.zeros_like(theta), lr)


def adam_step(state: AdamState, theta: np.ndarray, grad: np.ndarray) -> None:
    """One bias-corrected Adam update of theta, m and v, all in place.

    A non-finite gradient rejects the whole step before anything is written
    (theta and state untouched) and names the first offending entry.
    """
    if not (grad.shape == theta.shape == state.m.shape):
        raise ContractViolation(f"gradient {grad.shape} != theta {theta.shape} or Adam state")
    if not np.isfinite(grad).all():
        raise NonFiniteGradient(f"non-finite gradient at entry {int(np.argmin(np.isfinite(grad)))}")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
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
