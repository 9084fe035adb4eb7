"""Minimal dense-network substrate.

Plain-numpy MLPs with explicit layer-by-layer reverse-mode gradients, a
bias-corrected Adam, and the softplus/tanh helpers shared by the squashed
Gaussian policy and the model's soft log-variance bounds. All math is
float64; architectures are fixed small MLPs, so there is no tape or graph
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class DenseNet:
    """Stack of affine layers with elementwise activations.

    weights[i] has shape (out_i, in_i); adjacent layer dims must chain.
    """

    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)
    activations: list = field(default_factory=list)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def validate(self) -> None:
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ContractViolation("layer lists out of sync")
        for i, (w, b, a) in enumerate(zip(self.weights, self.biases, self.activations)):
            if a not in ACTIVATIONS:
                raise ContractViolation(f"layer {i}: unknown activation {a!r}")
            if b.shape != (w.shape[0],):
                raise ContractViolation(f"layer {i}: bias shape {b.shape} vs weight {w.shape}")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ContractViolation(f"layer {i}: input dim does not chain")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ContractViolation(f"layer {i}: non-finite parameters")

    def params(self) -> list:
        """Interleaved [W0, b0, W1, b1, ...] view (references, not copies)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def set_params(self, params: list) -> None:
        if len(params) != 2 * self.n_layers:
            raise ContractViolation("parameter count mismatch")
        for i in range(self.n_layers):
            self.weights[i] = np.asarray(params[2 * i], dtype=np.float64)
            self.biases[i] = np.asarray(params[2 * i + 1], dtype=np.float64)

    def copy(self) -> "DenseNet":
        return DenseNet(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            list(self.activations),
        )


def init_dense(rng: SeededRng, sizes: list, activations: list | None = None) -> DenseNet:
    """Glorot-uniform init; default activations are relu...relu, identity."""
    if len(sizes) < 2:
        raise ContractViolation("need at least input and output size")
    if activations is None:
        activations = ["relu"] * (len(sizes) - 2) + ["identity"]
    if len(activations) != len(sizes) - 1:
        raise ContractViolation("one activation per layer required")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    net = DenseNet(weights, biases, list(activations))
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

    Returns (param_grads interleaved like net.params(), input_grad).
    """
    inputs, preacts = cache
    dly = np.asarray(upstream_grad, dtype=np.float64)
    if dly.ndim == 1:
        dly = dly[None, :]
    if dly.shape != (inputs[0].shape[0], net.output_dim):
        raise ContractViolation(
            f"upstream grad shape {dly.shape} inconsistent with batch/output dims"
        )
    grads = [None] * (2 * net.n_layers)
    for i in range(net.n_layers - 1, -1, -1):
        dz = dly * _act_grad(preacts[i], net.activations[i])
        grads[2 * i] = dz.T @ inputs[i]
        grads[2 * i + 1] = dz.sum(axis=0)
        dly = dz @ net.weights[i]
    return grads, dly


def backward(net: DenseNet, batch: np.ndarray, upstream_grad: np.ndarray) -> tuple:
    """Exact gradients of <upstream_grad, forward(net, batch)>.

    Returns (param_grads, input_grad); input_grad matches the batch shape.
    """
    x, was_1d = _as_batch(batch)
    up = np.asarray(upstream_grad, dtype=np.float64)
    if was_1d and up.ndim == 1:
        up = up[None, :]
    _, cache = forward_cache(net, x)
    grads, dx = backward_from_cache(net, cache, up)
    return grads, (dx[0] if was_1d else dx)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    m: list
    v: list
    t: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: list, lr: float, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            t=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps,
        )


def adam_step(state: AdamState, params: list, grads: list) -> list:
    """One bias-corrected Adam update; returns new parameter arrays.

    The state is advanced in place. A non-finite gradient rejects the whole
    step (state untouched) and names the offending parameter index.
    """
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ContractViolation("params/grads do not mirror the Adam state")
    for i, g in enumerate(grads):
        if g.shape != params[i].shape:
            raise ContractViolation(f"gradient {i} shape {g.shape} != param {params[i].shape}")
        if not np.isfinite(g).all():
            raise NonFiniteGradient(f"non-finite gradient at parameter {i}")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        out.append(p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps))
    return out


# ---------------------------------------------------------------------------
# Squashing helpers
# ---------------------------------------------------------------------------


def softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def tanh_log_jacobian(u: np.ndarray) -> np.ndarray:
    # log(1 - tanh(u)^2), written to stay finite for large |u|
    return 2.0 * (np.log(2.0) - u - softplus(-2.0 * u))
