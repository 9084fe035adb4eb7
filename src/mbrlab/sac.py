"""Soft Actor-Critic on mixed real/imaginary minibatches.

Twin critics with min-backup, a fixed entropy temperature, polyak-averaged
target critics, and a tanh-squashed Gaussian actor whose reparameterized
gradient is written out layer by layer. The critics and targets are one
stacked net, run by one forward pass per loss. The real ratio controls how
each minibatch is split between the environment buffer and the model buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import nets
from .buffers import TransitionBuffer
from .nets import AdamState, DenseNet, LOG_STD_MAX, LOG_STD_MIN, adam_step

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class GaussianPolicy:
    """Trunk MLP emitting (mean, log_std); actions are tanh-scaled to bounds."""

    net: DenseNet
    action_low: np.ndarray
    action_high: np.ndarray

    def __post_init__(self):
        self.scale = (self.action_high - self.action_low) / 2.0
        self.center = (self.action_high + self.action_low) / 2.0
        self.log_scale = np.log(self.scale)

    @property
    def action_dim(self):
        return self.net.output_dim // 2

    def _heads(self, s: np.ndarray):
        h, cache = nets.forward_cache(self.net, s)
        d = self.action_dim
        mean, raw_ls = h[:, :d], h[:, d:]
        log_std = np.minimum(np.maximum(raw_ls, LOG_STD_MIN), LOG_STD_MAX)  # np.clip, faster
        return mean, log_std, raw_ls, cache

    def _log_density(self, u: np.ndarray, z: np.ndarray, log_std: np.ndarray):
        """Env-space log density of a = center + scale*tanh(u), where
        z = (u - mean)/std is the standardized pre-squash value."""
        return (-0.5 * _LOG_2PI - log_std - 0.5 * z * z
                - nets.tanh_log_jacobian(u) - self.log_scale).sum(axis=1)

    def _draw(self, s: np.ndarray, rng: np.random.Generator, deterministic: bool):
        """One reparameterized draw: the env action and the parts of it that
        `sample` and the actor backward use."""
        mean, log_std, raw_ls, cache = self._heads(s)
        std = np.exp(log_std)
        eps = np.zeros_like(mean) if deterministic else rng.normal(size=mean.shape)
        u = mean + std * eps
        unit = np.tanh(u)
        return self.center + self.scale * unit, (u, unit, eps, std, log_std, raw_ls, cache)

    def action(self, s: np.ndarray, rng: np.random.Generator,
               deterministic: bool = False) -> np.ndarray:
        """The env action `sample` returns, from the same draw, without its
        log density or backward cache."""
        return self._draw(s, rng, deterministic)[0]

    def sample(self, s: np.ndarray, rng: np.random.Generator):
        """Returns (env action, log density, cache for the actor backward)."""
        a, (u, unit, eps, std, log_std, raw_ls, cache) = self._draw(s, rng, False)
        logp = self._log_density(u, eps, log_std)
        return a, logp, {"std": std, "raw_ls": raw_ls, "eps": eps, "unit": unit, "cache": cache}

    def log_density(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Density of a stored env-space action under the current policy."""
        mean, log_std, _, _ = self._heads(s)
        unit = np.clip((a - self.center) / self.scale, -1.0 + 1e-12, 1.0 - 1e-12)
        u = np.arctanh(unit)
        return self._log_density(u, (u - mean) / np.exp(log_std), log_std)

    def backward(self, sample_cache: dict, d_logp: np.ndarray, d_action: np.ndarray):
        """Gradient w.r.t. the trunk's theta of sum(d_logp * logp + d_action . a),
        holding the reparameterization noise fixed."""
        unit = sample_cache["unit"]
        eps = sample_cache["eps"]
        std = sample_cache["std"]
        d_logp = d_logp[:, None]
        da_unit = d_action * self.scale
        # d logp / du = 2*tanh(u); d a_unit / du = 1 - tanh(u)^2
        d_u = d_logp * 2.0 * unit + da_unit * (1.0 - unit * unit)
        d_mean = d_u
        d_ls = d_u * std * eps - d_logp  # -1 from the explicit -log_std term
        clamp = ((sample_cache["raw_ls"] > LOG_STD_MIN)
                 & (sample_cache["raw_ls"] < LOG_STD_MAX)).astype(np.float64)
        upstream = np.concatenate([d_mean, d_ls * clamp], axis=1)
        grad, _ = nets.backward_from_cache(self.net, sample_cache["cache"], upstream)
        return grad


def sample_mixed_batch(d_env: TransitionBuffer, d_model: TransitionBuffer, batch_size: int,
                       beta: float, rng: np.random.Generator) -> dict:
    """round(beta*B) real + remainder imaginary (beta in [0, 1]), uniform with replacement.

    A part drawn from an empty buffer raises ValueError; `mbpo_step` forces
    beta to 1 until D_model holds rows.
    """
    n_real = round(beta * batch_size)
    parts = [buf.gather(buf.sample_indices(n, rng))
             for buf, n in ((d_env, n_real), (d_model, batch_size - n_real)) if n]
    batch = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
    batch["n_real"] = n_real
    return batch


def _q_view(*index):
    """The net at q.theta[index] as a view, built on first use."""
    return cached_property(lambda agent: DenseNet(agent.q.sizes, agent.q.activations,
                                                  agent.q.theta[index]))


@dataclass
class SacAgent:
    """The actor, and the twin critics with their polyak targets as one
    stacked net `q` whose theta has shape (2, 2, n): online and target by
    critic 1 and critic 2.

    `critics` and `targets` are its two (2, n) blocks and `critic1` ...
    `target2` its four single nets, all views of `q.theta` built on first
    use; `critic_adam` steps `critics.theta`. Copies and pickles rebuild the
    views on the copy's own array and carry no workspace over.
    """

    actor: GaussianPolicy
    q: DenseNet
    actor_adam: AdamState
    critic_adam: AdamState
    alpha: float = 0.2
    polyak: float = 0.995

    critics, targets = _q_view(0), _q_view(1)
    critic1, critic2, target1, target2 = _q_view(0, 0), _q_view(0, 1), _q_view(1, 0), _q_view(1, 1)

    def __post_init__(self):
        self._workspaces = {}

    def __reduce__(self):
        return SacAgent, (self.actor, self.q, self.actor_adam, self.critic_adam,
                          self.alpha, self.polyak)

    def workspace(self, rows: int) -> tuple:
        """(workspace of `q`, its online block's, the (2, 1, rows, in) critic
        input) for one batch size, allocated on first use. Caches written
        into them are valid until the next critic forward."""
        if rows not in self._workspaces:
            ws = nets.Workspace.for_net(self.q, (2, 2), rows)
            self._workspaces[rows] = (ws, ws[0], np.empty((2, 1, rows, self.q.input_dim)))
        return self._workspaces[rows]


def init_agent(rng: np.random.Generator, state_dim: int, action_dim: int,
               action_low: np.ndarray, action_high: np.ndarray, hidden: tuple,
               lr: float = 3e-4, alpha: float = 0.2, polyak: float = 0.995) -> SacAgent:
    r_actor, r_c1, r_c2 = rng.spawn(3)
    actor_net = nets.init_dense(r_actor, [state_dim, *hidden, 2 * action_dim])
    critic1 = nets.init_dense(r_c1, [state_dim + action_dim, *hidden, 1])
    critic2 = nets.init_dense(r_c2, [state_dim + action_dim, *hidden, 1])
    q = DenseNet(critic1.sizes, critic1.activations,
                 np.stack([critic1.theta, critic2.theta] * 2).reshape(2, 2, -1))
    actor = GaussianPolicy(actor_net, action_low, action_high)
    return SacAgent(
        actor=actor, q=q,
        actor_adam=AdamState.for_theta(actor_net.theta, lr),
        critic_adam=AdamState.for_theta(q.theta[0], lr),
        alpha=alpha, polyak=polyak,
    )


def act(agent: SacAgent, s: np.ndarray, deterministic: bool,
        rng: np.random.Generator) -> np.ndarray:
    return agent.actor.action(s[None, :], rng, deterministic)[0]


def _critic_forward(agent: SacAgent, batch: dict, gamma: float, rng: np.random.Generator):
    """One stacked forward: the critics at (s, a) and the targets at s' with
    a fresh actor sample there. Returns the Bellman targets (no bootstrap on
    done), the critics' Q of shape (2, B) and their cache."""
    a2, logp2, _ = agent.actor.sample(batch["s2"], rng)
    ws, _, x = agent.workspace(len(batch["r"]))
    sd = batch["s"].shape[1]
    x[0, 0, :, :sd], x[0, 0, :, sd:] = batch["s"], batch["a"]
    x[1, 0, :, :sd], x[1, 0, :, sd:] = batch["s2"], a2
    q, (inputs, preacts) = nets.forward_cache(agent.q, x, ws)
    qt = np.minimum(q[1, 0, :, 0], q[1, 1, :, 0])
    not_done = 1.0 - batch["done"].astype(np.float64)
    y = batch["r"] + gamma * not_done * (qt - agent.alpha * logp2)
    return y, q[0, :, :, 0], ([h[0] for h in inputs], [z[0] for z in preacts])


def critic_loss_and_grads(agent: SacAgent, batch: dict, gamma: float,
                          rng: np.random.Generator):
    """Summed twin critic loss and both gradients, stacked like
    agent.critics.theta."""
    y, q, cache = _critic_forward(agent, batch, gamma, rng)
    b = len(y)
    loss = 0.5 * float(((q[0] - y) ** 2).mean())
    loss += 0.5 * float(((q[1] - y) ** 2).mean())
    grads, _ = nets.backward_from_cache(agent.critics, cache, ((q - y) / b)[:, :, None],
                                        ws=agent.workspace(b)[1])
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite critic loss")
    return loss, grads


def actor_loss_and_grads(agent: SacAgent, batch: dict, rng: np.random.Generator):
    """mean(alpha*logp - min twin Q) at reparameterized actions; gradients
    flow only into the actor."""
    s = batch["s"]
    b, sd = s.shape
    a, logp, cache = agent.actor.sample(s, rng)
    _, ws, x = agent.workspace(b)
    x[0, 0, :, :sd], x[0, 0, :, sd:] = s, a
    q, q_cache = nets.forward_cache(agent.critics, x[0], ws)
    q1, q2 = q[0, :, 0], q[1, :, 0]
    take1 = (q1 <= q2)[:, None]
    loss = float((agent.alpha * logp - np.minimum(q1, q2)).mean())
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite actor loss")
    # dq/da through whichever critic realizes the min, critic params frozen
    up = -np.ones((b, 1)) / b
    _, dx = nets.backward_from_cache(agent.critics, q_cache, np.stack([up * take1, up * ~take1]),
                                     params=False, ws=ws)
    d_action = dx[0, :, sd:] + dx[1, :, sd:]
    d_logp = np.full(b, agent.alpha / b)
    grads = agent.actor.backward(cache, d_logp, d_action)
    return loss, grads, logp


def polyak_update(target: DenseNet, online: DenseNet, rho: float) -> None:
    target.theta *= rho
    target.theta += (1.0 - rho) * online.theta


def sac_update(agent: SacAgent, batch: dict, gamma: float, rng: np.random.Generator) -> tuple:
    """One Adam step for the critics and one for the actor, then the polyak
    target update; returns (critic loss, actor loss). All or nothing: on a
    FloatingPointError the stepped critics and their Adam state are restored
    before it propagates."""
    c_loss, c_grad = critic_loss_and_grads(agent, batch, gamma, rng)
    critics, adam = agent.critics.theta, agent.critic_adam
    saved = (critics.copy(), adam.m.copy(), adam.v.copy(), adam.t)
    try:
        adam_step(adam, critics, c_grad)
        a_loss, a_grad, _ = actor_loss_and_grads(agent, batch, rng)
        adam_step(agent.actor_adam, agent.actor.net.theta, a_grad)
    except FloatingPointError:
        critics[:], adam.m[:], adam.v[:], adam.t = saved
        raise
    polyak_update(agent.targets, agent.critics, agent.polyak)
    return c_loss, a_loss
