"""Copies of an agent or a model keep every flat theta bound to its views.

A deep copy or a pickle of numpy views yields independent arrays, so a copy
that did not rebuild the views would step its theta with Adam while forward
kept reading stale layers.
"""

import copy
import pickle

import numpy as np
import pytest

from mbrlab import harness, mbpo, nets, sac
from mbrlab import world_model as wm
from mbrlab.hyper_mdp import HyperMdpConfig

ENV = "pointmass2d"
HC = HyperMdpConfig().for_env(ENV)


def _run(seed):
    cfg = mbpo.MbpoConfig(n_members=2, agent_hidden=(8, 8), model_hidden=(8, 8))
    return mbpo.init_run(ENV, cfg, HC, seed)


def _nets(agent):
    return [agent.actor.net, agent.critic1, agent.critic2, agent.target1, agent.target2]


def _owners(agent, model):
    """(theta, the views that must live inside it) per parameter container."""
    out = [(net.theta, net.params()) for net in _nets(agent)]
    out += [(m.theta, [m.net.theta, m.max_logvar, m.min_logvar, *m.net.params()])
            for m in model.members]
    return out


def _member_from_theta(member):
    """A reference member rebuilt from a copy of theta alone."""
    return wm.EnsembleMember(member.net.sizes, member.net.activations, member.theta.copy())


def _copy(how, src):
    if how == "deepcopy":
        return copy.deepcopy(src.agent), copy.deepcopy(src.model)
    if how == "pickle":
        return pickle.loads(pickle.dumps(src.agent)), pickle.loads(pickle.dumps(src.model))
    dst = harness._PbtInstance(run=_run(1), params=HC.initial_params(), train_every=2)
    harness.pbt_exploit(dst, harness._PbtInstance(run=src, params=HC.initial_params(),
                                                  train_every=1))
    return dst.run.agent, dst.run.model


@pytest.mark.parametrize("how", ["deepcopy", "pickle", "pbt_exploit"])
def test_copies_keep_their_views(how):
    src = _run(0)
    src_thetas = [theta.copy() for theta, _ in _owners(src.agent, src.model)]
    agent, model = _copy(how, src)
    for (theta, views), src_theta in zip(_owners(agent, model), src_thetas):
        assert np.array_equal(theta, src_theta)
        assert all(np.shares_memory(v, theta) for v in views)
    for (theta, _), (other, _) in zip(_owners(agent, model), _owners(src.agent, src.model)):
        assert not np.shares_memory(theta, other)
    for net in _nets(agent)[1:] + [agent.critics, agent.targets]:
        assert np.shares_memory(net.theta, agent.q.theta)
    for member in model.members:
        assert np.shares_memory(member.theta, model.stack.theta)
        assert not np.shares_memory(member.theta, src.model.stack.theta)

    # step every container of the copy in place
    g = np.random.default_rng(2)
    batch = {"s": g.normal(size=(16, 4)), "a": g.uniform(-1, 1, (16, 2)),
             "r": g.normal(size=16), "s2": g.normal(size=(16, 4)),
             "done": np.zeros(16, dtype=bool)}
    sac.sac_update(agent, batch, 0.99, np.random.default_rng(3))
    x = np.concatenate([batch["s"], batch["a"]], axis=1)
    y = g.normal(size=(16, 5))
    for member in model.members:
        _, grad = wm.model_nll_grads(member, x, y)
        nets.adam_step(nets.AdamState.for_theta(member.theta, lr=1e-2), member.theta, grad)

    # forward reads the new theta, and the source did not move
    for (theta, _), src_theta in zip(_owners(agent, model), src_thetas):
        assert not np.array_equal(theta, src_theta)
    for net in _nets(agent):
        fresh = nets.DenseNet(net.sizes, net.activations, net.theta.copy())
        xin = x[:, :net.input_dim]
        assert np.array_equal(nets.forward(net, xin), nets.forward(fresh, xin))
    for member in model.members:
        for a, b in zip(member.heads(x)[:2], _member_from_theta(member).heads(x)[:2]):
            assert np.array_equal(a, b)
    for (theta, _), before in zip(_owners(src.agent, src.model), src_thetas):
        assert np.array_equal(theta, before)


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_agent_copies_rebuild_the_critic_stack_without_its_workspace(how):
    src = _run(0).agent
    g = np.random.default_rng(4)
    batch = {"s": g.normal(size=(8, 4)), "a": g.uniform(-1, 1, (8, 2)),
             "r": g.normal(size=8), "s2": g.normal(size=(8, 4)),
             "done": np.zeros(8, dtype=bool)}
    sac.sac_update(src, batch, 0.99, np.random.default_rng(5))  # allocates a workspace
    before = src.q.theta.copy()
    agent = copy.deepcopy(src) if how == "deepcopy" else pickle.loads(pickle.dumps(src))
    assert agent._workspaces == {} and src._workspaces
    assert agent.q.theta.shape == (2, 2, agent.critic1.theta.size)
    assert np.array_equal(agent.q.theta, before)
    assert not np.shares_memory(agent.q.theta, src.q.theta)
    for name in ("critics", "targets", "critic1", "critic2", "target1", "target2"):
        assert np.shares_memory(getattr(agent, name).theta, agent.q.theta)
    assert agent.critic_adam.m.shape == agent.critics.theta.shape
    assert not np.shares_memory(agent.critic_adam.m, src.critic_adam.m)
    critic1 = agent.critic1.theta.copy()
    sac.sac_update(agent, batch, 0.99, np.random.default_rng(6))
    assert not np.array_equal(agent.critic1.theta, critic1)
    assert np.array_equal(agent.q.theta[:, 0].ravel(),
                          np.concatenate([agent.critic1.theta, agent.target1.theta]))
    assert np.array_equal(src.q.theta, before)
