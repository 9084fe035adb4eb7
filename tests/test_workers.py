"""workers.map_units: the list comprehension's results, in input order, from
forked worker processes; a unit's error and a dead worker surface in the
caller, and no worker outlives the call."""

import functools
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from mbrlab import controller, mbpo, workers
from mbrlab.hyper_mdp import HyperMdpConfig

TWO_CORES = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                               reason="needs two usable cores for worker processes")


@pytest.fixture(autouse=True)
def no_worker_left():
    yield
    assert multiprocessing.active_children() == []


def _pid_square(x):
    return os.getpid(), x * x


def _nested(x):
    return os.getpid(), workers.map_units(_pid_square, range(4))


def _type_error_at_one(x):
    if x == 1:
        raise TypeError(f"unit {x}")
    return x


def _exit_at_one(x):
    if x == 1:
        os._exit(3)
    return x


def test_map_units_on_hyper_episodes_equals_the_serial_list():
    mc = mbpo.MbpoConfig(warmup_steps=60, updates_start=64, batch_size=64,
                         n_members=2, agent_hidden=(16, 16), model_hidden=(16, 16))
    hc = HyperMdpConfig(m_train=1).for_env("pointmass2d")
    policy = controller.init_controller(np.random.default_rng(4))
    unit = functools.partial(controller._training_trajectory, policy, "pointmass2d",
                             mc, hc)
    seeds = [11, 12, 13]
    mapped = workers.map_units(unit, seeds)
    serial = [unit(s) for s in seeds]
    assert len(mapped) == len(serial) == 3
    for got, want in zip(mapped, serial):
        assert got.valid and want.valid and got.error is None
        for name in ("states", "action_indices", "log_probs", "rewards"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


@TWO_CORES
def test_map_units_keeps_input_order_on_worker_processes():
    out = workers.map_units(_pid_square, range(7))
    assert [sq for _, sq in out] == [x * x for x in range(7)]
    assert os.getpid() not in {pid for pid, _ in out}


def test_one_core_or_one_item_runs_inline(monkeypatch):
    assert workers.map_units(_pid_square, [5]) == [(os.getpid(), 25)]
    assert workers.map_units(_pid_square, []) == []
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0})
    assert workers.map_units(_pid_square, range(3)) == [
        (os.getpid(), x * x) for x in range(3)]


@TWO_CORES
def test_nested_map_units_runs_inline_in_its_worker():
    for pid, inner in workers.map_units(_nested, range(2)):
        assert pid != os.getpid()
        assert inner == [(pid, x * x) for x in range(4)]


def test_unit_type_error_propagates_as_type_error():
    with pytest.raises(TypeError, match="unit 1"):
        workers.map_units(_type_error_at_one, range(4))


@TWO_CORES
def test_dead_worker_raises_broken_process_pool():
    with pytest.raises(BrokenProcessPool):
        workers.map_units(_exit_at_one, range(4))
