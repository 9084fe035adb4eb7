"""Outside-in tracing of mbrlab's layers.

`Tracer.install()` replaces public functions of the hot-path modules with
wrappers that record a span (name, start, end, parent) and a few work
counters, and `Tracer.restore()` puts every original back. Nothing under
`src/` is edited: the wrappers are set on the module attributes that callers
look up at call time, including the names that `from .nets import adam_step`
style imports bound into other modules.

Spans are kept in memory and written out once, by `write()`, when the run
ends. A layer's self time is the time of its spans minus the time of their
child spans; runs are single-threaded, so children never overlap.
"""

from __future__ import annotations

import gzip
import json
import logging
import time
from collections import defaultdict

from mbrlab import buffers, controller, envs, fvi, harness, mbpo, nets, sac, world_model

LAYERS = ("nets", "sac", "world_model", "buffers", "envs", "mbpo", "hyper_mdp",
          "controller", "harness", "fvi")

# per-layer metric name -> unit; names are <module>.<function>.<counter>
PER_LAYER = {
    "nets.forward_cache.calls": "count", "nets.forward_cache.rows": "count",
    "nets.forward_cache.s": "s",
    "nets.backward_from_cache.calls": "count", "nets.backward_from_cache.s": "s",
    "nets.adam_step.calls": "count", "nets.adam_step.s": "s",
    "sac.sac_update.calls": "count", "sac.sac_update.s": "s",
    "sac.sac_update.ms_per_call": "ms", "sac.sac_update.applied_frac": "fraction",
    "sac.sample_mixed_batch.calls": "count", "sac.sample_mixed_batch.rows": "count",
    "sac.sample_mixed_batch.s": "s",
    "world_model.train_ensemble.calls": "count", "world_model.train_ensemble.s": "s",
    "world_model.train_ensemble.rows": "count",
    "world_model.train_ensemble.member_epochs": "count",
    "world_model.train_ensemble.s_per_member_epoch": "s",
    "world_model.train_ensemble.early_stop_frac": "fraction",
    "world_model.train_ensemble.steps_rejected": "count",
    "world_model.generate_rollouts.calls": "count", "world_model.generate_rollouts.s": "s",
    "world_model.generate_rollouts.transitions": "count",
    "world_model.generate_rollouts.alive_frac": "fraction",
    "world_model.predict.calls": "count", "world_model.predict.s": "s",
    "buffers.push_batch.calls": "count", "buffers.push_batch.rows": "count",
    "buffers.push_batch.s": "s",
    "buffers.gather.calls": "count", "buffers.gather.rows": "count", "buffers.gather.s": "s",
    "envs.evaluate_policy.calls": "count", "envs.evaluate_policy.s": "s",
    "envs.evaluate_policy.env_steps": "count", "envs.Env.step.calls": "count",
    "mbpo.mbpo_step.calls": "count", "mbpo.mbpo_step.self_s": "s",
    "mbpo.run_target_episode.calls": "count", "mbpo.run_target_episode.s": "s",
    "hyper_mdp.extract_state.calls": "count", "hyper_mdp.extract_state.s": "s",
    "controller.controller_act.calls": "count", "controller.controller_act.s": "s",
    "hyper_mdp.run_hyper_episode.calls": "count", "hyper_mdp.run_hyper_episode.s": "s",
    "hyper_mdp.run_hyper_episode.invalid": "count",
    "controller.ppo_update.calls": "count", "controller.ppo_update.s": "s",
    "controller.ppo_update.minibatch_steps": "count",
    "harness.build_baseline.s": "s",
    "fvi.exact_vi.s": "s",
    "fvi.run_fvi.calls": "count", "fvi.run_fvi.s": "s",
    "fvi.beta_mixture_backup.calls": "count", "fvi.beta_mixture_backup.s": "s",
    "fvi.beta_mixture_backup.state_actions": "count",
    "fvi.fit_value.calls": "count", "fvi.fit_value.s": "s", "fvi.fit_value.samples": "count",
    "fvi.policy_return.calls": "count", "fvi.policy_return.s": "s",
    "fvi.policy_return.state_steps": "count", "fvi.policy_return.oracle_calls": "count",
    "fvi.ValueFn.basis.calls": "count", "fvi.ValueFn.basis.points": "count",
    # harness runs only in set-up, where harness.build_baseline.s covers it
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer != "harness"},
    "process.cpu_s": "s", "trace.overhead_frac": "fraction",
}

# metrics read from the set-up phase; every other one comes from the unit
SETUP_METRICS = ("harness.build_baseline.s", "fvi.exact_vi.s")


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) > 1 else 1


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class _RejectedStepCounter(logging.Handler):
    """train_ensemble reports a rejected model step only as a warning."""

    def __init__(self, tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        if record.getMessage().startswith("model step rejected"):
            self.tracer.add("world_model.train_ensemble.steps_rejected")


class Tracer:
    def __init__(self):
        self.names, self.starts, self.ends, self.parents, self.phases = [], [], [], [], []
        self.stack = []
        self.phase = "setup"
        self.counters = defaultdict(float)   # (phase, name) -> value
        self.oracle_values = set()           # ids of exact_vi value functions
        self._saved = []
        self._handler = None

    # ------------------------------------------------------------ recording

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(None)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.phases.append(self.phase)
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self.stack.pop()

    def add(self, key: str, value: float = 1.0) -> None:
        self.counters[(self.phase, key)] += value

    def parent_name(self) -> str | None:
        return self.names[self.stack[-1]] if self.stack else None

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.close(sid)
                if hook is not None:
                    hook(args, kwargs, None, True)
                raise
            tracer.close(sid)
            if hook is not None:
                hook(args, kwargs, result, False)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # --------------------------------------------------------- installation

    def install(self) -> None:
        """Wrap every traced entry point; `restore()` undoes all of it."""
        add = self.add

        def fc_hook(args, kwargs, result, raised):
            add("nets.forward_cache.rows", _rows(args[1]))

        def sac_hook(args, kwargs, result, raised):
            add("sac.sac_update.applied", 0.0 if raised else 1.0)

        def batch_hook(args, kwargs, result, raised):
            if not raised:
                add("sac.sample_mixed_batch.rows", len(result["r"]))

        def train_hook(args, kwargs, result, raised):
            model, d_env, cfg = args[0], args[1], args[2]
            add("world_model.train_ensemble.rows", len(d_env))
            if not raised:
                epochs = model.last_epochs
                add("world_model.train_ensemble.member_epochs", sum(epochs))
                add("world_model.train_ensemble.members", len(epochs))
                add("world_model.train_ensemble.members_stopped",
                    sum(e < cfg.max_epochs for e in epochs))

        def rollout_hook(args, kwargs, result, raised):
            if not raised:
                k = _arg(args, kwargs, 3, "k")
                branches = _arg(args, kwargs, 4, "branches")
                add("world_model.generate_rollouts.transitions", result)
                add("world_model.generate_rollouts.capacity", k * branches)

        def push_hook(args, kwargs, result, raised):
            if not raised:
                add("buffers.push_batch.rows", result)

        def gather_hook(args, kwargs, result, raised):
            add("buffers.gather.rows", len(args[1]))

        def step_hook(args, kwargs, result, raised):
            if self.parent_name() == "envs.evaluate_policy":
                add("envs.evaluate_policy.env_steps")

        def hyper_hook(args, kwargs, result, raised):
            if raised or not result[0].valid:
                add("hyper_mdp.run_hyper_episode.invalid")

        def ppo_hook(args, kwargs, result, raised):
            if not raised:
                add("controller.ppo_update.minibatch_steps", result["updates"])

        def vi_hook(args, kwargs, result, raised):
            if not raised:
                self.oracle_values.add(id(result.value_fn))

        def backup_hook(args, kwargs, result, raised):
            add("fvi.beta_mixture_backup.state_actions", _rows(args[1]) * args[2].n_actions)

        def fit_hook(args, kwargs, result, raised):
            add("fvi.fit_value.samples", _rows(args[0]))

        def return_hook(args, kwargs, result, raised):
            mdp, value_fn, states = args[0], args[1], args[2]
            horizon = _arg(args, kwargs, 3, "horizon") or fvi._truncation_horizon(mdp)
            add("fvi.policy_return.state_steps", _rows(states) * horizon)
            if id(value_fn) in self.oracle_values:
                add("fvi.policy_return.oracle_calls")

        def basis_hook(args, kwargs, result, raised):
            if not raised:
                add("fvi.ValueFn.basis.points", len(result[0]))

        w = self.wrap
        w(nets, "forward_cache", "nets.forward_cache", fc_hook)
        w(nets, "backward_from_cache", "nets.backward_from_cache")
        for module in (sac, world_model, controller):
            w(module, "adam_step", "nets.adam_step")
        w(sac, "sac_update", "sac.sac_update", sac_hook)
        w(sac, "sample_mixed_batch", "sac.sample_mixed_batch", batch_hook)
        w(world_model, "train_ensemble", "world_model.train_ensemble", train_hook)
        w(world_model, "generate_rollouts", "world_model.generate_rollouts", rollout_hook)
        w(world_model, "predict", "world_model.predict")
        w(buffers.TransitionBuffer, "push_batch", "buffers.push_batch", push_hook)
        w(buffers.TransitionBuffer, "gather", "buffers.gather", gather_hook)
        w(mbpo, "evaluate_policy", "envs.evaluate_policy")
        w(envs.Env, "step", "envs.Env.step", step_hook)
        w(mbpo, "mbpo_step", "mbpo.mbpo_step")
        w(mbpo, "run_target_episode", "mbpo.run_target_episode")
        w(mbpo, "extract_state", "hyper_mdp.extract_state")
        w(controller, "run_hyper_episode", "hyper_mdp.run_hyper_episode", hyper_hook)
        w(controller, "controller_act", "controller.controller_act")
        w(controller, "ppo_update", "controller.ppo_update", ppo_hook)
        w(harness, "build_baseline", "harness.build_baseline")
        w(fvi, "exact_vi", "fvi.exact_vi", vi_hook)
        w(fvi, "run_fvi", "fvi.run_fvi")
        w(fvi, "beta_mixture_backup", "fvi.beta_mixture_backup", backup_hook)
        w(fvi, "fit_value", "fvi.fit_value", fit_hook)
        w(fvi, "policy_return", "fvi.policy_return", return_hook)
        w(fvi.ValueFn, "basis", "fvi.ValueFn.basis", basis_hook)
        self._handler = _RejectedStepCounter(self)
        logging.getLogger(world_model.__name__).addHandler(self._handler)

    def restore(self) -> bool:
        """Put every original back; True when all of them are in place."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        ok = all(owner.__dict__[attr] is original for owner, attr, original in self._saved)
        self._saved = []
        if self._handler is not None:
            logging.getLogger(world_model.__name__).removeHandler(self._handler)
            self._handler = None
        return ok

    # -------------------------------------------------------------- results

    def _spans(self, phase: str):
        """(name, duration, self time) per closed span of the phase."""
        dur = [None if e is None else e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0 and dur[i] is not None:
                child[p] += dur[i]
        return [(self.names[i], dur[i], dur[i] - child[i]) for i in range(len(dur))
                if dur[i] is not None and self.phases[i] == phase]

    def metrics(self) -> dict:
        """Every PER_LAYER metric; the caller overwrites process.cpu_s and
        trace.overhead_frac, which it measures outside the tracer."""
        calls, total, self_by_name = defaultdict(int), defaultdict(float), defaultdict(float)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, d, own in self._spans("unit"):
            calls[name] += 1
            total[name] += d
            self_by_name[name] += own
            layer = name.split(".")[0]
            if layer in layer_self:
                layer_self[layer] += own
        setup_total = defaultdict(float)
        for name, d, _ in self._spans("setup"):
            setup_total[name] += d
        c = {k: v for (phase, k), v in self.counters.items() if phase == "unit"}

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for key in PER_LAYER:
            base, _, stat = key.rpartition(".")
            if key in SETUP_METRICS:
                out[key] = setup_total[base]
            elif stat == "calls":
                out[key] = calls[base]
            elif stat == "s":
                out[key] = total[base]
            elif stat == "self_s":
                out[key] = layer_self[base] if base in layer_self else self_by_name[base]
            else:
                out[key] = c.get(key, 0.0)
        out["sac.sac_update.ms_per_call"] = 1e3 * ratio(total["sac.sac_update"],
                                                        calls["sac.sac_update"])
        out["sac.sac_update.applied_frac"] = ratio(c.get("sac.sac_update.applied", 0.0),
                                                   calls["sac.sac_update"])
        out["world_model.train_ensemble.s_per_member_epoch"] = ratio(
            total["world_model.train_ensemble"],
            c.get("world_model.train_ensemble.member_epochs", 0.0))
        out["world_model.train_ensemble.early_stop_frac"] = ratio(
            c.get("world_model.train_ensemble.members_stopped", 0.0),
            c.get("world_model.train_ensemble.members", 0.0))
        out["world_model.generate_rollouts.alive_frac"] = ratio(
            c.get("world_model.generate_rollouts.transitions", 0.0),
            c.get("world_model.generate_rollouts.capacity", 0.0))
        return out

    def write(self, path) -> None:
        """All spans as gzipped JSON: [name, start, end, parent, phase]."""
        t0 = self.starts[0] if self.starts else 0.0
        spans = [[n, s - t0, None if e is None else e - t0, p, ph]
                 for n, s, e, p, ph in zip(self.names, self.starts, self.ends,
                                           self.parents, self.phases)]
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "phase"],
                       "spans": spans}, fh)
