"""Experiment drivers: seeded orchestration of every experiment mode at desk
scale, run directories, CSV emission, and the comparison statistics.

A command takes every setting from its RunConfig and writes only through one
RunDir: a fresh directory (never overwriting a previous run) keyed by mode,
config hash, and an increasing counter, whose manifest holds the config and
the run's status. All table schemas are pinned in SCHEMAS; tests fail on
drift.
"""

from __future__ import annotations

import copy
import csv
import functools
import itertools
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import controller as ctrl
from . import fvi, mbpo, workers
from .config import RunConfig
from .controller import BaselineCurve
from .hyper_mdp import HyperMdpConfig, HyperParams, hyper_mdp_hash
from .stats import welch_t

SCHEMA_VERSION = 1

SCHEMAS = {
    "fvi_rows": ["beta", "n_real", "sigma", "iterations", "seed", "discrepancy"],
    "fvi_summary": ["n_real", "argmin_beta", "bootstrap_monotone_frac"],
    "metrics": ["run_id", "episode", "n_real", "eval_return", "model_holdout_loss",
                "critic_loss_avg", "beta", "g", "k", "model_trained_flag"],
    "schedule": ["run_id", "real_step", "beta", "g", "k", "model_trained"],
    "comparison": ["seed", "controller_final", "default_final", "improvement"],
    "phases": ["phase", "mean_hyper_return"],
    "importance": ["mode", "seed", "final_return"],
    "learning_curves": ["run_id", "episode", "n_real", "eval_return"],
    "pbt": ["instance", "episode", "eval_return", "beta", "g", "k", "train_every"],
}

ABLATION_HEAD_MASKS = {
    "R": (True, False, False, False),
    "M": (False, True, False, False),
    "P": (False, False, True, False),
    "L": (False, False, False, True),
}
SA_FEATURE_MASK = (False, False, True, True, True, True, True, True)


def write_csv(path, schema_name: str, rows) -> Path:
    path = Path(path)
    cols = SCHEMAS[schema_name]
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row[c] for c in cols})
    return path


def read_csv(path) -> list:
    with Path(path).open() as fh:
        return list(csv.DictReader(fh))


class RunDir:
    """One experiment directory <outdir>/<mode>-<hash8>-<n>, claimed by mkdir
    and never reused, after the config has passed `RunConfig.validate`.

    manifest.json is written at claim with status "running" and the full
    config, and rewritten when the `with` block exits: "ok", or "failed" with
    the error's type and message (the exception propagates). Every file named
    through `file` is listed as an artifact.
    """

    def __init__(self, config: RunConfig, mode: str):
        config.validate()
        base = Path(config.harness.output_dir)
        base.mkdir(parents=True, exist_ok=True)
        config_hash = config.content_hash()
        n = 0
        while True:
            exp_id = f"{mode}-{config_hash[:8]}-{n:03d}"
            self.directory = base / exp_id
            try:
                self.directory.mkdir()
                break
            except FileExistsError:
                n += 1
        self.seed_status = {}
        self.manifest = {"experiment_id": exp_id, "mode": mode, "config_hash": config_hash,
                         "status": "running", "error": None, "started": time.time(),
                         "finished": None, "seed_status": self.seed_status,
                         "artifacts": [], "schema_version": SCHEMA_VERSION,
                         "config": config.to_dict()}
        self._save()

    def _save(self) -> None:
        (self.directory / "manifest.json").write_text(json.dumps(self.manifest, indent=2))

    def file(self, name: str) -> Path:
        path = self.directory / name
        self.manifest["artifacts"].append(str(path))
        return path

    def info(self, **extra) -> dict:
        return {"experiment_id": self.manifest["experiment_id"],
                "directory": str(self.directory),
                "artifacts": self.manifest["artifacts"], **extra}

    def __enter__(self) -> "RunDir":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.manifest["finished"] = time.time()
        self.manifest["status"] = "ok" if exc is None else "failed"
        if exc is not None:
            self.manifest["error"] = {"type": exc_type.__name__, "message": str(exc)}
        self._save()


# ------------------------------------------------------------------ fvi-sweep

def cmd_fvi_sweep(config: RunConfig) -> dict:
    fc = config.fvi
    with RunDir(config, "fvi-sweep") as run:
        mdp = fvi.MDPS[fc.mdp]()
        out = fvi.beta_sweep(mdp, fc.beta_grid, fc.n_real_grid, fc.sigma, fc.iterations,
                             range(fc.n_seeds), base=fc.base(), oracle=fvi.exact_vi(mdp),
                             n_bootstrap=fc.n_bootstrap)
        write_csv(run.file("fvi_rows.csv"), "fvi_rows", out["rows"])
        summary_rows = [{"n_real": nr, "argmin_beta": am,
                         "bootstrap_monotone_frac": out["bootstrap_monotone_frac"]}
                        for nr, am in zip(out["n_real_grid"], out["argmin_beta"])]
        write_csv(run.file("fvi_summary.csv"), "fvi_summary", summary_rows)
        run.seed_status.update({str(s): "ok" for s in range(fc.n_seeds)})
    return run.info(argmin_beta=out["argmin_beta"],
                    bootstrap_monotone_frac=out["bootstrap_monotone_frac"])


# ------------------------------------------------------------------ train-mbpo

def _sac_schedule(g: int):
    """Model-free SAC: beta 1 and g updates per real step, no model training."""
    return lambda state, params: (HyperParams(beta=1.0, g=g, k=1), False)


# train-mbpo's modes, each mapped to the maker of its schedule from the rows of
# the replayed schedule file and hyper.k_max, which only fixed-schedule-file reads
TRAIN_MBPO_MODES = {
    "default": lambda rows, k_max: mbpo.default_schedule,
    "sac1": lambda rows, k_max: _sac_schedule(1),
    "sac20": lambda rows, k_max: _sac_schedule(20),
    "fixed-schedule-file": mbpo.make_file_schedule,
}


def run_mbpo_mode(config: RunConfig, mode: str, seed: int,
                  schedule_rows=None) -> mbpo.MbpoLog:
    """One `hyper.m_train`-episode run under the mode's schedule."""
    hc = config.resolved_hyper()
    run = mbpo.init_run(config.env_name, config.mbpo, hc, seed)
    run.log.run_id = f"{mode}-{config.env_name}-seed{seed}"
    source = TRAIN_MBPO_MODES[mode](schedule_rows, hc.k_max)
    for _ in range(hc.m_train):
        mbpo.run_target_episode(run, source, hc)
    return run.log


def cmd_train_mbpo(config: RunConfig, mode: str = "default", schedule_file=None) -> dict:
    config.validate()
    if mode not in TRAIN_MBPO_MODES:
        raise ValueError(f"unknown train-mbpo mode {mode!r}; one of {', '.join(TRAIN_MBPO_MODES)}")
    n = config.hyper.train_hyper_steps(config.env_name)
    schedule_rows = None if schedule_file is None else read_csv(schedule_file)
    if (mode == "fixed-schedule-file") != (schedule_rows is not None):
        raise ValueError(f"a schedule file goes with fixed-schedule-file alone, which "
                         f"replays one of m_train * H / tau = {n} rows")
    if schedule_rows is not None and len(schedule_rows) != n:
        raise ValueError(f"schedule file {schedule_file} holds {len(schedule_rows)} rows, "
                         f"not m_train * H / tau = {n}")
    TRAIN_MBPO_MODES[mode](schedule_rows, config.hyper.k_max)  # a file's rows checked here
    with RunDir(config, f"train-mbpo-{mode}") as run:
        for seed in config.harness.seeds:
            log = run_mbpo_mode(config, mode, seed, schedule_rows)
            write_csv(run.file(f"metrics-seed{seed}.csv"), "metrics", log.eval_rows)
            write_csv(run.file(f"schedule-seed{seed}.csv"), "schedule", log.schedule_rows)
            run.file(f"events-seed{seed}.jsonl").write_text(
                "".join(json.dumps(rec) + "\n" for rec in log.events))
            run.seed_status[str(seed)] = "ok"
    return run.info()


# --------------------------------------------------------------- build-baseline

def _baseline_trace(config: RunConfig, hc: HyperMdpConfig, seed: int) -> list:
    return mbpo.run_default_mbpo(config.env_name, config.mbpo, hc, hc.m_train,
                                 seed).hyper_rewards


def build_baseline(config: RunConfig) -> BaselineCurve:
    """Average the per-index reward traces of `harness.n_baseline_seeds`
    default-configuration runs, its seeds spread over worker processes."""
    hc = config.resolved_hyper()
    n = config.harness.n_baseline_seeds
    traces = workers.map_units(functools.partial(_baseline_trace, config, hc), range(n))
    values = np.mean(np.asarray(traces), axis=0)
    return BaselineCurve(values=values, n_seeds=n,
                         config_hash=hyper_mdp_hash(config.env_name, config.mbpo, hc))


def cmd_build_baseline(config: RunConfig) -> dict:
    with RunDir(config, "build-baseline") as run:
        curve = build_baseline(config)
        path = run.file("baseline.json")
        ctrl.save_baseline(curve, path)
        run.seed_status.update({str(s): "ok" for s in range(curve.n_seeds)})
    return run.info(baseline_path=str(path))


# ------------------------------------------------------- controller train/eval

def cmd_train_controller(config: RunConfig, baseline_path=None,
                         feature_mask=(True,) * 8) -> dict:
    config.validate()
    hx, hc = config.harness, config.resolved_hyper()
    baseline = ctrl.load_baseline(baseline_path) if baseline_path else None
    if baseline is not None:
        baseline.check_fits(config.hyper_mdp_hash(), hc.train_hyper_steps(config.env_name))
    with RunDir(config, "train-controller") as run:
        if baseline is None:
            baseline = build_baseline(config)
        policy, history = ctrl.train_controller(
            config.env_name, config.mbpo, hc, config.ppo, baseline,
            hx.n_hyper_episodes, hx.seeds[0], hx.episodes_per_round,
            feature_mask=feature_mask)
        ckpt = run.file("controller.json")
        ctrl.save_controller(policy, ckpt)
        phase_rows = [{"phase": i + 1, "mean_hyper_return": m}
                      for i, m in enumerate(history["phase_means"])]
        write_csv(run.file("phases.csv"), "phases", phase_rows)
        run.file("history.json").write_text(json.dumps(history))
    return run.info(controller_path=str(ckpt), phase_means=history["phase_means"],
                    invalid_count=history["invalid_count"])


def _paired_eval_runs(config: RunConfig, hc: HyperMdpConfig, policy, seed: int) -> tuple:
    """The controller's greedy `hyper.m_eval`-episode run at `seed` and, if
    that run is valid, the default run at the same seed:
    (HyperTrajectory, MbpoLog, MbpoLog | None), tagged controller-<env>-seed<s>
    and default-<env>-seed<s> (`init_run` gives both the same id)."""
    traj, log_c = ctrl.run_hyper_episode(policy, config.env_name, config.mbpo, hc,
                                         seed, n_episodes=hc.m_eval, greedy=True)
    log_d = (mbpo.run_default_mbpo(config.env_name, config.mbpo, hc, hc.m_eval, seed)
             if traj.valid else None)
    for tag, log in (("controller", log_c), ("default", log_d)):
        if log is not None:
            log.run_id = f"{tag}-{config.env_name}-seed{seed}"
            for row in log.eval_rows + log.schedule_rows:
                row["run_id"] = log.run_id
    return traj, log_c, log_d


def cmd_eval_controller(config: RunConfig, controller_path, head_mask_override=None,
                        mode_tag: str = "eval-controller") -> dict:
    """Controller-vs-default comparison over paired seeds at the evaluation
    horizon M, with the Welch t report and a schedule export; the controller
    loads before the directory is claimed. Seeds run on worker processes, their
    outputs written in seed order. A seed whose hyper-episode is invalid (a
    numeric crash) is left out of the comparison, listed in the report."""
    config.validate()
    policy = ctrl.load_controller(controller_path)
    with RunDir(config, mode_tag) as run:
        hc = config.resolved_hyper()
        config_match = ctrl.check_transfer(policy, config.hyper_mdp_hash())
        if head_mask_override is not None:
            policy.head_mask = tuple(head_mask_override)
        seeds = config.harness.seeds
        runs = workers.map_units(
            functools.partial(_paired_eval_runs, config, hc, policy), seeds)
        rows, schedule_rows, curve_logs, invalid = [], [], [], []
        for seed, (traj, log_c, log_d) in zip(seeds, runs):
            schedule_rows.extend(log_c.schedule_rows)
            curve_logs.append(log_c)
            if not traj.valid:
                invalid.append({"seed": seed, "error": traj.error})
                run.seed_status[str(seed)] = "invalid"
                continue
            curve_logs.append(log_d)
            final_c = log_c.eval_rows[-1]["eval_return"]
            final_d = log_d.eval_rows[-1]["eval_return"]
            rows.append({"seed": seed, "controller_final": final_c,
                         "default_final": final_d,
                         "improvement": final_c - final_d})
            run.seed_status[str(seed)] = "ok"
        curve_rows = [r for log in curve_logs for r in log.eval_rows]
        write_csv(run.file("comparison.csv"), "comparison", rows)
        write_csv(run.file("schedule.csv"), "schedule", schedule_rows)
        write_csv(run.file("learning_curves.csv"), "learning_curves", curve_rows)

        def mean(values):  # None, not NaN, when every seed crashed: report.json stays JSON
            return float(np.mean(values)) if values else None

        report = {"n_seeds": len(rows),
                  "mean_controller": mean([r["controller_final"] for r in rows]),
                  "mean_default": mean([r["default_final"] for r in rows]),
                  "win_fraction": mean([r["improvement"] >= 0 for r in rows]),
                  "invalid": invalid, "config_match": config_match}
        try:
            t, p = welch_t([r["controller_final"] for r in rows],
                           [r["default_final"] for r in rows])
            report["welch_t"] = t
            report["welch_p"] = p
        except ValueError as exc:
            report["welch_error"] = str(exc)
        run.file("report.json").write_text(json.dumps(report, indent=2))
    return run.info(**report)


# -------------------------------------------------------------------- ablate

def cmd_ablate(config: RunConfig, mode: str, controller_path=None,
               baseline_path=None) -> dict:
    """R/M/P/L: evaluate a trained controller with one head active.
    SA: retrain with the reduced state (no sample count, no model loss)."""
    config.validate()
    mode = mode.upper()
    if mode in ABLATION_HEAD_MASKS:
        if controller_path is None:
            raise ValueError(f"mode {mode} requires a trained controller")
        return cmd_eval_controller(config, controller_path,
                                   head_mask_override=ABLATION_HEAD_MASKS[mode],
                                   mode_tag=f"ablate-{mode}")
    if mode == "SA":
        train_info = cmd_train_controller(config, baseline_path,
                                          feature_mask=SA_FEATURE_MASK)
        return cmd_eval_controller(config, train_info["controller_path"],
                                   mode_tag="ablate-SA")
    raise ValueError(f"unknown ablation mode {mode!r}")


# ----------------------------------------------------------------------- PBT

def _random_hyper(rng: np.random.Generator, hc: HyperMdpConfig):
    beta = float(np.exp(rng.uniform(np.log(hc.beta_min), 0.0)))
    g = int(rng.integers(1, hc.g_max + 1))
    k = int(rng.integers(1, hc.k_max + 1))
    train_every = int(rng.choice([1, 2, 4]))
    return HyperParams(beta, g, k), train_every


@dataclass
class _PbtInstance:
    run: mbpo.MbpoRunState
    params: HyperParams
    train_every: int
    last_eval: float = -np.inf

    def schedule(self):
        steps = itertools.count()
        return lambda state, params: (self.params, next(steps) % self.train_every == 0)


def pbt_exploit(dst: _PbtInstance, src: _PbtInstance) -> None:
    """Copy hyperparameters, network parameters, and buffers from src."""
    dst.params = src.params
    dst.train_every = src.train_every
    dst.run.agent = copy.deepcopy(src.run.agent)
    dst.run.model = copy.deepcopy(src.run.model)
    dst.run.d_env = copy.deepcopy(src.run.d_env)
    dst.run.d_model = copy.deepcopy(src.run.d_model)
    dst.run.critic_loss_avg = src.run.critic_loss_avg
    dst.run.n_real = src.run.n_real


def cmd_pbt(config: RunConfig) -> dict:
    """`harness.pbt_population` MBPO instances from `harness.seeds[0]` on, for
    `hyper.m_train` episodes; after each but the last, the worst
    `pbt_replace_frac` of them exploit the best or re-draw their settings."""
    hc = config.resolved_hyper()
    hx = config.harness
    pop, seed = hx.pbt_population, hx.seeds[0]
    with RunDir(config, "pbt") as run_dir:
        pbt_rng = np.random.default_rng(seed + 10_000)
        instances = []
        for i in range(pop):
            run = mbpo.init_run(config.env_name, config.mbpo, hc, seed + i)
            if pop == 1:
                params, train_every = hc.initial_params(), 1
            else:
                params, train_every = _random_hyper(pbt_rng, hc)
            instances.append(_PbtInstance(run=run, params=params, train_every=train_every))
        rows = []
        for episode in range(hc.m_train):
            for i, inst in enumerate(instances):
                mbpo.run_target_episode(inst.run, inst.schedule(), hc)
                inst.last_eval = inst.run.log.eval_rows[-1]["eval_return"]
                rows.append({"instance": i, "episode": episode + 1,
                             "eval_return": inst.last_eval, "beta": inst.params.beta,
                             "g": inst.params.g, "k": inst.params.k,
                             "train_every": inst.train_every})
            if pop > 1 and episode < hc.m_train - 1:
                order = np.argsort([inst.last_eval for inst in instances])
                for j in range(hx.pbt_swaps()):
                    dst = instances[order[j]]
                    src = instances[order[-1 - j]]
                    if pbt_rng.uniform() < hx.pbt_reinit_prob:
                        dst.params, dst.train_every = _random_hyper(pbt_rng, hc)
                    else:
                        pbt_exploit(dst, src)
        write_csv(run_dir.file("pbt.csv"), "pbt", rows)
        run_dir.seed_status.update({str(i): "ok" for i in range(pop)})
    return run_dir.info(final_returns=[inst.last_eval for inst in instances])


# ------------------------------------------------------------------ plot-data

def cmd_plot_data(config: RunConfig, experiment_dir) -> dict:
    """Re-emit an experiment's outputs as tidy per-figure CSVs in a run
    directory of its own; the experiment's directory is only read."""
    config.validate()
    directory = Path(experiment_dir)
    if not directory.is_dir():
        raise NotADirectoryError(f"plot-data source {directory} is not a directory")
    with RunDir(config, "plot-data") as run:
        curves = []
        for metrics in (sorted(directory.glob("metrics-*.csv"))
                        + list(directory.glob("learning_curves.csv"))):
            for row in read_csv(metrics):
                curves.append({k: row[k] for k in SCHEMAS["learning_curves"]})
        write_csv(run.file("learning_curves.csv"), "learning_curves", curves)
        schedules = []
        for sched in sorted(directory.glob("schedule*.csv")):
            schedules.extend(read_csv(sched))
        write_csv(run.file("schedules.csv"), "schedule", schedules)
        phases = []
        if (directory / "phases.csv").exists():
            phases = read_csv(directory / "phases.csv")
        write_csv(run.file("phases.csv"), "phases", phases)
        importance = []
        if (directory / "comparison.csv").exists():
            mode = directory.name.split("-")[1] if directory.name.startswith("ablate") else "full"
            for row in read_csv(directory / "comparison.csv"):
                importance.append({"mode": mode, "seed": row["seed"],
                                   "final_return": row["controller_final"]})
        write_csv(run.file("importance.csv"), "importance", importance)
    return run.info(source=str(directory))
