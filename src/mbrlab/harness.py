"""Experiment drivers: seeded orchestration of every experiment mode at desk
scale, manifests, CSV emission, and the comparison statistics.

Every invocation gets its own manifest directory (never overwriting a
previous run) keyed by mode, config hash, and an increasing counter. All
table schemas are pinned in SCHEMAS; tests fail on drift.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import functools
import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import controller as ctrl
from . import fvi, mbpo, workers
from .config import RunConfig
from .controller import BaselineCurve
from .envs import make_env
from .hyper_mdp import HyperMdpConfig, HyperParams
from .stats import welch_t

logger = logging.getLogger(__name__)

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


def write_jsonl(path, records) -> Path:
    path = Path(path)
    with path.open("w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


@dataclass
class ExperimentManifest:
    experiment_id: str
    mode: str
    config_hash: str
    started: float
    finished: float | None = None
    seed_status: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    def save(self, directory: Path) -> Path:
        path = Path(directory) / "manifest.json"
        path.write_text(json.dumps(dataclasses.asdict(self), indent=2))
        return path


def new_experiment(config: RunConfig, mode: str) -> tuple:
    """Fresh manifest directory <outdir>/<mode>-<hash8>-<n>, claimed by mkdir; never reused."""
    base = Path(config.harness.output_dir)
    base.mkdir(parents=True, exist_ok=True)
    h8 = config.content_hash()[:8]
    n = 0
    while True:
        exp_id = f"{mode}-{h8}-{n:03d}"
        directory = base / exp_id
        try:
            directory.mkdir()
            break
        except FileExistsError:
            n += 1
    manifest = ExperimentManifest(experiment_id=exp_id, mode=mode,
                                  config_hash=config.content_hash(),
                                  started=time.time())
    return manifest, directory


def _finish(manifest: ExperimentManifest, directory: Path, artifacts) -> dict:
    manifest.finished = time.time()
    manifest.artifacts = [str(a) for a in artifacts]
    manifest.save(directory)
    return {"experiment_id": manifest.experiment_id, "directory": str(directory),
            "artifacts": manifest.artifacts}


# ------------------------------------------------------------------ fvi-sweep

def cmd_fvi_sweep(config: RunConfig) -> dict:
    fc = config.fvi
    fc.validate()
    manifest, directory = new_experiment(config, "fvi-sweep")
    mdp = fvi.MDPS[fc.mdp]()
    base = fvi.FviConfig(grid_size=fc.grid_size, n_eval=fc.n_eval, p=fc.p)
    out = fvi.beta_sweep(mdp, list(fc.beta_grid), list(fc.n_real_grid), fc.sigma,
                         fc.iterations, range(fc.n_seeds), base=base,
                         n_bootstrap=fc.n_bootstrap)
    rows_path = write_csv(directory / "fvi_rows.csv", "fvi_rows", out["rows"])
    summary_rows = [{"n_real": nr, "argmin_beta": am,
                     "bootstrap_monotone_frac": out["bootstrap_monotone_frac"]}
                    for nr, am in zip(out["n_real_grid"], out["argmin_beta"])]
    summary_path = write_csv(directory / "fvi_summary.csv", "fvi_summary", summary_rows)
    for nr in out["n_real_grid"]:
        manifest.seed_status[str(nr)] = "ok"
    info = _finish(manifest, directory, [rows_path, summary_path])
    info["argmin_beta"] = out["argmin_beta"]
    info["bootstrap_monotone_frac"] = out["bootstrap_monotone_frac"]
    return info


# ------------------------------------------------------------------ train-mbpo

def _mode_schedule(mode: str, schedule_rows=None):
    if mode == "default":
        return mbpo.default_schedule
    if mode == "sac1":
        return lambda state, params: (HyperParams(beta=1.0, g=1, k=1), False)
    if mode == "sac20":
        return lambda state, params: (HyperParams(beta=1.0, g=20, k=1), False)
    if mode == "fixed-schedule-file":
        return mbpo.make_file_schedule(schedule_rows)
    raise ValueError(f"unknown train-mbpo mode {mode!r}")


def run_mbpo_mode(config: RunConfig, mode: str, m_episodes: int, seed: int,
                  schedule_rows=None) -> mbpo.MbpoLog:
    hc = config.resolved_hyper()
    run = mbpo.init_run(config.env_name, config.mbpo, hc, seed)
    run.log.run_id = f"{mode}-{config.env_name}-seed{seed}"
    source = _mode_schedule(mode, schedule_rows)
    for _ in range(m_episodes):
        mbpo.run_target_episode(run, source, hc)
    return run.log


def cmd_train_mbpo(config: RunConfig, mode: str = "default",
                   m_episodes: int | None = None, schedule_file=None) -> dict:
    manifest, directory = new_experiment(config, f"train-mbpo-{mode}")
    hc = config.resolved_hyper()
    m = m_episodes or hc.m_train
    schedule_rows = read_csv(schedule_file) if schedule_file else None
    artifacts = []
    for seed in config.harness.seeds:
        log = run_mbpo_mode(config, mode, m, seed, schedule_rows)
        artifacts.append(write_csv(directory / f"metrics-seed{seed}.csv",
                                   "metrics", log.eval_rows))
        artifacts.append(write_csv(directory / f"schedule-seed{seed}.csv",
                                   "schedule", log.schedule_rows))
        artifacts.append(write_jsonl(directory / f"events-seed{seed}.jsonl",
                                     log.events))
        manifest.seed_status[str(seed)] = "ok"
    return _finish(manifest, directory, artifacts)


# --------------------------------------------------------------- build-baseline

def _baseline_trace(config: RunConfig, hc: HyperMdpConfig, seed: int) -> list:
    return mbpo.run_default_mbpo(config.env_name, config.mbpo, hc, hc.m_train,
                                 seed).hyper_rewards


def build_baseline(config: RunConfig, n_seeds: int | None = None) -> BaselineCurve:
    """Average the per-index reward traces of default-configuration runs,
    its seeds spread over worker processes."""
    hc = config.resolved_hyper()
    n = n_seeds or config.harness.n_baseline_seeds
    traces = workers.map_units(functools.partial(_baseline_trace, config, hc), range(n))
    values = np.mean(np.asarray(traces), axis=0)
    return BaselineCurve(values=values, n_seeds=n, env_name=config.env_name,
                         config_hash=config.content_hash())


def save_baseline(curve: BaselineCurve, path) -> None:
    Path(path).write_text(json.dumps({
        "format_version": 1, "kind": "baseline-curve",
        "values": curve.values.tolist(), "n_seeds": curve.n_seeds,
        "env_name": curve.env_name, "config_hash": curve.config_hash,
    }))


def load_baseline(path) -> BaselineCurve:
    doc = json.loads(Path(path).read_text())
    if doc.get("kind") != "baseline-curve":
        raise ValueError(f"{path}: not a baseline curve file")
    return BaselineCurve(values=np.asarray(doc["values"], dtype=np.float64),
                         n_seeds=doc["n_seeds"], env_name=doc["env_name"],
                         config_hash=doc["config_hash"])


def cmd_build_baseline(config: RunConfig, n_seeds: int | None = None) -> dict:
    manifest, directory = new_experiment(config, "build-baseline")
    curve = build_baseline(config, n_seeds)
    path = directory / "baseline.json"
    save_baseline(curve, path)
    manifest.seed_status = {str(s): "ok" for s in range(curve.n_seeds)}
    info = _finish(manifest, directory, [path])
    info["baseline_path"] = str(path)
    return info


# ------------------------------------------------------- controller train/eval

def cmd_train_controller(config: RunConfig, baseline_path=None,
                         n_hyper_episodes: int | None = None,
                         seed: int | None = None,
                         feature_mask=(True,) * 8, head_mask=(True,) * 4) -> dict:
    manifest, directory = new_experiment(config, "train-controller")
    hc = config.resolved_hyper()
    baseline = (load_baseline(baseline_path) if baseline_path
                else build_baseline(config))
    policy, history = ctrl.train_controller(
        config.env_name, config.mbpo, hc, config.ppo, baseline,
        n_hyper_episodes or config.harness.n_hyper_episodes,
        seed if seed is not None else config.harness.seeds[0],
        episodes_per_round=config.harness.episodes_per_round,
        feature_mask=feature_mask, head_mask=head_mask)
    ckpt = directory / "controller.json"
    ctrl.save_controller(policy, ckpt)
    phase_rows = [{"phase": i + 1, "mean_hyper_return": m}
                  for i, m in enumerate(history["phase_means"])]
    phases = write_csv(directory / "phases.csv", "phases", phase_rows)
    history_path = directory / "history.json"
    history_path.write_text(json.dumps(history))
    info = _finish(manifest, directory, [ckpt, phases, history_path])
    info["controller_path"] = str(ckpt)
    info["phase_means"] = history["phase_means"]
    info["invalid_count"] = history["invalid_count"]
    return info


def _paired_eval_runs(config: RunConfig, hc: HyperMdpConfig, policy, m_eval: int,
                      seed: int) -> tuple:
    """The controller's greedy run at `seed` and, if that run is valid, the
    default run at the same seed: (HyperTrajectory, MbpoLog, MbpoLog | None)."""
    traj, log_c = ctrl.run_hyper_episode(policy, config.env_name, config.mbpo, hc,
                                         seed, n_episodes=m_eval, greedy=True)
    log_d = (mbpo.run_default_mbpo(config.env_name, config.mbpo, hc, m_eval, seed)
             if traj.valid else None)
    return traj, log_c, log_d


def cmd_eval_controller(config: RunConfig, controller_path,
                        head_mask_override=None, n_episodes: int | None = None,
                        mode_tag: str = "eval-controller") -> dict:
    """Controller-vs-default comparison over paired seeds at the evaluation
    horizon M, with the Welch t report and a schedule export. Seeds run on
    worker processes; their outputs are written in seed order. A seed whose
    hyper-episode is invalid (a numeric crash) is left out of the comparison
    and listed in the report with its error."""
    manifest, directory = new_experiment(config, mode_tag)
    hc = config.resolved_hyper()
    policy = ctrl.load_controller(controller_path)
    ctrl.check_transfer(policy, config.content_hash())
    if head_mask_override is not None:
        policy.head_mask = tuple(head_mask_override)
    m_eval = n_episodes or hc.m_eval
    seeds = config.harness.seeds
    runs = workers.map_units(
        functools.partial(_paired_eval_runs, config, hc, policy, m_eval), seeds)
    rows, schedule_rows, curve_logs, invalid = [], [], [], []
    for seed, (traj, log_c, log_d) in zip(seeds, runs):
        schedule_rows.extend(log_c.schedule_rows)
        curve_logs.append(log_c)
        if not traj.valid:
            invalid.append({"seed": seed, "error": traj.error})
            manifest.seed_status[str(seed)] = "invalid"
            continue
        curve_logs.append(log_d)
        final_c = log_c.eval_rows[-1]["eval_return"]
        final_d = log_d.eval_rows[-1]["eval_return"]
        rows.append({"seed": seed, "controller_final": final_c,
                     "default_final": final_d,
                     "improvement": final_c - final_d})
        manifest.seed_status[str(seed)] = "ok"
    curve_rows = [{"run_id": r["run_id"], "episode": r["episode"], "n_real": r["n_real"],
                   "eval_return": r["eval_return"]}
                  for log in curve_logs for r in log.eval_rows]
    comparison = write_csv(directory / "comparison.csv", "comparison", rows)
    schedule = write_csv(directory / "schedule.csv", "schedule", schedule_rows)
    curves = write_csv(directory / "learning_curves.csv", "learning_curves", curve_rows)

    def mean(values):  # None, not NaN, when every seed crashed: report.json stays JSON
        return float(np.mean(values)) if values else None

    report = {"n_seeds": len(rows),
              "mean_controller": mean([r["controller_final"] for r in rows]),
              "mean_default": mean([r["default_final"] for r in rows]),
              "win_fraction": mean([r["improvement"] >= 0 for r in rows]),
              "invalid": invalid}
    try:
        t, p = welch_t([r["controller_final"] for r in rows],
                       [r["default_final"] for r in rows])
        report["welch_t"] = t
        report["welch_p"] = p
    except ValueError as exc:
        report["welch_error"] = str(exc)
    report_path = directory / "report.json"
    report_path.write_text(json.dumps(report, indent=2))
    info = _finish(manifest, directory,
                   [comparison, schedule, curves, report_path])
    info.update(report)
    return info


# -------------------------------------------------------------------- ablate

def cmd_ablate(config: RunConfig, mode: str, controller_path=None,
               baseline_path=None) -> dict:
    """R/M/P/L: evaluate a trained controller with one head active.
    SA: retrain with the reduced state (no sample count, no model loss)."""
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


# ------------------------------------------------------------------ transfer

def cmd_transfer(config: RunConfig, source_controller, target_env: str) -> dict:
    """Evaluate a controller trained elsewhere on target_env without
    fine-tuning; config-hash mismatch warns and is recorded."""
    target_config = copy.deepcopy(config)
    target_config.env_name = target_env
    return cmd_eval_controller(target_config, source_controller,
                               mode_tag=f"transfer-to-{target_env}")


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
        counter = {"i": 0}

        def source(state, params):
            train = counter["i"] % self.train_every == 0
            counter["i"] += 1
            return self.params, train

        return source


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


def cmd_pbt(config: RunConfig, population: int | None = None,
            replace_frac: float | None = None, m_episodes: int | None = None,
            seed: int = 0) -> dict:
    manifest, directory = new_experiment(config, "pbt")
    hc = config.resolved_hyper()
    pop = population or config.harness.pbt_population
    frac = replace_frac if replace_frac is not None else config.harness.pbt_replace_frac
    reinit_p = config.harness.pbt_reinit_prob
    m = m_episodes or hc.m_train
    pbt_rng = np.random.default_rng(seed + 10_000)
    instances = []
    for i in range(pop):
        run = mbpo.init_run(config.env_name, config.mbpo, hc, seed + i)
        run.log.run_id = f"pbt-{i}"
        if pop == 1:
            params, train_every = hc.initial_params(), 1
        else:
            params, train_every = _random_hyper(pbt_rng, hc)
        instances.append(_PbtInstance(run=run, params=params, train_every=train_every))
    rows = []
    for episode in range(m):
        for i, inst in enumerate(instances):
            mbpo.run_target_episode(inst.run, inst.schedule(), hc)
            inst.last_eval = inst.run.log.eval_rows[-1]["eval_return"]
            rows.append({"instance": i, "episode": episode + 1,
                         "eval_return": inst.last_eval, "beta": inst.params.beta,
                         "g": inst.params.g, "k": inst.params.k,
                         "train_every": inst.train_every})
        if pop > 1 and episode < m - 1:
            order = np.argsort([inst.last_eval for inst in instances])
            n_swap = max(1, int(round(frac * pop)))
            for j in range(n_swap):
                dst = instances[order[j]]
                src = instances[order[-1 - (j % n_swap)]]
                if pbt_rng.uniform() < reinit_p:
                    dst.params, dst.train_every = _random_hyper(pbt_rng, hc)
                else:
                    pbt_exploit(dst, src)
    path = write_csv(directory / "pbt.csv", "pbt", rows)
    manifest.seed_status = {str(i): "ok" for i in range(pop)}
    info = _finish(manifest, directory, [path])
    info["final_returns"] = [inst.last_eval for inst in instances]
    return info


# ------------------------------------------------------------------ plot-data

def cmd_plot_data(config: RunConfig, experiment_dir) -> dict:
    """Re-emit an experiment's outputs as tidy per-figure CSVs."""
    directory = Path(experiment_dir)
    out = directory / "plot-data"
    out.mkdir(exist_ok=True)
    artifacts = []
    curves = []
    for metrics in sorted(directory.glob("metrics-*.csv")) + \
            ([directory / "learning_curves.csv"] if (directory / "learning_curves.csv").exists() else []):
        for row in read_csv(metrics):
            curves.append({k: row[k] for k in SCHEMAS["learning_curves"]})
    artifacts.append(write_csv(out / "learning_curves.csv", "learning_curves", curves))
    schedules = []
    for sched in sorted(directory.glob("schedule*.csv")):
        schedules.extend(read_csv(sched))
    artifacts.append(write_csv(out / "schedules.csv", "schedule", schedules))
    phases = []
    if (directory / "phases.csv").exists():
        phases = read_csv(directory / "phases.csv")
    artifacts.append(write_csv(out / "phases.csv", "phases", phases))
    importance = []
    if (directory / "comparison.csv").exists():
        mode = directory.name.split("-")[1] if directory.name.startswith("ablate") else "full"
        for row in read_csv(directory / "comparison.csv"):
            importance.append({"mode": mode, "seed": row["seed"],
                               "final_return": row["controller_final"]})
    artifacts.append(write_csv(out / "importance.csv", "importance", importance))
    return {"directory": str(out), "artifacts": [str(a) for a in artifacts]}
