import argparse
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mbrlab import cli, controller, fvi, harness, mbpo
from mbrlab.checkpoint import CheckpointError
from mbrlab.config import (ConfigError, FviSweepConfig, HarnessConfig, RunConfig,
                           from_dict, load)
from mbrlab.envs import EnvDiverged
from mbrlab.hyper_mdp import HyperMdpConfig
from mbrlab.mbpo import MbpoConfig
from mbrlab.stats import DegenerateSamples, welch_t
from util import FAULTS, agent_fingerprint, crash_hyper_episode_at, inject_fault_after_one_episode

ROOT = Path(__file__).resolve().parents[1]


def _tiny_config(tmp_path, **harness_kw):
    hk = {"seeds": (0, 1), "output_dir": str(tmp_path / "runs"),
          "n_baseline_seeds": 2, "n_hyper_episodes": 2, "episodes_per_round": 2,
          "pbt_replace_frac": 0.5}  # 2 of the default population of 4: the most allowed
    hk.update(harness_kw)
    return RunConfig(
        env_name="pointmass2d",
        mbpo=MbpoConfig(warmup_steps=60, updates_start=64, batch_size=64,
                        n_members=2, agent_hidden=(16, 16), model_hidden=(16, 16)),
        hyper=HyperMdpConfig(m_train=1, m_eval=1),
        fvi=FviSweepConfig(beta_grid=(0.5, 1.0), n_real_grid=(64,), n_seeds=2,
                           grid_size=16, n_eval=32, iterations=3, n_bootstrap=5),
        harness=HarnessConfig(**hk),
    )


# --------------------------------------------------------------------- config

def test_config_hash_stable_under_key_reordering():
    a = from_dict({"env_name": "pendulum", "mbpo": {"warmup_steps": 100}})
    b = from_dict({"mbpo": {"warmup_steps": 100}, "env_name": "pendulum"})
    assert a.content_hash() == b.content_hash()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        from_dict({"env_name": "pendulum", "warmup_steps": 3})
    with pytest.raises(ConfigError, match="mbpo"):
        from_dict({"mbpo": {"warmup_stepz": 3}})


def test_config_load_and_env_overrides(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"env_name": "pendulum",
                                "harness": {"seeds": [7, 8]}}))
    monkeypatch.setenv("MBRLAB_SEED", "42")
    monkeypatch.setenv("MBRLAB_OUTDIR", str(tmp_path / "out"))
    cfg = load(path)
    assert cfg.harness.seeds == (42,)
    assert cfg.harness.output_dir == str(tmp_path / "out")
    assert cfg.env_name == "pendulum"


def test_config_hash_changes_with_content():
    a = from_dict({"env_name": "pendulum"})
    b = from_dict({"env_name": "pointmass2d"})
    assert a.content_hash() != b.content_hash()


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")),
                         ids=lambda p: p.name)
def test_shipped_configs_load(path):
    assert isinstance(load(path), RunConfig)


def test_default_config_is_the_full_template():
    template = json.loads((ROOT / "configs" / "default.json").read_text())
    assert template == RunConfig().to_dict()


def _shipped(name):
    # read without MBRLAB_SEED/MBRLAB_OUTDIR, which change the content hash
    return from_dict(json.loads((ROOT / "configs" / name).read_text()))


@pytest.mark.parametrize("name, content, hyper_mdp", [
    ("default.json", "13918e742294b62790c96508850d5c895015592c8c9147bc27b0023cc1d4e19b",
     "467bc41a6fb62d6dc470e16d6b2d3eea4e71b16f4d4c7b193c2a2a4fa6323f1f"),
    ("smoke.json", "57358856f0b7f52f362208d730cd012eea6152c701bf4e6cb81bb38f5303ab19",
     "a232c998093f1830c1ce142c0daee552e21f959ed2dfd7b3d409ba9c13224950"),
])
def test_shipped_config_hashes_are_pinned(name, content, hyper_mdp):
    # run directories are named by the one, saved baselines and controllers
    # matched to a run by the other
    cfg = _shipped(name)
    assert cfg.content_hash() == content
    assert cfg.hyper_mdp_hash() == hyper_mdp


def test_hyper_mdp_hash_covers_the_resolved_hyper_config():
    # hyper.return_lo is overwritten from the env spec, so it changes what the
    # config says but not the hyper-MDP a run acts in
    cfg, edited = _shipped("default.json"), _shipped("default.json")
    edited.hyper.return_lo = -1000.0
    assert edited.content_hash() != cfg.content_hash()
    assert edited.hyper_mdp_hash() == cfg.hyper_mdp_hash()


# -------------------------------------------------------------------- tracing

def test_benchmark_tracer_installs_and_restores():
    # the benchmark wraps module attributes by name; a rename or deletion in
    # src/ makes install() raise or restore() return False
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        restored = tracer.restore()
    assert restored


# set-up and unit fingerprints of each benchmark workload at seed 0; a change
# to src/ that keeps behaviour bit-identical keeps them
_WORKLOAD_FINGERPRINTS = {
    "mbpo-default": (
        "bd6ee89412158c4aef2a30ef6f83eea71126e86037f36fcb5e622acfcea507b1",
        "75c8d10d46b138cecb466b66702c212202baada9bb15c0a9632daa4f50149cc5"),
    "mbpo-model-heavy": (
        "bd6ee89412158c4aef2a30ef6f83eea71126e86037f36fcb5e622acfcea507b1",
        "88590dece776373f92d413471553a09522b9c6ee15f3eec259bb7cfdf360ef05"),
    "fvi-sweep": (
        "354e6023ba4e2fc0d009957c4195875aa442d760aed2b1a20290f2c57a6227a8",
        "79438c75c6385337326f48a13c4f985b6885bcc184528eafa8e2793c727d9ce6"),
    "controller-round": (
        "03751922fa493857fa1c94f2194ab201ce838bf81ccc48cf5e96345e39932dbb",
        "1650173c9f2081c42d1293cf485404d968cec18e816f8bdc9608f5eb0efeb344"),
}


def test_benchmark_workloads_run_and_reproduce(monkeypatch):
    # the benchmark drives src/ only through perfbench/workloads.py; a
    # signature change there would otherwise fail only in a benchmark run
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    assert set(workloads.WORKLOADS) == set(_WORKLOAD_FINGERPRINTS)
    for name, make in workloads.WORKLOADS.items():
        workload = make()
        prepared = workload.setup(0)
        setup_fp = workload.setup_fingerprint(prepared)
        outcome = workload.unit(prepared, 0)
        assert outcome.checks and all(outcome.checks.values()), (name, outcome.checks)
        assert outcome.failed == 0, name
        assert (setup_fp, outcome.fingerprint) == _WORKLOAD_FINGERPRINTS[name], name


# -------------------------------------------------------------------- welch t

def _welch_reference(xs, ys):
    """Quadrature oracle: integrate the t density with mpmath at 50 digits."""
    import mpmath as mp
    mp.mp.dps = 50
    xs = [mp.mpf(repr(x)) for x in xs]
    ys = [mp.mpf(repr(y)) for y in ys]
    nx, ny = len(xs), len(ys)
    mx = mp.fsum(xs) / nx
    my = mp.fsum(ys) / ny
    vx = mp.fsum((x - mx) ** 2 for x in xs) / (nx - 1)
    vy = mp.fsum((y - my) ** 2 for y in ys) / (ny - 1)
    se2 = vx / nx + vy / ny
    t = (mx - my) / mp.sqrt(se2)
    df = se2 ** 2 / ((vx / nx) ** 2 / (nx - 1) + (vy / ny) ** 2 / (ny - 1))

    def pdf(x):
        return (mp.gamma((df + 1) / 2) / (mp.sqrt(df * mp.pi) * mp.gamma(df / 2))
                * (1 + x * x / df) ** (-(df + 1) / 2))

    p = 2 * mp.quad(pdf, [abs(t), mp.inf])
    return float(t), float(p)


PINNED_VECTORS = [
    ([2.1, 2.5, 1.9, 2.3, 2.2], [1.4, 1.7, 1.5, 1.9]),
    ([0.1, -0.2, 0.05, 0.3, -0.1, 0.12], [0.15, -0.05, 0.2, 0.1, 0.0]),
    ([10.0, 11.0, 9.5, 10.5], [10.2, 10.8, 9.9, 10.4, 10.1]),
]


def test_welch_identical_samples():
    xs = [1.0, 2.0, 3.0]
    t, p = welch_t(xs, xs)
    assert t == 0.0 and p == 1.0


def test_welch_separated_samples():
    t, p = welch_t([100.0, 100.1, 99.9, 100.05] * 3, [1.0, 1.1, 0.9, 1.05] * 3)
    assert p < 1e-6


def test_welch_matches_quadrature_reference():
    for xs, ys in PINNED_VECTORS:
        t, p = welch_t(xs, ys)
        t_ref, p_ref = _welch_reference(xs, ys)
        assert abs(t - t_ref) < 1e-10
        assert abs(p - p_ref) < 1e-10


def test_welch_degenerate_variance_errors():
    with pytest.raises(DegenerateSamples):
        welch_t([1.0, 1.0, 1.0], [2.0, 2.0])
    with pytest.raises(DegenerateSamples):
        welch_t([1.0], [2.0, 3.0])


# ------------------------------------------------------------------- manifests

def test_rerunning_never_overwrites(tmp_path):
    cfg = _tiny_config(tmp_path)
    info1 = harness.cmd_fvi_sweep(cfg)
    info2 = harness.cmd_fvi_sweep(cfg)
    assert info1["directory"] != info2["directory"]
    assert json.loads((harness.Path(info1["directory"]) / "manifest.json").read_text())[
        "schema_version"] == harness.SCHEMA_VERSION


def test_run_dir_claims_its_directory(tmp_path, monkeypatch):
    # a directory that appears between a check and mkdir (another process
    # claiming it) must move the caller on to the next index, not raise
    cfg = _tiny_config(tmp_path)
    monkeypatch.setattr(Path, "exists", lambda self: False)
    first = harness.RunDir(cfg, "race")
    second = harness.RunDir(cfg, "race")
    assert first.manifest["experiment_id"].endswith("-000")
    assert second.manifest["experiment_id"].endswith("-001")
    assert first.directory.is_dir() and second.directory.is_dir()
    assert first.directory != second.directory


def _run_command(name, cfg, tmp_path):
    if name == "eval-controller":
        ckpt = tmp_path / "controller.json"
        controller.save_controller(controller.init_controller(
            np.random.default_rng(0), config_hash=cfg.hyper_mdp_hash()), ckpt)
        return harness.cmd_eval_controller(cfg, ckpt)
    if name == "plot-data":
        source = harness.cmd_train_mbpo(cfg)["directory"]
        return harness.cmd_plot_data(cfg, source)
    return {"fvi-sweep": harness.cmd_fvi_sweep, "train-mbpo": harness.cmd_train_mbpo,
            "build-baseline": harness.cmd_build_baseline,
            "train-controller": harness.cmd_train_controller,
            "pbt": harness.cmd_pbt}[name](cfg)


# every command that claims a RunDir; cmd_ablate only delegates to
# train-controller and eval-controller
MANIFEST_COMMANDS = ["fvi-sweep", "train-mbpo", "build-baseline", "train-controller",
                     "eval-controller", "pbt", "plot-data"]


def test_every_directory_writing_command_is_in_the_manifest_invariant():
    commands = {name[len("cmd_"):].replace("_", "-")
                for name in vars(harness) if name.startswith("cmd_")}
    assert commands - {"ablate"} == set(MANIFEST_COMMANDS)


@pytest.mark.parametrize("command", MANIFEST_COMMANDS)
def test_manifest_describes_its_run_directory(tmp_path, command):
    # every file a command leaves is an artifact of its RunDir, and the
    # manifest's config reproduces the hash the directory is named by
    cfg = _tiny_config(tmp_path)
    directory = Path(_run_command(command, cfg, tmp_path)["directory"])
    manifest = json.loads((directory / "manifest.json").read_text())
    assert manifest["status"] == "ok" and manifest["error"] is None
    assert set(manifest["artifacts"]) == {
        str(p) for p in directory.iterdir() if p.name != "manifest.json"}
    assert from_dict(manifest["config"]).content_hash() == manifest["config_hash"]
    assert manifest["config_hash"] == cfg.content_hash()


@pytest.mark.parametrize("section, key, value, command", [
    ("harness", "episodes_per_round", 0, "train-controller"),  # looped forever
    ("harness", "seeds", (), "train-controller"),              # seeds[0] IndexError
    ("harness", "n_baseline_seeds", 0, "build-baseline"),
    ("harness", "n_hyper_episodes", 0, "train-controller"),
    ("harness", "pbt_population", 0, "pbt"),
    ("harness", "pbt_replace_frac", 0.0, "pbt"),
    ("harness", "pbt_replace_frac", 1.5, "pbt"),               # order[j] IndexError
    ("harness", "pbt_reinit_prob", -0.1, "pbt"),
    ("harness", "pbt_reinit_prob", 1.5, "pbt"),
    ("hyper", "m_train", 0, "train-mbpo"),
    ("hyper", "m_eval", 0, "eval-controller"),
    ("fvi", "n_seeds", 0, "fvi-sweep"),
    ("fvi", "beta_grid", (0.0,), "fvi-sweep"),
    ("fvi", "n_bootstrap", 0, "fvi-sweep"),
    ("fvi", "grid_size", 1, "fvi-sweep"),
    ("fvi", "sigma", -0.1, "fvi-sweep"),
    ("fvi", "beta_grid", (), "fvi-sweep"),     # argmin of an empty sequence
    ("fvi", "n_real_grid", (), "fvi-sweep"),   # ran "ok" with a header-only table
    ("hyper", "k_max", 1, "train-mbpo"),       # ZeroDivisionError in extract_state
    ("hyper", "g_max", 1, "train-mbpo"),
    ("hyper", "tau", 0, "train-mbpo"),         # ZeroDivisionError before validation
    ("hyper", "tau", -50, "train-mbpo"),       # divides the horizon; D_model of capacity < 1
    ("mbpo", "d_env_capacity", 0, "train-mbpo"),
    ("mbpo", "model_buffer_retain", 0, "train-mbpo"),
    ("mbpo", "n_members", 0, "train-mbpo"),
    ("harness", "seeds", (-1,), "train-mbpo"),  # ValueError from default_rng, after the claim
    ("harness", "seeds", (1.5,), "train-mbpo"),  # TypeError
    ("harness", "pbt_replace_frac", 1.0, "pbt"),    # the two best exploited the two worst
    ("harness", "pbt_population", 3, "pbt"),        # at frac 0.5 one instance exploited itself
    ("mbpo", "d_env_capacity", 9, "train-mbpo"),  # no model training: ran "ok" as SAC
])
def test_invalid_setting_is_rejected_before_any_directory(tmp_path, section, key, value,
                                                          command):
    cfg = _tiny_config(tmp_path)
    setattr(getattr(cfg, section), key, value)
    with pytest.raises(ValueError, match=key):
        _run_command(command, cfg, tmp_path)
    assert not (tmp_path / "runs").exists()


def test_failed_run_leaves_a_failed_manifest_and_reraises(tmp_path, monkeypatch):
    cfg = _tiny_config(tmp_path)  # seeds (0, 1)
    real = mbpo.run_target_episode
    live_status = []

    def run_target_episode(run, source, hc):
        if run.log.run_id.endswith("seed1"):
            [directory] = (tmp_path / "runs").iterdir()
            live_status.append(
                json.loads((directory / "manifest.json").read_text())["status"])
            raise TypeError("injected after one seed")
        return real(run, source, hc)

    monkeypatch.setattr(mbpo, "run_target_episode", run_target_episode)
    with pytest.raises(TypeError, match="^injected after one seed$"):
        harness.cmd_train_mbpo(cfg)
    [directory] = (tmp_path / "runs").iterdir()
    manifest = json.loads((directory / "manifest.json").read_text())
    assert live_status == ["running"]
    assert manifest["status"] == "failed"
    assert manifest["error"] == {"type": "TypeError", "message": "injected after one seed"}
    assert manifest["seed_status"] == {"0": "ok"}
    assert set(manifest["artifacts"]) == {
        str(p) for p in directory.iterdir() if p.name != "manifest.json"}


def test_fvi_sweep_row_count(tmp_path):
    cfg = _tiny_config(tmp_path)
    info = harness.cmd_fvi_sweep(cfg)
    rows = harness.read_csv(harness.Path(info["directory"]) / "fvi_rows.csv")
    fc = cfg.fvi
    assert len(rows) == len(fc.beta_grid) * len(fc.n_real_grid) * fc.n_seeds
    assert list(rows[0]) == harness.SCHEMAS["fvi_rows"]
    manifest = json.loads((harness.Path(info["directory"]) / "manifest.json").read_text())
    assert manifest["seed_status"] == {str(s): "ok" for s in range(fc.n_seeds)}


@pytest.mark.parametrize("name", ["LineWorld", "gridworld", ""])
def test_fvi_sweep_rejects_an_unknown_mdp_name(tmp_path, name):
    cfg = _tiny_config(tmp_path)
    cfg.fvi.mdp = name
    with pytest.raises(ConfigError, match="fvi.mdp"):
        harness.cmd_fvi_sweep(cfg)
    assert not (tmp_path / "runs").exists()  # rejected before any experiment directory


def test_fvi_sweep_runs_the_named_mdp(tmp_path, monkeypatch):
    class Swept(Exception):
        pass

    def beta_sweep(mdp, *args, **kwargs):
        raise Swept(mdp.name)

    monkeypatch.setattr(fvi, "beta_sweep", beta_sweep)
    for name, mdp_name in (("lineworld", "LineWorld"), ("gridworld2d", "GridWorld2D")):
        cfg = _tiny_config(tmp_path)
        cfg.fvi.mdp = name
        with pytest.raises(Swept, match=f"^{mdp_name}$"):
            harness.cmd_fvi_sweep(cfg)


def test_train_controller_history_keeps_rounds_and_invalid(tmp_path, monkeypatch):
    cfg = _tiny_config(tmp_path, n_baseline_seeds=1)
    baseline_path = tmp_path / "baseline.json"
    controller.save_baseline(harness.build_baseline(cfg), baseline_path)
    # the first hyper-episode's seed: the first draw of train_controller's seed stream
    first_seed = int(np.random.default_rng(cfg.harness.seeds[0]).spawn(4)[3]
                     .integers(0, 2**31 - 1))
    crash_hyper_episode_at(monkeypatch, first_seed, 90)
    info = harness.cmd_train_controller(cfg, baseline_path=baseline_path)
    history = json.loads((Path(info["directory"]) / "history.json").read_text())
    assert info["invalid_count"] == history["invalid_count"] == 1
    [entry] = history["invalid"]
    assert entry["episode"] == 0 and entry["seed"] == first_seed
    assert entry["error"] == {"type": "FloatingPointError", "message": "injected at step 90",
                              "n_real": 90}
    [diag] = history["rounds"]
    assert set(diag) == {"updates", "mean_ratio", "clip_fraction", "dropped"}
    assert diag["updates"] == cfg.ppo.updates_per_round
    assert np.isfinite([diag["mean_ratio"], diag["clip_fraction"]]).all()
    assert len(history["episode_returns"]) == 1


def test_eval_controller_leaves_crashed_seeds_out_of_the_comparison(tmp_path, monkeypatch):
    cfg = _tiny_config(tmp_path)
    ckpt = tmp_path / "controller.json"
    controller.save_controller(controller.init_controller(
        np.random.default_rng(0), config_hash=cfg.hyper_mdp_hash()), ckpt)
    crash_hyper_episode_at(monkeypatch, 0, 90)  # seed 0's controller run
    info = harness.cmd_eval_controller(cfg, ckpt)
    directory = Path(info["directory"])
    rows = harness.read_csv(directory / "comparison.csv")
    assert [r["seed"] for r in rows] == ["1"]
    report = json.loads((directory / "report.json").read_text())
    assert report["n_seeds"] == 1
    assert report["mean_controller"] == float(rows[0]["controller_final"])
    assert report["invalid"] == [{"seed": 0, "error": {
        "type": "FloatingPointError", "message": "injected at step 90", "n_real": 90}}]
    manifest = json.loads((directory / "manifest.json").read_text())
    assert manifest["seed_status"] == {"0": "invalid", "1": "ok"}



def test_eval_controller_with_every_seed_crashed_writes_valid_json(tmp_path, monkeypatch):
    cfg = _tiny_config(tmp_path)
    ckpt = tmp_path / "controller.json"
    controller.save_controller(controller.init_controller(
        np.random.default_rng(0), config_hash=cfg.hyper_mdp_hash()), ckpt)
    for seed in cfg.harness.seeds:
        crash_hyper_episode_at(monkeypatch, seed, 90)
    info = harness.cmd_eval_controller(cfg, ckpt)

    def reject(constant):
        raise ValueError(f"report.json holds {constant}")

    text = (Path(info["directory"]) / "report.json").read_text()
    report = json.loads(text, parse_constant=reject)
    assert report["n_seeds"] == 0
    assert report["mean_controller"] is None and report["mean_default"] is None
    assert report["win_fraction"] is None
    assert [e["seed"] for e in report["invalid"]] == list(cfg.harness.seeds)


@pytest.mark.parametrize("retrain, match", [
    (lambda cfg: None, True),
    (lambda cfg: setattr(cfg.mbpo, "batch_size", 32), False),
    # seeds, output dir and the other harness counts: the hyper-MDP is the same
    (lambda cfg: setattr(cfg, "harness", HarnessConfig(seeds=(7,), output_dir="elsewhere")),
     True),
], ids=["same-config", "other-config", "other-seeds"])
def test_eval_controller_tags_its_curves_apart_and_records_the_config_match(tmp_path, caplog,
                                                                           retrain, match):
    cfg = _tiny_config(tmp_path)  # seeds (0, 1)
    trained_under = _tiny_config(tmp_path)
    retrain(trained_under)
    ckpt = tmp_path / "controller.json"
    controller.save_controller(controller.init_controller(
        np.random.default_rng(0), config_hash=trained_under.hyper_mdp_hash()), ckpt)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        info = harness.cmd_eval_controller(cfg, ckpt)
    directory = Path(info["directory"])
    curves = harness.read_csv(directory / "learning_curves.csv")
    assert [r["run_id"] for r in curves] == [f"{who}-pointmass2d-seed{seed}" for seed in (0, 1)
                                             for who in ("controller", "default")]
    schedule = harness.read_csv(directory / "schedule.csv")
    assert {r["run_id"] for r in schedule} == {"controller-pointmass2d-seed0",
                                               "controller-pointmass2d-seed1"}
    assert json.loads((directory / "report.json").read_text())["config_match"] is match
    # a mismatch is reported once, as a warning, and not again as a log line
    assert sum("transfer" in str(w.message) for w in caught) == (not match)
    assert not [r for r in caplog.records if r.name == "mbrlab.controller"]


def test_eval_controller_evaluates_a_controller_in_another_env(tmp_path):
    # a transfer study is eval-controller under a config naming the target env
    trained_under = _tiny_config(tmp_path)
    ckpt = tmp_path / "controller.json"
    controller.save_controller(controller.init_controller(
        np.random.default_rng(0), config_hash=trained_under.hyper_mdp_hash()), ckpt)
    cfg = _tiny_config(tmp_path)  # seeds (0, 1)
    cfg.env_name = "pendulum"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        info = harness.cmd_eval_controller(cfg, ckpt)
    assert info["config_match"] is False
    assert sum("controller trained under config" in str(w.message) for w in caught) == 1
    curves = harness.read_csv(Path(info["directory"]) / "learning_curves.csv")
    assert [r["run_id"] for r in curves] == [f"{who}-pendulum-seed{seed}" for seed in (0, 1)
                                             for who in ("controller", "default")]


# -------------------------------------------------------------------- baseline

def test_baseline_single_seed_equals_run_log(tmp_path):
    cfg = _tiny_config(tmp_path, n_baseline_seeds=1)
    curve = harness.build_baseline(cfg)
    hc = cfg.resolved_hyper()
    log = mbpo.run_default_mbpo(cfg.env_name, cfg.mbpo, hc, hc.m_train, seed=0)
    assert np.array_equal(curve.values, np.array(log.hyper_rewards))
    assert curve.config_hash == cfg.hyper_mdp_hash()  # what eval-controller compares with


def test_baseline_length_and_averaging(tmp_path):
    cfg = _tiny_config(tmp_path)
    hc = cfg.resolved_hyper()
    curve = harness.build_baseline(cfg)
    assert len(curve) == hc.m_train * 200 // hc.tau
    log0 = mbpo.run_default_mbpo(cfg.env_name, cfg.mbpo, hc, hc.m_train, seed=0)
    log1 = mbpo.run_default_mbpo(cfg.env_name, cfg.mbpo, hc, hc.m_train, seed=1)
    manual = (np.array(log0.hyper_rewards) + np.array(log1.hyper_rewards)) / 2.0
    assert np.allclose(curve.values, manual, atol=1e-15)


def test_baseline_roundtrip(tmp_path):
    cfg = _tiny_config(tmp_path, n_baseline_seeds=1)
    curve = harness.build_baseline(cfg)
    path = tmp_path / "baseline.json"
    controller.save_baseline(curve, path)
    loaded = controller.load_baseline(path)
    assert np.array_equal(loaded.values, curve.values)
    assert loaded.config_hash == curve.config_hash


def _curve(n=4, config_hash="c0ffee"):
    return controller.BaselineCurve(values=np.random.default_rng(5).normal(size=n),
                                    n_seeds=3, config_hash=config_hash)


def test_baseline_roundtrip_is_bit_exact_in_values_and_metadata(tmp_path):
    curve = _curve(n=7)
    path = tmp_path / "baseline.json"
    controller.save_baseline(curve, path)
    loaded = controller.load_baseline(path)
    assert loaded.values.tobytes() == curve.values.tobytes()
    assert (loaded.n_seeds, loaded.config_hash) == (3, "c0ffee")
    doc = json.loads(path.read_text())
    assert (doc["format_version"], doc["kind"], list(doc["arrays"])) == (
        2, "baseline-curve", ["values"])
    assert set(doc["metadata"]) == {"n_seeds", "config_hash"}


def test_corrupt_or_truncated_baseline_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "baseline.json"
    controller.save_baseline(_curve(), path)
    text = path.read_text()
    doc = json.loads(text)
    del doc["metadata"]["config_hash"]
    cases = {"truncated": (text[:len(text) // 2], "cannot read"),
             "corrupt": ("{not json", "cannot read"),
             "missing-key": (json.dumps(doc), "config_hash"),
             "v1": (json.dumps({"format_version": 1, "kind": "baseline-curve",
                                "values": [0.0], "n_seeds": 1, "env_name": "pointmass2d",
                                "config_hash": ""}), "unsupported format_version 1")}
    for name, (content, match) in cases.items():
        bad = tmp_path / f"{name}.json"
        bad.write_text(content)
        with pytest.raises(CheckpointError, match=match):
            controller.load_baseline(bad)


def test_each_artifact_is_refused_by_the_other_kinds_loader(tmp_path):
    ckpt, base = tmp_path / "controller.json", tmp_path / "baseline.json"
    controller.save_controller(controller.init_controller(np.random.default_rng(0)), ckpt)
    controller.save_baseline(_curve(), base)
    with pytest.raises(CheckpointError, match="'hyper-controller' file, not a 'baseline-curve'"):
        controller.load_baseline(ckpt)
    with pytest.raises(CheckpointError, match="'baseline-curve' file, not a 'hyper-controller'"):
        controller.load_controller(base)


def test_eval_controller_refuses_an_unreadable_controller_before_any_directory(tmp_path):
    cfg = _tiny_config(tmp_path)
    base = tmp_path / "baseline.json"
    controller.save_baseline(_curve(), base)
    for path in (base, tmp_path / "missing.json"):
        with pytest.raises(CheckpointError):
            harness.cmd_eval_controller(cfg, path)
    assert not (tmp_path / "runs").exists()


def _with_config_hash(path, value):
    doc = json.loads(path.read_text())
    doc["metadata"]["config_hash"] = value
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("value", [None, 5], ids=["null", "number"])
@pytest.mark.parametrize("save, load", [
    (lambda path: controller.save_controller(
        controller.init_controller(np.random.default_rng(0)), path), controller.load_controller),
    (lambda path: controller.save_baseline(_curve(), path), controller.load_baseline),
], ids=["controller", "baseline"])
def test_loaders_refuse_a_config_hash_that_is_not_a_string(tmp_path, save, load, value):
    path = tmp_path / "artifact.json"
    save(path)
    _with_config_hash(path, value)
    with pytest.raises(CheckpointError, match=f"config_hash {value!r} is not a string"):
        load(path)


def test_eval_controller_refuses_a_null_hash_controller_before_any_directory(tmp_path):
    cfg = _tiny_config(tmp_path)
    path = tmp_path / "controller.json"
    controller.save_controller(controller.init_controller(np.random.default_rng(0)), path)
    _with_config_hash(path, None)
    with pytest.raises(CheckpointError, match="config_hash None is not a string"):
        harness.cmd_eval_controller(cfg, path)
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("n, built_under", [
    (8, lambda cfg: None),                                  # built at m_train = 2
    (4, lambda cfg: setattr(cfg, "env_name", "pendulum")),  # H = 200 there too
    (4, lambda cfg: setattr(cfg.mbpo, "batch_size", 32)),
], ids=["wrong-length", "wrong-env", "other-mbpo"])
def test_train_controller_refuses_a_baseline_that_does_not_fit(tmp_path, monkeypatch, n,
                                                               built_under):
    cfg = _tiny_config(tmp_path)  # m_train = 1: 200 / 50 = 4 values on pointmass2d
    other = _tiny_config(tmp_path)
    built_under(other)
    path = tmp_path / "baseline.json"
    controller.save_baseline(_curve(n, other.hyper_mdp_hash()), path)
    match = (f"baseline of {n} values under hyper-MDP {other.hyper_mdp_hash()[:12]}; the run "
             f"needs m_train \\* H / tau = 4 under {cfg.hyper_mdp_hash()[:12]}")
    with pytest.raises(ValueError, match=match):
        harness.cmd_train_controller(cfg, baseline_path=path)
    assert not (tmp_path / "runs").exists()

    def map_units(fn, items):
        raise AssertionError("a hyper-episode ran")

    monkeypatch.setattr(controller.workers, "map_units", map_units)
    with pytest.raises(ValueError, match=match):
        controller.train_controller(cfg.env_name, cfg.mbpo, cfg.resolved_hyper(), cfg.ppo,
                                    controller.load_baseline(path), 1, seed=0,
                                    episodes_per_round=1)


# ------------------------------------------------------------------ train-mbpo

def test_train_mbpo_metrics_schema(tmp_path):
    cfg = _tiny_config(tmp_path, seeds=(0,))
    info = harness.cmd_train_mbpo(cfg, "default")
    rows = harness.read_csv(harness.Path(info["directory"]) / "metrics-seed0.csv")
    assert len(rows) == 1
    assert list(rows[0]) == harness.SCHEMAS["metrics"]


def test_fixed_schedule_file_replay_bit_exact(tmp_path):
    cfg = _tiny_config(tmp_path, seeds=(3,))
    info = harness.cmd_train_mbpo(cfg, "default")
    sched = harness.Path(info["directory"]) / "schedule-seed3.csv"
    info2 = harness.cmd_train_mbpo(cfg, "fixed-schedule-file", schedule_file=sched)
    m1 = harness.read_csv(harness.Path(info["directory"]) / "metrics-seed3.csv")
    m2 = harness.read_csv(harness.Path(info2["directory"]) / "metrics-seed3.csv")
    # identical apart from the run_id tag
    for a, b in zip(m1, m2):
        for k in harness.SCHEMAS["metrics"][1:]:
            assert a[k] == b[k]


@pytest.mark.parametrize("mode, rows, last_row, match", [
    ("fixed-schedule-file", None, {}, "fixed-schedule-file alone, which replays one of "
                                      "m_train \\* H / tau = 4 rows"),
    ("fixed-schedule-file", 1, {}, "holds 1 rows, not m_train \\* H / tau = 4"),
    ("default", 4, {}, "fixed-schedule-file alone, which replays one of "
                       "m_train \\* H / tau = 4 rows"),
    ("fixed-schedule-file", 4, {"k": 0}, "row 4: k '0' is not int in \\[1, 10\\]"),
    ("fixed-schedule-file", 4, {"k": 11}, "row 4: k '11' is not int in \\[1, 10\\]"),
    ("fixed-schedule-file", 4, {"g": 0}, "row 4: g '0' is not int in \\[1, inf\\]"),
    ("fixed-schedule-file", 4, {"g": "abc"}, "row 4: g 'abc' is not int"),
    ("fixed-schedule-file", 4, {"beta": 1.5}, "row 4: beta '1.5' is not float in \\[0.0, 1.0\\]"),
    ("fixed-schedule-file", 4, {"beta": -1}, "row 4: beta '-1' is not float"),
    ("fixed-schedule-file", 4, {"beta": float("nan")}, "row 4: beta 'nan' is not float"),
    ("fixed-schedule-file", 4, {"model_trained": 2},
     "row 4: model_trained '2' is not int in \\[0, 1\\]"),
], ids=["no-file", "one-row", "file-with-default", "k-zero", "k-above-k_max", "g-zero",
        "g-not-an-int", "beta-above-one", "beta-negative", "beta-nan", "model_trained-two"])
def test_train_mbpo_checks_its_schedule_file_before_any_directory(tmp_path, mode, rows,
                                                                  last_row, match):
    # each bad row, once the last of 4, failed mid-run, or ran silently changed:
    # g 0 as 1 update per step, beta clamped to [0, 1], model_trained 2 as 1,
    # and k above k_max with a D_model sized for k_max
    cfg = _tiny_config(tmp_path, seeds=(3,))  # m_train = 1: 4 rows
    sched = None
    if rows is not None:
        sched = tmp_path / "schedule.csv"
        table = [{"run_id": "r", "real_step": 50 * i, "beta": 0.05, "g": 10, "k": 1,
                  "model_trained": 1} for i in range(rows)]
        table[-1].update(last_row)
        harness.write_csv(sched, "schedule", table)
    with pytest.raises(ValueError, match=match):
        harness.cmd_train_mbpo(cfg, mode, schedule_file=sched)
    assert not (tmp_path / "runs").exists()


def test_sac_modes_never_train_model(tmp_path):
    cfg = _tiny_config(tmp_path, seeds=(0,))
    info = harness.cmd_train_mbpo(cfg, "sac1")
    rows = harness.read_csv(harness.Path(info["directory"]) / "metrics-seed0.csv")
    assert rows[0]["model_trained_flag"] == "0"
    assert rows[0]["g"] == "1"
    info20 = harness.cmd_train_mbpo(cfg, "sac20")
    rows20 = harness.read_csv(harness.Path(info20["directory"]) / "metrics-seed0.csv")
    assert rows20[0]["g"] == "20"


def test_train_mbpo_refuses_an_unknown_mode_before_any_directory(tmp_path):
    cfg = _tiny_config(tmp_path)
    with pytest.raises(ValueError, match="unknown train-mbpo mode 'bogus'"):
        harness.cmd_train_mbpo(cfg, "bogus")
    assert not (tmp_path / "runs").exists()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the injected NaN/inf
@pytest.mark.parametrize("fault", list(FAULTS))
def test_train_mbpo_leaves_a_failed_manifest_on_an_injected_fault(tmp_path, monkeypatch,
                                                                  fault):
    cfg = _tiny_config(tmp_path, seeds=(0,))
    cfg.hyper.m_train = 2
    inject_fault_after_one_episode(monkeypatch, fault)
    _, error_type, message, _ = FAULTS[fault]
    with pytest.raises((FloatingPointError, EnvDiverged)) as excinfo:
        harness.cmd_train_mbpo(cfg)
    assert type(excinfo.value).__name__ == error_type
    [directory] = (tmp_path / "runs").iterdir()
    manifest = json.loads((directory / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == {"type": error_type, "message": message}


# ------------------------------------------------------------------------ PBT

def test_pbt_population_one_is_default_mbpo(tmp_path):
    cfg = _tiny_config(tmp_path, seeds=(5,), pbt_population=1)
    info = harness.cmd_pbt(cfg)
    rows = harness.read_csv(harness.Path(info["directory"]) / "pbt.csv")
    hc = cfg.resolved_hyper()
    assert float(rows[0]["beta"]) == hc.beta_init
    assert int(rows[0]["g"]) == hc.g_init
    log = mbpo.run_default_mbpo(cfg.env_name, cfg.mbpo, hc, 1, seed=5)
    assert float(rows[0]["eval_return"]) == pytest.approx(
        log.eval_rows[0]["eval_return"], rel=1e-12)


def test_pbt_exploit_copies_parameters(tmp_path):
    cfg = _tiny_config(tmp_path)
    hc = cfg.resolved_hyper()
    run_a = mbpo.init_run(cfg.env_name, cfg.mbpo, hc, 0)
    run_b = mbpo.init_run(cfg.env_name, cfg.mbpo, hc, 1)
    inst_a = harness._PbtInstance(run=run_a, params=hc.initial_params(), train_every=1)
    inst_b = harness._PbtInstance(run=run_b, params=hc.initial_params(), train_every=2)
    assert agent_fingerprint(run_a) != agent_fingerprint(run_b)
    harness.pbt_exploit(inst_b, inst_a)
    assert agent_fingerprint(inst_b.run) == agent_fingerprint(inst_a.run)
    assert inst_b.train_every == 1


# ------------------------------------------------------------------- plot-data

def test_plot_data_empty_experiment_emits_headers(tmp_path):
    cfg = _tiny_config(tmp_path)
    empty = tmp_path / "runs" / "empty-exp"
    empty.mkdir(parents=True)
    info = harness.cmd_plot_data(cfg, empty)
    for art in info["artifacts"]:
        rows = harness.read_csv(art)
        assert rows == []
        header = harness.Path(art).read_text().splitlines()[0]
        assert header  # header row present even when empty


def test_plot_data_row_counts_match_sources(tmp_path):
    cfg = _tiny_config(tmp_path, seeds=(0,))
    cfg.hyper.m_train = 2
    info = harness.cmd_train_mbpo(cfg, "default")
    source = Path(info["directory"])
    listing, manifest = sorted(source.iterdir()), (source / "manifest.json").read_bytes()
    out = harness.cmd_plot_data(cfg, source)
    # the output is a run directory of its own; the source is only read
    assert Path(out["directory"]).parent == source.parent
    assert out["source"] == str(source)
    assert sorted(source.iterdir()) == listing
    assert (source / "manifest.json").read_bytes() == manifest
    curves = harness.read_csv(harness.Path(out["directory"]) / "learning_curves.csv")
    metrics = harness.read_csv(harness.Path(info["directory"]) / "metrics-seed0.csv")
    assert len(curves) == len(metrics)
    sched_out = harness.read_csv(harness.Path(out["directory"]) / "schedules.csv")
    sched_in = harness.read_csv(harness.Path(info["directory"]) / "schedule-seed0.csv")
    assert len(sched_out) == len(sched_in)
    assert list(sched_out[0]) == harness.SCHEMAS["schedule"]


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_plot_data_rejects_a_non_directory_source_before_any_directory(tmp_path, kind):
    cfg = _tiny_config(tmp_path)
    source = tmp_path / "source"
    if kind == "file":
        source.write_text("")
    with pytest.raises(NotADirectoryError, match="source"):
        harness.cmd_plot_data(cfg, source)
    assert not (tmp_path / "runs").exists()


# ------------------------------------------------------------------------ CLI

SRC_DIR = ROOT / "src"
CLI_TIMEOUT_S = 120  # the fvi-sweep smoke run takes ~1 s on 2 cores


def _run_cli(args, tmp_path, config=None):
    # The child runs in tmp_path so that relative output dirs stay out of the
    # repo; a relative PYTHONPATH entry would not resolve from there, so the
    # package is found through the absolute src dir.
    cmd = [sys.executable, "-m", "mbrlab.cli"]
    if config:
        cmd += ["--config", str(config)]
    cmd += args
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path,
                          env=env, timeout=CLI_TIMEOUT_S)


def test_cli_fvi_sweep_smoke(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "fvi": {"beta_grid": [0.5, 1.0], "n_real_grid": [64], "n_seeds": 1,
                "grid_size": 16, "n_eval": 32, "iterations": 2, "n_bootstrap": 3},
        "harness": {"output_dir": str(tmp_path / "runs")},
    }))
    res = _run_cli(["fvi-sweep"], tmp_path, cfg_path)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert "argmin_beta" in out


def test_cli_chains_baseline_controller_and_evaluation(tmp_path):
    # each command reads back the artifact the one before it wrote
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "mbpo": {"warmup_steps": 100, "updates_start": 64, "batch_size": 64,
                 "n_members": 2, "agent_hidden": [16, 16], "model_hidden": [16, 16]},
        "hyper": {"m_train": 1, "m_eval": 1},
        "harness": {"seeds": [0, 1], "n_baseline_seeds": 1, "n_hyper_episodes": 2,
                    "episodes_per_round": 2, "output_dir": str(tmp_path / "runs")},
    }))

    def reject(constant):
        raise ValueError(f"summary holds {constant}")

    def run(*args):
        res = _run_cli(list(args), tmp_path, cfg_path)
        assert res.returncode == 0, res.stderr
        return json.loads(res.stdout, parse_constant=reject)

    baseline = run("build-baseline")["baseline_path"]
    ckpt = run("train-controller", "--baseline", baseline)["controller_path"]
    assert run("eval-controller", ckpt)["n_seeds"] == 2


def test_cli_subcommands_are_the_harness_commands():
    [subparsers] = [a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    commands = {name[len("cmd_"):].replace("_", "-")
                for name in vars(harness) if name.startswith("cmd_")}
    assert set(subparsers.choices) == commands


def test_cli_error_record_on_bad_input(tmp_path):
    res = _run_cli(["plot-data", str(tmp_path / "missing-dir")], tmp_path)
    assert res.returncode == 1, res.stderr
    record = json.loads(res.stderr.strip().splitlines()[-1])
    assert record["status"] == "error"
    assert record["command"] == "plot-data"


def test_cli_rejects_unknown_config_key(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"not_a_key": 1}))
    res = _run_cli(["fvi-sweep"], tmp_path, cfg_path)
    assert res.returncode == 1, res.stderr
    record = json.loads(res.stderr.strip().splitlines()[-1])
    assert record["error_type"] == "ConfigError"
