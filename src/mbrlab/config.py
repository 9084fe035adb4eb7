"""Structured run configuration with content hashing.

One JSON document per experiment. Unknown keys are rejected so typos cannot
silently fall back to defaults; the content hash is computed over the
canonical (sorted-key) form, so key order never changes identity. Only two
environment-variable overrides exist: MBRLAB_SEED and MBRLAB_OUTDIR.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .controller import PpoConfig
from .envs import make_env
from .fvi import MDPS, FviConfig, check_sweep
from .hyper_mdp import HyperMdpConfig, hyper_mdp_hash
from .mbpo import MbpoConfig


class ConfigError(ValueError):
    pass


@dataclass
class FviSweepConfig:
    mdp: str = "lineworld"          # or "gridworld2d"
    beta_grid: tuple = (0.05, 0.1, 0.2, 0.4, 0.7, 1.0)
    n_real_grid: tuple = (256, 1024, 4096)
    sigma: float = 0.05
    iterations: int = 40
    n_seeds: int = 20
    grid_size: int = 48
    n_eval: int = 512
    p: float = 2.0
    n_bootstrap: int = 20

    def base(self) -> FviConfig:
        """The settings every cell of the sweep shares."""
        return FviConfig(grid_size=self.grid_size, n_eval=self.n_eval, p=self.p)

    def validate(self):
        if self.mdp not in MDPS:
            raise ConfigError(f"fvi.mdp {self.mdp!r} is not one of {sorted(MDPS)}")
        check_sweep(self.beta_grid, self.n_real_grid, self.sigma, self.iterations,
                    self.n_seeds, self.n_bootstrap, self.base())


@dataclass
class HarnessConfig:
    seeds: tuple = (0, 1, 2, 3, 4)
    output_dir: str = "runs"
    n_baseline_seeds: int = 5
    n_hyper_episodes: int = 40
    episodes_per_round: int = 4
    pbt_population: int = 4
    pbt_replace_frac: float = 0.2
    pbt_reinit_prob: float = 0.25

    def validate(self):
        if not self.seeds or not all(isinstance(s, int) and s >= 0 for s in self.seeds):
            raise ConfigError(f"harness.seeds {list(self.seeds)} must be non-negative ints")
        for name in ("n_baseline_seeds", "n_hyper_episodes", "episodes_per_round",
                     "pbt_population"):
            if getattr(self, name) < 1:
                raise ConfigError(f"harness.{name} must be >= 1")
        if not 0.0 < self.pbt_replace_frac <= 1.0:
            raise ConfigError("harness.pbt_replace_frac must lie in (0, 1]")
        # the worst n_swap exploit the best n_swap, which must not overlap
        if self.pbt_population > 1 and self.pbt_swaps() > self.pbt_population // 2:
            raise ConfigError(
                f"harness.pbt_replace_frac {self.pbt_replace_frac} replaces {self.pbt_swaps()} "
                f"of pbt_population {self.pbt_population} instances, above half "
                f"({self.pbt_population // 2})")
        if not 0.0 <= self.pbt_reinit_prob <= 1.0:
            raise ConfigError("harness.pbt_reinit_prob must lie in [0, 1]")

    def pbt_swaps(self) -> int:
        """How many PBT instances are replaced after each episode."""
        return max(1, round(self.pbt_replace_frac * self.pbt_population))


@dataclass
class RunConfig:
    env_name: str = "pointmass2d"
    mbpo: MbpoConfig = field(default_factory=MbpoConfig)
    hyper: HyperMdpConfig = field(default_factory=HyperMdpConfig)
    ppo: PpoConfig = field(default_factory=PpoConfig)
    fvi: FviSweepConfig = field(default_factory=FviSweepConfig)
    harness: HarnessConfig = field(default_factory=HarnessConfig)

    def __post_init__(self):
        self.hyper = dataclasses.replace(self.hyper)  # keep instances private

    def validate(self) -> None:
        """Every section's check, `hyper` at the env's horizon: settings that
        would hang, crash or run zero episodes raise before any work."""
        self.mbpo.validate()
        self.hyper.validate(make_env(self.env_name).spec.horizon)
        self.ppo.validate()
        self.fvi.validate()
        self.harness.validate()

    def resolved_hyper(self) -> HyperMdpConfig:
        return self.hyper.for_env(self.env_name)

    def to_dict(self) -> dict:
        return _as_dict(self)

    def content_hash(self) -> str:
        return hashlib.sha256(json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()

    def hyper_mdp_hash(self) -> str:
        return hyper_mdp_hash(self.env_name, self.mbpo, self.resolved_hyper())


def _as_dict(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: _as_dict(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_as_dict(v) for v in obj]
    return obj


def _from_dict(cls, data: dict, path: str):
    known = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys at {path or 'top level'}: {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        f = known[name]
        template = (f.default_factory()
                    if f.default_factory is not dataclasses.MISSING else None)
        if dataclasses.is_dataclass(template):
            if not isinstance(value, dict):
                raise ConfigError(f"{path}.{name} must be a mapping")
            kwargs[name] = _from_dict(type(template), value, f"{path}.{name}".strip("."))
        elif isinstance(value, list):
            kwargs[name] = tuple(value)
        else:
            kwargs[name] = value
    return cls(**kwargs)


def from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    return _from_dict(RunConfig, data, "")


def load(path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return apply_env_overrides(from_dict(data))


def apply_env_overrides(config: RunConfig) -> RunConfig:
    seed = os.environ.get("MBRLAB_SEED")
    if seed is not None:
        config.harness.seeds = (int(seed),)
    outdir = os.environ.get("MBRLAB_OUTDIR")
    if outdir is not None:
        config.harness.output_dir = outdir
    return config
