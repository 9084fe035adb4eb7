"""Empirical testbed for mixture-sampled fitted value iteration.

Small deterministic MDPs on [0,1]^d where each Bellman backup draws its next
state from the true dynamics with probability beta and from a half-normally
corrupted copy otherwise. An exact value-iteration oracle on a fine grid
supplies the reference return, and sweep machinery measures how the best
beta moves as the real-sample budget grows.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import workers


logger = logging.getLogger(__name__)


def _bump(center: np.ndarray, states: np.ndarray, a_idx: int) -> np.ndarray:
    """Gaussian reward bump at `center`, whatever the action."""
    d2 = ((states - center) ** 2).sum(axis=-1)
    return np.exp(-d2 / 0.02)


@dataclass(frozen=True)
class FviMdp:
    """Deterministic MDP on the unit box with a finite action set.

    Transitions are clipped displacements; reward_fn(states, a_idx) must stay
    within [0, r_max], and must pickle for `beta_sweep` to send the MDP to its
    workers.
    """

    name: str
    dim: int
    actions: np.ndarray  # (n_actions, dim) displacement vectors
    gamma: float
    r_max: float
    reward_fn: object

    @property
    def n_actions(self) -> int:
        return self.actions.shape[0]

    @property
    def v_max(self) -> float:
        return self.r_max / (1.0 - self.gamma)

    def transition(self, states: np.ndarray, a_idx: int) -> np.ndarray:
        return np.clip(states + self.actions[a_idx], 0.0, 1.0)

    def reward(self, states: np.ndarray, a_idx: int) -> np.ndarray:
        return self.reward_fn(states, a_idx)


def line_world() -> FviMdp:
    """d=1, A={-1,0,+1} scaled by 0.05, reward bump at s=0.8, gamma=0.95."""
    return FviMdp(
        name="LineWorld", dim=1,
        actions=0.05 * np.array([[-1.0], [0.0], [1.0]]),
        gamma=0.95, r_max=1.0, reward_fn=functools.partial(_bump, np.array([0.8])),
    )


def grid_world_2d() -> FviMdp:
    """d=2 variant: 5 compass moves, reward bump at (0.7, 0.3)."""
    return FviMdp(
        name="GridWorld2D", dim=2,
        actions=0.05 * np.array(
            [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        gamma=0.95, r_max=1.0, reward_fn=functools.partial(_bump, np.array([0.7, 0.3])),
    )


MDPS = {"lineworld": line_world, "gridworld2d": grid_world_2d}  # config name -> constructor


# ---------------------------------------------------------------------------
# Piecewise-multilinear value functions on a uniform knot grid
# ---------------------------------------------------------------------------


@dataclass
class ValueFn:
    """Knot values on a uniform grid over [0,1]^d with multilinear interpolation."""

    dim: int
    grid_size: int
    values: np.ndarray  # flat, length grid_size**dim
    v_max: float

    @classmethod
    def zeros(cls, dim: int, grid_size: int, v_max: float) -> "ValueFn":
        return cls(dim, grid_size, np.zeros(grid_size ** dim), v_max)

    def basis(self, states: np.ndarray):
        """Flat knot indices and weights (N, 2^d): bit d of corner c picks the upper knot
        on axis d (axis 0 most significant); states off [0, 1] extrapolate the edge cell.
        Both are transposed views of corner-major arrays, so `idx.T[c]` is contiguous."""
        g = self.grid_size
        frac = states * (g - 1)
        cell = np.fmin(np.fmax(np.floor(frac), 0.0), g - 2)
        frac -= cell
        lo = 1.0 - frac
        cell = cell.astype(np.int64)
        idx = np.empty((1 << self.dim, frac.shape[0]), dtype=np.int64)
        wgt = np.empty(idx.shape)
        for c in range(1 << self.dim):
            flat = cell[:, 0] + (c & 1)
            w = frac[:, 0] if c & 1 else lo[:, 0]
            for d in range(1, self.dim):
                hi = (c >> d) & 1
                flat = flat * g + (cell[:, d] + hi)
                w = w * (frac[:, d] if hi else lo[:, d])
            idx[c] = flat
            wgt[c] = w
        return idx.T, wgt.T

    def __call__(self, states: np.ndarray) -> np.ndarray:
        idx, wgt = self.basis(states)
        return _interpolate(self.values, idx.T, wgt.T)


def _interpolate(values: np.ndarray, idx: np.ndarray, wgt: np.ndarray) -> np.ndarray:
    """sum_c values[idx[c]] * wgt[c] over corner-major (2^d, N) arrays, one corner
    at a time in corner order: the order and bits of `.sum(axis=1)` on (N, 2^d)."""
    out = values[idx[0]] * wgt[0]
    for c in range(1, len(idx)):
        out += values[idx[c]] * wgt[c]
    return out


def fit_value(states: np.ndarray, targets: np.ndarray, prev: ValueFn,
              p: float = 2.0) -> ValueFn:
    """argmin over the multilinear class of sum |f(s_i) - target_i|^p.

    p=2 solves the normal equations, with a 1e-8 ridge, exactly; p=1 (the
    only other p) runs IRLS capped at 50 iterations. Knots no sample touches
    keep their previous values; fitted knot values are clipped to [0, v_max].
    """
    if states.shape[0] != targets.shape[0] or states.shape[0] < 1:
        raise ValueError("states/targets length mismatch or empty")
    if not (np.isfinite(states).all() and np.isfinite(targets).all()):
        raise FloatingPointError("fit_value: non-finite states or targets")
    idx, wgt = prev.basis(states)
    n_knots = prev.grid_size ** prev.dim
    # corner-major; the (corner i, corner j, sample) order fixes each knot pair's sum
    idx_c, wgt_c = idx.T, wgt.T
    pairs = (idx_c[:, None, :] * n_knots + idx_c[None, :, :]).ravel()

    def solve_weighted(sample_w):
        sw = sample_w * wgt_c
        a = np.bincount(pairs, (sw[:, None, :] * wgt_c[None, :, :]).ravel(),
                        minlength=n_knots * n_knots).reshape(n_knots, n_knots)
        b = np.bincount(idx_c.ravel(), (sw * targets).ravel(), minlength=n_knots)
        support = np.diag(a) > 0.0
        vals = prev.values.copy()
        sub = a[np.ix_(support, support)]
        sub[np.diag_indices_from(sub)] += 1e-8
        try:
            vals[support] = np.linalg.solve(sub, b[support])
        except np.linalg.LinAlgError:
            logger.warning("singular normal equations; retrying with ridge 1e-5")
            sub[np.diag_indices_from(sub)] += 1e-5
            vals[support] = np.linalg.solve(sub, b[support])
        return vals

    vals = solve_weighted(np.ones(states.shape[0]))  # the p=1 LS warm start
    if p == 1.0:
        for _ in range(50):
            resid = np.abs(_interpolate(vals, idx_c, wgt_c) - targets)
            new_vals = solve_weighted(1.0 / np.maximum(resid, 1e-6))
            converged = np.max(np.abs(new_vals - vals)) < 1e-10
            vals = new_vals
            if converged:
                break

    return ValueFn(prev.dim, prev.grid_size, np.clip(vals, 0.0, prev.v_max), prev.v_max)


# ---------------------------------------------------------------------------
# Corruption model and the mixture backup
# ---------------------------------------------------------------------------


def half_normal(sigma: float, rng: np.random.Generator, size) -> np.ndarray:
    """|Z| * sigma with Z standard normal; sigma=0 gives exact zeros."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    return np.abs(rng.normal(size=size)) * sigma


def corrupt(true_next: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """The corrupted model: true next states (n, d), d 1 or 2, displaced by a
    half-normal step of scale sigma in a uniformly random direction."""
    n, d = true_next.shape
    xi = half_normal(sigma, rng, size=n)
    if d == 1:
        direction = (rng.integers(0, 2, size=(n, 1)) * 2 - 1).astype(np.float64)
    else:
        angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
        direction = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    return np.clip(true_next + xi[:, None] * direction, 0.0, 1.0)


BACKUP_BLOCK = 2048  # states per scoring block of the mixture backup


def beta_mixture_backup(value_fn: ValueFn, states: np.ndarray, mdp: FviMdp,
                        sigma: float, beta: float, rng: np.random.Generator) -> np.ndarray:
    """Targets max_a (r + gamma * V(next)) where next comes from the true
    dynamics w.p. beta and from `corrupt` under sigma otherwise.

    The Bernoulli, half-normal, and direction draws are consumed for every
    (state, action) regardless of which branch wins, so sigma=0 runs are
    bit-identical across beta. Rewards are always the true ones; targets are
    clipped to [0, v_max].
    """
    n = states.shape[0]
    nexts = np.stack([mdp.transition(states, a) for a in range(mdp.n_actions)])
    for slab in nexts:  # views into nexts
        use_model = rng.uniform(size=n) >= beta
        slab[use_model] = corrupt(slab, sigma, rng)[use_model]
    # score in blocks of states: the lookahead's temporaries stay cache-sized and
    # are reused from the heap instead of being mapped and faulted in per call
    out = np.empty(n)
    for lo in range(0, n, BACKUP_BLOCK):
        blk = slice(lo, lo + BACKUP_BLOCK)
        rewards = np.stack([mdp.reward(states[blk], a) for a in range(mdp.n_actions)])
        scores = _scores(mdp, value_fn, rewards, nexts[:, blk].reshape(-1, mdp.dim))
        np.clip(scores.max(axis=0), 0.0, value_fn.v_max, out=out[blk])
    return out


# ---------------------------------------------------------------------------
# Exact oracle and greedy-policy evaluation
# ---------------------------------------------------------------------------


@dataclass
class ExactOracle:
    value_fn: ValueFn
    greedy_return: float  # mean return of the oracle-greedy policy from rho


def _truncation_horizon(mdp: FviMdp) -> int:
    return int(math.ceil(math.log(1e-4 / mdp.v_max) / math.log(mdp.gamma))) + 1


def _action_stack(mdp: FviMdp, states: np.ndarray):
    """True rewards (A, N) and next states (A*N, d) of every action, action-major."""
    rewards = np.stack([mdp.reward(states, a) for a in range(mdp.n_actions)])
    nexts = np.concatenate([mdp.transition(states, a) for a in range(mdp.n_actions)])
    return rewards, nexts


def _scores(mdp: FviMdp, value_fn: ValueFn, rewards, nexts) -> np.ndarray:
    """r + gamma * V(next) per (action, state), with V evaluated once on the stack."""
    return rewards + mdp.gamma * value_fn(nexts).reshape(rewards.shape)


def policy_return(mdp: FviMdp, value_fn: ValueFn, states: np.ndarray) -> np.ndarray:
    """Discounted true return of the greedy-w.r.t.-value_fn policy, truncated
    once the remaining tail is below 1e-4 of scale."""
    n = states.shape[0]
    rows = np.arange(n)
    returns = np.zeros(n)
    disc = 1.0
    fixed = False
    for _ in range(_truncation_horizon(mdp)):
        # the MDP is deterministic: once no state moves, later steps repeat this one
        if not fixed:
            rewards, nexts = _action_stack(mdp, states)
            acts = _scores(mdp, value_fn, rewards, nexts).argmax(axis=0)
            r = rewards[acts, rows]
            nxt = nexts[acts * n + rows]
            fixed = np.array_equal(nxt, states)
            states = nxt
        returns += disc * r
        disc *= mdp.gamma
    return returns


def exact_vi(mdp: FviMdp, fine_grid_size: int = 256, tol: float = 1e-9,
             n_eval: int = 256) -> ExactOracle:
    """Value iteration on a fine grid until the sup-norm change is below tol,
    plus the mean greedy return from n_eval rho (uniform, seed 0) samples."""
    v = ValueFn.zeros(mdp.dim, fine_grid_size, mdp.v_max)
    axes = [np.linspace(0.0, 1.0, fine_grid_size)] * mdp.dim
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, mdp.dim)
    rewards, nexts = _action_stack(mdp, mesh)
    for sweep in itertools.count():
        backed = _scores(mdp, v, rewards, nexts).max(axis=0)
        delta = np.max(np.abs(backed - v.values))
        if not np.isfinite(delta):
            raise FloatingPointError(f"exact_vi: non-finite backup at sweep {sweep}")
        v.values = backed
        if delta < tol:
            break
    rho = np.random.default_rng(0).uniform(size=(n_eval, mdp.dim))
    return ExactOracle(value_fn=v, greedy_return=float(policy_return(mdp, v, rho).mean()))


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------


@dataclass
class FviConfig:
    beta: float = 1.0
    sigma: float = 0.0
    n_states: int = 1024   # sampled states per iteration
    iterations: int = 40
    p: float = 2.0
    grid_size: int = 48
    n_eval: int = 512      # evaluation rollouts from rho
    seed: int = 0

    def validate(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        for name, low in (("sigma", 0), ("n_states", 1), ("iterations", 0),
                          ("grid_size", 2), ("n_eval", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} {getattr(self, name)} is below {low}")
        if self.p not in (1.0, 2.0):
            raise ValueError(f"p {self.p} is not 1 or 2")


@dataclass
class FviResult:
    value_fn: ValueFn
    discrepancy: float
    config: FviConfig


def run_fvi(mdp: FviMdp, config: FviConfig, oracle: ExactOracle) -> FviResult:
    """K iterations of mixture backup + fit, then the return discrepancy
    (E_rho |V*(s) - V^pi_K(s)|^p)^(1/p) against the oracle, with both returns
    estimated by truncated greedy rollouts through the true dynamics."""
    config.validate()
    return _fit_and_score(mdp, config, *_oracle_scores(mdp, config, oracle))


def _oracle_scores(mdp: FviMdp, config: FviConfig, oracle: ExactOracle):
    """A run's rho samples and the oracle's returns from them (seed and n_eval only)."""
    eval_stream = np.random.default_rng(config.seed).spawn(3)[2]
    eval_states = eval_stream.uniform(size=(config.n_eval, mdp.dim))
    return eval_states, policy_return(mdp, oracle.value_fn, eval_states)


def _fit_and_score(mdp: FviMdp, config: FviConfig, eval_states: np.ndarray,
                   v_star: np.ndarray) -> FviResult:
    state_stream, corrupt_stream, _ = np.random.default_rng(config.seed).spawn(3)
    v = ValueFn.zeros(mdp.dim, config.grid_size, mdp.v_max)
    for _ in range(config.iterations):
        states = state_stream.uniform(size=(config.n_states, mdp.dim))
        targets = beta_mixture_backup(v, states, mdp, config.sigma, config.beta,
                                      corrupt_stream)
        v = fit_value(states, targets, v, p=config.p)
    v_pik = policy_return(mdp, v, eval_states)
    disc = float(np.mean(np.abs(v_star - v_pik) ** config.p) ** (1.0 / config.p))
    return FviResult(value_fn=v, discrepancy=disc, config=config)


def _sweep_cell(mdp: FviMdp, cell) -> float:
    """The discrepancy of one sweep cell: (config, eval_states, v_star)."""
    return _fit_and_score(mdp, *cell).discrepancy


def states_per_iteration(n_real: float, beta: float, n_actions: int) -> int:
    """Invert N_real = N * |A| * beta (expected real samples per iteration)."""
    return max(1, int(round(n_real / (beta * n_actions))))


def check_sweep(beta_grid, n_real_grid, sigma: float, iterations: int, n_seeds: int,
                n_bootstrap: int, base: FviConfig) -> None:
    """Raise ValueError, naming the `fvi` config key at fault, unless both grids
    are non-empty, every beta lies in (0, 1], every N_real is >= 1, there is a
    seed and a bootstrap draw, and `base` under this sigma and iteration count
    is a valid FviConfig; then every cell of the sweep is valid too."""
    for name, grid in (("beta_grid", beta_grid), ("n_real_grid", n_real_grid)):
        if len(grid) == 0:
            raise ValueError(f"{name} is empty")
    for beta in beta_grid:
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta_grid: beta {beta} is outside (0, 1]")
    for n_real in n_real_grid:
        if not n_real >= 1:
            raise ValueError(f"n_real_grid: N_real {n_real} is below 1")
    if n_seeds < 1:
        raise ValueError(f"n_seeds {n_seeds}: the sweep has no seeds")
    if n_bootstrap < 1:
        raise ValueError(f"n_bootstrap {n_bootstrap} is below 1")
    replace(base, sigma=sigma, iterations=iterations).validate()


def beta_sweep(mdp: FviMdp, beta_grid, n_real_grid, sigma: float, iterations: int,
               seeds, base: FviConfig, oracle: ExactOracle, n_bootstrap: int,
               bootstrap_seed: int = 0) -> dict:
    """Full factorial (beta x N_real x seed) sweep.

    Returns rows (beta, n_real, sigma, iterations, seed, discrepancy), a per
    (n_real, beta) mean/std table, the argmin beta per N_real row, and a
    bootstrap-over-seeds estimate of how often the argmin curve is
    non-decreasing in N_real. `check_sweep` runs before any work. The cells
    run on `workers.map_units`, so `mdp` must pickle; each owns its seed's
    streams, and the results do not depend on the worker count.
    """
    beta_grid = list(beta_grid)
    n_real_grid = list(n_real_grid)
    seeds = list(seeds)
    check_sweep(beta_grid, n_real_grid, sigma, iterations, len(seeds), n_bootstrap, base)
    rows, cells = [], []
    for n_real, beta in itertools.product(n_real_grid, beta_grid):
        n_states = states_per_iteration(n_real, beta, mdp.n_actions)
        for seed in seeds:
            cells.append(replace(base, beta=beta, sigma=sigma, n_states=n_states,
                                 iterations=iterations, seed=seed))
            rows.append({"beta": beta, "n_real": n_real, "sigma": sigma,
                         "iterations": iterations, "seed": seed})
    # the oracle side of every cell of a seed, scored once per sweep; each cell
    # carries only its own seed's arrays to its worker
    scored = [_oracle_scores(mdp, replace(base, seed=seed), oracle) for seed in seeds]
    flat = workers.map_units(functools.partial(_sweep_cell, mdp),
                             [(cfg, *scored[i % len(seeds)]) for i, cfg in enumerate(cells)])
    for row, d in zip(rows, flat):
        row["discrepancy"] = d
    disc = np.reshape(flat, (len(n_real_grid), len(beta_grid), len(seeds)))
    mean = disc.mean(axis=2)
    std = disc.std(axis=2)
    argmin_beta = [beta_grid[int(np.argmin(mean[i]))] for i in range(len(n_real_grid))]

    boot = np.random.default_rng(bootstrap_seed)
    n_seeds = len(seeds)
    monotone = 0
    for _ in range(n_bootstrap):
        pick = boot.integers(0, n_seeds, size=n_seeds)
        bmean = disc[:, :, pick].mean(axis=2)
        curve = [beta_grid[int(np.argmin(bmean[i]))] for i in range(len(n_real_grid))]
        if all(curve[i] <= curve[i + 1] for i in range(len(curve) - 1)):
            monotone += 1
    return {
        "rows": rows,
        "beta_grid": beta_grid,
        "n_real_grid": n_real_grid,
        "mean": mean,
        "std": std,
        "argmin_beta": argmin_beta,
        "bootstrap_monotone_frac": monotone / n_bootstrap,
    }


def error_histogram_check(sigma: float, n_samples: int, bins: int,
                          rng: np.random.Generator) -> dict:
    """Sample half-normal magnitudes, histogram them, and report the
    Kolmogorov-Smirnov distance to the analytic CDF 2*Phi(x/sigma) - 1."""
    x = half_normal(sigma, rng, size=n_samples)
    edges = np.linspace(0.0, max(x.max(), 1e-12), bins + 1)
    counts, edges = np.histogram(x, bins=edges)
    freqs = counts / n_samples
    if sigma == 0.0:
        # degenerate law: point mass at 0, so the distance is 0 iff every
        # sample is exactly 0 (the continuous KS formula does not apply)
        ks = 0.0 if np.all(x == 0.0) else 1.0
    else:
        from scipy.special import erf  # deferred, so importing mbrlab loads no scipy
        xs = np.sort(x)
        cdf = erf(xs / (sigma * np.sqrt(2.0)))
        n = len(xs)
        upper = np.max(np.arange(1, n + 1) / n - cdf)
        lower = np.max(cdf - np.arange(0, n) / n)
        ks = float(max(upper, lower))
    return {"edges": edges, "freqs": freqs, "ks_distance": ks, "mean": float(x.mean())}
