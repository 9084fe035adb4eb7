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

from . import nets, workers


logger = logging.getLogger(__name__)


def _bump(center: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Gaussian reward bump at `center`."""
    d2 = ((states - center) ** 2).sum(axis=-1)
    return np.exp(-d2 / 0.02)


@dataclass(frozen=True)
class FviMdp:
    """Deterministic MDP on the unit box with a finite action set.

    Transitions are clipped displacements. The reward depends on the state
    alone: reward_fn(states) must stay within [0, r_max], and must pickle for
    `beta_sweep` to send the MDP to its workers.
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

    def transition(self, states: np.ndarray, a_idx: int, out=None) -> np.ndarray:
        """Next states of action a_idx, written into `out` when given."""
        out = np.add(states, self.actions[a_idx], out=out)
        return np.clip(out, 0.0, 1.0, out=out)


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

    def basis(self, states: np.ndarray, out=None):
        """Flat knot indices and weights (N, 2^d): bit d of corner c picks the upper knot
        on axis d (axis 0 most significant); states off [0, 1] extrapolate the edge cell.
        Both are transposed views of corner-major (2^d, N) arrays, the pair `out` when
        given, so `idx.T[c]` is contiguous."""
        g = self.grid_size
        frac = states * (g - 1)
        cell = np.floor(frac)
        np.fmin(np.fmax(cell, 0.0, out=cell), g - 2, out=cell)
        frac -= cell
        lo = 1.0 - frac
        cell = cell.astype(np.int64)
        if out is None:
            out = (np.empty((1 << self.dim, frac.shape[0]), dtype=np.int64),
                   np.empty((1 << self.dim, frac.shape[0])))
        idx, wgt = out
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


BACKUP_BLOCK = 2048  # states per block of the backup's scoring and the fit's basis


class FviWorkspace:
    """One sweep cell's per-iteration arrays at n states, carved from one
    `nets.mapped_zeros` block.

    A cell builds one and passes it to every `beta_mixture_backup` and
    `fit_value` call, which then allocate none of their n-row arrays
    (218-874 KB each at n = 27,307): glibc would hand such arrays back to the
    kernel and fault them in again every iteration. `states` (n, d) and
    `targets` (n,) hold the iteration's samples and backed-up values. The
    backup's true next states `nexts` (A, n, d), mixing draws `draws`,
    half-normal steps `step`, corrupted copy `moved` (n, d) and direction
    scratch `angle` and `turn` (n,) share their memory with the fit's
    corner-major basis `idx`/`wgt` (2^d, n), knot pairs `pairs` and
    `pair_wgt` (2^d, 2^d, n) and weighted basis `sw` (2^d, n): a backup is
    done before the fit that follows it starts.
    """

    def __init__(self, n: int, dim: int, n_actions: int):
        c, f, i = 1 << dim, np.float64, np.int64
        own = [("states", (n, dim), f), ("targets", (n,), f)]
        backup = [("nexts", (n_actions, n, dim), f), ("draws", (n,), f), ("step", (n,), f),
                  ("moved", (n, dim), f), ("angle", (n,), f), ("turn", (n,), f)]
        fit = [("idx", (c, n), i), ("wgt", (c, n), f), ("pairs", (c, c, n), i),
               ("pair_wgt", (c, c, n), f), ("sw", (c, n), f)]

        def size(part):
            return sum(math.prod(shape) for _, shape, _ in part)

        block = nets.mapped_zeros(size(own) + max(size(backup), size(fit)))  # 8-byte slots

        def carve(part, start):
            for name, shape, dtype in part:
                end = start + math.prod(shape)
                setattr(self, name, block[start:end].view(dtype).reshape(shape))
                start = end
            return start

        shared = carve(own, 0)
        carve(backup, shared)
        carve(fit, shared)
        # the IRLS sample weights (n,): each solve reads them into `sw` before it
        # writes the pair weights over them, so they take no memory of their own
        self.sample_w = self.pair_wgt[0, 0]


def fit_value(states: np.ndarray, targets: np.ndarray, prev: ValueFn,
              p: float = 2.0, ws: FviWorkspace | None = None) -> ValueFn:
    """argmin over the multilinear class of sum |f(s_i) - target_i|^p.

    p=2 solves the normal equations, with a 1e-8 ridge, exactly; p=1 (the
    only other p) runs IRLS capped at 50 iterations. Knots no sample touches
    keep their previous values; fitted knot values are clipped to [0, v_max].
    The per-sample arrays live in `ws`, a workspace for these n states (built
    for the call when none is passed), whose backup arrays this overwrites.
    """
    n = states.shape[0]
    if n != targets.shape[0] or n < 1:
        raise ValueError("states/targets length mismatch or empty")
    if not (np.isfinite(states).all() and np.isfinite(targets).all()):
        raise FloatingPointError("fit_value: non-finite states or targets")
    ws = FviWorkspace(n, prev.dim, 0) if ws is None else ws
    if ws.idx.shape != (1 << prev.dim, n):
        raise ValueError(f"workspace of basis shape {ws.idx.shape} for {n} states in d={prev.dim}")
    # the basis is row-wise, so blocks of rows keep its bits and temporaries cache-sized
    for lo in range(0, n, BACKUP_BLOCK):
        blk = slice(lo, lo + BACKUP_BLOCK)
        prev.basis(states[blk], out=(ws.idx[:, blk], ws.wgt[:, blk]))
    idx_c, wgt_c = ws.idx, ws.wgt
    n_knots = prev.grid_size ** prev.dim
    # corner-major; the (corner i, corner j, sample) order fixes each knot pair's
    # sum, so one bincount takes every sample at once
    pairs = np.multiply(idx_c[:, None, :], n_knots, out=ws.pairs)
    pairs += idx_c[None, :, :]
    pairs = pairs.ravel()

    def solve_weighted(sample_w):
        sw = np.multiply(sample_w, wgt_c, out=ws.sw)
        pair_wgt = np.multiply(sw[:, None, :], wgt_c[None, :, :], out=ws.pair_wgt)
        a = np.bincount(pairs, pair_wgt.ravel(),
                        minlength=n_knots * n_knots).reshape(n_knots, n_knots)
        b = np.bincount(idx_c.ravel(), np.multiply(sw, targets, out=sw).ravel(),
                        minlength=n_knots)
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

    weights = ws.sample_w
    weights.fill(1.0)
    vals = solve_weighted(weights)  # the p=1 LS warm start
    if p == 1.0:
        for _ in range(50):
            # IRLS weights 1 / max(|f(s_i) - target_i|, 1e-6), in place
            np.subtract(_interpolate(vals, idx_c, wgt_c), targets, out=weights)
            np.abs(weights, out=weights)
            np.divide(1.0, np.maximum(weights, 1e-6, out=weights), out=weights)
            new_vals = solve_weighted(weights)
            converged = np.max(np.abs(new_vals - vals)) < 1e-10
            vals = new_vals
            if converged:
                break

    return ValueFn(prev.dim, prev.grid_size, np.clip(vals, 0.0, prev.v_max), prev.v_max)


# ---------------------------------------------------------------------------
# Corruption model and the mixture backup
# ---------------------------------------------------------------------------


def half_normal(sigma: float, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """`out` filled with |Z| * sigma, Z standard normal (the draws of
    `normal(size=out.shape)`); sigma=0 gives exact zeros."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    rng.standard_normal(out=out)
    np.abs(out, out=out)
    out *= sigma
    return out


def _corrupt(true_next: np.ndarray, sigma: float, rng: np.random.Generator,
             ws: FviWorkspace) -> np.ndarray:
    """The corrupted model, in `ws.moved`: true next states (n, d), d 1 or 2,
    displaced by a half-normal step of scale sigma in a uniformly random
    direction, clipped to the box."""
    n, d = true_next.shape
    step = half_normal(sigma, rng, ws.step)
    if d == 1:
        # integers(0, 2) draws the sign; copysign by -0.5 negates the step to the
        # bit, as multiplying by a direction of -1.0 did
        sign = np.subtract(rng.integers(0, 2, size=n), 0.5, out=ws.turn)
        np.add(true_next[:, 0], np.copysign(step, sign, out=step), out=ws.moved[:, 0])
    else:
        angle = rng.random(out=ws.angle)
        angle *= 2.0 * np.pi  # the draws of uniform(0, 2 pi)
        for k, trig in enumerate((np.cos, np.sin)):
            turn = np.multiply(step, trig(angle, out=ws.turn), out=ws.turn)
            np.add(true_next[:, k], turn, out=ws.moved[:, k])
    return np.clip(ws.moved, 0.0, 1.0, out=ws.moved)


def beta_mixture_backup(value_fn: ValueFn, states: np.ndarray, mdp: FviMdp,
                        sigma: float, beta: float, rng: np.random.Generator,
                        ws: FviWorkspace | None = None) -> np.ndarray:
    """Targets max_a (r + gamma * V(next)) where next comes from the true
    dynamics w.p. beta and from the corrupted model under sigma otherwise.

    The Bernoulli, half-normal, and direction draws are consumed for every
    (state, action) regardless of which branch wins, so sigma=0 runs are
    bit-identical across beta. Rewards are always the true ones; targets are
    clipped to [0, v_max]. They are `ws.targets`, of a workspace for these
    states and this MDP (built for the call when none is passed), and hold
    until its next backup.
    """
    n = states.shape[0]
    ws = FviWorkspace(n, mdp.dim, mdp.n_actions) if ws is None else ws
    if ws.nexts.shape != (mdp.n_actions, *states.shape):
        raise ValueError(f"workspace of next states {ws.nexts.shape} for "
                         f"{mdp.n_actions} actions on states {states.shape}")
    for a, slab in enumerate(ws.nexts):
        mdp.transition(states, a, out=slab)
        use_model = rng.random(out=ws.draws) >= beta  # the draws of uniform(size=n)
        np.copyto(slab, _corrupt(slab, sigma, rng, ws), where=use_model[:, None])
    # score in blocks of states: the lookahead's temporaries stay cache-sized and
    # are reused from the heap instead of being mapped and faulted in per call
    for lo in range(0, n, BACKUP_BLOCK):
        blk = slice(lo, lo + BACKUP_BLOCK)
        scores = _scores(mdp, value_fn, mdp.reward_fn(states[blk]),
                         ws.nexts[:, blk].reshape(-1, mdp.dim))
        np.clip(scores.max(axis=0), 0.0, value_fn.v_max, out=ws.targets[blk])
    return ws.targets


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
    """True rewards (N,), which do not depend on the action, and the next states
    (A*N, d) of every action, action-major."""
    nexts = np.concatenate([mdp.transition(states, a) for a in range(mdp.n_actions)])
    return mdp.reward_fn(states), nexts


def _scores(mdp: FviMdp, value_fn: ValueFn, rewards, nexts) -> np.ndarray:
    """r + gamma * V(next) per (action, state), with V evaluated once on the stack."""
    return rewards + mdp.gamma * value_fn(nexts).reshape(mdp.n_actions, -1)


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
            r = rewards
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
    # the next states and the grid never change, so their knots and weights are found once
    idx, wgt = v.basis(nexts)
    for sweep in itertools.count():
        interp = _interpolate(v.values, idx.T, wgt.T).reshape(mdp.n_actions, -1)
        backed = (rewards + mdp.gamma * interp).max(axis=0)
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
    ws = FviWorkspace(config.n_states, mdp.dim, mdp.n_actions)
    for _ in range(config.iterations):
        states = state_stream.random(out=ws.states)  # the draws of uniform(size=(n, d))
        targets = beta_mixture_backup(v, states, mdp, config.sigma, config.beta,
                                      corrupt_stream, ws)
        v = fit_value(states, targets, v, p=config.p, ws=ws)
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
    x = half_normal(sigma, rng, np.empty(n_samples))
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
