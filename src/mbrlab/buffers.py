"""Ring buffers of transitions with uniform with-replacement sampling.

Storage is columnar (one array per field): rows are written as column blocks
and minibatch sampling is a gather; oldest entries are evicted first once
capacity is reached.
"""

from __future__ import annotations

import numpy as np

from .nets import mapped_zeros


class TransitionBuffer:
    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.s = mapped_zeros((capacity, state_dim))
        self.a = mapped_zeros((capacity, action_dim))
        self.r = mapped_zeros(capacity)
        self.s2 = mapped_zeros((capacity, state_dim))
        self.done = mapped_zeros(capacity, dtype=bool)
        # behavior-policy density of a given s at collection time (real data
        # only; used by the policy-change feature)
        self.behavior_density = mapped_zeros(capacity)
        self.cursor = 0
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def push_batch(self, s, a, r, s2, done, behavior_density=0.0) -> int:
        """Append n rows column by column, as n one-row calls would; the
        behavior density is one per row or one for all. When n > capacity
        only the last capacity rows survive. Returns n."""
        n = len(r)
        keep = min(n, self.capacity)
        idx = (self.cursor + (n - keep) + np.arange(keep)) % self.capacity
        self.s[idx] = s[n - keep:]
        self.a[idx] = a[n - keep:]
        self.r[idx] = r[n - keep:]
        self.s2[idx] = s2[n - keep:]
        self.done[idx] = done[n - keep:]
        if np.ndim(behavior_density):  # one per row
            behavior_density = behavior_density[n - keep:]
        self.behavior_density[idx] = behavior_density
        self.cursor = (self.cursor + n) % self.capacity
        self.size = min(self.size + n, self.capacity)
        return n

    def sample_indices(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.size == 0:
            raise ValueError("cannot sample from an empty buffer")
        return rng.integers(0, self.size, size=n)

    def gather(self, idx: np.ndarray) -> dict:
        return {
            "s": self.s[idx], "a": self.a[idx], "r": self.r[idx],
            "s2": self.s2[idx], "done": self.done[idx],
        }

    def recent(self, n: int) -> dict:
        """The last min(n, size) entries in insertion order."""
        n = min(n, self.size)
        if self.size < self.capacity:
            idx = np.arange(self.size - n, self.size)
        else:
            idx = (np.arange(self.cursor - n, self.cursor)) % self.capacity
        out = self.gather(idx)
        out["behavior_density"] = self.behavior_density[idx]
        return out
