"""Replay memory: two bounded trajectory stores (positive reward / zero
reward) kept in 1:1 balance (within one trajectory), with per-step
priorities and sampling probability directly proportional to priority.
"""

from __future__ import annotations

from collections import deque

import numpy as np


class ReplayBuffer:
    """Insert whole trajectories of steps; sample steps with replacement,
    with probability proportional to each step's priority.

    The steps sit in one list, the positive store oldest to newest and then
    the zero store, with their priorities at the same positions in one
    array.  Sampled indices stay valid until the next insert (the training
    loop samples, updates priorities, then inserts new experience).
    """

    def __init__(self, capacity_per_store: int = 25000):
        self.capacity_per_store = capacity_per_store
        self._lengths = {True: deque(), False: deque()}  # trajectory lengths, oldest first
        self._held = {True: 0, False: 0}  # steps per store
        self._steps: list = []
        self._prios: np.ndarray = np.zeros(0)

    # -- content ------------------------------------------------------------

    @property
    def n_positive(self) -> int:
        return len(self._lengths[True])

    @property
    def n_zero(self) -> int:
        return len(self._lengths[False])

    def __len__(self):
        return len(self._steps)

    def max_priority(self) -> float:
        if len(self._prios) == 0:
            return 1.0
        return float(self._prios.max())

    def _evict_oldest(self, positive: bool):
        n = self._lengths[positive].popleft()
        self._held[positive] -= n
        start = 0 if positive else self._held[True]
        del self._steps[start : start + n]
        self._prios = np.concatenate((self._prios[:start], self._prios[start + n :]))

    def insert(self, steps, positive: bool):
        """Store one trajectory; its steps take the current max priority."""
        at = self._held[True] if positive else len(self._steps)
        new = np.full(len(steps), self.max_priority())
        self._steps[at:at] = steps
        self._prios = np.concatenate((self._prios[:at], new, self._prios[at:]))
        self._lengths[positive].append(len(steps))
        self._held[positive] += len(steps)
        while self._held[positive] > self.capacity_per_store and len(self._lengths[positive]) > 1:
            self._evict_oldest(positive)
        # keep the trajectory-count ratio positive:zero at 1:1 (within one)
        while abs(self.n_positive - self.n_zero) > 1:
            self._evict_oldest(self.n_positive > self.n_zero)

    # -- sampling -----------------------------------------------------------

    def sample(self, batch_size: int, rng: np.random.Generator):
        """(indices, steps) drawn with replacement, p proportional to
        priority."""
        if not self._steps:
            raise ValueError("cannot sample from an empty buffer")
        p = self._prios / self._prios.sum()
        idx = rng.choice(len(self._steps), size=batch_size, replace=True, p=p)
        return idx, self.steps_at(idx)

    def random_indices(self, k: int, rng: np.random.Generator):
        """Uniform sample used for keeping stale priorities current."""
        if not self._steps:
            return np.zeros(0, dtype=int)
        k = min(k, len(self._steps))
        return rng.choice(len(self._steps), size=k, replace=False)

    def steps_at(self, indices):
        return [self._steps[i] for i in indices]

    def update_priorities(self, indices, priorities):
        """Set the priority at each index, in one assignment; nothing is
        stored unless every priority is positive."""
        priorities = np.asarray(priorities, dtype=float)
        if not np.all(priorities > 0):
            raise ValueError("priorities must be positive")
        self._prios[np.asarray(indices, dtype=np.intp)] = priorities
