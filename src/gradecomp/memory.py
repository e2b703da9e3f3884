"""Per-task replay memories, batch sampling, and pooled re-splitting for
boundary-free training.

The trainer keeps its memories as a plain ``list[EpisodicMemory]``, one
per finished task in ascending task order; ``train_step`` and
``split_replay_buffer`` take that list as is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Batch

POLICY_RING = "ring"
POLICY_RESERVOIR = "reservoir"
POLICIES = (POLICY_RING, POLICY_RESERVOIR)


@dataclass
class EpisodicMemory:
    task_id: int
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.labels.shape[0])


def update_memory(
    task_data: Batch,
    m: int,
    policy: str = POLICY_RING,
    seed: int = 0,
    task_id: int = 0,
) -> EpisodicMemory:
    """Select which task examples to remember.

    ``ring`` keeps the last ``m`` examples in stream order; ``reservoir``
    keeps a uniform sample of size ``min(m, n)`` built by the classic
    one-pass replacement algorithm from the given seed.  A ring memory,
    and a reservoir memory whose task has ``n <= m`` examples (it keeps
    them all), holds read-only views of the task's rows rather than a
    copy, so the memories add no second copy of data the stream already
    holds; a reservoir sample of ``m < n`` rows is a copy, also
    read-only.
    """
    if m < 1:
        raise ValueError("memory capacity must be at least 1")
    if policy not in POLICIES:
        raise ValueError(f"unknown memory policy {policy!r}")
    n = len(task_data)
    if n == 0:
        raise ValueError("task data is empty")

    if policy == POLICY_RING or n <= m:
        keep = slice(max(0, n - m), n)
    else:
        rng = np.random.default_rng(seed)
        reservoir = list(range(m))
        for i in range(m, n):
            j = int(rng.integers(0, i + 1))
            if j < m:
                reservoir[j] = i
        keep = np.asarray(reservoir)
    features, labels = task_data.inputs[keep], task_data.labels[keep]
    features.flags.writeable = labels.flags.writeable = False
    return EpisodicMemory(task_id=task_id, features=features, labels=labels)


def sample_memory_batch(
    mem: EpisodicMemory, bs_old: int, rng: np.random.Generator
) -> Batch:
    """Uniform with-replacement sample of ``bs_old`` stored examples."""
    if len(mem) == 0:
        raise ValueError("memory is empty")
    if bs_old < 1:
        raise ValueError("batch size must be at least 1")
    idx = rng.integers(0, len(mem), size=bs_old)
    return Batch(mem.features[idx], mem.labels[idx])


def split_replay_buffer(
    memories: list[EpisodicMemory], N: int, rng: np.random.Generator
) -> list[EpisodicMemory]:
    """Pool every stored example and deal it into ``N`` pseudo-memories.

    The pool is shuffled by ``rng`` and partitioned into parts whose
    sizes differ by at most one, larger parts first.  The result stands
    in for per-task memories when task boundaries are ignored.
    """
    if N < 1:
        raise ValueError("need at least one part")
    total = sum(len(m) for m in memories)
    if total < N:
        raise ValueError(f"cannot split {total} items into {N} parts")
    features = np.concatenate([m.features for m in memories])
    labels = np.concatenate([m.labels for m in memories])
    order = rng.permutation(total)
    sizes = [total // N + (1 if i < total % N else 0) for i in range(N)]
    parts = []
    offset = 0
    for i, size in enumerate(sizes):
        idx = order[offset: offset + size]
        offset += size
        parts.append(EpisodicMemory(i, features[idx], labels[idx]))
    return parts
