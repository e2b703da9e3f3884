"""Per-task replay memories, batch sampling, and pooled re-splitting for
boundary-free training.

The trainer keeps its memories as a plain ``list[EpisodicMemory]``, one
per finished task in ascending task order; ``train_step``,
``sample_memory_batch`` and ``split_replay_buffer`` take it as is.
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
    memories: list[EpisodicMemory], bs_old: int, rng: np.random.Generator
) -> Batch:
    """``bs_old`` uniform with-replacement draws from each memory, stacked
    in list order; sample one memory as ``[memory]``.  One ``rng.integers``
    call draws every index: the same numbers, and the same state of ``rng``
    after, as one call per memory.  Raises ``ValueError``, drawing nothing,
    on an empty list, an empty memory or ``bs_old < 1``."""
    lens = np.array([len(m) for m in memories])
    if lens.size == 0 or not lens.all():
        raise ValueError("memory is empty")
    if bs_old < 1:
        raise ValueError("batch size must be at least 1")
    idx = rng.integers(0, lens[:, None], size=(lens.size, bs_old))
    inputs = np.empty((lens.size, bs_old, memories[0].features.shape[1]))
    labels = np.empty((lens.size, bs_old), dtype=np.int64)
    # take buffers ``out`` in its default mode; every index is in range
    for m, i, x, y in zip(memories, idx, inputs, labels):
        m.features.take(i, axis=0, out=x, mode="clip")
        m.labels.take(i, out=y, mode="clip")
    return Batch(inputs.reshape(lens.size * bs_old, -1), labels.reshape(-1))


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
    return [
        EpisodicMemory(i, features[idx], labels[idx])
        for i, idx in enumerate(np.array_split(rng.permutation(total), N))
    ]
