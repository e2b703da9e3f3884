"""Per-task replay memories, the growing coreset, batch sampling, and
pooled re-splitting for boundary-free training.

Snapshot format mirrors the model checkpoint conventions: little-endian
binary with an 8-byte magic, int64 header fields, a float64 feature
payload, and int64 labels, with nothing after the last memory.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .model import Batch, expect_end, read_exact

POLICY_RING = "ring"
POLICY_RESERVOIR = "reservoir"
POLICIES = (POLICY_RING, POLICY_RESERVOIR)

SNAPSHOT_MAGIC = b"GDMEMv1\0"


@dataclass
class EpisodicMemory:
    task_id: int
    capacity: int
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.labels) > self.capacity:
            raise ValueError(
                f"memory holds {len(self.labels)} items, capacity is {self.capacity}"
            )

    def __len__(self) -> int:
        return int(self.labels.shape[0])


@dataclass
class Coreset:
    """Episodic memories in strictly increasing task order."""

    memories: list[EpisodicMemory] = field(default_factory=list)

    def add(self, memory: EpisodicMemory) -> None:
        if self.memories and memory.task_id <= self.memories[-1].task_id:
            raise ValueError(
                f"task id {memory.task_id} does not exceed the last stored "
                f"id {self.memories[-1].task_id}"
            )
        self.memories.append(memory)

    def __len__(self) -> int:
        return len(self.memories)

    def __iter__(self):
        return iter(self.memories)

    @property
    def total_items(self) -> int:
        return sum(len(m) for m in self.memories)


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
    copy, so the coreset adds no second copy of data the stream already
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
    return EpisodicMemory(task_id=task_id, capacity=m, features=features, labels=labels)


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
    coreset: Coreset, N: int, rng: np.random.Generator
) -> list[EpisodicMemory]:
    """Pool every stored example and deal it into ``N`` pseudo-memories.

    The pool is shuffled by ``rng`` and partitioned into parts whose
    sizes differ by at most one, larger parts first.  The result stands
    in for per-task memories when task boundaries are ignored.
    """
    if N < 1:
        raise ValueError("need at least one part")
    total = coreset.total_items
    if total < N:
        raise ValueError(f"cannot split {total} items into {N} parts")
    features = np.concatenate([m.features for m in coreset.memories])
    labels = np.concatenate([m.labels for m in coreset.memories])
    order = rng.permutation(total)
    sizes = [total // N + (1 if i < total % N else 0) for i in range(N)]
    parts = []
    offset = 0
    for i, size in enumerate(sizes):
        idx = order[offset: offset + size]
        offset += size
        parts.append(
            EpisodicMemory(
                task_id=i,
                capacity=size,
                features=features[idx],
                labels=labels[idx],
            )
        )
    return parts


def save_memory_snapshot(coreset: Coreset, path) -> None:
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<q", len(coreset.memories)))
        for mem in coreset.memories:
            n, d = mem.features.shape if len(mem) else (0, 0)
            fh.write(struct.pack("<qqqq", mem.task_id, mem.capacity, n, d))
            fh.write(mem.features.astype("<f8").tobytes())
            fh.write(mem.labels.astype("<i8").tobytes())


def load_memory_snapshot(path) -> Coreset:
    with open(path, "rb") as fh:
        magic = fh.read(len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"{path}: not a memory snapshot: bad magic {magic!r}")
        (count,) = struct.unpack("<q", read_exact(fh, 8, path))
        if count < 0:
            raise ValueError(f"{path}: negative memory count {count}")
        coreset = Coreset()
        for _ in range(count):
            task_id, capacity, n, d = struct.unpack("<qqqq", read_exact(fh, 32, path))
            if n < 0 or d < 0:
                raise ValueError(f"{path}: memory of {n} items of width {d}")
            features = np.frombuffer(read_exact(fh, n * d * 8, path), dtype="<f8")
            labels = np.frombuffer(read_exact(fh, n * 8, path), dtype="<i8")
            try:
                coreset.add(
                    EpisodicMemory(
                        task_id=task_id,
                        capacity=capacity,
                        features=features.reshape(n, d).copy(),
                        labels=labels.copy(),
                    )
                )
            except ValueError as exc:  # capacity below the item count, task order
                raise ValueError(f"{path}: {exc}") from None
        expect_end(fh, path)
    return coreset
