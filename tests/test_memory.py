"""Replay memories, the coreset, sampling, pooled re-splitting, snapshots."""

import struct

import numpy as np
import pytest

from gradecomp.memory import (
    SNAPSHOT_MAGIC,
    Coreset,
    EpisodicMemory,
    load_memory_snapshot,
    sample_memory_batch,
    save_memory_snapshot,
    split_replay_buffer,
    update_memory,
)
from gradecomp.model import Batch


def batch_of(n, dim=3, label_mod=2, start=0):
    values = np.arange(start, start + n, dtype=np.float64)
    inputs = np.repeat(values[:, None], dim, axis=1)
    return Batch(inputs, (np.arange(n) % label_mod).astype(np.int64))


class TestUpdateMemory:
    def test_ring_keeps_last_items(self):
        mem = update_memory(batch_of(3), m=2, policy="ring")
        np.testing.assert_array_equal(mem.features[:, 0], [1.0, 2.0])

    def test_ring_views_task_rows_read_only(self):
        task = batch_of(5)
        ring = update_memory(task, m=3, policy="ring")
        assert np.shares_memory(ring.features, task.inputs)
        assert not ring.features.flags.writeable and not ring.labels.flags.writeable
        sample = update_memory(task, m=3, policy="reservoir", seed=1)
        assert not np.shares_memory(sample.features, task.inputs)

    def test_small_task_fully_stored(self):
        for policy in ("ring", "reservoir"):
            mem = update_memory(batch_of(4), m=10, policy=policy, seed=3)
            assert len(mem) == 4
            np.testing.assert_array_equal(mem.features[:, 0], [0.0, 1.0, 2.0, 3.0])

    def test_reservoir_matches_replayed_algorithm(self):
        # replay the classic one-pass replacement with the same generator
        n, m, seed = 50, 8, 123
        mem = update_memory(batch_of(n), m=m, policy="reservoir", seed=seed)
        rng = np.random.default_rng(seed)
        expected = list(range(m))
        for i in range(m, n):
            j = int(rng.integers(0, i + 1))
            if j < m:
                expected[j] = i
        np.testing.assert_array_equal(mem.features[:, 0], np.float64(expected))

    def test_reservoir_reproducible(self):
        a = update_memory(batch_of(40), m=5, policy="reservoir", seed=9)
        b = update_memory(batch_of(40), m=5, policy="reservoir", seed=9)
        assert np.array_equal(a.features, b.features)

    def test_validation(self):
        with pytest.raises(ValueError):
            update_memory(batch_of(3), m=0)
        with pytest.raises(ValueError):
            update_memory(batch_of(3), m=2, policy="herding")


class TestSampleMemoryBatch:
    def test_single_item_repeats(self):
        mem = update_memory(batch_of(1), m=4)
        batch = sample_memory_batch(mem, 3, np.random.default_rng(0))
        assert len(batch) == 3
        assert (batch.inputs == mem.features[0]).all()

    def test_draws_come_from_memory(self):
        mem = update_memory(batch_of(6), m=6)
        batch = sample_memory_batch(mem, 6, np.random.default_rng(1))
        assert set(batch.inputs[:, 0].tolist()) <= set(mem.features[:, 0].tolist())

    def test_fixed_seed_reproducible(self):
        mem = update_memory(batch_of(10), m=10)
        probe = np.random.default_rng(55)
        expected_idx = probe.integers(0, 10, size=4)
        live = np.random.default_rng(55)
        batch = sample_memory_batch(mem, 4, live)
        np.testing.assert_array_equal(batch.inputs[:, 0], np.float64(expected_idx))


class TestSplitReplayBuffer:
    def build_coreset(self, sizes):
        coreset = Coreset()
        start = 0
        for t, n in enumerate(sizes):
            coreset.add(
                EpisodicMemory(
                    task_id=t,
                    capacity=max(n, 1),
                    features=batch_of(n, start=start).inputs,
                    labels=batch_of(n, start=start).labels,
                )
            )
            start += n
        return coreset

    def test_even_partition(self):
        coreset = self.build_coreset([3, 3])
        parts = split_replay_buffer(coreset, 3, np.random.default_rng(2))
        assert [len(p) for p in parts] == [2, 2, 2]
        pooled = sorted(
            float(x) for p in parts for x in p.features[:, 0]
        )
        assert pooled == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_single_part_is_whole_pool(self):
        coreset = self.build_coreset([2, 3])
        (part,) = split_replay_buffer(coreset, 1, np.random.default_rng(3))
        assert len(part) == 5

    def test_remainder_goes_to_leading_parts(self):
        coreset = self.build_coreset([4, 3])
        parts = split_replay_buffer(coreset, 3, np.random.default_rng(4))
        assert [len(p) for p in parts] == [3, 2, 2]

    def test_too_many_parts_rejected(self):
        coreset = self.build_coreset([2])
        with pytest.raises(ValueError):
            split_replay_buffer(coreset, 3, np.random.default_rng(5))


class TestCoreset:
    def test_growth_and_ordering(self):
        coreset = Coreset()
        for t in range(4):
            coreset.add(update_memory(batch_of(5), m=3, task_id=t))
            assert len(coreset) == t + 1
            assert all(len(m) <= 3 for m in coreset)
        with pytest.raises(ValueError):
            coreset.add(update_memory(batch_of(5), m=3, task_id=2))

    def test_snapshot_round_trip(self, tmp_path):
        coreset = Coreset()
        rng = np.random.default_rng(6)
        for t in range(3):
            n = int(rng.integers(1, 6))
            coreset.add(
                EpisodicMemory(
                    task_id=t,
                    capacity=8,
                    features=rng.standard_normal((n, 4)),
                    labels=rng.integers(0, 3, size=n),
                )
            )
        path = tmp_path / "memories.bin"
        save_memory_snapshot(coreset, path)
        loaded = load_memory_snapshot(path)
        assert len(loaded) == 3
        for orig, back in zip(coreset, loaded):
            assert back.task_id == orig.task_id
            assert back.capacity == orig.capacity
            assert np.array_equal(back.features, orig.features)
            assert np.array_equal(back.labels, orig.labels)

    def test_snapshot_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_memory_snapshot(path)

    def test_truncated_snapshot_names_file(self, tmp_path):
        coreset = Coreset()
        coreset.add(update_memory(batch_of(5), m=4, task_id=0))
        path = tmp_path / "memories.bin"
        save_memory_snapshot(coreset, path)
        data = path.read_bytes()
        header = 8 + 8 + 32  # magic, memory count, one memory header
        # after the magic, inside the memory header, inside the features
        for cut in (8, 8 + 8 + 12, header + 13):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match="truncated") as err:
                load_memory_snapshot(path)
            assert str(path) in str(err.value)

    @staticmethod
    def write_one_memory(path, capacity, n, d=2):
        body = struct.pack("<qqqq", 0, capacity, n, d)
        if n > 0:
            body += np.zeros(n * d).astype("<f8").tobytes()
            body += np.zeros(n, dtype="<i8").tobytes()
        path.write_bytes(SNAPSHOT_MAGIC + struct.pack("<q", 1) + body)

    def test_snapshot_capacity_below_item_count_names_file(self, tmp_path):
        path = tmp_path / "memories.bin"
        self.write_one_memory(path, capacity=2, n=3)
        with pytest.raises(ValueError, match="capacity is 2") as err:
            load_memory_snapshot(path)
        assert str(path) in str(err.value)

    def test_snapshot_negative_item_count_names_file(self, tmp_path):
        path = tmp_path / "memories.bin"
        self.write_one_memory(path, capacity=4, n=-1)
        with pytest.raises(ValueError, match="-1 items") as err:
            load_memory_snapshot(path)
        assert str(path) in str(err.value)

    def test_snapshot_rejects_trailing_bytes(self, tmp_path):
        coreset = Coreset()
        coreset.add(update_memory(batch_of(5), m=4, task_id=0))
        path = tmp_path / "memories.bin"
        save_memory_snapshot(coreset, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 3)
        with pytest.raises(ValueError, match="3 trailing bytes") as err:
            load_memory_snapshot(path)
        assert str(path) in str(err.value)
