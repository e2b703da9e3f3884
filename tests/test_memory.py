"""Replay memories, sampling, pooled re-splitting."""

import numpy as np
import pytest

from gradecomp.memory import (
    EpisodicMemory,
    sample_memory_batch,
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
        batch = sample_memory_batch([mem], 3, np.random.default_rng(0))
        assert len(batch) == 3
        assert (batch.inputs == mem.features[0]).all()

    def test_draws_come_from_memory(self):
        mem = update_memory(batch_of(6), m=6)
        batch = sample_memory_batch([mem], 6, np.random.default_rng(1))
        assert set(batch.inputs[:, 0].tolist()) <= set(mem.features[:, 0].tolist())

    def test_fixed_seed_reproducible(self):
        mem = update_memory(batch_of(10), m=10)
        probe = np.random.default_rng(55)
        expected_idx = probe.integers(0, 10, size=4)
        live = np.random.default_rng(55)
        batch = sample_memory_batch([mem], 4, live)
        np.testing.assert_array_equal(batch.inputs[:, 0], np.float64(expected_idx))

    @pytest.mark.parametrize("bs_old", [1, 2, 3, 20, 21])
    def test_stacked_draw_equals_per_memory_draws(self, bs_old):
        stored = [
            update_memory(batch_of(n, start=100 * t), m=n, task_id=t)
            for t, n in enumerate([1, 7, 40, 3])
        ]
        # unequal lengths: the stored memories and a pooled re-split of them
        memories = stored + split_replay_buffer(stored, 5, np.random.default_rng(6))
        live, probe = np.random.default_rng(77), np.random.default_rng(77)
        batch = sample_memory_batch(memories, bs_old, live)
        idx = [probe.integers(0, len(m), size=bs_old) for m in memories]
        np.testing.assert_array_equal(
            batch.inputs, np.concatenate([m.features[i] for m, i in zip(memories, idx)])
        )
        np.testing.assert_array_equal(
            batch.labels, np.concatenate([m.labels[i] for m, i in zip(memories, idx)])
        )
        assert live.integers(0, 2**62) == probe.integers(0, 2**62)

    @pytest.mark.parametrize(
        "sizes, bs_old",
        [([], 3), ([4, 0], 3), ([0], 1), ([4, 2], 0)],
        ids=["no-memories", "empty-last", "empty-only", "zero-batch"],
    )
    def test_invalid_input_draws_nothing(self, sizes, bs_old):
        memories = [EpisodicMemory(t, np.ones((n, 3)), np.zeros(n)) for t, n in enumerate(sizes)]
        rng = np.random.default_rng(8)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            sample_memory_batch(memories, bs_old, rng)
        assert rng.bit_generator.state == state


class TestSplitReplayBuffer:
    def build_memories(self, sizes):
        memories = []
        start = 0
        for t, n in enumerate(sizes):
            rows = batch_of(n, start=start)
            memories.append(EpisodicMemory(t, rows.inputs, rows.labels))
            start += n
        return memories

    def test_even_partition(self):
        memories = self.build_memories([3, 3])
        parts = split_replay_buffer(memories, 3, np.random.default_rng(2))
        assert [len(p) for p in parts] == [2, 2, 2]
        pooled = sorted(
            float(x) for p in parts for x in p.features[:, 0]
        )
        assert pooled == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_single_part_is_whole_pool(self):
        memories = self.build_memories([2, 3])
        (part,) = split_replay_buffer(memories, 1, np.random.default_rng(3))
        assert len(part) == 5

    def test_remainder_goes_to_leading_parts(self):
        memories = self.build_memories([4, 3])
        parts = split_replay_buffer(memories, 3, np.random.default_rng(4))
        assert [len(p) for p in parts] == [3, 2, 2]

    def test_too_many_parts_rejected(self):
        memories = self.build_memories([2])
        with pytest.raises(ValueError):
            split_replay_buffer(memories, 3, np.random.default_rng(5))

