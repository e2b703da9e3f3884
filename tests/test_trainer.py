"""Training loop: single steps, full sequences, variant equivalences.

The hand-computed check rebuilds the constrained update from raw
gradients with plain numpy (mean, subtraction, QR, projection formula)
and compares against the update the trainer actually applied.
"""

import json
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from gradecomp import metrics, trainer
from gradecomp.linalg import Workspace
from gradecomp.memory import update_memory
from gradecomp.model import Batch, MlpModel
from gradecomp.tasks import gen_permuted_tasks, gen_synthetic_base
from gradecomp.trainer import (
    TrainConfig,
    train_sequence,
    train_step,
    variant_agem,
    variant_from_name,
    variant_ours,
    variant_single,
)


def make_stream(seed, classes=3, dim=8, npc=30, T=3):
    base = gen_synthetic_base(classes, dim, npc, seed=seed)
    return gen_permuted_tasks(base, T=T, seed=seed + 1)


def rngs():
    return np.random.default_rng(1000), np.random.default_rng(2000)


class TestTrainStep:
    def test_empty_coreset_is_plain_sgd(self):
        stream = make_stream(1)
        batch = Batch(stream.tasks[0].train.inputs[:10], stream.tasks[0].train.labels[:10])
        for variant in (variant_single(), variant_ours(), variant_agem()):
            model = MlpModel([8, 6, 3], seed=2)
            reference = MlpModel([8, 6, 3], seed=2)
            _, g = reference.loss_and_grad(batch)
            reference.apply_update(g, 0.1)
            mem_rng, sgem_rng = rngs()
            train_step(model, batch, [], variant, 0.1, mem_rng, sgem_rng)
            assert np.array_equal(model.params, reference.params)

    def test_single_memory_ours_equals_agem(self):
        # zero-rank specific space: the decomposed method reduces to the
        # averaged constraint bit for bit
        stream = make_stream(3)
        memory = update_memory(stream.tasks[0].train, m=16, task_id=0)
        batch = Batch(stream.tasks[1].train.inputs[:10], stream.tasks[1].train.labels[:10])
        model_a = MlpModel([8, 6, 3], seed=4)
        model_b = MlpModel([8, 6, 3], seed=4)
        train_step(model_a, batch, [memory], variant_ours(), 0.1, *rngs())
        train_step(model_b, batch, [memory], variant_agem(), 0.1, *rngs())
        assert np.array_equal(model_a.params, model_b.params)

    def test_update_matches_hand_computed_closed_form(self):
        rng = np.random.default_rng(700)
        stream = make_stream(5)
        memories = [
            update_memory(stream.tasks[t].train, m=12, task_id=t) for t in range(2)
        ]
        batch = Batch(
            stream.tasks[2].train.inputs[:8], stream.tasks[2].train.labels[:8]
        )
        model = MlpModel([8, 5, 3], seed=6)
        before = model.params.copy()

        # collect exactly the gradients the step will see, then restore
        probe = model.clone()
        _, g = probe.loss_and_grad(batch)
        mem_rng, sgem_rng = rngs()
        mem_rng_probe = np.random.default_rng(1000)
        old = []
        from gradecomp.memory import sample_memory_batch

        for memory in memories:
            mb = sample_memory_batch([memory], 20, mem_rng_probe)
            old.append(probe.loss_and_grad(mb)[1])

        # independent closed-form computation in plain numpy
        g_bar = (old[0] + old[1]) / 2.0
        spec = np.stack([old[0] - g_bar, old[1] - g_bar], axis=1)
        if np.linalg.norm(spec) > 1e-12 * max(1, np.abs(spec).max()):
            Q, _ = np.linalg.qr(spec)
            keep = [
                j
                for j in range(Q.shape[1])
                if np.linalg.norm(spec.T @ Q[:, j]) > 1e-10
            ]
            Q = Q[:, keep]
        else:
            Q = np.zeros((g.size, 0))
        Pg = g - Q @ (Q.T @ g)
        align = g_bar @ Pg
        if align >= 0:
            w_hand = Pg
        else:
            Pgb = g_bar - Q @ (Q.T @ g_bar)
            w_hand = Pg - (align / (g_bar @ Pgb)) * Pgb

        eta = 0.1
        train_step(model, batch, memories, variant_ours(), eta, mem_rng, sgem_rng)
        applied = (before - model.params) / eta
        np.testing.assert_allclose(applied, w_hand, atol=1e-10 * max(1, np.abs(w_hand).max()))

    def test_nan_batch_aborts(self):
        model = MlpModel([4, 3], seed=0)
        bad = Batch(np.full((2, 4), np.nan), np.array([0, 1]))
        with pytest.raises(FloatingPointError):
            train_step(model, bad, [], variant_single(), 0.1, *rngs())

    def test_trace_contents(self):
        stream = make_stream(7)
        memories = [update_memory(stream.tasks[0].train, m=8, task_id=0)]
        batch = Batch(stream.tasks[1].train.inputs[:6], stream.tasks[1].train.labels[:6])
        model = MlpModel([8, 6, 3], seed=8)
        trace = train_step(model, batch, memories, variant_ours(lgu=True), 0.1, *rngs())
        assert trace.loss_new > 0
        assert trace.loss_mem_mean is not None
        assert trace.branch is not None
        assert trace.per_layer_alignments is not None
        assert len(trace.per_layer_alignments) == 2
        assert trace.update_norm > 0

    def test_trace_records_degenerate_fallback(self, monkeypatch, tmp_path):
        # a degenerate reflect is rare in real runs, so one segment's rule
        # is made to report it; any degenerate segment marks the step
        from gradecomp import cli, solver

        stream = make_stream(7)
        memories = [update_memory(stream.tasks[t].train, m=8, task_id=t) for t in range(2)]
        batch = Batch(stream.tasks[2].train.inputs[:6], stream.tasks[2].train.labels[:6])
        model = MlpModel([8, 6, 3], seed=8)
        last_len = model.layout.segments[-1].length
        real = solver.decomposed_update

        def flagging(bundle, k=None, **kwargs):
            res = real(bundle, k, **kwargs)
            res.degenerate = bundle.dim == last_len
            return res

        traces = [train_step(model.clone(), batch, memories, variant_ours(lgu=True), 0.1, *rngs())]
        traces.append(train_step(model.clone(), batch, [], variant_ours(), 0.1, *rngs()))
        monkeypatch.setattr(solver, "decomposed_update", flagging)
        traces.append(
            train_step(model.clone(), batch, memories, variant_ours(lgu=True), 0.1, *rngs())
        )
        assert [t.degenerate for t in traces] == [False, None, True]
        cli.write_run_log(tmp_path / "run_log.jsonl", traces)
        records = [
            json.loads(line) for line in (tmp_path / "run_log.jsonl").read_text().splitlines()
        ]
        assert [r["degenerate"] for r in records] == [False, None, True]

    def test_memory_gradients_come_from_one_stacked_pass(self, monkeypatch):
        # one call per step: the new-task batch is the first group, then
        # one group per memory; A-GEM reads the mean memory gradient alone,
        # so its memories form one group.  Without memories, and for plain
        # fine-tuning, the step makes one single-batch call.
        stream = make_stream(7)
        memories = [update_memory(stream.tasks[t].train, m=8, task_id=t) for t in range(3)]
        batch = Batch(stream.tasks[2].train.inputs[:6], stream.tasks[2].train.labels[:6])
        model = MlpModel([8, 6, 3], seed=8)
        calls = []
        real = MlpModel.loss_and_grad

        def counting(self, batch, groups=None, *, out=None):
            calls.append((len(batch), groups))
            return real(self, batch, groups, out=out)

        monkeypatch.setattr(MlpModel, "loss_and_grad", counting)
        cases = (
            (variant_ours(), memories, [(66, (6, 20, 20, 20))]),
            (variant_agem(), memories, [(66, (6, 60))]),
            (variant_ours(), [], [(6, None)]),
            (variant_single(), memories, [(6, None)]),
        )
        for variant, stored, expected in cases:
            calls.clear()
            train_step(model.clone(), batch, stored, variant, 0.1, *rngs())
            assert calls == expected

    def test_per_layer_baselines_apply_slice_wise_rules(self):
        # the expected updates come from the step's own fused pass (the
        # new-task batch as group 0, then the memory rows) and read the
        # same [:, sl] views of it the trainer passes to each segment
        from gradecomp import solver
        from gradecomp.decomp import shared_gradient
        from gradecomp.memory import sample_memory_batch

        stream = make_stream(7)
        memories = [update_memory(stream.tasks[t].train, m=8, task_id=t) for t in range(2)]
        batch = Batch(stream.tasks[2].train.inputs[:6], stream.tasks[2].train.labels[:6])
        model = MlpModel([8, 6, 3], seed=8)
        slices = model.layout.slices()
        mem_rng = np.random.default_rng(1000)  # the memory stream of rngs()
        sampled = sample_memory_batch(memories, 20, mem_rng)
        stacked = Batch(
            np.concatenate((batch.inputs, sampled.inputs)),
            np.concatenate((batch.labels, sampled.labels)),
        )
        # GEM reads one row per memory; A-GEM one row, the mean memory gradient
        G = {
            "gem": model.loss_and_grad(stacked, (6, 20, 20))[1],
            "agem": model.loss_and_grad(stacked, (6, 40))[1],
        }
        expected = {
            "agem": [solver.agem_update(G["agem"][0, sl], G["agem"][1, sl]) for sl in slices],
            "gem": [solver.gem_qp_update(G["gem"][0, sl], G["gem"][1:, sl]) for sl in slices],
        }
        g_bars = {"agem": G["agem"][1], "gem": shared_gradient(G["gem"][1:])}
        for variant in (variant_agem(lgu=True), trainer.variant_gem(lgu=True)):
            stepped, reference = model.clone(), model.clone()
            trace = train_step(stepped, batch, memories, variant, 0.1, *rngs())
            reference.apply_update(np.concatenate(expected[variant.kind]), 0.1)
            assert np.array_equal(stepped.params, reference.params)
            assert trace.branch is not None
            g, g_bar = G[variant.kind][0], g_bars[variant.kind]
            assert trace.per_layer_alignments == tuple(
                float(g_bar[sl] @ g[sl]) for sl in slices
            )

    @pytest.mark.parametrize("name", ["b", "c", "d", "f", "gem", "gem+lgu"])
    def test_every_rule_reads_a_complete_bundle(self, monkeypatch, name):
        # every bundle, whole-vector or one segment's, holds at least one
        # memory row and a shared row; A-GEM's one row is its shared row
        from gradecomp import solver

        stream = make_stream(7)
        memories = [update_memory(stream.tasks[t].train, m=8, task_id=t) for t in range(3)]
        batch = Batch(stream.tasks[2].train.inputs[:6], stream.tasks[2].train.labels[:6])
        model = MlpModel([8, 6, 3], seed=8)
        variant = variant_from_name(name)
        seen = []

        def recording(rule):
            def wrapped(bundle, *args, **kwargs):
                seen.append(
                    (bundle.dim, bundle.old_grads.shape, bundle.shared.shape,
                     np.array_equal(bundle.old_grads[:1], bundle.shared[None]))
                )
                return rule(bundle, *args, **kwargs)
            return wrapped

        for owner, attr in (
            (trainer, "_agem_rule"), (trainer, "_gem_rule"), (solver, "decomposed_update")
        ):
            monkeypatch.setattr(owner, attr, recording(getattr(owner, attr)))
        train_step(model, batch, memories, variant, 0.1, *rngs())
        n_rows = 1 if variant.kind == "agem" else len(memories)
        assert len(seen) == (len(model.layout.segments) if variant.lgu else 1)
        for dim, old_shape, shared_shape, first_row_is_shared in seen:
            assert old_shape == (n_rows, dim)
            assert shared_shape == (dim,)
            if variant.kind == "agem":
                assert first_row_is_shared


class TestTrainSequence:
    def test_single_task_matrix(self):
        stream = make_stream(9, T=1)
        cfg = TrainConfig(seed=1, variant=variant_single(), hidden_sizes=(6,))
        R, log = train_sequence(stream, cfg)
        assert R.shape == (1, 1)
        assert 0.0 <= R[0, 0] <= 1.0
        assert all(t.task == 0 for t in log)

    def test_first_task_identical_across_variants(self):
        stream = make_stream(10, T=2)
        rows = {}
        for letter in ("a", "d"):
            cfg = TrainConfig(
                seed=3, variant=variant_from_name(letter), hidden_sizes=(6,)
            )
            R, _ = train_sequence(stream, cfg)
            rows[letter] = R[0, 0]
        assert rows["a"] == rows["d"]

    def test_reproducible_accuracy_matrix(self):
        stream = make_stream(11, T=3)
        cfg = TrainConfig(seed=5, variant=variant_ours(), hidden_sizes=(6,))
        R1, _ = train_sequence(stream, cfg)
        R2, _ = train_sequence(stream, cfg)
        assert np.array_equal(R1, R2, equal_nan=True)

    def test_one_update_per_minibatch(self):
        stream = make_stream(12, npc=20, T=2)  # 48 train rows per task
        cfg = TrainConfig(seed=1, variant=variant_single(), bs_new=10, hidden_sizes=(6,))
        _, log = train_sequence(stream, cfg)
        per_task = 48 // 10 + 1  # last partial batch used at natural size
        assert len(log) == 2 * per_task

    def test_directional_improvement_over_plain_sgd(self):
        # small model, five permuted tasks: the decomposed method should
        # retain clearly more accuracy than plain fine-tuning on average
        accs = {"single": [], "ours": []}
        for seed in range(1, 6):
            base = gen_synthetic_base(3, 8, 60, seed=seed)
            stream = gen_permuted_tasks(base, T=5, seed=seed + 1)
            for name, variant in (("single", variant_single()), ("ours", variant_ours())):
                cfg = TrainConfig(seed=seed, variant=variant, hidden_sizes=(12,))
                R, _ = train_sequence(stream, cfg)
                accs[name].append(metrics.acc(R))
        assert np.mean(accs["ours"]) > np.mean(accs["single"])

    def test_session_guard_checks_gem_in_both_modes(self, feasibility_guard):
        # the guard in conftest wraps solver.gem_qp_update: every GEM step
        # must reach it once for the whole vector, or once per layer
        stream = make_stream(14, T=4)
        layout = MlpModel([8, 6, 3]).layout
        seen = feasibility_guard["gem_sizes"]
        for lgu, lengths in (
            (False, [layout.total]),
            (True, [sl.stop - sl.start for sl in layout.slices()]),
        ):
            before = {n: seen[n] for n in lengths}
            cfg = TrainConfig(
                seed=3, variant=trainer.variant_gem(lgu=lgu), hidden_sizes=(6,)
            )
            _, log = train_sequence(stream, cfg)
            steps = sum(t.task > 0 for t in log)
            assert steps > 0
            assert all(seen[n] - before[n] == steps for n in lengths)

    def test_replay_split_pools_memories(self):
        stream = make_stream(13, T=3)
        cfg = TrainConfig(
            seed=2,
            variant=variant_ours(),
            hidden_sizes=(6,),
            replay_split_n=3,
            memory_size=8,
        )
        R, log = train_sequence(stream, cfg)
        assert R.shape == (3, 3)
        # from task 2 onward the pooled buffer is split into 3 pseudo-tasks
        late = [t for t in log if t.task == 2 and t.per_layer_alignments is None]
        assert late


FAULT_PROBE = """
import json, resource, sys
from gradecomp import tasks, trainer

faults = []
step = trainer.train_step


def counted(*args, **kwargs):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        return step(*args, **kwargs)
    finally:
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)


trainer.train_step = counted
stream = tasks.gen_permuted_tasks(tasks.gen_synthetic_base(3, 32, 50, seed=1), T=20, seed=2)
variant = trainer.variant_from_name(sys.argv[1])
trainer.train_sequence(stream, trainer.TrainConfig(seed=1, variant=variant))
print(json.dumps(faults))
"""


class TestRunBuffers:
    @pytest.mark.parametrize("name", ["b", "c", "d", "e", "f", "g", "gem", "sgem"])
    def test_reused_buffers_give_the_same_steps(self, name):
        # one gradient buffer across steps whose memory counts grow and
        # shrink gives the parameters and traces of steps that allocate afresh
        stream = make_stream(15, T=4)
        stored = [update_memory(stream.tasks[t].train, m=8, task_id=t) for t in range(3)]
        batch = Batch(stream.tasks[3].train.inputs[:6], stream.tasks[3].train.labels[:6])
        variant = variant_from_name(name)
        reused, fresh = MlpModel([8, 6, 5, 3], seed=8), MlpModel([8, 6, 5, 3], seed=8)
        grads = Workspace()
        for count in (1, 3, 2, 3):
            memories = stored[:count]
            a = train_step(reused, batch, memories, variant, 0.1, *rngs(), grads=grads)
            b = train_step(fresh, batch, memories, variant, 0.1, *rngs())
            assert reused.params.tobytes() == fresh.params.tobytes()
            a.solver_seconds = b.solver_seconds = 0.0
            assert a == b

    @pytest.mark.skipif(
        resource is None
        or not sys.platform.startswith("linux")
        or platform.libc_ver()[0] != "glibc",
        reason="counts minor page faults through getrusage under glibc's malloc",
    )
    @pytest.mark.parametrize("name", ["f", "b"])
    def test_late_steps_take_no_page_faults(self, name):
        # a fresh interpreter, so the heap history of earlier tests does
        # not decide whether freed pages are returned to the system, and
        # without glibc's malloc tuning variables, so that the default
        # allocator is measured
        import gradecomp

        src = Path(gradecomp.__file__).resolve().parent.parent
        env = {
            k: v for k, v in os.environ.items()
            if not (k.startswith("MALLOC_") or k == "GLIBC_TUNABLES")
        }
        proc = subprocess.run(
            [sys.executable, "-c", FAULT_PROBE, name],
            env={**env, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        faults = json.loads(proc.stdout)
        steps = len(faults) // 20
        late = faults[10 * steps:]
        assert float(np.median(late)) <= 50, f"minor faults per step, tasks 10-19: {late}"


class TestVariantEquivalences:
    def test_gem_single_memory_equals_agem_trajectory(self):
        stream = make_stream(14, T=2)
        results = {}
        for letter in ("b", "gem"):
            cfg = TrainConfig(seed=4, variant=variant_from_name(letter), hidden_sizes=(6,))
            R, _ = train_sequence(stream, cfg)
            results[letter] = R
        assert np.array_equal(results["b"], results["gem"], equal_nan=True)

    def test_degenerate_two_task_equivalence(self):
        # with a single stored memory the averaged constraint and the
        # decomposed method produce the same metrics
        stream = make_stream(18, T=2)
        cfg = TrainConfig(seed=8, variant=variant_single(), hidden_sizes=(6,))
        R = {}
        for letter in ("b", "d"):
            R[letter], _ = train_sequence(
                stream, replace(cfg, variant=variant_from_name(letter))
            )
        assert metrics.acc(R["b"]) == metrics.acc(R["d"])
        assert metrics.bwt(R["b"]) == metrics.bwt(R["d"])

    def test_single_segment_layout_matches_concatenated(self):
        # a one-hidden-layer model collapses to... still two segments, so
        # force one segment by comparing per-slice solves on a single-layer
        # linear model
        base = gen_synthetic_base(3, 6, 30, seed=15)
        stream = gen_permuted_tasks(base, T=3, seed=16)
        R = {}
        for lgu in (False, True):
            cfg = TrainConfig(
                seed=6,
                variant=variant_ours(lgu=lgu),
                hidden_sizes=(),  # linear model: exactly one fused segment
            )
            R[lgu], _ = train_sequence(stream, cfg)
        assert np.array_equal(R[False], R[True], equal_nan=True)

    def test_variant_letter_mapping(self):
        assert variant_from_name("a").kind == "single"
        assert variant_from_name("b").kind == "agem"
        assert variant_from_name("c").lgu
        assert variant_from_name("d").kind == "ours"
        assert variant_from_name("e", k=2).pca_k == 2
        f = variant_from_name("f")
        assert f.kind == "ours" and f.lgu
        g = variant_from_name("g", k=3)
        assert g.pca_k == 3 and g.lgu
        with pytest.raises(ValueError):
            variant_from_name("z")


README_NAMES = (
    "single", "agem", "agem+lgu", "sgem", "gem", "gem+lgu",
    "ours", "ours+lgu", "ours+pca", "ours+pca+lgu",
)


class TestVariantNames:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name", [*"abcdefg", *README_NAMES])
    def test_printed_name_reads_back(self, name, k):
        v = variant_from_name(name, k)
        assert variant_from_name(v.name) == v
        assert variant_from_name(v.name.upper(), k=k + 1) == v

    def test_letters_and_names_agree(self):
        for letter, name in trainer.LETTERS.items():
            assert variant_from_name(letter, k=2) == variant_from_name(name, k=2)
        assert variant_from_name("g", k=2).name == "ours+pca2+lgu"
        assert [variant_from_name(n).name for n in README_NAMES] == [
            "single", "agem", "agem+lgu", "sgem", "gem", "gem+lgu",
            "ours", "ours+lgu", "ours+pca1", "ours+pca1+lgu",
        ]

    def test_principal_direction_k(self):
        assert variant_from_name("e").pca_k == 1
        assert variant_from_name("ours+pca", k=4).pca_k == 4
        assert variant_from_name("ours+pca3", k=1).pca_k == 3
        assert variant_from_name("d", k=4).pca_k is None

    @pytest.mark.parametrize("k", [0, -1, "2", 2.5, True])
    def test_k_below_one_rejected(self, k):
        for name in ("e", "ours+pca+lgu", "d"):
            with pytest.raises(ValueError, match="at least 1"):
                variant_from_name(name, k=k)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(kind="warp"), "unknown method kind"),
            (dict(kind="agem", pca_k=2), "takes no principal-direction k"),
            (dict(kind="gem", pca_k=1, lgu=True), "takes no principal-direction k"),
            (dict(kind="ours", pca_k=0), "at least 1"),
            (dict(kind="ours", pca_k=-2, lgu=True), "at least 1"),
            (dict(kind="ours", pca_k=2.5), "integer"),
            (dict(kind="ours", pca_k=True), "integer"),
            (dict(kind="single", lgu=True), "no per-layer form"),
            (dict(kind="sgem", lgu=True), "no per-layer form"),
        ],
    )
    def test_invalid_variant_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            trainer.MethodVariant(**kwargs)

    @pytest.mark.parametrize(
        "name",
        ["warp", "h", "ours+pca0", "gem+pca2", "sgem+lgu", "single+lgu",
         "ours+lgu+pca", "ours+", "+lgu", "", "ours pca", "ours+pca-1"],
    )
    def test_unknown_name_rejected(self, name):
        with pytest.raises(ValueError):
            variant_from_name(name, k=2)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(eta=float("nan")), "eta"),
            (dict(eta=float("inf")), "eta"),
            (dict(eta=0.0), "eta"),
            (dict(eta=-0.1), "eta"),
            (dict(memory_policy="fifo"), "memory_policy"),
            (dict(eta=True), "eta"),
            (dict(bs_new=True), "bs_new"),
            (dict(bs_new=0), "bs_new"),
            (dict(bs_old=2.5), "bs_old"),
            (dict(memory_size=2.5), "memory_size"),
            (dict(memory_size=False), "memory_size"),
            (dict(replay_split_n=1.5), "replay_split_n"),
            (dict(replay_split_n=0), "replay_split_n"),
            (dict(seed=-1), "seed"),
            (dict(seed=2.5), "seed"),
            (dict(seed=True), "seed"),
            (dict(seed="1"), "seed"),
            (dict(hidden_sizes=(0,)), "hidden_sizes"),
            (dict(hidden_sizes=(2.5,)), "hidden_sizes"),
            (dict(hidden_sizes=(True,)), "hidden_sizes"),
            (dict(hidden_sizes=5), "hidden_sizes"),
            (dict(eta="0.1"), "eta"),
            (dict(eta=None), "eta"),
            (dict(eta=10**400), "eta"),
        ],
    )
    def test_invalid_setting_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**kwargs)

