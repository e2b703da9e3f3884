"""MLP forward/backward, evaluation, updates, and parameter layout.

Backprop is checked against central finite differences and the forward
pass against an independent hand-rolled recomputation; both oracles live
in this file and share nothing with the implementation.
"""

import numpy as np
import pytest

from gradecomp.model import Batch, MlpModel


def hand_forward(model, X):
    """Independent forward recomputation from the raw parameter vector."""
    params = model.params
    h = np.asarray(X, dtype=np.float64)
    offset = 0
    sizes = model.layer_sizes
    for i, (fi, fo) in enumerate(zip(sizes[:-1], sizes[1:])):
        W = params[offset: offset + fi * fo].reshape(fi, fo)
        offset += fi * fo
        b = params[offset: offset + fo]
        offset += fo
        h = h @ W + b
        if i != len(sizes) - 2:
            h = np.where(h > 0.0, h, 0.0)
    return h


def finite_difference_grad(model, batch, step=1e-5):
    fd = np.empty(model.n_params)
    for j in range(model.n_params):
        orig = model.params[j]
        model.params[j] = orig + step
        up, _ = model.loss_and_grad(batch)
        model.params[j] = orig - step
        down, _ = model.loss_and_grad(batch)
        model.params[j] = orig
        fd[j] = (up - down) / (2.0 * step)
    return fd


class TestForward:
    def test_identity_single_layer(self):
        model = MlpModel([2, 2], seed=0)
        model.params[:4] = np.eye(2).reshape(-1)
        model.params[4:] = 0.0
        logits = model.forward(np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(logits, [[1.0, 2.0]])

    def test_zero_parameters_give_zero_logits(self):
        model = MlpModel([3, 4, 2], seed=0)
        model.params[:] = 0.0
        logits = model.forward(np.ones((2, 3)))
        np.testing.assert_array_equal(logits, np.zeros((2, 2)))

    def test_matches_hand_rolled_recomputation(self):
        rng = np.random.default_rng(500)
        for _ in range(10):
            sizes = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(2, 5)))]
            model = MlpModel(sizes, seed=int(rng.integers(1000)))
            X = rng.standard_normal((4, sizes[0]))
            np.testing.assert_allclose(
                model.forward(X), hand_forward(model, X), atol=1e-12
            )

    @pytest.mark.parametrize("sizes", [[4, 2.5, 3], [4, True, 3], [4, 0, 3]])
    def test_non_integer_or_non_positive_size_rejected(self, sizes):
        with pytest.raises(ValueError, match="layer sizes"):
            MlpModel(sizes, seed=0)

    @pytest.mark.parametrize("seed", [2.5, True, -1])
    def test_non_integer_or_negative_seed_rejected(self, seed):
        # 2.5 and True would otherwise seed as 2 and 1; -1 fails inside numpy
        with pytest.raises(ValueError, match="seed"):
            MlpModel([2, 2], seed=seed)

    def test_width_mismatch_rejected(self):
        model = MlpModel([3, 2], seed=0)
        with pytest.raises(ValueError):
            model.forward(np.ones((1, 4)))


class TestLossAndGrad:
    def test_uniform_logits_loss_is_log_two(self):
        model = MlpModel([2, 2], seed=0)
        model.params[:] = 0.0
        batch = Batch(np.array([[1.0, 1.0]]), np.array([0]))
        loss, grad = model.loss_and_grad(batch)
        assert loss == pytest.approx(np.log(2.0))
        # logit gradient (-0.5, 0.5) flows into the bias slots
        np.testing.assert_allclose(grad[4:], [-0.5, 0.5])

    def test_saturated_logits_loss_vanishes(self):
        model = MlpModel([2, 2], seed=0)
        model.params[:] = 0.0
        model.params[4:] = [20.0, -20.0]  # bias drives separation
        batch = Batch(np.array([[0.0, 0.0]]), np.array([0]))
        loss, _ = model.loss_and_grad(batch)
        assert loss < 1e-8

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(501)
        for _ in range(20):
            sizes = [
                int(rng.integers(3, 7)),
                int(rng.integers(4, 9)),
                int(rng.integers(2, 5)),
            ]
            model = MlpModel(sizes, seed=int(rng.integers(2**31)))
            n = int(rng.integers(2, 7))
            batch = Batch(
                rng.standard_normal((n, sizes[0])) * 2.0,
                rng.integers(0, sizes[-1], size=n),
            )
            _, grad = model.loss_and_grad(batch)
            fd = finite_difference_grad(model, batch)
            floor = max(1e-6, 1e-3 * np.abs(fd).max())
            rel = (np.abs(grad - fd) / np.maximum(np.abs(fd), floor)).max()
            assert rel < 1e-4

    def test_loss_nonnegative_and_log_c_at_uniform(self):
        for c in (2, 3, 5):
            model = MlpModel([2, c], seed=0)
            model.params[:] = 0.0
            batch = Batch(np.zeros((3, 2)), np.array([0, c - 1, 0]))
            loss, _ = model.loss_and_grad(batch)
            assert loss == pytest.approx(np.log(c))

    def test_invalid_label_rejected(self):
        model = MlpModel([2, 2], seed=0)
        with pytest.raises(ValueError):
            model.loss_and_grad(Batch(np.zeros((1, 2)), np.array([2])))


def plain_backprop(model, batch):
    """Single-batch backprop written out layer by layer: the reference the
    one-group pass must reproduce bit for bit."""
    X, y = batch.inputs, batch.labels
    n = X.shape[0]
    layers = []
    offset = 0
    for fi, fo in zip(model.layer_sizes[:-1], model.layer_sizes[1:]):
        W = model.params[offset: offset + fi * fo].reshape(fi, fo)
        b = model.params[offset + fi * fo: offset + fi * fo + fo]
        layers.append((W, b, offset))
        offset += fi * fo + fo
    acts, pre = [X], []
    h = X
    for i, (W, b, _) in enumerate(layers):
        z = h @ W + b
        pre.append(z)
        h = np.maximum(z, 0.0) if i != len(layers) - 1 else z
        acts.append(h)
    shifted = h - h.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    sum_exp = exp.sum(axis=1)
    log_probs = shifted - np.log(sum_exp)[:, None]
    loss = float(-log_probs[np.arange(n), y].mean())
    grad = np.zeros(model.n_params)
    delta = exp / sum_exp[:, None]
    delta[np.arange(n), y] -= 1.0
    delta /= n
    for i in range(len(layers) - 1, -1, -1):
        W, _, off = layers[i]
        fi, fo = W.shape
        grad[off: off + fi * fo] = (acts[i].T @ delta).reshape(-1)
        grad[off + fi * fo: off + fi * fo + fo] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ W.T) * (pre[i - 1] > 0.0)
    return loss, grad


def random_batch(rng, rows, width, classes):
    return Batch(rng.standard_normal((rows, width)), rng.integers(0, classes, size=rows))


class TestStackedGroups:
    def test_one_group_is_bit_identical_to_plain_backprop(self):
        rng = np.random.default_rng(510)
        for trial in range(40):
            sizes = [32, 100, 100, 3] if trial % 4 == 0 else [
                int(rng.integers(2, 9)) for _ in range(int(rng.integers(2, 5)))
            ]
            model = MlpModel(sizes, seed=int(rng.integers(1000)))
            batch = random_batch(rng, int(rng.integers(1, 25)), sizes[0], sizes[-1])
            ref_loss, ref_grad = plain_backprop(model, batch)
            loss, grad = model.loss_and_grad(batch)
            losses, G = model.loss_and_grad(batch, groups=1)
            assert loss == ref_loss == losses[0]
            assert grad.tobytes() == ref_grad.tobytes()
            assert G.shape == (1, model.n_params)
            assert G[0].tobytes() == ref_grad.tobytes()

    def test_groups_match_single_group_passes(self):
        # one stacked GEMM may round differently from per-group ones
        rng = np.random.default_rng(511)
        for trial in range(20):
            sizes = [32, 100, 100, 3] if trial % 2 == 0 else [
                int(rng.integers(2, 9)) for _ in range(int(rng.integers(2, 5)))
            ]
            model = MlpModel(sizes, seed=int(rng.integers(1000)))
            m, bs = int(rng.integers(1, 20)), int(rng.integers(1, 21))
            batch = random_batch(rng, m * bs, sizes[0], sizes[-1])
            losses, G = model.loss_and_grad(batch, groups=m)
            assert losses.shape == (m,)
            assert G.shape == (m, model.n_params) and G.flags.c_contiguous
            for k in range(m):
                rows = slice(k * bs, (k + 1) * bs)
                loss_k, g_k = model.loss_and_grad(
                    Batch(batch.inputs[rows], batch.labels[rows])
                )
                assert abs(losses[k] - loss_k) <= 1e-13 * abs(loss_k)
                assert np.abs(G[k] - g_k).max() <= 1e-13 * np.abs(g_k).max()

    def test_unequal_group_sizes_rejected(self):
        model = MlpModel([2, 3], seed=0)
        batch = Batch(np.zeros((5, 2)), np.zeros(5, dtype=int))
        for groups in (2, 0, 6):
            with pytest.raises(ValueError, match="groups of equal size"):
                model.loss_and_grad(batch, groups=groups)

    def test_out_of_range_labels_rejected(self):
        model = MlpModel([2, 3], seed=0)
        for label in (-1, 3):
            batch = Batch(np.zeros((4, 2)), np.array([0, 1, 2, label]))
            with pytest.raises(ValueError, match="labels"):
                model.loss_and_grad(batch, groups=2)

    def test_non_finite_result_rejected(self):
        model = MlpModel([2, 3, 2], seed=0)
        inputs = np.ones((4, 2))
        inputs[3] = np.inf  # only the second group overflows
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            model.loss_and_grad(Batch(inputs, np.zeros(4, dtype=int)), groups=2)


class TestOutBuffer:
    """``loss_and_grad(..., out=buf)`` writes into ``buf`` and returns it."""

    def test_out_is_returned_and_bit_identical(self):
        rng = np.random.default_rng(512)
        model = MlpModel([32, 100, 100, 3], seed=3)
        for m in (1, 4, 19):
            batch = random_batch(rng, m * 20, 32, 3)
            losses, G = model.loss_and_grad(batch, groups=m)
            buf = np.full((m, model.n_params), np.nan)
            losses_out, G_out = model.loss_and_grad(batch, groups=m, out=buf)
            assert G_out is buf
            assert G_out.tobytes() == G.tobytes()
            assert losses_out.tobytes() == losses.tobytes()
        loss, g = model.loss_and_grad(batch)
        vec = np.empty(model.n_params)
        loss_out, g_out = model.loss_and_grad(batch, out=vec)
        assert g_out is vec and loss_out == loss
        assert g_out.tobytes() == g.tobytes()

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: np.empty((3, n)),  # wrong row count
            lambda n: np.empty((2, n + 1)),  # wrong width
            lambda n: np.empty(2 * n),  # flat
            lambda n: np.empty((2, n), dtype=np.float32),
            lambda n: np.empty((2, n), order="F"),
            lambda n: np.empty((2, 2 * n))[:, ::2],
            lambda n: [[0.0] * n] * 2,  # no array
        ],
    )
    def test_bad_out_rejected(self, make):
        model = MlpModel([4, 5, 3], seed=0)
        batch = random_batch(np.random.default_rng(0), 6, 4, 3)
        with pytest.raises(ValueError, match="out must be"):
            model.loss_and_grad(batch, groups=2, out=make(model.n_params))

    def test_one_group_out_is_a_vector(self):
        model = MlpModel([4, 5, 3], seed=0)
        batch = random_batch(np.random.default_rng(0), 6, 4, 3)
        with pytest.raises(ValueError, match="out must be"):
            model.loss_and_grad(batch, out=np.empty((1, model.n_params)))

    def test_calls_without_out_return_unaliased_arrays(self):
        # the hidden activations are the model's scratch; nothing
        # returned may share memory with it or with an earlier result
        rng = np.random.default_rng(513)
        model = MlpModel([8, 6, 5, 3], seed=1)
        first, second = random_batch(rng, 12, 8, 3), random_batch(rng, 12, 8, 3)
        losses_a, G_a = model.loss_and_grad(first, groups=3)
        kept = G_a.copy(), losses_a.copy()
        losses_b, G_b = model.loss_and_grad(second, groups=3)
        assert not np.shares_memory(G_a, G_b)
        assert not np.shares_memory(losses_a, losses_b)
        assert G_a.tobytes() == kept[0].tobytes()
        assert losses_a.tobytes() == kept[1].tobytes()
        _, g = model.loss_and_grad(first)
        assert not np.shares_memory(g, G_a) and not np.shares_memory(g, G_b)

    def test_larger_then_smaller_batches_reuse_scratch_exactly(self):
        # the scratch grows to the largest batch; a later, smaller batch
        # must give the result of a model that never saw the large one
        rng = np.random.default_rng(514)
        model = MlpModel([8, 6, 5, 3], seed=1)
        small, large = random_batch(rng, 5, 8, 3), random_batch(rng, 40, 8, 3)
        ref_loss, ref_grad = model.clone().loss_and_grad(small)
        model.loss_and_grad(large, groups=4)
        loss, grad = model.loss_and_grad(small)
        assert loss == ref_loss and grad.tobytes() == ref_grad.tobytes()


class TestApplyUpdate:
    def test_zero_update_no_change(self):
        model = MlpModel([2, 3], seed=1)
        before = model.params.copy()
        model.apply_update(np.zeros(model.n_params), 0.5)
        assert np.array_equal(model.params, before)

    def test_zero_step_no_change(self):
        model = MlpModel([2, 3], seed=1)
        before = model.params.copy()
        model.apply_update(np.ones(model.n_params), 0.0)
        assert np.array_equal(model.params, before)

    def test_arithmetic(self):
        model = MlpModel([1, 1], seed=0)
        model.params[:] = [1.0, 1.0]
        model.apply_update(np.array([1.0, -1.0]), 0.5)
        np.testing.assert_allclose(model.params, [0.5, 1.5])

    def test_views_track_flat_vector(self):
        model = MlpModel([2, 2], seed=3)
        logits_before = model.forward(np.ones((1, 2)))
        model.apply_update(np.ones(model.n_params), 0.1)
        logits_after = model.forward(np.ones((1, 2)))
        assert not np.allclose(logits_before, logits_after)

    def test_dimension_mismatch(self):
        model = MlpModel([2, 2], seed=0)
        with pytest.raises(ValueError):
            model.apply_update(np.zeros(3), 0.1)

    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_step_rejected(self, eta):
        model = MlpModel([2, 3], seed=1)
        before = model.params.copy()
        with pytest.raises(ValueError, match="finite"):
            model.apply_update(np.ones(model.n_params), eta)
        assert np.array_equal(model.params, before)


class TestEvaluate:
    def test_perfect_predictions(self):
        model = MlpModel([2, 2], seed=0)
        model.params[:] = 0.0
        model.params[:4] = np.eye(2).reshape(-1) * 10
        batch = Batch(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
        assert model.evaluate(batch) == 1.0

    def test_tie_break_toward_lowest_class(self):
        model = MlpModel([2, 3], seed=0)
        model.params[:] = 0.0
        batch0 = Batch(np.ones((4, 2)), np.zeros(4, dtype=int))
        assert model.evaluate(batch0) == 1.0
        batch1 = Batch(np.ones((4, 2)), np.ones(4, dtype=int))
        assert model.evaluate(batch1) == 0.0

    def test_class_subset_restricts_argmax(self):
        model = MlpModel([2, 4], seed=0)
        model.params[:] = 0.0
        model.params[-4:] = [0.0, 5.0, 0.0, 0.0]  # class 1 dominates
        batch = Batch(np.zeros((2, 2)), np.array([2, 2]))
        assert model.evaluate(batch) == 0.0
        assert model.evaluate(batch, class_subset=np.array([2, 3])) == 1.0


class TestDeterminismAndCheckpoint:
    def test_same_seed_same_parameters(self):
        a = MlpModel([4, 8, 3], seed=77)
        b = MlpModel([4, 8, 3], seed=77)
        assert np.array_equal(a.params, b.params)
        c = MlpModel([4, 8, 3], seed=78)
        assert not np.array_equal(a.params, c.params)

    def test_biases_start_at_zero(self):
        model = MlpModel([3, 5, 2], seed=9)
        for _, b in model._layers:
            assert np.array_equal(b, np.zeros_like(b))
