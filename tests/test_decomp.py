"""Shared/specific decomposition of replay gradients."""

import numpy as np
import pytest

from gradecomp import linalg
from gradecomp.decomp import decompose, shared_gradient


class TestSharedGradient:
    def test_mean_of_axis_vectors(self):
        out = shared_gradient([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_identical_inputs(self):
        out = shared_gradient([np.array([2.0, 2.0]), np.array([2.0, 2.0])])
        np.testing.assert_allclose(out, [2.0, 2.0])

    def test_single_task(self):
        out = shared_gradient([np.array([3.0, -1.0])])
        np.testing.assert_array_equal(out, [3.0, -1.0])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            shared_gradient([])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            shared_gradient([np.zeros(2), np.zeros(3)])


class TestTaskSpecificGradients:
    """``decompose(...).specific``: column ``i`` is memory ``i`` minus the mean."""

    def test_axis_vector_arithmetic(self):
        old = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        G = decompose(np.zeros(2), old).specific
        np.testing.assert_allclose(G[:, 0], [0.5, -0.5])
        np.testing.assert_allclose(G[:, 1], [-0.5, 0.5])

    def test_identical_old_gradients_give_zero_columns(self):
        old = [np.array([1.0, 2.0])] * 3
        G = decompose(np.zeros(2), old).specific
        assert np.abs(G).max() == 0.0

    def test_standard_basis_example(self):
        old = [np.eye(3)[i] for i in range(3)]
        G = decompose(np.zeros(3), old).specific
        for i in range(3):
            np.testing.assert_allclose(G[:, i], np.eye(3)[i] - 1.0 / 3.0)

    def test_dimension_mismatch_rejected(self):
        # the new-task gradient must match the memory rows' length
        with pytest.raises(ValueError):
            decompose(np.zeros(3), [np.zeros(2)])


class TestBundleInvariants:
    def test_reconstruction(self):
        rng = np.random.default_rng(200)
        for _ in range(30):
            dim = int(rng.integers(2, 60))
            n_mem = int(rng.integers(1, 9))
            old = [rng.standard_normal(dim) for _ in range(n_mem)]
            bundle = decompose(rng.standard_normal(dim), old)
            for i, g in enumerate(old):
                rebuilt = bundle.shared + bundle.specific[:, i]
                err = np.abs(rebuilt - g).max()
                assert err < 1e-12 * max(1.0, np.abs(g).max())

    def test_zero_sum_of_specific_columns(self):
        rng = np.random.default_rng(201)
        for _ in range(100):
            dim = int(rng.integers(2, 80))
            n_mem = int(rng.integers(1, 9))
            old = [rng.standard_normal(dim) for _ in range(n_mem)]
            bundle = decompose(rng.standard_normal(dim), old)
            col_norms = np.linalg.norm(bundle.specific, axis=0)
            resid = np.abs(bundle.specific.sum(axis=1)).max()
            if col_norms.max() > 0:
                assert resid < 1e-10 * col_norms.max()

    def test_rank_at_most_memories_minus_one(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            dim = int(rng.integers(8, 60))
            n_mem = int(rng.integers(1, 9))
            old = [rng.standard_normal(dim) for _ in range(n_mem)]
            bundle = decompose(rng.standard_normal(dim), old)
            rank = linalg.modified_gram_schmidt(bundle.specific).shape[1]
            assert rank <= n_mem - 1

    def test_no_old_tasks(self):
        # a bundle needs at least one memory row, as the shared gradient does
        for empty in ([], np.empty((0, 2))):
            with pytest.raises(ValueError, match="non-empty"):
                decompose(np.array([1.0, 2.0]), empty)

    def test_deterministic_accumulation_order(self):
        # the mean is accumulated in ascending task order, so re-running
        # over the same list is bitwise reproducible
        rng = np.random.default_rng(203)
        old = [rng.standard_normal(257) * 10.0 ** rng.integers(-3, 4) for _ in range(7)]
        a = shared_gradient(old)
        b = shared_gradient(list(old))
        assert np.array_equal(a, b)


class TestMatrixInput:
    """Old-task gradients arrive as one (m, n) matrix; lists still work."""

    def test_shared_gradient_equals_ascending_loop(self):
        rng = np.random.default_rng(204)
        for _ in range(50):
            m, dim = int(rng.integers(1, 20)), int(rng.integers(1, 400))
            G = rng.standard_normal((m, dim)) * 10.0 ** rng.integers(-3, 4, size=(m, 1))
            acc = np.zeros(dim)
            for row in G:
                acc += row
            assert shared_gradient(G).tobytes() == (acc / m).tobytes()

    def test_matrix_and_list_decompose_identically(self):
        rng = np.random.default_rng(205)
        for _ in range(30):
            m, dim = int(rng.integers(1, 20)), int(rng.integers(2, 300))
            G = rng.standard_normal((m, dim))
            g = rng.standard_normal(dim)
            a, b = decompose(g, G), decompose(g, list(G))
            assert a.old_grads.shape == b.old_grads.shape == (m, dim)
            assert a.shared.tobytes() == b.shared.tobytes()
            assert np.array_equal(a.specific, b.specific)
            assert a.n_memories == b.n_memories == m

    def test_matrix_is_kept_and_specific_is_its_transposed_difference(self):
        rng = np.random.default_rng(206)
        G = rng.standard_normal((4, 9))
        bundle = decompose(rng.standard_normal(9), G)
        assert bundle.old_grads is G
        assert bundle.specific.shape == (9, 4)
        assert np.array_equal(bundle.specific, (G - bundle.shared).T)

    def test_column_ordered_matrix_still_sums_in_task_order(self):
        rng = np.random.default_rng(207)
        G = rng.standard_normal((19, 50)) * 10.0 ** rng.integers(-8, 9, size=(19, 1))
        assert shared_gradient(np.asfortranarray(G)).tobytes() == shared_gradient(G).tobytes()

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError):
            shared_gradient(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError):
            shared_gradient(np.zeros((0, 3)))


class TestWorkspace:
    """Only the training step writes into reused buffers; every public
    call without a workspace returns fresh arrays."""

    def test_public_calls_return_fresh_arrays(self):
        from gradecomp.solver import relax_basis

        rng = np.random.default_rng(208)
        G = rng.standard_normal((5, 40))
        bundle = decompose(rng.standard_normal(40), G)
        first, second = bundle.specific, bundle.specific
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, G)
        assert not np.shares_memory(bundle.shared, G)
        again = decompose(bundle.new_grad, G)
        assert not np.shares_memory(again.shared, bundle.shared)
        B1, B2 = relax_basis(first), relax_basis(first)
        assert not np.shares_memory(B1, B2) and not np.shares_memory(B1, first)
        assert not np.shares_memory(relax_basis(first, 2), first)

    def test_overwrite_is_bit_identical(self):
        # overwrite=True forms the specific matrix in the storage of
        # old_grads, whole-vector or one segment's columns at a time; the
        # update is the one overwrite=False gives, which leaves G as it is
        from gradecomp.layerwise import ParamLayout, layerwise_solve
        from gradecomp.solver import decomposed_update

        def fields(res):
            return res.w.tobytes(), res.branch, res.shared_alignment

        rng = np.random.default_rng(209)
        layout = ParamLayout.from_lengths([("a", 30), ("b", 7), ("c", 13)])
        branches = set()
        for m in (2, 3, 7, 7, 7):
            G = rng.standard_normal((m, layout.total))
            g = rng.standard_normal(layout.total)
            for k in (None, 2):
                for solve in (
                    lambda b, **kw: decomposed_update(b, k, **kw),
                    lambda b, **kw: layerwise_solve(
                        b, layout, lambda s: decomposed_update(s, k, **kw)
                    ),
                ):
                    kept, spent = decompose(g, G.copy()), decompose(g, G.copy())
                    a, b = solve(kept), solve(spent, overwrite=True)
                    assert fields(a) == fields(b)
                    for (_, ra), (_, rb) in zip(a.per_layer or (), b.per_layer or ()):
                        assert fields(ra) == fields(rb)
                    assert kept.old_grads.tobytes() == G.tobytes()
                    assert spent.old_grads.tobytes() == (G - kept.shared).tobytes()
                    branches.add(a.branch)
        assert len(branches) == 2  # both branches of the solve were checked
        with pytest.raises(ValueError, match="non-empty"):
            decompose(g, [])  # no bundle, so no update, without old tasks

    def test_workspace_grows_only_when_needed(self):
        work = linalg.Workspace()
        a = work.take((4, 5))
        assert a.shape == (4, 5) and a.flags.c_contiguous
        b = work.take((2, 3))
        assert np.shares_memory(a, b)  # smaller: the same buffer
        c = work.take((30,))
        assert not np.shares_memory(a, c)  # larger: a new buffer
        assert np.shares_memory(c, work.take((5, 6)))
