"""Per-layer solves, layouts, and first-order loss-change predictions."""

import numpy as np
import pytest

from gradecomp import solver
from gradecomp.decomp import decompose
from gradecomp.layerwise import (
    ParamLayout,
    layerwise_solve,
    predicted_loss_change,
)
from gradecomp.solver import (
    PROJECT_AND_REFLECT,
    PROJECT_ONLY,
    decomposed_update,
)


def layout_of(*lengths):
    return ParamLayout.from_lengths([(f"seg{i}", n) for i, n in enumerate(lengths)])


class TestParamLayout:
    def test_valid_layout(self):
        layout = layout_of(2, 3)
        assert layout.total == 5
        assert [s.name for s in layout.segments] == ["seg0", "seg1"]

    def test_rejects_gap_overlap_and_empty(self):
        from gradecomp.layerwise import Segment

        with pytest.raises(ValueError):
            ParamLayout(segments=(Segment("a", 1, 2),), total=3)
        with pytest.raises(ValueError):
            ParamLayout(segments=(), total=0)
        with pytest.raises(ValueError):
            ParamLayout(segments=(Segment("a", 0, 2), Segment("b", 1, 2)), total=3)


class TestLayerwiseSolve:
    def test_single_segment_collapses_to_concatenated(self):
        rng = np.random.default_rng(401)
        for _ in range(20):
            dim = int(rng.integers(4, 30))
            old = [rng.standard_normal(dim) for _ in range(4)]
            bundle = decompose(rng.standard_normal(dim), old)
            res_lw = layerwise_solve(bundle, layout_of(dim), decomposed_update)
            B = solver.relax_basis(bundle.specific)
            res_cc = solver.solve_update(bundle.new_grad, bundle.shared, B)
            assert np.array_equal(res_lw.w, res_cc.w)
            assert res_lw.branch == res_cc.branch
            assert res_lw.shared_alignment == res_cc.shared_alignment

    def test_per_layer_branch_semantics(self):
        # hand-built instance: first segment aligned, second conflicting
        old = [np.array([1.0, 0.0, 1.0, 1.0]), np.array([1.0, 0.0, 1.0, -1.0])]
        g = np.array([2.0, 3.0, -1.0, 5.0])
        bundle = decompose(g, old)
        res = layerwise_solve(bundle, layout_of(2, 2), decomposed_update)
        (name_a, res_a), (name_b, res_b) = res.per_layer
        assert res_a.branch == PROJECT_ONLY
        np.testing.assert_array_equal(res_a.w, [2.0, 3.0])
        assert res_b.branch == PROJECT_AND_REFLECT
        g_bar_b = bundle.shared[2:]
        assert abs(g_bar_b @ res_b.w) < 1e-12
        np.testing.assert_allclose(res.w, [2.0, 3.0, 0.0, 0.0], atol=1e-15)
        assert res.branch == PROJECT_AND_REFLECT

    def test_matches_slice_wise_recomputation(self):
        rng = np.random.default_rng(402)
        for _ in range(20):
            lengths = [int(rng.integers(2, 9)) for _ in range(3)]
            layout = layout_of(*lengths)
            dim = layout.total
            old = [rng.standard_normal(dim) for _ in range(5)]
            bundle = decompose(rng.standard_normal(dim), old)
            res = layerwise_solve(bundle, layout, decomposed_update)
            for sl, (_, seg_res) in zip(layout.slices(), res.per_layer):
                sub = decompose(bundle.new_grad[sl], [o[sl] for o in old])
                B = solver.relax_basis(sub.specific)
                ref = solver.solve_update(sub.new_grad, sub.shared, B)
                assert np.array_equal(seg_res.w, ref.w)
                np.testing.assert_array_equal(res.w[sl], ref.w)

    def test_alignment_is_sum_of_segments(self):
        rng = np.random.default_rng(403)
        old = [rng.standard_normal(10) for _ in range(3)]
        bundle = decompose(rng.standard_normal(10), old)
        res = layerwise_solve(bundle, layout_of(4, 6), decomposed_update)
        parts = sum(r.shared_alignment for _, r in res.per_layer)
        assert res.shared_alignment == pytest.approx(parts)

    def test_rule_sees_one_old_gradient_slice_per_segment(self):
        rng = np.random.default_rng(404)
        G = rng.standard_normal((5, 12))
        bundle = decompose(rng.standard_normal(12), G)
        layout = layout_of(3, 4, 5)
        seen = []

        def rule(sub):
            seen.append(sub.old_grads)
            return decomposed_update(sub)

        layerwise_solve(bundle, layout, rule)
        assert len(seen) == 3
        for old, sl in zip(seen, layout.slices()):
            assert isinstance(old, np.ndarray)
            assert old.shape == (5, sl.stop - sl.start)
            assert np.shares_memory(old, G)
            assert np.array_equal(old, G[:, sl])

    def test_requires_old_tasks(self):
        bundle = decompose(np.zeros(4), [])
        with pytest.raises(ValueError):
            layerwise_solve(bundle, layout_of(4), decomposed_update)


class TestPredictedLossChange:
    def test_aligned_concatenated_case(self):
        bundle = decompose(np.array([1.0, 0.0]), [np.array([1.0, 0.0])])
        res = decomposed_update(bundle)
        report = predicted_loss_change(bundle, res)
        assert res.shared_alignment == pytest.approx(1.0)
        assert report.predicted_delta == pytest.approx(-1.0)

    def test_conflicting_concatenated_case_is_zero(self):
        bundle = decompose(np.array([-1.0, 0.0]), [np.array([1.0, 0.0])])
        res = solver.solve_update(bundle.new_grad, bundle.shared, np.zeros((2, 0)))
        report = predicted_loss_change(bundle, res)
        assert res.shared_alignment < 0.0
        assert report.predicted_delta == 0.0

    def test_layerwise_sums_only_contributing_segments(self):
        # alignments +0.5 and -0.3 across two segments
        old = [np.array([1.0, 0.0, 1.0, 0.0])]
        g = np.array([0.5, 9.0, -0.3, 7.0])
        bundle = decompose(g, old)
        res = layerwise_solve(bundle, layout_of(2, 2), decomposed_update)
        report = predicted_loss_change(bundle, res)
        aligns = [r.shared_alignment for _, r in res.per_layer]
        assert aligns == [pytest.approx(0.5), pytest.approx(-0.3)]
        assert report.predicted_delta == pytest.approx(-0.5)

    def test_realized_delta_matches_prediction_for_matching_update(self):
        rng = np.random.default_rng(405)
        for _ in range(20):
            old = [rng.standard_normal(9) for _ in range(3)]
            bundle = decompose(rng.standard_normal(9), old)
            layout = layout_of(4, 5)
            res = layerwise_solve(bundle, layout, decomposed_update)
            report = predicted_loss_change(bundle, res)
            assert report.realized_delta == pytest.approx(
                report.predicted_delta, abs=1e-10
            )

    def test_layerwise_prediction_never_positive(self):
        rng = np.random.default_rng(406)
        for _ in range(100):
            old = [rng.standard_normal(12) for _ in range(int(rng.integers(1, 6)))]
            bundle = decompose(rng.standard_normal(12), old)
            res = layerwise_solve(bundle, layout_of(3, 4, 5), decomposed_update)
            report = predicted_loss_change(bundle, res)
            assert report.predicted_delta <= 0.0

    def test_single_memory_dominance_boundary(self):
        # with one stored memory both modes share the identity projection,
        # so the layerwise prediction provably dominates: sum of clipped
        # segment alignments is at least the clipped total
        rng = np.random.default_rng(407)
        for _ in range(100):
            bundle = decompose(rng.standard_normal(12), [rng.standard_normal(12)])
            layout = layout_of(3, 4, 5)
            d_cc = predicted_loss_change(
                bundle, decomposed_update(bundle)
            ).predicted_delta
            d_lw = predicted_loss_change(
                bundle, layerwise_solve(bundle, layout, decomposed_update)
            ).predicted_delta
            # segmented and whole-vector dot products round differently
            assert d_lw <= d_cc + 1e-12 * max(1.0, abs(d_cc))
