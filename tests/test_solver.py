"""Constrained update solver, brute-force oracle, relaxations, baselines.

The oracle enumerates KKT cases with dense solves and shares no logic
with the closed form, so agreement between the two is the module's core
correctness evidence.
"""

import numpy as np
import pytest

from gradecomp import linalg, solver, verify
from gradecomp.decomp import decompose
from gradecomp.solver import (
    PROJECT_AND_REFLECT,
    PROJECT_ONLY,
    agem_update,
    gem_qp_update,
    qp_oracle,
    relax_basis,
    sgem_update,
    solve_update,
)


def random_instance(rng, dim=None, n_mem=None):
    dim = dim or int(rng.integers(4, 65))
    n_mem = n_mem or int(rng.integers(2, 9))
    old = [rng.standard_normal(dim) for _ in range(n_mem)]
    bundle = decompose(rng.standard_normal(dim), old)
    B = relax_basis(bundle.specific)
    return bundle, B


class TestSolveUpdate:
    def test_constraint_already_satisfied(self):
        res = solve_update(
            np.array([2.0, 3.0]), np.array([1.0, 0.0]), np.zeros((2, 0))
        )
        np.testing.assert_array_equal(res.w, [2.0, 3.0])
        assert res.branch == PROJECT_ONLY
        assert res.shared_alignment == pytest.approx(2.0)

    def test_reflect_branch_empty_basis(self):
        res = solve_update(
            np.array([-1.0, 1.0]), np.array([1.0, 0.0]), np.zeros((2, 0))
        )
        np.testing.assert_allclose(res.w, [0.0, 1.0], atol=1e-15)
        assert res.branch == PROJECT_AND_REFLECT
        assert abs(np.array([1.0, 0.0]) @ res.w) < 1e-15

    def test_reflect_branch_with_basis(self):
        B = np.array([[1.0], [0.0], [0.0]])
        g = np.array([1.0, -2.0, 3.0])
        g_bar = np.array([0.0, 1.0, 0.0])
        res = solve_update(g, g_bar, B)
        assert res.shared_alignment == pytest.approx(-2.0)
        np.testing.assert_allclose(res.w, [0.0, 0.0, 3.0], atol=1e-15)

    def test_degenerate_shared_inside_span_falls_back(self):
        # shared gradient numerically (not exactly) inside the constraint
        # span: the projected shared direction is vanishingly small, so
        # reflection is abandoned and the plain projection returned flagged
        B = np.array([[1.0], [0.0]])
        g_bar = np.array([1.0, 1e-8])
        g = np.array([5.0, -1.0])
        res = solve_update(g, g_bar, B)
        assert res.shared_alignment < 0.0
        assert res.degenerate
        assert res.branch == PROJECT_AND_REFLECT
        np.testing.assert_allclose(res.w, [0.0, -1.0])

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(300)
        for _ in range(100):
            bundle, B = random_instance(rng, dim=12, n_mem=4)
            res = solve_update(bundle.new_grad, bundle.shared, B)
            w_ref = qp_oracle(bundle.new_grad, bundle.shared, B)
            scale = max(np.linalg.norm(w_ref), np.linalg.norm(bundle.new_grad))
            assert np.linalg.norm(res.w - w_ref) < 1e-6 * scale

    def test_branch_consistency(self):
        # active constraint at the optimum: shared'w vanishes
        rng = np.random.default_rng(301)
        seen_reflect = 0
        for _ in range(200):
            bundle, B = random_instance(rng)
            res = solve_update(bundle.new_grad, bundle.shared, B)
            if res.branch == PROJECT_AND_REFLECT:
                seen_reflect += 1
                bound = 1e-8 * np.linalg.norm(bundle.shared) * np.linalg.norm(
                    bundle.new_grad
                )
                assert abs(bundle.shared @ res.w) <= bound
            else:
                assert res.shared_alignment >= 0.0
        assert seen_reflect > 20


class TestQpOracle:
    def test_inactive_inequality_returns_projection(self):
        rng = np.random.default_rng(302)
        for _ in range(50):
            bundle, B = random_instance(rng, dim=10, n_mem=3)
            Pg = linalg.apply_projection(B, bundle.new_grad)
            if bundle.shared @ Pg >= 0:
                w = qp_oracle(bundle.new_grad, bundle.shared, B)
                np.testing.assert_allclose(w, Pg, atol=1e-9)

    def test_fully_constrained_complement(self):
        # basis spans all but one axis; a gradient on that axis survives
        B = np.eye(4)[:, :3]
        g = np.array([0.0, 0.0, 0.0, 5.0])
        g_bar = np.array([0.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(qp_oracle(g, g_bar, B), g, atol=1e-12)

    def test_optimality_against_feasible_samples(self):
        # no sampled feasible point beats the oracle objective
        rng = np.random.default_rng(303)
        for _ in range(20):
            bundle, B = random_instance(rng, dim=8, n_mem=3)
            g, g_bar = bundle.new_grad, bundle.shared
            w_star = qp_oracle(g, g_bar, B)
            obj_star = np.linalg.norm(w_star - g)
            for _ in range(50):
                cand = linalg.apply_projection(B, rng.standard_normal(8) * 3)
                if g_bar @ cand >= 0:
                    assert obj_star <= np.linalg.norm(cand - g) + 1e-8


class TestRelaxBasis:
    def test_full_on_rank_one(self):
        G = np.outer(np.array([1.0, 2.0, 2.0]), np.array([1.0, -2.0, 0.5]))
        B = relax_basis(G)
        assert B.shape[1] == 1

    def test_pca_with_k_equal_rank_spans_full_space(self):
        rng = np.random.default_rng(304)
        bundle, B_full = random_instance(rng, dim=20, n_mem=5)
        B_pca = relax_basis(bundle.specific, B_full.shape[1])
        assert B_pca.shape[1] == B_full.shape[1]
        r = B_pca - B_full @ (B_full.T @ B_pca)
        assert np.abs(r).max() < 1e-8

    def test_pca_spans_nest_as_k_grows(self):
        rng = np.random.default_rng(307)
        for _ in range(10):
            bundle, _ = random_instance(rng, dim=16, n_mem=6)
            G = bundle.specific
            for k in (1, 2, 3):
                B_k = relax_basis(G, k)
                B_k1 = relax_basis(G, k + 1)
                out = B_k - B_k1 @ (B_k1.T @ B_k)
                assert np.abs(out).max() < 1e-8

    def test_near_collinear_memories_never_give_m_directions(self):
        # the family of verify.suite_basis_adversarial: m specific columns
        # summing to zero span at most m - 1 directions, and the rounding
        # noise of the deviations must not be kept as an m-th
        rng = np.random.default_rng(309)
        for _ in range(300):
            bundle = verify._near_collinear_bundle(rng)
            assert relax_basis(bundle.specific).shape[1] < len(bundle.old_grads)

    @pytest.mark.parametrize(
        "suite", [verify.suite_solver_vs_oracle, verify.suite_constraint_feasibility]
    )
    def test_solver_suites_exercise_both_basis_routes(self, monkeypatch, suite):
        # relax_basis calls one_pass_basis, which hands ill-conditioned
        # columns to modified_gram_schmidt: count both calls
        calls = {"basis": 0, "qr": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(linalg, "one_pass_basis",
                            counting("basis", linalg.one_pass_basis))
        monkeypatch.setattr(linalg, "modified_gram_schmidt",
                            counting("qr", linalg.modified_gram_schmidt))
        res = suite()
        assert res.passed, res.detail
        assert calls["basis"] == res.checked
        assert 0 < calls["qr"] < calls["basis"]

    def test_same_span_gives_same_update(self):
        rng = np.random.default_rng(308)
        for _ in range(20):
            bundle, B_full = random_instance(rng, dim=14, n_mem=5)
            B_pca = relax_basis(bundle.specific, max(B_full.shape[1], 1))
            w_a = solve_update(bundle.new_grad, bundle.shared, B_full).w
            w_b = solve_update(bundle.new_grad, bundle.shared, B_pca).w
            scale = max(np.linalg.norm(w_a), 1e-12)
            assert np.linalg.norm(w_a - w_b) < 1e-8 * scale


class TestAgemUpdate:
    def test_aligned_gradient_unchanged(self):
        w = agem_update(np.array([2.0, 3.0]), np.array([1.0, 0.0]))
        np.testing.assert_array_equal(w, [2.0, 3.0])

    def test_conflicting_gradient_projected(self):
        w = agem_update(np.array([-1.0, 1.0]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(w, [0.0, 1.0])

    def test_zero_reference_returns_input(self):
        g = np.array([1.0, -2.0])
        np.testing.assert_array_equal(agem_update(g, np.zeros(2)), g)

    def test_equals_solver_with_empty_basis(self):
        rng = np.random.default_rng(309)
        for _ in range(50):
            dim = int(rng.integers(2, 40))
            g = rng.standard_normal(dim)
            g_bar = rng.standard_normal(dim)
            res = solve_update(g, g_bar, np.zeros((dim, 0)))
            assert np.array_equal(res.w, agem_update(g, g_bar))


class TestSgemUpdate:
    def test_single_memory_is_deterministic(self):
        g = np.array([-1.0, 1.0])
        mem = [np.array([1.0, 0.0])]
        out = sgem_update(g, mem, np.random.default_rng(0))
        np.testing.assert_array_equal(out, agem_update(g, mem[0]))

    def test_identical_memories_ignore_draw(self):
        g = np.array([-1.0, 1.0])
        mem = [np.array([1.0, 0.0])] * 4
        outs = [sgem_update(g, mem, np.random.default_rng(s)) for s in range(5)]
        for out in outs[1:]:
            np.testing.assert_array_equal(out, outs[0])

    def test_seeded_choice_sequence_reproducible(self):
        rng = np.random.default_rng(310)
        g = rng.standard_normal(6)
        mem = [rng.standard_normal(6) for _ in range(5)]
        # replay the seeded generator independently to predict the draws
        probe = np.random.default_rng(99)
        expected_idx = [int(probe.integers(5)) for _ in range(10)]
        live = np.random.default_rng(99)
        for idx in expected_idx:
            out = sgem_update(g, mem, live)
            np.testing.assert_array_equal(out, agem_update(g, mem[idx]))

    def test_empty_memories_rejected(self):
        with pytest.raises(ValueError):
            sgem_update(np.zeros(2), [], np.random.default_rng(0))


class TestGemQpUpdate:
    def test_feasible_start_returns_gradient(self):
        rng = np.random.default_rng(311)
        g = rng.standard_normal(8)
        mem = [g + 0.01 * rng.standard_normal(8) for _ in range(3)]
        assert all(m @ g >= 0 for m in mem)
        np.testing.assert_array_equal(gem_qp_update(g, mem), g)

    def test_conflict_within_tolerance_returns_a_copy(self):
        # memory 0 conflicts by 1e-14 ||g_0|| ||g||, below GEM_SLACK_REL
        g = np.array([1.0, 0.0])
        mem = np.array([[-1e-14, 1.0], [1.0, 0.0]])
        w = gem_qp_update(g, mem)
        assert w is not g
        np.testing.assert_array_equal(w, g)

    def test_single_memory_equals_averaged_constraint(self):
        rng = np.random.default_rng(312)
        for _ in range(20):
            g = rng.standard_normal(10)
            m = rng.standard_normal(10)
            assert np.array_equal(gem_qp_update(g, [m]), agem_update(g, m))

    def test_feasibility_and_sampled_suboptimality(self):
        rng = np.random.default_rng(313)
        for _ in range(30):
            g = rng.standard_normal(10)
            mem = [rng.standard_normal(10) for _ in range(3)]
            w = gem_qp_update(g, mem)
            scale = np.linalg.norm(g)
            for m in mem:
                assert m @ w >= -1e-8 * np.linalg.norm(m) * scale
            obj = np.linalg.norm(w - g)
            hits = 0
            for _ in range(200):
                cand = g + rng.standard_normal(10) * scale
                if all(m @ cand >= 0 for m in mem):
                    hits += 1
                    assert obj <= np.linalg.norm(cand - g) + 1e-6
            # make sure the sampling actually found feasible competitors
            assert hits > 0

    def test_matches_oracle_on_two_constraints(self):
        # with two memories the dual solution can be cross-checked against
        # the single-inequality oracle built on the active face
        rng = np.random.default_rng(314)
        for _ in range(30):
            g = rng.standard_normal(6)
            mem = [rng.standard_normal(6) for _ in range(2)]
            w = gem_qp_update(g, mem)
            # primal optimality condition: w - g in the cone of memory rows
            resid = w - g
            coeff, *_ = np.linalg.lstsq(np.stack(mem).T, resid, rcond=None)
            assert (coeff >= -1e-8).all()
            recon = np.stack(mem).T @ coeff
            assert np.linalg.norm(recon - resid) < 1e-6 * max(1, np.linalg.norm(resid))


class TestGemExactSuite:
    def test_passes(self):
        res = verify.suite_gem_exact()
        assert res.passed, res.detail
        # the enumerated optima cover active sets of several sizes
        sizes = res.detail.rsplit("[", 1)[1]
        assert sum(int(c) > 0 for c in sizes.strip("]").split(",")) >= 5

    def test_trips_on_a_capped_dual_iteration(self, monkeypatch):
        # projected gradient on the dual, stopped after a fixed number of
        # steps: close to the optimum on easy instances, not on all
        def capped(g, old_grads):
            G = np.asarray(old_grads, dtype=np.float64)
            K, q = G @ G.T, G @ g
            step = 1.0 / np.linalg.eigvalsh(K)[-1]
            v = np.zeros(len(G))
            for _ in range(2000):
                v = np.maximum(0.0, v - step * (K @ v + q))
            return g + G.T @ v

        monkeypatch.setattr(solver, "gem_qp_update", capped)
        res = verify.suite_gem_exact()
        assert not res.passed
        assert res.failing_case is not None
