"""Kernels: orthonormalization, Gram PCA, projection.

The PCA path is cross-checked against Gram-Schmidt spans and
reconstruction identities, which share no code with the implementation.
"""

import numpy as np
import pytest

from gradecomp import linalg

RT2 = np.sqrt(2.0)


class TestModifiedGramSchmidt:
    def test_normalizes_single_column(self):
        B = linalg.modified_gram_schmidt(np.array([[2.0], [0.0], [0.0]]))
        np.testing.assert_allclose(B, [[1.0], [0.0], [0.0]])

    def test_two_vector_orthogonalization(self):
        X = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        B = linalg.modified_gram_schmidt(X)
        expected = np.array([[1 / RT2, 1 / RT2], [1 / RT2, -1 / RT2], [0.0, 0.0]])
        np.testing.assert_allclose(B, expected, atol=1e-15)

    def test_collinear_columns_drop_to_rank_one(self):
        B = linalg.modified_gram_schmidt(np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert B.shape == (2, 1)
        np.testing.assert_allclose(B[:, 0], [1.0, 0.0])

    def test_empty_and_zero_inputs(self):
        assert linalg.modified_gram_schmidt(np.zeros((4, 0))).shape == (4, 0)
        assert linalg.modified_gram_schmidt(np.zeros((4, 3))).shape == (4, 0)

    def test_orthonormality_on_random_inputs(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(3, 50))
            m = int(rng.integers(1, 10))
            scales = 10.0 ** rng.integers(-4, 4, size=m)
            X = rng.standard_normal((n, m)) * scales
            B = linalg.modified_gram_schmidt(X)
            if B.shape[1]:
                gram = B.T @ B
                assert np.abs(gram - np.eye(B.shape[1])).max() < 1e-10

    def test_orthonormality_survives_near_dependence(self):
        rng = np.random.default_rng(102)
        for _ in range(50):
            base = rng.standard_normal((30, 2))
            X = np.column_stack([base[:, 0], base[:, 0] + 1e-8 * base[:, 1]])
            B = linalg.modified_gram_schmidt(X)
            assert B.shape[1] == 2
            assert np.abs(B.T @ B - np.eye(2)).max() < 1e-10

    def test_span_preserved(self):
        rng = np.random.default_rng(103)
        for _ in range(30):
            X = rng.standard_normal((25, 5))
            B = linalg.modified_gram_schmidt(X)
            residual = X - B @ (B.T @ X)
            assert np.abs(residual).max() < 1e-10 * np.abs(X).max()

    def test_null_space_test_transfers_to_basis(self):
        # a vector annihilated by the input columns is annihilated by the
        # basis, and vice versa; checked with vectors built on both sides
        rng = np.random.default_rng(104)
        for _ in range(25):
            n, m = 20, 4
            X = rng.standard_normal((n, m))
            B = linalg.modified_gram_schmidt(X)
            v = rng.standard_normal(n)
            v_null = v - B @ (B.T @ v)
            assert np.abs(X.T @ v_null).max() < 1e-10 * np.abs(X).max()
            v_in = X @ rng.standard_normal(m)
            assert np.abs(B.T @ v_in).max() > 1e-8
            assert np.abs(X.T @ v_in).max() > 1e-8

    def test_does_not_mutate_input(self):
        rng = np.random.default_rng(105)
        for order in ("C", "F"):
            X = np.array(rng.standard_normal((6, 3)), order=order)
            X0 = X.copy()
            linalg.modified_gram_schmidt(X)
            assert np.array_equal(X, X0)

    def test_rejects_bad_tolerance_and_nonfinite(self):
        with pytest.raises(ValueError):
            linalg.modified_gram_schmidt(np.eye(2), rel_tol=0.0)
        with pytest.raises(ValueError):
            linalg.modified_gram_schmidt(np.array([[np.nan], [1.0]]))


class TestGramPca:
    def test_rank_one_column_space(self):
        G = np.array([[1.0, -1.0], [0.0, 0.0]])
        B = linalg.gram_pca(G, K=1)
        assert B.shape == (2, 1)
        np.testing.assert_allclose(np.abs(B[:, 0]), [1.0, 0.0], atol=1e-14)

    def test_zero_matrix_gives_empty_basis(self):
        for K in (1, 3):
            assert linalg.gram_pca(np.zeros((5, 4)), K).shape == (5, 0)

    def test_subspace_containment_versus_full_basis(self):
        rng = np.random.default_rng(108)
        for _ in range(20):
            raw = rng.standard_normal((20, 4))
            G = raw - raw.mean(axis=1, keepdims=True)  # columns sum to zero
            B_full = linalg.modified_gram_schmidt(G)
            B_k = linalg.gram_pca(G, K=3)
            assert B_k.shape[1] == B_full.shape[1]  # K >= rank keeps all
            assert np.abs(B_k.T @ B_k - np.eye(B_k.shape[1])).max() < 1e-10
            for j in range(B_k.shape[1]):
                out = B_k[:, j] - B_full @ (B_full.T @ B_k[:, j])
                assert np.linalg.norm(out) < 1e-8

    def test_equals_gram_schmidt_span_when_k_at_least_rank(self):
        rng = np.random.default_rng(109)
        for _ in range(20):
            G = rng.standard_normal((15, 5))
            B_full = linalg.modified_gram_schmidt(G)
            B_k = linalg.gram_pca(G, K=8)
            # mutual projection residuals vanish in both directions
            r1 = B_k - B_full @ (B_full.T @ B_k)
            r2 = B_full - B_k @ (B_k.T @ B_full)
            assert np.abs(r1).max() < 1e-8
            assert np.abs(r2).max() < 1e-8

    def test_principal_direction_ordering(self):
        # dominant direction comes first: stretch one axis strongly
        rng = np.random.default_rng(110)
        U = linalg.modified_gram_schmidt(rng.standard_normal((10, 2)))
        coeffs = rng.standard_normal((2, 6))
        coeffs[0] *= 50.0
        G = U @ coeffs
        B = linalg.gram_pca(G, K=2)
        # first output column aligns with the stretched direction
        assert abs(B[:, 0] @ U[:, 0]) > 0.99

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            linalg.gram_pca(np.eye(3), K=0)


class TestApplyProjection:
    def test_axis_projection(self):
        B = np.array([[1.0], [0.0], [0.0]])
        np.testing.assert_allclose(
            linalg.apply_projection(B, np.array([1.0, 2.0, 3.0])), [0.0, 2.0, 3.0]
        )

    def test_empty_basis_is_identity(self):
        v = np.array([3.0, -1.0])
        out = linalg.apply_projection(np.zeros((2, 0)), v)
        np.testing.assert_array_equal(out, v)
        assert out is not v  # fresh array, caller's data untouched

    def test_full_basis_sends_everything_to_zero(self):
        rng = np.random.default_rng(111)
        B = linalg.modified_gram_schmidt(rng.standard_normal((5, 5)))
        assert B.shape == (5, 5)
        v = rng.standard_normal(5)
        assert np.abs(linalg.apply_projection(B, v)).max() < 1e-12 * np.abs(v).max()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.apply_projection(np.zeros((3, 1)), np.zeros(4))

    def test_projection_is_psd(self):
        # quadratic form stays non-negative for random bases and vectors
        rng = np.random.default_rng(112)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(1, min(n, 6)))
            B = linalg.modified_gram_schmidt(rng.standard_normal((n, m)))
            v = rng.standard_normal(n)
            assert v @ linalg.apply_projection(B, v) >= -1e-10 * (v @ v)

    def test_projection_is_idempotent(self):
        rng = np.random.default_rng(113)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(1, min(n, 8)))
            B = linalg.modified_gram_schmidt(rng.standard_normal((n, m)))
            v = rng.standard_normal(n)
            once = linalg.apply_projection(B, v)
            twice = linalg.apply_projection(B, once)
            assert np.linalg.norm(twice - once) < 1e-10 * max(np.linalg.norm(once), 1e-12)

    def test_result_annihilated_by_basis(self):
        rng = np.random.default_rng(114)
        for _ in range(50):
            B = linalg.modified_gram_schmidt(rng.standard_normal((20, 4)))
            v = rng.standard_normal(20)
            out = linalg.apply_projection(B, v)
            assert np.abs(B.T @ out).max() < 1e-10 * np.linalg.norm(v)
