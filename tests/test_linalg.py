"""Kernels: orthonormalization, its top-k (Gram PCA) cut, projection.

The PCA path is cross-checked against Gram-Schmidt spans and
reconstruction identities, which share no code with the implementation.
"""

import numpy as np
import pytest

from gradecomp import linalg, solver, verify

RT2 = np.sqrt(2.0)


class TestModifiedGramSchmidt:
    def test_normalizes_single_column(self):
        B = linalg.modified_gram_schmidt(np.array([[2.0], [0.0], [0.0]]))
        np.testing.assert_allclose(B, [[1.0], [0.0], [0.0]])

    def test_two_vector_orthogonalization(self):
        X = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        B = linalg.modified_gram_schmidt(X)
        expected = np.array([[1 / RT2, 1 / RT2], [1 / RT2, -1 / RT2], [0.0, 0.0]])
        # a basis is defined up to the signs of its columns
        np.testing.assert_allclose(B * np.sign(B[0]), expected, atol=1e-15)

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

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            linalg.modified_gram_schmidt(np.array([[np.nan], [1.0]]))


def assert_gram_schmidt_of(B, cols):
    """``B`` is the Gram-Schmidt basis of ``cols``, in order and up to
    column signs, checked against numpy's QR of exactly those columns."""
    Q = np.linalg.qr(cols)[0]
    assert B.shape == Q.shape
    np.testing.assert_allclose(np.abs(B.T @ Q), np.eye(Q.shape[1]), atol=1e-10)


def loop_gram_schmidt(X):
    """Reference: column-by-column Gram-Schmidt with two orthogonalization
    passes and the same drop rule as the kernel."""
    max_norm = np.linalg.norm(X, axis=0).max()
    cols = []
    for x in X.T:
        v = x.copy()
        for _ in range(2):
            for b in cols:
                v -= (b @ v) * b
        norm = np.linalg.norm(v)
        if norm >= linalg.DEFAULT_RANK_TOL * max_norm:
            cols.append(v / norm)
    return np.column_stack(cols) if cols else np.zeros((X.shape[0], 0))


class TestBasisContract:
    """Rank decisions and column order of the basis on structured input."""

    def test_dependent_column_in_the_middle_is_skipped(self):
        rng = np.random.default_rng(120)
        for _ in range(20):
            a, b, c = rng.standard_normal((3, 12))
            X = np.column_stack([a, b, 2.0 * a - 3.0 * b, c])
            B = linalg.modified_gram_schmidt(X)
            assert_gram_schmidt_of(B, X[:, [0, 1, 3]])

    def test_trailing_zero_sum_column_is_dropped(self):
        rng = np.random.default_rng(121)
        for _ in range(20):
            raw = rng.standard_normal((15, 4))
            X = raw - raw.mean(axis=1, keepdims=True)  # columns sum to zero
            B = linalg.modified_gram_schmidt(X)
            assert_gram_schmidt_of(B, X[:, :3])

    def test_wide_input_keeps_the_first_n_columns(self):
        rng = np.random.default_rng(122)
        for n, m in ((1, 3), (3, 5), (4, 9)):
            X = rng.standard_normal((n, m))
            B = linalg.modified_gram_schmidt(X)
            assert_gram_schmidt_of(B, X[:, :n])

    def test_leading_zero_column_is_dropped(self):
        rng = np.random.default_rng(123)
        X = np.column_stack([np.zeros(10), rng.standard_normal((10, 2))])
        B = linalg.modified_gram_schmidt(X)
        assert_gram_schmidt_of(B, X[:, 1:])

    def test_rank_matches_the_loop_on_near_collinear_memories(self):
        # zero-sum specific gradients of memories spread 1e-12..1 around one
        # gradient: the rank decision is the loop's, including the inputs
        # where both admit a rounding-noise direction (rank m)
        rng = np.random.default_rng(125)
        for _ in range(200):
            n, m = int(rng.integers(5, 300)), int(rng.integers(2, 12))
            spread = 10.0 ** rng.uniform(-12.0, 0.0)
            old = rng.standard_normal(n)[:, None] + spread * rng.standard_normal((n, m))
            X = old - old.mean(axis=1, keepdims=True)
            assert linalg.modified_gram_schmidt(X).shape == loop_gram_schmidt(X).shape

    def test_directions_match_the_loop_on_well_conditioned_input(self):
        rng = np.random.default_rng(126)
        for _ in range(50):
            n, m = int(rng.integers(20, 300)), int(rng.integers(1, 12))
            X = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-3.0, 3.0, size=m)
            B = linalg.modified_gram_schmidt(X)
            B_ref = loop_gram_schmidt(X)
            assert B.shape == B_ref.shape
            np.testing.assert_allclose(np.abs(B.T @ B_ref), np.eye(m), atol=1e-10)

    def test_graded_triangle_stays_spanned(self):
        # Kahan-type columns: every Gram-Schmidt residual is at least 1e-6,
        # but the condition number is near 1e17; inverting the triangular
        # factor against X would leave columns far outside the basis
        rng = np.random.default_rng(127)
        m = 19
        s = 1e-6 ** (1.0 / (m - 1))
        T = np.eye(m) - 10.0 * np.triu(np.ones((m, m)), 1)
        for n in (19, 60, 300):
            frame = np.linalg.qr(rng.standard_normal((n, m)))[0]
            X = frame @ (s ** np.arange(m)[:, None] * T)
            B = linalg.modified_gram_schmidt(X)
            assert B.shape == (n, m)
            np.testing.assert_allclose(B.T @ B, np.eye(m), atol=1e-13)
            resid = np.linalg.norm(X - B @ (B.T @ X), axis=0).max()
            assert resid <= 1e-12 * np.linalg.norm(X, axis=0).max()
            assert_gram_schmidt_of(B, X)

    def test_zero_leading_rows_keep_the_gram_schmidt_basis(self):
        rng = np.random.default_rng(128)
        X = np.vstack([np.zeros((3, 4)), -np.abs(rng.standard_normal((8, 4)))])
        B = linalg.modified_gram_schmidt(X)
        assert B.shape == (11, 4)
        assert_gram_schmidt_of(B, X)

    def test_structured_input_is_not_mutated(self):
        rng = np.random.default_rng(124)
        a, b = rng.standard_normal((2, 6))
        for cols in ([a, a + b, b, np.zeros(6)], [a[:2], b[:2], a[:2] - b[:2]]):
            for order in ("C", "F"):
                X = np.array(np.column_stack(cols), order=order)
                X0 = X.copy()
                linalg.modified_gram_schmidt(X)
                assert np.array_equal(X, X0)

    def test_adversarial_suite_passes(self):
        res = verify.suite_basis_adversarial(basis_fn=linalg.modified_gram_schmidt)
        assert res.passed, res.detail

    def test_adversarial_suite_trips_on_broken_kernels(self):
        def single_cholesky_pass(X):
            # no rank test and no second pass: loses orthogonality
            L = np.linalg.cholesky(X.T @ X)
            return X @ np.linalg.inv(L).T

        def drops_too_much(X):
            return linalg.modified_gram_schmidt(X)[:, :-1]

        def inverts_the_triangle(X):
            # X inv(R), then one Cholesky pass: orthonormal, but on graded
            # triangles its span drifts away from the columns
            R = np.linalg.qr(X, mode="r")
            drop_below = linalg.DEFAULT_RANK_TOL * np.linalg.norm(X, axis=0).max()
            keep = np.abs(np.diag(R)) >= drop_below
            if not keep.all():
                return linalg.modified_gram_schmidt(X)
            U = X @ np.linalg.inv(R)
            return U @ np.linalg.inv(np.linalg.cholesky(U.T @ U)).T

        for broken in (single_cholesky_pass, drops_too_much, inverts_the_triangle):
            res = verify.suite_basis_adversarial(basis_fn=broken)
            assert not res.passed
            assert res.failing_case is not None


def takes_the_qr(X):
    """Whether ``orthonormal_basis`` returned the QR fallback's basis
    (bit for bit); the Gram route picks other directions in the span."""
    return np.array_equal(linalg.orthonormal_basis(X), linalg.modified_gram_schmidt(X))


class TestOrthonormalBasis:
    """The Gram route and when it hands over to the Householder QR."""

    def test_adversarial_suite_passes(self):
        res = verify.suite_basis_adversarial(basis_fn=linalg.orthonormal_basis)
        assert res.passed, res.detail
        assert res.name == "basis_adversarial[orthonormal_basis]"

    def test_one_pass_only_fails_the_suite(self, monkeypatch):
        # with the second pass switched off, one Gram pass on a graded
        # triangle above the conditioning floor leaves |B'B - I| ~ 1e-9
        monkeypatch.setattr(linalg, "ORTH_TOL", np.inf)
        res = verify.suite_basis_adversarial(basis_fn=linalg.orthonormal_basis)
        assert not res.passed
        assert "|B'B - I|" in res.detail

    def test_well_conditioned_input_takes_the_gram_route(self):
        rng = np.random.default_rng(140)
        for _ in range(50):
            n, m = int(rng.integers(20, 300)), int(rng.integers(1, 19))
            X = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-1.0, 1.0, size=m)
            B = linalg.orthonormal_basis(X)
            assert not takes_the_qr(X)
            assert B.shape == (n, m)
            assert np.abs(B.T @ B - np.eye(m)).max() <= 1e-12
            resid = np.linalg.norm(X - B @ (B.T @ X), axis=0).max()
            assert resid <= 1e-12 * np.linalg.norm(X, axis=0).max()

    def test_orthonormal_just_below_the_second_pass_threshold(self):
        # one small singular value, kappa^2 in 1e2..1e4, so a single pass
        # is kept only at the low end; a threshold set for less than the
        # measured one-pass loss leaves |B'B - I| above 1e-12 here
        rng = np.random.default_rng(141)
        for _ in range(200):
            n, m = int(rng.integers(19, 400)), int(rng.integers(8, 19))
            U = np.linalg.qr(rng.standard_normal((n, m)))[0]
            W = np.linalg.qr(rng.standard_normal((m, m)))[0]
            s = np.ones(m)
            s[-1] = 10.0 ** -rng.uniform(1.0, 2.0)
            B = linalg.orthonormal_basis(U @ (s[:, None] * W))
            assert np.abs(B.T @ B - np.eye(m)).max() <= 1e-12

    def test_near_collinear_columns_take_the_qr(self):
        rng = np.random.default_rng(142)
        for _ in range(50):
            n, m = int(rng.integers(20, 300)), int(rng.integers(2, 12))
            spread = 10.0 ** rng.uniform(-12.0, -5.0)
            X = rng.standard_normal(n)[:, None] + spread * rng.standard_normal((n, m))
            assert takes_the_qr(X)

    def test_rank_matches_the_qr_on_near_collinear_memories(self):
        # the suite's family, spread 1e-12..1 and scales 1e-3..1e3, meets
        # both routes; either way the rank is the QR's
        rng = np.random.default_rng(148)
        routes = set()
        for _ in range(300):
            X = verify._near_collinear_bundle(rng).specific[:, :-1]
            assert linalg.orthonormal_basis(X).shape == linalg.modified_gram_schmidt(X).shape
            routes.add(takes_the_qr(X))
        assert routes == {True, False}

    def test_dependent_or_zero_columns_take_the_qr(self):
        rng = np.random.default_rng(143)
        a, b, c = rng.standard_normal((3, 12))
        for X in (
            np.column_stack([a, b, 2.0 * a - 3.0 * b, c]),
            np.column_stack([a, np.zeros(12), b]),
            np.column_stack([a, a + 1e-6 * b]),
            rng.standard_normal((3, 5)),  # wide
            np.zeros((4, 3)),
        ):
            assert takes_the_qr(X)
            assert linalg.orthonormal_basis(X).shape == linalg.modified_gram_schmidt(X).shape

    def test_small_ratio_above_the_floor_takes_the_gram_route(self):
        # sigma_min / sigma_max about 5e-4 clears the 1e-4 floor, so the
        # Gram route runs and keeps both columns, as the QR would: the
        # floor lies above the QR's drop threshold, so no column the Gram
        # route keeps is one the QR would drop
        assert linalg.GRAM_RATIO_FLOOR > linalg.DEFAULT_RANK_TOL
        rng = np.random.default_rng(144)
        a, b = rng.standard_normal((2, 30))
        b -= (a @ b) / (a @ a) * a
        X = np.column_stack([a, a + 5e-4 * np.linalg.norm(a) / np.linalg.norm(b) * b])
        assert not takes_the_qr(X)
        assert linalg.orthonormal_basis(X).shape == (30, 2)
        assert linalg.modified_gram_schmidt(X).shape == (30, 2)

    def test_gram_underflow_takes_the_qr(self):
        # entries near 1e-160 square to subnormals in X'X, which hold too
        # few bits for the Gram route
        X = np.random.default_rng(145).standard_normal((40, 5)) * 1e-160
        B = linalg.orthonormal_basis(X)
        assert takes_the_qr(X)
        assert B.shape == (40, 5)
        assert np.abs(B.T @ B - np.eye(5)).max() <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad):
        X = np.random.default_rng(146).standard_normal((6, 3))
        X[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            linalg.orthonormal_basis(X)

    def test_two_pass_bases_are_fresh_arrays(self):
        # the first of two Gram passes goes into a reused per-thread
        # buffer; each basis returned is a new array, with the same bits
        # whatever an earlier call left in that buffer
        rng = np.random.default_rng(148)
        X, Y = (rng.standard_normal(shape) for shape in ((60, 4), (300, 9)))
        X[:, -1] *= 1e-2
        Y[:, -1] *= 1e-2
        for Z in (X, Y):
            assert linalg.ONE_PASS_LOSS * np.finfo(float).eps * np.linalg.cond(Z) ** 2 > (
                linalg.ORTH_TOL
            )
        first = linalg.orthonormal_basis(X)
        linalg.orthonormal_basis(Y)  # a larger first pass in between
        again = linalg.orthonormal_basis(X)
        assert first.tobytes() == again.tobytes()
        scratch = linalg._SCRATCH.first_pass.take((9, 300))
        for B in (first, again):
            assert not np.shares_memory(B, scratch)
        assert not np.shares_memory(first, again)

    def test_threads_keep_their_own_first_pass(self):
        # BLAS runs without the interpreter lock, so threads sharing one
        # first-pass buffer would overwrite each other's first pass
        import sys
        import threading

        rng = np.random.default_rng(149)
        inputs = []
        for n in (400, 300, 500, 350):
            X = rng.standard_normal((n, 12))
            X[:, -1] *= 1e-2  # two passes
            inputs.append(X)
        expected = [linalg.orthonormal_basis(X).tobytes() for X in inputs]
        mismatches = []

        def work(X, want):
            for _ in range(30):
                if linalg.orthonormal_basis(X).tobytes() != want:
                    mismatches.append(X.shape)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=pair) for pair in zip(inputs, expected)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    def test_empty_input(self):
        assert linalg.orthonormal_basis(np.zeros((4, 0))).shape == (4, 0)

    def test_does_not_mutate_input(self):
        rng = np.random.default_rng(147)
        for order in ("C", "F"):
            X = np.array(rng.standard_normal((60, 4)), order=order)
            X0 = X.copy()
            linalg.orthonormal_basis(X)
            assert np.array_equal(X, X0)


class TestGramPca:
    """The k cut of ``orthonormal_basis``: top-k principal directions."""

    def test_rank_one_column_space(self):
        G = np.array([[1.0, -1.0], [0.0, 0.0]])
        B = linalg.orthonormal_basis(G, k=1)
        assert B.shape == (2, 1)
        np.testing.assert_allclose(np.abs(B[:, 0]), [1.0, 0.0], atol=1e-14)

    def test_zero_matrix_gives_empty_basis(self):
        for k in (1, 3):
            assert linalg.orthonormal_basis(np.zeros((5, 4)), k=k).shape == (5, 0)

    def test_subspace_containment_versus_full_basis(self):
        rng = np.random.default_rng(108)
        for _ in range(20):
            raw = rng.standard_normal((20, 4))
            G = raw - raw.mean(axis=1, keepdims=True)  # columns sum to zero
            B_full = linalg.modified_gram_schmidt(G)
            B_k = linalg.orthonormal_basis(G, k=3)
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
            B_k = linalg.orthonormal_basis(G, k=8)
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
        B = linalg.orthonormal_basis(G, k=2)
        # first output column aligns with the stretched direction
        assert abs(B[:, 0] @ U[:, 0]) > 0.99

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            linalg.orthonormal_basis(np.eye(3), k=0)
        with pytest.raises(ValueError, match="at least 1"):
            solver.relax_basis(np.eye(3), 0)

    def test_second_pass_keeps_order_and_span(self, monkeypatch):
        # zero-sum columns whose kept eigenvalues fall to 1e-9 of the
        # largest: one pass loses orthogonality, the second restores it
        # without reordering the principal directions
        rng = np.random.default_rng(111)
        for _ in range(50):
            n, m = int(rng.integers(20, 400)), int(rng.integers(3, 19))
            U = np.linalg.qr(rng.standard_normal((n, m - 1)))[0]
            # orthonormal rows that each sum to zero
            W = np.linalg.qr(np.column_stack([np.ones(m), rng.standard_normal((m, m - 1))]))[0]
            s = np.sqrt(np.logspace(0.0, -9.0, m - 1))
            G = U @ (s[:, None] * W[:, 1:].T)  # its own SVD
            B = linalg.orthonormal_basis(G, k=m)
            assert B.shape == (n, m - 1)
            assert np.abs(B.T @ B - np.eye(m - 1)).max() <= 1e-12
            assert abs(B[:, 0] @ U[:, 0]) >= 1.0 - 1e-12
            assert np.abs(B - U @ (U.T @ B)).max() <= 1e-8
            assert np.abs(U - B @ (B.T @ U)).max() <= 1e-8
        monkeypatch.setattr(linalg, "ORTH_TOL", np.inf)
        B = linalg.orthonormal_basis(G, k=m)
        assert np.abs(B.T @ B - np.eye(m - 1)).max() > 1e-12


# every entry point that builds a basis, full or cut to k
basis_kernels = pytest.mark.parametrize(
    "kernel",
    [
        linalg.modified_gram_schmidt,
        linalg.orthonormal_basis,
        lambda X: linalg.orthonormal_basis(X, k=2),
        solver.relax_basis,
        lambda X: solver.relax_basis(X, 2),
    ],
    ids=["modified_gram_schmidt", "orthonormal_basis", "orthonormal_basis_k2",
         "relax_basis", "relax_basis_k2"],
)


@basis_kernels
def test_overflowing_column_norms_raise(kernel):
    # finite entries near 1e160 square past the float64 range; a drop
    # threshold of inf would silently discard every constraint
    X = np.random.default_rng(112).standard_normal((40, 5)) * 1e160
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
        kernel(X)


@basis_kernels
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises(kernel, bad):
    # eigh of a Gram matrix holding NaN can return without raising, so
    # without the check the k cut would keep columns of non-finite input
    X = np.random.default_rng(114).standard_normal((40, 5))
    X[7, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        kernel(X)


@pytest.mark.parametrize(
    "kernel, rank",
    [
        (solver.relax_basis, 4),
        (lambda X: solver.relax_basis(X, 2), 2),
        (lambda X: linalg.orthonormal_basis(X, k=5), 4),
        (linalg.modified_gram_schmidt, 4),
    ],
    ids=["relax_basis", "relax_basis_k2", "orthonormal_basis_k5", "modified_gram_schmidt"],
)
def test_underflowing_column_norms_keep_their_span(kernel, rank):
    # nonzero entries near 1e-170 square to zero, which must not read as
    # all-zero input: the basis is that of the same columns at scale 1
    G = np.random.default_rng(113).standard_normal((40, 5))
    G -= G.mean(axis=1, keepdims=True)  # zero-sum columns of rank 4
    B, reference = kernel(G * 1e-170), kernel(G)
    assert B.shape == reference.shape == (40, rank)
    np.testing.assert_allclose(B @ B.T, reference @ reference.T, atol=1e-10)


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
