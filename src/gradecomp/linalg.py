"""Dense linear-algebra kernels: orthonormalization, Gram-matrix PCA
(through LAPACK's symmetric eigensolver), and matrix-free null-space
projection.

All kernels work on plain float64 numpy arrays.  Vectors are 1-D arrays;
bases and column collections are 2-D arrays whose columns are the vectors
of interest.  A basis with zero columns (shape ``(n, 0)``) is a valid
value everywhere and means "no constraints".
"""

from __future__ import annotations

import numpy as np

DEFAULT_RANK_TOL = 1e-10


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D column collection, got ndim={X.ndim}")
    return X


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Make the first entry of non-negligible magnitude positive, in place."""
    for x in v:
        if abs(x) > 1e-12:
            if x < 0.0:
                v *= -1.0
            break
    return v


def empty_basis(n_rows: int) -> np.ndarray:
    return np.zeros((n_rows, 0))


def modified_gram_schmidt(X, rel_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the column space of ``X`` with rank detection.

    Columns are processed left to right; each is orthogonalized against
    the accepted basis (two passes, which restores orthogonality lost to
    cancellation) and dropped when its residual norm falls below
    ``rel_tol`` times the largest input column norm.

    Returns a matrix ``B`` with orthonormal columns spanning the same
    space as ``X``.  Empty input yields a zero-column matrix.
    """
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    X = _as_matrix(X)
    n_rows, n_cols = X.shape
    if n_cols == 0:
        return empty_basis(n_rows)
    if not np.isfinite(X).all():
        raise ValueError("input columns must be finite")

    max_norm = float(np.sqrt((X * X).sum(axis=0).max()))
    if max_norm == 0.0:
        return empty_basis(n_rows)
    drop_below = rel_tol * max_norm

    # right-looking: each accepted direction is projected out of all
    # remaining columns at once; an extra pass against the accepted
    # basis at acceptance time restores orthogonality lost to
    # cancellation in nearly dependent columns
    work = np.asfortranarray(X, dtype=np.float64)
    if work is X:
        work = X.copy(order="F")
    B = np.empty((n_rows, n_cols), order="F")
    k = 0
    for j in range(n_cols):
        v = work[:, j]
        if k > 0:
            accepted = B[:, :k]
            v -= accepted @ (accepted.T @ v)
        norm = float(np.linalg.norm(v))
        if norm < drop_below:
            continue
        v /= norm
        _fix_sign(v)
        B[:, k] = v
        k += 1
        if j + 1 < n_cols:
            rest = work[:, j + 1:]
            rest -= np.outer(v, v @ rest)
    if k == 0:
        return empty_basis(n_rows)
    return np.ascontiguousarray(B[:, :k])


def gram_pca(G, K: int, rel_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Top-``K`` orthonormal principal directions of the column space of ``G``.

    Works through the small Gram matrix ``G^T G``: eigendecompose it with
    ``numpy.linalg.eigh`` and map the leading eigenvectors back through
    ``G``.  Eigenvalues at or below ``rel_tol`` times the largest are
    treated as rank deficiency, so the result has
    ``min(K, numerical rank of G)`` columns.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    G = _as_matrix(G)
    n_rows, n_cols = G.shape
    if n_cols == 0:
        return empty_basis(n_rows)
    if not np.isfinite(G).all():
        raise ValueError("input columns must be finite")

    eigenvalues, V = np.linalg.eigh(G.T @ G)
    # eigh sorts ascending; take the principal directions first
    eigenvalues, V = eigenvalues[::-1], V[:, ::-1]
    lam_max = float(eigenvalues[0])
    if lam_max <= 0.0:
        return empty_basis(n_rows)

    keep = min(K, n_cols)
    cols: list[np.ndarray] = []
    for k in range(keep):
        lam = float(eigenvalues[k])
        if lam <= rel_tol * lam_max:
            break
        u = G @ V[:, k] / np.sqrt(lam)
        # cheap re-orthogonalization guards against clustered eigenvalues
        for b in cols:
            u -= (b @ u) * b
        norm = float(np.linalg.norm(u))
        if norm == 0.0:
            break
        u /= norm
        cols.append(_fix_sign(u))
    if not cols:
        return empty_basis(n_rows)
    return np.column_stack(cols)


def apply_projection(B, v) -> np.ndarray:
    """Project ``v`` onto the orthogonal complement of the columns of ``B``.

    Computes ``v - B (B^T v)`` without ever forming the square projection
    matrix.  ``B`` must have orthonormal columns; an empty basis returns a
    copy of ``v``.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got ndim={v.ndim}")
    B = _as_matrix(B)
    if B.shape[0] != v.shape[0]:
        raise ValueError(
            f"basis has {B.shape[0]} rows but vector has dimension {v.shape[0]}"
        )
    if B.shape[1] == 0:
        return v.copy()
    return v - B @ (B.T @ v)
