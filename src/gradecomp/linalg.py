"""Dense linear-algebra kernels: orthonormalization with rank detection,
Gram-matrix PCA (through LAPACK's symmetric eigensolver), and
matrix-free null-space projection.

Two kernels build an orthonormal basis of a column collection:

* ``orthonormal_basis`` is the one training uses.  It works through the
  small Gram matrix ``X'X`` (CholeskyQR with an eigensolver in place of
  the Cholesky factor, run twice when needed; Fukaya et al., 2014): two
  tall products and one small ``eigh`` per pass, where the QR below
  makes a Householder sweep over the rows.  It keeps every column, so it
  runs only where ``sigma_min / sigma_max`` of ``X``, read off the
  eigenvalues, exceeds ``GRAM_RATIO_FLOOR`` (or ``rel_tol``, if larger).
  There every Gram-Schmidt residual is at least ``sigma_min``, so the QR
  would keep every column too.  The floor also holds the Gram route to
  the bars of ``verify.suite_basis_adversarial``: its span error is
  bounded by about ``eps * kappa`` of the largest column, 2e-12 at the
  floor (measured: 1.4e-15), and one pass leaves ``|B'B - I|`` below
  about 1.4e-7, from which the second pass reaches working precision.
  Every other input (rank deficient or nearly so, wide, empty,
  non-finite, or so small that its Gram matrix underflows) goes to
  ``modified_gram_schmidt`` unchanged.
* ``modified_gram_schmidt`` keeps the Gram-Schmidt contract (columns
  taken left to right, a column dropped when its residual against the
  kept ones falls below ``rel_tol`` times the largest column norm) but
  computes it with one LAPACK Householder QR of the input whose
  reflectors are accumulated in compact WY form: one Gram matrix of the
  reflectors, one small triangular solve and one matrix product; no
  Python loop runs over the rows.  It is accurate whatever the
  conditioning.

All kernels work on plain float64 numpy arrays.  Vectors are 1-D arrays;
bases and column collections are 2-D arrays whose columns are the vectors
of interest.  A basis with zero columns (shape ``(n, 0)``) is a valid
value everywhere and means "no constraints".  A basis matters only
through the span of its columns, that is through the projector
``I - B B'``, so neither its column signs nor, on the Gram route, its
choice of directions within the span is part of any kernel's contract.
"""

from __future__ import annotations

import numpy as np

DEFAULT_RANK_TOL = 1e-10

# the Gram route runs only above this sigma_min / sigma_max (see the
# module docstring); the QR takes everything at or below it
GRAM_RATIO_FLOOR = 1e-4
# the orthonormality a single Gram pass must reach to skip the second
# pass: |B'B - I| <= ORTH_TOL, the bar of verify.suite_basis_adversarial
ORTH_TOL = 1e-12
# one pass leaves |B'B - I| at most about ONE_PASS_LOSS * eps * kappa^2:
# measured up to 6.5 on 4,000 random inputs with kappa^2 in 300..3e4 and
# up to 2.2 on 172 training segments
ONE_PASS_LOSS = 8.0
_EPS = float(np.finfo(np.float64).eps)
# a smallest eigenvalue below this is too close to underflow for the
# Gram matrix to hold it to working precision
_GRAM_UNDERFLOW = float(np.finfo(np.float64).tiny) / _EPS


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D column collection, got ndim={X.ndim}")
    return X


def empty_basis(n_rows: int) -> np.ndarray:
    return np.zeros((n_rows, 0))


def modified_gram_schmidt(X, rel_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the column space of ``X`` with rank detection.

    Contract: columns are taken left to right, and a column is dropped
    when its residual against the columns kept before it falls below
    ``rel_tol`` times the largest input column norm.  The basis is
    defined up to the signs of its columns.

    Algorithm (one Householder QR, its reflectors accumulated in compact
    WY form):

    1. LAPACK ``geqrf`` through ``qr(X, "raw")`` gives ``R`` and the
       reflectors ``H_i = I - tau_i v_i v_i'``.  ``|R[j, j]|`` is the
       Gram-Schmidt residual of column j against columns ``0..j-1``, and
       the column norms of ``R`` equal those of ``X``.
    2. The first column whose residual is below the threshold is
       dropped and the small ``R`` without it is refactored, so later
       residuals are taken against the kept columns only; repeat.  At
       most ``n_rows`` columns can be kept.  ``C`` is an orthonormal
       basis of ``R[:, kept]``, in order: the leading columns of the
       identity when only trailing columns were dropped, else the Q of
       a QR of that small matrix.
    3. ``Q = H_0 ... H_{r-1} = I - V T V'`` with
       ``T^-1 = striu(V'V) + diag(1/tau)`` (the UT transform), so
       ``B = Q [C; 0] = [C; 0] - V (T V[:r]' C)``: one Gram matrix of the
       reflectors, one small triangular solve and one GEMM on ``V``.

    ``B`` is orthonormal and spans the kept columns to working precision
    whatever the conditioning of ``X``, because no triangular factor is
    inverted against ``X``.

    Returns a C-contiguous ``(n_rows, k)`` matrix ``B`` with orthonormal
    columns spanning the kept columns.  Empty or all-zero input yields
    a zero-column matrix.  ``X`` is never modified.  Column norms must
    stay below the float64 overflow threshold (entries below ~1e150).
    """
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    X = _as_matrix(X)
    n_rows, n_cols = X.shape
    if n_cols == 0:
        return empty_basis(n_rows)
    if not np.isfinite(X).all():
        raise ValueError("input columns must be finite")

    h, tau = np.linalg.qr(X, mode="raw")
    F = h.T  # R on and above the diagonal, the reflectors below it
    r = tau.shape[0]
    R = np.triu(F[:r])
    max_norm = float(np.sqrt((R * R).sum(axis=0).max()))
    if max_norm == 0.0:
        return empty_basis(n_rows)
    drop_below = rel_tol * max_norm

    # the residual test runs on Python floats, one per column: cheaper
    # than a numpy call per step on so few values
    kept = list(range(n_cols))
    R_kept = R
    diag = np.diagonal(R).tolist()
    j = 0
    while j < len(diag):
        if abs(diag[j]) >= drop_below:
            j += 1
            continue
        del kept[j]
        if j == len(kept):
            R_kept = R_kept[:j, :j]
            diag = diag[:j]
        else:
            # columns before j are already triangular; refactoring keeps
            # their residuals and recomputes the later ones without j
            R_kept = np.linalg.qr(np.delete(R_kept, j, axis=1), mode="r")
            diag = np.diagonal(R_kept).tolist()
    k = min(len(kept), n_rows)
    if k == 0:
        return empty_basis(n_rows)
    kept = kept[:k]
    C = np.eye(r, k) if kept[-1] == k - 1 else np.linalg.qr(R[:, kept])[0]

    # the basis comes from the reflectors by hand rather than from numpy's
    # reduced QR (LAPACK orgqr), which forms all r columns of Q first.
    # Under this same drop rule, on 18 columns with 1 BLAS thread (Xeon),
    # orgqr was 36-44% slower at 10,100 and 13,703 rows (the widest layer
    # and the whole 32-100-100-3 vector) and 19-25% slower at 2,000-5,000
    # rows; it won only on short inputs (about 30% at 303 rows, where
    # either takes about 0.1 ms).
    # V is unit lower trapezoidal; a reflector with tau = 0 is the
    # identity and gets a zero column
    V = F[:, :r]
    live = tau != 0.0
    V[:r] -= R[:, :r]
    np.fill_diagonal(V[:r], live)
    T_inv = np.triu(V.T @ V, 1)
    np.fill_diagonal(T_inv, 1.0 / np.where(live, tau, 1.0))
    Y = np.linalg.solve(T_inv, V[:r].T @ C)
    B = V @ -Y
    B[:r] += C
    return B


def orthonormal_basis(X, rel_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the column space of ``X``: through its Gram
    matrix when ``X`` is well conditioned, else ``modified_gram_schmidt``.

    1. ``lam, V = eigh(X'X)``.
    2. When ``sigma_min / sigma_max = sqrt(lam_min / lam_max)`` is at most
       ``max(GRAM_RATIO_FLOOR, rel_tol)``, the eigenvalues are not finite
       (``eigh`` raises on non-finite input), or ``lam_min`` is near
       underflow, return ``modified_gram_schmidt(X, rel_tol)``: its rank
       contract and its ``ValueError`` on non-finite input hold as they
       are.
    3. Otherwise ``B = X V diag(lam)^-1/2``: every column is kept, as the
       QR would keep it, and ``|B'B - I|`` is about ``eps * kappa^2``.
    4. When ``ONE_PASS_LOSS * eps * kappa^2`` exceeds ``ORTH_TOL``, run
       step 3 once more on ``B``.  Its ``kappa`` is then within about
       1e-7 of 1, so the second pass leaves ``|B'B - I|`` near ``eps``.

    Returns an ``(n_rows, k)`` matrix with orthonormal columns spanning
    those of ``X``; the Gram route picks its own directions within that
    span and returns them F-ordered.  ``X`` is never modified.
    """
    X = _as_matrix(X)
    if X.shape[1] == 0 or rel_tol <= 0.0:
        return modified_gram_schmidt(X, rel_tol)
    try:
        lam, V = np.linalg.eigh(X.T @ X)
    except np.linalg.LinAlgError:
        return modified_gram_schmidt(X, rel_tol)
    # NaN fails the comparison, and an infinite lam_max makes the floor inf
    floor = max(GRAM_RATIO_FLOOR, rel_tol) ** 2 * lam[-1]
    if not lam[0] > max(floor, _GRAM_UNDERFLOW):
        return modified_gram_schmidt(X, rel_tol)
    # B is formed as (W' X')' so that it is F-ordered, its columns
    # contiguous: on 303-13,703 x 18 inputs that made the kernel 10-20%
    # and the solver's projections through B 20-40% faster than C order
    B = ((V / np.sqrt(lam)).T @ X.T).T
    if ONE_PASS_LOSS * _EPS * lam[-1] > ORTH_TOL * lam[0]:
        lam, V = np.linalg.eigh(B.T @ B)
        B = ((V / np.sqrt(lam)).T @ B.T).T
    return B


def gram_pca(G, K: int, rel_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Top-``K`` orthonormal principal directions of the column space of ``G``.

    Works through the small Gram matrix ``G^T G``: eigendecompose it with
    ``numpy.linalg.eigh`` and map the leading eigenvectors back through
    ``G``.  Eigenvalues at or below ``rel_tol`` times the largest are
    treated as rank deficiency, so the result has
    ``min(K, numerical rank of G)`` columns, each defined up to its sign.
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
        cols.append(u)
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
