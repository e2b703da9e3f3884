"""Dense linear-algebra kernels: orthonormalization with rank detection,
Gram-matrix PCA (through LAPACK's symmetric eigensolver), and
matrix-free null-space projection.

Two routes build an orthonormal basis of a column collection, and
``orthonormal_basis``, the kernel training uses, picks one by this rule:

* The Gram route works through the small Gram matrix ``X'X`` (CholeskyQR
  with an eigensolver in place of the Cholesky factor, run twice when
  needed; Fukaya et al., 2014): one small ``eigh``, then ``_map_back``,
  two tall products per pass where a QR makes a Householder sweep over
  the rows.  ``orthonormal_basis`` maps back every eigenvector, so it
  takes this route only where ``sigma_min / sigma_max`` of ``X``, read
  off the eigenvalues, exceeds ``GRAM_RATIO_FLOOR``.  There every
  Gram-Schmidt residual is at least ``sigma_min``, and the floor is
  above ``DEFAULT_RANK_TOL``, so the QR would keep every column too.
  The floor also holds the route to the bars of
  ``verify.suite_basis_adversarial``: its span error is bounded by about
  ``eps * kappa`` of the largest column, 2e-12 at the floor (measured:
  1.4e-15), and one pass leaves ``|B'B - I|`` below about 1.4e-7, from
  which the second pass reaches working precision.  ``gram_pca`` maps
  back only the top ``K`` eigenvectors, the principal directions.
* ``modified_gram_schmidt`` takes every other input of
  ``orthonormal_basis`` (rank deficient or nearly so, wide, empty,
  non-finite, or so small that its Gram matrix underflows).  It keeps
  the Gram-Schmidt contract (columns taken left to right, a column
  dropped when its residual against the kept ones falls below
  ``DEFAULT_RANK_TOL`` times the largest column norm) but computes it
  with numpy's Householder QR of the input; no Python loop runs over
  the rows.  It is accurate whatever the conditioning.

``Workspace`` is the grow-only buffer the training loop, the model and
the Gram route's first pass write their large per-step arrays into.

All kernels work on plain float64 numpy arrays.  Vectors are 1-D arrays;
bases and column collections are 2-D arrays whose columns are the vectors
of interest.  A basis with zero columns (shape ``(n, 0)``) is a valid
value everywhere and means "no constraints".  A basis matters only
through the span of its columns, that is through the projector
``I - B B'``, so neither its column signs nor, on the Gram route, its
choice of directions within the span is part of any kernel's contract.
"""

from __future__ import annotations

import math
import threading

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
# a column norm below this has a square too close to underflow to hold it
_NORM_UNDERFLOW = float(np.sqrt(_GRAM_UNDERFLOW))
_OVERFLOW = "squared column norms overflow float64; rescale the input"


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D column collection, got ndim={X.ndim}")
    return X


def empty_basis(n_rows: int) -> np.ndarray:
    return np.zeros((n_rows, 0))


class Workspace:
    """A grow-only float64 buffer for arrays that one call makes and the
    next call makes again, at most as large.

    ``take(shape)`` returns a C-ordered view of the buffer's first
    ``prod(shape)`` entries, reallocating it to exactly that size only
    when it is smaller.  A view is valid until the next ``take``, which
    may overwrite it.  Reusing the buffer keeps its pages resident: a
    fresh array freed at the top of the heap is returned to the system
    by glibc, and the next one faults its pages back in.  The old buffer
    is released before the new one is allocated, so the new one can
    take its place rather than leave a hole in the heap.
    """

    def __init__(self):
        self._flat = np.empty(0)

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        if self._flat.size < size:
            self._flat = np.empty(0)
            self._flat = np.empty(size)
        return self._flat[:size].reshape(shape)


class _Scratch(threading.local):
    """Per-thread buffers of the kernels' intermediate arrays."""

    def __init__(self):
        self.first_pass = Workspace()


_SCRATCH = _Scratch()


def _scaled_up(X: np.ndarray) -> np.ndarray | None:
    """``X`` times the power of two that brings its largest magnitude into
    ``[0.5, 1)``: exact, so the span is that of ``X``.  ``None`` when
    ``X`` is all zero."""
    peak = float(np.abs(X).max())
    if peak == 0.0:
        return None
    return np.ldexp(X, -np.frexp(peak)[1])


def modified_gram_schmidt(X) -> np.ndarray:
    """Orthonormal basis of the column space of ``X`` with rank detection.

    Contract: columns are taken left to right, and a column is dropped
    when its residual against the columns kept before it falls below
    ``DEFAULT_RANK_TOL`` times the largest input column norm.  The basis
    is defined up to the signs of its columns.

    Algorithm (one Householder QR, numpy's reduced ``Q, R = qr(X)``):

    1. ``|R[j, j]|`` is the Gram-Schmidt residual of column j against
       columns ``0..j-1``, and the column norms of ``R`` equal those of
       ``X``.
    2. The first column whose residual is below the threshold is
       dropped and the small ``R`` without it is refactored, so later
       residuals are taken against the kept columns only; repeat.  At
       most ``n_rows`` columns can be kept.
    3. When only trailing columns were dropped, ``B`` is the leading
       columns of ``Q``; else ``B = Q C`` with ``C`` the Q of a QR of
       ``R[:, kept]``.

    ``B`` is orthonormal and spans the kept columns to working precision
    whatever the conditioning of ``X``, because no triangular factor is
    inverted against ``X``.

    Returns an ``(n_rows, k)`` matrix ``B`` with orthonormal columns
    spanning the kept columns.  Empty or all-zero input yields a
    zero-column matrix; nonzero input whose squared column norms
    underflow is first scaled up by a power of two, which keeps its span.
    ``X`` is never modified.  Raises ``ValueError`` on non-finite input,
    and on squared column norms that overflow float64 (entries above
    about 1e150), where the drop threshold could not be formed.
    """
    X = _as_matrix(X)
    n_rows, n_cols = X.shape
    if n_cols == 0:
        return empty_basis(n_rows)
    if not np.isfinite(X).all():
        raise ValueError("input columns must be finite")

    Q, R = np.linalg.qr(X)
    max_norm = float(np.sqrt((R * R).sum(axis=0).max()))
    if not np.isfinite(max_norm):
        raise ValueError(_OVERFLOW)
    if max_norm < _NORM_UNDERFLOW:
        scaled = _scaled_up(X)
        if scaled is None:
            return empty_basis(n_rows)
        return modified_gram_schmidt(scaled)
    drop_below = DEFAULT_RANK_TOL * max_norm

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
    if kept[-1] == k - 1:
        return Q[:, :k]
    return Q @ np.linalg.qr(R[:, kept])[0]


def _map_back(X, lam, V) -> np.ndarray:
    """``B = X V diag(lam)^-1/2`` for eigenpairs ``lam, V`` of ``X'X``,
    with a second, order-preserving pass when one is not enough.

    One pass leaves ``|B'B - I|`` at about ``eps * kappa^2``, with
    ``kappa^2 = max(lam) / min(lam)``.  When ``ONE_PASS_LOSS * eps *
    kappa^2`` exceeds ``ORTH_TOL``, the pass runs once more on ``B``:
    ``B (B'B)^-1/2 = B V2 diag(lam2)^-1/2 V2'`` from ``lam2, V2 =
    eigh(B'B)`` (Loewdin).  ``B'B`` is then close to ``I``, so this pass
    reaches working precision and moves every column by about
    ``|B'B - I|``: the columns keep their order.

    ``B`` is formed as ``(W' X')'`` so that it is F-ordered, its columns
    contiguous: on 303-13,703 x 18 inputs that made the kernel 10-20%
    and the solver's projections through ``B`` 20-40% faster than C
    order.  The first pass of two is read once, by the second, so it is
    written into a buffer of the calling thread's: reused from call to
    call, its pages stay resident, where a fresh array on top of the
    returned one would be freed and faulted back in on the next call.
    """
    W = (V / np.sqrt(lam)).T
    if not ONE_PASS_LOSS * _EPS * lam.max() > ORTH_TOL * lam.min():
        return (W @ X.T).T
    B = np.matmul(W, X.T, out=_SCRATCH.first_pass.take((len(W), len(X)))).T
    lam, V = np.linalg.eigh(B.T @ B)
    inv_sqrt = (V / np.sqrt(lam)) @ V.T  # (B'B)^-1/2
    return (inv_sqrt.T @ B.T).T


def orthonormal_basis(X) -> np.ndarray:
    """Orthonormal basis of the column space of ``X``: through its Gram
    matrix when ``X`` is well conditioned, else ``modified_gram_schmidt``.

    1. ``lam, V = eigh(X'X)``.
    2. When ``sigma_min / sigma_max = sqrt(lam_min / lam_max)`` is at most
       ``GRAM_RATIO_FLOOR``, the eigenvalues are not finite (``eigh``
       raises on non-finite input), or ``lam_min`` is near underflow,
       return ``modified_gram_schmidt(X)``: its rank contract and its
       ``ValueError`` on non-finite or overflowing input hold as they
       are.
    3. Otherwise map every eigenvector back through ``X`` with
       :func:`_map_back`: every column is kept, as the QR would keep it.

    Returns an ``(n_rows, k)`` matrix with orthonormal columns spanning
    those of ``X``; the Gram route picks its own directions within that
    span.  ``X`` is never modified.
    """
    X = _as_matrix(X)
    if X.shape[1] == 0:
        return modified_gram_schmidt(X)
    try:
        lam, V = np.linalg.eigh(X.T @ X)
    except np.linalg.LinAlgError:
        return modified_gram_schmidt(X)
    # NaN fails the comparison, and an infinite lam_max makes the floor inf
    floor = GRAM_RATIO_FLOOR**2 * lam[-1]
    if not lam[0] > max(floor, _GRAM_UNDERFLOW):
        return modified_gram_schmidt(X)
    return _map_back(X, lam, V)


def gram_pca(G, K: int) -> np.ndarray:
    """Top-``K`` orthonormal principal directions of the column space of ``G``.

    Eigendecomposes the small Gram matrix ``G'G`` and keeps its top
    ``min(K, #lam > DEFAULT_RANK_TOL * lam_max)`` eigenpairs, dominant
    first; eigenvalues at or below the cut-off are rank deficiency.
    :func:`_map_back` maps them back through ``G``, so the result has
    ``min(K, numerical rank of G)`` columns, each defined up to its
    sign.  A Gram matrix near underflow is formed again from ``G`` scaled
    up by a power of two, which keeps its span.  Raises ``ValueError`` on
    non-finite input and on a Gram matrix that overflows float64.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    G = _as_matrix(G)
    n_rows, n_cols = G.shape
    if n_cols == 0:
        return empty_basis(n_rows)
    if not np.isfinite(G).all():
        raise ValueError("input columns must be finite")
    gram = G.T @ G
    if not np.isfinite(gram).all():
        raise ValueError(_OVERFLOW)

    lam, V = np.linalg.eigh(gram)
    # eigh sorts ascending; take the principal directions first
    lam, V = lam[::-1], V[:, ::-1]
    if lam[0] <= _GRAM_UNDERFLOW:
        scaled = _scaled_up(G)
        if scaled is None:
            return empty_basis(n_rows)
        return gram_pca(scaled, K)
    keep = min(K, int(np.count_nonzero(lam > DEFAULT_RANK_TOL * lam[0])))
    return _map_back(G, lam[:keep], V[:, :keep])


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
