"""Dense linear-algebra kernels: orthonormal bases with rank detection,
full or cut to the top-k principal directions, and matrix-free
null-space projection.

``orthonormal_basis(X, k=None)`` is the one basis kernel: it forms the
small Gram matrix ``X'X`` once, checks once that it is finite, and takes
one ``eigh`` of it.  Two routes then build the full basis (``k`` is
``None``), and one cut builds the principal basis:

* The Gram route maps eigenpairs back through ``X`` in one pass
  (CholeskyQR with an eigensolver in place of the Cholesky factor;
  Fukaya et al., 2014): ``B = X V diag(lam)^-1/2``, two tall products
  where a QR makes a Householder sweep over the rows.  The full basis
  maps back every eigenvector, so it takes this route only where
  ``sigma_min / sigma_max`` of ``X``, read off the eigenvalues, exceeds
  ``GRAM_RATIO_FLOOR``.  There every Gram-Schmidt residual is at least
  ``sigma_min``, and the floor is above ``DEFAULT_RANK_TOL``, so the QR
  would keep every column too.  The floor also bounds the route's span
  error by about ``eps * kappa`` of the largest column, 2e-12 at the
  floor (measured: 1.4e-15), and its loss of orthogonality ``|B'B - I|``
  by about ``ONE_PASS_LOSS * eps * kappa^2``, 1.8e-7 at the floor.
* ``modified_gram_schmidt`` takes every other full basis (rank deficient
  or nearly so, wide, or so small that its Gram matrix underflows).  It
  keeps the Gram-Schmidt contract (columns taken left to right, a column
  dropped when its residual against the kept ones falls below
  ``DEFAULT_RANK_TOL`` times the largest column norm) but computes it
  with numpy's Householder QR of the input; no Python loop runs over
  the rows.  It is accurate whatever the conditioning.
* The k cut keeps the top ``min(k, #lam > DEFAULT_RANK_TOL * lam_max)``
  eigenpairs, dominant first, and maps them back in the same single
  pass; it never takes the QR, which would keep the whole span.  Its
  ``kappa^2`` can reach ``1 / DEFAULT_RANK_TOL``, where one pass leaves
  ``|B'B - I|`` up to about 1.8e-5.

No route runs a second pass over the basis: ``apply_projection``
re-orthogonalizes the projected vector instead, projecting again only
when the residual it measures in the span asks for it.

``Workspace`` is the grow-only buffer the training loop and the model
write their large per-step arrays into.

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

import numpy as np

DEFAULT_RANK_TOL = 1e-10

# the Gram route runs only above this sigma_min / sigma_max (see the
# module docstring); the QR takes everything at or below it
GRAM_RATIO_FLOOR = 1e-4
# apply_projection projects again while ||B'p|| > ORTH_TOL ||p||
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


def _first_pass(X, lam, V) -> np.ndarray:
    """``B = X V diag(lam)^-1/2`` for eigenpairs ``lam, V`` of ``X'X``:
    one Gram pass, which leaves ``|B'B - I|`` at about ``eps * kappa^2``,
    with ``kappa^2 = max(lam) / min(lam)``.

    ``B`` is formed as ``(W' X')'`` so that it is F-ordered, its columns
    contiguous: on 303-13,703 x 18 inputs that made the kernel 10-20%
    and the solver's projections through ``B`` 20-40% faster than C
    order.
    """
    W = (V / np.sqrt(lam)).T
    return (W @ X.T).T


def _gram_eigh(X: np.ndarray):
    """``lam, V = eigh(X'X)``, after one check that ``X'X`` is finite."""
    gram = X.T @ X
    if not np.isfinite(gram).all():
        if not np.isfinite(X).all():
            raise ValueError("input columns must be finite")
        raise ValueError(_OVERFLOW)
    return np.linalg.eigh(gram)


def _gram_route(X: np.ndarray):
    """``lam, V`` of ``X'X`` when the full basis of ``X`` takes the Gram
    route; ``None`` when it goes to the QR: ``sigma_min / sigma_max`` at
    most ``GRAM_RATIO_FLOOR``, ``lam_min`` near underflow, or a failing
    ``eigh``."""
    try:
        lam, V = _gram_eigh(X)
    except np.linalg.LinAlgError:
        return None
    if not lam[0] > max(GRAM_RATIO_FLOOR**2 * lam[-1], _GRAM_UNDERFLOW):
        return None
    return lam, V


def orthonormal_basis(X, k: int | None = None) -> np.ndarray:
    """Orthonormal basis of the column space of ``X`` from its Gram
    matrix, in one pass: all of it when ``k`` is ``None``, else its
    top-``k`` principal directions.  What the decomposed update rule
    constrains against.

    1. ``lam, V = eigh(X'X)``, after one check that ``X'X`` is finite.
    2. ``k`` is ``None``: when ``sigma_min / sigma_max = sqrt(lam_min /
       lam_max)`` is at most ``GRAM_RATIO_FLOOR``, ``lam_min`` is near
       underflow or ``eigh`` fails, return ``modified_gram_schmidt(X)``,
       whose rank contract decides the kept columns.  Otherwise map every
       eigenvector back through ``X`` with :func:`_first_pass`: every
       column is kept, as the QR would keep it.
    3. ``k`` given: keep the top ``min(k, #lam > DEFAULT_RANK_TOL *
       lam_max)`` eigenpairs, dominant first (eigenvalues at or below the
       cut-off are rank deficiency), and map them back with
       :func:`_first_pass`.  A Gram matrix near underflow is formed again
       from ``X`` scaled up by a power of two, which keeps its span.  The
       QR never takes this path: it would keep the whole span, so a
       failing ``eigh`` raises its ``LinAlgError``.

    Returns an ``(n_rows, r)`` matrix spanning the columns of ``X`` (``r``
    at most ``k``); the Gram mapping picks its own directions within that
    span, each defined up to its sign.  The QR's columns are orthonormal
    to working precision; a Gram pass over the kept ``lam`` leaves
    ``|B'B - I|`` within about ``ONE_PASS_LOSS * eps * lam_max /
    lam_min``, at most about 1.8e-7 on the full basis and 1.8e-5 on the
    k cut, which :func:`apply_projection` makes up for.  Empty input gives
    a zero-column basis.  ``X`` is never modified.  Raises ``ValueError``
    on ``k < 1``, on non-finite input and on a Gram matrix that overflows
    float64 (entries above about 1e150).
    """
    if k is not None and k < 1:
        raise ValueError(f"k must be at least 1, got {k!r}")
    X = _as_matrix(X)
    if X.shape[1] == 0:
        return empty_basis(X.shape[0])
    if k is None:
        eig = _gram_route(X)
        if eig is None:
            return modified_gram_schmidt(X)
        return _first_pass(X, *eig)
    lam, V = _gram_eigh(X)
    # eigh sorts ascending; take the principal directions first
    lam, V = lam[::-1], V[:, ::-1]
    if lam[0] <= _GRAM_UNDERFLOW:
        scaled = _scaled_up(X)
        if scaled is None:
            return empty_basis(X.shape[0])
        return orthonormal_basis(scaled, k)
    keep = min(k, int(np.count_nonzero(lam > DEFAULT_RANK_TOL * lam[0])))
    return _first_pass(X, lam[:keep], V[:, :keep])


def apply_projection(B, v) -> np.ndarray:
    """Project ``v`` onto the orthogonal complement of the columns of ``B``.

    Computes ``p = v - B (B'v)`` without ever forming the square
    projection matrix, then measures what is left of ``p`` in the span,
    ``r = B'p``, and projects again, ``p - B r``, while ``||r||`` exceeds
    ``ORTH_TOL * ||p||``, at most twice ("twice is enough"; Giraud,
    Langou and Rozloznik, 2005).  This is the package's only
    re-orthogonalization.  Through a basis with ``|B'B - I| <= d`` each
    projection leaves about ``d`` of the residual before it, so the two
    more take the first one's residual down by ``d^2``: to rounding for
    the full basis's worst ``d``, 1.8e-7, and by 3e-10 for the k cut's,
    1.8e-5.  The bar is relative to ``p``, not to ``B'v``: where ``v``
    lies nearly in the span, ``p`` is small, and the solver's reflect
    branch divides by it.  Through an orthonormal ``B`` the second
    projection runs only then.  So ``||B'p|| <= ORTH_TOL ||p||`` wherever
    rounding in ``v`` allows it.  ``B`` must be orthonormal to within
    ``ONE_PASS_LOSS * eps * kappa^2``, with ``kappa^2`` the spread of the
    eigenvalues it was mapped from (:func:`orthonormal_basis`): up to
    about 1.8e-5 at the k cut's eigenvalue floor.  An empty basis returns
    a copy of ``v``.
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
    p = v - B @ (B.T @ v)
    for _ in range(2):
        r = B.T @ p
        if not np.linalg.norm(r) > ORTH_TOL * np.linalg.norm(p):
            break
        p -= B @ r
    return p
