"""Decompose replay-memory gradients into a shared component and
per-memory specific components.

Old-task gradients travel as one C-ordered ``(m, n)`` matrix ``G`` with
``m >= 1``, row ``i`` the gradient of memory ``i`` in ascending task
order, as :meth:`MlpModel.loss_and_grad` returns them for stacked memory
batches; a list of ``n``-vectors is accepted too and stacked once.
``G`` is the only stored form of the memory gradients, and every update
rule reads it: the per-memory QP (GEM) constrains against each row, the
averaged constraint (A-GEM) against its one row, the mean memory
gradient.  There is no bundle without old tasks.

The shared component is the plain mean of the rows; each specific
component is that task's deviation from the mean.  The ``(n, m)``
specific matrix ``(G - shared).T`` is worked out into a fresh array
each time :attr:`GradientBundle.specific` is read; the training step
forms it in the storage of ``G`` instead, through
``solver.decomposed_update(..., overwrite=True)``.  Its columns sum to
the zero vector, so in exact arithmetic it has rank at most ``m - 1``
and its first ``m - 1`` columns span it; in floating point the last
column adds only rounding noise, which is why the full constraint basis
is built from those first ``m - 1`` columns.  The relaxed basis, its
top-k principal directions, reads all ``m``.  Both come from one Gram
pass of :func:`linalg.orthonormal_basis` (see :func:`solver.relax_basis`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_matrix(old_grads) -> np.ndarray:
    """``old_grads`` as a C-ordered float64 ``(m, n)`` matrix with ``m >= 1``."""
    G = np.asarray(old_grads, dtype=np.float64)  # ragged lists raise ValueError
    if G.ndim != 2 or G.shape[0] == 0:
        raise ValueError(
            f"need a non-empty (memories, dim) matrix of old-task gradients, "
            f"got shape {G.shape}"
        )
    return np.ascontiguousarray(G)


def shared_gradient(old_grads) -> np.ndarray:
    """Mean of the old-task gradients, accumulated in ascending task order.

    The rows of a C-ordered matrix are summed one after another, so the
    result equals a loop ``acc += G[i]`` over the rows bit for bit.
    """
    G = _as_matrix(old_grads)
    return G.sum(axis=0) / G.shape[0]


@dataclass
class GradientBundle:
    """New-task gradient, the ``(m, n)`` matrix of memory gradients
    (``m >= 1``) and ``shared``, the mean of its rows."""

    new_grad: np.ndarray
    old_grads: np.ndarray
    shared: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.new_grad.shape[0])

    @property
    def n_memories(self) -> int:
        return int(self.old_grads.shape[0])

    @property
    def specific(self) -> np.ndarray:
        """The ``(n, m)`` specific matrix: column ``i`` is ``old_grads[i] -
        shared``."""
        return (self.old_grads - self.shared).T


def decompose(new_grad: np.ndarray, old_grads) -> GradientBundle:
    """Build a :class:`GradientBundle` from raw gradients.

    ``old_grads`` is the ``(m, n)`` memory-gradient matrix (or a list of
    ``n``-vectors) with ``m >= 1``; it is kept as given when already a
    C-ordered float64 matrix.  Raises ``ValueError`` when it has no rows,
    as :func:`shared_gradient` does, or when its width is not that of
    ``new_grad``.
    """
    new_grad = np.asarray(new_grad, dtype=np.float64)
    if new_grad.ndim != 1:
        raise ValueError("new-task gradient must be a vector")
    G = _as_matrix(old_grads)
    if G.shape[1] != new_grad.shape[0]:
        raise ValueError(
            f"old gradients have dimension {G.shape[1]}, new gradient has "
            f"{new_grad.shape[0]}"
        )
    return GradientBundle(new_grad=new_grad, old_grads=G, shared=shared_gradient(G))
