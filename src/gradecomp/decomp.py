"""Decompose replay-memory gradients into a shared component and
per-memory specific components.

Old-task gradients travel as one C-ordered ``(m, n)`` matrix ``G``, row
``i`` the gradient of memory ``i`` in ascending task order, as
:meth:`MlpModel.loss_and_grad` returns them for stacked memory batches;
a list of ``n``-vectors is accepted too and stacked once.

The shared component is the plain mean of the rows; each specific
component is that task's deviation from the mean.  The specific columns
sum to the zero vector, so in exact arithmetic the specific matrix of
``t - 1`` stored memories has rank at most ``t - 2``.  In floating point
the subtraction leaves rounding noise of about 1e-16 of the shared
gradient's norm, and on nearly collinear memories the basis rank test
can keep that noise as one more direction, an open defect: 785 of 2,000
adversarial zero-sum inputs get a basis of rank ``m``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg


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


def task_specific_gradients(old_grads, shared: np.ndarray) -> np.ndarray:
    """Column ``i`` is ``old_grads[i] - shared``; columns sum to zero.

    The ``(n, m)`` result is the transposed view of one ``(m, n)``
    difference.
    """
    G = _as_matrix(old_grads)
    shared = np.asarray(shared, dtype=np.float64)
    if shared.shape != (G.shape[1],):
        raise ValueError(
            f"shared gradient has shape {shared.shape}, expected ({G.shape[1]},)"
        )
    return (G - shared).T


@dataclass
class GradientBundle:
    """New-task gradient plus the decomposed old-task gradients.

    ``old_grads`` is the ``(m, n)`` matrix of memory gradients (``None``
    becomes an empty ``(0, n)`` one); ``shared`` is ``None`` and
    ``specific`` has zero columns when there are no old tasks yet.
    """

    new_grad: np.ndarray
    old_grads: np.ndarray | None = None
    shared: np.ndarray | None = None
    specific: np.ndarray | None = None

    def __post_init__(self):
        if self.old_grads is None:
            self.old_grads = np.empty((0, self.dim))

    @property
    def dim(self) -> int:
        return int(self.new_grad.shape[0])

    @property
    def n_memories(self) -> int:
        return int(self.old_grads.shape[0])


def decompose(new_grad: np.ndarray, old_grads) -> GradientBundle:
    """Build a :class:`GradientBundle` from raw gradients.

    ``old_grads`` is the ``(m, n)`` memory-gradient matrix (or a list of
    ``n``-vectors); it is kept as given when already a C-ordered float64
    matrix.
    """
    new_grad = np.asarray(new_grad, dtype=np.float64)
    if new_grad.ndim != 1:
        raise ValueError("new-task gradient must be a vector")
    if len(old_grads) == 0:
        return GradientBundle(
            new_grad=new_grad, specific=linalg.empty_basis(new_grad.shape[0])
        )
    G = _as_matrix(old_grads)
    if G.shape[1] != new_grad.shape[0]:
        raise ValueError(
            f"old gradients have dimension {G.shape[1]}, new gradient has "
            f"{new_grad.shape[0]}"
        )
    shared = shared_gradient(G)
    return GradientBundle(
        new_grad=new_grad,
        old_grads=G,
        shared=shared,
        specific=task_specific_gradients(G, shared),
    )
