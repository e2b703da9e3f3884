"""Continual-learning gradient updates by decomposing replay-memory
gradients into shared and task-specific components, solving a
closed-form constrained projection (optionally per network layer), and
running desk-scale benchmark experiments around it.

The package root holds the names the README and the demos use; every
other name lives in its module (``gradecomp.trainer``,
``gradecomp.memory``, ...)."""

from .decomp import decompose
from .layerwise import layerwise_solve, predicted_loss_change
from .linalg import modified_gram_schmidt
from .model import MlpModel
from .solver import (
    agem_update,
    gem_qp_update,
    qp_oracle,
    relax_basis,
    sgem_update,
    solve_update,
)
from .tasks import gen_permuted_tasks, gen_synthetic_base

__version__ = "0.1.0"

__all__ = [
    "decompose",
    "layerwise_solve",
    "predicted_loss_change",
    "modified_gram_schmidt",
    "MlpModel",
    "agem_update",
    "gem_qp_update",
    "qp_oracle",
    "relax_basis",
    "sgem_update",
    "solve_update",
    "gen_permuted_tasks",
    "gen_synthetic_base",
    "__version__",
]
