"""Continual-learning gradient updates by decomposing replay-memory
gradients into shared and task-specific components, solving a
closed-form constrained projection (optionally per network layer), and
running desk-scale benchmark experiments around it."""

from .decomp import GradientBundle, decompose, shared_gradient, task_specific_gradients
from .layerwise import (
    LossChangeReport,
    ParamLayout,
    Segment,
    layerwise_solve,
    predicted_loss_change,
    split_by_layer,
)
from .linalg import apply_projection, gram_pca, modified_gram_schmidt
from .memory import (
    Coreset,
    EpisodicMemory,
    sample_memory_batch,
    split_replay_buffer,
    update_memory,
)
from .metrics import acc, bwt
from .model import Batch, MlpModel
from .solver import (
    SolverConfig,
    UpdateResult,
    agem_update,
    gem_qp_update,
    qp_oracle,
    relax_basis,
    sgem_update,
    solve_update,
)
from .tasks import (
    TaskStream,
    gen_data_incremental_tasks,
    gen_permuted_tasks,
    gen_split_tasks,
    gen_synthetic_base,
    load_csv_dataset,
)
from .trainer import (
    MethodVariant,
    TrainConfig,
    run_ablation,
    train_sequence,
    train_step,
    variant_from_letter,
)

__version__ = "0.1.0"

__all__ = [
    "GradientBundle",
    "decompose",
    "shared_gradient",
    "task_specific_gradients",
    "LossChangeReport",
    "ParamLayout",
    "Segment",
    "layerwise_solve",
    "predicted_loss_change",
    "split_by_layer",
    "apply_projection",
    "gram_pca",
    "modified_gram_schmidt",
    "Coreset",
    "EpisodicMemory",
    "sample_memory_batch",
    "split_replay_buffer",
    "update_memory",
    "acc",
    "bwt",
    "Batch",
    "MlpModel",
    "SolverConfig",
    "UpdateResult",
    "agem_update",
    "gem_qp_update",
    "qp_oracle",
    "relax_basis",
    "sgem_update",
    "solve_update",
    "TaskStream",
    "gen_data_incremental_tasks",
    "gen_permuted_tasks",
    "gen_split_tasks",
    "gen_synthetic_base",
    "load_csv_dataset",
    "MethodVariant",
    "TrainConfig",
    "run_ablation",
    "train_sequence",
    "train_step",
    "variant_from_letter",
    "__version__",
]
