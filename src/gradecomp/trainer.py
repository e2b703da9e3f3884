"""Sequential training over a task stream with pluggable update rules.

Each training step draws one batch from every stored memory with one
generator call, stacked in ascending task order below the new-task
batch, and differentiates them all in one backprop: the new-task batch
is the first group, at its own size, and each memory's batch a group
after it.  Row 0 of the result is the new-task gradient and the rows
below it the ``(m, n)`` memory-gradient matrix (row ``i + 1`` for
memory ``i``) that every update rule reads as is, with at least one
row.  The step then decomposes that matrix into shared and specific
components, builds the constraint basis for the selected method, solves
for the update (on the whole vector or per layer), and applies it.  The
averaged constraint (A-GEM) reads only the mean memory gradient, so for
it the memory rows form one group: the gradient of the mean loss over
them is that mean, the matrix's one row and the bundle's shared row,
and no per-memory rows are formed.  With no stored memories (or for
plain fine-tuning) the step differentiates the new-task batch alone and
is one SGD step.  The gradients are written into a buffer that lives
for the whole run, and the decomposed rule forms its specific matrix in
the memory rows' storage, so a step does not return their pages to the
system for the next step to fault back in.

``train_sequence`` makes one pass over each task's training data, then
stores one episodic memory for the task in a plain list, in task order;
that list (or, with ``replay_split_n``, its pooled re-split) is what
every step of the next task replays.  The model has one layout segment
per layer, and evaluation is task-aware exactly for split-class streams.
To compare methods, call it once per method, as
``train_sequence(stream, replace(cfg, variant=v))``, and read
``gradecomp.metrics`` off each accuracy matrix (demo 04 does so);
``gradecomp run`` does the same and writes the results to files.

All randomness is drawn from generators seeded as ``run_seed + offset``
with one fixed offset per role, so enabling one feature never perturbs
the random streams of another:

====================  =======
role                  offset
====================  =======
model initialization  11
memory-batch sampling 23
random-memory choice  37
reservoir selection   41 (+ task index)
replay-buffer split   53
====================  =======
"""

from __future__ import annotations

import numbers
import re
import sys
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import layerwise as lw
from . import memory as mem
from . import solver
from .decomp import GradientBundle, decompose, shared_gradient
from .linalg import Workspace
from .model import Batch, MlpModel, _is_count
from .tasks import SCENARIO_SPLIT, TaskStream

SEED_MODEL_INIT = 11
SEED_MEMORY_SAMPLING = 23
SEED_SGEM_CHOICE = 37
SEED_RESERVOIR = 41
SEED_REPLAY_SPLIT = 53

KIND_SINGLE = "single"
KIND_AGEM = "agem"
KIND_SGEM = "sgem"
KIND_GEM = "gem"
KIND_OURS = "ours"
KINDS = (KIND_SINGLE, KIND_AGEM, KIND_SGEM, KIND_GEM, KIND_OURS)

#: ablation letters: (a) plain fine-tuning, (b) averaged constraint,
#: (c) averaged constraint per layer, (d) decomposed constraints,
#: (e) decomposed with top-k principal directions, (f) decomposed per
#: layer, (g) decomposed per layer with top-k principal directions
LETTERS = {
    "a": "single",
    "b": "agem",
    "c": "agem+lgu",
    "d": "ours",
    "e": "ours+pca",
    "f": "ours+lgu",
    "g": "ours+pca+lgu",
}
_NAME = re.compile(r"([a-z]+)(\+pca(\d*))?(\+lgu)?")


@dataclass(frozen=True)
class MethodVariant:
    """Update rule selector.

    ``lgu`` applies the rule independently per layout segment; plain
    fine-tuning and the single random-memory constraint have no per-layer
    form.  ``pca_k`` relaxes the decomposed method's constraint basis to
    its top-``pca_k`` principal directions; ``None`` keeps every
    direction.
    """

    kind: str
    lgu: bool = False
    pca_k: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown method kind {self.kind!r}")
        if self.lgu and self.kind in (KIND_SINGLE, KIND_SGEM):
            raise ValueError(f"method {self.kind!r} has no per-layer form")
        if self.pca_k is not None:
            if self.kind != KIND_OURS:
                raise ValueError(f"method {self.kind!r} takes no principal-direction k")
            if not _is_count(self.pca_k):
                raise ValueError(
                    f"principal-direction k must be an integer at least 1, "
                    f"got {self.pca_k!r}"
                )

    @property
    def name(self) -> str:
        """The canonical name, e.g. ``ours+pca2+lgu``; :func:`variant_from_name`
        reads it back."""
        parts = [self.kind]
        if self.pca_k is not None:
            parts.append(f"pca{self.pca_k}")
        if self.lgu:
            parts.append("lgu")
        return "+".join(parts)


def variant_single() -> MethodVariant:
    return MethodVariant(kind=KIND_SINGLE)


def variant_agem(lgu: bool = False) -> MethodVariant:
    return MethodVariant(kind=KIND_AGEM, lgu=lgu)


def variant_gem(lgu: bool = False) -> MethodVariant:
    return MethodVariant(kind=KIND_GEM, lgu=lgu)


def variant_ours(lgu: bool = False) -> MethodVariant:
    return MethodVariant(kind=KIND_OURS, lgu=lgu)


def variant_from_name(name: str, k: int | None = None) -> MethodVariant:
    """The method a name selects, case-insensitively.

    ``name`` is an ablation letter from :data:`LETTERS` or a name of the
    form ``kind[+pca[N]][+lgu]``, which covers every
    :attr:`MethodVariant.name`.  A principal-direction name without its
    own ``N`` takes ``k``, or 1 when ``k`` is ``None``.  Raises
    ``ValueError`` on an unknown name, an invalid combination, or a
    ``k`` that is not an integer of at least 1.
    """
    if k is not None:
        MethodVariant(KIND_OURS, pca_k=k)  # raises on a k that is no count
    lowered = name.lower()
    match = _NAME.fullmatch(LETTERS.get(lowered, lowered))
    if match is None:
        raise ValueError(f"unknown variant {name!r}")
    kind, pca, own_k, lgu = match.groups()
    pca_k = None
    if pca:
        pca_k = int(own_k) if own_k else (1 if k is None else k)
    return MethodVariant(kind=kind, lgu=bool(lgu), pca_k=pca_k)


@dataclass(frozen=True)
class TrainConfig:
    """Every setting of one training run, checked on construction: a
    ``ValueError`` names the first field that breaks its rule.

    ``eta`` is a number in ``(0, sys.float_info.max]``; ``bs_new``,
    ``bs_old``, ``memory_size`` and a non-``None`` ``replay_split_n`` are
    integers >= 1, as is each entry of the tuple ``hidden_sizes``;
    ``seed`` is an integer >= 0; ``memory_policy`` is in
    ``memory.POLICIES``.  ``True`` and ``False`` count as no integer."""

    eta: float = 0.1
    bs_new: int = 10
    bs_old: int = 20
    memory_size: int = 256
    hidden_sizes: tuple[int, ...] = (100, 100)
    seed: int = 0
    variant: MethodVariant = field(default_factory=variant_single)
    memory_policy: str = mem.POLICY_RING
    replay_split_n: int | None = None

    def __post_init__(self):
        # the upper bound rejects infinities and integers too large for a
        # float without converting them; NaN fails both comparisons
        if not (
            isinstance(self.eta, numbers.Real) and not isinstance(self.eta, bool)
            and 0 < self.eta <= sys.float_info.max
        ):
            raise ValueError(f"eta must be a positive finite number, got {self.eta!r}")
        hidden = self.hidden_sizes
        if not (isinstance(hidden, tuple) and all(map(_is_count, hidden))):
            raise ValueError(
                f"hidden_sizes must be a tuple of integers >= 1, got {hidden!r}"
            )
        if self.memory_policy not in mem.POLICIES:
            raise ValueError(
                f"memory_policy must be one of {mem.POLICIES}, got {self.memory_policy!r}"
            )
        least = {"bs_new": 1, "bs_old": 1, "memory_size": 1, "seed": 0}
        if self.replay_split_n is not None:
            least["replay_split_n"] = 1
        for name, low in least.items():
            value = getattr(self, name)
            if not _is_count(value, low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass
class StepTrace:
    """What one training step did.

    ``branch``, ``alignment`` and ``degenerate`` come from the solved
    update and stay ``None`` when no constrained solve ran (no memories,
    plain fine-tuning, or the single random-memory constraint);
    ``degenerate`` is true when the reflect branch fell back to the plain
    projection, in per-layer mode when any segment did.
    """

    task: int = -1
    iteration: int = -1
    loss_new: float = 0.0
    loss_mem_mean: float | None = None
    branch: str | None = None
    alignment: float | None = None
    degenerate: bool | None = None
    per_layer_alignments: tuple[float, ...] | None = None
    solver_seconds: float = 0.0
    update_norm: float = 0.0


def _agem_rule(bundle: GradientBundle) -> solver.UpdateResult:
    """The averaged constraint; ``project_only`` when it leaves ``g`` as is."""
    g, g_bar = bundle.new_grad, bundle.shared
    align = float(g_bar @ g)
    return solver.UpdateResult(
        w=solver.agem_update(g, g_bar),
        branch=solver.PROJECT_ONLY if align >= 0.0 else solver.PROJECT_AND_REFLECT,
        shared_alignment=align,
    )


def _gem_rule(bundle: GradientBundle) -> solver.UpdateResult:
    """The per-memory QP; ``project_only`` when no memory conflicts with ``g``."""
    g = bundle.new_grad
    inactive = bool((bundle.old_grads @ g >= 0.0).all())
    return solver.UpdateResult(
        w=solver.gem_qp_update(g, bundle.old_grads),
        branch=solver.PROJECT_ONLY if inactive else solver.PROJECT_AND_REFLECT,
        shared_alignment=float(bundle.shared @ g),
    )


def _solve_for_variant(
    variant: MethodVariant,
    model: MlpModel,
    g: np.ndarray,
    old: np.ndarray,
    sgem_rng: np.random.Generator,
    trace: StepTrace,
) -> np.ndarray:
    """``old`` is the ``(m, n)`` memory-gradient matrix, ``m >= 1``; for
    A-GEM it has one row, the mean memory gradient, which is also the
    bundle's shared row.  The decomposed rule overwrites it with the
    specific matrix."""
    if variant.kind == KIND_SGEM:
        return solver.sgem_update(g, old, sgem_rng)

    if variant.kind == KIND_OURS:
        bundle = decompose(g, old)
        rule = partial(solver.decomposed_update, k=variant.pca_k, overwrite=True)
    elif variant.kind == KIND_AGEM:
        bundle = GradientBundle(g, old, old[0])
        rule = _agem_rule
    else:
        bundle = GradientBundle(g, old, shared_gradient(old))
        rule = _gem_rule
    res = lw.layerwise_solve(bundle, model.layout, rule) if variant.lgu else rule(bundle)

    trace.branch = res.branch
    trace.alignment = res.shared_alignment
    trace.degenerate = res.degenerate
    if res.per_layer is not None:
        trace.per_layer_alignments = tuple(r.shared_alignment for _, r in res.per_layer)
    return res.w


def train_step(
    model: MlpModel,
    new_batch: Batch,
    memories: list[mem.EpisodicMemory],
    variant: MethodVariant,
    eta: float,
    mem_rng: np.random.Generator,
    sgem_rng: np.random.Generator,
    bs_old: int = 20,
    grads: Workspace | None = None,
) -> StepTrace:
    """One parameter update on a new-task batch under the given method.

    With no memories (or the plain fine-tuning method) this is one SGD
    step.  Otherwise one ``loss_and_grad`` pass differentiates the
    new-task batch and the sampled memory rows together.  Any non-finite
    quantity aborts with ``FloatingPointError``.  ``grads`` is the run's
    reused buffer for that pass's gradients; without it the step makes
    its own.
    """
    if grads is None:
        grads = Workspace()
    trace = StepTrace()

    if variant.kind == KIND_SINGLE or not memories:
        trace.loss_new, w = model.loss_and_grad(new_batch)
    else:
        sampled = mem.sample_memory_batch(memories, bs_old, mem_rng)
        stacked = Batch(
            np.concatenate((new_batch.inputs, sampled.inputs)),
            np.concatenate((new_batch.labels, sampled.labels)),
        )
        # the new-task batch is group 0; the averaged constraint (A-GEM)
        # reads only the mean memory gradient, which with equal-sized
        # memory batches is the gradient of the mean loss over all their
        # rows, so for it they form one group: one row, not one per memory
        agem = variant.kind == KIND_AGEM
        memory_groups = (len(sampled),) if agem else (bs_old,) * len(memories)
        out = grads.take((1 + len(memory_groups), model.n_params))
        losses, G = model.loss_and_grad(
            stacked, (len(new_batch), *memory_groups), out=out
        )
        trace.loss_new, g = float(losses[0]), G[0]
        trace.loss_mem_mean = float(losses[1:].sum() / len(memory_groups))
        old = G[1:]
        start = time.perf_counter()
        w = _solve_for_variant(variant, model, g, old, sgem_rng, trace)
        trace.solver_seconds = time.perf_counter() - start
        if not np.isfinite(w).all():
            raise FloatingPointError(
                f"non-finite update for method {variant.name} "
                f"(new-task loss {trace.loss_new:.6g}, "
                f"mean memory loss {trace.loss_mem_mean:.6g})"
            )

    model.apply_update(w, eta)
    trace.update_norm = float(np.linalg.norm(w))
    return trace


def _minibatches(batch: Batch, bs: int):
    """Sequential minibatches in stored order; the last one may be short."""
    n = len(batch)
    for start in range(0, n, bs):
        yield Batch(batch.inputs[start: start + bs], batch.labels[start: start + bs])


def train_sequence(
    stream: TaskStream, cfg: TrainConfig
) -> tuple[np.ndarray, list[StepTrace]]:
    """Run the full task sequence, one pass over each task's training
    data, and fill the accuracy matrix.

    Row ``t`` holds the accuracy on every test set seen so far after
    finishing task ``t``.  Evaluation restricts the argmax to each
    task's classes exactly when the stream splits the classes.
    """
    T = len(stream)
    if T == 0:
        raise ValueError("stream has no tasks")
    task_aware = stream.scenario == SCENARIO_SPLIT
    model = MlpModel(
        [stream.input_dim, *cfg.hidden_sizes, stream.n_classes],
        seed=cfg.seed + SEED_MODEL_INIT,
    )
    mem_rng = np.random.default_rng(cfg.seed + SEED_MEMORY_SAMPLING)
    sgem_rng = np.random.default_rng(cfg.seed + SEED_SGEM_CHOICE)
    split_rng = np.random.default_rng(cfg.seed + SEED_REPLAY_SPLIT)

    grads = Workspace()
    stored: list[mem.EpisodicMemory] = []
    R = np.full((T, T), np.nan)
    log: list[StepTrace] = []

    for t, task in enumerate(stream.tasks):
        memories = stored
        if cfg.replay_split_n is not None and stored:
            n_parts = min(cfg.replay_split_n, sum(len(m) for m in stored))
            memories = mem.split_replay_buffer(stored, n_parts, split_rng)

        for iteration, batch in enumerate(_minibatches(task.train, cfg.bs_new)):
            trace = train_step(
                model,
                batch,
                memories,
                cfg.variant,
                cfg.eta,
                mem_rng,
                sgem_rng,
                bs_old=cfg.bs_old,
                grads=grads,
            )
            trace.task = t
            trace.iteration = iteration
            log.append(trace)

        stored.append(
            mem.update_memory(
                task.train,
                cfg.memory_size,
                policy=cfg.memory_policy,
                seed=cfg.seed + SEED_RESERVOIR + t,
                task_id=t,
            )
        )
        for i in range(t + 1):
            subset = stream.tasks[i].class_subset if task_aware else None
            R[t, i] = model.evaluate(stream.tasks[i].test, subset)

    return R, log
