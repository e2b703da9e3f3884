"""Sequential training over a task stream with pluggable update rules.

Each training step computes the new-task gradient, samples one batch
from every stored memory, differentiates the stacked batches in one
pass into an ``(m, n)`` matrix (row ``i`` for memory ``i``, ascending
task order) that every update rule reads as is, decomposes it into
shared and specific components, builds the constraint basis for the
selected method, solves for the update (on the whole vector or per
layer), and applies it.  The averaged constraint (A-GEM) reads only the mean memory
gradient, so for it the same pass runs without groups: the gradient of
the mean loss over the stacked batch is that mean, and no per-memory
rows are formed.  With no stored memories every method degenerates to
plain SGD.

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
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import layerwise as lw
from . import memory as mem
from . import solver
from .decomp import GradientBundle, decompose, shared_gradient
from .model import Batch, MlpModel
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
            k = self.pca_k
            if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
                raise ValueError(
                    f"principal-direction k must be an integer at least 1, got {k!r}"
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
    ``ValueError`` on an unknown name, an invalid combination, or
    ``k < 1``.
    """
    if k is not None and k < 1:
        raise ValueError(f"principal-direction k must be at least 1, got {k}")
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
    eta: float = 0.1
    epochs: int = 1
    bs_new: int = 10
    bs_old: int = 20
    memory_size: int = 256
    hidden_sizes: tuple[int, ...] = (100, 100)
    seed: int = 0
    variant: MethodVariant = field(default_factory=variant_single)
    memory_policy: str = mem.POLICY_RING
    replay_split_n: int | None = None
    multi_head: bool | None = None
    per_tensor_layout: bool = False

    def __post_init__(self):
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if min(self.bs_new, self.bs_old, self.memory_size) < 1:
            raise ValueError("batch sizes and memory size must be positive")
        if self.replay_split_n is not None and self.replay_split_n < 1:
            raise ValueError("replay_split_n must be at least 1")


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


def _memory_batch(
    memories: list[mem.EpisodicMemory], bs_old: int, rng: np.random.Generator
) -> Batch:
    """One sampled batch per memory, stacked in ascending task order."""
    batches = [mem.sample_memory_batch(memory, bs_old, rng) for memory in memories]
    return Batch(
        np.concatenate([b.inputs for b in batches]),
        np.concatenate([b.labels for b in batches]),
    )


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
    """``old`` is the ``(m, n)`` memory-gradient matrix; for A-GEM it is
    the mean memory gradient alone."""
    if variant.kind == KIND_SGEM:
        return solver.sgem_update(g, old, sgem_rng)

    if variant.kind == KIND_OURS:
        bundle = decompose(g, old)
        rule = partial(solver.decomposed_update, k=variant.pca_k)
    elif variant.kind == KIND_AGEM:
        bundle = GradientBundle(new_grad=g, shared=old)
        rule = _agem_rule
    else:
        bundle = GradientBundle(new_grad=g, old_grads=old, shared=shared_gradient(old))
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
) -> StepTrace:
    """One parameter update on a new-task batch under the given method.

    With no memories (or the plain fine-tuning method) this is one SGD
    step.  Any non-finite quantity aborts with ``FloatingPointError``.
    """
    trace = StepTrace()
    loss_new, g = model.loss_and_grad(new_batch)
    trace.loss_new = loss_new

    if variant.kind == KIND_SINGLE or not memories:
        w = g
    else:
        stacked = _memory_batch(memories, bs_old, mem_rng)
        if variant.kind == KIND_AGEM:
            # the averaged constraint reads only the mean memory gradient:
            # with equal-sized groups it is the gradient of the mean loss
            # over the stacked batch, so no per-memory rows are formed
            trace.loss_mem_mean, old = model.loss_and_grad(stacked)
        else:
            losses, old = model.loss_and_grad(stacked, groups=len(memories))
            trace.loss_mem_mean = float(np.mean(losses))
        start = time.perf_counter()
        w = _solve_for_variant(variant, model, g, old, sgem_rng, trace)
        trace.solver_seconds = time.perf_counter() - start
        if not np.isfinite(w).all():
            raise FloatingPointError(
                f"non-finite update for method {variant.name} "
                f"(new-task loss {loss_new:.6g}, "
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
    """Run the full task sequence and fill the accuracy matrix.

    Row ``t`` holds the accuracy on every test set seen so far after
    finishing task ``t``.  Evaluation restricts the argmax to each
    task's classes for split-class streams (unless ``multi_head``
    overrides it).
    """
    T = len(stream)
    if T == 0:
        raise ValueError("stream has no tasks")
    multi_head = (
        cfg.multi_head
        if cfg.multi_head is not None
        else stream.scenario == SCENARIO_SPLIT
    )
    model = MlpModel(
        [stream.input_dim, *cfg.hidden_sizes, stream.n_classes],
        seed=cfg.seed + SEED_MODEL_INIT,
        per_tensor_layout=cfg.per_tensor_layout,
    )
    mem_rng = np.random.default_rng(cfg.seed + SEED_MEMORY_SAMPLING)
    sgem_rng = np.random.default_rng(cfg.seed + SEED_SGEM_CHOICE)
    split_rng = np.random.default_rng(cfg.seed + SEED_REPLAY_SPLIT)

    coreset = mem.Coreset()
    R = np.full((T, T), np.nan)
    log: list[StepTrace] = []

    for t, task in enumerate(stream.tasks):
        if cfg.replay_split_n is not None and len(coreset) > 0:
            n_parts = min(cfg.replay_split_n, coreset.total_items)
            memories = mem.split_replay_buffer(coreset, n_parts, split_rng)
        else:
            memories = list(coreset)

        iteration = 0
        for _ in range(cfg.epochs):
            for batch in _minibatches(task.train, cfg.bs_new):
                trace = train_step(
                    model,
                    batch,
                    memories,
                    cfg.variant,
                    cfg.eta,
                    mem_rng,
                    sgem_rng,
                    bs_old=cfg.bs_old,
                )
                trace.task = t
                trace.iteration = iteration
                iteration += 1
                log.append(trace)

        coreset.add(
            mem.update_memory(
                task.train,
                cfg.memory_size,
                policy=cfg.memory_policy,
                seed=cfg.seed + SEED_RESERVOIR + t,
                task_id=t,
            )
        )
        for i in range(t + 1):
            subset = stream.tasks[i].class_subset if multi_head else None
            R[t, i] = model.evaluate(stream.tasks[i].test, subset)

    return R, log


@dataclass
class AblationRow:
    name: str
    acc: float
    bwt: float | None
    seconds: float


def run_ablation(
    stream: TaskStream, base_cfg: TrainConfig, variants: list[MethodVariant]
) -> list[AblationRow]:
    """Train every variant on the same stream and seed; tabulate metrics."""
    from . import metrics

    rows = []
    for variant in variants:
        cfg = replace(base_cfg, variant=variant)
        start = time.perf_counter()
        R, _ = train_sequence(stream, cfg)
        seconds = time.perf_counter() - start
        rows.append(
            AblationRow(
                name=variant.name,
                acc=metrics.acc(R),
                bwt=metrics.bwt(R),
                seconds=seconds,
            )
        )
    return rows
