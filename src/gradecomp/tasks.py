"""Deterministic continual-task streams and CSV ingestion.

Three stream scenarios are supported: permuted features (every task sees
the same data under a task-specific feature permutation, shared labels),
split classes (disjoint class subsets per task), and data-incremental
(disjoint shards of the same data, shared labels).  All generators are
pure functions of their inputs and a seed; a :class:`TaskStream` holds
only its scenario and its tasks.  Every class is cut into train and test
rows by :func:`train_rows_per_class`, for synthetic and CSV data alike.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .model import Batch

SCENARIO_PERMUTED = "permuted_features"
SCENARIO_SPLIT = "split_classes"
SCENARIO_DATA_INCREMENTAL = "data_incremental"
SCENARIOS = (SCENARIO_PERMUTED, SCENARIO_SPLIT, SCENARIO_DATA_INCREMENTAL)

TRAIN_FRACTION = 0.8


@dataclass
class Task:
    train: Batch
    test: Batch
    class_subset: np.ndarray

    def __post_init__(self):
        self.class_subset = np.asarray(self.class_subset, dtype=np.int64)


@dataclass
class TaskStream:
    scenario: str
    tasks: list[Task] = field(default_factory=list)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def n_classes(self) -> int:
        return int(max(int(t.class_subset.max()) for t in self.tasks)) + 1

    @property
    def input_dim(self) -> int:
        return int(self.tasks[0].train.inputs.shape[1])


def train_rows_per_class(n: int) -> int:
    """How many of a class's ``n`` rows train: 80% of them, at least one,
    and one fewer than all when the class has two or more."""
    n_train = int(round(TRAIN_FRACTION * n))
    return min(max(n_train, 1), n - 1) if n > 1 else n


def _per_class_cut(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Train and test row indices: the leading
    :func:`train_rows_per_class` of each class's rows train, the rest
    test; both grouped by class in ascending label order."""
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        n_train = train_rows_per_class(idx.size)
        train_idx.append(idx[:n_train])
        test_idx.append(idx[n_train:])
    return np.concatenate(train_idx), np.concatenate(test_idx)


def _stratified_split(
    inputs: np.ndarray, labels: np.ndarray, rng: np.random.Generator
) -> tuple[Batch, Batch]:
    """Per-class 80/20 split, then a seeded shuffle of each side."""
    tr, te = _per_class_cut(labels)
    rng.shuffle(tr)
    rng.shuffle(te)
    return (
        Batch(inputs[tr], labels[tr]),
        Batch(inputs[te], labels[te]),
    )


def gen_synthetic_base(
    classes: int, dim: int, n_per_class: int, seed: int
) -> tuple[Batch, Batch]:
    """Gaussian class clusters with a stratified 80/20 train/test split.

    Class means are seeded random directions scaled to norm
    ``3 * sqrt(dim) / sqrt(classes)``; points have unit within-class
    standard deviation per coordinate.
    """
    if classes < 2:
        raise ValueError("need at least two classes")
    if dim < 2:
        raise ValueError("need at least two feature dimensions")
    if n_per_class < 2:
        raise ValueError("need at least two examples per class")
    rng = np.random.default_rng(seed)
    target_norm = 3.0 * np.sqrt(dim) / np.sqrt(classes)
    means = rng.standard_normal((classes, dim))
    means *= target_norm / np.linalg.norm(means, axis=1, keepdims=True)

    inputs = np.empty((classes * n_per_class, dim))
    labels = np.empty(classes * n_per_class, dtype=np.int64)
    for c in range(classes):
        block = slice(c * n_per_class, (c + 1) * n_per_class)
        inputs[block] = means[c] + rng.standard_normal((n_per_class, dim))
        labels[block] = c
    return _stratified_split(inputs, labels, rng)


def gen_permuted_tasks(
    base: tuple[Batch, Batch], T: int, seed: int
) -> TaskStream:
    """Task ``t`` applies one seeded feature permutation to train and test.

    The first task keeps the identity permutation, so a single-task
    stream is the base data unchanged.
    """
    if T < 1:
        raise ValueError("need at least one task")
    train, test = base
    dim = train.inputs.shape[1]
    all_classes = np.unique(np.concatenate([train.labels, test.labels]))
    rng = np.random.default_rng(seed)
    tasks = []
    for t in range(T):
        if t == 0:
            perm = np.arange(dim)
        else:
            perm = rng.permutation(dim)
        tasks.append(
            Task(
                train=Batch(train.inputs[:, perm], train.labels.copy()),
                test=Batch(test.inputs[:, perm], test.labels.copy()),
                class_subset=all_classes,
            )
        )
    return TaskStream(scenario=SCENARIO_PERMUTED, tasks=tasks)


def gen_split_tasks(base: tuple[Batch, Batch], T: int, seed: int) -> TaskStream:
    """Shuffle the classes by seed and deal them into ``T`` disjoint tasks."""
    if T < 1:
        raise ValueError("need at least one task")
    train, test = base
    all_classes = np.unique(np.concatenate([train.labels, test.labels]))
    if all_classes.size % T != 0:
        raise ValueError(
            f"class count {all_classes.size} is not divisible by {T} tasks"
        )
    rng = np.random.default_rng(seed)
    shuffled = rng.permutation(all_classes)
    per_task = all_classes.size // T
    tasks = []
    for t in range(T):
        subset = np.sort(shuffled[t * per_task: (t + 1) * per_task])
        tr_mask = np.isin(train.labels, subset)
        te_mask = np.isin(test.labels, subset)
        tasks.append(
            Task(
                train=Batch(train.inputs[tr_mask], train.labels[tr_mask]),
                test=Batch(test.inputs[te_mask], test.labels[te_mask]),
                class_subset=subset,
            )
        )
    return TaskStream(scenario=SCENARIO_SPLIT, tasks=tasks)


def gen_data_incremental_tasks(
    base: tuple[Batch, Batch], T: int, seed: int
) -> TaskStream:
    """Partition the training data into ``T`` disjoint shards, shared labels.

    Shard sizes differ by at most one (larger shards first); every task
    is evaluated on the full base test set.
    """
    if T < 1:
        raise ValueError("need at least one task")
    train, test = base
    n = len(train)
    if n < T:
        raise ValueError(f"cannot shard {n} examples into {T} tasks")
    all_classes = np.unique(np.concatenate([train.labels, test.labels]))
    order = np.random.default_rng(seed).permutation(n)
    tasks = [
        Task(
            train=Batch(train.inputs[idx], train.labels[idx]),
            test=Batch(test.inputs.copy(), test.labels.copy()),
            class_subset=all_classes,
        )
        for idx in np.array_split(order, T)
    ]
    return TaskStream(scenario=SCENARIO_DATA_INCREMENTAL, tasks=tasks)


def load_csv_dataset(path, label_column) -> tuple[Batch, Batch]:
    """Parse a numeric CSV into a stratified train/test batch pair.

    The label column is selected by header name or zero-based index; the
    remaining columns become features in file order.  Every feature cell
    must be a finite number and every label an integer in the int64
    range (``1.0`` is label 1); any other cell raises a ``ValueError``
    that names the file, row and column.  Labels are mapped to contiguous
    class indices in sorted order.  Features are standardized to zero
    mean and unit variance using train-split statistics only (constant
    columns are left unscaled).  The split takes the leading 80% of each
    class in file order, so loading is fully deterministic.  Files too
    small to yield any test rows return the train batch as the test
    batch.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise FileNotFoundError(f"cannot read dataset file {path}: {exc}") from exc
    with fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: empty file")

    header: list[str] | None = None
    first = rows[0]
    if any(not _is_number(cell) for cell in first):
        header = [cell.strip() for cell in first]
        rows = rows[1:]
    if not rows:
        raise ValueError(f"{path}: no data rows")

    n_cols = len(rows[0])
    if isinstance(label_column, str):
        if header is None:
            raise ValueError(
                f"label column {label_column!r} given by name but the file has no header"
            )
        if label_column not in header:
            raise ValueError(f"unknown label column {label_column!r} (header: {header})")
        label_idx = header.index(label_column)
    else:
        label_idx = int(label_column)
        if not 0 <= label_idx < n_cols:
            raise ValueError(
                f"label column index {label_idx} out of range for {n_cols} columns"
            )

    for r, row in enumerate(rows):
        if len(row) != n_cols:
            raise ValueError(f"{path}: row {r + 1} has {len(row)} cells, expected {n_cols}")
    values = np.array([[_float_or_nan(cell) for cell in row] for row in rows])
    raw = values[:, label_idx]
    bad = ~np.isfinite(values)
    bad[:, label_idx] = ~((raw == np.round(raw)) & (np.abs(raw) < 2.0**63))
    if bad.any():
        r, c = np.argwhere(bad)[0]
        kind = "an int64 integer" if c == label_idx else "a finite number"
        raise ValueError(
            f"{path}: cell {rows[r][c]!r} at row {r + 1}, column {c + 1} is not {kind}"
        )
    inputs = np.delete(values, label_idx, axis=1)
    raw = raw.astype(np.int64)
    classes = np.unique(raw)
    labels = np.searchsorted(classes, raw)

    tr, te = (np.sort(idx) for idx in _per_class_cut(labels))

    mean = inputs[tr].mean(axis=0)
    std = inputs[tr].std(axis=0)
    std[std == 0.0] = 1.0
    inputs = (inputs - mean) / std
    train = Batch(inputs[tr], labels[tr])
    if te.size:
        test = Batch(inputs[te], labels[te])
    else:
        test = Batch(inputs[tr].copy(), labels[tr].copy())
    return train, test


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False
