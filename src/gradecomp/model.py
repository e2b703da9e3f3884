"""Small fully-connected classifier with manual backprop over a flat
parameter vector.

Parameters live in one contiguous float64 array; weight matrices and
bias vectors are reshaped views into it, so solver updates applied to
the flat vector are immediately visible to the forward pass.  Hidden
layers use ReLU (subgradient 0 at 0), the output layer is linear, and
the loss is mean softmax cross-entropy.  One backprop serves every
gradient a training step needs: a single batch gives one ``(n,)``
vector, and stacked groups of rows (the new-task batch, then one
sampled batch per replay memory) give one ``(groups, n)`` matrix whose
row ``k`` is the gradient of group ``k``'s own mean loss.  The layout
the per-layer solver reads has one segment per layer, the layer's
weights and then its bias, in the order they sit in the vector.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .layerwise import ParamLayout
from .linalg import Workspace


def _is_count(value, least: int = 1) -> bool:
    """An integer >= ``least``; ``True`` and ``False`` are ``int`` but no count."""
    is_int = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    return is_int and value >= least


def _group_runs(rows: int, groups) -> tuple[int, list[list]]:
    """The groups of :meth:`MlpModel.loss_and_grad` as runs of equal
    consecutive sizes: the number of groups, and ``[first row, first
    group, size, count]`` for each run.  Raises ``ValueError`` unless the
    groups split the ``rows`` exactly."""
    if groups is None:
        return 1, [[0, 0, rows, 1]]
    if isinstance(groups, numbers.Integral):
        if not _is_count(groups) or rows % groups:
            raise ValueError(
                f"{rows} rows do not split into {groups!r} groups of equal size"
            )
        return int(groups), [[0, 0, rows // int(groups), int(groups)]]
    sizes = list(groups) if np.iterable(groups) else [groups]
    runs: list[list] = []
    row = 0
    for k, size in enumerate(sizes):
        # a size equal in type and value to a checked one is a count too
        if runs and size == runs[-1][2] and type(size) is type(runs[-1][2]):
            runs[-1][3] += 1
        elif _is_count(size):
            runs.append([row, k, size, 1])
        else:
            break
        row += size
    else:
        if sizes and row == rows:
            return len(sizes), runs
    raise ValueError(
        f"group sizes must be integers >= 1 that sum to the {rows} rows, "
        f"got {groups!r}"
    )


@dataclass
class Batch:
    """Dense feature rows plus integer class labels."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2:
            raise ValueError("inputs must be a 2-D (examples, features) array")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.inputs.shape[0]:
            raise ValueError("labels must be one integer per input row")
        if self.inputs.shape[0] < 1:
            raise ValueError("batch must contain at least one example")

    def __len__(self) -> int:
        return int(self.inputs.shape[0])


class MlpModel:
    """ReLU MLP over a flat parameter vector.

    ``layer_sizes`` lists input width, hidden widths, and output width.
    Weights are initialized uniform in ``+-sqrt(6 / (fan_in + fan_out))``
    from the given seed; biases start at zero.  The layout has one
    segment per layer, ``layer{i}``: its weight matrix followed by its
    bias.
    """

    def __init__(self, layer_sizes: list[int], seed: int = 0):
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output size")
        if not all(_is_count(s) for s in layer_sizes):
            raise ValueError(f"layer sizes must be positive integers, got {layer_sizes!r}")
        if not _is_count(seed, 0):
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
        self.layer_sizes = [int(s) for s in layer_sizes]
        self.seed = int(seed)
        fans = enumerate(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        self.layout = ParamLayout.from_lengths(
            [(f"layer{i}", fan_in * fan_out + fan_out) for i, (fan_in, fan_out) in fans]
        )
        self.params = np.zeros(self.layout.total)
        self._bind_views()

        rng = np.random.default_rng(self.seed)
        for W, b in self._layers:
            fan_in, fan_out = W.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            W[...] = rng.uniform(-limit, limit, size=W.shape)
            b[...] = 0.0

    def _bind_views(self):
        """The weight and bias views into ``params``, and empty scratch
        for each hidden layer's output in ``loss_and_grad``."""
        self._hidden = [Workspace() for _ in self.layer_sizes[1:-1]]
        self._layers: list[tuple[np.ndarray, np.ndarray]] = []
        layers = zip(self.layout.segments, self.layer_sizes[:-1], self.layer_sizes[1:])
        for seg, fan_in, fan_out in layers:
            bias_at = seg.offset + fan_in * fan_out
            W = self.params[seg.offset: bias_at].reshape(fan_in, fan_out)
            self._layers.append((W, self.params[bias_at: bias_at + fan_out]))

    @property
    def n_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def n_params(self) -> int:
        return self.layout.total

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Pre-softmax logits for a 2-D batch of inputs."""
        X = np.asarray(inputs, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != self.layer_sizes[0]:
            raise ValueError(
                f"input width {X.shape[1]} does not match model input size "
                f"{self.layer_sizes[0]}"
            )
        h = X
        last = len(self._layers) - 1
        for i, (W, b) in enumerate(self._layers):
            h = h @ W + b
            if i != last:
                h = np.maximum(h, 0.0)
        return h

    def loss_and_grad(
        self,
        batch: Batch,
        groups: int | Sequence[int] | None = None,
        *,
        out: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray] | tuple[np.ndarray, np.ndarray]:
        """Mean cross-entropy and its flat gradient, for one or many groups.

        With ``groups=None`` the whole batch is one group and the result
        is ``(loss, grad)``: a float and an ``(n_params,)`` vector.
        Otherwise the rows of ``batch`` are consecutive groups: ``groups=m``
        makes ``m`` groups of equal size (one sampled batch per replay
        memory, stacked), and a sequence of sizes makes one group of each
        size, in order, summing to the rows (a training step puts its
        new-task batch first, then the memories' batches).  The result is
        ``(losses, G)``: ``losses[k]`` is group ``k``'s own mean loss and
        row ``G[k]`` of the C-ordered ``(groups, n_params)`` matrix its
        gradient.  Either way it is one forward pass over every row, one
        label check, one backward pass and one finiteness check; the
        per-group weight gradients come from one batched matmul for each
        run of equal consecutive sizes, written straight into the rows of
        ``G``.  The one-group result does the arithmetic of a plain
        single-batch backprop bit for bit, and ``groups=m`` that of ``m``
        equal sizes given as a sequence; a group's row agrees with a call
        on that group alone to rounding (BLAS may round a tall product
        differently from a short one).  Sizes that do not split the rows
        (or that are not integers >= 1) and out-of-range labels raise
        ``ValueError`` before anything is written.

        ``out``, when given, receives the gradient and is returned in its
        place, as in numpy: a C-contiguous float64 array of the result's
        shape, ``(n_params,)`` or ``(groups, n_params)``, else
        ``ValueError``.  A training run passes one buffer to every step,
        so its pages stay resident.  The hidden activations and deltas
        live in scratch buffers of the model's own, grown to the largest
        batch seen, so two threads must not run this method on one model
        at once.
        """
        X = batch.inputs
        y = batch.labels
        if X.shape[1] != self.layer_sizes[0]:
            raise ValueError("batch width does not match model input size")
        if (y < 0).any() or (y >= self.n_classes).any():
            raise ValueError(
                f"labels must lie in [0, {self.n_classes}), got "
                f"[{y.min()}, {y.max()}]"
            )
        rows = X.shape[0]
        m, runs = _group_runs(rows, groups)
        shape = (self.layout.total,) if groups is None else (m, self.layout.total)
        if out is None:
            out = np.empty(shape)
        elif not (
            isinstance(out, np.ndarray) and out.shape == shape
            and out.dtype == np.float64 and out.flags.c_contiguous
        ):
            raise ValueError(
                f"out must be a C-contiguous float64 array of shape {shape}"
            )
        G = out.reshape(m, self.layout.total)  # a view: out is C-contiguous
        last = len(self._layers) - 1

        # inputs of every layer; a hidden layer's ReLU mask is its output > 0
        inputs = [X]
        h = X
        for i, (W, b) in enumerate(self._layers):
            hidden = None if i == last else self._hidden[i].take((rows, W.shape[1]))
            h = np.matmul(h, W, out=hidden)
            h += b
            if i != last:
                np.maximum(h, 0.0, out=h)
                inputs.append(h)

        shifted = h
        shifted -= shifted.max(axis=1, keepdims=True)
        delta = np.exp(shifted)
        sum_exp = delta.sum(axis=1)
        picked = np.arange(rows), y
        log_probs = shifted[picked] - np.log(sum_exp)

        delta /= sum_exp[:, None]
        delta[picked] -= 1.0
        losses = np.empty(m)
        for row, k, bs, count in runs:
            end = row + bs * count
            group_losses = losses[k: k + count]
            log_probs[row:end].reshape(count, bs).sum(axis=1, out=group_losses)
            group_losses /= -bs
            delta[row:end] /= bs
        for i in range(last, -1, -1):
            W, _ = self._layers[i]
            fan_in, fan_out = W.shape
            offset = self.layout.segments[i].offset
            bias_at = offset + fan_in * fan_out
            a = inputs.pop()
            for row, k, bs, count in runs:
                end = row + bs * count
                d = delta[row:end].reshape(count, bs, fan_out)
                gW = G[k: k + count, offset:bias_at].reshape(count, fan_in, fan_out)
                at = a[row:end].reshape(count, bs, fan_in).transpose(0, 2, 1)
                np.matmul(at, d, out=gW)
                d.sum(axis=1, out=G[k: k + count, bias_at: bias_at + fan_out])
            if i > 0:
                # the hidden output a is read for the last time here, so
                # the next delta overwrites it after its ReLU mask is taken
                mask = a > 0.0
                delta = np.matmul(delta, W.T, out=a)
                delta *= mask

        if not np.isfinite(losses).all() or not np.isfinite(G).all():
            raise FloatingPointError("non-finite loss or gradient")
        if groups is None:
            return float(losses[0]), out
        return losses, out

    def apply_update(self, w: np.ndarray, eta: float) -> None:
        """In-place step ``params <- params - eta * w``."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != self.params.shape:
            raise ValueError(
                f"update has shape {w.shape}, parameters have {self.params.shape}"
            )
        if not (math.isfinite(eta) and eta >= 0.0):
            raise ValueError(f"eta must be non-negative and finite, got {eta}")
        self.params -= eta * w

    def evaluate(self, batch: Batch, class_subset: np.ndarray | None = None) -> float:
        """Fraction of correct argmax predictions, ties to the lowest index.

        ``class_subset`` restricts the argmax to the given output columns
        (ascending), for task-aware evaluation.
        """
        logits = self.forward(batch.inputs)
        if class_subset is None:
            pred = np.argmax(logits, axis=1)
        else:
            subset = np.sort(np.asarray(class_subset, dtype=np.int64))
            pred = subset[np.argmax(logits[:, subset], axis=1)]
        return float((pred == batch.labels).mean())

    def clone(self) -> "MlpModel":
        other = MlpModel.__new__(MlpModel)
        other.layer_sizes = list(self.layer_sizes)
        other.seed = self.seed
        other.layout = self.layout
        other.params = self.params.copy()
        other._bind_views()
        return other
