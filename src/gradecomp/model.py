"""Small fully-connected classifier with manual backprop over a flat
parameter vector.

Parameters live in one contiguous float64 array; weight matrices and
bias vectors are reshaped views into it, so solver updates applied to
the flat vector are immediately visible to the forward pass.  Hidden
layers use ReLU (subgradient 0 at 0), the output layer is linear, and
the loss is mean softmax cross-entropy.

Checkpoint format (little-endian): 8-byte magic ``b"GDMLPv2\\0"``, int64
count of layer sizes, the layer sizes as int64, the init seed as int64,
the per-tensor layout flag as int64 (0 or 1), then the parameter payload
as float64 and nothing after it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .layerwise import ParamLayout

CHECKPOINT_MAGIC = b"GDMLPv2\0"


def read_exact(fh, n: int, path) -> bytes:
    """Exactly ``n`` bytes from ``fh``; fewer means ``path`` is truncated."""
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(
            f"{path}: truncated file: needed {n} bytes at offset "
            f"{fh.tell() - len(data)}, found {len(data)}"
        )
    return data


def expect_end(fh, path) -> None:
    """Raise unless ``fh`` is at the end of ``path``."""
    extra = len(fh.read())
    if extra:
        raise ValueError(f"{path}: {extra} trailing bytes after the last field")


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


def _build_layout(layer_sizes: list[int], per_tensor: bool) -> ParamLayout:
    named = []
    for i, (fan_in, fan_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
        if per_tensor:
            named.append((f"layer{i}.weight", fan_in * fan_out))
            named.append((f"layer{i}.bias", fan_out))
        else:
            named.append((f"layer{i}", fan_in * fan_out + fan_out))
    return ParamLayout.from_lengths(named)


class MlpModel:
    """ReLU MLP over a flat parameter vector.

    ``layer_sizes`` lists input width, hidden widths, and output width.
    Weights are initialized uniform in ``+-sqrt(6 / (fan_in + fan_out))``
    from the given seed; biases start at zero.  ``per_tensor_layout``
    splits each layer's weight and bias into separate layout segments
    instead of the default fused one-segment-per-layer.
    """

    def __init__(
        self,
        layer_sizes: list[int],
        seed: int = 0,
        per_tensor_layout: bool = False,
    ):
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output size")
        if any(s < 1 for s in layer_sizes):
            raise ValueError("layer sizes must be positive")
        self.layer_sizes = [int(s) for s in layer_sizes]
        self.seed = int(seed)
        self.per_tensor_layout = bool(per_tensor_layout)
        self.layout = _build_layout(self.layer_sizes, per_tensor_layout)
        self.params = np.zeros(self.layout.total)
        self._bind_views()

        rng = np.random.default_rng(self.seed)
        for W, b in self._layers:
            fan_in, fan_out = W.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            W[...] = rng.uniform(-limit, limit, size=W.shape)
            b[...] = 0.0

    def _bind_views(self):
        self._layers: list[tuple[np.ndarray, np.ndarray]] = []
        offset = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            W = self.params[offset: offset + fan_in * fan_out].reshape(fan_in, fan_out)
            offset += fan_in * fan_out
            b = self.params[offset: offset + fan_out]
            offset += fan_out
            self._layers.append((W, b))

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

    def loss_and_grad(self, batch: Batch) -> tuple[float, np.ndarray]:
        """Mean cross-entropy on the batch and its gradient, flat."""
        X = batch.inputs
        y = batch.labels
        if X.shape[1] != self.layer_sizes[0]:
            raise ValueError("batch width does not match model input size")
        if (y < 0).any() or (y >= self.n_classes).any():
            raise ValueError(
                f"labels must lie in [0, {self.n_classes}), got "
                f"[{y.min()}, {y.max()}]"
            )
        n = X.shape[0]
        last = len(self._layers) - 1

        activations = [X]
        pre = []
        h = X
        for i, (W, b) in enumerate(self._layers):
            z = h @ W + b
            pre.append(z)
            h = np.maximum(z, 0.0) if i != last else z
            activations.append(h)

        logits = activations[-1]
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        sum_exp = exp.sum(axis=1)
        log_probs = shifted - np.log(sum_exp)[:, None]
        loss = float(-log_probs[np.arange(n), y].mean())

        grad = np.zeros(self.layout.total)
        grad_views = []
        offset = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            gW = grad[offset: offset + fan_in * fan_out].reshape(fan_in, fan_out)
            offset += fan_in * fan_out
            gb = grad[offset: offset + fan_out]
            offset += fan_out
            grad_views.append((gW, gb))

        delta = exp / sum_exp[:, None]
        delta[np.arange(n), y] -= 1.0
        delta /= n
        for i in range(last, -1, -1):
            W, _ = self._layers[i]
            gW, gb = grad_views[i]
            gW[...] = activations[i].T @ delta
            gb[...] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ W.T) * (pre[i - 1] > 0.0)

        if not np.isfinite(loss) or not np.isfinite(grad).all():
            raise FloatingPointError("non-finite loss or gradient")
        return loss, grad

    def apply_update(self, w: np.ndarray, eta: float) -> None:
        """In-place step ``params <- params - eta * w``."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != self.params.shape:
            raise ValueError(
                f"update has shape {w.shape}, parameters have {self.params.shape}"
            )
        if eta < 0.0:
            raise ValueError("eta must be non-negative")
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
        other.per_tensor_layout = self.per_tensor_layout
        other.layout = self.layout
        other.params = self.params.copy()
        other._bind_views()
        return other

    def save_checkpoint(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<q", len(self.layer_sizes)))
            for s in self.layer_sizes:
                fh.write(struct.pack("<q", s))
            fh.write(struct.pack("<q", self.seed))
            fh.write(struct.pack("<q", int(self.per_tensor_layout)))
            fh.write(self.params.astype("<f8").tobytes())

    @classmethod
    def load_checkpoint(cls, path) -> "MlpModel":
        with open(path, "rb") as fh:
            magic = fh.read(len(CHECKPOINT_MAGIC))
            if magic != CHECKPOINT_MAGIC:
                raise ValueError(f"{path}: not a model checkpoint: bad magic {magic!r}")
            (n_sizes,) = struct.unpack("<q", read_exact(fh, 8, path))
            sizes = [
                struct.unpack("<q", read_exact(fh, 8, path))[0] for _ in range(n_sizes)
            ]
            (seed,) = struct.unpack("<q", read_exact(fh, 8, path))
            (per_tensor,) = struct.unpack("<q", read_exact(fh, 8, path))
            if per_tensor not in (0, 1):
                raise ValueError(f"{path}: layout flag {per_tensor} is not 0 or 1")
            model = cls(sizes, seed=seed, per_tensor_layout=bool(per_tensor))
            payload = read_exact(fh, model.n_params * 8, path)
            model.params[...] = np.frombuffer(payload, dtype="<f8")
            expect_end(fh, path)
        return model
