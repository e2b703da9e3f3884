"""Per-layer solves and first-order loss-change bookkeeping.

Run:  python demos/03_layerwise_updates.py

Gradient magnitudes differ strongly across the layers of a network, so a
single concatenated inner product is dominated by whichever layer is
loudest.  Solving per layer lets every layer take its own branch.  The
demo measures the per-layer gradient norms of a real model, runs the
same update rule on the whole vector and per layer, and compares their
predicted replay-loss changes.
"""

import numpy as np

from gradecomp import MlpModel, decompose, layerwise_solve, predicted_loss_change
from gradecomp.model import Batch
from gradecomp.solver import decomposed_update

rng = np.random.default_rng(21)

model = MlpModel([16, 40, 20, 4], seed=5)
batches = [
    Batch(rng.standard_normal((16, 16)) * 2, rng.integers(0, 4, size=16))
    for _ in range(4)
]
new_batch = Batch(rng.standard_normal((12, 16)) * 2, rng.integers(0, 4, size=12))

_, g = model.loss_and_grad(new_batch)
# all memory gradients in one stacked pass: an (m, n) matrix, one row each
stacked = Batch(
    np.concatenate([b.inputs for b in batches]),
    np.concatenate([b.labels for b in batches]),
)
_, old = model.loss_and_grad(stacked, groups=len(batches))
bundle = decompose(g, old)

print("per-layer gradient magnitudes of the new-task gradient:")
for seg, sl in zip(model.layout.segments, model.layout.slices()):
    print(f"  {seg.name:>8}: |g| = {np.linalg.norm(g[sl]):.4f} "
          f"({seg.length} parameters)")

result = layerwise_solve(bundle, model.layout, decomposed_update)
print("\nper-layer solves:")
for name, res in result.per_layer:
    print(f"  {name:>8}: branch = {res.branch:<19} "
          f"alignment = {res.shared_alignment:+.5f}")

solves = {"whole-vector": decomposed_update(bundle), "per-layer": result}
for label, res in solves.items():
    report = predicted_loss_change(bundle, res)
    # a whole-vector solve is one segment; non-negative alignments contribute
    segments = res.per_layer or (("all", res),)
    contributing = sum(r.shared_alignment >= 0.0 for _, r in segments)
    print(f"\n{label} prediction: {report.predicted_delta:+.5f} per unit step "
          f"({contributing}/{len(segments)} segments contribute)")
    for name, r in segments:
        flag = "+" if r.shared_alignment >= 0.0 else " "
        print(f"  [{flag}] {name:>8}: alignment {r.shared_alignment:+.5f}")

print("\nMultiply by the learning rate to predict the replay-loss change of")
print("the next step; the trainer logs these alignments every iteration.")
