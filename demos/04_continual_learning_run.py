"""A complete desk-scale continual-learning comparison.

Run:  python demos/04_continual_learning_run.py

Generates a stream of permuted-feature tasks over Gaussian clusters,
trains the ablation variants on it with identical seeds and data, and
prints final mean accuracy and backward transfer per variant.  Finishes
with a principal-direction sweep showing the retention/plasticity trade.

Takes roughly half a minute.
"""

import time
from dataclasses import replace

import numpy as np

from gradecomp import gen_permuted_tasks, gen_synthetic_base, metrics
from gradecomp.trainer import TrainConfig, train_sequence, variant_from_name

SEED = 11
base = gen_synthetic_base(classes=3, dim=8, n_per_class=60, seed=SEED)
stream = gen_permuted_tasks(base, T=8, seed=SEED + 1)
cfg = TrainConfig(seed=SEED, hidden_sizes=(12,), memory_size=64)

print(f"stream: {len(stream)} permuted-feature tasks, "
      f"{len(stream.tasks[0].train)} train rows each\n")

print(f"{'variant':>16} {'ACC':>8} {'BWT':>8} {'seconds':>8}")
for letter in "abcdefg":
    variant = variant_from_name(letter, k=2)
    start = time.perf_counter()
    R, _ = train_sequence(stream, replace(cfg, variant=variant))
    seconds = time.perf_counter() - start
    print(f"{variant.name:>16} {metrics.acc(R):>8.4f} {metrics.bwt(R):>+8.4f} "
          f"{seconds:>8.2f}")

print("\nprincipal-direction sweep (decomposed method, concatenated):")
for k in (1, 2, 4, 6):
    accs, bwts = [], []
    for seed in range(SEED, SEED + 3):
        b = gen_synthetic_base(classes=3, dim=8, n_per_class=60, seed=seed)
        s = gen_permuted_tasks(b, T=8, seed=seed + 1)
        c = TrainConfig(
            seed=seed,
            hidden_sizes=(12,),
            memory_size=64,
            variant=variant_from_name("e", k=k),
        )
        R, _ = train_sequence(s, c)
        accs.append(metrics.acc(R))
        bwts.append(metrics.bwt(R))
    print(f"  k={k}: mean ACC {np.mean(accs):.4f}  mean BWT {np.mean(bwts):+.4f}")

print("\nKeeping more principal directions protects old tasks (higher BWT);")
print("keeping fewer frees the update to chase the new task.")
