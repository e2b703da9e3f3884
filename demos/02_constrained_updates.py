"""The constrained update, its brute-force cross-check, and the baselines.

Run:  python demos/02_constrained_updates.py

Shows both branches of the closed-form solve (project only vs project
and reflect), verifies a batch of random instances against the dense KKT
oracle, and contrasts the update with the three baseline rules.
"""

import numpy as np

from gradecomp import (
    agem_update,
    decompose,
    gem_qp_update,
    qp_oracle,
    relax_basis,
    sgem_update,
    solve_update,
)

rng = np.random.default_rng(7)

# --- the two branches on a transparent 3-d instance --------------------
B = np.array([[1.0], [0.0], [0.0]])  # constraint direction e1
g_bar = np.array([0.0, 1.0, 0.0])

g_aligned = np.array([1.0, 2.0, 3.0])
res = solve_update(g_aligned, g_bar, B)
print(f"aligned case:    w = {res.w}, branch = {res.branch}")

g_conflict = np.array([1.0, -2.0, 3.0])
res = solve_update(g_conflict, g_bar, B)
print(f"conflicting case: w = {res.w}, branch = {res.branch}")
print(f"  after reflection the shared alignment is {g_bar @ res.w:+.1e}")

# --- oracle agreement over random instances ----------------------------
worst = 0.0
for _ in range(200):
    dim = int(rng.integers(4, 40))
    old = [rng.standard_normal(dim) for _ in range(int(rng.integers(2, 7)))]
    bundle = decompose(rng.standard_normal(dim), old)
    basis = relax_basis(bundle.specific)
    w_fast = solve_update(bundle.new_grad, bundle.shared, basis).w
    w_slow = qp_oracle(bundle.new_grad, bundle.shared, basis)
    scale = max(np.linalg.norm(w_slow), np.linalg.norm(bundle.new_grad))
    worst = max(worst, np.linalg.norm(w_fast - w_slow) / scale)
print(f"\nclosed form vs dense KKT oracle over 200 instances: "
      f"worst relative gap {worst:.2e}")

# --- relaxations --------------------------------------------------------
bundle = decompose(rng.standard_normal(30), [rng.standard_normal(30) for _ in range(6)])
for k in (None, 2):
    basis = relax_basis(bundle.specific, k)
    label = "full" if k is None else f"top-{k} principal"
    print(f"{label:>15} basis: {basis.shape[1]} columns")

# --- baselines ----------------------------------------------------------
g = bundle.new_grad
print(f"\n|g| = {np.linalg.norm(g):.4f}")
print(f"|averaged-constraint update| = "
      f"{np.linalg.norm(agem_update(g, bundle.shared)):.4f}")
print(f"|random-memory update|       = "
      f"{np.linalg.norm(sgem_update(g, bundle.old_grads, np.random.default_rng(3))):.4f}")
print(f"|per-memory QP update|       = "
      f"{np.linalg.norm(gem_qp_update(g, bundle.old_grads)):.4f}")
