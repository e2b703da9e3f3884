"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL-style summary line of what it measured.

One criterion (8, the ablation ordering at the pinned setting) encodes
an ordering claim that does not hold at this scale and is expected to
fail; its test states the measured numbers plainly.  See the project
README ("Known-failing acceptance checks") for what has been measured.
"""

import time

import numpy as np
import pytest

from gradecomp import cli, linalg, metrics, solver, verify
from gradecomp.decomp import decompose
from gradecomp.layerwise import ParamLayout, layerwise_solve, predicted_loss_change
from gradecomp.model import Batch, MlpModel
from gradecomp.solver import (
    agem_update,
    decomposed_update,
    gem_qp_update,
    solve_update,
)
from gradecomp.tasks import gen_permuted_tasks, gen_synthetic_base
from gradecomp.trainer import TrainConfig, train_sequence, variant_from_name

SEEDS = (1, 2, 3, 4, 5)

# desk-scale ablation setting: five permuted-feature tasks over Gaussian
# clusters, 3 classes, 32 features, two 100-unit hidden layers
ABLATION = dict(classes=3, dim=32, n_per_class=400, T=5, hidden=(100, 100))


def run_variant(letter, seed, *, classes, dim, n_per_class, T, hidden, k=None):
    base = gen_synthetic_base(classes, dim, n_per_class, seed=seed)
    stream = gen_permuted_tasks(base, T=T, seed=seed + 1)
    cfg = TrainConfig(
        seed=seed, variant=variant_from_name(letter, k=k), hidden_sizes=hidden
    )
    R, log = train_sequence(stream, cfg)
    return R, log


@pytest.fixture(scope="session")
def ablation_results():
    """Mean ACC per variant over the shared seeds, plus total wall time."""
    start = time.perf_counter()
    table = {}
    for letter in ("a", "b", "c", "d", "f"):
        accs = []
        for seed in SEEDS:
            R, _ = run_variant(letter, seed, **ABLATION)
            accs.append(metrics.acc(R))
        table[letter] = float(np.mean(accs))
    elapsed = time.perf_counter() - start
    return table, elapsed


def test_criterion_01_solver_oracle_equivalence():
    """500 seeded instances, both branches, within 1e-6, under 10 s."""
    start = time.perf_counter()
    result = verify.suite_solver_vs_oracle(n_instances=500, rel_tol=1e-6)
    elapsed = time.perf_counter() - start
    print(f"criterion 1: {result.detail}; runtime {elapsed:.2f}s")
    assert result.passed, result.detail
    assert elapsed < 10.0


def test_criterion_02_constraint_feasibility(feasibility_guard):
    """Dedicated 200-instance sweep; plus every solver call made anywhere
    in this test session runs through the feasibility-checking wrapper
    installed in conftest, which fails the triggering test on violation."""
    result = verify.suite_constraint_feasibility(n_instances=200)
    print(f"criterion 2: {result.detail}; wrapped calls so far: "
          f"{feasibility_guard['calls']}")
    assert result.passed, result.detail
    assert feasibility_guard["calls"] >= 200


def test_criterion_03_decomposition_invariants():
    """Zero-sum specific columns and rank bound on 100 random bundles."""
    result = verify.suite_decomposition_zero_sum(n_instances=100)
    print(f"criterion 3: {result.detail}")
    assert result.passed, result.detail


def test_criterion_04_projection_psd():
    """Non-negative quadratic form for 100 random basis/vector pairs."""
    result = verify.suite_projection_psd(n_instances=100)
    print(f"criterion 4: {result.detail}")
    assert result.passed, result.detail


def test_criterion_05_gradient_correctness():
    """Backprop vs central differences on 20 random models."""
    result = verify.suite_gradient_check(n_models=20)
    print(f"criterion 5: {result.detail}")
    assert result.passed, result.detail


def shared_loss(model, batches):
    return float(np.mean([model.loss_and_grad(b)[0] for b in batches]))


def test_criterion_06_first_order_loss_prediction():
    """Halving the step size shrinks the prediction error about 4x in
    both concatenated and layerwise modes."""
    rng = np.random.default_rng(1)
    model = MlpModel([6, 10, 8, 4], seed=101)
    # inputs scaled away from zero keep hidden pre-activations clear of
    # their kinks for the step sizes used below
    mem_batches = [
        Batch(rng.standard_normal((12, 6)) * 2.0, rng.integers(0, 4, size=12))
        for _ in range(3)
    ]
    new_batch = Batch(rng.standard_normal((10, 6)) * 2.0, rng.integers(0, 4, size=10))
    _, g = model.loss_and_grad(new_batch)
    old = [model.loss_and_grad(b)[1] for b in mem_batches]
    bundle = decompose(g, old)
    layout = model.layout

    B = solver.relax_basis(bundle.specific)
    res_modes = {
        "concatenated": solve_update(g, bundle.shared, B),
        "layerwise": layerwise_solve(bundle, layout, decomposed_update),
    }
    base_loss = shared_loss(model, mem_batches)
    for mode, res in res_modes.items():
        pred = predicted_loss_change(bundle, res).predicted_delta
        errors = []
        for eta in (1e-3, 5e-4):
            stepped = model.clone()
            stepped.apply_update(res.w, eta)
            actual = shared_loss(stepped, mem_batches) - base_loss
            errors.append(abs(actual - eta * pred))
        ratio = errors[0] / errors[1]
        print(f"criterion 6 [{mode}]: predicted {pred:+.5f}, "
              f"errors {errors[0]:.2e}/{errors[1]:.2e}, ratio {ratio:.2f}")
        assert 3.0 <= ratio <= 5.0, f"{mode}: ratio {ratio:.3f} outside [3, 5]"


def test_criterion_07_layerwise_dominance():
    """Per-layer branch decisions dominate one global decision made under
    the same constraints, on 200 random multi-memory bundles with three
    segments.  Both updates respect the per-segment bases built from
    ``G[sl, :]``; the single-decision reference solves once against their
    block-diagonal embedding.  With per-layer alignments ``a_l`` the
    layerwise replay-loss change is ``-sum(max(a_l, 0))`` and the single
    decision gives ``-max(sum(a_l), 0)``, so the layerwise change is never
    larger, and strictly smaller whenever the ``a_l`` take both signs.

    The layerwise-versus-concatenated comparison is printed but not
    asserted: the concatenated basis spans the full specific matrix, so
    the two modes project out different subspaces and no ordering
    between them is guaranteed."""
    rng = np.random.default_rng(77)
    layout = ParamLayout.from_lengths([("s0", 8), ("s1", 10), ("s2", 6)])
    slices = layout.slices()
    violations = {"predicted": 0, "realized": 0}
    worst_excess = 0.0
    mixed = 0
    strict = 0
    cross_violations = 0
    cross_worst = 0.0
    for _ in range(200):
        n_mem = int(rng.integers(2, 9))
        old = [rng.standard_normal(24) for _ in range(n_mem)]
        bundle = decompose(rng.standard_normal(24), old)
        g, g_bar, G = bundle.new_grad, bundle.shared, bundle.specific
        # rounding allowance only: segmented and whole-vector sums differ
        tol = 1e-12 * float(np.linalg.norm(g_bar) * np.linalg.norm(g))

        blocks = [solver.relax_basis(G[sl, :]) for sl in slices]
        B_block = np.zeros((layout.total, sum(b.shape[1] for b in blocks)))
        col = 0
        for sl, b in zip(slices, blocks):
            B_block[sl, col: col + b.shape[1]] = b
            col += b.shape[1]
        # through the module, so the session feasibility guard checks it
        d_one = -float(g_bar @ solver.solve_update(g, g_bar, B_block).w)

        res_lw = layerwise_solve(bundle, layout, decomposed_update)
        report = predicted_loss_change(bundle, res_lw)
        for key, delta in (("predicted", report.predicted_delta),
                           ("realized", report.realized_delta)):
            if delta > d_one + tol:
                violations[key] += 1
                worst_excess = max(worst_excess, delta - d_one)

        Pg = linalg.apply_projection(B_block, g)
        align = [float(g_bar[sl] @ Pg[sl]) for sl in slices]
        if max(align) > tol and min(align) < -tol:
            mixed += 1
            # the exact gain is at least min(max(a_l), -min(a_l)) > tol;
            # without the allowance, rounding in one global reflection
            # would pass for a gain on about half of these bundles
            strict += report.realized_delta < d_one - tol

        d_cc = predicted_loss_change(bundle, decomposed_update(bundle)).predicted_delta
        if report.predicted_delta > d_cc:
            cross_violations += 1
            cross_worst = max(cross_worst, report.predicted_delta - d_cc)
    print(f"criterion 7: layerwise above single decision on "
          f"{violations['predicted']}/200 predicted, "
          f"{violations['realized']}/200 realized; strict gain on "
          f"{strict}/{mixed} mixed-sign bundles; versus concatenated basis "
          f"(not asserted) {cross_violations}/200 above "
          f"(worst gap {cross_worst:.3f})")
    assert violations == {"predicted": 0, "realized": 0}, (
        f"layerwise loss change exceeded the single-decision one under the "
        f"same constraints: {violations} (worst excess {worst_excess:.3e})"
    )
    assert mixed > 0
    assert strict == mixed, (
        f"layerwise dispatch gained strictly on only {strict}/{mixed} "
        f"mixed-sign bundles; a per-layer branch decision must gain on all"
    )


def test_criterion_08_desk_scale_ablation(ablation_results):
    """Mean-accuracy ordering across the ablation variants at the pinned
    setting, five seeds, with at least a five-point margin for the full
    method over plain fine-tuning."""
    table, elapsed = ablation_results
    print(
        "criterion 8: mean ACC "
        + "  ".join(f"({k}) {v:.4f}" for k, v in table.items() if k != "c")
        + f"; wall {elapsed:.0f}s"
    )
    assert elapsed < 300.0, f"ablation took {elapsed:.0f}s, budget is 300s"
    assert table["a"] < table["b"], (
        f"plain fine-tuning ({table['a']:.4f}) should trail the averaged "
        f"constraint ({table['b']:.4f})"
    )
    assert table["b"] <= table["d"], (
        f"averaged constraint {table['b']:.4f} > decomposed {table['d']:.4f}: "
        f"with this model size the specific-direction equality constraints "
        f"block per-task repair and cost accuracy"
    )
    assert table["d"] <= table["f"], (
        f"decomposed {table['d']:.4f} > layerwise {table['f']:.4f}"
    )
    gap = table["f"] - table["a"]
    assert gap >= 0.05, (
        f"full method beats fine-tuning by {100 * gap:.1f} points, "
        f"needs at least 5"
    )


def test_criterion_09_lgu_on_baseline(ablation_results):
    """Layerwise application must not hurt the averaged-constraint
    baseline by more than half a point on the same seeds."""
    table, _ = ablation_results
    print(f"criterion 9: agem {table['b']:.4f} vs agem+lgu {table['c']:.4f}")
    assert table["c"] >= table["b"] - 0.005


def test_criterion_10_k_sweep_direction():
    """Retention (BWT) must not degrade when keeping the full principal
    space versus a single direction; accuracy peak is reported.  Uses a
    small-model stream where the constraint geometry is informative."""
    setting = dict(classes=3, dim=8, n_per_class=60, T=10, hidden=(12,))
    k_values = (1, 4, 8)
    bwts, accs = {}, {}
    for k in k_values:
        r_bwt, r_acc = [], []
        for seed in SEEDS:
            R, _ = run_variant("e", seed, k=k, **setting)
            r_bwt.append(metrics.bwt(R))
            r_acc.append(metrics.acc(R))
        bwts[k] = float(np.mean(r_bwt))
        accs[k] = float(np.mean(r_acc))
    peak = max(accs, key=accs.get)
    print("criterion 10: "
          + "  ".join(f"K={k}: ACC {accs[k]:.4f} BWT {bwts[k]:+.4f}" for k in k_values)
          + f"; ACC peaks at K={peak}")
    assert bwts[k_values[-1]] >= bwts[1], (
        f"BWT at full rank {bwts[k_values[-1]]:+.4f} fell below "
        f"BWT at K=1 {bwts[1]:+.4f}"
    )


def test_criterion_11_layerwise_no_slower():
    """Wall-clock of the layerwise variant at twenty tasks must not
    exceed the concatenated variant.

    Protocol: one warm-up run, then four back-to-back (concatenated,
    layerwise) pairs, compared at the median of the paired differences.
    Pairing cancels slow load drift; the comparison carries a 5%
    measurement-noise allowance because single-run timings on a shared
    machine scatter by several percent while the genuine per-iteration
    work of the two variants differs by far less.  A systematic
    layerwise slowdown beyond that noise still fails."""
    setting = {**ABLATION, "T": 20}
    run_variant("d", 1, **setting)  # warm-up
    pairs = []
    walls = {"d": [], "f": []}
    for _ in range(4):
        for letter in ("d", "f"):
            start = time.perf_counter()
            run_variant(letter, 1, **setting)
            walls[letter].append(time.perf_counter() - start)
        pairs.append(walls["d"][-1] - walls["f"][-1])
    median_diff = float(np.median(pairs))
    scale = float(np.median(walls["d"]))
    print(f"criterion 11: wall d={['%.2f' % t for t in walls['d']]} "
          f"f={['%.2f' % t for t in walls['f']]} "
          f"median paired diff (d-f) {median_diff:+.2f}s on {scale:.2f}s runs")
    assert median_diff >= -0.05 * scale, (
        f"layerwise is systematically slower: median paired gap "
        f"{-median_diff:.2f}s exceeds the 5% noise allowance on "
        f"{scale:.2f}s runs"
    )


def test_criterion_12_determinism(tmp_path):
    """Re-running one ablation configuration with the same seed writes a
    byte-identical accuracy-matrix CSV."""
    config = cli.load_config(None, [
        "data.dim=32", "data.classes=3", "data.n_per_class=400", "data.tasks=5",
        "seed=1", f"out_dir={tmp_path}",
    ])
    s1 = cli.run_one_variant(config, "f", 1, tmp_path / "run1")
    s2 = cli.run_one_variant(config, "f", 1, tmp_path / "run2")
    b1 = (tmp_path / "run1" / "matrix.csv").read_bytes()
    b2 = (tmp_path / "run2" / "matrix.csv").read_bytes()
    print(f"criterion 12: {len(b1)} CSV bytes, identical: {b1 == b2}")
    assert b1 == b2
    assert s1["acc"] == s2["acc"] and s1["bwt"] == s2["bwt"]


def test_criterion_13_degenerate_equivalences():
    """Three collapse identities, all bitwise, 20 random instances each."""
    rng = np.random.default_rng(99)
    for trial in range(20):
        dim = int(rng.integers(6, 40))
        g = rng.standard_normal(dim)
        g1 = rng.standard_normal(dim)

        # one old task: the decomposed solve reduces to the averaged rule
        bundle = decompose(g, [g1])
        B = linalg.modified_gram_schmidt(bundle.specific)
        assert np.array_equal(
            solve_update(g, bundle.shared, B).w, agem_update(g, bundle.shared)
        )

        # one memory: the inequality QP reduces to the averaged rule
        assert np.array_equal(gem_qp_update(g, [g1]), agem_update(g, g1))

        # one segment: the per-layer solve equals the concatenated solve
        n_mem = int(rng.integers(2, 6))
        bundle_m = decompose(g, [rng.standard_normal(dim) for _ in range(n_mem)])
        layout = ParamLayout.from_lengths([("all", dim)])
        w_lw = layerwise_solve(bundle_m, layout, decomposed_update).w
        B_m = solver.relax_basis(bundle_m.specific)
        w_cc = solve_update(g, bundle_m.shared, B_m).w
        assert np.array_equal(w_lw, w_cc)
    print("criterion 13: 20/20 instances bitwise-equal on all three identities")
