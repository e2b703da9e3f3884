"""Self-contained property suites runnable on demand.

Each suite draws seeded random instances, checks one correctness
property against an independent reference (brute-force QP, quadratic
form sign, column-sum identity, finite differences, constraint
residuals), and reports the first failing instance in a JSON-serializable
form so it can be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg, solver
from .decomp import decompose
from .model import Batch, MlpModel


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checked: int
    detail: str
    failing_case: dict | None = field(default=None, repr=False)


def _failed(name: str, i: int, detail: str, **case) -> SuiteResult:
    """A suite stopped at its instance ``i``; ``case`` replays it, with
    its arrays as lists."""
    case = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in case.items()}
    return SuiteResult(name, False, i + 1, detail, {"instance": i, **case})


def _random_bundle(rng: np.random.Generator, dim: int, n_mem: int):
    old = [rng.standard_normal(dim) for _ in range(n_mem)]
    g = rng.standard_normal(dim)
    return decompose(g, old)


def _near_collinear_bundle(rng: np.random.Generator, max_dim: int = 400):
    """2-19 memories around one common gradient, spread 1e-12..1 and
    per-memory scales 1e-3..1e3, in ``5..max_dim - 1`` dimensions."""
    dim = int(rng.integers(5, max_dim))
    n_mem = int(rng.integers(2, 20))
    spread = 10.0 ** rng.uniform(-12.0, 0.0)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=n_mem)
    base = rng.standard_normal(dim)
    old = [base + spread * s * rng.standard_normal(dim) for s in scales]
    return decompose(rng.standard_normal(dim), old)


SOLVER_FAMILIES = ("random", "near_collinear")


def _solver_bundle(rng: np.random.Generator, family: str, min_mem: int):
    """One instance of the solver suites, in the 4..64 dimensions where
    the dense KKT oracle is cheap."""
    if family == "near_collinear":
        return _near_collinear_bundle(rng, max_dim=65)
    dim = int(rng.integers(4, 65))
    return _random_bundle(rng, dim, int(rng.integers(min_mem, 9)))


def suite_solver_vs_oracle() -> SuiteResult:
    """Closed-form solutions must match the brute-force KKT oracle to a
    relative gap of 1e-6, on 500 instances drawn from seed 2024.

    Instances alternate between random memories and near-collinear ones
    (spread 1e-12..1, per-memory scales 1e-3..1e3); the basis comes from
    :func:`solver.relax_basis`, as in training.  The solve is
    :func:`solver.solve_update`, looked up at call time.
    """
    n_instances, rel_tol = 500, 1e-6
    rng = np.random.default_rng(2024)
    worst = dict.fromkeys(SOLVER_FAMILIES, 0.0)
    branches = {solver.PROJECT_ONLY: 0, solver.PROJECT_AND_REFLECT: 0}
    for i in range(n_instances):
        family = SOLVER_FAMILIES[i % len(SOLVER_FAMILIES)]
        bundle = _solver_bundle(rng, family, min_mem=2)
        B = solver.relax_basis(bundle.specific)
        res = solver.solve_update(bundle.new_grad, bundle.shared, B)
        branches[res.branch] += 1
        w_ref = solver.qp_oracle(bundle.new_grad, bundle.shared, B)
        # relative to the instance scale: the optimum itself can be
        # arbitrarily close to zero when the constraints span everything
        denom = max(
            float(np.linalg.norm(w_ref)),
            float(np.linalg.norm(bundle.new_grad)),
            1e-12,
        )
        rel = float(np.linalg.norm(res.w - w_ref)) / denom
        worst[family] = max(worst[family], rel)
        if rel > rel_tol:
            return _failed(
                "solver_vs_oracle", i,
                f"relative gap {rel:.3e} > {rel_tol:.0e} on {family} instance {i}",
                g=bundle.new_grad, old_grads=bundle.old_grads,
                w_solver=res.w, w_oracle=w_ref,
            )
    detail = (
        f"max relative gap {worst['random']:.3e} (random), "
        f"{worst['near_collinear']:.3e} (near-collinear) over {n_instances} instances "
        f"({branches[solver.PROJECT_ONLY]} project, "
        f"{branches[solver.PROJECT_AND_REFLECT]} reflect)"
    )
    ok = min(branches.values()) > 0
    if not ok:
        return SuiteResult(
            "solver_vs_oracle", False, n_instances,
            "random instances failed to exercise both branches: " + detail, None,
        )
    return SuiteResult("solver_vs_oracle", True, n_instances, detail)


def suite_projection_psd() -> SuiteResult:
    """The projection must never produce a negative quadratic form, on
    100 instances drawn from seed 2025."""
    n_instances = 100
    rng = np.random.default_rng(2025)
    worst = 0.0
    for i in range(n_instances):
        dim = int(rng.integers(3, 40))
        n_cols = int(rng.integers(1, min(dim, 6)))
        B = linalg.modified_gram_schmidt(rng.standard_normal((dim, n_cols)))
        v = rng.standard_normal(dim)
        quad = float(v @ linalg.apply_projection(B, v))
        floor = -1e-10 * float(v @ v)
        worst = min(worst, quad)
        if quad < floor:
            return _failed(
                "projection_psd", i,
                f"v'Pv = {quad:.3e} below {floor:.3e} on instance {i}", B=B, v=v,
            )
    return SuiteResult(
        "projection_psd", True, n_instances, f"min v'Pv = {worst:.3e} (>= -1e-10 ||v||^2)"
    )


def suite_decomposition_zero_sum() -> SuiteResult:
    """Specific columns must sum to zero, with numerical rank <= t - 2, on
    100 bundles drawn from seed 2026."""
    n_instances = 100
    rng = np.random.default_rng(2026)
    worst = 0.0
    for i in range(n_instances):
        dim = int(rng.integers(4, 80))
        n_mem = int(rng.integers(1, 9))
        bundle = _random_bundle(rng, dim, n_mem)
        col_norms = np.linalg.norm(bundle.specific, axis=0)
        scale = float(col_norms.max()) if col_norms.size else 0.0
        resid = float(np.abs(bundle.specific.sum(axis=1)).max())
        rel = resid / scale if scale > 0.0 else 0.0
        worst = max(worst, rel)
        rank = linalg.modified_gram_schmidt(bundle.specific).shape[1]
        ok = rel < 1e-10 and rank <= max(0, n_mem - 1)
        if not ok:
            return _failed(
                "decomposition_zero_sum", i,
                f"zero-sum residual {rel:.3e} or rank {rank} > {n_mem - 1} "
                f"on instance {i}",
                old_grads=bundle.old_grads,
            )
    return SuiteResult(
        "decomposition_zero_sum", True, n_instances, f"max zero-sum residual {worst:.3e}"
    )


def suite_gradient_check() -> SuiteResult:
    """Backprop must match central finite differences coordinate-wise, on
    20 models drawn from seed 2027.

    Every instance stacks 2-4 groups of equal size and differentiates them
    in one pass (``loss_and_grad(batch, groups=m)``).  Each group's row
    must match central differences of that group's own loss, and a pass
    over that group alone to 1e-13 relative.
    """
    n_models = 20
    rng = np.random.default_rng(2027)
    step = 1e-5
    worst = worst_alone = 0.0
    for i in range(n_models):
        sizes = [int(rng.integers(3, 7)), int(rng.integers(4, 9)), int(rng.integers(2, 5))]
        model = MlpModel(sizes, seed=int(rng.integers(0, 2**31)))
        n_ex = int(rng.integers(2, 7))
        groups = int(rng.integers(2, 5))
        batch = Batch(
            rng.standard_normal((groups * n_ex, sizes[0])) * 2.0,
            rng.integers(0, sizes[-1], size=groups * n_ex),
        )
        _, G = model.loss_and_grad(batch, groups=groups)
        fd = np.empty_like(G)
        for j in range(model.n_params):
            orig = model.params[j]
            model.params[j] = orig + step
            up, _ = model.loss_and_grad(batch, groups=groups)
            model.params[j] = orig - step
            down, _ = model.loss_and_grad(batch, groups=groups)
            model.params[j] = orig
            fd[:, j] = (up - down) / (2.0 * step)
        alone = np.stack([
            model.loss_and_grad(
                Batch(batch.inputs[k * n_ex:(k + 1) * n_ex],
                      batch.labels[k * n_ex:(k + 1) * n_ex])
            )[1]
            for k in range(groups)
        ])
        floor = np.maximum(1e-6, 1e-3 * np.abs(fd).max(axis=1, keepdims=True))
        rel = float((np.abs(G - fd) / np.maximum(np.abs(fd), floor)).max())
        rel_alone = float(
            (np.abs(G - alone).max(axis=1)
             / np.maximum(np.abs(alone).max(axis=1), 1e-300)).max()
        )
        worst = max(worst, rel)
        worst_alone = max(worst_alone, rel_alone)
        if rel > 1e-4 or rel_alone > 1e-13:
            return _failed(
                "gradient_check", i,
                f"max relative error {rel:.3e} against finite differences "
                f"(limit 1e-4), {rel_alone:.3e} against single-group "
                f"passes (limit 1e-13) on model {i}",
                layer_sizes=sizes, model_seed=model.seed, groups=groups,
                inputs=batch.inputs, labels=batch.labels,
            )
    return SuiteResult(
        "gradient_check",
        True,
        n_models,
        f"max relative error {worst:.3e} against finite differences, "
        f"{worst_alone:.3e} between stacked and single-group passes",
    )


def suite_constraint_feasibility() -> SuiteResult:
    """Every solve must respect both constraint families within tolerance,
    on 200 instances of the families of :func:`suite_solver_vs_oracle`
    drawn from seed 2028."""
    n_instances = 200
    rng = np.random.default_rng(2028)
    worst_eq = 0.0
    worst_ineq = 0.0
    for i in range(n_instances):
        family = SOLVER_FAMILIES[i % len(SOLVER_FAMILIES)]
        bundle = _solver_bundle(rng, family, min_mem=1)
        B = solver.relax_basis(bundle.specific)
        res = solver.solve_update(bundle.new_grad, bundle.shared, B)
        norm_g = float(np.linalg.norm(bundle.new_grad))
        norm_bar = float(np.linalg.norm(bundle.shared))
        eq = float(np.abs(B.T @ res.w).max()) if B.shape[1] else 0.0
        ineq = float(bundle.shared @ res.w)
        worst_eq = max(worst_eq, eq / max(norm_g, 1e-12))
        worst_ineq = min(worst_ineq, ineq / max(norm_bar * norm_g, 1e-12))
        ok = eq <= 1e-8 * norm_g and ineq >= -1e-8 * norm_bar * norm_g
        if not ok:
            return _failed(
                "constraint_feasibility", i,
                f"|B'w|={eq:.3e} or shared alignment {ineq:.3e} out of "
                f"tolerance on {family} instance {i}",
                g=bundle.new_grad, old_grads=bundle.old_grads,
            )
    return SuiteResult(
        "constraint_feasibility",
        True,
        n_instances,
        f"max |B'w|/||g|| = {worst_eq:.3e}, min alignment ratio = {worst_ineq:.3e}",
    )


BASIS_FAMILIES = (
    "near_collinear", "extreme_scale", "wide", "zero_column", "dependent_middle",
    "graded_triangular",
)


def _adversarial_columns(rng: np.random.Generator, family: str):
    """One adversarial column collection and the rank it must have
    (``None`` where rounding decides the rank)."""
    if family == "near_collinear":
        # the kernel sees the first m - 1 zero-sum specific columns, as
        # solver.relax_basis passes them
        return _near_collinear_bundle(rng).specific[:, :-1], None
    if family == "extreme_scale":
        dim = int(rng.integers(2, 200))
        n_cols = int(rng.integers(1, 12))
        scales = 10.0 ** rng.uniform(-6.0, 6.0, size=n_cols)
        return rng.standard_normal((dim, n_cols)) * scales, None
    if family == "wide":
        dim = int(rng.integers(1, 10))
        n_cols = dim + int(rng.integers(1, 10))
        return rng.standard_normal((dim, n_cols)), dim
    if family == "zero_column":
        dim = int(rng.integers(2, 200))
        n_cols = int(rng.integers(1, 12))
        X = rng.standard_normal((dim, n_cols))
        X[:, int(rng.integers(0, n_cols))] = 0.0
        return X, min(dim, n_cols - 1)
    if family == "dependent_middle":
        dim = int(rng.integers(4, 200))
        n_cols = int(rng.integers(3, min(dim, 12) + 1))
        X = rng.standard_normal((dim, n_cols))
        j = int(rng.integers(1, n_cols - 1))
        X[:, j] = X[:, :j] @ rng.standard_normal(j)
        return X, n_cols - 1
    # Kahan-type: an orthonormal frame times the triangle diag(s^j) (I - c N)
    # with N strictly upper ones.  Its Gram-Schmidt residuals are the
    # diagonal s^j, none below 1e-9, yet its condition number grows like
    # ((1 + c) / s)^m, up to about 1e20.
    n_cols = int(rng.integers(2, 41))
    dim = n_cols + int(rng.integers(0, 300))
    s = (10.0 ** rng.uniform(-9.0, 0.0)) ** (1.0 / (n_cols - 1))
    c = rng.uniform(0.5, 50.0)
    T = np.eye(n_cols) - c * np.triu(np.ones((n_cols, n_cols)), 1)
    frame = np.linalg.qr(rng.standard_normal((dim, n_cols)))[0]
    return frame @ (s ** np.arange(n_cols)[:, None] * T), None


def suite_basis_adversarial(basis_fn: Callable = None) -> SuiteResult:
    """The constraint basis must span its input, and be orthonormal
    enough for the projector the solver reads it through, on adversarial
    columns: the zero-sum specific columns of near-collinear memories
    (the first ``m - 1``, as :func:`solver.relax_basis` passes them),
    extreme scales, wide input, a zero column, a dependent column in the
    middle, and graded Kahan-type triangles whose condition number far
    exceeds the inverse of their smallest Gram-Schmidt residual.

    It draws 500 instances from seed 2029.  Each checks that ``rank <=
    min(n, m)`` (exact where the family fixes it), that finite input
    never raises, and that every input column's residual outside the
    basis is at most ``linalg.DEFAULT_RANK_TOL`` times the largest column
    norm (plus 1e-13 of it for rounding).

    ``basis_fn`` defaults to ``linalg.orthonormal_basis``, looked up at
    call time: the kernel training uses.  Its bases come from one Gram
    pass and are read only through :func:`linalg.apply_projection`, so
    for it the suite checks that projector.  Column residuals are
    ``||apply_projection(B, x)||``.  ``|B'B - I|`` may reach the
    projector's precondition, ``ONE_PASS_LOSS * eps * lam_max /
    lam_min``, where ``linalg._gram_route(X)`` runs, and 1e-12
    elsewhere.  Three probes ``v`` per instance, at distances 1, 1e-2
    and 1e-4 from the span and drawn from seed ``[2029, 1]`` apart from
    the instances, must leave ``||B'p|| <= 1e-12 ||p||`` for ``p =
    apply_projection(B, v)``, or ``||p|| <= 1e-12 ||v||`` where ``B``
    spans all rows.  Every other kernel, such as the fallback
    ``linalg.modified_gram_schmidt`` that :func:`run_all_suites` also
    runs, must reach ``|B'B - I| <= 1e-12`` and span its input through
    ``B B'``.

    The kernel is injectable so a broken one can be shown to trip the
    suite.  The result is named after the kernel,
    ``basis_adversarial[<kernel>]``; for the Gram kernel its detail also
    gives the worst ``|B'B - I|`` and probe as fractions of their bars.
    """
    basis = basis_fn or linalg.orthonormal_basis
    gram_kernel = basis is linalg.orthonormal_basis
    name = f"basis_adversarial[{getattr(basis, '__name__', 'kernel')}]"
    n_instances, rel_tol = 500, linalg.DEFAULT_RANK_TOL
    rng = np.random.default_rng(2029)
    probes = np.random.default_rng([2029, 1])
    worst_orth = worst_resid = worst_orth_frac = worst_probe = 0.0
    for i in range(n_instances):
        family = BASIS_FAMILIES[i % len(BASIS_FAMILIES)]
        X, expected_rank = _adversarial_columns(rng, family)
        n, m = X.shape
        problem = None
        try:
            B = np.asarray(basis(X))
        except Exception as exc:  # the kernel must not raise on finite input
            B = None
            problem = f"raised {type(exc).__name__}: {exc}"
        if B is not None:
            k = B.shape[1] if B.ndim == 2 else -1
            max_norm = float(np.linalg.norm(X, axis=0).max())
            if B.shape != (n, k) or not np.isfinite(B).all():
                problem = f"basis of shape {B.shape} or non-finite entries"
            elif k > min(n, m) or (expected_rank is not None and k != expected_rank):
                problem = f"rank {k} for a {n}x{m} input (expected {expected_rank})"
            else:
                orth = float(np.abs(B.T @ B - np.eye(k)).max()) if k else 0.0
                orth_bar, probe = 1e-12, 0.0
                if gram_kernel:
                    resid = max(float(np.linalg.norm(linalg.apply_projection(B, x)))
                                for x in X.T)
                    eig = linalg._gram_route(X)
                    if eig is not None:
                        orth_bar = linalg.ONE_PASS_LOSS * np.finfo(float).eps * (
                            eig[0][-1] / eig[0][0]
                        )
                    for dist in (1.0, 1e-2, 1e-4):
                        v = B @ probes.standard_normal(k) + dist * probes.standard_normal(n)
                        p = linalg.apply_projection(B, v)
                        # B'p as apply_projection measures it, which sets the margin
                        left = np.linalg.norm(p) / np.linalg.norm(v) if k == n else (
                            np.linalg.norm(B.T @ p) / np.linalg.norm(p)
                        )
                        probe = max(probe, float(left) / 1e-12)
                else:
                    resid = float(np.linalg.norm(X - B @ (B.T @ X), axis=0).max())
                resid /= max_norm if max_norm > 0.0 else 1.0
                worst_orth = max(worst_orth, orth)
                worst_resid = max(worst_resid, resid)
                worst_orth_frac = max(worst_orth_frac, orth / orth_bar)
                worst_probe = max(worst_probe, probe)
                if orth > orth_bar:
                    problem = f"|B'B - I| = {orth:.3e} exceeds {orth_bar:.3g}"
                elif resid > rel_tol + 1e-13:
                    problem = (
                        f"column residual {resid:.3e} x max norm exceeds "
                        f"rel_tol {rel_tol:.0e}"
                    )
                elif not probe <= 1.0:
                    problem = f"probe left {probe:.3g} times the 1e-12 bar in the span"
        if problem is not None:
            return _failed(
                name, i, f"{family} instance {i}: {problem}", family=family, X=X
            )
    detail = (
        f"max |B'B - I| = {worst_orth:.3e}, max column residual = "
        f"{worst_resid:.3e} x max norm"
    )
    if gram_kernel:
        detail += (
            f"; worst |B'B - I| at {worst_orth_frac:.3f} of its bar, worst "
            f"probe at {worst_probe:.3f} of 1e-12"
        )
    return SuiteResult(name, True, n_instances, detail)


def _gem_by_enumeration(g: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Optimum of the per-memory QP by enumerating all ``2^m`` active sets:
    for each set ``S``, project ``g`` onto the null space of ``G[S]``
    (through a QR basis of ``G[S]'``) and keep the feasible projection
    closest to ``g``."""
    floor = -1e-10 * np.linalg.norm(G, axis=1) * np.linalg.norm(g)
    best, best_dist = g, np.inf
    for mask in range(1 << G.shape[0]):
        S = [i for i in range(G.shape[0]) if mask >> i & 1]
        Q = np.linalg.qr(G[S].T)[0] if S else np.zeros((g.size, 0))
        w = g - Q @ (Q.T @ g)
        dist = float(np.linalg.norm(w - g))
        if (G @ w >= floor).all() and dist < best_dist:
            best, best_dist = w, dist
    return best


def _gem_instance(rng: np.random.Generator, family: str):
    """One GEM instance ``(g, G)``.  ``enumerable``: up to 6 memories,
    each shifted against ``g`` by its own amount, so active sets of every
    size occur.  ``near_collinear``: 2-19 copies of one direction, spread
    1e-12..1, row scales 1e-3..1e3 and, in a third of the instances, a
    duplicated row, with ``g`` leaning against them."""
    if family == "enumerable":
        m = int(rng.integers(2, 7))
        dim = int(rng.integers(2, 13))
        g = rng.standard_normal(dim)
        G = rng.standard_normal((m, dim)) - rng.uniform(-0.5, 1.5, size=(m, 1)) * g
        return g, G
    m = int(rng.integers(2, 20))
    dim = int(rng.integers(5, 400))
    spread = 10.0 ** rng.uniform(-12.0, 0.0)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=m)
    base = rng.standard_normal(dim)
    G = scales[:, None] * (base + spread * rng.standard_normal((m, dim)))
    if rng.random() < 1.0 / 3.0:
        k = int(rng.integers(1, m))
        G[k] = G[int(rng.integers(0, k))]
    return -rng.uniform(0.0, 2.0) * base + rng.standard_normal(dim), G


def suite_gem_exact() -> SuiteResult:
    """The per-memory QP solve must reach its optimum, on 2,000 instances
    drawn from seed 2030.

    Alternating instances: on ``enumerable`` ones (up to 6 memories) the
    update must equal the brute-force optimum over all active sets to
    ``1e-9 ||g||``; on ``near_collinear`` ones (up to 19 memories) it must
    return, without raising, a finite update with ``g_i'w >= -1e-8
    ||g_i|| ||g||`` for every memory.  The solve is
    :func:`solver.gem_qp_update`, looked up at call time.
    """
    n_instances = 2000
    rng = np.random.default_rng(2030)
    worst_gap = 0.0
    worst_slack = 0.0
    active = []
    for i in range(n_instances):
        family = "enumerable" if i % 2 == 0 else "near_collinear"
        g, G = _gem_instance(rng, family)
        norm_g = float(np.linalg.norm(g))
        problem = None
        try:
            w = np.asarray(solver.gem_qp_update(g, G), dtype=np.float64)
        except Exception as exc:
            w = None
            problem = f"raised {type(exc).__name__}: {exc}"
        if w is not None and (w.shape != g.shape or not np.isfinite(w).all()):
            problem = f"update of shape {w.shape} or non-finite entries"
        elif w is not None:
            slack = float(((G @ w) / (np.linalg.norm(G, axis=1) * norm_g)).min())
            worst_slack = min(worst_slack, slack)
            if slack < -1e-8:
                problem = f"memory constraint at {slack:.3e} ||g_i|| ||g|| (limit -1e-8)"
            elif family == "enumerable":
                w_ref = _gem_by_enumeration(g, G)
                gap = float(np.linalg.norm(w - w_ref)) / norm_g
                worst_gap = max(worst_gap, gap)
                tight = np.abs(G @ w_ref) <= 1e-9 * norm_g * np.linalg.norm(G, axis=1)
                active.append(int(tight.sum()))
                if gap > 1e-9:
                    problem = f"{gap:.3e} ||g|| from the enumerated optimum (limit 1e-9)"
        if problem is not None:
            return _failed(
                "gem_exact", i, f"{family} instance {i}: {problem}",
                family=family, g=g, old_grads=G,
            )
    return SuiteResult(
        "gem_exact",
        True,
        n_instances,
        f"max gap to the enumerated optimum {worst_gap:.3e} ||g||, min memory "
        f"slack {worst_slack:.3e} ||g_i|| ||g||; active-set sizes at the "
        f"enumerated optima {np.bincount(active).tolist()}",
    )


def run_all_suites() -> list[SuiteResult]:
    return [
        suite_solver_vs_oracle(),
        suite_projection_psd(),
        suite_decomposition_zero_sum(),
        suite_gradient_check(),
        suite_constraint_feasibility(),
        suite_basis_adversarial(basis_fn=linalg.orthonormal_basis),
        suite_basis_adversarial(basis_fn=linalg.modified_gram_schmidt),
        suite_gem_exact(),
    ]
