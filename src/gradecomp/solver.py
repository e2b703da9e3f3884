"""Constrained gradient-update solvers.

The main solver finds the update ``w`` closest to the new-task gradient
``g`` subject to a non-negative inner product with the shared gradient
and orthogonality to the span of an orthonormal basis ``B``.  The closed
form has two branches: project ``g`` out of the span, and, when the
projected gradient still conflicts with the shared gradient, reflect the
conflicting component away as well.

The constraint basis comes from :func:`relax_basis`: a one-pass Gram
basis of every task-specific direction, orthonormal to about 1e-7, the
rest made up for in the projections; or, relaxed, an orthonormal basis
of only the top-k principal directions of the specific matrix.
:func:`decomposed_update` wraps basis and solve as an update rule, a map from a gradient bundle
to an :class:`UpdateResult`, which runs on the whole vector or per layer
segment alike.

Also here: an independent brute-force KKT oracle used to cross-check the
closed form, and the three baseline update rules (single averaged
constraint, single random-memory constraint, and the per-memory
inequality QP solved exactly by active set).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .decomp import GradientBundle

PROJECT_ONLY = "project_only"
PROJECT_AND_REFLECT = "project_and_reflect"

# below this fraction of ||g_bar||^2, the projected shared gradient is
# treated as numerically zero and the reflect branch falls back to Pg
DEGENERATE_DENOM_REL = 1e-14
# the GEM solve stops once g_i'w >= -GEM_SLACK_REL ||g_i|| ||g|| for every memory
GEM_SLACK_REL = 1e-12


@dataclass
class UpdateResult:
    """Solution of one constrained update.

    ``shared_alignment`` is the inner product between the shared gradient
    and the projected new-task gradient; the reflect branch is taken
    exactly when it is negative.  ``degenerate`` marks reflect-branch
    calls where the shared gradient lay (numerically) inside the
    constraint span, in which case ``w`` falls back to the plain
    projection.  For layerwise solves, ``per_layer`` carries the
    per-segment results in layout order and the top-level fields
    aggregate them (alignment summed; branch is ``project_only`` only if
    every segment projected); it is ``None`` for a whole-vector solve.
    """

    w: np.ndarray
    branch: str
    shared_alignment: float
    degenerate: bool = False
    per_layer: tuple[tuple[str, "UpdateResult"], ...] | None = None


def solve_update(g: np.ndarray, g_bar: np.ndarray, B: np.ndarray) -> UpdateResult:
    """Closest update to ``g`` that respects both constraint families.

    Returns ``P g`` when the projected gradient already has non-negative
    inner product with ``g_bar``; otherwise removes the conflicting
    shared component: ``P g - (g_bar' P g / g_bar' P g_bar) P g_bar``.
    """
    Pg = linalg.apply_projection(B, g)
    align = float(g_bar @ Pg)
    if align >= 0.0:
        return UpdateResult(w=Pg, branch=PROJECT_ONLY, shared_alignment=align)
    Pg_bar = linalg.apply_projection(B, g_bar)
    denom = float(g_bar @ Pg_bar)
    if denom < DEGENERATE_DENOM_REL * float(g_bar @ g_bar):
        return UpdateResult(
            w=Pg, branch=PROJECT_AND_REFLECT, shared_alignment=align, degenerate=True
        )
    w = Pg - (align / denom) * Pg_bar
    return UpdateResult(w=w, branch=PROJECT_AND_REFLECT, shared_alignment=align)


def qp_oracle(g: np.ndarray, g_bar: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Brute-force reference solution of the constrained update.

    Minimizes ``0.5 * ||w - g||^2`` subject to ``g_bar' w >= 0`` and
    ``B' w = 0`` by enumerating the two multiplier cases of the
    stationarity system (inequality inactive / active), solving each with
    dense linear algebra, and returning the feasible candidate with the
    smaller objective.  Shares no code path with :func:`solve_update`
    beyond basic array ops; intended for small dimensions.
    """
    g = np.asarray(g, dtype=np.float64)
    g_bar = np.asarray(g_bar, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    n = g.shape[0]
    r = B.shape[1]
    scale = float(np.linalg.norm(g_bar)) * float(np.linalg.norm(g))
    feas_tol = 1e-10 * max(scale, 1e-30)

    candidates: list[np.ndarray] = []

    # case 1: inequality inactive (multiplier zero).  Stationarity gives
    # w = g - B lam with B' w = 0, so (B'B) lam = B'g.
    if r > 0:
        lam, *_ = np.linalg.lstsq(B.T @ B, B.T @ g, rcond=None)
        w0 = g - B @ lam
    else:
        w0 = g.copy()
    if float(g_bar @ w0) >= -feas_tol:
        candidates.append(w0)

    # case 2: inequality active.  Solve the full stationarity system
    #   [ I      -g_bar  B ] [ w  ]   [ g ]
    #   [ g_bar'  0      0 ] [ mu ] = [ 0 ]
    #   [ B'      0      0 ] [ lam]   [ 0 ]
    size = n + 1 + r
    kkt = np.zeros((size, size))
    kkt[:n, :n] = np.eye(n)
    kkt[:n, n] = -g_bar
    kkt[n, :n] = g_bar
    if r > 0:
        kkt[:n, n + 1:] = B
        kkt[n + 1:, :n] = B.T
    rhs = np.zeros(size)
    rhs[:n] = g
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    w1 = sol[:n]
    mu = float(sol[n])
    if mu >= -1e-10 and abs(float(g_bar @ w1)) <= max(feas_tol, 1e-8 * max(scale, 1.0)):
        candidates.append(w1)

    if not candidates:
        # numerically degenerate instance: fall back to the inactive case
        candidates.append(w0)
    objectives = [float((w - g) @ (w - g)) for w in candidates]
    return candidates[int(np.argmin(objectives))]


def relax_basis(G_specific: np.ndarray, k: int | None = None) -> np.ndarray:
    """Constraint basis for an ``(n, m)`` specific-gradient matrix: a
    basis of its whole column space when ``k`` is ``None``, else its
    top-``k`` principal directions.

    The full basis is :func:`linalg.one_pass_basis`: one Gram pass,
    orthonormal to about 1.8e-7 at worst, which
    :func:`linalg.apply_projection` makes up for by re-projecting the
    vectors when their measured residual asks for it, rather than
    re-orthogonalizing the basis.  The columns sum to zero, so the first
    ``m - 1`` of them span the matrix; it is built from those alone,
    because the last column adds no direction, only the rounding noise
    of the deviations, and the kernel's route rule decides the rank of
    nearly dependent columns.  The principal directions come from
    :func:`linalg.orthonormal_basis`, orthonormal to working precision,
    and read all ``m`` columns, since dropping one would change
    ``G_specific G_specific'``.
    """
    if k is None:
        return linalg.one_pass_basis(G_specific[:, :-1])
    return linalg.orthonormal_basis(G_specific, k)


def decomposed_update(
    bundle: GradientBundle, k: int | None = None, *, overwrite: bool = False
) -> UpdateResult:
    """The decomposed update rule: relax the specific basis, then solve.

    With ``overwrite`` the specific matrix is formed in the storage of
    ``bundle.old_grads``, as scipy's ``overwrite_a`` allows: the rows
    become their deviations ``G - shared``, which no later step of the
    rule reads, and no ``(m, n)`` array is made.  Otherwise
    ``old_grads`` is left as it is and the specific matrix is a new
    array.  The update is the same bit for bit either way.  Raises
    ``ValueError`` on a bundle with no old-task gradients.
    """
    if bundle.shared is None:
        raise ValueError("bundle has no old-task gradients to constrain against")
    if overwrite:
        specific = np.subtract(bundle.old_grads, bundle.shared, out=bundle.old_grads).T
    else:
        specific = bundle.specific
    B = relax_basis(specific, k)
    return solve_update(bundle.new_grad, bundle.shared, B)


def agem_update(g: np.ndarray, g_bar: np.ndarray) -> np.ndarray:
    """Single averaged constraint: project out the conflicting component.

    Returns ``g`` unchanged when ``g_bar' g >= 0`` (or when ``g_bar`` is
    the zero vector), else ``g - (g_bar' g / g_bar' g_bar) g_bar``.
    """
    g = np.asarray(g, dtype=np.float64)
    g_bar = np.asarray(g_bar, dtype=np.float64)
    dot = float(g_bar @ g)
    if dot >= 0.0:
        return g.copy()
    denom = float(g_bar @ g_bar)
    if denom == 0.0:
        return g.copy()
    return g - (dot / denom) * g_bar


def sgem_update(
    g: np.ndarray, old_grads: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Constrain against one row of the ``(m, n)`` memory-gradient matrix
    (or one vector of a list), drawn uniformly from ``rng``."""
    if len(old_grads) == 0:
        raise ValueError("need at least one old-task gradient")
    idx = int(rng.integers(len(old_grads)))
    return agem_update(g, old_grads[idx])


def gem_qp_update(g: np.ndarray, old_grads: np.ndarray) -> np.ndarray:
    """Per-memory inequality QP: closest ``w`` to ``g`` with ``g_i' w >= 0``.

    ``G = old_grads`` is the ``(m, n)`` matrix of memory gradients (a list
    of vectors is stacked).  Solved exactly by active set: the dual is the
    non-negative least squares ``min_{v >= 0} 0.5 ||g + G'v||^2``, solved
    by Lawson and Hanson's algorithm (1974, ch. 23) with one least-squares
    solve on ``G[P]'`` per passive set ``P``, and ``w = g + G'v``.  It
    stops when every row of ``G w`` is at least ``-GEM_SLACK_REL ||g_i||
    ||g||``.  A memory whose solve gives it no positive multiplier (its
    row lies in the span of the passive rows) is skipped until ``P``
    changes.  ``g`` is returned (copied) when nothing conflicts, and the
    averaged constraint for a single memory.  Raises ``RuntimeError``
    after ``3 m`` passive-set changes.
    """
    if len(old_grads) == 0:
        raise ValueError("need at least one old-task gradient")
    if len(old_grads) == 1:
        return agem_update(g, old_grads[0])
    g = np.asarray(g, dtype=np.float64)
    G = np.asarray(old_grads, dtype=np.float64)
    slack = G @ g
    if (slack >= 0.0).all():
        return g.copy()

    m = G.shape[0]
    floor = GEM_SLACK_REL * np.linalg.norm(G, axis=1) * np.linalg.norm(g)
    passive, v, w = np.zeros(m, dtype=bool), np.zeros(m), g.copy()

    def solve(P):
        z = np.zeros(m)
        z[P] = np.linalg.lstsq(G[P].T, -g, rcond=None)[0]
        return z

    for _ in range(3 * m):
        skipped = passive.copy()
        while True:
            violated = np.flatnonzero(~skipped & (slack < -floor))
            if violated.size == 0:
                return w
            j = violated[np.argmin(slack[violated] / floor[violated])]
            trial = passive.copy()
            trial[j] = True
            z = solve(trial)
            if z[j] > 0.0:
                break
            skipped[j] = True
        while (z[trial] <= 0.0).any():  # step back until every multiplier is positive
            neg = np.flatnonzero(trial & (z <= 0.0))
            ratios = v[neg] / (v[neg] - z[neg])
            k = int(np.argmin(ratios))
            v = v + ratios[k] * (z - v)
            v[neg[k]] = 0.0
            trial &= v > 0.0
            z = solve(trial)
        passive, v = trial, z
        w = g + G[passive].T @ v[passive]
        slack = G @ w
    raise RuntimeError(f"active-set GEM solve exceeded {3 * m} passive-set changes")
