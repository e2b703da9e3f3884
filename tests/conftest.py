"""Session-wide instrumentation: every constrained solve executed by any
test (including full training runs) must satisfy its constraints within
tolerance.  The decomposed solve (``solver.solve_update``) must meet both
constraint families; the per-memory QP (``solver.gem_qp_update``) must
meet ``g_i'w >= -1e-8 ||g_i|| ||g||`` for every memory row.  Violations
fail the triggering test with the offending instance attached."""

from collections import Counter

import numpy as np
import pytest

from gradecomp import solver

# gem_sizes counts GEM solves by update length, so a test can tell
# whole-vector calls from per-layer ones
CALL_STATS = {"calls": 0, "gem_sizes": Counter()}


@pytest.fixture(scope="session", autouse=True)
def feasibility_guard():
    original = solver.solve_update
    original_gem = solver.gem_qp_update

    def checked(g, g_bar, B, *args, **kwargs):
        res = original(g, g_bar, B, *args, **kwargs)
        CALL_STATS["calls"] += 1
        norm_g = float(np.linalg.norm(g))
        if B.shape[1]:
            eq = float(np.abs(B.T @ res.w).max())
            assert eq <= 1e-8 * max(norm_g, 1e-300), (
                f"equality constraint violated: |B'w| = {eq:.3e} for ||g|| = {norm_g:.3e}"
            )
        if not res.degenerate:
            ineq = float(g_bar @ res.w)
            floor = -1e-8 * float(np.linalg.norm(g_bar)) * norm_g
            assert ineq >= floor, (
                f"inequality constraint violated: shared'w = {ineq:.3e} < {floor:.3e}"
            )
        return res

    def checked_gem(g, old_grads, *args, **kwargs):
        w = original_gem(g, old_grads, *args, **kwargs)
        CALL_STATS["gem_sizes"][len(g)] += 1
        G = np.asarray(old_grads, dtype=np.float64)
        slack = G @ w
        floor = -1e-8 * np.linalg.norm(G, axis=1) * float(np.linalg.norm(g))
        bad = np.flatnonzero(~(slack >= floor))
        assert bad.size == 0, (
            f"memory constraint violated: g_i'w = {slack[bad[0]]:.3e} < "
            f"{floor[bad[0]]:.3e} for memory {bad[0]} of {len(G)}"
        )
        return w

    solver.solve_update = checked
    solver.gem_qp_update = checked_gem
    try:
        yield CALL_STATS
    finally:
        solver.solve_update = original
        solver.gem_qp_update = original_gem
