"""Correctness gate: every constrained update a training step makes is
checked, and a step that fails any check counts as a failed step.

The tolerances are those of the feasibility guard in
``tests/conftest.py``: for ``solve_update``, ``|B'w| <= 1e-8 ||g||`` and,
unless the result is marked degenerate, ``g_bar'w >= -1e-8 ||g_bar|| ||g||``;
the same inequality for ``agem_update``; and ``g_i'w >= -1e-8 ||g_i|| ||g||``
for every memory gradient passed to ``gem_qp_update``.

A step fails when it raises, when an update is non-finite, when an update
violates a constraint, or when a solver reports that it hit its iteration
cap (a ``RuntimeWarning``).  A capped solve is counted as a cap hit only:
its residual infeasibility is the expected consequence, not a second
failure.  The gate also times every step, and the reference kernel
right before it (``reference.py``), so the untraced runs take their step
latencies and the machine's speed from it.
"""

from __future__ import annotations

import warnings
from collections import Counter

import numpy as np
from gradecomp import solver, trainer

import clock
import reference
from patching import Patches

TOL = 1e-8

RAISED = "raised"
NON_FINITE = "non_finite"
VIOLATION = "violation"
CAP_HIT = "cap_hit"
SOLVER_WARNING = "solver_warning"

#: failure kinds that make a run's output incorrect; the others are
#: counted in the failure share but leave the outputs valid
HARD_FAILURES = (RAISED, NON_FINITE, VIOLATION)


class Gate:
    """Wraps ``trainer.train_step`` and the three update rules."""

    def __init__(self):
        self.steps = 0
        self.failed_steps = 0
        self.checked = 0
        self.failures: Counter[str] = Counter()
        self.step_seconds: list[float] = []
        self.ref_seconds: list[float] = []
        self.reference_total = 0.0  # time spent in the reference kernel
        self._step_kinds: set[str] | None = None
        self._patches = Patches()

    def install(self) -> None:
        self._patches.wrap(trainer, "train_step", self._wrap_step)
        self._patches.wrap(solver, "solve_update", self._wrap_solve)
        self._patches.wrap(solver, "agem_update", self._wrap_agem)
        self._patches.wrap(solver, "gem_qp_update", self._wrap_gem)

    def uninstall(self) -> None:
        self._patches.restore()

    @property
    def hard_failures(self) -> int:
        return sum(self.failures[kind] for kind in HARD_FAILURES)

    def _fail(self, kind: str) -> None:
        self.failures[kind] += 1
        if self._step_kinds is not None:
            self._step_kinds.add(kind)

    def _check(self, w, g, eq=None, ineq=(), capped=False) -> None:
        self.checked += 1
        if capped:
            self._fail(CAP_HIT)
        if not np.isfinite(w).all():
            self._fail(NON_FINITE)
        elif not capped and not _feasible(w, g, eq, ineq):
            self._fail(VIOLATION)

    def _wrap_step(self, train_step):
        def gated_train_step(*args, **kwargs):
            before = clock.now()
            self.ref_seconds.append(reference.time_once())
            self._step_kinds = set()
            start = clock.now()
            self.reference_total += start - before
            try:
                return train_step(*args, **kwargs)
            except FloatingPointError:
                self._fail(NON_FINITE)
                raise
            except Exception:
                self._fail(RAISED)
                raise
            finally:
                self.step_seconds.append(clock.now() - start)
                self.steps += 1
                if self._step_kinds:
                    self.failed_steps += 1
                self._step_kinds = None

        return gated_train_step

    def _wrap_solve(self, solve_update):
        def gated_solve_update(g, g_bar, B, *args, **kwargs):
            res = solve_update(g, g_bar, B, *args, **kwargs)
            self._check(res.w, g, eq=B, ineq=() if res.degenerate else (g_bar,))
            return res

        return gated_solve_update

    def _wrap_agem(self, agem_update):
        def gated_agem_update(g, g_bar, *args, **kwargs):
            w = agem_update(g, g_bar, *args, **kwargs)
            self._check(w, g, ineq=(g_bar,))
            return w

        return gated_agem_update

    def _wrap_gem(self, gem_qp_update):
        def gated_gem_qp_update(g, old_grads, *args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                w = gem_qp_update(g, old_grads, *args, **kwargs)
            capped = False
            for item in caught:
                if not issubclass(item.category, RuntimeWarning):
                    continue
                if "cap" in str(item.message):
                    capped = True
                else:
                    self._fail(SOLVER_WARNING)
            self._check(w, g, ineq=old_grads, capped=capped)
            return w

        return gated_gem_qp_update


def _feasible(w, g, eq, ineq) -> bool:
    norm_g = float(np.linalg.norm(g))
    if eq is not None and eq.shape[1]:
        if float(np.abs(eq.T @ w).max()) > TOL * max(norm_g, 1e-300):
            return False
    for c in ineq:
        if float(c @ w) < -TOL * float(np.linalg.norm(c)) * norm_g:
            return False
    return True
