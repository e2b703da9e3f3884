"""Replace public gradecomp names with wrappers and put them back.

A wrapper must sit where the caller looks the name up: ``trainer`` binds
``decompose`` and ``shared_gradient`` at import, so those are replaced on
``gradecomp.trainer``; every other caller reaches its callee through the
module (``solver.solve_update``, ``linalg.apply_projection``, ...) or the
class (``MlpModel.loss_and_grad``), so the wrapper goes there.
"""

from __future__ import annotations


class Patches:
    """A stack of attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` by ``make_wrapper(original)``."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
