"""Per-layer dispatch of an update rule.

A flat parameter vector is segmented by a :class:`ParamLayout`;
:func:`layerwise_solve` applies one update rule to every segment's slice
of a gradient bundle, so every layer decides its own branch instead of
being dominated by whichever layer carries the largest gradient
magnitudes.  Every rule in per-layer mode goes through it.  A segment's
bundle holds slices of the new-task gradient, the shared gradient and
the ``(m, n)`` memory matrix; its specific matrix is derived from those
when a rule reads it.

Each segment's result, with its alignment to the shared gradient, is
kept in ``UpdateResult.per_layer``; that is the one place callers read
per-layer alignments from, and :func:`predicted_loss_change` reduces
them to the first-order replay-loss change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .decomp import GradientBundle
from .solver import PROJECT_AND_REFLECT, PROJECT_ONLY, UpdateResult

#: an update rule: one bundle (or one segment's slice of it) to its update
Rule = Callable[[GradientBundle], UpdateResult]


class Segment(NamedTuple):
    name: str
    offset: int
    length: int


@dataclass(frozen=True)
class ParamLayout:
    """Contiguous, non-overlapping named segments covering ``[0, total)``."""

    segments: tuple[Segment, ...]
    total: int

    def __post_init__(self):
        if not self.segments:
            raise ValueError("layout needs at least one segment")
        expected = 0
        for seg in self.segments:
            if seg.offset != expected:
                raise ValueError(
                    f"segment {seg.name!r} starts at {seg.offset}, expected {expected}"
                )
            if seg.length < 1:
                raise ValueError(f"segment {seg.name!r} has non-positive length")
            expected += seg.length
        if expected != self.total:
            raise ValueError(
                f"segments cover [0, {expected}) but total is {self.total}"
            )

    @classmethod
    def from_lengths(cls, named_lengths: list[tuple[str, int]]) -> "ParamLayout":
        segments = []
        offset = 0
        for name, length in named_lengths:
            segments.append(Segment(name, offset, int(length)))
            offset += int(length)
        return cls(segments=tuple(segments), total=offset)

    def slices(self) -> list[slice]:
        return [slice(s.offset, s.offset + s.length) for s in self.segments]


@dataclass
class LossChangeReport:
    """First-order prediction of the replay-loss change per unit step size.

    ``predicted_delta`` is the loss change divided by the learning rate:
    multiply by eta to get the predicted change after stepping by
    ``-eta * w``.  It sums the negated non-negative alignments of the
    solved segments, each under its own projection, read from
    ``UpdateResult.per_layer`` (a whole-vector solve is one segment).
    ``realized_delta`` is ``-shared' w`` for the update actually
    returned, which coincides with ``predicted_delta`` when the basis
    was not relaxed.
    """

    predicted_delta: float
    realized_delta: float


def layerwise_solve(
    bundle: GradientBundle, layout: ParamLayout, rule: Rule
) -> UpdateResult:
    """Apply ``rule`` independently to every layout segment of ``bundle``.

    Each segment sees the new-task and shared gradients and the
    ``(m, n)`` old-task matrix restricted to that segment's coordinates:
    one slice of each, the old-task one an ``(m, length)`` view.  A rule
    that reads the segment's specific matrix gets it from those two
    slices (the mean and the subtraction commute with slicing); one that
    overwrites ``old_grads`` writes only its segment's columns.  The
    per-segment updates are concatenated in layout order; the alignment
    is summed and the branch is ``project_only`` only if every segment
    projected.
    """
    if bundle.shared is None:
        raise ValueError("bundle has no old-task gradients to constrain against")
    if bundle.dim != layout.total:
        raise ValueError(
            f"bundle dimension {bundle.dim} does not match layout total {layout.total}"
        )
    w = np.empty(layout.total)
    per_layer: list[tuple[str, UpdateResult]] = []
    total_alignment = 0.0
    all_project = True
    any_degenerate = False
    for seg, sl in zip(layout.segments, layout.slices()):
        res = rule(
            GradientBundle(
                new_grad=bundle.new_grad[sl],
                old_grads=bundle.old_grads[:, sl],
                shared=bundle.shared[sl],
            )
        )
        w[sl] = res.w
        per_layer.append((seg.name, res))
        total_alignment += res.shared_alignment
        all_project = all_project and res.branch == PROJECT_ONLY
        any_degenerate = any_degenerate or res.degenerate
    return UpdateResult(
        w=w,
        branch=PROJECT_ONLY if all_project else PROJECT_AND_REFLECT,
        shared_alignment=total_alignment,
        degenerate=any_degenerate,
        per_layer=tuple(per_layer),
    )


def predicted_loss_change(bundle: GradientBundle, res: UpdateResult) -> LossChangeReport:
    """First-order replay-loss change of the update ``res`` solved from ``bundle``.

    Sums the negated alignments of the segments whose alignment is
    non-negative (the others are reflected to zero by construction); a
    whole-vector solve counts as one segment.
    """
    if bundle.shared is None:
        raise ValueError("bundle has no old-task gradients")
    delta = 0.0
    for _, seg_res in res.per_layer or (("all", res),):
        if seg_res.shared_alignment >= 0.0:
            delta -= seg_res.shared_alignment
    return LossChangeReport(
        predicted_delta=delta,
        realized_delta=-float(bundle.shared @ res.w),
    )
