"""Traced runs: spans at the boundary of every gradecomp module.

Each span is ``[name, start, end, parent, step, note]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``step`` the index of the
training step it ran in (-1 outside steps), and ``note`` a small dict of
facts about the call (basis columns in and out, solver branch, slice
length).  Times are read from the benchmark's clock (``clock.py``).
Spans stay in memory and are written out once, at the end.
The program is single-threaded, so the child spans of one span never
overlap and the time they cover is the sum of their durations.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np
from gradecomp import cli, layerwise, linalg, memory, model, solver, tasks, trainer

import clock
from patching import Patches

STEP = "trainer.train_step"
LOSS_AND_GRAD = "model.loss_and_grad"
LAYERWISE = "layerwise.layerwise_solve"
SOLVES = ("solver.solve_update", "solver.agem_update", "solver.gem_qp_update")


def _note_basis(args, B):
    G = args[0]
    return {"rows": int(G.shape[0]), "cols_in": int(G.shape[1]), "cols_out": int(B.shape[1])}


def _note_solve(args, res):
    return {
        "rows": int(args[0].shape[0]),
        "reflect": res.branch == solver.PROJECT_AND_REFLECT,
        "degenerate": bool(res.degenerate),
    }


def _note_agem(args, w):
    g, g_bar = args[0], args[1]
    return {"projected": float(g_bar @ g) < 0.0 and float(g_bar @ g_bar) != 0.0}


#: (owner, attribute, span name, note) for every traced boundary
TRACED = (
    (trainer, "train_step", STEP, None),
    (model.MlpModel, "loss_and_grad", LOSS_AND_GRAD, None),
    (model.MlpModel, "apply_update", "model.apply_update", None),
    (model.MlpModel, "evaluate", "model.evaluate", None),
    (memory, "sample_memory_batch", "memory.sample_memory_batch", None),
    (memory, "update_memory", "memory.update_memory", None),
    (trainer, "decompose", "decomp.decompose", None),
    (trainer, "shared_gradient", "decomp.shared_gradient", None),
    (solver, "relax_basis", "solver.relax_basis", _note_basis),
    (linalg, "modified_gram_schmidt", "linalg.modified_gram_schmidt", None),
    (linalg, "apply_projection", "linalg.apply_projection", None),
    (solver, "solve_update", "solver.solve_update", _note_solve),
    (solver, "agem_update", "solver.agem_update", _note_agem),
    (solver, "gem_qp_update", "solver.gem_qp_update", None),
    (layerwise, "layerwise_solve", LAYERWISE, None),
    (cli, "write_run_log", "cli.write_run_log", None),
    (tasks, "gen_synthetic_base", "tasks.gen_synthetic_base", None),
    (tasks, "gen_permuted_tasks", "tasks.gen_permuted_tasks", None),
)


def per_layer_names(layer_names: list[str]) -> list[tuple[str, str]]:
    """Every per-layer metric, with its unit, in reporting order."""
    names = [
        ("stage.new_grad_s", "s"),
        ("stage.mem_grads_s", "s"),
        ("model.loss_and_grad.calls", "count"),
        ("memory.sample_memory_batch.busy_s", "s"),
        ("stage.memory_update_s", "s"),
        ("stage.decompose_s", "s"),
        ("stage.basis_s", "s"),
        ("linalg.modified_gram_schmidt.calls", "count"),
        ("linalg.modified_gram_schmidt.busy_s", "s"),
        ("linalg.modified_gram_schmidt.ms_p50", "ms"),
        ("solver.relax_basis.cols_kept_frac", "fraction"),
        ("stage.solve_s", "s"),
        ("solver.solve_update.calls", "count"),
        ("solver.solve_update.self_s", "s"),
        ("solver.solve_update.reflect_frac", "fraction"),
        ("solver.solve_update.degenerate_frac", "fraction"),
        ("linalg.apply_projection.busy_s", "s"),
        ("solver.gem_qp_update.calls", "count"),
        ("solver.gem_qp_update.busy_s", "s"),
        ("solver.gem_qp_update.ms_p50", "ms"),
        ("solver.gem_qp_update.cap_hits", "count"),
        ("solver.agem_update.busy_s", "s"),
        ("solver.agem_update.project_frac", "fraction"),
        ("layerwise.layerwise_solve.self_s", "s"),
    ]
    for layer in layer_names:
        names += [
            (f"layerwise.{layer}.basis_s", "s"),
            (f"layerwise.{layer}.solve_s", "s"),
            (f"layerwise.{layer}.reflect_frac", "fraction"),
        ]
    names += [
        ("trainer.train_step.self_s", "s"),
        ("stage.apply_s", "s"),
        ("stage.eval_s", "s"),
        ("cli.write_run_log.busy_s", "s"),
        ("cli.output_bytes", "bytes"),
        ("tasks.gen_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return names


class Tracer:
    """Records spans around the public gradecomp names while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._steps = 0
        self._step = -1
        self._origin = clock.now()
        self._patches = Patches()

    def install(self) -> None:
        for owner, attr, name, note in TRACED:
            self._patches.wrap(
                owner, attr, lambda fn, name=name, note=note: self._wrap(fn, name, note)
            )

    def uninstall(self) -> None:
        self._patches.restore()

    def _open(self, name: str) -> list:
        if name == STEP:
            self._step = self._steps
            self._steps += 1
        parent = self._stack[-1] if self._stack else -1
        span = [name, clock.now(), None, parent, self._step, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = clock.now()
        self._stack.pop()
        if span[0] == STEP:
            self._step = -1

    def _wrap(self, fn, name, note):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own, such as one traced repetition."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for duration, span in zip(list(own), self.spans):
            if span[3] >= 0:
                own[span[3]] -= duration
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, step, note in self.spans:
                record = {
                    "name": name,
                    "start": start - self._origin,
                    "end": end - self._origin,
                    "parent": parent,
                    "step": step,
                }
                if note:
                    record.update(note)
                fh.write(json.dumps(record) + "\n")

    def layer_metrics(self, sequences: int, layout) -> dict[str, float]:
        """Per-layer metrics per traced sequence, from the recorded spans.

        ``layout`` is the model's parameter layout; a basis or solve call
        made inside ``layerwise_solve`` is attributed to the segment whose
        length equals the slice it was given.
        """
        layer_of = {seg.length: seg.name for seg in layout.segments}
        selfs = self.self_times()
        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        own: dict[str, float] = {}
        durations: dict[str, list[float]] = {}
        new_grad = mem_grads = 0.0
        steps_with_new_grad: set[int] = set()
        cols_in = cols_out = 0
        flags = {"reflect": 0, "degenerate": 0, "projected": 0}
        per_layer = {name: [0.0, 0.0, 0, 0] for name in layer_of.values()}
        solve_s = 0.0
        for span, self_s in zip(self.spans, selfs):
            name, start, end, parent, _, note = span
            d = end - start
            busy[name] = busy.get(name, 0.0) + d
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + self_s
            durations.setdefault(name, []).append(d)
            parent_name = self.spans[parent][0] if parent >= 0 else None
            if name == LOSS_AND_GRAD and parent_name == STEP:
                if parent in steps_with_new_grad:
                    mem_grads += d
                else:
                    steps_with_new_grad.add(parent)
                    new_grad += d
            if name in SOLVES and parent_name not in SOLVES:
                solve_s += d
            if note is None:
                continue
            if name == "solver.relax_basis":
                cols_in += note["cols_in"]
                cols_out += note["cols_out"]
            for key in flags:
                flags[key] += bool(note.get(key))
            if parent_name == LAYERWISE:
                entry = per_layer[layer_of[note["rows"]]]
                if name == "solver.relax_basis":
                    entry[0] += d
                else:
                    entry[1] += d
                    entry[2] += 1
                    entry[3] += note["reflect"]

        def b(name):
            return busy.get(name, 0.0) / sequences

        def n(name):
            return calls.get(name, 0) / sequences

        def frac(count, name):
            return count / calls[name] if calls.get(name) else 0.0

        def p50_ms(name):
            return float(np.median(durations[name])) * 1e3 if name in durations else 0.0

        gens = calls.get("tasks.gen_permuted_tasks", 0)
        out = {
            "stage.new_grad_s": new_grad / sequences,
            "stage.mem_grads_s": mem_grads / sequences,
            "model.loss_and_grad.calls": n(LOSS_AND_GRAD),
            "memory.sample_memory_batch.busy_s": b("memory.sample_memory_batch"),
            "stage.memory_update_s": b("memory.update_memory"),
            "stage.decompose_s": b("decomp.decompose") + b("decomp.shared_gradient"),
            "stage.basis_s": b("solver.relax_basis"),
            "linalg.modified_gram_schmidt.calls": n("linalg.modified_gram_schmidt"),
            "linalg.modified_gram_schmidt.busy_s": b("linalg.modified_gram_schmidt"),
            "linalg.modified_gram_schmidt.ms_p50": p50_ms("linalg.modified_gram_schmidt"),
            "solver.relax_basis.cols_kept_frac": cols_out / cols_in if cols_in else 0.0,
            "stage.solve_s": solve_s / sequences,
            "solver.solve_update.calls": n("solver.solve_update"),
            "solver.solve_update.self_s": own.get("solver.solve_update", 0.0) / sequences,
            "solver.solve_update.reflect_frac": frac(flags["reflect"], "solver.solve_update"),
            "solver.solve_update.degenerate_frac": frac(
                flags["degenerate"], "solver.solve_update"
            ),
            "linalg.apply_projection.busy_s": b("linalg.apply_projection"),
            "solver.gem_qp_update.calls": n("solver.gem_qp_update"),
            "solver.gem_qp_update.busy_s": b("solver.gem_qp_update"),
            "solver.gem_qp_update.ms_p50": p50_ms("solver.gem_qp_update"),
            "solver.agem_update.busy_s": b("solver.agem_update"),
            "solver.agem_update.project_frac": frac(flags["projected"], "solver.agem_update"),
            "layerwise.layerwise_solve.self_s": own.get(LAYERWISE, 0.0) / sequences,
            "trainer.train_step.self_s": own.get(STEP, 0.0) / sequences,
            "stage.apply_s": b("model.apply_update"),
            "stage.eval_s": b("model.evaluate"),
            "cli.write_run_log.busy_s": b("cli.write_run_log"),
            "tasks.gen_s": (
                (busy.get("tasks.gen_synthetic_base", 0.0)
                 + busy.get("tasks.gen_permuted_tasks", 0.0)) / gens
                if gens else 0.0
            ),
        }
        for layer, (basis_s, seg_solve_s, solves, reflects) in per_layer.items():
            out[f"layerwise.{layer}.basis_s"] = basis_s / sequences
            out[f"layerwise.{layer}.solve_s"] = seg_solve_s / sequences
            out[f"layerwise.{layer}.reflect_frac"] = reflects / solves if solves else 0.0
        return out
