"""The benchmark in ``perfbench/`` reaches the package through names it
wraps or calls; a renamed or dropped one would otherwise show up only in
a traced benchmark run."""

import inspect
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
LISTED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import gate
    import spans
    import workloads

    return gate, spans, workloads


def test_traced_names_resolve(perfbench):
    _, spans, _ = perfbench
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in spans.TRACED
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, f"perfbench traces names the package lacks: {missing}"


def test_names_the_benchmark_tests_reach_resolve():
    # perfbench/tests replaces trainer._solve_for_variant with a function
    # of (variant, model, g, *rest) returning g, builds the variants with
    # their factories and stores memories with update_memory(task_id=)
    from gradecomp import memory, trainer

    params = list(inspect.signature(trainer._solve_for_variant).parameters)
    assert params[:3] == ["variant", "model", "g"]
    for factory in (trainer.variant_ours, trainer.variant_agem, trainer.variant_gem):
        assert isinstance(factory(), trainer.MethodVariant)
    assert "task_id" in inspect.signature(memory.update_memory).parameters


def test_gate_installs_and_restores(perfbench):
    gate, _, _ = perfbench
    from gradecomp import solver, trainer

    before = (trainer.train_step, solver.solve_update, solver.agem_update,
              solver.gem_qp_update)
    g = gate.Gate()
    g.install()
    try:
        assert trainer.train_step is not before[0]
    finally:
        g.uninstall()
    assert (trainer.train_step, solver.solve_update, solver.agem_update,
            solver.gem_qp_update) == before


@pytest.mark.parametrize("name", LISTED)
def test_listed_workload_runs_a_short_sequence(perfbench, tmp_path, name):
    # the path a benchmark run takes (config, variant, stream, training and,
    # for CLI workloads, the output files) on a 3-task, 10-per-class stream
    _, _, workloads = perfbench
    wl = replace(workloads.WORKLOADS[name], tasks=3, n_per_class=10)
    seq = workloads.run_sequence(wl, workloads.setup(wl, seed=1), tmp_path)
    assert seq.R.shape == (3, 3)
    lower = seq.R[np.tril_indices(3)]
    assert ((lower >= 0.0) & (lower <= 1.0)).all()


@pytest.mark.parametrize("name", LISTED)
def test_gate_checks_every_constrained_solve(perfbench, monkeypatch, tmp_path, name):
    # perfbench/run.py exits 1 when its gate checks no update, so a route
    # that stops reaching the gated solvers must fail here first: the
    # layerwise variant solves once per layer segment in every step with
    # memories, the whole-vector ones once
    gate, _, workloads = perfbench
    from gradecomp import trainer

    wl = replace(workloads.WORKLOADS[name], tasks=3, n_per_class=10)
    variant = trainer.variant_from_name(wl.variant)
    per_step = len(workloads.model_layout().slices()) if variant.lgu else 1
    steps_with_memories = 0
    train_step = trainer.train_step

    def counted(model, batch, memories, *args, **kwargs):
        nonlocal steps_with_memories
        steps_with_memories += bool(memories)
        return train_step(model, batch, memories, *args, **kwargs)

    monkeypatch.setattr(trainer, "train_step", counted)
    checks = gate.Gate()
    checks.install()
    try:
        workloads.run_sequence(wl, workloads.setup(wl, seed=1), tmp_path)
    finally:
        checks.uninstall()
    assert steps_with_memories > 0
    assert checks.checked == per_step * steps_with_memories
    assert not checks.failures
