"""Tests of the benchmark itself, on tiny task sequences.

Run from the root of the checkout: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import bench  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from gate import CAP_HIT, NON_FINITE, VIOLATION, Gate  # noqa: E402
from gradecomp import memory, solver, trainer  # noqa: E402
from gradecomp.model import Batch, MlpModel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LISTED = [w["name"] for w in SPEC["workloads"]]


def tiny(name: str) -> workloads.Workload:
    """The named workload at T=3 with 10 examples per class (9 steps)."""
    return replace(workloads.WORKLOADS[name], tasks=3, n_per_class=10)


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", LISTED)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    outcome = bench.measure(tiny(name), 3, 0.0, trace, SRC, tmp_path)
    result = outcome.result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 2 * 9  # two sequences of nine steps
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == units("per_layer" if trace else "end_to_end")
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_listed_workloads_exist_and_metric_names_are_unique():
    assert set(LISTED) <= set(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def _one_step(variant, n_memories=2):
    """A single training step of a small model against stored memories."""
    rng = np.random.default_rng(0)
    model = MlpModel([4, 5, 3], seed=0)

    def batch(n):
        return Batch(rng.standard_normal((n, 4)), rng.integers(0, 3, size=n))

    memories = [memory.update_memory(batch(12), 8, task_id=t) for t in range(n_memories)]
    return trainer.train_step(
        model, batch(10), memories, variant, 0.1,
        np.random.default_rng(1), np.random.default_rng(2), bs_old=6,
    )


@pytest.fixture
def gate(monkeypatch):
    # depends on monkeypatch so that the gate is removed before the fakes
    g = Gate()
    yield g
    g.uninstall()


def test_gate_counts_an_infeasible_update(gate, monkeypatch):
    def ignores_constraints(g, g_bar, B):
        return solver.UpdateResult(w=g.copy(), branch=solver.PROJECT_ONLY, shared_alignment=0.0)

    monkeypatch.setattr(solver, "solve_update", ignores_constraints)
    gate.install()
    _one_step(trainer.variant_ours(), n_memories=3)
    assert gate.failures[VIOLATION] == 1
    assert (gate.steps, gate.failed_steps, gate.hard_failures) == (1, 1, 1)


def test_gate_counts_a_cap_hit(gate, monkeypatch):
    def capped(g, old_grads):
        warnings.warn("dual projected gradient hit the 5-iteration cap", RuntimeWarning)
        return g.copy()

    monkeypatch.setattr(solver, "gem_qp_update", capped)
    gate.install()
    _one_step(trainer.variant_gem())
    assert gate.failures[CAP_HIT] == 1
    assert (gate.steps, gate.failed_steps, gate.hard_failures) == (1, 1, 0)


def test_gate_counts_a_non_finite_update(gate, monkeypatch):
    monkeypatch.setattr(solver, "agem_update", lambda g, g_bar: np.full_like(g, np.nan))
    gate.install()
    with pytest.raises(FloatingPointError):
        _one_step(trainer.variant_agem())
    assert gate.failures[NON_FINITE] >= 1
    assert (gate.steps, gate.failed_steps) == (1, 1)


def test_gate_passes_the_real_solvers(gate):
    gate.install()
    for variant in (trainer.variant_ours(), trainer.variant_ours(lgu=True),
                    trainer.variant_agem(), trainer.variant_gem()):
        _one_step(variant, n_memories=3)
    assert gate.failed_steps == 0
    # one update each, two for the layerwise solve on this two-layer model
    assert gate.checked == 5


def test_times_are_divided_by_the_slowdown_the_reference_shows(monkeypatch, tmp_path):
    monkeypatch.setattr(reference, "time_once", lambda: 2 * reference.SECONDS)
    outcome = bench.measure(tiny("agem-t20"), 1, 0.0, False, SRC, tmp_path)
    metrics = outcome.result["metrics"]
    seconds = [s.seconds for s in outcome.plain]
    fastest = np.min([s.step_seconds for s in outcome.plain], axis=0)
    assert metrics["run_s"]["value"] == pytest.approx(np.median(seconds) / 2)
    assert metrics["step_ms_p50"]["value"] == pytest.approx(np.median(fastest) * 1e3 / 2)


def test_a_bypassed_gate_is_reported(monkeypatch, tmp_path):
    monkeypatch.setattr(trainer, "_solve_for_variant", lambda variant, model, g, *a: g)
    outcome = bench.measure(tiny("ours-t20"), 1, 0.0, False, SRC, tmp_path)
    assert outcome.gate_idle


def test_self_times_are_non_negative_and_fit_in_the_sequence(tmp_path):
    outcome = bench.measure(tiny("ours-lgu-t20"), 2, 0.0, True, SRC, tmp_path)
    spans = outcome.tracer.spans
    selfs = outcome.tracer.self_times()
    assert min(selfs) >= -1e-9
    sequence_spans = [i for i, s in enumerate(spans) if s[0] == "perfbench.sequence"]
    assert len(sequence_spans) == len(outcome.traced) >= 1

    def top(i):
        while spans[i][3] >= 0:
            i = spans[i][3]
        return i

    for index, seq in zip(sequence_spans, outcome.traced):
        inner = sum(s for i, s in enumerate(selfs) if i != index and top(i) == index)
        assert 0.0 < inner <= seq.seconds
    assert {s[4] for s in spans if s[0] == "trainer.train_step"} == set(range(9))


def test_layerwise_calls_are_attributed_to_layers(tmp_path):
    outcome = bench.measure(tiny("ours-lgu-t20"), 2, 0.0, True, SRC, tmp_path)
    layer = outcome.result["metrics"]
    for i in range(3):
        assert layer[f"layerwise.layer{i}.basis_s"]["value"] > 0.0
    plain = bench.measure(tiny("ours-t20"), 2, 0.0, True, SRC, tmp_path)
    assert plain.result["metrics"]["layerwise.layer0.basis_s"]["value"] == 0.0


def test_repeat_runs_give_the_same_accuracy_matrix(tmp_path):
    first = bench.measure(tiny("ours-lgu-t20"), 4, 0.0, False, SRC, tmp_path)
    second = bench.measure(tiny("ours-lgu-t20"), 4, 0.0, False, SRC, tmp_path)
    digests = {(s.digest, s.csv_digest) for s in first.plain + second.plain}
    assert len(digests) == 1
    assert first.result["correct"] and second.result["correct"]


def test_a_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ours-t20",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
