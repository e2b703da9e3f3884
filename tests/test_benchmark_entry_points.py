"""The benchmark in ``perfbench/`` reaches the package through names it
wraps or calls; a renamed or dropped one would otherwise show up only in
a traced benchmark run."""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
