"""The benchmark's workloads: one continual-learning task sequence each,
driven through the public gradecomp API from outside.

Setting: a permuted-feature stream of 3 classes and 32 features, the
32-100-100-3 MLP (13,703 parameters) and ``TrainConfig`` defaults.  The
data seed, stream seed and training seed derive from one seed as the
acceptance tests do: data ``seed``, stream ``seed + 1``, training ``seed``.

The T=20 workloads use 50 examples per class (240 steps per sequence)
rather than 400: every step has the same shapes either way (13,703
parameters, up to 19 memories, batches of 10 and 20), so the per-step
cost profile is the same, and a sequence repeats many times in one
measured run.  ``gem-t5`` keeps 400 examples per class, the setting at
which its dual solver hits the iteration cap.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from gradecomp import cli, tasks, trainer
from gradecomp.model import MlpModel

import clock
import reference

CLASSES = 3
DIM = 32
PCA_K = cli.DEFAULT_CONFIG["pca_k"]


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str  # as the CLI names it: an ablation letter or a method name
    tasks: int
    n_per_class: int
    via_cli: bool  # drive through cli.run_one_variant, outputs included


WORKLOADS = {
    w.name: w
    for w in (
        # the basis on one tall 13,703 x m matrix, m up to 19; run by hand,
        # since only two workloads fit the run budget BENCHMARK.json sets
        Workload("ours-t20", "d", 20, 50, False),
        # the same basis on three slices per step, the per-segment
        # dispatch, and the CLI output writers
        Workload("ours-lgu-t20", "f", 20, 50, True),
        # bypasses decomposition and basis; dominated by the model
        Workload("agem-t20", "b", 20, 50, False),
        # the per-memory dual QP; its cost depends on solver iteration
        # counts, so it is run by hand and not listed in BENCHMARK.json
        Workload("gem-t5", "gem", 5, 400, False),
    )
}


@dataclass
class Prepared:
    """Inputs made from one seed, ready for the first training step."""

    seed: int
    stream: tasks.TaskStream | None = None
    cfg: trainer.TrainConfig | None = None
    config: dict | None = None


@dataclass
class Sequence:
    """One full task sequence: its time on the benchmark's clock and its outputs."""

    seconds: float
    R: np.ndarray
    digest: str
    csv_digest: str | None = None
    output_bytes: int = 0
    steps: int = 0
    step_seconds: list[float] = field(default_factory=list)
    ref_seconds: list[float] = field(default_factory=list)
    cap_hits: int = 0


def setup(wl: Workload, seed: int) -> Prepared:
    """Stream and config for ``wl``; the CLI builds its stream inside the run."""
    if wl.via_cli:
        config = cli.load_config(
            None,
            [
                f"seed={seed}",
                f"data.tasks={wl.tasks}",
                f"data.n_per_class={wl.n_per_class}",
                f"variants={json.dumps([wl.variant])}",
            ],
        )
        return Prepared(seed=seed, config=config)
    base = tasks.gen_synthetic_base(CLASSES, DIM, wl.n_per_class, seed=seed)
    stream = tasks.gen_permuted_tasks(base, T=wl.tasks, seed=seed + 1)
    cfg = trainer.TrainConfig(seed=seed, variant=cli.build_variant(wl.variant, PCA_K))
    return Prepared(seed=seed, stream=stream, cfg=cfg)


def run_sequence(wl: Workload, prepared: Prepared, out_dir: Path) -> Sequence:
    """Train the whole task sequence once; time it and hash its outputs."""
    if wl.via_cli:
        start = clock.now()
        cli.run_one_variant(prepared.config, wl.variant, prepared.seed, out_dir)
        seconds = clock.now() - start
        matrix = out_dir / "matrix.csv"
        R = cli.read_matrix_csv(matrix)
        return Sequence(
            seconds=seconds,
            R=R,
            digest=_digest(R.tobytes()),
            csv_digest=_digest(matrix.read_bytes()),
            output_bytes=sum(p.stat().st_size for p in out_dir.iterdir()),
        )
    start = clock.now()
    R, _ = trainer.train_sequence(prepared.stream, prepared.cfg)
    seconds = clock.now() - start
    return Sequence(seconds=seconds, R=R, digest=_digest(R.tobytes()))


def model_layout():
    """Parameter layout of the benchmark's model."""
    hidden = trainer.TrainConfig().hidden_sizes
    return MlpModel([DIM, *hidden, CLASSES]).layout


# times one set-up in a fresh interpreter, on the benchmark's clock, from
# before the first import of numpy and gradecomp to a ready stream and
# config, then the reference kernel right after it
_SETUP_PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from clock import now
start = now()
import json, workloads
workloads.setup(workloads.Workload(**json.loads(sys.argv[3])), int(sys.argv[4]))
seconds = now() - start
import statistics, reference
print(seconds, statistics.median(reference.time_once() for _ in range(25)))
"""


def setup_seconds(src: Path, wl: Workload, seed: int) -> float:
    """Set-up time in a fresh interpreter, imports included, over how much
    slower than quiet the machine ran then (``reference.py``)."""
    here = Path(__file__).resolve().parent
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(src), str(here),
         json.dumps(asdict(wl)), str(seed)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    seconds, ref = map(float, done.stdout.split()[-2:])
    return seconds * reference.SECONDS / ref


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
