"""One measured run of one workload.

An untraced run repeats the workload's task sequence, at one seed, until
the wall-time budget is spent (at least twice) and reports the
end-to-end metrics.  A traced run alternates untraced and traced
sequences (at least one of each, at most five traced), reports the
per-layer metrics from the traced ones, and takes the tracing overhead
as the difference of the two median sequence times.  The correctness
gate is installed in both.  Every reported time is read from the
benchmark's clock, the process CPU time (``clock.py``).

The output is correct when no step raised, gave a non-finite update or
violated a constraint, the accuracy matrix is well formed, and every
sequence of the run gave the same accuracy matrix (and, through the CLI,
the same ``matrix.csv`` bytes) and the same number of steps.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from gradecomp import metrics

import reference
import workloads
from gate import CAP_HIT, Gate
from spans import Tracer, per_layer_names

SETUP_REPS = 7
MIN_SEQUENCES = 2  # the determinism check compares two sequences at least
MAX_TRACED = 5  # bounds the spans kept in memory

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Outcome:
    """What one run measured: the result object (None when no sequence
    completed) and the lines printed beside it."""

    result: dict | None
    lines: list[str] = field(default_factory=list)
    tracer: Tracer | None = None
    plain: list[workloads.Sequence] = field(default_factory=list)
    traced: list[workloads.Sequence] = field(default_factory=list)
    gate_idle: bool = False


def measure(
    wl: workloads.Workload, seed: int, seconds: float, trace: bool, src: Path, out_root: Path
) -> Outcome:
    setup_samples = [] if trace else [
        workloads.setup_seconds(src, wl, seed) for _ in range(SETUP_REPS)
    ]
    out_dir = out_root / wl.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    gate = Gate()
    tracer = Tracer() if trace else None
    plain: list[workloads.Sequence] = []
    traced: list[workloads.Sequence] = []
    error = None
    deadline = time.perf_counter() + seconds
    last = 0.0
    gate.install()
    try:
        prepared = workloads.setup(wl, seed)
        # start another sequence only if one as long as the last still ends
        # within the budget, once the minimum has run; the budget is wall time
        while (
            len(plain) < (1 if trace else MIN_SEQUENCES)
            or (trace and not traced)
            or (time.perf_counter() + last < deadline and len(traced) < MAX_TRACED)
        ):
            start = time.perf_counter()
            if trace and len(traced) < len(plain):
                traced.append(_traced_sequence(wl, seed, gate, tracer, out_dir / f"traced{len(traced)}"))
            else:
                plain.append(_sequence(wl, prepared, gate, out_dir / f"plain{len(plain)}"))
            last = time.perf_counter() - start
    except Exception:
        error = traceback.format_exc()
    finally:
        gate.uninstall()

    sequences = plain + traced
    lines = [_environment(seed)]
    if error is not None:
        lines.append(f"error: {error.strip()}")
    lines.append(
        f"workload {wl.name}: variant {wl.variant}, T={wl.tasks}, "
        f"{wl.n_per_class} examples per class, "
        f"{len(plain)} untraced + {len(traced)} traced complete sequences"
    )
    lines.append(
        f"fail_frac {gate.failed_steps / max(gate.steps, 1):.6f} ratio "
        f"({gate.failed_steps} failed of {gate.steps} attempted steps; "
        f"by kind {dict(sorted(gate.failures.items()))}; "
        f"{gate.checked} updates checked)"
    )
    outcome = Outcome(
        result=None, lines=lines, tracer=tracer, plain=plain, traced=traced,
        gate_idle=wl.tasks > 1 and gate.checked == 0,
    )
    if not plain or (trace and not traced):
        lines.append("no complete sequence to measure")
        return outcome

    same = len({(s.digest, s.csv_digest, s.steps) for s in sequences}) == 1
    try:
        acc, bwt = metrics.acc(plain[0].R), metrics.bwt(plain[0].R)
    except ValueError as exc:
        lines.append(f"no valid accuracy matrix: {exc}")
        acc = bwt = None
    csv = f", matrix.csv sha256 {plain[0].csv_digest}" if wl.via_cli else ""
    lines.append(
        f"accuracy matrix sha256 {plain[0].digest}{csv}; determinism "
        f"{'ok' if same else 'MISMATCH'} over {len(sequences)} sequences of "
        f"{plain[0].steps} steps"
    )
    lines.append(f"acc {acc} fraction")
    lines.append(f"bwt {bwt} fraction")

    if trace:
        layout = workloads.model_layout()
        values = tracer.layer_metrics(len(traced), layout)
        values["solver.gem_qp_update.cap_hits"] = _mean(s.cap_hits for s in traced)
        values["cli.output_bytes"] = _mean(s.output_bytes for s in traced)
        values["trace.overhead_s"] = _median_seconds(traced) - _median_seconds(plain)
        units = per_layer_names([seg.name for seg in layout.segments])
        spans_path = out_root / f"spans-{wl.name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        lines.append(f"{len(tracer.spans)} spans written to {spans_path}")
    else:
        # the reference kernel timed before each step tells how much slower
        # than quiet the machine ran (reference.py).  run_s: each sequence's
        # time over the slowdown during that sequence, median over the run.
        # Step latencies: every sequence repeats the same work, so the
        # fastest repetition of each step is the least disturbed measurement
        # of it, and the fastest reference time before that step, taken the
        # same way, scales it
        n_steps = len(plain[0].step_seconds)
        full = [s for s in plain if len(s.step_seconds) == n_steps]
        run_slowdowns = [float(np.mean(s.ref_seconds)) / reference.SECONDS for s in full]
        run_s = statistics.median(s.seconds / k for s, k in zip(full, run_slowdowns))
        step_s = np.min([s.step_seconds for s in full], axis=0)
        ref_s = np.min([s.ref_seconds for s in full], axis=0)
        slowdown = float(ref_s.mean()) / reference.SECONDS
        step_ms = step_s * 1e3 / slowdown
        values = {
            "setup_s": statistics.median(setup_samples),
            "run_s": run_s,
            "step_ms_p50": float(np.percentile(step_ms, 50)),
            "step_ms_p95": float(np.percentile(step_ms, 95)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        lines.append(
            f"step latency: fastest of {len(full)} repetitions of each of {step_ms.size} "
            f"steps; setup_s: median of {SETUP_REPS} fresh interpreters"
        )
        lines.append(
            f"machine slowdown against a quiet machine: {min(run_slowdowns):.4f} to "
            f"{max(run_slowdowns):.4f} over the sequences, {slowdown:.4f} for the fastest "
            f"steps; before scaling: run_s {statistics.median(s.seconds for s in full):.6g} s, "
            f"step_ms_p50 {np.percentile(step_s, 50) * 1e3:.6g} ms, "
            f"step_ms_p95 {np.percentile(step_s, 95) * 1e3:.6g} ms"
        )
    outcome.result = {
        "correct": error is None and gate.hard_failures == 0 and same and acc is not None,
        "attempted": gate.steps,
        "failed": gate.failed_steps,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units},
    }
    lines += [f"{k} {m['value']:.6g} {m['unit']}" for k, m in outcome.result["metrics"].items()]
    return outcome


def _sequence(wl, prepared, gate, out_dir) -> workloads.Sequence:
    steps, caps, ref_total = gate.steps, gate.failures[CAP_HIT], gate.reference_total
    seq = workloads.run_sequence(wl, prepared, out_dir)
    seq.seconds -= gate.reference_total - ref_total
    seq.steps = gate.steps - steps
    seq.step_seconds = gate.step_seconds[steps:]
    seq.ref_seconds = gate.ref_seconds[steps:]
    seq.cap_hits = gate.failures[CAP_HIT] - caps
    return seq


def _traced_sequence(wl, seed, gate, tracer, out_dir) -> workloads.Sequence:
    """One sequence with spans recorded; the gate stays outermost."""
    gate.uninstall()
    tracer.install()
    gate.install()
    try:
        with tracer.span("perfbench.setup"):
            prepared = workloads.setup(wl, seed)
        with tracer.span("perfbench.sequence"):
            return _sequence(wl, prepared, gate, out_dir)
    finally:
        gate.uninstall()
        tracer.uninstall()
        gate.install()


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def _median_seconds(sequences) -> float:
    return statistics.median(s.seconds for s in sequences)


def _environment(seed: int) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"env: python {platform.python_version()}, numpy {np.__version__}, "
        f"blas {blas.get('name')} {blas.get('version')} with {_blas_threads()} thread(s), "
        f"nproc {os.cpu_count()}, seed {seed}"
    )


def _blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, where it can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return str(getter())
    return "unknown"
