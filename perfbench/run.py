"""gradecomp benchmark: one workload, one seed, one measured run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload ours-t20 --seed 1 --seconds 30 --trace 0

Prints a few descriptive lines and, as the last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Outputs of the run (CLI output directories, spans) go to
``.perfbench_out/`` under the checkout.  See ``perfbench/README.md``.

Exit codes: 0 with a result; 1 when a workload with memories checked no
update (the correctness gate is not reaching the solvers); 2 when the
checkout holds no gradecomp sources or an argument is invalid; 3 when no
task sequence completed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gradecomp" / "__init__.py").is_file():
        print(f"perfbench: no gradecomp sources under {SRC}", file=sys.stderr)
        return 2
    # one process and no added threads: BLAS runs on the calling thread.
    # Set before numpy is first imported; the set-up probes inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))

    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    outcome = bench.measure(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds,
        bool(args.trace), SRC, OUT,
    )
    for line in outcome.lines:
        print(line)
    if outcome.gate_idle:
        print("perfbench: the correctness gate checked no update", file=sys.stderr)
        return 1
    if outcome.result is None:
        return 3
    print(json.dumps(outcome.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
