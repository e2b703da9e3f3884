"""Batch experiment driver.

Verbs:

* ``run``      -- train every configured variant, write matrices and logs
* ``sweep-k``  -- repeat a principal-direction variant over ``sweep.k_values``
* ``verify``   -- run the property suites and report pass/fail
* ``report``   -- re-render summary tables from stored matrices

The config is one optional JSON file; any key can be overridden on the
command line as ``key.path=value`` (values are parsed as JSON, falling
back to plain strings).  Overrides always win.  The ``model`` and
``train`` defaults are those of ``trainer.TrainConfig``, which also decides
which ``seed``, ``seeds``, ``model`` and ``train`` values are valid;
``trainer.variant_from_name`` decides the variant names, ``pca_k`` and
``sweep.k_values``.  For those keys this module checks only the JSON
shape, such as a list where one is due; it checks the ``data`` keys itself.

Key tree with defaults:

    seed: 0                 run seed, an integer >= 0; data and training derive from it
    seeds: null             optional list of such seeds, used by sweep-k
    out_dir: "runs/out"
    data:
      source: "synthetic"   or "csv"
      scenario: "permuted_features" | "split_classes" | "data_incremental"
      classes: 3            synthetic only; at least 2
      dim: 32               synthetic only; at least 2
      n_per_class: 100      synthetic only; at least 2
      tasks: 5              divides the classes (split), <= train rows (shards), CSV too
      csv_path: null        csv only
      label_column: null    csv only (name or zero-based index)
    model:
      hidden_sizes: [100, 100]
    train:
      eta: 0.1
      bs_new: 10
      bs_old: 20
      memory_size: 256
      memory_policy: "ring" | "reservoir"
      replay_split_n: null  pool memories and re-split into n parts
    variants: ["a", "b", "d", "f"]
    pca_k: 2                k of a principal-direction variant named without one
    sweep:
      variant: "e"
      k_values: [1, 2, 3]

Variant names are read by ``trainer.variant_from_name``: the ablation
letters ``a``-``g`` or names of the form ``kind[+pca[N]][+lgu]``, such as
``single``, ``agem+lgu``, ``sgem``, ``gem``, ``ours``, ``ours+pca+lgu``.
Every name a run prints (e.g. ``ours+pca2+lgu``) is accepted.  A
principal-direction name without its own ``N`` takes ``pca_k``; the
``sweep-k`` variant must take its k from the sweep (``e``, ``g``,
``ours+pca`` or ``ours+pca+lgu``).

Exit codes: 0 success, 2 invalid config (message names the offending
key), 3 runtime failure (non-finite abort, file I/O, a malformed data file).

Per-variant outputs: ``matrix.csv`` (header row of task ids, one row per
step), ``summary.json`` (acc, bwt, iteration count, timing block),
``run_log.jsonl`` (one record per training iteration, no timings),
``manifest.json`` (config snapshot, seed, timestamps, output paths, code
version).  All outputs except the manifest timestamps and the summary's
timing block are byte-reproducible under a fixed seed.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, metrics, tasks, trainer, verify

DATA_SEED_OFFSET = 0
STREAM_SEED_OFFSET = 1

_TRAIN_DEFAULTS = trainer.TrainConfig()
# TrainConfig fields the config sets elsewhere: the run seed, the method
# from ``variants`` and the widths under ``model``
_NOT_TRAIN_KEYS = ("seed", "variant", "hidden_sizes")

DEFAULT_CONFIG = {
    "seed": 0,
    "seeds": None,
    "out_dir": "runs/out",
    "data": {
        "source": "synthetic",
        "scenario": tasks.SCENARIO_PERMUTED,
        "classes": 3,
        "dim": 32,
        "n_per_class": 100,
        "tasks": 5,
        "csv_path": None,
        "label_column": None,
    },
    "model": {
        "hidden_sizes": list(_TRAIN_DEFAULTS.hidden_sizes),
    },
    "train": {
        f.name: getattr(_TRAIN_DEFAULTS, f.name)
        for f in dataclasses.fields(trainer.TrainConfig)
        if f.name not in _NOT_TRAIN_KEYS
    },
    "variants": ["a", "b", "d", "f"],
    "pca_k": 2,
    "sweep": {
        "variant": "e",
        "k_values": [1, 2, 3],
    },
}

class ConfigError(Exception):
    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key {key!r}: {message}")


def _merge(base: dict, overlay: dict, prefix: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in overlay.items():
        path = f"{prefix}{key}"
        if key not in base:
            raise ConfigError(path, "unknown key")
        if isinstance(base[key], dict) and base[key]:
            if not isinstance(value, dict):
                raise ConfigError(path, f"expected an object, got {type(value).__name__}")
            out[key] = _merge(base[key], value, prefix=path + ".")
        else:
            out[key] = copy.deepcopy(value)
    return out


def _apply_override(config: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(assignment, "override must look like key.path=value")
    key_path, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key_path.split(".")
    for i, part in enumerate(parts[:-1]):
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(".".join(parts[: i + 1]), "unknown key")
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(key_path, "unknown key")
    if isinstance(node[leaf], dict):
        raise ConfigError(key_path, "cannot override a section with a scalar")
    node[leaf] = value


def load_config(path: str | None, overrides: list[str]) -> dict:
    return _load_config(path, overrides)[0]


def _load_config(path: str | None, overrides: list[str]):
    """The checked config, and the ``(train, test)`` pair of its CSV when
    ``data.source`` is ``"csv"`` (else ``None``): checking reads the file,
    so the run uses what was read instead of reading it again."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError("config", f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config", "top level must be a JSON object")
        config = _merge(config, user)
    for assignment in overrides:
        _apply_override(config, assignment)
    return config, _validate(config)


def _expect(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(key, message)


def _is_int(value) -> bool:
    """A JSON integer; ``true`` and ``false`` load as ``bool``, an ``int`` subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def _ask(key: str, owner, *args, **kwargs) -> None:
    """Build ``owner(*args, **kwargs)``; the setting's owner decides, and
    its ``ValueError`` names ``key``."""
    try:
        owner(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from exc


def _check_variant(name, pca_k: int, key: str) -> None:
    _expect(isinstance(name, str), key, "must be a string")
    _ask(key, trainer.variant_from_name, name, k=pca_k)


def _check_k(k, key: str) -> None:
    # variant_from_name reads a null k as "no k given"
    _expect(k is not None, key, "must be an integer")
    _ask(key, trainer.variant_from_name, "e", k=k)


def _validate(config: dict):
    """Raise ``ConfigError`` on the first invalid key; return the CSV's
    ``(train, test)`` pair, read to check ``data.tasks``, or ``None``."""
    _ask("seed", trainer.TrainConfig, seed=config["seed"])
    seeds = config["seeds"]
    if seeds is not None:
        _expect(isinstance(seeds, list) and seeds, "seeds", "must be a non-empty list")
        for seed in seeds:
            _ask("seeds", trainer.TrainConfig, seed=seed)
    data = config["data"]
    _expect(data["source"] in ("synthetic", "csv"), "data.source",
            "must be 'synthetic' or 'csv'")
    _expect(data["scenario"] in tasks.SCENARIOS, "data.scenario",
            f"must be one of {tasks.SCENARIOS}")
    for key in ("classes", "dim", "n_per_class", "tasks"):
        _expect(_is_int(data[key]) and data[key] >= 1, f"data.{key}",
                "must be a positive integer")
    if data["source"] == "synthetic":
        # the generator draws at least two clusters in two or more
        # dimensions and splits every class into train and test rows
        for key in ("classes", "dim", "n_per_class"):
            _expect(data[key] >= 2, f"data.{key}", "must be at least 2 for synthetic data")
        n_train = data["classes"] * tasks.train_rows_per_class(data["n_per_class"])
        _check_task_count(data, data["classes"], n_train)
    if data["source"] == "csv":
        _expect(isinstance(data["csv_path"], str), "data.csv_path",
                "required when data.source is 'csv'")
        label = data["label_column"]
        _expect(
            isinstance(label, str) or _is_int(label), "data.label_column",
            "required when data.source is 'csv' (column name or index)",
        )
        _expect(isinstance(label, str) or label >= 0, "data.label_column",
                "a column index must be non-negative")
    hidden = config["model"]["hidden_sizes"]
    _expect(isinstance(hidden, list), "model.hidden_sizes", "must be a list")
    _ask("model.hidden_sizes", trainer.TrainConfig, hidden_sizes=tuple(hidden))
    for key, value in config["train"].items():
        _ask(f"train.{key}", trainer.TrainConfig, **{key: value})
    _check_k(config["pca_k"], "pca_k")
    variants = config["variants"]
    _expect(isinstance(variants, list) and variants, "variants",
            "must be a non-empty list")
    for i, name in enumerate(variants):
        _check_variant(name, config["pca_k"], f"variants[{i}]")
    sweep = config["sweep"]
    _check_variant(sweep["variant"], config["pca_k"], "sweep.variant")
    k_values = sweep["k_values"]
    _expect(isinstance(k_values, list) and k_values, "sweep.k_values",
            "must be a non-empty list")
    for k in k_values:
        _check_k(k, "sweep.k_values")
    if data["source"] == "csv":
        # a CSV's class and row counts are known only once it is read, so
        # it is read after every other key has been checked; a file that
        # fails to load is a runtime failure, not a config error
        train, test = tasks.load_csv_dataset(data["csv_path"], data["label_column"])
        n_classes = np.unique(np.concatenate([train.labels, test.labels])).size
        _check_task_count(data, n_classes, len(train))
        return train, test
    return None


def _check_task_count(data: dict, n_classes: int, n_train: int) -> None:
    """``data.tasks`` against the dataset's class and training-row counts,
    by the rule of the scenario's task generator."""
    if data["scenario"] == tasks.SCENARIO_SPLIT:
        _expect(n_classes % data["tasks"] == 0, "data.tasks",
                f"must divide the class count ({n_classes}) "
                f"for {tasks.SCENARIO_SPLIT!r}")
    if data["scenario"] == tasks.SCENARIO_DATA_INCREMENTAL:
        _expect(data["tasks"] <= n_train, "data.tasks",
                f"must not exceed the {n_train} training rows to shard "
                f"for {tasks.SCENARIO_DATA_INCREMENTAL!r}")


def build_variant(name: str, pca_k: int) -> trainer.MethodVariant:
    """The method ``name`` selects; see :func:`trainer.variant_from_name`."""
    return trainer.variant_from_name(name, k=pca_k)


def build_stream(data_cfg: dict, seed: int, csv_data=None) -> tasks.TaskStream:
    """The task stream of ``data_cfg``; ``csv_data``, the ``(train, test)``
    pair of a CSV source already read, saves reading it again."""
    if data_cfg["source"] == "csv":
        base = csv_data or tasks.load_csv_dataset(
            data_cfg["csv_path"], data_cfg["label_column"]
        )
    else:
        base = tasks.gen_synthetic_base(
            classes=data_cfg["classes"],
            dim=data_cfg["dim"],
            n_per_class=data_cfg["n_per_class"],
            seed=seed + DATA_SEED_OFFSET,
        )
    T = data_cfg["tasks"]
    stream_seed = seed + STREAM_SEED_OFFSET
    scenario = data_cfg["scenario"]
    if scenario == tasks.SCENARIO_PERMUTED:
        return tasks.gen_permuted_tasks(base, T, stream_seed)
    if scenario == tasks.SCENARIO_SPLIT:
        return tasks.gen_split_tasks(base, T, stream_seed)
    return tasks.gen_data_incremental_tasks(base, T, stream_seed)


def build_train_config(config: dict, variant: trainer.MethodVariant, seed: int):
    return trainer.TrainConfig(
        **config["train"],
        hidden_sizes=tuple(config["model"]["hidden_sizes"]),
        seed=seed,
        variant=variant,
    )


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the 64-bit value."""
    return repr(float(x))


def write_matrix_csv(path: Path, R: np.ndarray) -> None:
    T = R.shape[0]
    lines = ["step," + ",".join(str(i + 1) for i in range(T))]
    for t in range(T):
        cells = [str(t + 1)]
        for i in range(T):
            cells.append(_fmt(R[t, i]) if i <= t else "")
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_matrix_csv(path: Path) -> np.ndarray:
    """The matrix :func:`write_matrix_csv` wrote: a ``step,1,...,T`` header
    and T rows, row t reading ``t`` and then t values and T - t empty
    cells.  Any other layout raises ``ValueError`` naming the file and row."""
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",") if lines else []
    T = len(header) - 1
    if T < 1 or header != ["step", *(str(i + 1) for i in range(T))]:
        raise ValueError(f"{path}: the header must read step,1,...,T")
    if len(lines) != T + 1:
        raise ValueError(f"{path}: {len(lines) - 1} rows under a header of {T} tasks")
    R = np.full((T, T), np.nan)
    for t, line in enumerate(lines[1:]):
        step, *cells = line.split(",")
        if step != str(t + 1) or [bool(c) for c in cells] != [i <= t for i in range(T)]:
            raise ValueError(
                f"{path}: row {t + 1} must be its step number, {t + 1} filled "
                f"and {T - t - 1} empty cells"
            )
        try:
            R[t, : t + 1] = [float(c) for c in cells[: t + 1]]
        except ValueError as exc:
            raise ValueError(f"{path}: row {t + 1}: {exc}") from None
    return R


def write_run_log(path: Path, log: list[trainer.StepTrace]) -> None:
    """One JSON record per step, without ``solver_seconds``: the log holds
    only deterministic fields, and the solver timings are summed into the
    ``timing`` block of ``summary.json``."""
    with open(path, "w", encoding="utf-8") as fh:
        for trace in log:
            record = {k: v for k, v in vars(trace).items() if k != "solver_seconds"}
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def run_one_variant(
    config: dict, variant_name: str, seed: int, out_dir: Path, csv_data=None
) -> dict:
    variant = build_variant(variant_name, config["pca_k"])
    stream = build_stream(config["data"], seed, csv_data)
    cfg = build_train_config(config, variant, seed)

    started = _now()
    t0 = time.perf_counter()
    R, log = trainer.train_sequence(stream, cfg)
    wall = time.perf_counter() - t0
    finished = _now()

    out_dir.mkdir(parents=True, exist_ok=True)
    matrix_path = out_dir / "matrix.csv"
    summary_path = out_dir / "summary.json"
    log_path = out_dir / "run_log.jsonl"
    manifest_path = out_dir / "manifest.json"

    write_matrix_csv(matrix_path, R)
    write_run_log(log_path, log)
    solver_total = float(sum(t.solver_seconds for t in log))
    summary = {
        "variant": variant_name,
        "seed": seed,
        "n_tasks": len(stream),
        "iterations": len(log),
        "acc": metrics.acc(R),
        "bwt": metrics.bwt(R),
        "timing": {
            "wall_clock_seconds": wall,
            "solver_seconds_total": solver_total,
            "solver_seconds_mean": solver_total / max(len(log), 1),
        },
    }
    summary_path.write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    manifest = {
        "code_version": __version__,
        "variant": variant_name,
        "seed": seed,
        "started_at": started,
        "finished_at": finished,
        "config": config,
        "outputs": {
            "matrix_csv": str(matrix_path),
            "summary_json": str(summary_path),
            "run_log_jsonl": str(log_path),
        },
    }
    manifest_path.write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return summary


def _load_args_config(args):
    """:func:`_load_config` of the config named by ``args``; a first
    positional that looks like ``key=value`` and names no file is the
    first override."""
    path, overrides = args.config, args.overrides
    if path is not None and "=" in path and not Path(path).is_file():
        path, overrides = None, [path, *overrides]
    return _load_config(path, overrides)


def cmd_run(args) -> int:
    config, csv_data = _load_args_config(args)
    out_root = Path(config["out_dir"])
    print(f"run: {len(config['variants'])} variant(s), seed {config['seed']}")
    for name in config["variants"]:
        out_dir = out_root / name.replace("+", "_")
        summary = run_one_variant(config, name, config["seed"], out_dir, csv_data)
        bwt_s = "n/a" if summary["bwt"] is None else f"{summary['bwt']:+.4f}"
        print(
            f"  {name:>14}: acc {summary['acc']:.4f}  bwt {bwt_s}  "
            f"wall {summary['timing']['wall_clock_seconds']:.2f}s  -> {out_dir}"
        )
    return 0


def cmd_sweep_k(args) -> int:
    config, csv_data = _load_args_config(args)
    sweep = config["sweep"]
    variant_name = sweep["variant"].lower()
    k_values = sweep["k_values"]
    if any(trainer.variant_from_name(variant_name, k).pca_k != k for k in k_values):
        raise ConfigError(
            "sweep.variant",
            "must be a principal-direction variant that takes k from the sweep "
            f"(e, g, ours+pca or ours+pca+lgu), got {variant_name!r}",
        )
    seeds = config["seeds"] or [config["seed"]]
    T = config["data"]["tasks"]
    if T < 2:
        raise ConfigError("data.tasks", "sweep needs at least two tasks")
    # m memories give a specific matrix of rank at most m - 1
    n_memories = config["train"]["replay_split_n"] or T - 1
    max_rank = max(1, n_memories - 1)

    effective: list[int] = []
    for k in k_values:
        clamped = min(k, max_rank)
        if clamped != k:
            print(f"note: k={k} exceeds the maximal constraint rank; clamped to {clamped}")
        if clamped not in effective:
            effective.append(clamped)

    out_root = Path(config["out_dir"])
    out_root.mkdir(parents=True, exist_ok=True)
    rows = []
    started = _now()
    for k in effective:
        accs, bwts = [], []
        for seed in seeds:
            cfg_k = copy.deepcopy(config)
            cfg_k["pca_k"] = int(k)
            out_dir = out_root / f"k{k}" / f"seed{seed}"
            summary = run_one_variant(cfg_k, variant_name, seed, out_dir, csv_data)
            accs.append(summary["acc"])
            bwts.append(summary["bwt"])
        rows.append((k, float(np.mean(accs)), float(np.mean(bwts))))
        print(f"  k={k}: mean acc {rows[-1][1]:.4f}  mean bwt {rows[-1][2]:+.4f}")

    csv_path = out_root / "sweep_k.csv"
    lines = ["k,acc,bwt"]
    for k, a, b in rows:
        lines.append(f"{k},{_fmt(a)},{_fmt(b)}")
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = {
        "code_version": __version__,
        "sweep_variant": variant_name,
        "k_values_requested": list(k_values),
        "k_values_effective": effective,
        "seeds": seeds,
        "started_at": started,
        "finished_at": _now(),
        "config": config,
        "outputs": {"sweep_csv": str(csv_path)},
    }
    (out_root / "sweep_manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"sweep written to {csv_path}")
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all_suites()
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail} ({res.checked} instances)")
        if not res.passed:
            failures += 1
            if res.failing_case is not None:
                out = Path(args.out_dir) / f"verify_failed_{res.name}.json"
                out.parent.mkdir(parents=True, exist_ok=True)
                out.write_text(
                    json.dumps(res.failing_case, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8",
                )
                print(f"     failing instance written to {out}")
    print(f"{len(results) - failures}/{len(results)} property suites passed")
    return 0 if failures == 0 else 1


def cmd_report(args) -> int:
    root = Path(args.out_dir)
    if not root.is_dir():
        raise ConfigError("out_dir", f"{root} is not a directory")
    matrices = sorted(root.glob("**/matrix.csv"))
    if not matrices:
        raise ConfigError("out_dir", f"no matrix.csv files under {root}")
    print(f"{'run':<40} {'tasks':>5} {'acc':>8} {'bwt':>8}")
    for path in matrices:
        R = read_matrix_csv(path)
        label = str(path.parent.relative_to(root)) or "."
        b = metrics.bwt(R)
        bwt_s = "n/a" if b is None else f"{b:+.4f}"
        print(f"{label:<40} {R.shape[0]:>5} {metrics.acc(R):>8.4f} {bwt_s:>8}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradecomp",
        description="continual-learning experiments with decomposed gradient updates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train the configured variants")
    p_run.add_argument("config", nargs="?", default=None, help="JSON config file")
    p_run.add_argument("overrides", nargs="*", default=[], help="key.path=value")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep-k", help="sweep the principal-direction count")
    p_sweep.add_argument("config", nargs="?", default=None)
    p_sweep.add_argument("overrides", nargs="*", default=[])
    p_sweep.set_defaults(func=cmd_sweep_k)

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument("--out-dir", default=".",
                          help="where to write failing instances")
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="summarize stored matrices")
    p_report.add_argument("out_dir", help="directory containing run outputs")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, OSError, ValueError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
