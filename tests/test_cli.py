"""CLI verbs, config handling, output files, and the verify suites."""

import dataclasses
import json

import numpy as np
import pytest

from gradecomp import cli, tasks, trainer
from gradecomp.metrics import acc, bwt


def write_config(tmp_path, **overrides):
    config = {
        "seed": 3,
        "out_dir": str(tmp_path / "out"),
        "data": {"classes": 3, "dim": 6, "n_per_class": 20, "tasks": 2},
        "model": {"hidden_sizes": [8]},
        "train": {"memory_size": 16},
        "variants": ["a"],
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestConfigHandling:
    def test_defaults_load_without_file(self):
        config = cli.load_config(None, [])
        assert config["train"]["eta"] == 0.1
        assert config["train"]["bs_new"] == 10
        assert config["train"]["bs_old"] == 20
        assert config["train"]["memory_size"] == 256

    def test_defaults_are_train_config_defaults(self):
        config = cli.load_config(None, [])
        built = cli.build_train_config(config, trainer.variant_single(), seed=0)
        assert built == trainer.TrainConfig()

    def test_key_tree_names_exactly_the_default_keys(self):
        tree = cli.__doc__.split("Key tree with defaults:\n\n", 1)[1].split("\n\n", 1)[0]
        documented = set()
        for line in tree.splitlines():
            key = line.split(":", 1)[0].strip()
            if len(line) - len(line.lstrip()) == 4:
                section = key
                documented.add(key)
            else:
                documented.add(f"{section}.{key}")

        def paths(config, prefix=""):
            for key, value in config.items():
                yield prefix + key
                if isinstance(value, dict):
                    yield from paths(value, prefix + key + ".")

        assert documented == set(paths(cli.DEFAULT_CONFIG))

    @pytest.mark.parametrize(
        "section, key",
        [("model", "per_tensor_layout"), ("train", "epochs"), ("train", "multi_head")],
    )
    def test_removed_key_exit_2(self, tmp_path, capsys, section, key):
        path = write_config(tmp_path, **{section: {key: 1}})
        assert cli.main(["run", str(path)]) == 2
        assert f"config key '{section}.{key}': unknown key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_key_is_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"train": {"etaa": 0.5}}', encoding="utf-8")
        with pytest.raises(cli.ConfigError) as err:
            cli.load_config(path, [])
        assert "train.etaa" in str(err.value)

    def test_override_wins(self, tmp_path):
        path = write_config(tmp_path)
        config = cli.load_config(path, ["train.eta=0.05", "data.tasks=4"])
        assert config["train"]["eta"] == 0.05
        assert config["data"]["tasks"] == 4

    def test_override_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path)
        with pytest.raises(cli.ConfigError) as err:
            cli.load_config(path, ["train.nope=1"])
        assert "train.nope" in str(err.value)

    def test_overrides_without_config_file(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main([
            "run", "seed=5", f"out_dir={out}", "data.tasks=2", "data.n_per_class=10",
            "model.hidden_sizes=[4]", 'variants=["a"]',
        ])
        assert code == 0
        assert json.loads((out / "a" / "manifest.json").read_text())["seed"] == 5

    @pytest.mark.parametrize(
        "override, key",
        [
            ("seed=true", "seed"),
            ("seeds=[1,true]", "seeds"),
            ("data.tasks=true", "data.tasks"),
            ("data.n_per_class=false", "data.n_per_class"),
            ("model.hidden_sizes=[8,true]", "model.hidden_sizes"),
            ("train.eta=true", "train.eta"),
            ("train.bs_new=true", "train.bs_new"),
            ("train.replay_split_n=true", "train.replay_split_n"),
            ("pca_k=true", "pca_k"),
            ("sweep.k_values=[true]", "sweep.k_values"),
            ("data.label_column=true", "data.label_column"),
        ],
    )
    def test_boolean_for_a_number_exit_2(self, tmp_path, capsys, override, key):
        # JSON true/false load as Python bool, a subclass of int
        code = cli.main([
            "run", f"out_dir={tmp_path / 'out'}", "data.source=csv",
            f"data.csv_path={tmp_path / 'd.csv'}", "data.label_column=0", override,
        ])
        assert code == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("eta", ["Infinity", "-Infinity", "NaN", "1e400", "0"])
    def test_non_finite_or_non_positive_eta_exit_2(self, tmp_path, capsys, eta):
        code = cli.main(["run", f"out_dir={tmp_path / 'out'}", f"train.eta={eta}"])
        assert code == 2
        assert "config key 'train.eta'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, key",
        [
            (["data.classes=1"], "data.classes"),
            (["data.dim=1"], "data.dim"),
            (["data.n_per_class=1"], "data.n_per_class"),
            (["data.scenario=split_classes", "data.classes=3", "data.tasks=2"], "data.tasks"),
            (["train.memory_policy=fifo"], "train.memory_policy"),
            (
                ["data.scenario=data_incremental", "data.classes=2",
                 "data.n_per_class=2", "data.tasks=5"],
                "data.tasks",
            ),
        ],
    )
    def test_unusable_data_or_policy_exit_2(self, tmp_path, capsys, overrides, key):
        code = cli.main(["run", f"out_dir={tmp_path / 'out'}", *overrides])
        assert code == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "scenario, tasks", [("split_classes", 2), ("data_incremental", 7)]
    )
    def test_csv_task_count_exit_2_before_any_output(self, tmp_path, capsys,
                                                      scenario, tasks):
        # 6 rows of 3 classes: 3 classes do not split into 2 tasks, and
        # the 3 training rows do not shard into 7
        csv_path = tmp_path / "d.csv"
        csv_path.write_text(
            "x0,label\n0.1,0\n0.2,0\n1.1,1\n1.2,1\n2.1,2\n2.2,2\n", encoding="utf-8"
        )
        code = cli.main([
            "run", f"out_dir={tmp_path / 'out'}", "data.source=csv",
            f"data.csv_path={csv_path}", "data.label_column=label",
            f"data.scenario={scenario}", f"data.tasks={tasks}",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "config key 'data.tasks'" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    # one invalid value per TrainConfig field the config sets; a field
    # added without a key or a rule fails here
    INVALID_SETTING = {
        "eta": 0, "bs_new": 0, "bs_old": 2.5, "memory_size": -1,
        "hidden_sizes": [0], "seed": -1, "memory_policy": "fifo",
        "replay_split_n": 0,
    }

    @pytest.mark.parametrize(
        "field",
        [f.name for f in dataclasses.fields(trainer.TrainConfig) if f.name != "variant"],
    )
    def test_every_train_config_field_is_checked(self, tmp_path, capsys, field):
        key = {"seed": "seed", "hidden_sizes": "model.hidden_sizes"}.get(
            field, f"train.{field}")
        value = json.dumps(self.INVALID_SETTING[field])
        code = cli.main(["run", f"out_dir={tmp_path / 'out'}", f"{key}={value}"])
        assert code == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, key",
        [(["run", "seed=-1"], "seed"), (["sweep-k", "seeds=[1,-3]"], "seeds")],
    )
    def test_negative_seed_exit_2_before_any_output(self, tmp_path, capsys, argv, key):
        code = cli.main([*argv, f"out_dir={tmp_path / 'out'}", "data.tasks=3"])
        assert code == 2
        captured = capsys.readouterr()
        assert f"config key {key!r}" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_unknown_variant_name_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, variants=["a", "warp"])
        code = cli.main(["run", str(path)])
        assert code == 2
        assert "variants[1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, key",
        [
            ('variants=["a","sgem+lgu"]', "variants[1]"),
            ('variants=["gem+pca2"]', "variants[0]"),
            ('variants=["ours+pca0"]', "variants[0]"),
            ("sweep.variant=warp", "sweep.variant"),
        ],
    )
    def test_invalid_variant_exit_2(self, tmp_path, capsys, override, key):
        code = cli.main(["run", f"out_dir={tmp_path / 'out'}", override])
        assert code == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_label_column_exit_2(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("x0,label\n0.5,0\n1.5,1\n", encoding="utf-8")
        code = cli.main([
            "run", f"out_dir={tmp_path / 'out'}", "data.source=csv",
            f"data.csv_path={csv_path}", "data.label_column=-1",
        ])
        assert code == 2
        assert "config key 'data.label_column'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCmdRun:
    def test_smoke_run_writes_outputs(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.main(["run", str(path)]) == 0
        out = tmp_path / "out" / "a"
        matrix = (out / "matrix.csv").read_text().strip().splitlines()
        assert matrix[0] == "step,1,2"
        assert len(matrix) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["acc"] <= 1.0
        assert summary["iterations"] > 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["config"]["data"]["tasks"] == 2
        assert "started_at" in manifest and "finished_at" in manifest
        log_lines = (out / "run_log.jsonl").read_text().strip().splitlines()
        assert len(log_lines) == summary["iterations"]
        record = json.loads(log_lines[0])
        assert {"task", "iteration", "loss_new"} <= set(record)
        assert "solver_seconds" not in record
        assert summary["timing"]["solver_seconds_total"] >= 0.0

    def test_repeat_runs_byte_identical_csv(self, tmp_path):
        path = write_config(tmp_path, variants=["d"])
        out = tmp_path / "out" / "d"
        assert cli.main(["run", str(path)]) == 0
        first = (out / "matrix.csv").read_bytes()
        first_log = (out / "run_log.jsonl").read_bytes()
        first_summary = json.loads((out / "summary.json").read_text())
        assert cli.main(["run", str(path)]) == 0
        second = (out / "matrix.csv").read_bytes()
        second_log = (out / "run_log.jsonl").read_bytes()
        second_summary = json.loads((out / "summary.json").read_text())
        assert first == second
        assert first_log == second_log
        first_summary.pop("timing")
        second_summary.pop("timing")
        assert first_summary == second_summary

    def test_csv_data_source(self, tmp_path):
        rng = np.random.default_rng(42)
        rows = ["x0,x1,x2,label"]
        for i in range(60):
            c = i % 3
            feats = rng.standard_normal(3) + 4.0 * c
            rows.append(",".join(f"{v:.6f}" for v in feats) + f",{c}")
        csv_path = tmp_path / "points.csv"
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        path = write_config(
            tmp_path,
            data={
                "source": "csv",
                "csv_path": str(csv_path),
                "label_column": "label",
                "tasks": 2,
            },
        )
        assert cli.main(["run", str(path)]) == 0
        summary = json.loads((tmp_path / "out" / "a" / "summary.json").read_text())
        assert summary["n_tasks"] == 2
        assert 0.0 <= summary["acc"] <= 1.0

    @pytest.mark.parametrize("verb", ["run", "sweep-k"])
    def test_csv_read_once_per_invocation(self, tmp_path, monkeypatch, verb):
        rng = np.random.default_rng(43)
        rows = ["x0,x1,label"] + [
            f"{rng.standard_normal():.6f},{rng.standard_normal() + 3.0 * (i % 3):.6f},{i % 3}"
            for i in range(30)
        ]
        csv_path = tmp_path / "points.csv"
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        path = write_config(
            tmp_path,
            seeds=[3, 4],
            variants=["a", "b", "d", "f"],
            data={"source": "csv", "csv_path": str(csv_path), "label_column": "label",
                  "tasks": 3},
            sweep={"variant": "e", "k_values": [1]},
        )
        loads = []
        load = tasks.load_csv_dataset

        def counting(*args):
            loads.append(args)
            return load(*args)

        monkeypatch.setattr(tasks, "load_csv_dataset", counting)
        assert cli.main([verb, str(path)]) == 0
        assert len(loads) == 1
        if verb == "run":
            # the same bytes as runs that read the file themselves
            config = cli.load_config(str(path), [])
            for name in config["variants"]:
                ref = tmp_path / "ref" / name
                cli.run_one_variant(config, name, config["seed"], ref)
                for output in ("matrix.csv", "run_log.jsonl"):
                    out = tmp_path / "out" / name / output
                    assert out.read_bytes() == (ref / output).read_bytes()
            assert len(loads) == 6  # load_config and each reference run read it

    def test_bad_csv_cell_exit_3(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("x0,label\n0.5,0\n1.5,inf\n", encoding="utf-8")
        code = cli.main([
            "run", f"out_dir={tmp_path / 'out'}", "data.source=csv",
            f"data.csv_path={csv_path}", "data.label_column=label",
        ])
        assert code == 3
        assert f"{csv_path}: cell 'inf' at row 2, column 2" in capsys.readouterr().err

    def test_printed_variant_name_runs(self, tmp_path):
        path = write_config(tmp_path, data={"tasks": 3})
        assert cli.main(["run", str(path), 'variants=["ours+pca2+lgu"]']) == 0
        summary = json.loads((tmp_path / "out" / "ours_pca2_lgu" / "summary.json").read_text())
        assert summary["variant"] == "ours+pca2+lgu"

    def test_matrix_csv_round_trips_metrics(self, tmp_path):
        path = write_config(tmp_path, variants=["b"], data={"tasks": 3})
        assert cli.main(["run", str(path)]) == 0
        out = tmp_path / "out" / "b"
        R = cli.read_matrix_csv(out / "matrix.csv")
        summary = json.loads((out / "summary.json").read_text())
        assert acc(R) == summary["acc"]
        assert bwt(R) == summary["bwt"]


class TestCmdSweepK:
    def test_two_row_csv(self, tmp_path):
        path = write_config(
            tmp_path,
            variants=["e"],
            data={"tasks": 4},
            sweep={"variant": "e", "k_values": [1, 2]},
        )
        assert cli.main(["sweep-k", str(path)]) == 0
        lines = (tmp_path / "out" / "sweep_k.csv").read_text().strip().splitlines()
        assert lines[0] == "k,acc,bwt"
        assert len(lines) == 3
        manifest = json.loads((tmp_path / "out" / "sweep_manifest.json").read_text())
        assert manifest["k_values_effective"] == [1, 2]

    def test_oversized_k_clamped_and_noted(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            data={"tasks": 4},
            sweep={"variant": "e", "k_values": [1, 50]},
        )
        assert cli.main(["sweep-k", str(path)]) == 0
        out = capsys.readouterr().out
        assert "clamped to 2" in out
        lines = (tmp_path / "out" / "sweep_k.csv").read_text().strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]

    @pytest.mark.parametrize(
        "tasks, split_n, k, effective",
        [(3, 5, 4, 4), (4, 2, 3, 1)],  # five memories give rank 4, two give 1
    )
    def test_clamp_follows_replay_split(self, tmp_path, capsys, tasks, split_n, k, effective):
        path = write_config(
            tmp_path,
            data={"tasks": tasks},
            train={"memory_size": 16, "replay_split_n": split_n},
            sweep={"variant": "e", "k_values": [k]},
        )
        assert cli.main(["sweep-k", str(path)]) == 0
        assert ("clamped" in capsys.readouterr().out) == (effective != k)
        manifest = json.loads((tmp_path / "out" / "sweep_manifest.json").read_text())
        assert manifest["k_values_effective"] == [effective]

    def test_non_pca_variant_rejected(self, tmp_path):
        path = write_config(tmp_path, sweep={"variant": "d", "k_values": [1]})
        assert cli.main(["sweep-k", str(path)]) == 2

    def test_variant_with_its_own_k_rejected(self, tmp_path, capsys):
        # the sweep would run k=3 under every row's k
        path = write_config(tmp_path, data={"tasks": 4})
        code = cli.main(["sweep-k", str(path), "sweep.variant=ours+pca3"])
        assert code == 2
        assert "config key 'sweep.variant'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_non_positive_k_value_exit_2(self, tmp_path, capsys, k):
        path = write_config(tmp_path, data={"tasks": 4}, sweep={"variant": "e"})
        code = cli.main(["sweep-k", str(path), f"sweep.k_values=[1,{k}]"])
        assert code == 2
        assert "config key 'sweep.k_values'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCmdVerify:
    def test_fresh_build_passes(self, tmp_path, capsys):
        assert cli.main(["verify", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        # every suite on its own line: the basis kernel training uses and
        # its QR fallback, the first with its margins to its bars
        for name in (
            "solver_vs_oracle", "projection_psd", "decomposition_zero_sum",
            "gradient_check", "constraint_feasibility",
            "basis_adversarial[orthonormal_basis]",
            "basis_adversarial[modified_gram_schmidt]", "gem_exact",
        ):
            assert f"PASS {name}:" in out
        gram_line = next(line for line in out.splitlines() if "[orthonormal_basis]" in line)
        assert "of its bar" in gram_line and "of 1e-12" in gram_line
        assert "8/8 property suites passed" in out.splitlines()

    def test_mutated_solver_detected(self, monkeypatch, tmp_path, capsys):
        # flip the sign of the reflect-branch correction: the oracle
        # comparison must catch the disagreement
        from gradecomp import linalg, solver
        from gradecomp.solver import UpdateResult, PROJECT_AND_REFLECT, PROJECT_ONLY

        def broken(g, g_bar, B):
            Pg = linalg.apply_projection(B, g)
            align = float(g_bar @ Pg)
            if align >= 0.0:
                return UpdateResult(w=Pg, branch=PROJECT_ONLY, shared_alignment=align)
            Pgb = linalg.apply_projection(B, g_bar)
            denom = float(g_bar @ Pgb)
            w = Pg + (align / denom) * Pgb  # wrong sign
            return UpdateResult(
                w=w, branch=PROJECT_AND_REFLECT, shared_alignment=align
            )

        monkeypatch.setattr(solver, "solve_update", broken)
        code = cli.main(["verify", "--out-dir", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        failures = list(tmp_path.glob("verify_failed_*.json"))
        assert failures, "failing instance should be serialized for replay"
        case = json.loads(failures[0].read_text())
        assert "g" in case and "old_grads" in case

    def test_mutated_gem_solver_detected(self, monkeypatch, tmp_path, capsys):
        # re-solve without the last constraint active at the optimum: the
        # comparison with enumerated active sets must catch it
        from gradecomp import solver

        exact = solver.gem_qp_update

        def drops_last_active(g, old_grads):
            G = np.asarray(old_grads, dtype=np.float64)
            w = exact(g, G)
            tight = np.abs(G @ w) <= 1e-9 * np.linalg.norm(G, axis=1) * np.linalg.norm(g)
            active = np.flatnonzero(tight & (G @ g < 0.0))
            if active.size == 0:
                return w
            return exact(g, np.delete(G, active[-1], axis=0))

        monkeypatch.setattr(solver, "gem_qp_update", drops_last_active)
        assert cli.main(["verify", "--out-dir", str(tmp_path)]) == 1
        assert "FAIL gem_exact" in capsys.readouterr().out
        case = json.loads((tmp_path / "verify_failed_gem_exact.json").read_text())
        assert "g" in case and "old_grads" in case


class TestCmdReport:
    def test_report_renders_stored_matrices(self, tmp_path, capsys):
        path = write_config(tmp_path, variants=["a", "b"])
        assert cli.main(["run", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["report", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "a" in out and "b" in out
        assert out.count("0.") >= 2

    def test_report_missing_directory_exit_2(self, tmp_path):
        assert cli.main(["report", str(tmp_path / "missing")]) == 2

    @pytest.mark.parametrize(
        "text, where",
        [
            ("step,1\n1,0.5,0.7\n", "row 1"),
            ("step,1,2\n1,0.5,\n", "1 rows under a header of 2 tasks"),
            ("step,1\n1,abc\n", "row 1"),
            ("step,2\n1,0.5\n", "header"),
            ("step,1,2\n1,0.5,\n3,0.4,0.9\n", "row 2"),
            ("step,1,2\n1,0.5,0.6\n2,0.4,0.9\n", "row 1"),
            ("step,1,2\n1,0.5,\n2,,0.9\n", "row 2"),
        ],
        ids=["extra-cell", "truncated", "not-a-number", "header", "wrong-step",
             "above-diagonal", "hole-below-diagonal"],
    )
    def test_malformed_matrix_exit_3_naming_file_and_row(self, tmp_path, capsys, text, where):
        path = tmp_path / "run" / "matrix.csv"
        path.parent.mkdir()
        path.write_text(text, encoding="utf-8")
        assert cli.main(["report", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"runtime failure: {path}: " in err
        assert where in err


class TestFormatting:
    def test_shortest_round_trip_floats(self):
        for value in (0.1, 1 / 3, 0.9833333333333333, 1.0, 0.0):
            assert float(cli._fmt(value)) == value
        assert cli._fmt(0.5) == "0.5"

    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(800)
        T = 4
        R = np.full((T, T), np.nan)
        for t in range(T):
            R[t, : t + 1] = rng.uniform(0, 1, size=t + 1)
        path = tmp_path / "m.csv"
        cli.write_matrix_csv(path, R)
        back = cli.read_matrix_csv(path)
        for t in range(T):
            assert np.array_equal(back[t, : t + 1], R[t, : t + 1])
            assert np.isnan(back[t, t + 1:]).all()
