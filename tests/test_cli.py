"""CLI verbs, config handling, output files, and the verify suites."""

import json

import numpy as np
import pytest

from gradecomp import cli, verify
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
        assert {"task", "iteration", "loss_new", "solver_seconds"} <= set(record)

    def test_repeat_runs_byte_identical_csv(self, tmp_path):
        path = write_config(tmp_path, variants=["d"])
        assert cli.main(["run", str(path)]) == 0
        first = (tmp_path / "out" / "d" / "matrix.csv").read_bytes()
        first_summary = json.loads((tmp_path / "out" / "d" / "summary.json").read_text())
        assert cli.main(["run", str(path)]) == 0
        second = (tmp_path / "out" / "d" / "matrix.csv").read_bytes()
        second_summary = json.loads((tmp_path / "out" / "d" / "summary.json").read_text())
        assert first == second
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
    def test_non_positive_k_flag_exit_2(self, tmp_path, capsys, k):
        path = write_config(tmp_path, data={"tasks": 4}, sweep={"variant": "e"})
        code = cli.main(["sweep-k", str(path), "--k", "1", k])
        assert code == 2
        assert "config key '--k'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCmdVerify:
    def test_fresh_build_passes(self, tmp_path, capsys):
        assert cli.main(["verify", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 4
        assert "FAIL" not in out

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

    def test_report_lists_at_least_four_suites(self, capsys):
        results = verify.run_all_suites()
        assert len(results) >= 4
        assert all(r.passed for r in results)


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
