"""Task-stream generators and CSV ingestion."""

import numpy as np
import pytest

from gradecomp.model import Batch, MlpModel
from gradecomp.tasks import (
    SCENARIO_DATA_INCREMENTAL,
    SCENARIO_PERMUTED,
    SCENARIO_SPLIT,
    gen_data_incremental_tasks,
    gen_permuted_tasks,
    gen_split_tasks,
    gen_synthetic_base,
    load_csv_dataset,
)


class TestSyntheticBase:
    def test_same_seed_identical(self):
        a = gen_synthetic_base(3, 8, 20, seed=5)
        b = gen_synthetic_base(3, 8, 20, seed=5)
        assert np.array_equal(a[0].inputs, b[0].inputs)
        assert np.array_equal(a[1].labels, b[1].labels)

    def test_split_arithmetic(self):
        train, test = gen_synthetic_base(3, 4, 10, seed=1)
        assert len(train) == 24
        assert len(test) == 6
        for c in range(3):
            assert (train.labels == c).sum() == 8
            assert (test.labels == c).sum() == 2

    def test_cluster_mean_norm(self):
        # class means land near the prescribed norm 3 sqrt(dim/classes)
        train, _ = gen_synthetic_base(3, 32, 400, seed=2)
        target = 3.0 * np.sqrt(32) / np.sqrt(3)
        for c in range(3):
            mean = train.inputs[train.labels == c].mean(axis=0)
            assert abs(np.linalg.norm(mean) - target) < 0.75

    def test_linear_classifier_separates(self):
        # plain SGD on a bias-free-architecture linear model must reach
        # high accuracy, confirming the clusters are genuinely separable
        train, test = gen_synthetic_base(3, 16, 100, seed=3)
        model = MlpModel([16, 3], seed=0)
        for _ in range(30):
            for start in range(0, len(train), 10):
                batch = Batch(
                    train.inputs[start: start + 10], train.labels[start: start + 10]
                )
                _, grad = model.loss_and_grad(batch)
                model.apply_update(grad, 0.05)
        assert model.evaluate(test) > 0.9

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_synthetic_base(1, 8, 10, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic_base(3, 1, 10, seed=0)


class TestPermutedTasks:
    def test_first_task_is_identity(self):
        base = gen_synthetic_base(3, 8, 12, seed=7)
        stream = gen_permuted_tasks(base, T=1, seed=9)
        assert len(stream) == 1
        assert np.array_equal(stream.tasks[0].train.inputs, base[0].inputs)
        assert np.array_equal(stream.tasks[0].test.inputs, base[1].inputs)

    def test_same_seed_identical_streams(self):
        base = gen_synthetic_base(3, 8, 12, seed=7)
        s1 = gen_permuted_tasks(base, T=4, seed=11)
        s2 = gen_permuted_tasks(base, T=4, seed=11)
        for t1, t2 in zip(s1.tasks, s2.tasks):
            assert np.array_equal(t1.train.inputs, t2.train.inputs)

    def test_permutation_is_invertible(self):
        base = gen_synthetic_base(3, 10, 15, seed=8)
        stream = gen_permuted_tasks(base, T=3, seed=12)
        for task in stream.tasks[1:]:
            # recover the permutation by matching whole columns, then undo it
            perm = []
            for col in range(10):
                matches = np.flatnonzero(
                    (base[0].inputs == task.train.inputs[:, [col]]).all(axis=0)
                )
                assert matches.size == 1
                perm.append(int(matches[0]))
            assert sorted(perm) == list(range(10))
            restored = np.empty_like(task.train.inputs)
            restored[:, perm] = task.train.inputs
            assert np.array_equal(restored, base[0].inputs)

    def test_labels_and_feature_multiset_preserved(self):
        base = gen_synthetic_base(3, 6, 10, seed=4)
        stream = gen_permuted_tasks(base, T=3, seed=5)
        for task in stream.tasks:
            assert np.array_equal(task.train.labels, base[0].labels)
            np.testing.assert_allclose(
                np.sort(task.train.inputs, axis=1), np.sort(base[0].inputs, axis=1)
            )

    def test_scenario_and_shared_classes(self):
        base = gen_synthetic_base(3, 6, 10, seed=4)
        stream = gen_permuted_tasks(base, T=2, seed=5)
        assert stream.scenario == SCENARIO_PERMUTED
        for task in stream.tasks:
            assert np.array_equal(task.class_subset, [0, 1, 2])


class TestSplitTasks:
    def test_disjoint_cover(self):
        base = gen_synthetic_base(6, 8, 20, seed=13)
        stream = gen_split_tasks(base, T=3, seed=14)
        assert stream.scenario == SCENARIO_SPLIT
        subsets = [set(t.class_subset.tolist()) for t in stream.tasks]
        assert all(len(s) == 2 for s in subsets)
        assert set().union(*subsets) == set(range(6))
        for i in range(3):
            for j in range(i + 1, 3):
                assert not subsets[i] & subsets[j]

    def test_single_task_is_base(self):
        base = gen_synthetic_base(4, 8, 10, seed=13)
        stream = gen_split_tasks(base, T=1, seed=2)
        assert np.array_equal(stream.tasks[0].train.inputs, base[0].inputs)

    def test_every_example_in_exactly_one_task(self):
        base = gen_synthetic_base(6, 8, 20, seed=15)
        stream = gen_split_tasks(base, T=2, seed=16)
        total = sum(len(t.train) for t in stream.tasks)
        assert total == len(base[0])
        for task in stream.tasks:
            assert np.isin(task.train.labels, task.class_subset).all()

    def test_indivisible_class_count_rejected(self):
        base = gen_synthetic_base(5, 8, 10, seed=17)
        with pytest.raises(ValueError, match="divisible"):
            gen_split_tasks(base, T=2, seed=18)


class TestDataIncrementalTasks:
    def test_shards_partition_training_data(self):
        base = gen_synthetic_base(3, 8, 25, seed=19)
        stream = gen_data_incremental_tasks(base, T=4, seed=20)
        assert stream.scenario == SCENARIO_DATA_INCREMENTAL
        sizes = [len(t.train) for t in stream.tasks]
        assert sum(sizes) == len(base[0])
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)
        for task in stream.tasks:
            assert np.array_equal(task.test.inputs, base[1].inputs)


class TestLoadCsvDataset:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_two_row_file_with_header(self, tmp_path):
        path = self.write(tmp_path, "f1,f2,label\n1.0,2.0,0\n3.0,4.0,1\n")
        train, test = load_csv_dataset(path, "label")
        assert train.inputs.shape[1] == 2
        assert len(train) + 0 == 2  # both rows land in train; test reuses them
        assert len(test) == 2

    def test_empty_data_section_rejected(self, tmp_path):
        path = self.write(tmp_path, "f1,f2,label\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv_dataset(path, "label")

    def test_three_inferred_classes(self, tmp_path):
        rows = ["a,b,y"] + [f"{i}.5,{i}.25,{i % 3}" for i in range(30)]
        path = self.write(tmp_path, "\n".join(rows) + "\n")
        train, test = load_csv_dataset(path, "y")
        labels = np.concatenate([train.labels, test.labels])
        assert set(labels.tolist()) == {0, 1, 2}

    def test_label_column_by_index(self, tmp_path):
        path = self.write(tmp_path, "1.0,0,5.0\n2.0,1,6.0\n3.0,0,7.0\n4.0,1,8.0\n")
        train, test = load_csv_dataset(path, 1)
        assert train.inputs.shape[1] == 2

    def test_non_numeric_cell_reports_position(self, tmp_path):
        path = self.write(tmp_path, "f1,f2,y\n1.0,oops,0\n")
        with pytest.raises(ValueError, match="row 1, column 2"):
            load_csv_dataset(path, "y")

    def test_non_finite_feature_reports_position(self, tmp_path):
        path = self.write(tmp_path, "f1,f2,y\n1.0,2.0,0\n3.0,nan,1\n")
        with pytest.raises(ValueError, match="row 2, column 2 is not a finite") as err:
            load_csv_dataset(path, "y")
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("label", ["1.5", "inf", "1e300"])
    def test_non_integer_label_reports_position(self, tmp_path, label):
        path = self.write(tmp_path, f"f1,f2,y\n1.0,2.0,0\n3.0,4.0,{label}\n")
        with pytest.raises(ValueError, match="row 2, column 3 is not an int64 integer") as err:
            load_csv_dataset(path, "y")
        assert str(path) in str(err.value)

    def test_integral_float_label_accepted(self, tmp_path):
        path = self.write(tmp_path, "f1,f2,y\n1.0,2.0,0.0\n3.0,4.0,1.0\n")
        train, _ = load_csv_dataset(path, "y")
        assert train.labels.tolist() == [0, 1]

    def test_unknown_label_column(self, tmp_path):
        path = self.write(tmp_path, "f1,f2,y\n1.0,2.0,0\n")
        with pytest.raises(ValueError, match="unknown label column"):
            load_csv_dataset(path, "target")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv_dataset(tmp_path / "nope.csv", 0)

    def test_standardization_uses_train_statistics(self, tmp_path):
        rng = np.random.default_rng(21)
        rows = []
        for i in range(40):
            rows.append(f"{rng.normal(5.0, 2.0)},{rng.normal(-3.0, 0.5)},{i % 2}")
        path = self.write(tmp_path, "\n".join(rows) + "\n")
        train, _ = load_csv_dataset(path, 2)
        np.testing.assert_allclose(train.inputs.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(train.inputs.std(axis=0), 1.0, atol=1e-12)
