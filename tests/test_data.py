import re

import numpy as np
import pytest

from dpkl.data import (
    Dataset,
    SplitSpec,
    load_csv,
    load_features,
    normalize,
    split,
    synth_blobs,
    synth_regression,
)
from dpkl.errors import (
    DimensionMismatch,
    InsufficientRows,
    InternalConsistencyError,
    MissingTarget,
    ParseError,
)


class TestLoadCsv:
    def test_basic_file(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(p, "y")
        assert ds.n == 3 and ds.dim == 2
        np.testing.assert_array_equal(ds.y, [3, 6, 9])
        np.testing.assert_array_equal(ds.X[:, 0], [1, 4, 7])

    def test_non_numeric_cell_names_location(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,y\n1,2,3\n4,oops,6\n")
        with pytest.raises(ParseError) as err:
            load_csv(p, "y")
        assert err.value.row == 3 and err.value.col == 2
        assert "oops" in str(err.value)

    def test_semicolon_delimiter(self, tmp_path):
        p = tmp_path / "semi.csv"
        p.write_text("a;b;y\n1;2;3\n4;5;6\n")
        ds = load_csv(p, "y", delimiter=";")
        assert ds.n == 2 and ds.dim == 2

    def test_headerless_with_index_target(self, tmp_path):
        p = tmp_path / "plain.csv"
        p.write_text("1,2,3\n4,5,6\n")
        ds = load_csv(p, 2, has_header=False)
        np.testing.assert_array_equal(ds.y, [3, 6])

    def test_missing_target(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(MissingTarget):
            load_csv(p, "y")

    def test_skip_bad_rows_reports_them(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,y\n1,2\nx,4\n5,6\n")
        with pytest.warns(UserWarning, match=r"\[3\]"):
            ds = load_csv(p, "y", skip_bad_rows=True)
        assert ds.n == 2

    @pytest.mark.parametrize("body, row, col", [("a,y\n1,2\n{},4\n", 3, 1),
                                                ("a,y\n1,2\n5,6\n3,{}\n", 4, 2)],
                             ids=["feature", "target"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_location(self, tmp_path, body, row, col, cell):
        p = tmp_path / "bad.csv"
        p.write_text(body.format(cell))
        with pytest.raises(ParseError) as err:
            load_csv(p, "y")
        assert (err.value.row, err.value.col) == (row, col)
        assert f"row {row}, column {col}" in str(err.value)

    def test_skip_bad_rows_drops_non_finite_rows(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,y\n1,2\n0.2,nan\ninf,4\n5,6\n")
        with pytest.warns(UserWarning, match=r"\[3, 4\]"):
            ds = load_csv(p, "y", skip_bad_rows=True)
        np.testing.assert_array_equal(ds.X[:, 0], [1, 5])
        np.testing.assert_array_equal(ds.y, [2, 6])

    # the header sets the row width: a short first row is the one named, and
    # the target is found among the header's columns either way
    @pytest.mark.parametrize("target", ["y", "a"], ids=["target-last", "target-first"])
    def test_short_first_row_is_named(self, tmp_path, target):
        p = tmp_path / "short.csv"
        p.write_text("a,b,c,y\n1,2,3\n4,5,6,7\n8,9,10,11\n")
        with pytest.raises(ParseError) as err:
            load_csv(p, target)
        assert (err.value.row, err.value.col) == (2, 4)
        assert str(err.value) == "row 2 has 3 cells, expected 4"

    @pytest.mark.parametrize("target", ["y", "a"], ids=["target-last", "target-first"])
    @pytest.mark.parametrize("short, dropped", [(1, "[2]"), (2, "[2, 3]")])
    def test_skip_bad_rows_keeps_rows_of_header_width(self, tmp_path, target, short, dropped):
        good = np.arange(4.0, 16.0).reshape(3, 4)
        p = tmp_path / "short.csv"
        p.write_text("a,b,c,y\n" + "1,2,3\n" * short
                     + "".join(",".join(map(repr, row)) + "\n" for row in good.tolist()))
        report = re.escape(f"dropped {short} unparseable rows: {dropped}")
        with pytest.warns(UserWarning, match=report):
            ds = load_csv(p, target, skip_bad_rows=True)
        t = ["a", "b", "c", "y"].index(target)
        np.testing.assert_array_equal(ds.y, good[:, t])
        np.testing.assert_array_equal(ds.X, np.delete(good, t, axis=1))

    @pytest.mark.parametrize("header, col", [("a,y", 3), ("a,b,c,y", 4)],
                             ids=["narrower", "wider"])
    def test_header_sets_the_row_width(self, tmp_path, header, col):
        p = tmp_path / "ragged.csv"
        p.write_text(header + "\n1,2,3\n4,5,6\n")
        with pytest.raises(ParseError) as err:
            load_csv(p, "y")
        assert (err.value.row, err.value.col) == (2, col)
        assert str(err.value).startswith("row 2 has 3 cells")

    # rows are numbered as they stand in the file: a blank line still counts
    @pytest.mark.parametrize("body, row, col, message", [
        ("a,y\n\n1,2\nx,4\n", 4, 1, "cell at row 4, column 1"),
        ("a,y\n\n1,2\n3\n", 4, 2, "row 4 has 1 cells, expected 2"),
    ], ids=["bad-cell", "short-row"])
    @pytest.mark.parametrize("reader", [lambda p: load_csv(p, "y"),
                                        lambda p: load_features(p, "y")],
                             ids=["load_csv", "load_features"])
    def test_rows_after_a_blank_line_are_named_by_file_row(self, tmp_path, reader, body, row,
                                                           col, message):
        p = tmp_path / "blank.csv"
        p.write_text(body)
        with pytest.raises(ParseError) as err:
            reader(p)
        assert (err.value.row, err.value.col) == (row, col)
        assert message in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("a,y\n")
        with pytest.raises(InsufficientRows):
            load_csv(p, "y")


class TestDataset:
    def test_sequences_become_arrays(self):
        ds = Dataset([[1.0], [2.0]], [3.0, 4.0])
        np.testing.assert_array_equal(ds.y, [3.0, 4.0])
        assert ds.X.dtype == np.float64

    @pytest.mark.parametrize("X, y, error", [
        (np.zeros((3, 1)), np.zeros(2), DimensionMismatch),
        (np.zeros(3), np.zeros(3), DimensionMismatch),
        (np.full((2, 1), np.inf), np.zeros(2), ValueError),
        (np.zeros((2, 1)), np.array([0.0, np.nan]), ValueError),
    ])
    def test_malformed_rejected(self, X, y, error):
        with pytest.raises(error):
            Dataset(X, y)


class TestNormalize:
    def test_labels_standardized_with_population_std(self):
        train = Dataset(np.arange(3.0)[:, None], np.array([1.0, 2.0, 3.0]))
        train_n, _, stats = normalize(train)
        expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(train_n.y, expected, rtol=1e-6)
        np.testing.assert_allclose(train_n.y, [-1.2247, 0.0, 1.2247], atol=1e-4)
        assert stats.y_mean == 2.0

    def test_already_standardized_is_fixed_point(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        y = rng.normal(size=200)
        y = (y - y.mean()) / y.std()
        train_n, _, _ = normalize(Dataset(X, y))
        np.testing.assert_allclose(train_n.X, X, atol=1e-12)
        np.testing.assert_allclose(train_n.y, y, atol=1e-12)

    def test_constant_feature_column(self):
        X = np.column_stack([np.full(4, 7.0), np.arange(4.0)])
        with pytest.warns(UserWarning, match="constant"):
            train_n, _, stats = normalize(Dataset(X, np.arange(4.0)))
        np.testing.assert_array_equal(train_n.X[:, 0], 0.0)
        assert stats.x_std[0] == 1.0

    def test_round_trip_inverse(self):
        rng = np.random.default_rng(1)
        train = Dataset(rng.normal(size=(50, 2)), rng.normal(size=50) * 3 + 5)
        train_n, _, stats = normalize(train)
        np.testing.assert_allclose(stats.invert_y(train_n.y), train.y, atol=1e-12)

    def test_variance_rescaling(self):
        train = Dataset(np.arange(4.0)[:, None], np.array([0.0, 2.0, 4.0, 6.0]))
        _, _, stats = normalize(train)
        np.testing.assert_allclose(stats.invert_variance(np.array([1.0])), stats.y_std**2)

    def test_stats_come_from_train_split_only(self):
        train = Dataset(np.arange(3.0)[:, None], np.array([0.0, 1.0, 2.0]))
        other = Dataset(np.arange(2.0)[:, None], np.array([10.0, 20.0]))
        _, (other_n,), stats = normalize(train, [other])
        np.testing.assert_allclose(other_n.y, (other.y - 1.0) / train.y.std())

    def test_classification_labels_untouched(self):
        train = Dataset(np.random.default_rng(2).normal(size=(6, 2)), np.arange(6.0))
        train_n, _, _ = normalize(train, normalize_labels=False)
        np.testing.assert_array_equal(train_n.y, train.y)


    def test_overflowing_feature_std_raises(self):
        train = Dataset(np.linspace(-1.0, 1.0, 10)[:, None] * 1e200, np.arange(10.0))
        with np.errstate(over="ignore"), pytest.raises(
            InternalConsistencyError, match="non-finite feature normalization"
        ):
            normalize(train)
        normalize(train, normalize_features=False)  # nothing to overflow

    def test_overflowing_label_std_raises(self):
        train = Dataset(np.arange(10.0)[:, None], np.linspace(-1.0, 1.0, 10) * 1e200)
        with np.errstate(over="ignore"), pytest.raises(
            InternalConsistencyError, match="non-finite label normalization"
        ):
            normalize(train)
        normalize(train, normalize_labels=False)


class TestSplit:
    def test_disjoint_cover(self):
        ds = Dataset(np.arange(10.0)[:, None], np.arange(10.0))
        parts = split(ds, SplitSpec(5, 0, 5, seed=0))
        got = np.sort(np.concatenate([parts["labeled"].X[:, 0], parts["test"].X[:, 0]]))
        np.testing.assert_array_equal(got, np.arange(10.0))
        assert parts["unlabeled"].n == 0

    def test_deterministic(self):
        ds = Dataset(np.arange(20.0)[:, None], np.arange(20.0))
        a = split(ds, SplitSpec(8, 4, 8, seed=3))
        b = split(ds, SplitSpec(8, 4, 8, seed=3))
        for key in ("labeled", "unlabeled", "test"):
            np.testing.assert_array_equal(a[key].X, b[key].X)

    def test_unlabeled_targets_discarded(self):
        ds = Dataset(np.arange(6.0)[:, None], np.arange(6.0) + 100)
        parts = split(ds, SplitSpec(2, 3, 1, seed=1))
        np.testing.assert_array_equal(parts["unlabeled"].y, np.zeros(3))

    def test_oversized_spec_rejected(self):
        ds = Dataset(np.arange(4.0)[:, None], np.arange(4.0))
        with pytest.raises(InsufficientRows):
            split(ds, SplitSpec(3, 0, 2, seed=0))

    @pytest.mark.parametrize("spec", [SplitSpec(30, -5, 35), SplitSpec(30, 5, -5)],
                             ids=["unlabeled", "test"])
    def test_negative_size_rejected(self, spec):
        # (30, -5, 35) would put five labeled rows into the test slice
        ds = Dataset(np.arange(60.0)[:, None], np.arange(60.0))
        with pytest.raises(InsufficientRows, match="must be >= 0"):
            split(ds, spec)


class TestSynthRegression:
    def test_sine_is_deterministic_function_of_x(self):
        ds = synth_regression("sine", n=50, D=3, noise_std=0.0, seed=4)
        np.testing.assert_allclose(ds.y, np.sin(2 * np.pi * ds.X[:, 0]), atol=1e-14)

    def test_seed_determinism(self):
        a = synth_regression("sine", n=20, D=1, noise_std=0.3, seed=5)
        b = synth_regression("sine", n=20, D=1, noise_std=0.3, seed=5)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_sine_target_std(self):
        ds = synth_regression("sine", n=100_000, D=1, noise_std=0.0, seed=6)
        np.testing.assert_allclose(ds.y.std(), 1.0 / np.sqrt(2.0), rtol=0.02)

    def test_step_levels(self):
        ds = synth_regression("step", n=100, D=1, noise_std=0.0, seed=7)
        assert set(np.unique(ds.y)) <= {0.0, 1.0}

    def test_friedman_needs_five_dims(self):
        with pytest.raises(ValueError):
            synth_regression("friedman", n=10, D=3)
        ds = synth_regression("friedman", n=10, D=6, seed=8)
        assert ds.dim == 6

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            synth_regression("spline", n=5)


class TestSynthBlobs:
    def test_exact_class_counts(self):
        ds = synth_blobs(C=3, n_per_class=17, d_in=4, separation=2.0, seed=9)
        counts = np.bincount(ds.y.astype(int))
        np.testing.assert_array_equal(counts, [17, 17, 17])

    def test_zero_separation_collapses_centers(self):
        ds = synth_blobs(C=2, n_per_class=2000, d_in=2, separation=0.0, seed=10)
        mean0 = ds.X[ds.y == 0].mean(axis=0)
        mean1 = ds.X[ds.y == 1].mean(axis=0)
        assert np.linalg.norm(mean0 - mean1) < 0.12

    def test_large_separation_is_linearly_separable(self):
        ds = synth_blobs(C=2, n_per_class=100, d_in=2, separation=10.0, seed=11)
        centers = np.stack([ds.X[ds.y == c].mean(axis=0) for c in (0, 1)])
        d0 = np.linalg.norm(ds.X - centers[0], axis=1)
        d1 = np.linalg.norm(ds.X - centers[1], axis=1)
        pred = (d1 < d0).astype(int)
        assert np.mean(pred == ds.y) == 1.0

    def test_center_distance_matches_separation(self):
        ds = synth_blobs(C=3, n_per_class=5000, d_in=3, separation=4.0, seed=12)
        centers = np.stack([ds.X[ds.y == c].mean(axis=0) for c in range(3)])
        for i in range(3):
            for j in range(i + 1, 3):
                np.testing.assert_allclose(
                    np.linalg.norm(centers[i] - centers[j]), 4.0, atol=0.1
                )

    def test_needs_enough_dims(self):
        with pytest.raises(ValueError):
            synth_blobs(C=3, n_per_class=5, d_in=2, separation=1.0)
