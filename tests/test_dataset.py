"""Imbalanced sampling, stratified splits, and z-score normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbalidx.dataset import (
    DegenerateSplit,
    InsufficientPool,
    build_imbalanced,
    normalize_apply,
    normalize_fit,
    required_normals,
    split_train_test,
)
from imbalidx.flows import ATTACK, FEATURE_CSV_HEADER, NORMAL, LabeledDataset, write_features_csv


def pool_labels(n_attack, n_normal, seed=0):
    """A pool's labels, its attack rows scattered among the normal ones."""
    y = np.array([ATTACK] * n_attack + [NORMAL] * n_normal)
    return y[np.random.default_rng(seed).permutation(y.size)]


# Normal-row demand for 10,000 attacks at each ratio. The two awkward
# ratios can land one sample either side of the expected count depending
# on the rounding convention, so those carry a +/-1 tolerance.
@pytest.mark.parametrize(
    "ratio,normals,tol",
    [
        (0.10, 90_000, 0),
        (0.01, 990_000, 0),
        (0.007, 1_418_572, 1),
        (0.003, 3_323_334, 1),
        (0.001, 9_990_000, 0),
    ],
)
def test_required_normals_reference_counts(ratio, normals, tol):
    assert abs(required_normals(10_000, ratio) - normals) <= tol


def test_required_normals_balanced_case():
    assert required_normals(100, 0.5) == 100
    assert required_normals(100, 1.0) == 0


def test_required_normals_rejects_bad_arguments():
    with pytest.raises(ValueError):
        required_normals(0, 0.5)
    with pytest.raises(ValueError):
        required_normals(100, 0.0)
    with pytest.raises(ValueError):
        required_normals(100, 1.5)


def test_build_imbalanced_counts_and_uniqueness():
    y = pool_labels(50, 2000)
    rows = build_imbalanced(y, n_attack=20, ratio=0.10, seed=5)
    assert len(rows) == 20 + required_normals(20, 0.10) == 200
    assert np.count_nonzero(y[rows] == ATTACK) == 20
    assert np.count_nonzero(y[rows] == NORMAL) == 180
    # Without replacement: every drawn row id appears once, and each is a
    # row of the pool.
    assert len(np.unique(rows)) == len(rows)
    assert 0 <= rows.min() and rows.max() < len(y)


def test_build_imbalanced_is_seed_deterministic():
    y = pool_labels(80, 500)
    a = build_imbalanced(y, n_attack=30, ratio=0.25, seed=42)
    b = build_imbalanced(y, n_attack=30, ratio=0.25, seed=42)
    c = build_imbalanced(y, n_attack=30, ratio=0.25, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.count_nonzero(y[c] == ATTACK) == 30 and len(c) == 120


def test_build_imbalanced_reports_which_pool_ran_dry():
    with pytest.raises(InsufficientPool) as err:
        build_imbalanced(pool_labels(5, 100), 10, 0.5, seed=0)
    assert "attack pool has 5" in str(err.value)
    with pytest.raises(InsufficientPool) as err:
        build_imbalanced(pool_labels(10, 50), 10, 0.1, seed=0)
    assert "normal pool has 50" in str(err.value)
    assert "need 90" in str(err.value)


@given(
    n_attack=st.integers(1, 30),
    ratio=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_build_imbalanced_hits_the_ratio(n_attack, ratio, seed):
    need = required_normals(n_attack, ratio)
    y = pool_labels(n_attack, need + 1, seed)
    rows = build_imbalanced(y, n_attack, ratio, seed)
    assert np.count_nonzero(y[rows] == ATTACK) == n_attack
    assert np.count_nonzero(y[rows] == NORMAL) == need
    assert abs(n_attack - ratio * len(rows)) <= 1.0


def test_split_preserves_class_counts():
    y_rows = pool_labels(100, 900)
    train, test = split_train_test(y_rows, train_frac=0.8, seed=2)
    assert np.count_nonzero(y_rows[train] == ATTACK) == 80 and len(train) == 800
    assert np.count_nonzero(y_rows[test] == ATTACK) == 20 and len(test) == 200
    # Disjoint and exhaustive on the dataset's positions.
    assert sorted(np.concatenate([train, test]).tolist()) == list(range(len(y_rows)))


def test_split_is_seed_deterministic():
    y_rows = pool_labels(40, 360)
    t1, _ = split_train_test(y_rows, 0.8, seed=9)
    t2, _ = split_train_test(y_rows, 0.8, seed=9)
    t3, _ = split_train_test(y_rows, 0.8, seed=10)
    assert np.array_equal(t1, t2)
    assert not np.array_equal(t1, t3)
    assert np.count_nonzero(y_rows[t3] == ATTACK) == np.count_nonzero(y_rows[t1] == ATTACK)


def test_split_rejects_degenerate_cases():
    one_attack = np.array([ATTACK] + [NORMAL] * 9)
    with pytest.raises(DegenerateSplit, match="of 1 class-1 rows leaves one side empty"):
        split_train_test(one_attack, train_frac=0.8, seed=0)
    no_attack = np.full(10, NORMAL)
    with pytest.raises(DegenerateSplit, match="of 0 class-1 rows leaves one side empty"):
        split_train_test(no_attack, train_frac=0.8, seed=0)
    with pytest.raises(ValueError, match="train_frac must be in"):
        split_train_test(one_attack, train_frac=1.0, seed=0)


def test_build_and_split_take_label_vectors():
    # A feature matrix or a dataset object is refused as such, not read as
    # a pool or a dataset with no rows of some class.
    with pytest.raises(ValueError, match="pool labels must be 1-d"):
        build_imbalanced(np.zeros((10, 2)), 1, 0.5, seed=0)
    data = LabeledDataset(np.zeros((10, 2)), np.array([ATTACK] * 5 + [NORMAL] * 5))
    with pytest.raises(ValueError, match="dataset labels must be 1-d"):
        split_train_test(data, 0.8, seed=0)


def test_normalize_two_point_column():
    x = np.array([[1.0], [3.0]])
    stats = normalize_fit(x)
    assert stats.mean[0] == 2.0
    assert stats.std[0] == 1.0  # population stddev of {1, 3}
    z = normalize_apply(x, stats)
    assert z.tolist() == [[-1.0], [1.0]]


def test_normalize_constant_column_maps_to_zero():
    x = np.column_stack([np.full(5, 7.0), np.arange(5.0)])
    stats = normalize_fit(x)
    assert stats.std[0] == 1.0
    z = normalize_apply(x, stats)
    assert np.all(z[:, 0] == 0.0)


def test_normalize_train_columns_are_centered_and_scaled():
    rng = np.random.default_rng(3)
    x = rng.normal(50, 12, size=(400, 23))
    stats = normalize_fit(x)
    z = normalize_apply(x, stats)
    assert np.all(np.abs(z.mean(axis=0)) < 1e-9)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-9)


def test_normalize_test_set_uses_train_stats_only():
    rng = np.random.default_rng(4)
    train = rng.normal(0, 1, size=(200, 4))
    test = rng.normal(5, 1, size=(50, 4))
    z = normalize_apply(test, normalize_fit(train))
    # The shifted test set keeps its offset: no leakage of test stats.
    assert np.all(z.mean(axis=0) > 3.0)


def test_normalize_apply_works_in_place_with_the_bits_of_the_formula():
    rng = np.random.default_rng(5)
    x = rng.normal(50, 12, size=(300, 23))
    stats = normalize_fit(x[:200])
    want = (x - stats.mean) / stats.std
    assert normalize_apply(x, stats) is x
    assert x.tobytes() == want.tobytes()


def test_normalize_apply_checks_column_count():
    stats = normalize_fit(np.ones((3, 4)) * np.arange(4))
    with pytest.raises(ValueError):
        normalize_apply(np.zeros((2, 5)), stats)
    # In place, so the matrix must already be float64: a float32 one would
    # be z-scored in float32.
    for dtype in (np.float32, np.int64):
        with pytest.raises(ValueError, match="need a float64 matrix"):
            normalize_apply(np.zeros((2, 4), dtype), stats)


def test_dataset_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    x = np.abs(rng.normal(100, 40, size=(30, 23)))
    x[:, 1:9] = rng.integers(0, 5000, size=(30, 8))  # count columns
    x[0, 3] = 12.25  # a synthetic row's count need not be whole
    y = rng.integers(0, 2, size=30)
    data = LabeledDataset(x, y)
    path = tmp_path / "d.csv"
    write_features_csv(data, path)
    first_row = path.read_text().splitlines()[1].split(",")
    assert first_row[3] == "12.250000" and first_row[4] == str(int(x[0, 4]))
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(back[:, -1], data.y)
    assert np.allclose(back[:, :-1], data.x, atol=5e-7)
    # Count columns survive exactly.
    assert np.array_equal(back[:, 1:9], data.x[:, 1:9])


def test_dataset_csv_empty_round_trip(tmp_path):
    empty = LabeledDataset(np.zeros((0, 23)), np.zeros(0, dtype=np.int64))
    path = tmp_path / "e.csv"
    write_features_csv(empty, path)
    assert path.read_text() == FEATURE_CSV_HEADER + "\n"


def test_labeled_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 3]))
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1]))
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros(3), np.array([0, 1, 0]))
    data = LabeledDataset(np.zeros((4, 2)), np.array([0, 1, 1, 1]))
    assert data.n_attack == 3
