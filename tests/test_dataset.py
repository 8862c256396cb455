"""Imbalanced sampling, stratified splits, and z-score normalization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbalidx.dataset import (
    DegenerateSplit,
    InsufficientPool,
    LabeledDataset,
    NormalizationStats,
    build_imbalanced,
    load_stats,
    normalize_apply,
    normalize_fit,
    required_normals,
    save_stats,
    split_train_test,
)
from imbalidx.flows import ATTACK, NORMAL, read_features_csv, write_features_csv


def tagged_pool(n, offset=0.0, width=23):
    """Rows whose first column is a unique id, so draws can be traced."""
    x = np.zeros((n, width))
    x[:, 0] = np.arange(n) + offset
    x[:, 1] = 1.0
    return x


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
    data = build_imbalanced(tagged_pool(50), tagged_pool(2000, offset=10_000),
                            n_attack=20, ratio=0.10, seed=5)
    assert data.n_attack == 20
    assert len(data) - data.n_attack == 180
    assert len(data) == 200
    # Without replacement: every drawn row id appears once.
    ids = data.x[:, 0]
    assert len(np.unique(ids)) == len(ids)
    # Attack rows came from the attack pool, normals from the normal pool.
    assert np.all(ids[data.y == ATTACK] < 10_000)
    assert np.all(ids[data.y == NORMAL] >= 10_000)


def test_build_imbalanced_is_seed_deterministic():
    pools = (tagged_pool(80), tagged_pool(500, offset=1000))
    a = build_imbalanced(*pools, n_attack=30, ratio=0.25, seed=42)
    b = build_imbalanced(*pools, n_attack=30, ratio=0.25, seed=42)
    c = build_imbalanced(*pools, n_attack=30, ratio=0.25, seed=43)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.x, c.x)
    assert c.n_attack == 30 and len(c) == 120


def test_build_imbalanced_reports_which_pool_ran_dry():
    with pytest.raises(InsufficientPool) as err:
        build_imbalanced(tagged_pool(5), tagged_pool(100), 10, 0.5, seed=0)
    assert "attack pool has 5" in str(err.value)
    with pytest.raises(InsufficientPool) as err:
        build_imbalanced(tagged_pool(10), tagged_pool(50), 10, 0.1, seed=0)
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
    data = build_imbalanced(
        tagged_pool(n_attack), tagged_pool(need + 1, offset=500),
        n_attack, ratio, seed,
    )
    assert data.n_attack == n_attack
    assert len(data) - data.n_attack == need
    assert abs(data.n_attack - ratio * len(data)) <= 1.0


def test_split_preserves_class_counts():
    data = build_imbalanced(tagged_pool(100), tagged_pool(900, offset=10_000),
                            100, 0.1, seed=1)
    train, test = split_train_test(data, train_frac=0.8, seed=2)
    assert train.n_attack == 80 and len(train) == 800
    assert test.n_attack == 20 and len(test) == 200
    # Disjoint and exhaustive on the traced row ids.
    all_ids = sorted(np.concatenate([train.x[:, 0], test.x[:, 0]]).tolist())
    assert all_ids == sorted(data.x[:, 0].tolist())


def test_split_is_seed_deterministic():
    data = build_imbalanced(tagged_pool(40), tagged_pool(360, offset=10_000),
                            40, 0.1, seed=7)
    t1, _ = split_train_test(data, seed=9)
    t2, _ = split_train_test(data, seed=9)
    t3, _ = split_train_test(data, seed=10)
    assert np.array_equal(t1.x, t2.x)
    assert not np.array_equal(t1.x, t3.x)
    assert t3.n_attack == t1.n_attack


def test_split_rejects_degenerate_cases():
    x = tagged_pool(10)
    one_attack = LabeledDataset(x, np.array([1] + [0] * 9))
    with pytest.raises(DegenerateSplit):
        split_train_test(one_attack, train_frac=0.8, seed=0)
    no_attack = LabeledDataset(x, np.zeros(10, dtype=np.int64))
    with pytest.raises(DegenerateSplit):
        split_train_test(no_attack, train_frac=0.8, seed=0)
    with pytest.raises(ValueError):
        split_train_test(one_attack, train_frac=1.0, seed=0)


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


def test_normalize_apply_checks_column_count():
    stats = normalize_fit(np.ones((3, 4)) * np.arange(4))
    with pytest.raises(ValueError):
        normalize_apply(np.zeros((2, 5)), stats)


def test_stats_json_round_trip(tmp_path):
    stats = normalize_fit(np.random.default_rng(0).normal(size=(20, 23)))
    path = tmp_path / "stats.json"
    save_stats(stats, path)
    back = load_stats(path)
    assert np.array_equal(back.mean, stats.mean)
    assert np.array_equal(back.std, stats.std)


def test_stats_from_json_validates_shapes():
    with pytest.raises(ValueError):
        NormalizationStats.from_json(json.dumps({"mean": [0.0, 1.0], "std": [1.0]}))


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",  # not an object
        '{"std": [1.0]}',  # no mean
        '{"mean": [0.0]}',  # no std
        '{"mean": 0.0, "std": [1.0]}',  # a number, not an array
        '{"mean": ["0"], "std": [1.0]}',  # a string inside
        '{"mean": [true], "std": [1.0]}',
        '{"mean": [NaN], "std": [1.0]}',  # not finite
        '{"mean": [0.0], "std": [Infinity]}',
        '{"mean": [0.0, 0.0], "std": [1.0, 0.0]}',  # would divide by zero
        '{"mean": [0.0], "std": [-1.0]}',
    ],
)
def test_stats_from_json_rejects_bad_sidecars(text):
    with pytest.raises(ValueError):
        NormalizationStats.from_json(text)


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
    back = read_features_csv(path)
    assert np.array_equal(back.y, data.y)
    assert np.allclose(back.x, data.x, atol=5e-7)
    # Count columns survive exactly.
    assert np.array_equal(back.x[:, 1:9], data.x[:, 1:9])


def test_dataset_csv_empty_round_trip(tmp_path):
    empty = LabeledDataset(np.zeros((0, 23)), np.zeros(0, dtype=np.int64))
    path = tmp_path / "e.csv"
    write_features_csv(empty, path)
    back = read_features_csv(path)
    assert len(back) == 0
    assert back.x.shape == (0, 23)


def test_labeled_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 3]))
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1]))
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros(3), np.array([0, 1, 0]))
    data = LabeledDataset(np.zeros((4, 2)), np.array([0, 1, 1, 1]))
    assert data.n_attack == 3
