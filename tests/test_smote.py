"""Oversampling: neighbour tables against a brute-force oracle, segment
geometry, provenance replay, and count bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbalidx.smote import (
    TooFewMinority,
    _nearest_neighbors,
    augment_training_set,
    replay,
    smote,
    synthetic_count,
)


def brute_force_knn(m, k):
    """O(n^2) reference: squared Euclidean, self excluded, ties to the
    lower row index. Written independently of the implementation."""
    out = []
    for i in range(m.shape[0]):
        d = np.sum((m - m[i]) ** 2, axis=1)
        ranked = sorted((dist, j) for j, dist in enumerate(d) if j != i)
        out.append([j for _, j in ranked[:k]])
    return out


def test_neighbor_table_matches_brute_force():
    rng = np.random.default_rng(77)
    for trial in range(20):
        n = int(rng.integers(6, 120))
        dim = int(rng.integers(2, 23))
        m = rng.normal(size=(n, dim))
        k = min(5, n - 1)
        table = _nearest_neighbors(m, k)
        want = brute_force_knn(m, k)
        for i in range(n):
            assert set(table[i].tolist()) == set(want[i]), f"trial {trial} row {i}"


@st.composite
def knn_cases(draw):
    """A minority matrix of Gaussian rows, integer grid points (exact
    distances, so many true ties) or rows far from the origin (where
    |a|^2 + |b|^2 - 2a.b cancels), with some rows copied over others.
    Above about 72 rows of 25 columns the table is built in several
    blocks."""
    n = draw(st.integers(2, 120))
    dim = draw(st.integers(1, 25))
    kind = draw(st.sampled_from(["gaussian", "grid", "large-norm"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "grid":
        m = rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
    else:
        m = rng.normal(size=(n, dim))
        if kind == "large-norm":
            m += 10.0 ** draw(st.integers(3, 12))
    dups = draw(st.integers(0, n - 1))
    m[rng.integers(n, size=dups)] = m[rng.integers(n, size=dups)]
    return m, draw(st.integers(1, n - 1))


@given(knn_cases())
@settings(max_examples=200, deadline=None)
def test_neighbor_table_is_the_ordered_brute_force_table(case):
    m, k = case
    assert _nearest_neighbors(m, k).tolist() == brute_force_knn(m, k)


def test_neighbor_ties_break_toward_lower_index():
    # Integer coordinates keep every distance exact, so the ties are real.
    m = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]])
    table = _nearest_neighbors(m, 2)
    assert table[0].tolist() == [1, 2]  # both at distance 1; lower index first
    assert table[3].tolist() == [1, 0]


def test_synthetic_rows_stay_on_their_segments():
    rng = np.random.default_rng(5)
    minority = rng.normal(size=(40, 6))
    result = smote(minority, 140, k=5, seed=9)
    assert result.n_synthetic == 100
    base = minority[result.base_idx]
    neigh = minority[result.neighbor_idx]
    lo = np.minimum(base, neigh) - 1e-9
    hi = np.maximum(base, neigh) + 1e-9
    assert np.all(result.synthetic >= lo)
    assert np.all(result.synthetic <= hi)
    assert np.all((0.0 <= result.gap) & (result.gap < 1.0))


def test_replay_reproduces_synthetics_exactly():
    rng = np.random.default_rng(6)
    minority = rng.normal(size=(25, 23))
    result = smote(minority, 90, k=5, seed=1)
    again = replay(minority, result)
    assert np.array_equal(again, result.synthetic)


def test_replay_is_affine_equivariant():
    # Interpolation commutes with per-column affine maps, which is what
    # lets a normalized-space neighbour search materialize raw-space rows.
    rng = np.random.default_rng(8)
    raw = rng.normal(50, 20, size=(30, 4))
    mean, std = raw.mean(axis=0), raw.std(axis=0)
    z = (raw - mean) / std
    result = smote(z, 75, k=3, seed=4)
    raw_synth = replay(raw, result)
    assert np.allclose((raw_synth - mean) / std, result.synthetic, atol=1e-10)


def test_round_robin_base_assignment():
    minority = np.random.default_rng(2).normal(size=(10, 3))
    result = smote(minority, 40, k=3, seed=0)
    counts = np.bincount(result.base_idx, minlength=10)
    assert counts.tolist() == [3] * 10
    # With a remainder, counts differ by at most one and sum correctly.
    result = smote(minority, 47, k=3, seed=0)
    counts = np.bincount(result.base_idx, minlength=10)
    assert sorted(set(counts.tolist())) in ([3, 4], [3], [4])
    assert counts.sum() == 37
    assert np.all(counts >= 3)


def test_identical_rows_yield_identical_synthetics():
    row = np.array([2.5, -1.0, 7.0])
    minority = np.tile(row, (4, 1))
    result = smote(minority, 9, k=3, seed=11)
    assert result.n_synthetic == 5
    assert np.all(result.synthetic == row)


def test_two_point_minority_interpolates_the_segment():
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 2.0])
    result = smote(np.stack([a, b]), 12, k=1, seed=3)
    for s, bi, g in zip(result.synthetic, result.base_idx, result.gap):
        start, end = (a, b) if bi == 0 else (b, a)
        assert np.array_equal(s, start + g * (end - start))


def test_determinism_and_seed_sensitivity():
    minority = np.random.default_rng(1).normal(size=(15, 5))
    r1 = smote(minority, 50, k=5, seed=21)
    r2 = smote(minority, 50, k=5, seed=21)
    r3 = smote(minority, 50, k=5, seed=22)
    assert np.array_equal(r1.synthetic, r2.synthetic)
    assert np.array_equal(r1.base_idx, r2.base_idx)
    assert np.array_equal(r1.gap, r2.gap)
    assert not np.array_equal(r1.gap, r3.gap)


def test_k_at_or_above_minority_rows_rejected():
    # Each of 3 rows has 2 neighbours, so k=5 cannot be honoured.
    minority = np.random.default_rng(0).normal(size=(3, 4))
    with pytest.raises(TooFewMinority, match="k=5"):
        smote(minority, 8, k=5, seed=0)
    with pytest.raises(TooFewMinority, match="k=3"):
        smote(minority, 8, k=3, seed=0)
    assert smote(minority, 8, k=2, seed=0).n_synthetic == 5


def test_too_few_minority_rows():
    one = np.ones((1, 4))
    with pytest.raises(TooFewMinority):
        smote(one, 5, k=5, seed=0)
    # No growth requested: fine even below two rows.
    result = smote(one, 1, k=5, seed=0)
    assert result.n_synthetic == 0


def test_target_below_current_size_rejected():
    minority = np.ones((6, 2))
    with pytest.raises(ValueError):
        smote(minority, 3, k=2, seed=0)


def test_config_validation():
    minority = np.ones((6, 2))
    with pytest.raises(ValueError, match="k must be"):
        smote(minority, 10, k=0)
    with pytest.raises(ValueError, match="target_count"):
        smote(minority, -1, k=5)


def test_minority_class_prefers_attack_on_ties():
    # SMOTE grows the attacks. At a tie they are still the class to grow,
    # and a 10% target is already met, so the set passes through.
    x = np.random.default_rng(5).normal(size=(40, 3))
    y = np.array([1, 0] * 20, dtype=np.int64)
    x_aug, y_aug, result = augment_training_set(x, y, target_ratio=0.10, k=5, seed=0)
    assert result.n_synthetic == 0
    assert x_aug is x and y_aug is y
    # With more attacks than normals the normals are not grown instead.
    y[:4] = 1
    with pytest.raises(ValueError, match="22 attack rows outnumber 18 normal rows"):
        augment_training_set(x, y, target_ratio=0.10, k=5, seed=0)


def test_synthetic_count_examples():
    assert synthetic_count(8, 800, 0.10) == 80     # (8+80)/(800+80) == 0.10
    assert synthetic_count(80, 800, 0.10) == 0     # already at target
    assert synthetic_count(200, 400, 0.10) == 0    # never negative
    with pytest.raises(ValueError):
        synthetic_count(10, 100, 1.0)


def test_synthetic_count_hits_target_share():
    rng = np.random.default_rng(14)
    for _ in range(200):
        n_total = int(rng.integers(10, 100_000))
        n_min = int(rng.integers(1, max(2, n_total // 2)))
        t = float(rng.uniform(0.01, 0.5))
        need = synthetic_count(n_min, n_total, t)
        if need:
            grown = n_total + need
            assert abs((n_min + need) / grown - t) <= 1.0 / grown


def test_augment_training_set():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(500, 6))
    y = np.zeros(500, dtype=np.int64)
    y[:10] = 1
    x_aug, y_aug, result = augment_training_set(x, y, target_ratio=0.10, k=5, seed=2)
    assert result.n_synthetic == synthetic_count(10, 500, 0.10)
    assert y_aug.sum() == 10 + result.n_synthetic
    assert x_aug.shape[0] == y_aug.shape[0] == 500 + result.n_synthetic
    # Original rows are untouched and come first.
    assert np.array_equal(x_aug[:500], x)
    assert np.array_equal(y_aug[:500], y)
    attack_share = y_aug.sum() / y_aug.size
    assert attack_share == pytest.approx(0.10, abs=1.0 / y_aug.size)


def test_augment_passes_through_when_already_balanced():
    x = np.random.default_rng(3).normal(size=(100, 4))
    y = np.array([1] * 20 + [0] * 80, dtype=np.int64)
    x_aug, y_aug, result = augment_training_set(x, y, target_ratio=0.10, k=5, seed=0)
    assert result.n_synthetic == 0
    assert x_aug is x and y_aug is y

