"""Imbalanced dataset construction, stratified splitting, z-score scaling.

The imbalance ratio is attacks over total samples. A built dataset holds
exactly the requested number of attack rows plus however many normal rows
the target ratio demands, both sampled without replacement.

A seed's pool is one feature matrix x with its labels y, and a dataset is
a list of row ids into it: build and split draw on labels and ids only,
and copy no feature row. The sweep gathers each split once from x and
z-scores it in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .flows import ATTACK, NORMAL


class InsufficientPool(ValueError):
    """A source pool cannot supply the rows a target ratio needs."""


class DegenerateSplit(ValueError):
    """A stratified split would leave some side without one of the classes."""


def required_normals(n_attack: int, ratio: float) -> int:
    """Normal-row count that puts n_attack attacks at the given share of
    the total, rounded to the nearest whole sample."""
    if n_attack <= 0:
        raise ValueError(f"need at least one attack row, got {n_attack}")
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    return round(n_attack * (1.0 - ratio) / ratio)


def train_count(n: int, train_frac: float, what: str = "rows") -> int:
    """How many of a class's n rows a stratified split trains on:
    train_frac * n, rounded to the nearest whole row. DegenerateSplit
    unless both sides keep at least one row; what names the rows."""
    n_train = round(train_frac * n)
    if n_train == 0 or n_train == n:
        raise DegenerateSplit(f"train_frac {train_frac} of {n} {what} leaves one side empty")
    return n_train


def _labels(y: np.ndarray, name: str) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {y.shape}")
    return y


def build_imbalanced(y: np.ndarray, n_attack: int, ratio: float, seed=None) -> np.ndarray:
    """Sample a dataset at the target imbalance ratio from a pool whose
    labels are y, and return its rows as ids into the pool.

    Draws n_attack of the pool's attack rows and
    round(n_attack*(1-ratio)/ratio) of its normal rows, each uniformly
    without replacement, then shuffles the combined ids. Attack rows are
    drawn before normal rows, then the shuffle; seed (an int or a
    Generator) pins all three draws.
    """
    y = _labels(y, "pool labels")
    attacks = np.flatnonzero(y == ATTACK)
    normals = np.flatnonzero(y != ATTACK)
    need_n = required_normals(n_attack, ratio)
    if n_attack > attacks.size:
        raise InsufficientPool(f"attack pool has {attacks.size} rows, need {n_attack}")
    if need_n > normals.size:
        raise InsufficientPool(
            f"normal pool has {normals.size} rows, need {need_n} for ratio {ratio}"
        )
    rng = np.random.default_rng(seed)
    a_idx = rng.choice(attacks.size, size=n_attack, replace=False)
    n_idx = rng.choice(normals.size, size=need_n, replace=False)
    rows = np.concatenate([attacks[a_idx], normals[n_idx]])
    return rows[rng.permutation(rows.size)]


def split_train_test(
    y_rows: np.ndarray, train_frac: float, seed=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Stratified split of a dataset whose labels are y_rows: each class
    is shuffled and divided at train_frac independently, so both
    partitions preserve the class ratio. Returns the (train, test)
    positions into y_rows, each in shuffled order."""
    if not 0.0 < train_frac < 1.0:
        raise ValueError(f"train_frac must be in (0, 1), got {train_frac}")
    y_rows = _labels(y_rows, "dataset labels")
    rng = np.random.default_rng(seed)
    train_parts: List[np.ndarray] = []
    test_parts: List[np.ndarray] = []
    for cls in (NORMAL, ATTACK):
        idx = np.flatnonzero(y_rows == cls)
        n_train = train_count(idx.size, train_frac, f"class-{cls} rows")
        shuffled = idx[rng.permutation(idx.size)]
        train_parts.append(shuffled[:n_train])
        test_parts.append(shuffled[n_train:])
    train_idx = np.concatenate(train_parts)
    test_idx = np.concatenate(test_parts)
    train_idx = train_idx[rng.permutation(train_idx.size)]
    test_idx = test_idx[rng.permutation(test_idx.size)]
    return train_idx, test_idx


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature mean and population stddev learned from training data."""

    mean: np.ndarray
    std: np.ndarray


def normalize_fit(x: np.ndarray) -> NormalizationStats:
    """Column means and population stddevs of a matrix. Constant columns
    get std 1 so scaling maps them to exactly zero."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"need a non-empty 2-d matrix, got shape {x.shape}")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return NormalizationStats(mean=mean, std=std)


def normalize_apply(x: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """Z-score the float64 matrix x with training stats, in place, and
    return x. Subtracting and then dividing in place gives the bits of
    (x - mean) / std."""
    if x.dtype != np.float64 or x.shape[-1] != stats.mean.shape[0]:
        raise ValueError(f"need a float64 matrix of {stats.mean.shape[0]} columns, "
                         f"got {x.dtype} with shape {x.shape}")
    x -= stats.mean
    x /= stats.std
    return x
