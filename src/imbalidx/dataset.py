"""Imbalanced dataset construction, stratified splitting, z-score scaling.

The imbalance ratio is attacks over total samples. A built dataset holds
exactly the requested number of attack rows plus however many normal rows
the target ratio demands, both sampled without replacement. Datasets live
only in memory: the sweep builds, splits and scales one per cell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .flows import ATTACK, NORMAL, LabeledDataset
from .textio import json_value


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


def _pool_matrix(pool: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(pool, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} array must be 2-d, got shape {m.shape}")
    return m


def build_imbalanced(
    attack_pool: np.ndarray,
    normal_pool: np.ndarray,
    n_attack: int,
    ratio: float,
    seed=None,
) -> LabeledDataset:
    """Sample a dataset at the target imbalance ratio.

    Draws n_attack attack rows and round(n_attack*(1-ratio)/ratio) normal
    rows, each uniformly without replacement, then shuffles the combined
    rows. Pools are feature matrices, one row per flow.
    Attack rows are drawn before normal rows, then the shuffle; seed (an
    int or a Generator) pins all three draws.
    """
    attacks = _pool_matrix(attack_pool, "attack_pool")
    normals = _pool_matrix(normal_pool, "normal_pool")
    need_n = required_normals(n_attack, ratio)
    if n_attack > attacks.shape[0]:
        raise InsufficientPool(
            f"attack pool has {attacks.shape[0]} rows, need {n_attack}"
        )
    if need_n > normals.shape[0]:
        raise InsufficientPool(
            f"normal pool has {normals.shape[0]} rows, need {need_n} "
            f"for ratio {ratio}"
        )
    rng = np.random.default_rng(seed)
    a_idx = rng.choice(attacks.shape[0], size=n_attack, replace=False)
    n_idx = rng.choice(normals.shape[0], size=need_n, replace=False)
    x = np.concatenate([attacks[a_idx], normals[n_idx]])
    y = np.concatenate(
        [np.full(n_attack, ATTACK, np.int64), np.full(need_n, NORMAL, np.int64)]
    )
    order = rng.permutation(x.shape[0])
    return LabeledDataset(x[order], y[order])


def split_train_test(
    data: LabeledDataset, train_frac: float = 0.8, seed=None
) -> Tuple[LabeledDataset, LabeledDataset]:
    """Stratified split: each class is shuffled and divided at train_frac
    independently, so both partitions preserve the class ratio."""
    if not 0.0 < train_frac < 1.0:
        raise ValueError(f"train_frac must be in (0, 1), got {train_frac}")
    rng = np.random.default_rng(seed)
    train_parts: List[np.ndarray] = []
    test_parts: List[np.ndarray] = []
    for cls in (NORMAL, ATTACK):
        idx = np.flatnonzero(data.y == cls)
        n_train = train_count(idx.size, train_frac, f"class-{cls} rows")
        shuffled = idx[rng.permutation(idx.size)]
        train_parts.append(shuffled[:n_train])
        test_parts.append(shuffled[n_train:])
    train_idx = np.concatenate(train_parts)
    test_idx = np.concatenate(test_parts)
    train_idx = train_idx[rng.permutation(train_idx.size)]
    test_idx = test_idx[rng.permutation(test_idx.size)]
    return (
        LabeledDataset(data.x[train_idx], data.y[train_idx]),
        LabeledDataset(data.x[test_idx], data.y[test_idx]),
    )


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature mean and population stddev learned from training data."""

    mean: np.ndarray
    std: np.ndarray

    def to_json(self) -> str:
        return json.dumps(
            {"mean": self.mean.tolist(), "std": self.std.tolist()}, sort_keys=True
        )

    @classmethod
    def from_json(cls, text: str) -> "NormalizationStats":
        """Stats from the text to_json writes. The text comes from outside,
        so anything but an object whose mean and std are arrays of finite
        numbers of one length, every std positive, raises ValueError."""
        obj = json.loads(text)
        if not isinstance(obj, dict) or not {"mean", "std"} <= obj.keys():
            raise ValueError("normalization stats must be a JSON object with mean and std")
        mean, std = (np.array(json_value(Tuple[float, ...], obj[k], "stats " + k), np.float64)
                     for k in ("mean", "std"))
        if mean.shape != std.shape:
            raise ValueError("stats mean and std must have equal length")
        if not (std > 0).all():
            raise ValueError("stats std must be positive")
        return cls(mean=mean, std=std)


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
    """A matrix z-scored with training stats."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != stats.mean.shape[0]:
        raise ValueError(
            f"matrix has {x.shape[-1]} columns, stats expect {stats.mean.shape[0]}"
        )
    return (x - stats.mean) / stats.std


def save_stats(stats: NormalizationStats, path) -> None:
    with open(path, "w") as f:
        f.write(stats.to_json() + "\n")


def load_stats(path) -> NormalizationStats:
    with open(path, "r") as f:
        return NormalizationStats.from_json(f.read())
