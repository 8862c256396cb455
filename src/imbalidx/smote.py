"""Synthetic minority oversampling.

New minority rows are drawn on the segment between an existing minority
row and one of its k nearest minority neighbours. Every synthetic row logs
which pair produced it and where on the segment it sits, so a run can be
replayed and audited after the fact.

Neighbour distance is plain Euclidean on the matrix as given; callers are
expected to hand in normalized features so large-magnitude columns do not
swamp the geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .flows import ATTACK


class TooFewMinority(ValueError):
    """k nearest neighbours need more than k minority rows."""


@dataclass
class SmoteResult:
    """Synthetic rows plus the recipe for each one.

    base_idx / neighbor_idx index into the minority matrix, so
    minority[base] + gap * (minority[neighbor] - minority[base]) rebuilds
    each synthetic row exactly. Each neighbor is among its base's k
    nearest, for the k that smote was given.
    """

    synthetic: np.ndarray
    base_idx: np.ndarray
    neighbor_idx: np.ndarray
    gap: np.ndarray

    @property
    def n_synthetic(self) -> int:
        return int(self.base_idx.size)


def minority_class(y: np.ndarray) -> int:
    """The rarer label; ties go to the attack class."""
    y = np.asarray(y)
    n_attack = int(np.count_nonzero(y == ATTACK))
    return ATTACK if n_attack <= y.size - n_attack else 1 - ATTACK


def synthetic_count(n_minority: int, n_total: int, target_ratio: float) -> int:
    """How many synthetic minority rows lift the minority share to
    target_ratio of the grown total. Never negative."""
    if not 0.0 < target_ratio < 1.0:
        raise ValueError(f"target_ratio must be in (0, 1), got {target_ratio}")
    raw = (target_ratio * n_total - n_minority) / (1.0 - target_ratio)
    return max(0, round(raw))


# Elements of one block's squared-difference array: 1 MB of float64.
_BLOCK_ELEMS = 131_072


def _nearest_neighbors(minority: np.ndarray, k: int) -> np.ndarray:
    """(n, k) neighbour table by Euclidean distance, self excluded,
    distance ties broken toward the lower row index.

    Distances are sums of squared differences, a few rows at a time. The
    Gram form |a|^2 + |b|^2 - 2a.b would be faster, but its rounding
    reorders near ties and breaks exact ties between duplicate rows."""
    n, dim = minority.shape
    table = np.empty((n, k), dtype=np.int64)
    block = max(1, _BLOCK_ELEMS // max(1, n * dim))
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        diff = minority[lo:hi, None, :] - minority[None, :, :]
        np.multiply(diff, diff, out=diff)
        d = np.add.reduce(diff, axis=2)
        # Every distance is >= 0, so each row's own entry sorts first.
        d[np.arange(hi - lo), np.arange(lo, hi)] = -1.0
        table[lo:hi] = np.argsort(d, axis=1, kind="stable")[:, 1 : k + 1]
    return table


def smote(minority: np.ndarray, target_count: int, k: int = 5, seed=None) -> SmoteResult:
    """Grow a minority matrix of M rows to target_count rows, returning
    only the target_count - M synthetic ones. k is the neighbour pool per
    base row; growing needs k < M, else TooFewMinority, since every row
    has only M - 1 neighbours. seed is anything np.random.default_rng
    takes.

    Base rows are assigned round-robin over the minority set, with the
    remainder drawn uniformly without replacement. Each synthetic row
    interpolates from its base toward one of the base's k nearest
    neighbours at a uniform random fraction of the gap.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    minority = np.asarray(minority, dtype=np.float64)
    if minority.ndim != 2:
        raise ValueError(f"minority must be 2-d, got shape {minority.shape}")
    m = minority.shape[0]
    n_synth = target_count - m
    if n_synth < 0:
        raise ValueError(
            f"target_count {target_count} is below the current minority size {m}"
        )
    empty = np.empty(0, dtype=np.int64)
    if n_synth == 0:
        return SmoteResult(np.empty((0, minority.shape[1])), empty, empty, np.empty(0))
    if k > m - 1:
        raise TooFewMinority(f"k={k} needs more than {k} minority rows, got {m}")
    rng = np.random.default_rng(seed)

    q, r = divmod(n_synth, m)
    bases = np.tile(np.arange(m), q)
    if r:
        bases = np.concatenate([bases, rng.choice(m, size=r, replace=False)])

    table = _nearest_neighbors(minority, k)
    pick = rng.integers(0, k, size=n_synth)
    gaps = rng.random(n_synth)
    result = SmoteResult(None, bases.astype(np.int64), table[bases, pick], gaps)
    result.synthetic = replay(minority, result)
    return result


def replay(minority: np.ndarray, result: SmoteResult) -> np.ndarray:
    """The synthetic rows that result's log describes, rebuilt from the
    minority matrix it indexes. smote() builds its rows with it, so the log
    is by construction the recipe of every row it returns."""
    minority = np.asarray(minority, dtype=np.float64)
    base = minority[result.base_idx]
    neigh = minority[result.neighbor_idx]
    return base + result.gap[:, None] * (neigh - base)


def augment_training_set(
    x: np.ndarray,
    y: np.ndarray,
    target_ratio: float = 0.10,
    k: int = 5,
    seed=None,
) -> Tuple[np.ndarray, np.ndarray, SmoteResult]:
    """Oversample the minority class of a training set until it holds
    target_ratio of the grown total; pass-through if already there."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError(f"shape mismatch: x {x.shape}, y {y.shape}")
    mino = minority_class(y)
    rows = np.flatnonzero(y == mino)
    need = synthetic_count(int(rows.size), int(y.size), target_ratio)
    result = smote(x[rows], int(rows.size) + need, k=k, seed=seed)
    if result.n_synthetic == 0:
        return x, y, result
    x_out = np.concatenate([x, result.synthetic])
    y_out = np.concatenate([y, np.full(result.n_synthetic, mino, dtype=np.int64)])
    return x_out, y_out, result

