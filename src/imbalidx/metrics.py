"""Confusion matrix and the five detection-quality metrics, all in percent."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class LengthMismatch(ValueError):
    """Prediction and truth vectors differ in length (or are empty)."""


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "tn", "fp", "fn"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def confusion(predictions: Sequence[int], truth: Sequence[int]) -> ConfusionMatrix:
    """Count TP/TN/FP/FN for binary labels (1 = attack, 0 = normal)."""
    if len(predictions) != len(truth) or len(truth) == 0:
        raise LengthMismatch(
            f"got {len(predictions)} predictions for {len(truth)} truth labels"
        )
    # Any nonzero value counts as attack. Cell index: truth * 2 + prediction.
    pred = np.asarray(predictions).reshape(len(predictions)) != 0
    true = np.asarray(truth).reshape(len(truth)) != 0
    tn, fp, fn, tp = np.bincount(true * 2 + pred, minlength=4).tolist()
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)


def accuracy(cm: ConfusionMatrix) -> float:
    """Correctly classified fraction of all samples, in percent."""
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    return 100.0 * (cm.tp + cm.tn) / cm.total


def far(cm: ConfusionMatrix) -> float:
    """False alarm rate: normal traffic flagged as attack, in percent.

    Returns 0 when there is no normal traffic at all (fp + tn == 0).
    """
    denom = cm.fp + cm.tn
    if denom == 0:
        return 0.0
    return 100.0 * cm.fp / denom


def sensitivity(cm: ConfusionMatrix) -> float:
    """True positive rate: attacks caught, in percent. 0 when tp + fn == 0."""
    denom = cm.tp + cm.fn
    if denom == 0:
        return 0.0
    return 100.0 * cm.tp / denom


def undetected_rate(cm: ConfusionMatrix) -> float:
    """Attacks missed, in percent. 0 when tp + fn == 0.

    Computed as 100 - sensitivity so the complement identity holds exactly
    in floating point, not just within rounding.
    """
    if cm.tp + cm.fn == 0:
        return 0.0
    return 100.0 - sensitivity(cm)


def mcc(cm: ConfusionMatrix) -> float:
    """Matthews correlation coefficient scaled to [-100, 100].

    Returns 0 when any marginal (tp+fp, tp+fn, tn+fp, tn+fn) is zero.
    Products are taken in exact integer arithmetic before the final
    float sqrt so counts at 1e6+ scale cannot overflow or lose the sign.
    """
    n = cm.tp * cm.tn - cm.fp * cm.fn
    d = (cm.tp + cm.fp) * (cm.tp + cm.fn) * (cm.tn + cm.fp) * (cm.tn + cm.fn)
    if d == 0:
        return 0.0
    return 100.0 * n / math.sqrt(d)


@dataclass(frozen=True)
class MetricsReport:
    """The five evaluation metrics for one trained model, in percent. Its
    fields are the one list of metric names and their order."""

    accuracy: float
    far: float
    ur: float
    mcc: float
    sensitivity: float

    @classmethod
    def from_confusion(cls, cm: ConfusionMatrix) -> "MetricsReport":
        return cls(
            accuracy=accuracy(cm),
            far=far(cm),
            ur=undetected_rate(cm),
            mcc=mcc(cm),
            sensitivity=sensitivity(cm),
        )
