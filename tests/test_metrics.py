"""Metric formulas against an independent high-precision oracle."""

import math
from dataclasses import asdict
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbalidx.metrics import (
    ConfusionMatrix,
    LengthMismatch,
    MetricsReport,
    accuracy,
    confusion,
    far,
    mcc,
    sensitivity,
    undetected_rate,
)

getcontext().prec = 50


def oracle(tp, tn, fp, fn):
    """Recompute all five metrics with 50-digit Decimal arithmetic.

    Deliberately shares no code with the implementation: ratios are formed
    directly from the definitions and the square root comes from Decimal.
    """
    total = Decimal(tp + tn + fp + fn)
    acc = Decimal(100) * (tp + tn) / total
    fa = Decimal(100) * fp / (fp + tn) if fp + tn else Decimal(0)
    sens = Decimal(100) * tp / (tp + fn) if tp + fn else Decimal(0)
    ur = Decimal(100) - sens if tp + fn else Decimal(0)
    d = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    m = Decimal(100) * (tp * tn - fp * fn) / Decimal(d).sqrt() if d else Decimal(0)
    return {"accuracy": acc, "far": fa, "ur": ur, "mcc": m, "sensitivity": sens}


def assert_close_to_oracle(cm, rel=1e-9):
    want = oracle(cm.tp, cm.tn, cm.fp, cm.fn)
    got = asdict(MetricsReport.from_confusion(cm))
    for name, expected in want.items():
        e = float(expected)
        assert abs(got[name] - e) <= rel * max(1.0, abs(e)), (
            f"{name}: got {got[name]!r}, oracle {e!r} for {cm}"
        )


counts = st.integers(min_value=0, max_value=10**6)


def test_worked_example():
    cm = ConfusionMatrix(tp=7, tn=85, fp=5, fn=3)
    assert accuracy(cm) == 92.0
    assert far(cm) == pytest.approx(5.555555555555555, abs=1e-12)
    assert undetected_rate(cm) == 30.0
    assert mcc(cm) == pytest.approx(59.49422064001082, abs=1e-9)
    assert sensitivity(cm) == 70.0


def test_perfect_predictor():
    cm = ConfusionMatrix(tp=40, tn=60, fp=0, fn=0)
    assert accuracy(cm) == 100.0
    assert far(cm) == 0.0
    assert undetected_rate(cm) == 0.0
    assert mcc(cm) == 100.0
    assert sensitivity(cm) == 100.0


def test_inverted_predictor_has_negative_mcc():
    assert mcc(ConfusionMatrix(tp=0, tn=0, fp=60, fn=40)) == -100.0
    assert mcc(ConfusionMatrix(tp=1, tn=1, fp=50, fn=50)) < 0


def test_zero_denominator_conventions():
    no_normals = ConfusionMatrix(tp=5, tn=0, fp=0, fn=5)
    assert far(no_normals) == 0.0
    no_attacks = ConfusionMatrix(tp=0, tn=9, fp=1, fn=0)
    assert sensitivity(no_attacks) == 0.0
    assert undetected_rate(no_attacks) == 0.0
    assert mcc(no_attacks) == 0.0


def test_empty_matrix_rejected():
    cm = ConfusionMatrix(tp=0, tn=0, fp=0, fn=0)
    with pytest.raises(ValueError):
        accuracy(cm)


def test_negative_and_non_integer_counts_rejected():
    with pytest.raises(ValueError):
        ConfusionMatrix(tp=-1, tn=0, fp=0, fn=0)
    with pytest.raises(ValueError):
        ConfusionMatrix(tp=1.0, tn=2, fp=3, fn=4)


def test_randomized_against_oracle():
    rng = np.random.default_rng(1902)
    for _ in range(200):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 10**6, size=4))
        if tp + tn + fp + fn == 0:
            continue
        assert_close_to_oracle(ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn))


@given(tp=counts, tn=counts, fp=counts, fn=counts)
def test_complement_identity_is_exact(tp, tn, fp, fn):
    if tp + tn + fp + fn == 0:
        return
    cm = ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)
    if tp + fn == 0:
        assert undetected_rate(cm) == 0.0
    else:
        assert undetected_rate(cm) == 100.0 - sensitivity(cm)


@given(tp=counts, tn=counts, fp=counts, fn=counts,
       k=st.integers(min_value=1, max_value=1000))
def test_ratio_metrics_are_scale_invariant(tp, tn, fp, fn, k):
    # Counts stay small enough that every intermediate is an exact float,
    # so the invariance holds to the last bit for the ratio metrics.
    if tp + tn + fp + fn == 0:
        return
    cm = ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)
    big = ConfusionMatrix(tp=k * tp, tn=k * tn, fp=k * fp, fn=k * fn)
    assert accuracy(big) == accuracy(cm)
    assert far(big) == far(cm)
    assert sensitivity(big) == sensitivity(cm)
    assert undetected_rate(big) == undetected_rate(cm)
    assert mcc(big) == pytest.approx(mcc(cm), rel=1e-12, abs=1e-12)


@given(tp=counts, tn=counts, fp=counts, fn=counts)
@settings(max_examples=200)
def test_ranges(tp, tn, fp, fn):
    if tp + tn + fp + fn == 0:
        return
    r = MetricsReport.from_confusion(ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn))
    assert 0.0 <= r.accuracy <= 100.0
    assert 0.0 <= r.far <= 100.0
    assert 0.0 <= r.ur <= 100.0
    assert 0.0 <= r.sensitivity <= 100.0
    assert -100.0 <= r.mcc <= 100.0 + 1e-9


def test_confusion_counts():
    preds = [1, 1, 0, 0, 1, 0]
    truth = [1, 0, 1, 0, 1, 0]
    cm = confusion(preds, truth)
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 2, 1, 1)


def test_confusion_accepts_numpy_arrays():
    preds = np.array([1, 0, 1, 0], dtype=np.int64)
    truth = np.array([1, 1, 0, 0], dtype=np.int64)
    cm = confusion(preds, truth)
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (1, 1, 1, 1)
    accuracy(cm)  # counts must be plain ints, not numpy scalars


def test_confusion_counts_any_nonzero_as_attack():
    preds = [2, 0, -1, 0.5, True, 0]
    truth = [True, 7, 0, 0.0, 0.25, False]
    cm = confusion(preds, truth)
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 1, 2, 1)
    assert confusion(np.array(preds, dtype=float), np.array(truth, dtype=float)) == cm


def test_confusion_rejects_mismatch_and_empty():
    with pytest.raises(LengthMismatch):
        confusion([1, 0], [1])
    with pytest.raises(LengthMismatch):
        confusion([], [])


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1))
def test_confusion_partitions_every_sample(pairs):
    preds = [p for p, _ in pairs]
    truth = [t for _, t in pairs]
    cm = confusion(preds, truth)
    assert cm.total == len(pairs)
    assert cm.tp + cm.fn == sum(truth)
    assert cm.fp + cm.tn == len(pairs) - sum(truth)
