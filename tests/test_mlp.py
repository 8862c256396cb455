"""Classifier: init/forward/backprop/train against hand and finite
difference oracles and the per-array reference trainer."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mlp_oracle
from imbalidx.flows import LabeledDataset
from imbalidx.mlp import (
    LEARNING_RATE,
    MOMENTUM,
    BadArchitecture,
    MlpModel,
    NonFiniteLoss,
    SingleClassTrainingSet,
    TrainConfig,
    forward,
    gradient_check,
    init_model,
    loss,
    predict,
    train,
)


def zero_model(sizes):
    return MlpModel(
        layer_sizes=list(sizes),
        weights=[np.zeros((o, i)) for i, o in zip(sizes[:-1], sizes[1:])],
        biases=[np.zeros(o) for o in sizes[1:]],
    )


def toy_set(n=200, seed=0):
    """Linearly separable in the first two features, the rest zero."""
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.zeros((n, 23))
    x[:half, :2] = rng.normal(2.0, 0.1, size=(half, 2))
    x[half:, :2] = rng.normal(-2.0, 0.1, size=(n - half, 2))
    y = np.array([1] * half + [0] * (n - half), dtype=np.int64)
    return LabeledDataset(x, y)


def test_init_shapes():
    m = init_model([23, 16, 8, 1], seed=0)
    assert [w.shape for w in m.weights] == [(16, 23), (8, 16), (1, 8)]
    assert [b.shape for b in m.biases] == [(16,), (8,), (1,)]
    assert all(np.all(b == 0.0) for b in m.biases)
    for w, fan_in, fan_out in zip(m.weights, [23, 16, 8], [16, 8, 1]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= limit)


def test_init_is_seed_deterministic():
    a = init_model([23, 8, 1], seed=7)
    b = init_model([23, 8, 1], seed=7)
    c = init_model([23, 8, 1], seed=8)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_degenerate_architecture_is_accepted():
    m = init_model([23, 1], seed=0)
    assert [w.shape for w in m.weights] == [(1, 23)]
    p = forward(m, np.zeros(23))
    assert p.shape == (1,)


@pytest.mark.parametrize("sizes", [[23], [23, 8, 2], [23, 0, 1], [23, -4, 1]])
def test_bad_architectures_rejected(sizes):
    with pytest.raises(BadArchitecture):
        init_model(sizes, seed=0)


def test_model_refuses_arrays_that_do_not_match_its_layers():
    for weights, biases in (
        ([np.zeros((8, 23))], [np.zeros(8)]),  # no output layer
        ([np.zeros((1, 23)), np.zeros((1, 8))], [np.zeros(8), np.zeros(1)]),  # broadcasts
        ([np.zeros((8, 23)), np.zeros((1, 8))], [np.zeros(7), np.zeros(1)]),  # short bias
    ):
        with pytest.raises(BadArchitecture, match="layer"):
            MlpModel([23, 8, 1], weights, biases)
    m = init_model([23, 8, 1], seed=0)
    assert m.params.shape == (8 * 24 + 1 * 9,)
    assert all(np.shares_memory(p, m.params) for p in m.weights + m.biases)


def test_zero_model_outputs_exactly_half():
    m = zero_model([23, 4, 1])
    x = np.random.default_rng(1).normal(size=(5, 23))
    assert np.all(forward(m, x) == 0.5)


def test_hand_computed_2_2_1_forward():
    m = MlpModel(
        layer_sizes=[2, 2, 1],
        weights=[np.array([[0.5, -0.25], [-0.75, 1.0]]), np.array([[1.5, -2.0]])],
        biases=[np.array([0.1, -3.0]), np.array([0.3])],
    )
    # Hidden pre-activations: 0.5*1 - 0.25*2 + 0.1 = 0.1
    #                         -0.75*1 + 1.0*2 - 3.0 = -1.75 -> rectified to 0
    # Output: 1.5*0.1 - 2.0*0 + 0.3 = 0.45
    want = 1.0 / (1.0 + math.exp(-(1.5 * 0.1 + 0.3)))
    got = forward(m, np.array([1.0, 2.0]))[0]
    assert got == pytest.approx(want, abs=1e-12)


def test_output_monotone_in_final_bias():
    m = init_model([23, 8, 1], seed=3)
    x = np.random.default_rng(4).normal(size=23)
    outs = []
    for shift in (-2.0, -1.0, 0.0, 1.0, 2.0):
        m.biases[-1][0] = shift
        outs.append(forward(m, x)[0])
    assert all(a < b for a, b in zip(outs, outs[1:]))


def test_output_strictly_inside_unit_interval():
    m = init_model([4, 3, 1], seed=0)
    for w in m.weights:
        w *= 1e6
    x = np.array([[1e6, -1e6, 1e6, -1e6], [0.0, 0.0, 0.0, 0.0]])
    p = forward(m, x)
    assert np.all(p > 0.0) and np.all(p < 1.0)


def test_predict_threshold_boundary():
    # predict cuts at 0.5: exactly 0.5 is an attack, just below is normal.
    m = zero_model([23, 1])
    x = np.zeros((1, 23))
    assert forward(m, x)[0] == 0.5
    assert predict(m, x).tolist() == [1]
    m.biases[-1][0] = -2e-16  # the largest double below 0.5
    assert forward(m, x)[0] == np.nextafter(0.5, 0.0)
    assert predict(m, x).tolist() == [0]


def test_predict_agrees_with_forward_everywhere():
    m = init_model([23, 8, 1], seed=9)
    x = np.random.default_rng(10).normal(size=(50, 23))
    want = (forward(m, x) >= 0.5).astype(int)
    assert np.array_equal(predict(m, x), want)


def test_gradient_check_on_fresh_models():
    rng = np.random.default_rng(20)
    for sizes in ([23, 8, 1], [23, 16, 8, 1], [23, 1]):
        m = init_model(sizes, seed=int(rng.integers(2**31)))
        x = rng.normal(size=(4, 23))
        y = rng.integers(0, 2, size=4).astype(np.float64)
        assert gradient_check(m, x, y, epsilon=1e-5) < 1e-4


def test_gradient_check_degrades_with_large_epsilon():
    m = init_model([23, 8, 1], seed=5)
    x = np.random.default_rng(6).normal(size=(3, 23))
    y = np.array([1.0, 0.0, 1.0])
    fine = gradient_check(m, x, y, epsilon=1e-5)
    coarse = gradient_check(m, x, y, epsilon=0.7)
    assert coarse > fine


def test_gradient_check_at_a_saturated_point():
    # Output saturated hard against the clip: both gradient estimates are
    # essentially zero; the floored denominator keeps the ratio tame
    # instead of dividing 1e-16 by 1e-16.
    m = MlpModel(
        layer_sizes=[2, 1],
        weights=[np.array([[60.0, 60.0]])],
        biases=[np.array([0.0])],
    )
    x = np.array([[1.0, 1.0]])
    y = np.array([1.0])
    assert gradient_check(m, x, y, epsilon=1e-5) < 1e-2


def test_separable_toy_reaches_full_accuracy():
    data = toy_set()
    model = init_model([23, 16, 8, 1], seed=0)
    model, history = train(
        model, data, TrainConfig(epochs=200, batch_size=32), seed=0
    )
    assert len(history) == 200
    assert all(math.isfinite(h) for h in history)
    assert np.array_equal(predict(model, data.x), data.y)


def test_loss_history_non_increasing_in_full_batch_training():
    rng = np.random.default_rng(10)
    data = LabeledDataset(rng.normal(size=(10, 23)), np.array([0, 1] * 5))
    model = init_model([23, 16, 8, 1], seed=2)
    _, history = train(
        model, data,
        TrainConfig(epochs=60, batch_size=10), seed=1,
    )
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


def test_training_is_deterministic():
    data = toy_set(n=60, seed=3)
    cfg = TrainConfig(epochs=5, batch_size=16)
    m1, h1 = train(init_model([23, 8, 1], seed=1), data, cfg, seed=11)
    m2, h2 = train(init_model([23, 8, 1], seed=1), data, cfg, seed=11)
    assert h1 == h2
    for w1, w2 in zip(m1.weights, m2.weights):
        assert np.array_equal(w1, w2)
    m3, _ = train(init_model([23, 8, 1], seed=1), data, cfg, seed=12)
    assert not np.array_equal(m1.weights[0], m3.weights[0])


def test_shapes_survive_training():
    data = toy_set(n=40, seed=4)
    model = init_model([23, 16, 8, 1], seed=0)
    model, _ = train(model, data, TrainConfig(epochs=2, batch_size=64), seed=0)
    assert [w.shape for w in model.weights] == [(16, 23), (8, 16), (1, 8)]
    assert all(np.isfinite(w).all() for w in model.weights)


def test_single_class_training_set_rejected():
    x = np.random.default_rng(0).normal(size=(8, 23))
    data = LabeledDataset(x, np.zeros(8, dtype=np.int64))
    with pytest.raises(SingleClassTrainingSet):
        train(init_model([23, 8, 1], seed=0), data, TrainConfig(epochs=1), seed=0)


def test_zero_epochs_rejected():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


def test_poisoned_parameters_raise_non_finite_loss():
    data = toy_set(n=20, seed=5)
    model = init_model([23, 8, 1], seed=0)
    model.weights[0][0, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLoss):
        train(model, data, TrainConfig(epochs=1, batch_size=20), seed=0)


def test_loss_matches_direct_cross_entropy():
    m = init_model([23, 8, 1], seed=13)
    x = np.random.default_rng(14).normal(size=(6, 23))
    y = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
    p = forward(m, x)
    direct = float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p))))
    assert loss(m, x, y) == pytest.approx(direct, rel=1e-9)


def test_input_width_is_checked():
    m = init_model([23, 8, 1], seed=0)
    with pytest.raises(ValueError):
        forward(m, np.zeros((2, 5)))


ODD = st.sampled_from([1, 3, 5, 7, 9])


@st.composite
def training_cases(draw):
    """An architecture [d,1], [d,k,1] or [d,k,j,1] with odd widths, a
    labelled set holding both classes, a config whose batch size is 1,
    leaves a partial last batch, or exceeds n, a shuffle seed, an
    optional poison: a NaN parameter or an infinite input row, and an
    optional edge: inputs scaled by 1e3, so logits pass the sigmoid clip at +-36 and both
    large-|z| branches of logaddexp, or an all-zero model, whose logits
    and ReLU pre-activations are exactly 0 and whose hidden deltas are
    signed zeros."""
    sizes = [draw(ODD)] + draw(st.lists(ODD, max_size=2)) + [1]
    n = draw(st.integers(3, 40))
    batch = draw(st.sampled_from(["one", "partial", "over"]))
    batch_size = {"one": 1, "partial": n // 2 + 1,
                  "over": n + draw(st.integers(1, 10))}[batch]
    data_seed = draw(st.integers(0, 2**32 - 1))
    config = TrainConfig(
        epochs=draw(st.integers(1, 3)),
        batch_size=batch_size,
    )
    seed = draw(st.integers(0, 2**32 - 1))
    poison = draw(st.sampled_from([None, None, "param", "row"]))
    edge = draw(st.sampled_from([None, None, "scaled", "zero"]))
    return sizes, n, data_seed, config, seed, poison, edge


def _case_inputs(sizes, n, data_seed, poison, edge):
    rng = np.random.default_rng(data_seed)
    x = rng.normal(size=(n, sizes[0]))
    if edge == "scaled":
        x *= 1e3
    y = rng.integers(0, 2, size=n)
    y[:2] = (0, 1)
    if poison == "row":
        x[rng.integers(n), 0] = np.inf
    return LabeledDataset(x, y)


def _case_model(sizes, data_seed, poison, edge):
    model = init_model(sizes, seed=data_seed)
    if edge == "zero":
        model = zero_model(sizes)
    if poison == "param":
        model.weights[-1][0, 0] = np.nan
    return model


def _params(model):
    return model.weights + model.biases


@given(training_cases())
# Beyond the clip, the scaled example's loss history moves if the BCE and
# the sigmoid share one exp(-|z|) array, where np.exp takes a SIMD loop
# that differs from the scalar exp inside logaddexp.
@example(([23, 16, 8, 1], 200, 4, TrainConfig(epochs=2, batch_size=64), 4,
          None, "scaled"))
@example(([23, 16, 8, 1], 40, 1, TrainConfig(epochs=2, batch_size=16), 1,
          None, "zero"))
@settings(max_examples=150, deadline=None)
def test_train_matches_the_per_array_oracle(case):
    sizes, n, data_seed, config, seed, poison, edge = case
    data = _case_inputs(sizes, n, data_seed, poison, edge)
    model = _case_model(sizes, data_seed, poison, edge)
    arrays = _params(model)
    ref = _case_model(sizes, data_seed, poison, edge)
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            got = train(model, data, config, seed)
        except NonFiniteLoss:
            got = None
        try:
            want = mlp_oracle.train(ref, data, SimpleNamespace(
                epochs=config.epochs, batch_size=config.batch_size,
                learning_rate=LEARNING_RATE, momentum=MOMENTUM), seed)
        except NonFiniteLoss:
            want = None
    # Raising or not, the caller's arrays are the ones updated in place.
    assert all(p is q for p, q in zip(_params(model), arrays))
    for p, q in zip(_params(model), _params(ref)):
        assert np.array_equal(p, q, equal_nan=True)
        assert p.tobytes() == q.tobytes()
    assert (got is None) == (want is None)
    if poison == "param":
        assert got is None
    if got is not None:
        assert got[0] is model
        assert np.array_equal(got[1], want[1])
        assert np.array(got[1]).tobytes() == np.array(want[1]).tobytes()
        x = data.x[np.isfinite(data.x).all(axis=1)]
        logits = mlp_oracle._forward_full(ref, x)[2]
        assert forward(model, x).tobytes() == mlp_oracle._sigmoid(logits).tobytes()
