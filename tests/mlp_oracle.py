"""Reference trainer for the tests: one numpy array per weight, bias,
velocity and gradient, and a fresh array for every intermediate.

This is the per-array loop that imbalidx.mlp.train runs on flat buffers.
The flat-buffer trainer must reproduce its weights, biases and per-epoch
losses bit for bit, so the forward pass, the loss, the sigmoid and the
update below are kept exactly as they were written for that loop.
"""

from typing import List, Tuple

import numpy as np

from imbalidx.flows import LabeledDataset
from imbalidx.mlp import (
    MlpModel,
    NonFiniteLoss,
    SingleClassTrainingSet,
    TrainConfig,
    _as_matrix,
)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Clipping keeps the output strictly inside (0, 1) in float64.
    z = np.clip(z, -36.0, 36.0)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward_full(
    model: MlpModel, x: np.ndarray
) -> Tuple[List[np.ndarray], List[np.ndarray], np.ndarray]:
    """Per-layer activations and pre-activations, plus final logits."""
    acts = [x]
    zs = []
    a = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        zs.append(z)
        if i < last:
            a = np.maximum(z, 0.0)
            acts.append(a)
    return acts, zs, zs[-1][:, 0]


def _bce_from_logits(logits: np.ndarray, y: np.ndarray) -> float:
    # mean(softplus(z) - y*z); softplus via logaddexp so huge logits cannot
    # produce log(0).
    return float(np.mean(np.logaddexp(0.0, logits) - y * logits))


def _gradients(
    model: MlpModel, x: np.ndarray, y: np.ndarray
) -> Tuple[List[np.ndarray], List[np.ndarray], float]:
    """Backprop for the mean BCE over the batch."""
    acts, zs, logits = _forward_full(model, x)
    batch_loss = _bce_from_logits(logits, y)
    delta = (_sigmoid(logits) - y)[:, None] / x.shape[0]
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = delta.T @ acts[i]
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i]) * (zs[i - 1] > 0.0)
    return grads_w, grads_b, batch_loss


def train(
    model: MlpModel,
    train_set: LabeledDataset,
    config: TrainConfig = TrainConfig(),
    seed=None,
) -> Tuple[MlpModel, List[float]]:
    """Fit in place and return (model, per-epoch mean losses).

    Velocity update per parameter: v = momentum*v - lr*grad; theta += v.
    Epoch shuffling comes from seed, so a (seed, data, config) triple
    fully determines the fitted parameters.
    """
    x = _as_matrix(model, train_set.x)
    y = train_set.y.astype(np.float64)
    classes = np.unique(y)
    if classes.size < 2:
        raise SingleClassTrainingSet(
            f"training labels are all {classes[0]:g}" if classes.size else
            "training set is empty"
        )
    rng = np.random.default_rng(seed)
    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    history: List[float] = []
    n = x.shape[0]
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, config.batch_size):
            sel = order[lo : lo + config.batch_size]
            gw, gb, batch_loss = _gradients(model, x[sel], y[sel])
            if not np.isfinite(batch_loss):
                raise NonFiniteLoss(f"loss became {batch_loss}")
            total += batch_loss * sel.size
            for i in range(len(model.weights)):
                vel_w[i] = config.momentum * vel_w[i] - config.learning_rate * gw[i]
                vel_b[i] = config.momentum * vel_b[i] - config.learning_rate * gb[i]
                model.weights[i] += vel_w[i]
                model.biases[i] += vel_b[i]
        history.append(total / n)
    return model, history
