"""Small feedforward binary classifier trained with plain backprop.

Hidden layers are relu, the single output unit is a sigmoid, and the loss
is binary cross-entropy computed in log space from the pre-activation.
Optimization is mini-batch gradient descent with classical momentum.
Everything is float64 numpy; no training framework behind it.

Weight matrices are stored (fan_out, fan_in), one row per output unit.

The model keeps every parameter in one flat float64 buffer of its own,
`params`, laid out W0, b0, W1, b1, ..., with the per-layer matrices and
vectors as views into it; training updates that buffer in place, and its
gradients and velocities are flat buffers of the same layout. The
momentum step is then four whole-buffer operations whatever the depth
(m = MOMENTUM, lr = LEARNING_RATE): v *= m; g*lr into a scratch buffer;
v -= scratch; theta += v. Every element goes through the same roundings
as the per-array form v = m*v - lr*g; theta += v (each product rounded
once, then the difference, then the sum), so both give the same bits.

A training step writes every array into buffers allocated once per
train() call, one workspace per batch shape: the full batch and, when
the rows do not divide evenly, the short last one. Each step runs the
same floating-point operations in the same order as a pass that
allocates its arrays, so both give the same bits:
- the BCE goes through two scratch buffers (logaddexp, y*z, their
  difference) and is summed with the pairwise add.reduce and divided
  once, as np.mean does;
- the sigmoid clips -|z| at -36 with maximum, which propagates NaN as
  clip does, and writes exp(-|z|), 1 + e and the quotient into scratch
  and the output-layer delta; a bool buffer picks 1 or e as numerator;
- bias gradients are add.reduce along the batch axis, the order sum()
  uses;
- the ReLU mask is written into a bool buffer and multiplied into the
  delta in place, so a masked negative delta becomes -0.0 as before.
The BCE and the sigmoid each compute their own exp: logaddexp calls
the scalar libm exp while np.exp on an array may take a SIMD loop, and
sharing one result would move the loss by ulps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .flows import LabeledDataset
from .textio import ConfigInvalid, check_fields


class BadArchitecture(ValueError):
    """Layer size list does not describe a usable binary classifier."""


class SingleClassTrainingSet(ValueError):
    """Training data holds only one class; the loss cannot rank anything."""


class NonFiniteLoss(FloatingPointError):
    """Training produced a NaN or infinite loss instead of converging."""


def _layer_views(
    flat: np.ndarray, sizes: Sequence[int]
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Per-layer (fan_out, fan_in) weight and (fan_out,) bias views into a
    flat buffer laid out W0, b0, W1, b1, ..."""
    weights, biases = [], []
    at = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[at : at + fan_out * fan_in].reshape(fan_out, fan_in))
        at += fan_out * fan_in
        biases.append(flat[at : at + fan_out])
        at += fan_out
    return weights, biases


@dataclass
class MlpModel:
    """A classifier's layers and parameters. The given weights and biases
    are copied into `params`, one flat float64 buffer laid out W0, b0,
    W1, b1, ..., and `weights`/`biases` become views of it.
    BadArchitecture unless each layer has exactly one (fan_out, fan_in)
    weight and one (fan_out,) bias."""

    layer_sizes: List[int]
    weights: List[np.ndarray]
    biases: List[np.ndarray]
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sizes = self.layer_sizes = check_architecture(self.layer_sizes)
        self.params = np.empty(sum(o * (i + 1) for i, o in zip(sizes[:-1], sizes[1:])))
        weights, biases = _layer_views(self.params, sizes)
        if len(self.weights) != len(weights) or len(self.biases) != len(biases):
            raise BadArchitecture(
                f"{len(weights)} layers need as many weights and biases, "
                f"got {len(self.weights)} and {len(self.biases)}")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            for dst, src in ((weights[k], w), (biases[k], b)):
                if np.shape(src) != dst.shape:
                    raise BadArchitecture(
                        f"layer {k} needs shape {dst.shape}, got {np.shape(src)}")
                dst[...] = src
        self.weights, self.biases = weights, biases

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]


# The step rule, part of the method; TrainConfig sets only the budget.
LEARNING_RATE = 0.01
MOMENTUM = 0.9


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 256

    def __post_init__(self):
        check_fields(self)
        if self.epochs < 1:
            raise ConfigInvalid(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigInvalid(f"batch_size must be >= 1, got {self.batch_size}")


def check_architecture(layer_sizes: Sequence[int]) -> List[int]:
    """The sizes as ints; BadArchitecture unless they describe a binary classifier."""
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2:
        raise BadArchitecture(f"need input and output layers, got {sizes}")
    if any(s < 1 for s in sizes):
        raise BadArchitecture(f"layer sizes must be positive, got {sizes}")
    if sizes[-1] != 1:
        raise BadArchitecture(f"binary output layer must have size 1, got {sizes[-1]}")
    return sizes


def init_model(layer_sizes: Sequence[int], seed=None) -> MlpModel:
    """Uniform weights in ±sqrt(6/(fan_in+fan_out)), zero biases."""
    sizes = check_architecture(layer_sizes)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(layer_sizes=sizes, weights=weights, biases=biases)


def _sigmoid_into(
    z: np.ndarray, out: np.ndarray, t: np.ndarray, e: np.ndarray, pos: np.ndarray
) -> None:
    """Write the sigmoid of z into out, using t, e and the bool pos (all
    shaped like z) as scratch.

    With e = exp(-|z|) this is 1/(1+exp(-z)) for z >= 0 and
    exp(z)/(1+exp(z)) below, so exp never overflows. Clipping keeps the
    output strictly inside (0, 1) in float64: -|z| is clipped at -36,
    which gives the same bits as clipping z to [-36, 36] for every z,
    NaN and -0.0 included."""
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.maximum(e, -36.0, out=e)
    np.exp(e, out=e)
    np.greater_equal(z, 0.0, out=pos)
    np.add(e, 1.0, out=t)
    np.copyto(e, 1.0, where=pos)
    np.divide(e, t, out=out)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    _sigmoid_into(z, out, np.empty_like(z), np.empty_like(z), np.empty(z.shape, bool))
    return out


def _logits(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Output-unit pre-activations, one per row."""
    a = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.maximum(a @ w.T + b, 0.0)
    return (a @ model.weights[-1].T + model.biases[-1])[:, 0]


def _as_matrix(model: MlpModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != model.n_inputs:
        raise ValueError(
            f"expected (n, {model.n_inputs}) inputs, got shape {x.shape}"
        )
    return x


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Attack probabilities, strictly inside (0, 1). A single 23-vector
    gives a length-1 array."""
    return _sigmoid(_logits(model, _as_matrix(model, x)))


def predict(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Hard labels: attack when the probability reaches 0.5."""
    return (forward(model, x) >= 0.5).astype(np.int64)


def _bce_into(logits: np.ndarray, y: np.ndarray, sp: np.ndarray, yz: np.ndarray) -> float:
    """mean(softplus(z) - y*z), with sp and yz (shaped like logits) as
    scratch. softplus via logaddexp so huge logits cannot produce log(0);
    the pairwise add.reduce and one division are what np.mean does."""
    np.logaddexp(0.0, logits, out=sp)
    np.multiply(y, logits, out=yz)
    sp -= yz
    return float(np.add.reduce(sp) / logits.size)


def loss(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    y = np.asarray(y, dtype=np.float64)
    logits = _logits(model, _as_matrix(model, x))
    return _bce_into(logits, y, np.empty_like(logits), np.empty_like(logits))


class _Workspace:
    """The batch buffers of a forward and backward pass over exactly
    `rows` rows. The pass reads the model's parameters where they live
    and writes their gradient into `grads`, a flat buffer laid out like
    model.params.

    Buffers are allocated once; each pass writes into them with out=
    arguments, so no array is allocated per step."""

    def __init__(self, model: MlpModel, rows: int, grads: np.ndarray):
        sizes = model.layer_sizes
        self.w, self.b = model.weights, model.biases
        self.wt = [w.T for w in self.w]
        self.grads = grads
        self.gw, self.gb = _layer_views(grads, sizes)
        self.rows = rows
        self.x = np.empty((rows, sizes[0]))
        self.y = np.empty(rows)
        self.z = [np.empty((rows, o)) for o in sizes[1:]]
        self.acts = [self.x] + [np.empty((rows, o)) for o in sizes[1:-1]]
        self.delta = [np.empty((rows, o)) for o in sizes[1:]]
        self.delta_t = [d.T for d in self.delta]
        self.mask = [np.empty((rows, o), dtype=bool) for o in sizes[1:-1]]
        self.last = len(self.z) - 1
        self.logits = self.z[-1][:, 0]
        self.dlogits = self.delta[-1][:, 0]
        self.scratch = np.empty((2, rows))
        self.pos = np.empty(rows, dtype=bool)

    def backprop(self) -> float:
        """Mean BCE over the rows of self.x and self.y; its gradient lands
        in self.grads."""
        for i, (a, wt, b, z) in enumerate(zip(self.acts, self.wt, self.b, self.z)):
            np.matmul(a, wt, out=z)
            z += b
            if i < self.last:
                np.maximum(z, 0.0, out=self.acts[i + 1])
        t, e = self.scratch
        batch_loss = _bce_into(self.logits, self.y, t, e)
        _sigmoid_into(self.logits, self.dlogits, t, e, self.pos)
        np.subtract(self.dlogits, self.y, out=self.dlogits)
        np.divide(self.dlogits, self.rows, out=self.dlogits)
        for i in range(self.last, -1, -1):
            delta = self.delta[i]
            np.matmul(self.delta_t[i], self.acts[i], out=self.gw[i])
            np.add.reduce(delta, axis=0, out=self.gb[i])
            if i > 0:
                below = self.delta[i - 1]
                np.matmul(delta, self.w[i], out=below)
                np.greater(self.z[i - 1], 0.0, out=self.mask[i - 1])
                np.multiply(below, self.mask[i - 1], out=below)
        return batch_loss


def train(
    model: MlpModel,
    train_set: LabeledDataset,
    config: TrainConfig = TrainConfig(),
    seed=None,
) -> Tuple[MlpModel, List[float]]:
    """Fit in place and return (model, per-epoch mean losses).

    Velocity update per parameter: v = MOMENTUM*v - LEARNING_RATE*grad;
    theta += v. Epoch shuffling comes from seed (anything
    np.random.default_rng takes), so a (seed, data, config) triple fully
    determines the fitted parameters. model.params, and so the weights and biases that view it,
    is updated in place, and holds the parameters of the last completed
    step also when NonFiniteLoss is raised.
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
    n = x.shape[0]
    batch_size = config.batch_size
    grads = np.empty_like(model.params)
    full = _Workspace(model, min(batch_size, n), grads)
    tail = _Workspace(model, n % full.rows, grads) if n % full.rows else full
    vel = np.zeros_like(model.params)
    step = np.empty_like(model.params)
    history: List[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, batch_size):
            sel = order[lo : lo + batch_size]
            ws = full if sel.size == full.rows else tail
            # mode="clip" skips the bounds pass (sel is a permutation),
            # which would otherwise make take() gather through a copy.
            np.take(x, sel, axis=0, out=ws.x, mode="clip")
            np.take(y, sel, out=ws.y, mode="clip")
            batch_loss = ws.backprop()
            if not math.isfinite(batch_loss):
                raise NonFiniteLoss(f"loss became {batch_loss}")
            total += batch_loss * ws.rows
            vel *= MOMENTUM
            np.multiply(grads, LEARNING_RATE, out=step)
            vel -= step
            model.params += vel
        history.append(total / n)
    return model, history


def gradient_check(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    epsilon: float = 1e-5,
) -> float:
    """Largest relative disagreement between backprop and central finite
    differences (f(p+eps)-f(p-eps))/2eps over every parameter, with the
    relative error floored at 1e-12."""
    x = _as_matrix(model, x)
    ws = _Workspace(model, x.shape[0], np.empty_like(model.params))
    ws.x[...] = x
    ws.y[...] = y
    ws.backprop()
    params = model.params
    worst = 0.0
    for j in range(params.size):
        orig = params[j]
        params[j] = orig + epsilon
        hi = loss(model, x, y)
        params[j] = orig - epsilon
        lo = loss(model, x, y)
        params[j] = orig
        numeric = (hi - lo) / (2.0 * epsilon)
        analytic = ws.grads[j]
        denom = max(abs(analytic) + abs(numeric), 1e-12)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst
