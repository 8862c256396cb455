"""Small feedforward binary classifier trained with plain backprop.

Hidden layers are relu, the single output unit is a sigmoid, and the loss
is binary cross-entropy computed in log space from the pre-activation.
Optimization is mini-batch gradient descent with classical momentum.
Everything is float64 numpy; no training framework behind it.

Weight matrices are stored (fan_out, fan_in), one row per output unit.

Training keeps every parameter in one flat float64 buffer laid out
W0, b0, W1, b1, ..., with the per-layer matrices and vectors as views into
it; gradients and velocities are flat buffers of the same layout. The
momentum step is then four whole-buffer operations whatever the depth:
v *= momentum; g*lr into a scratch buffer; v -= scratch; theta += v. Every
element goes through the same roundings as the per-array form
v = momentum*v - lr*g; theta += v (each product rounded once, then the
difference, then the sum), so both give the same bits.

A training step writes every array into buffers allocated once per
train() call; the views of a full batch and of the short last one are
made there too. Each step runs the same floating-point operations in
the same order as a pass that allocates its arrays, so both give the
same bits:
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

import json
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .dataset import LabeledDataset
from .textio import ConfigInvalid, check_fields, json_value

FORMAT_VERSION = 1


class BadArchitecture(ValueError):
    """Layer size list does not describe a usable binary classifier."""


class SingleClassTrainingSet(ValueError):
    """Training data holds only one class; the loss cannot rank anything."""


class NonFiniteLoss(FloatingPointError):
    """Training produced a NaN or infinite loss instead of converging."""


class ModelFormatError(ValueError):
    """Serialized model is malformed or from an unknown format."""


@dataclass
class MlpModel:
    layer_sizes: List[int]
    weights: List[np.ndarray]
    biases: List[np.ndarray]

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 256
    learning_rate: float = 0.01
    momentum: float = 0.9

    def __post_init__(self):
        check_fields(self)
        if self.epochs < 1:
            raise ConfigInvalid(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigInvalid(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigInvalid(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigInvalid(f"momentum must be in [0, 1), got {self.momentum}")


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


def predict(model: MlpModel, x: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Hard labels: attack when the probability reaches the threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    return (forward(model, x) >= threshold).astype(np.int64)


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
    """Flat parameter and gradient buffers for one model, plus the batch
    buffers of a forward and backward pass over up to `rows` rows.

    Buffers are allocated once; each pass writes into them with out=
    arguments, so no array is allocated per step."""

    def __init__(self, model: MlpModel, rows: int):
        sizes = model.layer_sizes
        layers = list(zip(sizes[:-1], sizes[1:]))
        self.params = np.empty(sum(o * (i + 1) for i, o in layers))
        self.grads = np.empty_like(self.params)
        self.w, self.b = _layer_views(self.params, layers)
        self.gw, self.gb = _layer_views(self.grads, layers)
        self.wt = [w.T for w in self.w]
        for dst, src in zip(self.w + self.b, model.weights + model.biases):
            dst[...] = src
        self.rows = rows
        self.x = np.empty((rows, sizes[0]))
        self.y = np.empty(rows)
        self.z = [np.empty((rows, o)) for o in sizes[1:]]
        self.act = [np.empty((rows, o)) for o in sizes[1:-1]]
        self.delta = [np.empty((rows, o)) for o in sizes[1:]]
        self.mask = [np.empty((rows, o), dtype=bool) for o in sizes[1:-1]]
        self.scratch = np.empty((2, rows))
        self.pos = np.empty(rows, dtype=bool)

    def backprop(self, bt: "_Batch") -> float:
        """Mean BCE over the rows of bt.x and bt.y; its gradient lands in
        self.grads."""
        for i, (a, wt, b, z) in enumerate(zip(bt.acts, self.wt, self.b, bt.zs)):
            np.matmul(a, wt, out=z)
            z += b
            if i < bt.last:
                np.maximum(z, 0.0, out=bt.acts[i + 1])
        t, e = bt.scratch
        batch_loss = _bce_into(bt.logits, bt.y, t, e)
        _sigmoid_into(bt.logits, bt.dlogits, t, e, bt.pos)
        np.subtract(bt.dlogits, bt.y, out=bt.dlogits)
        np.divide(bt.dlogits, bt.m, out=bt.dlogits)
        for i in range(bt.last, -1, -1):
            delta = bt.deltas[i]
            np.matmul(bt.deltas_t[i], bt.acts[i], out=self.gw[i])
            np.add.reduce(delta, axis=0, out=self.gb[i])
            if i > 0:
                below = bt.deltas[i - 1]
                np.matmul(delta, self.w[i], out=below)
                np.greater(bt.zs[i - 1], 0.0, out=bt.masks[i - 1])
                np.multiply(below, bt.masks[i - 1], out=below)
        return batch_loss

    def store(self, model: MlpModel) -> None:
        """Copy the parameters into the model's own arrays."""
        for dst, src in zip(model.weights + model.biases, self.w + self.b):
            dst[...] = src


class _Batch:
    """Views of the first m rows of every batch buffer of a workspace,
    built once per batch size so a step makes no slices."""

    def __init__(self, ws: _Workspace, m: int):
        self.m = m
        self.x = ws.x[:m]
        self.y = ws.y[:m]
        self.zs = [z[:m] for z in ws.z]
        self.acts = [self.x] + [a[:m] for a in ws.act]
        self.deltas = [d[:m] for d in ws.delta]
        self.deltas_t = [d.T for d in self.deltas]
        self.masks = [k[:m] for k in ws.mask]
        self.last = len(self.zs) - 1
        self.logits = self.zs[-1][:, 0]
        self.dlogits = self.deltas[-1][:, 0]
        self.scratch = ws.scratch[:, :m]
        self.pos = ws.pos[:m]


def _layer_views(
    flat: np.ndarray, layers: List[Tuple[int, int]]
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Per-layer (fan_out, fan_in) weight and (fan_out,) bias views into a
    flat buffer laid out W0, b0, W1, b1, ..."""
    weights, biases = [], []
    at = 0
    for fan_in, fan_out in layers:
        weights.append(flat[at : at + fan_out * fan_in].reshape(fan_out, fan_in))
        at += fan_out * fan_in
        biases.append(flat[at : at + fan_out])
        at += fan_out
    return weights, biases


def train(
    model: MlpModel,
    train_set: LabeledDataset,
    config: TrainConfig = TrainConfig(),
    seed=None,
) -> Tuple[MlpModel, List[float]]:
    """Fit in place and return (model, per-epoch mean losses).

    Velocity update per parameter: v = momentum*v - lr*grad; theta += v.
    Epoch shuffling comes from seed (anything np.random.default_rng
    takes), so a (seed, data, config) triple fully determines the fitted
    parameters. The arrays in model.weights and model.biases are updated
    in place, and hold the parameters of the last completed step also
    when NonFiniteLoss is raised.
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
    ws = _Workspace(model, min(batch_size, n))
    full = _Batch(ws, ws.rows)
    tail = _Batch(ws, n % ws.rows) if n % ws.rows else full
    vel = np.zeros_like(ws.params)
    step = np.empty_like(ws.params)
    history: List[float] = []
    try:
        for _ in range(config.epochs):
            order = rng.permutation(n)
            total = 0.0
            for lo in range(0, n, batch_size):
                sel = order[lo : lo + batch_size]
                bt = full if sel.size == ws.rows else tail
                # mode="clip" skips the bounds pass (sel is a permutation),
                # which would otherwise make take() gather through a copy.
                np.take(x, sel, axis=0, out=bt.x, mode="clip")
                np.take(y, sel, out=bt.y, mode="clip")
                batch_loss = ws.backprop(bt)
                if not math.isfinite(batch_loss):
                    raise NonFiniteLoss(f"loss became {batch_loss}")
                total += batch_loss * bt.m
                vel *= config.momentum
                np.multiply(ws.grads, config.learning_rate, out=step)
                vel -= step
                ws.params += vel
            history.append(total / n)
    finally:
        ws.store(model)
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
    ws = _Workspace(model, x.shape[0])
    ws.x[...] = x
    ws.y[...] = y
    ws.backprop(_Batch(ws, ws.rows))
    gw, gb = ws.gw, ws.gb
    worst = 0.0
    for params, grads in ((model.weights, gw), (model.biases, gb)):
        for p, g in zip(params, grads):
            flat_p = p.ravel()
            flat_g = g.ravel()
            for j in range(flat_p.size):
                orig = flat_p[j]
                flat_p[j] = orig + epsilon
                hi = loss(model, x, y)
                flat_p[j] = orig - epsilon
                lo = loss(model, x, y)
                flat_p[j] = orig
                numeric = (hi - lo) / (2.0 * epsilon)
                analytic = flat_g[j]
                denom = max(abs(analytic) + abs(numeric), 1e-12)
                worst = max(worst, abs(analytic - numeric) / denom)
    return worst


def save_model(model: MlpModel, path) -> None:
    obj = {
        "version": FORMAT_VERSION,
        "layer_sizes": list(model.layer_sizes),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "hidden_activation": "relu",
        "output_activation": "sigmoid",
    }
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True)
        f.write("\n")


def load_model(path) -> MlpModel:
    """The model save_model wrote. ModelFormatError unless the file is a
    JSON object in this format, its layer sizes are integers, and its
    weights and biases are finite JSON numbers in the shapes those imply."""
    with open(path, "r") as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ModelFormatError(f"model file must be a JSON object, got {obj!r:.40}")
    if obj.get("version") != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format: {obj.get('version')!r}")
    if obj.get("hidden_activation") != "relu" or obj.get("output_activation") != "sigmoid":
        raise ModelFormatError("unknown activation names")
    try:
        sizes = check_architecture(json_value(Tuple[int, ...], obj["layer_sizes"], "layer_sizes"))
        weights = [np.asarray(w, dtype=np.float64) for w in json_value(
            Tuple[Tuple[Tuple[float, ...], ...], ...], obj["weights"], "weights")]
        biases = [np.asarray(b, dtype=np.float64) for b in json_value(
            Tuple[Tuple[float, ...], ...], obj["biases"], "biases")]
    except (KeyError, ValueError) as exc:  # ragged rows fail in asarray
        raise ModelFormatError(f"malformed model payload: {exc}") from None
    if len(weights) != len(sizes) - 1 or len(biases) != len(sizes) - 1:
        raise ModelFormatError("layer count does not match weight count")
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.shape != (sizes[i + 1], sizes[i]) or b.shape != (sizes[i + 1],):
            raise ModelFormatError(
                f"layer {i} shapes {w.shape}/{b.shape} do not match sizes {sizes}"
            )
    return MlpModel(layer_sizes=sizes, weights=weights, biases=biases)
