"""Dense neural-network core: exact analytic gradients, two optimizers, checkpoints.

Models are plain stacks of dense layers over float64 numpy arrays. ReLU is
applied after every layer except the last, so the final layer emits logits.
The layer stack is split into an extractor part and a classifier part; the
classifier can be driven directly with feature batches, which is how
generated features enter the model.

Every model, gradient and optimizer slot is one contiguous float64 vector in
the same order as the checkpoint body: per layer, the row-major weight, then
the bias. Whole-model operations (copy, compare, optimizer steps,
aggregation) act on that vector; the matmuls act on per-layer views of it.

Backward passes return only that flat parameter gradient, never the
gradient with respect to the batch. ``optimizer_step`` is the one function
that writes to its arguments: it updates the model's vector and the
optimizer's slots in place, so callers step a copy they own. Everything else
takes values and returns new values, with no hidden shared state.

Cross-entropy has one implementation, ``tempered_ce``, which checks nothing;
``target_rows`` checks labels or probability rows and turns them into the
float64 rows it reads. ``softmax_ce_loss`` runs both on every call. A caller
whose targets stay fixed over many steps (the local trainer) checks them once
with ``target_rows`` and calls ``tempered_ce`` on slices of the result.

A model's flat vector may carry a leading stack axis: ``flat`` shaped
``(G, P)`` holds G models of one layout, each layer's weight view is then
``(G, in, out)`` and its bias ``(G, out)``. ``forward_layers``,
``backward_layers``, ``tempered_ce`` and ``optimizer_step`` take such stacks
as they take one model, batches shaped ``(G, rows, width)``: every matmul and
reduction runs per model, over the same per-model memory layout, so each
model's numbers are the bits it gets on its own. The local trainer steps a
round's clients this way.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ProtocolError, ShapeError

CHECKPOINT_MAGIC = b"KDIA1"


def _layer_views(flat: np.ndarray, shapes) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(weight, bias)`` views into ``flat`` for the weight ``shapes``, in
    order: per layer the row-major weight, then its bias. Leading axes of
    ``flat`` lead every view."""
    views, pos, lead = [], 0, flat.shape[:-1]
    for rows, cols in shapes:
        end = pos + rows * cols
        views.append(
            (flat[..., pos:end].reshape(lead + (rows, cols)), flat[..., end : end + cols])
        )
        pos = end + cols
    return views


class ModelParams:
    """A dense model split into extractor and classifier parts.

    ``flat`` holds every parameter. ``layers[i]`` is a ``(weight, bias)``
    pair of views into it, with weight shaped ``(in_width, out_width)`` and
    bias shaped ``(out_width,)``; a write through either is seen by the
    other. Layers ``[0, split_index)`` form the feature extractor and
    ``[split_index, n)`` the classifier. ``layout`` is
    ``(weight shapes, split_index)``; models with equal layouts share one
    architecture. ``from_flat`` also takes a ``(G, P)`` stack of G models.
    """

    def __init__(self, layers, split_index: int):
        """Copy a list of ``(weight, bias)`` arrays into a new flat vector."""
        for i, (w, b) in enumerate(layers):
            if np.ndim(w) != 2 or np.ndim(b) != 1 or np.shape(b) != np.shape(w)[1:]:
                raise ShapeError(
                    f"layer {i}: weight {np.shape(w)} / bias {np.shape(b)}"
                )
        parts = [np.ravel(a) for layer in layers for a in layer] or [np.empty(0)]
        self._bind(
            np.concatenate(parts).astype(np.float64, copy=False),
            tuple(np.shape(w) for w, _ in layers),
            split_index,
        )

    @classmethod
    def from_flat(cls, flat: np.ndarray, layout) -> "ModelParams":
        """A model over ``flat`` itself (no copy), laid out by ``layout``."""
        model = cls.__new__(cls)
        model._bind(flat, *layout)
        return model

    def _bind(self, flat: np.ndarray, shapes: tuple, split_index: int) -> None:
        if not shapes:
            raise ShapeError("a model needs at least one layer")
        if not 0 <= split_index <= len(shapes):
            raise ShapeError(
                f"split_index {split_index} out of range for {len(shapes)} layers"
            )
        for i, (rows, cols) in enumerate(shapes):
            if rows * cols == 0:
                raise ShapeError(f"layer {i}: empty weight {(rows, cols)}")
            if i > 0 and shapes[i - 1][1] != rows:
                raise ShapeError(
                    f"layer {i}: input width {rows} != previous "
                    f"output width {shapes[i - 1][1]}"
                )
        size = sum(rows * cols + cols for rows, cols in shapes)
        if flat.ndim not in (1, 2) or flat.shape[-1] != size:
            raise ShapeError(f"flat vector {flat.shape} for {size} parameters")
        self.flat, self.split_index = flat, split_index
        self.layout = (shapes, split_index)
        self.layers = _layer_views(flat, shapes)

    @property
    def input_width(self) -> int:
        return self.layers[0][0].shape[-2]

    def copy(self) -> "ModelParams":
        return ModelParams.from_flat(self.flat.copy(), self.layout)


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    """Bit-exact equality of two models."""
    return a.layout == b.layout and np.array_equal(a.flat, b.flat)


def he_uniform_init(
    widths: list[int], split_index: int, rng: np.random.Generator
) -> ModelParams:
    """He-uniform weights, zero biases. ``widths`` lists layer boundary sizes."""
    if min(widths, default=1) < 1:
        raise ShapeError(f"layer widths must be >= 1, got {list(widths)}")
    layers = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        limit = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        layers.append((w, np.zeros(fan_out)))
    return ModelParams(layers, split_index)


def forward_layers(layers, batch, first_index: int = 0):
    """Forward over a dense layer stack, keeping what backward needs.

    Returns ``(out, inputs)``: ``out`` is the last layer's pre-activation
    output and ``inputs[i]`` the batch layer ``i`` saw (post-ReLU for
    ``i > 0``). ``first_index`` is the model index of ``layers[0]``, used to
    name the layer in shape errors. A stack of G models' layers takes a
    ``(G, rows, width)`` batch, one slice per model.
    """
    if not layers:
        raise ShapeError("model has no layers on the requested path")
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ShapeError(f"batch must be 2-D or a 3-D stack, got shape {x.shape}")
    inputs = [x]
    for i, (w, b) in enumerate(layers):
        if x.shape[-1] != w.shape[-2]:
            raise ShapeError(
                f"layer {first_index + i}: batch width {x.shape[-1]} != "
                f"layer input width {w.shape[-2]}"
            )
        z = x @ w
        z += b[..., None, :]
        if i < len(layers) - 1:
            x = np.maximum(z, 0.0)
            inputs.append(x)
        else:
            x = z
    if not np.isfinite(x).all():
        raise ArithmeticError("forward pass produced non-finite values")
    return x, inputs


def backward_layers(layers, inputs, grad_out: np.ndarray) -> np.ndarray:
    """Exact parameter gradient of ``sum(grad_out * out)`` over a layer
    stack, given the ``inputs`` that ``forward_layers`` returned for it.

    Returns one vector in ``ModelParams.flat`` order over the layers the pass
    ran over (the whole model, or just the classifier part), so classifier
    gradients line up with the tail of a whole-model vector. The pass stops
    at the first layer's weight gradient. NaN/Inf anywhere in the chain
    reaches that vector, which is checked once. For a stack of G models the
    result is ``(G, P)``, a row per model.
    """
    shapes = [w.shape[-2:] for w, _ in layers]
    flat = np.empty(grad_out.shape[:-2] + (sum(r * c + c for r, c in shapes),))
    grads = _layer_views(flat, shapes)
    delta = grad_out
    for i in reversed(range(len(layers))):
        gw, gb = grads[i]
        np.matmul(inputs[i].swapaxes(-1, -2), delta, out=gw)
        delta.sum(axis=-2, out=gb)
        if i > 0:
            # inputs[i] is the post-ReLU output of layer i-1
            delta = (delta @ layers[i][0].swapaxes(-1, -2)) * (inputs[i] > 0.0)
    if not np.isfinite(flat).all():
        raise ArithmeticError("backward pass produced non-finite values")
    return flat


def forward(
    params: ModelParams, batch: np.ndarray, from_classifier_only: bool = False
) -> np.ndarray:
    """Logits for a batch; with ``from_classifier_only`` the batch is a
    feature matrix fed straight into the classifier part."""
    start = params.split_index if from_classifier_only else 0
    logits, _ = forward_layers(params.layers[start:], batch, start)
    return logits


def extract_features(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Post-activation extractor output, i.e. what the classifier part sees."""
    if params.split_index == 0:
        return np.asarray(batch, dtype=np.float64)
    out, _ = forward_layers(params.layers[: params.split_index], batch)
    return np.maximum(out, 0.0)


def backward(
    params: ModelParams,
    batch: np.ndarray,
    grad_logits: np.ndarray,
    from_classifier_only: bool = False,
) -> np.ndarray:
    """Exact flat gradient of ``sum(grad_logits * logits)`` over every active
    layer (see ``backward_layers``)."""
    start = params.split_index if from_classifier_only else 0
    layers = params.layers[start:]
    logits, inputs = forward_layers(layers, batch, start)
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    if grad_logits.shape != logits.shape:
        raise ShapeError(
            f"grad_logits shape {grad_logits.shape} != logits shape {logits.shape}"
        )
    return backward_layers(layers, inputs, grad_logits)


def softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Row-wise tempered softmax, max-shifted for stability."""
    if temperature <= 0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    z = np.asarray(logits, dtype=np.float64) / temperature
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def target_rows(targets, n_rows: int, n_cols: int) -> np.ndarray:
    """Checked float64 target rows for ``n_rows`` logit rows of ``n_cols``
    classes.

    ``targets`` is either a vector of integer labels in ``[0, n_cols)``,
    returned as one-hot rows, or a matrix of probability rows, each
    non-negative and summing to 1 within 1e-9. A shape that does not fit
    (an empty batch included) raises ``ShapeError``; float or bool labels,
    NaN and bad rows raise ``ParameterError``.
    """
    if n_rows < 1 or n_cols < 1:
        raise ShapeError(f"empty batch: {n_rows} rows of {n_cols} logits")
    targets = np.asarray(targets)
    if targets.ndim == 1:
        if targets.shape[0] != n_rows:
            raise ShapeError(f"{targets.shape[0]} labels for {n_rows} logit rows")
        if targets.dtype.kind not in "iu":
            raise ParameterError(f"labels must be integers, got dtype {targets.dtype}")
        if targets.min() < 0 or targets.max() >= n_cols:
            raise ParameterError("label outside [0, n_classes)")
        rows = np.zeros((n_rows, n_cols))
        rows[np.arange(n_rows), targets] = 1.0
        return rows
    if targets.shape != (n_rows, n_cols):
        raise ShapeError(
            f"target rows shaped {targets.shape}, logits {(n_rows, n_cols)}"
        )
    rows = np.asarray(targets, dtype=np.float64)
    # written so that NaN fails both tests; an infinite entry fails the sum
    if not rows.min() >= 0.0:
        raise ParameterError("probability-row targets must be non-negative numbers")
    if not np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-9:
        raise ParameterError("probability-row targets must each sum to 1")
    return rows


def tempered_ce(
    logits: np.ndarray, rows: np.ndarray, temperature: float = 1.0, row_max=None
) -> tuple[float, np.ndarray]:
    """Mean tempered-softmax cross-entropy of float64 ``logits`` against
    ``target_rows`` output ``rows``, and its exact gradient w.r.t. the logits
    (the 1/batch and 1/temperature factors included).

    Nothing is checked: callers pass rows that ``target_rows`` accepted and
    a ``temperature > 0``. ``row_max`` is ``logits.max(axis=-1)`` if the
    caller already has it; one row max serves every temperature exactly,
    because rounding is monotone: ``fl(max l) / T == max fl(l / T)``.
    A ``(G, rows, classes)`` stack gives a ``(G,)`` array of losses, one per
    slice, and the stacked gradient.
    """
    n = logits.shape[-2]
    if row_max is None:
        row_max = logits.max(axis=-1)
    if temperature != 1.0:
        logits, row_max = logits / temperature, row_max / temperature
    z = logits - row_max[..., None]
    # z becomes the log-probabilities
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    loss = -(rows * z).sum(axis=(-2, -1)) / n
    grad = np.exp(z)
    grad -= rows
    grad /= n * temperature
    return (float(loss) if logits.ndim == 2 else loss), grad


def softmax_ce_loss(
    logits: np.ndarray, targets, temperature: float = 1.0
) -> tuple[float, np.ndarray]:
    """Mean tempered-softmax cross-entropy and its exact gradient w.r.t. logits.

    ``targets`` is either an integer label vector or a matrix of probability
    rows, checked by ``target_rows``; the loss is ``tempered_ce``.
    """
    if temperature <= 0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got shape {logits.shape}")
    return tempered_ce(logits, target_rows(targets, *logits.shape), temperature)


@dataclass
class OptimizerState:
    """Hyperparameters plus slot vectors for SGD-momentum or Adam.

    Each slot is shaped like the ``flat`` vector of the ModelParams it
    updates: ``(velocity,)`` for SGD, ``(m, v)`` for Adam.
    """

    kind: str
    learning_rate: float
    weight_decay: float
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    slots: tuple = ()


def sgd_state(
    params: ModelParams,
    learning_rate: float,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
) -> OptimizerState:
    slots = (np.zeros_like(params.flat),)
    return OptimizerState(
        "sgd", learning_rate, weight_decay, momentum=momentum, slots=slots
    )


def adam_state(
    params: ModelParams,
    learning_rate: float,
    weight_decay: float = 0.0,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> OptimizerState:
    slots = (np.zeros_like(params.flat), np.zeros_like(params.flat))
    return OptimizerState(
        "adam",
        learning_rate,
        weight_decay,
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
        slots=slots,
    )


def optimizer_step(
    params: ModelParams, grads: np.ndarray, state: OptimizerState
) -> None:
    """One update step, in place: writes ``params.flat``, the slots of
    ``state`` and its ``step_count``. ``grads`` is a flat gradient in
    ``params.flat`` order and is left untouched. A ``(G, P)`` stack steps
    its G models elementwise, with slots of the same shape.

    Weight decay is coupled for both optimizers: ``wd * theta`` is added to
    the raw gradient before any momentum/moment bookkeeping. Adam applies
    its bias corrections as two scalars, ``lr / c1`` on the first moment and
    ``1 / sqrt(c2)`` on the root of the second.
    """
    theta = params.flat
    if grads.shape != theta.shape:
        raise ShapeError(f"{grads.size} gradient entries for {theta.size} parameters")
    lr, wd = state.learning_rate, state.weight_decay
    if state.kind == "sgd":
        (vel,) = state.slots
        # vel = momentum * vel + g + wd * theta, summed in that order
        vel *= state.momentum
        vel += grads
        vel += wd * theta
        theta -= lr * vel
    elif state.kind == "adam":
        m, v = state.slots
        t = state.step_count + 1
        b1, b2 = state.beta1, state.beta2
        g = wd * theta
        g += grads
        m *= b1
        m += (1.0 - b1) * g
        g *= g
        v *= b2
        v += (1.0 - b2) * g
        step = np.sqrt(v)
        step *= 1.0 / np.sqrt(1.0 - b2**t)
        step += state.epsilon
        np.divide(m, step, out=step)
        step *= lr / (1.0 - b1**t)
        theta -= step
    else:
        raise ParameterError(f"unknown optimizer kind {state.kind!r}")
    state.step_count += 1


def save_checkpoint(params: ModelParams, path) -> None:
    """Write the versioned binary checkpoint: magic, per-layer
    (rows, cols, weights, bias), then split_index, all little-endian."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for w, b in params.layers:
            fh.write(struct.pack("<QQ", w.shape[0], w.shape[1]))
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
        fh.write(struct.pack("<Q", params.split_index))


def load_checkpoint(path) -> ModelParams:
    """Read a ``save_checkpoint`` file. A blob that is not exactly one raises
    ``ProtocolError`` naming ``path``, and so does a file that cannot be read."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ProtocolError(f"{path}: {exc.strerror}") from exc
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise ProtocolError(f"{path}: bad checkpoint magic")
    pos = len(CHECKPOINT_MAGIC)
    layers = []
    # every layer block starts with a 16-byte shape header, so more than the
    # trailing 8-byte split index left means another layer
    while len(blob) - pos > 8:
        if len(blob) - pos < 16 + 8:
            raise ProtocolError(f"{path}: truncated checkpoint")
        rows, cols = struct.unpack_from("<QQ", blob, pos)
        pos += 16
        need = 8 * (rows * cols + cols)
        if len(blob) - pos < need + 8:
            raise ProtocolError(f"{path}: truncated checkpoint")
        w = np.frombuffer(blob, dtype="<f8", count=rows * cols, offset=pos)
        pos += 8 * rows * cols
        b = np.frombuffer(blob, dtype="<f8", count=cols, offset=pos)
        pos += 8 * cols
        layers.append((w.reshape(rows, cols), b))
    if len(blob) - pos != 8:
        raise ProtocolError(f"{path}: truncated checkpoint")
    (split_index,) = struct.unpack_from("<Q", blob, pos)
    try:
        # copies the bodies, which are read-only views of ``blob``, into flat
        return ModelParams(layers, split_index)
    except ShapeError as exc:
        raise ProtocolError(f"{path}: {exc}") from exc
