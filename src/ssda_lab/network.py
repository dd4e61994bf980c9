"""Classification model: MLP feature extractor + normalized temperature-scaled classifier.

The model is p(x) = softmax(W @ (f/||f||_2) / T) where f = F(x) is the
output of a small fully connected extractor.  Gradients are computed
analytically and kept partitioned into extractor / classifier groups so
the two can be driven by losses with opposite entropy signs.  Weights and
gradients each live in one flat float64 vector, extractor layers first and
the classifier last, with per-layer views into it; an SGD step, a copy or
a sum of gradients is one vector op.  A checkpoint stores that vector as a
``.npy`` table beside a JSON record of its layout.

Inference over more than ``ROW_BLOCK`` rows (a whole unlabeled pool, a
test set) runs in row blocks, so the pool's hidden activations are never
held at once; every row gets the bits a one-shot pass gives it.  Training
batches and validation sets are smaller than one block and never split.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .artifacts import DataError, check_keys, read_record, read_table, table_path, write_table
from .coremath import LOG_CLAMP, is_int, softmax

CHECKPOINT_VERSION = 2

# Feature rows with an L2 norm below this are passed through unnormalized
# instead of dividing by ~0; each such row bumps the diagnostics counter.
FEATURE_NORM_FLOOR = 1e-12

# Most rows one inference pass computes at once.  A larger input runs in
# near-equal blocks of at least half this many rows: BLAS then takes its
# matrix path on every block, so each row's bits match the one-shot pass.
# Blocks of 512 to 2048 rows time alike on a 19 960-row pool; the peak
# memory grows with the block.
ROW_BLOCK = 1024


class _EventCounter:
    """Counts degenerate-feature fallbacks for diagnostics."""

    def __init__(self) -> None:
        self.count = 0

    def bump(self, n: int = 1) -> None:
        self.count += n

    def reset(self) -> None:
        self.count = 0


degenerate_feature_events = _EventCounter()


class _FlatBuffer:
    """One contiguous float64 vector ``flat`` with per-layer views bound into it.

    The views are read-only properties: they cannot be re-bound, and
    writing into one (``w[:] = ...``, ``w += ...``) writes ``flat``.  Whole-
    network arithmetic (updates, copies, sums of gradients) is then one
    vector op on ``flat``.  Pickling and ``copy.deepcopy`` store ``flat`` and
    the shapes and bind fresh views, so a copy's views still share its buffer.
    """

    def __init__(self, layers, last) -> None:
        arrays = [np.asarray(a, dtype=np.float64) for pair in layers for a in pair]
        last = np.asarray(last, dtype=np.float64)
        flat = np.concatenate([a.ravel() for a in arrays] + [last.ravel()])
        self._bind(flat, [(w.shape, b.shape) for w, b in zip(arrays[::2], arrays[1::2])], last.shape)

    def _bind(self, flat: np.ndarray, layer_shapes, last_shape) -> None:
        views, i = [], 0
        for shapes in layer_shapes:
            pair = []
            for shape in shapes:
                n = math.prod(shape)
                pair.append(flat[i : i + n].reshape(shape))
                i += n
            views.append(tuple(pair))
        self._layers = tuple(views)
        self._last = flat[i:].reshape(last_shape)
        self._flat = flat

    def _rebound(self, flat: np.ndarray, cls: type | None = None):
        """An object shaped like this one, of type ``cls`` (default this type), viewing ``flat``."""
        other = object.__new__(cls or type(self))
        other.__setstate__({**self.__getstate__(), "flat": flat})
        return other

    @property
    def flat(self) -> np.ndarray:
        return self._flat

    def __getstate__(self) -> dict:
        return {
            "flat": self._flat,
            "layer_shapes": [(w.shape, b.shape) for w, b in self._layers],
            "last_shape": self._last.shape,
        }

    def __setstate__(self, state: dict) -> None:
        self._bind(state["flat"], state["layer_shapes"], state["last_shape"])


class NetworkParams(_FlatBuffer):
    """Trainable weights: extractor layers plus the classifier matrix, in one ``flat`` vector.

    ``extractor_layers`` is a tuple of (W, b) with W of shape (d_in, d_out);
    hidden layers apply ReLU, the final layer is linear and produces the
    feature vector.  ``classifier_weights`` has shape (K, feature_dim) and
    fills the tail of ``flat``.  The constructor copies its arrays in.
    ``temperature`` is a fixed positive scalar, not trained.
    """

    def __init__(self, extractor_layers, classifier_weights, temperature: float) -> None:
        super().__init__(extractor_layers, classifier_weights)
        self.temperature = temperature

    @property
    def extractor_layers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return self._layers

    @property
    def classifier_weights(self) -> np.ndarray:
        return self._last

    def __getstate__(self) -> dict:
        return {**super().__getstate__(), "temperature": self.temperature}

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self.temperature = state["temperature"]

    def validate(self) -> None:
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(f"temperature must be finite and positive, got {self.temperature}")
        if not self.extractor_layers:
            raise ValueError("the extractor needs at least one layer")
        if self.classifier_weights.ndim != 2:
            raise ValueError(f"classifier must be 2-D, got shape {self.classifier_weights.shape}")
        for i, (w, b) in enumerate(self.extractor_layers):
            if w.ndim != 2 or b.ndim != 1:
                raise ValueError(f"layer {i} needs a 2-D weight and a 1-D bias, got {w.shape} and {b.shape}")
            if i > 0 and w.shape[0] != d:
                raise ValueError(f"layer {i} expects input dim {w.shape[0]}, chain gives {d}")
            if b.shape != (w.shape[1],):
                raise ValueError(f"layer {i} bias shape {b.shape} does not match width {w.shape[1]}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i} has non-finite entries")
            d = w.shape[1]
        if self.classifier_weights.shape[1] != d:
            raise ValueError(
                f"classifier expects feature dim {self.classifier_weights.shape[1]}, extractor gives {d}"
            )
        if not np.all(np.isfinite(self.classifier_weights)):
            raise ValueError("classifier has non-finite entries")

    def copy(self) -> "NetworkParams":
        return self._rebound(self.flat.copy())

    @property
    def input_dim(self) -> int:
        return self.extractor_layers[0][0].shape[0]

    @property
    def n_classes(self) -> int:
        return self.classifier_weights.shape[0]


class GradientBundle(_FlatBuffer):
    """Gradients laid out like their NetworkParams' ``flat``, split by parameter group.

    The extractor group is ``flat[:n_ext]`` and the classifier group
    ``flat[n_ext:]``, with ``n_ext`` from ``group_sizes``.
    """

    @property
    def grad_layers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return self._layers

    @property
    def grad_classifier(self) -> np.ndarray:
        return self._last


def zero_grads(params: NetworkParams) -> GradientBundle:
    return params._rebound(np.zeros_like(params.flat), GradientBundle)


def init_params(
    input_dim: int,
    hidden_dims: tuple[int, ...],
    feature_dim: int,
    n_classes: int,
    temperature: float,
    rng: np.random.Generator,
) -> NetworkParams:
    """He-uniform extractor weights, zero biases, zero classifier.

    The classifier starts at zero so initial predictions are uniform;
    with a cosine head at temperature 0.05 a He-scale classifier would
    start saturated and the initial loss would sit far above chance.
    """
    layers = []
    dims = (input_dim, *hidden_dims, feature_dim)
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / d_in)
        w = rng.uniform(-limit, limit, size=(d_in, d_out))
        layers.append((w, np.zeros(d_out)))
    classifier = np.zeros((n_classes, feature_dim))
    params = NetworkParams(extractor_layers=layers, classifier_weights=classifier, temperature=temperature)
    params.validate()
    return params


def _forward_extractor(x: np.ndarray, params: NetworkParams) -> list[np.ndarray]:
    """Post-activations per layer, input first; the last entry is the feature batch."""
    h = [x]
    last = len(params.extractor_layers) - 1
    for i, (w, b) in enumerate(params.extractor_layers):
        zi = h[-1] @ w
        zi += b
        h.append(zi if i == last else np.maximum(zi, 0.0, out=zi))
    return h


def _by_row_blocks(fn, x: np.ndarray, width: int) -> np.ndarray:
    """``fn(x)`` for a row-wise ``fn`` giving ``width`` columns, run over near-equal blocks of at most
    ``ROW_BLOCK`` rows into one preallocated array; an input of at most ``ROW_BLOCK`` rows is one call."""
    n = len(x)
    if n <= ROW_BLOCK:
        return fn(x)
    blocks = -(-n // ROW_BLOCK)
    out = np.empty((n, width))
    for i in range(blocks):
        lo, hi = i * n // blocks, (i + 1) * n // blocks
        out[lo:hi] = fn(x[lo:hi])
    return out


def _checked_input(x: np.ndarray, params: NetworkParams) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"dimension mismatch: input has shape {x.shape}, network expects (n, {params.input_dim})")
    return x


def forward_features(x: np.ndarray, params: NetworkParams) -> np.ndarray:
    """Features F(x) of an (n, input_dim) batch."""
    return _by_row_blocks(lambda xb: _forward_extractor(xb, params)[-1], _checked_input(x, params),
                          params.classifier_weights.shape[1])


def _head(f: np.ndarray, params: NetworkParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The classifier on an (n, feature_dim) batch: L2-normalize rows, then logits / T, then softmax.

    Rows with near-zero norm pass through unnormalized.  Returns the
    normalized rows, the (n, 1) divisors, the degenerate-row mask and the
    predictions.
    """
    norms = np.sqrt(np.add.reduce(f * f, axis=1, keepdims=True))
    degenerate = norms[:, 0] < FEATURE_NORM_FLOOR
    if degenerate.any():
        degenerate_feature_events.bump(int(degenerate.sum()))
        norms[degenerate] = 1.0
    g = f / norms
    logits = g @ params.classifier_weights.T
    logits /= params.temperature
    return g, norms, degenerate, softmax(logits)


def forward_classifier(f: np.ndarray, params: NetworkParams) -> np.ndarray:
    """Predictions p = softmax(W (f/||f||) / T) for an (n, feature_dim) feature batch."""
    return _by_row_blocks(lambda fb: _head(fb, params)[3], f, params.n_classes)


def forward(x: np.ndarray, params: NetworkParams) -> np.ndarray:
    """Full model p(x) = C(F(x)), extractor and head together per row block."""
    return _by_row_blocks(lambda xb: _head(_forward_extractor(xb, params)[-1], params)[3],
                          _checked_input(x, params), params.n_classes)


def backward(
    x: np.ndarray,
    params: NetworkParams,
    kind: str,
    targets: np.ndarray | None = None,
    out: GradientBundle | None = None,
) -> tuple[float, GradientBundle]:
    """Batch-mean loss and its exact gradient, split into extractor/classifier groups.

    kind:
      "hard"     cross entropy against integer labels in ``targets``
      "soft"     cross entropy against probability rows in ``targets``
                 (targets are constants; no gradient flows into them)
      "entropy"  mean prediction entropy, no targets

    The gradient is written into ``out`` (shaped like ``params``) when given,
    else into a new bundle; either way that bundle is returned.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("empty batch")
    n = x.shape[0]

    h = _forward_extractor(x, params)
    g, norms, degenerate, p = _head(h[-1], params)
    wc = params.classifier_weights
    t = params.temperature
    logp = np.maximum(p, LOG_CLAMP)
    np.log(logp, out=logp)

    if kind == "hard":  # one-hot rows, then the soft-target path
        onehot = np.zeros_like(p)
        onehot[np.arange(n), np.asarray(targets, dtype=int)] = 1.0
        kind, targets = "soft", onehot
    if kind == "soft":
        soft = np.asarray(targets, dtype=np.float64)
        if soft.shape != p.shape:
            raise ValueError(f"soft targets shape {soft.shape} does not match predictions {p.shape}")
        loss = float(-(soft * logp).sum() / n)
        dlogits = p - soft
        dlogits /= n
    elif kind == "entropy":
        row_h = -(p * logp).sum(axis=1, keepdims=True)
        loss = float(row_h[:, 0].mean())
        # -p (logp + H) / n, negated through the divisor (exact in IEEE arithmetic)
        dlogits = logp
        dlogits += row_h
        dlogits *= p
        dlogits /= -n
    else:
        raise ValueError(f"unknown loss kind: {kind!r}")

    if out is None:
        out = zero_grads(params)
    # Classifier and feature gradients through the temperature-scaled head.
    gc = np.matmul(dlogits.T, g, out=out.grad_classifier)
    gc /= t
    dg = dlogits @ wc
    dg /= t
    # Through L2 normalization g = f/r: df = (dg - g (g . dg)) / r. The forward
    # divides a degenerate row by a constant 1, not by its norm, so dg is that
    # row's exact derivative; the formula would also subtract g (g . dg).
    df = g * (g * dg).sum(axis=1, keepdims=True)
    np.subtract(dg, df, out=df)
    df /= norms
    if degenerate.any():
        df[degenerate] = dg[degenerate]

    # Through the extractor; final layer is linear, hidden layers ReLU
    # (a hidden unit passes gradient where its output h is positive).
    dz = df
    for i in range(len(params.extractor_layers) - 1, -1, -1):
        gw, gb = out.grad_layers[i]
        np.matmul(h[i].T, dz, out=gw)
        dz.sum(axis=0, out=gb)
        if i > 0:
            dz = dz @ params.extractor_layers[i][0].T
            dz *= h[i] > 0
    return loss, out


def sgd_step(
    params: NetworkParams,
    grads: GradientBundle,
    velocities: GradientBundle,
    lr: float,
    momentum: float = 0.9,
    weight_decay: float = 0.0,
) -> None:
    """In-place SGD with momentum: v <- mu v + g + wd*theta; theta <- theta - lr*v."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    if not 0 <= momentum < 1:
        raise ValueError("momentum must be in [0, 1)")
    if weight_decay < 0:
        raise ValueError("weight_decay must be nonnegative")
    theta, g, v = params.flat, grads.flat, velocities.flat
    if theta.shape != g.shape or theta.shape != v.shape:
        raise ValueError(f"shape mismatch: {theta.shape} vs {g.shape} vs {v.shape}")
    v *= momentum
    v += g + weight_decay * theta
    theta -= lr * v


def anneal_lr(base_lr: float, progress: float) -> float:
    """Inverse-decay schedule base_lr / (1 + 10*progress)^0.75 over progress in [0, 1]."""
    if not 0.0 <= progress <= 1.0:
        raise ValueError(f"progress must be in [0, 1], got {progress}")
    return base_lr / (1.0 + 10.0 * progress) ** 0.75


# -- flattening (used by the finite-difference oracle and parameter audits) --


def flatten_params(params: NetworkParams) -> np.ndarray:
    """A copy of ``params.flat``: later steps on ``params`` do not move it."""
    return params.flat.copy()


def unflatten_params(flat: np.ndarray, like: NetworkParams) -> NetworkParams:
    """Params shaped like ``like`` holding a copy of ``flat``."""
    flat = np.array(flat, dtype=np.float64).ravel()
    if flat.size != like.flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, network needs {like.flat.size}")
    return like._rebound(flat)


def flatten_grads(bundle: GradientBundle) -> np.ndarray:
    """A copy of ``bundle.flat``."""
    return bundle.flat.copy()


def group_sizes(params: NetworkParams) -> tuple[int, int]:
    """(extractor parameter count, classifier parameter count): the two halves of ``flat``."""
    n_cls = params.classifier_weights.size
    return params.flat.size - n_cls, n_cls


# -- checkpointing --


def save_checkpoint(path: str | Path, params: NetworkParams, extra: dict | None = None) -> None:
    """Write ``params.flat`` as the ``<f8`` table ``{stem}.flat.npy``, then the JSON record: the layout that
    ``__getstate__`` gives (``layer_shapes``, ``last_shape``, ``temperature``), the table's sha256 and ``extra``."""
    state = params.__getstate__()
    checksum = write_table(table_path(path, "flat"), np.asarray(state.pop("flat"), dtype="<f8"))
    record = {"format_version": CHECKPOINT_VERSION, "params": state, "checksum": checksum, "extra": extra or {}}
    Path(path).write_text(json.dumps(record), encoding="utf-8")


def load_checkpoint(path: str | Path) -> dict:
    """The params and ``extra`` of a checkpoint, a ``DataError`` unless its layout is integer shapes and a number,
    its table one ``<f8`` vector of the length the shapes give, and its params pass ``validate``."""
    record = read_record(path, CHECKPOINT_VERSION, "checkpoint", "run train-baseline, or self-train for a final "
                         "checkpoint, again with flags for the settings its extra records: the same seed gives "
                         "the same weights")
    check_keys(record, {"format_version", "params", "checksum", "extra"}, f"checkpoint {path}")
    state = record["params"]
    check_keys(state, {"layer_shapes", "last_shape", "temperature"}, f"checkpoint {path} params")
    layers = state["layer_shapes"]
    pairs = isinstance(layers, list) and all(isinstance(pair, list) and len(pair) == 2 for pair in layers)
    shapes = [*(shape for pair in layers for shape in pair), state["last_shape"]] if pairs else [None]
    if not (all(isinstance(s, list) and all(is_int(n) and n >= 0 for n in s) for s in shapes)
            and type(state["temperature"]) in (int, float)):
        raise DataError(f"checkpoint {path}: layer_shapes must list [weight, bias] pairs and last_shape be one "
                        "shape, of integers >= 0, and temperature must be a number")
    flat = read_table(table_path(path, "flat"), record["checksum"], np.dtype("<f8"), (None,))
    size = sum(math.prod(shape) for shape in shapes)
    if flat.size != size:
        raise DataError(f"checkpoint {path}: its table holds {flat.size} weights, its shapes {size}")
    params = object.__new__(NetworkParams)  # bound as ``_rebound`` binds a copy
    params.__setstate__({**state, "temperature": float(state["temperature"]), "flat": flat})
    try:
        params.validate()
    except ValueError as err:
        raise DataError(f"checkpoint {path}: {err}") from err
    return {"params": params, "extra": record["extra"]}
