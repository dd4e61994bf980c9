"""Classification model: MLP feature extractor + normalized temperature-scaled classifier.

The model is p(x) = softmax(W @ (f/||f||_2) / T) where f = F(x) is the
output of a small fully connected extractor.  Gradients are computed
analytically and kept partitioned into extractor / classifier groups so
the two can be driven by losses with opposite entropy signs.  Weights,
gradients and velocities are each a ``NetworkParams``: one flat float64
vector, extractor layers first and the classifier last, with per-layer
views into it; an SGD step, a copy or a sum of gradients is one vector op.
A checkpoint stores that vector as a ``.npy`` table beside a JSON record of
its ``layout()``.

Inference over more than ``ROW_BLOCK`` rows (a whole unlabeled pool, a
test set) runs in row blocks, so the pool's hidden activations are never
held at once; every row gets the bits a one-shot pass gives it.  Training
batches and validation sets are smaller than one block and never split.

The step's reductions call the ufuncs themselves (``np.add.reduce``,
``np.maximum.reduce``, and ``np.add.reduce(v) / n`` for a mean): these are
the ops ``ndarray.sum``, ``.max`` and ``.mean`` run behind their Python
wrappers, so every value keeps its bits at fewer calls.  The head builds its
degenerate-row mask only when the smallest row norm is below the floor, and
passes None otherwise.  ``backward``'s products, and the forward's over at
most ``DOT_ROWS`` rows, call ``np.dot``: on float64 operands that are C- or
F-contiguous, as every right-hand operand here is, it calls the same BLAS
``gemm``/``gemv`` that ``np.matmul`` calls, without the matmul ufunc's
dispatch, so it gives the same bits at less cost per call.
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

# Most rows a forward pass runs through np.dot rather than np.matmul (same
# BLAS call, same bits, no ufunc dispatch).  Training batches are at most 64
# rows (trainer.BATCH_*); sending ~1 000-row inference blocks through np.dot
# as well lost large-split-staged wall_s in 5 of 5 pairs (BENCH_30.json), as
# np.dot zero-fills its output first.  backward sees only training batches.
DOT_ROWS = 64

# SGD momentum and weight decay, fixed as in MME (Saito et al., 2019)
SGD_MOMENTUM, WEIGHT_DECAY = 0.9, 5e-4


class _EventCounter:
    """Counts degenerate-feature fallbacks for diagnostics."""

    def __init__(self) -> None:
        self.count = 0

    def bump(self, n: int) -> None:
        self.count += n

    def reset(self) -> None:
        self.count = 0


degenerate_feature_events = _EventCounter()


class NetworkParams:
    """One flat float64 vector ``flat`` with per-layer views bound into it: the weights, or a gradient or
    velocity laid out like them.

    ``extractor_layers`` is a tuple of (W, b) with W of shape (d_in, d_out);
    hidden layers apply ReLU, the final layer is linear and produces the
    feature vector.  ``classifier_weights`` has shape (K, feature_dim) and
    fills the tail of ``flat``.  The views are read-only properties: they
    cannot be re-bound, and writing into one (``w[:] = ...``, ``w += ...``)
    writes ``flat``, so whole-network arithmetic (updates, copies, sums of
    gradients) is one vector op.  ``temperature`` is a fixed positive scalar,
    not trained; a gradient carries its params' and nothing reads it.
    Pickling and ``copy.deepcopy`` rebuild from ``flat`` and ``layout()``, so
    a clone's views sit on its own buffer.
    """

    def __init__(self, flat: np.ndarray, layer_shapes, last_shape, temperature: float) -> None:
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
        self.temperature = temperature

    @property
    def flat(self) -> np.ndarray:
        return self._flat

    @property
    def extractor_layers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return self._layers

    @property
    def classifier_weights(self) -> np.ndarray:
        return self._last

    def layout(self) -> dict:
        """The constructor's arguments besides ``flat``, in the key order a checkpoint records them."""
        return {
            "layer_shapes": [(w.shape, b.shape) for w, b in self._layers],
            "last_shape": self._last.shape,
            "temperature": self.temperature,
        }

    def __reduce__(self):
        return NetworkParams, (self._flat, *self.layout().values())

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
        return NetworkParams(self.flat.copy(), **self.layout())

    @property
    def input_dim(self) -> int:
        return self.extractor_layers[0][0].shape[0]

    @property
    def n_classes(self) -> int:
        return self.classifier_weights.shape[0]


def zero_grads(params: NetworkParams) -> NetworkParams:
    """A zero gradient or velocity laid out like ``params``."""
    return NetworkParams(np.zeros_like(params.flat), **params.layout())


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
    dims = (input_dim, *hidden_dims, feature_dim)
    layer_shapes = [((d_in, d_out), (d_out,)) for d_in, d_out in zip(dims[:-1], dims[1:])]
    draws = []
    for (d_in, d_out), _ in layer_shapes:
        limit = np.sqrt(6.0 / d_in)
        draws += [rng.uniform(-limit, limit, size=d_in * d_out), np.zeros(d_out)]
    flat = np.concatenate([*draws, np.zeros(n_classes * feature_dim)])
    params = NetworkParams(flat, layer_shapes, (n_classes, feature_dim), temperature)
    params.validate()
    return params


def _forward_extractor(x: np.ndarray, params: NetworkParams) -> list[np.ndarray]:
    """Post-activations per layer, input first; the last entry is the feature batch."""
    h = [x]
    last = len(params.extractor_layers) - 1
    dot = np.dot if len(x) <= DOT_ROWS else np.matmul
    for i, (w, b) in enumerate(params.extractor_layers):
        zi = dot(h[-1], w)
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


def _head(f: np.ndarray, params: NetworkParams) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """The classifier on an (n, feature_dim) batch: L2-normalize rows, then logits / T, then softmax.

    Rows with near-zero norm pass through unnormalized.  Returns the
    normalized rows, the (n, 1) divisors, the degenerate-row mask and the
    predictions.  The mask is None when no row is degenerate (the smallest
    norm clears ``FEATURE_NORM_FLOOR``), so the common path builds and
    applies none.
    """
    norms = np.sqrt(np.add.reduce(f * f, axis=1, keepdims=True))
    degenerate = None
    if np.minimum.reduce(norms, axis=None, initial=np.inf) < FEATURE_NORM_FLOOR:
        degenerate = norms[:, 0] < FEATURE_NORM_FLOOR
        degenerate_feature_events.bump(int(np.count_nonzero(degenerate)))
        norms[degenerate] = 1.0
    g = f / norms
    dot = np.dot if len(f) <= DOT_ROWS else np.matmul
    logits = dot(g, params.classifier_weights.T)
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
    out: NetworkParams | None = None,
) -> tuple[float, NetworkParams]:
    """Batch-mean loss and its exact gradient, split into extractor/classifier groups.

    kind:
      "hard"     cross entropy against integer labels in ``targets``
      "soft"     cross entropy against probability rows in ``targets``
                 (targets are constants; no gradient flows into them)
      "entropy"  mean prediction entropy, no targets

    The gradient is written into ``out`` (laid out like ``params``) when
    given, else into a new ``zero_grads(params)``; either way it is returned.
    """
    x = _checked_input(x, params)
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty batch")

    h = _forward_extractor(x, params)
    g, norms, degenerate, p = _head(h[-1], params)
    wc = params.classifier_weights
    t = params.temperature
    logp = np.maximum(p, LOG_CLAMP)
    np.log(logp, out=logp)

    if kind == "hard":  # one-hot rows, then the soft-target path
        kind, targets = "soft", np.eye(p.shape[1])[np.asarray(targets, dtype=int)]
    if kind == "soft":
        soft = np.asarray(targets, dtype=np.float64)
        if soft.shape != p.shape:
            raise ValueError(f"soft targets shape {soft.shape} does not match predictions {p.shape}")
        loss = float(-np.add.reduce(soft * logp, axis=None) / n)
        dlogits = p - soft
        dlogits /= n
    elif kind == "entropy":
        row_h = -np.add.reduce(p * logp, axis=1, keepdims=True)
        loss = float(np.add.reduce(row_h[:, 0]) / n)
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
    gc = np.dot(dlogits.T, g, out=out.classifier_weights)
    gc /= t
    dg = np.dot(dlogits, wc)
    dg /= t
    # Through L2 normalization g = f/r: df = (dg - g (g . dg)) / r. The forward
    # divides a degenerate row by a constant 1, not by its norm, so dg is that
    # row's exact derivative; the formula would also subtract g (g . dg).
    df = g * np.add.reduce(g * dg, axis=1, keepdims=True)
    np.subtract(dg, df, out=df)
    df /= norms
    if degenerate is not None:
        df[degenerate] = dg[degenerate]

    # Through the extractor; final layer is linear, hidden layers ReLU
    # (a hidden unit passes gradient where its output h is positive).
    dz = df
    for i in range(len(params.extractor_layers) - 1, -1, -1):
        gw, gb = out.extractor_layers[i]
        np.dot(h[i].T, dz, out=gw)
        np.add.reduce(dz, axis=0, out=gb)
        if i > 0:
            dz = np.dot(dz, params.extractor_layers[i][0].T)
            dz *= h[i] > 0
    return loss, out


def sgd_step(params: NetworkParams, grads: NetworkParams, velocities: NetworkParams, lr: float) -> None:
    """In-place SGD at the fixed settings: v <- mu v + g + wd*theta; theta <- theta - lr*v.

    The ops run in that order through one temporary, so each value has the bits of the written-out formula.
    """
    if not 0 < lr < math.inf:  # NaN fails both comparisons
        raise ValueError(f"lr must be positive and finite, got {lr}")
    theta, g, v = params.flat, grads.flat, velocities.flat
    if theta.shape != g.shape or theta.shape != v.shape:
        raise ValueError(f"shape mismatch: {theta.shape} vs {g.shape} vs {v.shape}")
    v *= SGD_MOMENTUM
    tmp = np.multiply(theta, WEIGHT_DECAY)
    np.add(g, tmp, out=tmp)
    v += tmp
    np.multiply(v, lr, out=tmp)
    theta -= tmp


def anneal_lr(base_lr: float, progress: float) -> float:
    """Inverse-decay schedule base_lr / (1 + 10*progress)^0.75 over progress in [0, 1]."""
    if not 0.0 <= progress <= 1.0:
        raise ValueError(f"progress must be in [0, 1], got {progress}")
    return base_lr / (1.0 + 10.0 * progress) ** 0.75


def group_sizes(params: NetworkParams) -> tuple[int, int]:
    """(extractor parameter count, classifier parameter count): the two halves of ``flat``."""
    n_cls = params.classifier_weights.size
    return params.flat.size - n_cls, n_cls


# -- checkpointing --


def save_checkpoint(path: str | Path, params: NetworkParams, extra: dict) -> None:
    """Write ``params.flat`` as the ``<f8`` table ``{stem}.flat.npy``, then the JSON record: ``params.layout()``
    (``layer_shapes``, ``last_shape``, ``temperature``), the table's sha256 and ``extra``."""
    checksum = write_table(table_path(path, "flat"), np.asarray(params.flat, dtype="<f8"))
    record = {"format_version": CHECKPOINT_VERSION, "params": params.layout(), "checksum": checksum, "extra": extra}
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
    params = NetworkParams(flat, layers, state["last_shape"], float(state["temperature"]))
    try:
        params.validate()
    except ValueError as err:
        raise DataError(f"checkpoint {path}: {err}") from err
    return {"params": params, "extra": record["extra"]}
