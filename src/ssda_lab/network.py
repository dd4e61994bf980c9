"""Classification model: MLP feature extractor + normalized temperature-scaled classifier.

The model is p(x) = softmax(W @ (f/||f||_2) / T) where f = F(x) is the
output of a small fully connected extractor.  Gradients are computed
analytically.  Weights, gradients and velocities are each a
``NetworkParams``: one flat float64 vector, extractor layers first and the
classifier last, with per-layer views into it; an SGD step, a copy or a
sum of gradients is one vector op, and the minimax step reverses a term's
classifier gradient through the ``classifier_weights`` view.
A checkpoint stores that vector as a ``.npy`` table beside a JSON record of
its widths and the head's temperature ``TEMPERATURE``.

``backward`` is the forward pass, the loss head ``_loss_terms`` (the log
clamp and the three loss formulas: predictions to a loss and its logit
gradient ``dlogits``; ``trainer.entropy_loss`` reads its value too) and
``_backprop``, which carries ``dlogits`` back through the head, the L2
normalisation and the extractor, linearly: stacked batches' ``dlogits`` give
the sum of their gradients, up to rounding, in one pass.

Inference has one pass, ``predict_blocks``: it runs the extractor and the
head over near-equal blocks of at most ``ROW_BLOCK`` rows and hands each
block's features and predictions to its caller, so a whole unlabeled pool's
hidden activations are never held at once, and every row gets the bits a
one-shot pass gives it.  ``forward`` stacks the predictions,
``pseudolabel.infer_pseudo`` keeps them with each block's anchor distances,
and ``trainer.evaluate`` keeps only their argmax; no block's features
outlive it.  Training batches, validation sets and the few labeled target
anchors that ``forward_features`` takes are smaller than one block.

The step's reductions call the ufuncs themselves (``np.add.reduce``,
``np.maximum.reduce``, and ``np.add.reduce(v) / n`` for a mean): these are
the ops ``ndarray.sum``, ``.max`` and ``.mean`` run behind their Python
wrappers, so every value keeps its bits at fewer calls.  The head builds its
degenerate-row mask only when the smallest row norm is below the floor, and
passes None otherwise.  ``_backprop``'s products, and the forward's over at
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

CHECKPOINT_VERSION = 3

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

# The cosine head's temperature T, fixed as in MME: logits are W @ (f/||f||) / T.  Every checkpoint records it
# and load_checkpoint refuses any other value, so changing it changes what every checkpoint holds.
TEMPERATURE = 0.05


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

    ``widths`` is ``[input_dim, *hidden_dims, feature_dim, n_classes]``, the
    whole architecture.  ``extractor_layers`` is a tuple of (W, b), one per
    pair of neighbouring widths up to the feature width, with W of shape
    (d_in, d_out); hidden layers apply ReLU, the final layer is linear and
    produces the feature vector.  ``classifier_weights`` has shape
    (n_classes, feature_dim) and fills the tail of ``flat``.  The views are
    read-only properties: they cannot be re-bound, and writing into one
    (``w[:] = ...``, ``w += ...``) writes ``flat``, so whole-network
    arithmetic (updates, copies, sums of gradients) is one vector op.
    The head's temperature is the constant ``TEMPERATURE``, which no instance
    carries.  Pickling and ``copy.deepcopy`` rebuild from ``flat`` and
    ``widths``, so a clone's views sit on its own buffer.
    """

    def __init__(self, flat: np.ndarray, widths) -> None:
        self.widths = tuple(widths)
        views, i = [], 0
        for d_in, d_out in zip(self.widths[:-2], self.widths[1:-1]):
            w, b = flat[i : i + d_in * d_out], flat[i + d_in * d_out : i + (d_in + 1) * d_out]
            views.append((w.reshape(d_in, d_out), b))
            i += (d_in + 1) * d_out
        self._layers = tuple(views)
        self._last = flat[i:].reshape(self.widths[-1], self.widths[-2])
        self._flat = flat

    @property
    def flat(self) -> np.ndarray:
        return self._flat

    @property
    def extractor_layers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return self._layers

    @property
    def classifier_weights(self) -> np.ndarray:
        return self._last

    def __reduce__(self):
        return NetworkParams, (self._flat, self.widths)

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.flat.copy(), self.widths)

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def n_classes(self) -> int:
        return self.widths[-1]


def zero_grads(params: NetworkParams) -> NetworkParams:
    """A zero gradient or velocity laid out like ``params``."""
    return NetworkParams(np.zeros_like(params.flat), params.widths)


def init_params(
    input_dim: int,
    hidden_dims: tuple[int, ...],
    feature_dim: int,
    n_classes: int,
    rng: np.random.Generator,
) -> NetworkParams:
    """He-uniform extractor weights, zero biases, zero classifier.

    The classifier starts at zero so initial predictions are uniform;
    with a cosine head at ``TEMPERATURE`` a He-scale classifier would
    start saturated and the initial loss would sit far above chance.
    """
    widths = (input_dim, *hidden_dims, feature_dim, n_classes)
    draws = []
    for d_in, d_out in zip(widths[:-2], widths[1:-1]):
        limit = np.sqrt(6.0 / d_in)
        draws += [rng.uniform(-limit, limit, size=d_in * d_out), np.zeros(d_out)]
    flat = np.concatenate([*draws, np.zeros(n_classes * feature_dim)])
    return NetworkParams(flat, widths)


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


def _checked_input(x: np.ndarray, params: NetworkParams) -> np.ndarray:
    """``x`` as float64, a ``ValueError`` unless it is an (n, input_dim) batch of at least one row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"dimension mismatch: input has shape {x.shape}, network expects (n, {params.input_dim})")
    if not len(x):
        raise ValueError("empty batch")
    return x


def forward_features(x: np.ndarray, params: NetworkParams) -> np.ndarray:
    """Features F(x) of an (n, input_dim) batch, in one pass: its callers pass a class's few labeled target
    anchors, and ``infer_pseudo`` takes the pool's features from ``predict_blocks``."""
    return _forward_extractor(_checked_input(x, params), params)[-1]


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
    logits /= TEMPERATURE
    return g, norms, degenerate, softmax(logits)


def predict_blocks(x: np.ndarray, params: NetworkParams, take) -> None:
    """The inference pass over an (n, input_dim) batch: ``take(rows, features, predictions)`` for each near-equal
    block of at most ``ROW_BLOCK`` rows, in order, ``rows`` being the block's slice.  A block's arrays are dropped
    before the next block runs, unless ``take`` stores them."""
    x = _checked_input(x, params)
    n = len(x)
    blocks = -(-n // ROW_BLOCK)
    for i in range(blocks):
        rows = slice(i * n // blocks, (i + 1) * n // blocks)
        f = _forward_extractor(x[rows], params)[-1]
        take(rows, f, _head(f, params)[3])
        del f


def forward(x: np.ndarray, params: NetworkParams) -> np.ndarray:
    """Full model p(x) = C(F(x)): ``predict_blocks``' predictions, stacked."""
    p = np.empty((len(x), params.n_classes))
    predict_blocks(x, params, lambda rows, features, predictions: np.copyto(p[rows], predictions))
    return p


def _loss_terms(p: np.ndarray, kind: str, targets: np.ndarray | None) -> tuple[float, np.ndarray]:
    """The batch-mean loss of predictions ``p`` for ``backward``'s ``kind`` and ``targets``, and its gradient with
    respect to the logits, ``dlogits``; ``p`` is clamped at ``LOG_CLAMP`` before the log."""
    n = p.shape[0]
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
    return loss, dlogits


def _backprop(h: list[np.ndarray], g: np.ndarray, norms: np.ndarray, degenerate: np.ndarray | None,
              dlogits: np.ndarray, params: NetworkParams, out: NetworkParams) -> NetworkParams:
    """``dlogits`` carried back through the head, the L2 normalisation and the extractor into every entry of
    ``out``; ``h`` is ``_forward_extractor``'s and ``g``, ``norms``, ``degenerate`` are ``_head``'s, of one batch."""
    # Classifier and feature gradients through the temperature-scaled head.
    gc = np.dot(dlogits.T, g, out=out.classifier_weights)
    gc /= TEMPERATURE
    dg = np.dot(dlogits, params.classifier_weights)
    dg /= TEMPERATURE
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
    return out


def backward(
    x: np.ndarray,
    params: NetworkParams,
    kind: str,
    targets: np.ndarray | None = None,
    out: NetworkParams | None = None,
) -> tuple[float, NetworkParams]:
    """Batch-mean loss and its exact gradient with respect to every entry of ``params``: a forward pass, then
    ``_loss_terms`` and ``_backprop``.

    kind:
      "hard"     cross entropy against integer labels in ``targets``
      "soft"     cross entropy against probability rows in ``targets``
                 (targets are constants; no gradient flows into them)
      "entropy"  mean prediction entropy, no targets

    The gradient is written into ``out`` (laid out like ``params``) when
    given, else into a new ``zero_grads(params)``; either way it is returned.
    An empty batch, an unknown kind or soft targets of the wrong shape raise
    ``ValueError`` before ``out`` is written.
    """
    h = _forward_extractor(_checked_input(x, params), params)
    g, norms, degenerate, p = _head(h[-1], params)
    loss, dlogits = _loss_terms(p, kind, targets)
    return loss, _backprop(h, g, norms, degenerate, dlogits, params, zero_grads(params) if out is None else out)


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


# -- checkpointing --


def save_checkpoint(path: str | Path, params: NetworkParams, extra: dict) -> None:
    """Write ``params.flat`` as the ``<f8`` table ``{stem}.flat.npy``, then the JSON record: the ``widths`` and
    ``TEMPERATURE``, the table's sha256 and ``extra``."""
    checksum = write_table(table_path(path, "flat"), np.asarray(params.flat, dtype="<f8"))
    record = {"format_version": CHECKPOINT_VERSION, "params": {"widths": params.widths, "temperature": TEMPERATURE},
              "checksum": checksum, "extra": extra}
    Path(path).write_text(json.dumps(record), encoding="utf-8")


def load_checkpoint(path: str | Path) -> dict:
    """The params and ``extra`` of a checkpoint, a ``DataError`` unless its ``widths`` list at least three integers
    >= 1, its temperature is ``TEMPERATURE``, and its table is one finite ``<f8`` vector of the length the widths
    give."""
    record = read_record(path, CHECKPOINT_VERSION, "checkpoint", "params", "run train-baseline, or self-train for "
                         "a final checkpoint, again with flags for the settings its extra records: the same seed "
                         "gives the same weights")
    check_keys(record, {"format_version", "params", "checksum", "extra"}, f"checkpoint {path}")
    state = record["params"]
    check_keys(state, {"widths", "temperature"}, f"checkpoint {path} params")
    widths = state["widths"]
    if not (isinstance(widths, list) and len(widths) >= 3 and all(is_int(n) and n >= 1 for n in widths)):
        raise DataError(f"checkpoint {path}: widths must list at least three integers >= 1")
    if state["temperature"] != TEMPERATURE:  # NaN, inf and strings fail too
        raise DataError(f"checkpoint {path}: temperature {state['temperature']!r} is not the head's TEMPERATURE "
                        f"{TEMPERATURE!r}")
    size = sum((d_in + 1) * d_out for d_in, d_out in zip(widths[:-2], widths[1:-1])) + widths[-2] * widths[-1]
    flat = read_table(table_path(path, "flat"), record["checksum"], np.dtype("<f8"), (size,))
    if not np.all(np.isfinite(flat)):
        raise DataError(f"checkpoint {path}: the weights have non-finite entries")
    return {"params": NetworkParams(flat, widths), "extra": record["extra"]}
