"""Classification model: MLP feature extractor + normalized temperature-scaled classifier.

The model is p(x) = softmax(W @ (f/||f||_2) / T) where f = F(x) is the
output of a small fully connected extractor.  Gradients are computed
analytically and kept partitioned into extractor / classifier groups so
the two can be driven by losses with opposite entropy signs.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coremath import LOG_CLAMP, softmax

CHECKPOINT_VERSION = 1

# Feature rows with an L2 norm below this are passed through unnormalized
# instead of dividing by ~0; each such row bumps the diagnostics counter.
FEATURE_NORM_FLOOR = 1e-12


class _EventCounter:
    """Counts degenerate-feature fallbacks for diagnostics."""

    def __init__(self) -> None:
        self.count = 0

    def bump(self, n: int = 1) -> None:
        self.count += n

    def reset(self) -> None:
        self.count = 0


degenerate_feature_events = _EventCounter()


@dataclass
class NetworkParams:
    """Trainable weights: extractor layer list plus the classifier matrix.

    ``extractor_layers`` is a list of (W, b) with W of shape (d_in, d_out);
    hidden layers apply ReLU, the final layer is linear and produces the
    feature vector.  ``classifier_weights`` has shape (K, feature_dim).
    ``temperature`` is a fixed positive scalar, not trained.
    """

    extractor_layers: list[tuple[np.ndarray, np.ndarray]]
    classifier_weights: np.ndarray
    temperature: float

    def validate(self) -> None:
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        d = self.extractor_layers[0][0].shape[0]
        for i, (w, b) in enumerate(self.extractor_layers):
            if w.shape[0] != d:
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
        return NetworkParams(
            extractor_layers=[(w.copy(), b.copy()) for w, b in self.extractor_layers],
            classifier_weights=self.classifier_weights.copy(),
            temperature=self.temperature,
        )

    @property
    def input_dim(self) -> int:
        return self.extractor_layers[0][0].shape[0]

    @property
    def n_classes(self) -> int:
        return self.classifier_weights.shape[0]


@dataclass
class GradientBundle:
    """Gradients shaped like their NetworkParams, split by parameter group."""

    grad_layers: list[tuple[np.ndarray, np.ndarray]]
    grad_classifier: np.ndarray


def zero_grads(params: NetworkParams) -> GradientBundle:
    return GradientBundle(
        grad_layers=[(np.zeros_like(w), np.zeros_like(b)) for w, b in params.extractor_layers],
        grad_classifier=np.zeros_like(params.classifier_weights),
    )


def add_scaled(acc: GradientBundle, other: GradientBundle) -> GradientBundle:
    """acc += other, in place; returns acc."""
    for (aw, ab), (ow, ob) in zip(acc.grad_layers, other.grad_layers):
        aw += ow
        ab += ob
    acc.grad_classifier += other.grad_classifier
    return acc


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


def _forward_extractor(x: np.ndarray, params: NetworkParams) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Return (pre-activations per layer, post-activations per layer incl. input)."""
    h = [x]
    z = []
    last = len(params.extractor_layers) - 1
    for i, (w, b) in enumerate(params.extractor_layers):
        zi = h[-1] @ w + b
        z.append(zi)
        h.append(zi if i == last else np.maximum(zi, 0.0))
    return z, h


def forward_features(x: np.ndarray, params: NetworkParams) -> np.ndarray:
    """Feature vector(s) f = F(x); accepts a single vector or an (n, d) batch."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    if xb.shape[1] != params.input_dim:
        raise ValueError(f"dimension mismatch: input has dim {xb.shape[1]}, network expects {params.input_dim}")
    _, h = _forward_extractor(xb, params)
    return h[-1][0] if single else h[-1]


def _normalize_features(f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """L2-normalize rows; rows with near-zero norm pass through unnormalized."""
    norms = np.linalg.norm(f, axis=1, keepdims=True)
    degenerate = norms[:, 0] < FEATURE_NORM_FLOOR
    if np.any(degenerate):
        degenerate_feature_events.bump(int(np.sum(degenerate)))
    safe = np.where(degenerate[:, None], 1.0, norms)
    g = f / safe
    return g, safe[:, 0], degenerate


def forward_classifier(f: np.ndarray, params: NetworkParams) -> np.ndarray:
    """Prediction(s) p = softmax(W (f/||f||) / T) for feature vector(s) f."""
    f = np.asarray(f, dtype=np.float64)
    single = f.ndim == 1
    fb = f[None, :] if single else f
    g, _, _ = _normalize_features(fb)
    logits = g @ params.classifier_weights.T / params.temperature
    p = softmax(logits)
    return p[0] if single else p


def forward(x: np.ndarray, params: NetworkParams) -> np.ndarray:
    """Full model p(x) = C(F(x))."""
    return forward_classifier(forward_features(x, params), params)


def backward(
    x: np.ndarray,
    params: NetworkParams,
    kind: str,
    targets: np.ndarray | None = None,
) -> tuple[float, GradientBundle]:
    """Batch-mean loss and its exact gradient, split into extractor/classifier groups.

    kind:
      "hard"     cross entropy against integer labels in ``targets``
      "soft"     cross entropy against probability rows in ``targets``
                 (targets are constants; no gradient flows into them)
      "entropy"  mean prediction entropy, no targets
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("empty batch")
    n = x.shape[0]

    z, h = _forward_extractor(x, params)
    f = h[-1]
    g, norms, degenerate = _normalize_features(f)
    wc = params.classifier_weights
    t = params.temperature
    logits = g @ wc.T / t
    p = softmax(logits)
    logp = np.log(np.maximum(p, LOG_CLAMP))

    if kind == "hard":
        onehot = np.zeros_like(p)
        onehot[np.arange(n), np.asarray(targets, dtype=int)] = 1.0
        loss = float(-np.sum(onehot * logp) / n)
        dlogits = (p - onehot) / n
    elif kind == "soft":
        soft = np.asarray(targets, dtype=np.float64)
        if soft.shape != p.shape:
            raise ValueError(f"soft targets shape {soft.shape} does not match predictions {p.shape}")
        loss = float(-np.sum(soft * logp) / n)
        dlogits = (p - soft) / n
    elif kind == "entropy":
        row_h = -np.sum(p * logp, axis=1, keepdims=True)
        loss = float(np.mean(row_h[:, 0]))
        dlogits = -p * (logp + row_h) / n
    else:
        raise ValueError(f"unknown loss kind: {kind!r}")

    # Classifier and feature gradients through the temperature-scaled head.
    grad_classifier = dlogits.T @ g / t
    dg = dlogits @ wc / t
    # Through L2 normalization g = f/r: df = (dg - g (g . dg)) / r,
    # identity pass-through on degenerate rows.
    inner = np.sum(g * dg, axis=1, keepdims=True)
    df = (dg - g * inner) / norms[:, None]
    if np.any(degenerate):
        df[degenerate] = dg[degenerate]

    # Through the extractor; final layer is linear, hidden layers ReLU.
    grad_layers: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.extractor_layers)
    dh = df
    last = len(params.extractor_layers) - 1
    for i in range(last, -1, -1):
        dz = dh if i == last else dh * (z[i] > 0)
        grad_layers[i] = (h[i].T @ dz, np.sum(dz, axis=0))
        if i > 0:
            dh = dz @ params.extractor_layers[i][0].T
    return loss, GradientBundle(grad_layers=grad_layers, grad_classifier=grad_classifier)


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

    def _update(theta: np.ndarray, g: np.ndarray, v: np.ndarray) -> None:
        if theta.shape != g.shape or theta.shape != v.shape:
            raise ValueError(f"shape mismatch: {theta.shape} vs {g.shape} vs {v.shape}")
        v *= momentum
        v += g + weight_decay * theta
        theta -= lr * v

    for (w, b), (gw, gb), (vw, vb) in zip(params.extractor_layers, grads.grad_layers, velocities.grad_layers):
        _update(w, gw, vw)
        _update(b, gb, vb)
    _update(params.classifier_weights, grads.grad_classifier, velocities.grad_classifier)


def anneal_lr(base_lr: float, progress: float) -> float:
    """Inverse-decay schedule base_lr / (1 + 10*progress)^0.75 over progress in [0, 1]."""
    if progress < 0.0 or progress > 1.0:
        warnings.warn(f"progress {progress} outside [0, 1]; clamping", stacklevel=2)
        progress = min(max(progress, 0.0), 1.0)
    return base_lr / (1.0 + 10.0 * progress) ** 0.75


# -- flattening (used by the finite-difference oracle and parameter audits) --


def flatten_params(params: NetworkParams) -> np.ndarray:
    parts = []
    for w, b in params.extractor_layers:
        parts.extend([w.ravel(), b.ravel()])
    parts.append(params.classifier_weights.ravel())
    return np.concatenate(parts)


def unflatten_params(flat: np.ndarray, like: NetworkParams) -> NetworkParams:
    out = like.copy()
    i = 0
    for li, (w, b) in enumerate(out.extractor_layers):
        out.extractor_layers[li] = (
            flat[i : i + w.size].reshape(w.shape).copy(),
            flat[i + w.size : i + w.size + b.size].copy(),
        )
        i += w.size + b.size
    out.classifier_weights = flat[i : i + out.classifier_weights.size].reshape(out.classifier_weights.shape).copy()
    i += out.classifier_weights.size
    if i != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, network needs {i}")
    return out


def flatten_grads(bundle: GradientBundle) -> np.ndarray:
    parts = []
    for gw, gb in bundle.grad_layers:
        parts.extend([gw.ravel(), gb.ravel()])
    parts.append(bundle.grad_classifier.ravel())
    return np.concatenate(parts)


def group_sizes(params: NetworkParams) -> tuple[int, int]:
    """(extractor parameter count, classifier parameter count)."""
    n_ext = sum(w.size + b.size for w, b in params.extractor_layers)
    return n_ext, params.classifier_weights.size


# -- checkpointing --


def params_to_jsonable(params: NetworkParams) -> dict:
    return {
        "extractor_layers": [[w.tolist(), b.tolist()] for w, b in params.extractor_layers],
        "classifier_weights": params.classifier_weights.tolist(),
        "temperature": params.temperature,
    }


def params_from_jsonable(obj: dict) -> NetworkParams:
    params = NetworkParams(
        extractor_layers=[
            (np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64)) for w, b in obj["extractor_layers"]
        ],
        classifier_weights=np.asarray(obj["classifier_weights"], dtype=np.float64),
        temperature=float(obj["temperature"]),
    )
    params.validate()
    return params


def save_checkpoint(
    path: str | Path,
    params: NetworkParams,
    extra: dict | None = None,
) -> None:
    """Write the network weights plus ``extra`` as JSON; floats round-trip bit-exactly (repr)."""
    record = {
        "format_version": CHECKPOINT_VERSION,
        "params": params_to_jsonable(params),
        "extra": extra or {},
    }
    Path(path).write_text(json.dumps(record), encoding="utf-8")


def load_checkpoint(path: str | Path) -> dict:
    """Read a checkpoint; returns dict with params and extra.

    Checkpoints that also carry the retired ``velocities`` and ``rng_state``
    keys (always null from the CLI) load the same; those keys are ignored.
    """
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"checkpoint not found: {p}")
    record = json.loads(p.read_text(encoding="utf-8"))
    if not isinstance(record, dict):
        raise ValueError("checkpoint must be a JSON object")
    if record.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version {record.get('format_version')} != {CHECKPOINT_VERSION}")
    return {"params": params_from_jsonable(record["params"]), "extra": record["extra"]}
