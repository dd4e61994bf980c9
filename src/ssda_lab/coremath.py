"""Dense vector arithmetic, probability-vector primitives, and gradient oracles.

Everything downstream (network, selection, training) is built on these
few float64 functions.  Probability vectors are plain 1-D numpy arrays
whose entries lie in [0, 1] and sum to 1 within 1e-9.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable

import numpy as np

# Floor applied to probabilities before any log so confident predictions
# keep losses finite.
LOG_CLAMP = 1e-12

# seeded_rng keeps a seed's low 64 bits, so seeds must lie in [0, SEED_LIMIT)
SEED_LIMIT = 2**64


def is_int(value) -> bool:
    """An int that is not a bool, as config fields and manifest counts require."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A finite int or float that is not a bool, as config and split spec numbers require."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis, by max-subtraction.

    The largest logit's numerator is exactly 1, so its probability is a
    maximum of the output, and a larger logit never gets a smaller
    probability.  Logits closer to the maximum than ``exp`` resolves in
    float64 (``[0.0, 1.6e-146]``, say) tie with it at the same probability;
    ``np.argmax`` of the output then gives the lowest tied index.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size == 0:
        raise ValueError("empty logits")
    exp = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(exp, out=exp)
    exp /= np.add.reduce(exp, axis=-1, keepdims=True)
    return exp


def cross_entropy(p: np.ndarray, y: np.ndarray) -> float:
    """-sum_k y_k * log(p_k), with p clamped to LOG_CLAMP before the log."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"length mismatch: p has shape {p.shape}, y has shape {y.shape}")
    return float(-np.sum(y * np.log(np.maximum(p, LOG_CLAMP))))


def entropy(p: np.ndarray) -> float:
    """-sum_i p_i * log(p_i) in [0, log K], with the same log clamping."""
    p = np.asarray(p, dtype=np.float64)
    return float(-np.sum(p * np.log(np.maximum(p, LOG_CLAMP))))


def l1_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Sum of absolute coordinate differences over the last axis.

    Leading axes broadcast: ``(m, 1, d)`` against ``(a, d)`` gives the
    ``(m, a)`` distance table.  Two 1-D vectors give a numpy float64 (a
    ``float``).  Each entry equals the 1-D distance of its pair bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 0 or b.ndim == 0 or a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    d = np.subtract(a, b)
    # in place: one broadcast temporary, not two; np.add.reduce is what .sum runs, at less cost per call
    return np.add.reduce(np.abs(d, out=d), axis=-1)


def finite_diff_grad(
    scalar_fn: Callable[[np.ndarray], float],
    params: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient (f(x+eps*e_i) - f(x-eps*e_i)) / 2eps per coordinate.

    The oracle against which every analytic gradient in the package is
    checked.  ``scalar_fn`` must be deterministic.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    params = np.asarray(params, dtype=np.float64)
    grad = np.empty_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + eps
        up = scalar_fn(bumped)
        bumped[i] = params[i] - eps
        down = scalar_fn(bumped)
        grad[i] = (up - down) / (2.0 * eps)
    return grad


def _substream_entropy(seed: int, names: tuple[str, ...]) -> list[int]:
    """Derive SeedSequence entropy from (seed, substream path) via sha256.

    Hashing the path keeps every named substream independent of draw order
    on any other stream: module A consuming its stream never perturbs
    module B's draws.
    """
    digest = hashlib.sha256(("/".join(names)).encode("utf-8")).digest()
    return [int(seed) % SEED_LIMIT, int.from_bytes(digest[:16], "big")]


def seeded_rng(seed: int, *substream: str) -> np.random.Generator:
    """Deterministic PCG64 generator for ``seed``, optionally on a named substream.

    ``seeded_rng(s)`` is the root stream; ``seeded_rng(s, "data")``,
    ``seeded_rng(s, "batch", "stage1")`` etc. are isolated substreams.
    """
    return np.random.default_rng(np.random.SeedSequence(_substream_entropy(seed, substream)))
