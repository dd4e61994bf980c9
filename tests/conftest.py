import numpy as np
import pytest

from ssda_lab.coremath import seeded_rng
from ssda_lab.network import NetworkParams, init_params


def max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max absolute deviation normalized by the largest reference magnitude."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.max(np.abs(b))), 1e-12)
    return float(np.max(np.abs(a - b))) / scale


def blas_version() -> str:
    """Name and version of the BLAS numpy was built with, on which float64 bits depend."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def small_net(seed: int = 0, input_dim: int = 4, n_classes: int = 3, temperature: float = 1.0) -> NetworkParams:
    """Compact network for gradient checks; perturbed off init so no gradient is degenerate."""
    rng = seeded_rng(seed, "init")
    params = init_params(
        input_dim=input_dim,
        hidden_dims=(8, 8),
        feature_dim=6,
        n_classes=n_classes,
        temperature=temperature,
        rng=rng,
    )
    jitter = seeded_rng(seed, "jitter")
    for w, b in params.extractor_layers:
        w += 0.05 * jitter.standard_normal(w.shape)
        b += 0.05 * jitter.standard_normal(b.shape)
    params.classifier_weights[:] += 0.3 * jitter.standard_normal(params.classifier_weights.shape)
    return params


@pytest.fixture
def rng() -> np.random.Generator:
    return seeded_rng(1234)
