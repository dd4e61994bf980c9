import copy
import hashlib
import json
import os
import pickle
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ssda_lab
from conftest import blas_version, max_rel_err, small_net
from ssda_lab.artifacts import DataError
from ssda_lab.coremath import LOG_CLAMP, finite_diff_grad, seeded_rng
from ssda_lab.network import (
    FEATURE_NORM_FLOOR,
    ROW_BLOCK,
    SGD_MOMENTUM,
    WEIGHT_DECAY,
    NetworkParams,
    _by_row_blocks,
    _forward_extractor,
    _head,
    anneal_lr,
    backward,
    degenerate_feature_events,
    forward,
    forward_classifier,
    forward_features,
    group_sizes,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    zero_grads,
)
from ssda_lab.pseudolabel import infer_pseudo
from ssda_lab.trainer import FEATURE_DIM, HIDDEN_DIMS, TEMPERATURE, entropy_loss, evaluate

LOSS_KINDS = ["hard", "soft", "entropy"]


def _targets_for(kind, rng, n, k):
    if kind == "hard":
        return rng.integers(0, k, size=n)
    if kind == "soft":
        raw = rng.uniform(0.05, 1.0, size=(n, k))
        return raw / raw.sum(axis=1, keepdims=True)
    return None


# every function that takes a raw (n, input_dim) batch, called with its batch and the network
BATCH_TAKERS = {"forward_features": forward_features, "forward": forward,
                "backward": lambda x, params: backward(x, params, "entropy")}


class TestForwardFeatures:
    def test_zero_weights_give_zero_features(self):
        params = NetworkParams(np.zeros(3 * 4 + 4 + 4 * 2 + 2 + 2 * 2), [((3, 4), (4,)), ((4, 2), (2,))], (2, 2), 1.0)
        np.testing.assert_array_equal(forward_features(np.array([[1.0, -2.0, 3.0]]), params), np.zeros((1, 2)))

    def test_single_identity_layer_passes_input_through(self):
        # Final extractor layer is linear, so identity weights reproduce x.
        params = NetworkParams(np.concatenate([np.eye(3).ravel(), np.zeros(3 + 2 * 3)]), [((3, 3), (3,))], (2, 3), 1.0)
        x = np.array([[0.5, -1.5, 2.0]])
        np.testing.assert_array_equal(forward_features(x, params), x)

    @pytest.mark.parametrize("fn", BATCH_TAKERS.values(), ids=BATCH_TAKERS.keys())
    def test_dimension_mismatch(self, fn):
        params = small_net()
        with pytest.raises(ValueError, match="dimension mismatch"):
            fn(np.zeros((1, params.input_dim + 1)), params)

    @pytest.mark.parametrize("fn", BATCH_TAKERS.values(), ids=BATCH_TAKERS.keys())
    def test_single_vector_rejected(self, fn):
        params = small_net()
        with pytest.raises(ValueError, match="dimension mismatch"):
            fn(np.zeros(params.input_dim), params)

    def test_batch_matches_per_sample(self, rng):
        params = small_net()
        xb = rng.standard_normal((5, params.input_dim))
        batch = forward_features(xb, params)
        for i in range(5):
            # BLAS may pick different kernels for vector vs matrix operands
            np.testing.assert_allclose(batch[i], forward_features(xb[i : i + 1], params)[0], atol=1e-12)

    def test_bit_identical_across_processes(self):
        snippet = (
            "import numpy as np\n"
            "from ssda_lab.coremath import seeded_rng\n"
            "from ssda_lab.network import init_params, forward_features\n"
            "p = init_params(2, (8,), 4, 3, 0.05, seeded_rng(5, 'init'))\n"
            "f = forward_features(np.array([[0.3, -1.2]]), p)\n"
            "print(f.tobytes().hex())\n"
        )
        # the child imports the same ssda_lab as this process, installed or not
        path = [str(Path(ssda_lab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        runs = [
            subprocess.run([sys.executable, "-c", snippet], capture_output=True, text=True, check=True,
                           env=env).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestForwardClassifier:
    def test_identical_rows_give_uniform(self, rng):
        f = rng.standard_normal((1, 6))
        params = small_net()
        params.classifier_weights[:] = np.tile(rng.standard_normal(6), (3, 1))
        np.testing.assert_allclose(forward_classifier(f, params), np.full((1, 3), 1 / 3), atol=1e-12)

    def test_scale_invariance(self, rng):
        params = small_net()
        f = rng.standard_normal((1, 6))
        p1 = forward_classifier(f, params)
        p2 = forward_classifier(10.0 * f, params)
        assert int(np.argmax(p1[0])) == int(np.argmax(p2[0]))
        np.testing.assert_allclose(p1, p2, atol=1e-9)

    def test_halving_temperature_sharpens(self, rng):
        params = small_net(seed=3)
        f = rng.standard_normal((1, 6))
        p_base = forward_classifier(f, params)
        sharp = small_net(seed=3)
        sharp.temperature = params.temperature / 2.0
        p_sharp = forward_classifier(f, sharp)
        assert np.max(p_sharp) > np.max(p_base)

    def test_degenerate_feature_fallback_counts(self):
        params = small_net()
        degenerate_feature_events.reset()
        p = forward_classifier(np.zeros((1, 6)), params)
        assert degenerate_feature_events.count == 1
        assert np.all(np.isfinite(p))


def _pool_net(input_dim: int, n_classes: int) -> NetworkParams:
    """The pipeline's network layout with a random classifier, so predictions are not uniform."""
    params = init_params(input_dim, HIDDEN_DIMS, FEATURE_DIM, n_classes, TEMPERATURE, seeded_rng(input_dim, "init"))
    params.classifier_weights[:] = seeded_rng(input_dim, "classifier").standard_normal((n_classes, FEATURE_DIM))
    return params


class TestRowBlocks:
    SIZES = [1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1, 19960]

    @pytest.mark.parametrize("n", SIZES)
    def test_blocks_are_near_equal_and_never_small(self, n):
        # a block of one row would take BLAS's vector path, whose bits can differ from the matrix path
        sizes = []
        out = _by_row_blocks(lambda xb: sizes.append(len(xb)) or xb[:, :1] + 1.0, np.zeros((n, 3)), 1)
        assert sum(sizes) == n and max(sizes) <= ROW_BLOCK and max(sizes) - min(sizes) <= 1
        assert n <= ROW_BLOCK or min(sizes) >= ROW_BLOCK // 2
        np.testing.assert_array_equal(out, np.ones((n, 1)))

    @pytest.mark.parametrize("input_dim, n_classes", [(2, 5), (8, 10)])
    @pytest.mark.parametrize("n", SIZES)
    def test_blocked_passes_match_one_shot_bits(self, n, input_dim, n_classes):
        params = _pool_net(input_dim, n_classes)
        x = seeded_rng(n, "pool").standard_normal((n, input_dim))
        x[::97] = 0.0  # zero rows give zero features, which the head counts as degenerate
        degenerate_feature_events.reset()
        features = _forward_extractor(x, params)[-1]
        probs = _head(features, params)[3]
        one_shot_events = degenerate_feature_events.count
        assert one_shot_events > 0
        checks = [("forward_features", lambda: forward_features(x, params), features),
                  ("forward_classifier", lambda: forward_classifier(features, params), probs),
                  ("forward", lambda: forward(x, params), probs)]
        for name, call, one_shot in checks:
            degenerate_feature_events.reset()
            np.testing.assert_array_equal(call(), one_shot, err_msg=f"numpy {np.__version__}, blas "
                                          f"{blas_version()}: blocked {name} differs at n={n}")
            assert degenerate_feature_events.count == (0 if name == "forward_features" else one_shot_events)

    # tracemalloc peaks on a 19 960 x 8 pool: a one-shot pass holds two (n, 64) float64 activations and
    # peaks near 25 MB in both calls; in row blocks evaluate peaks near 3 MB, and infer_pseudo near 14 MB,
    # most of it the per-row annotations it returns.
    @pytest.mark.parametrize("call, bound_mb", [
        (lambda params, x: evaluate(params, x, np.zeros(len(x), dtype=int)), 6),
        (infer_pseudo, 16),
    ], ids=["evaluate", "infer_pseudo"])
    def test_full_pool_peak_memory_is_bounded(self, call, bound_mb):
        params = _pool_net(8, 10)
        x = seeded_rng(8, "pool").standard_normal((19960, 8))
        call(params, x)
        tracemalloc.start()
        try:
            call(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6, f"peak {peak / 1e6:.1f} MB"


class TestBackward:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_gradients_match_finite_differences(self, kind):
        rng = seeded_rng(99)
        for draw in range(2):
            params = small_net(seed=draw)
            x = rng.standard_normal((4, params.input_dim))
            targets = _targets_for(kind, rng, 4, params.n_classes)
            _, grads = backward(x, params, kind, targets)

            def loss_at(flat):
                candidate = params.copy()
                candidate.flat[:] = flat
                return backward(x, candidate, kind, targets)[0]

            fd = finite_diff_grad(loss_at, params.flat, eps=1e-5)
            assert max_rel_err(grads.flat, fd) < 1e-4

    def test_loss_at_init_is_chance_level(self):
        params = init_params(2, (64, 64), 32, 5, 0.05, seeded_rng(0, "init"))
        rng = seeded_rng(0, "data")
        x = rng.standard_normal((50, 2))
        labels = np.tile(np.arange(5), 10)
        loss, _ = backward(x, params, "hard", labels)
        assert abs(loss - np.log(5)) / np.log(5) < 0.10

    def test_duplicated_batch_leaves_loss_and_grads_unchanged(self, rng):
        params = small_net()
        x = rng.standard_normal((3, params.input_dim))
        labels = np.array([0, 2, 1])
        loss1, g1 = backward(x, params, "hard", labels)
        loss2, g2 = backward(np.vstack([x, x]), params, "hard", np.concatenate([labels, labels]))
        assert loss1 == pytest.approx(loss2, abs=1e-12)
        np.testing.assert_allclose(g1.flat, g2.flat, atol=1e-12)

    def test_empty_batch_rejected(self):
        params = small_net()
        with pytest.raises(ValueError, match="empty batch"):
            backward(np.zeros((0, params.input_dim)), params, "entropy")

    def test_entropy_target_moves_both_groups(self):
        params = small_net(seed=11)
        rng = seeded_rng(11)
        x = rng.standard_normal((6, params.input_dim))
        _, grads = backward(x, params, "entropy")
        ext = np.concatenate([gw.ravel() for gw, _ in grads.extractor_layers])
        assert np.max(np.abs(ext)) > 0
        assert np.max(np.abs(grads.classifier_weights)) > 0

    def test_degenerate_feature_row_passes_gradient_through(self):
        """A feature row below the norm floor skips the normalization, so its feature gradient is dg itself.

        The row is tiny, not zero: on a zero row the normalization's gradient is dg as well. With
        classifier column 0 at zero, dg[0] is exactly 0, and only the pass-through keeps it there.
        """
        params = small_net(seed=5)
        for _, b in params.extractor_layers:
            b[:] = 0.0
        params.extractor_layers[-1][1][:] = 1e-14  # zero input, so this bias is the feature row
        params.classifier_weights[:, 0] = 0.0
        x = np.zeros((1, params.input_dim))
        p = forward(x, params)[0]
        degenerate_feature_events.reset()
        _, grads = backward(x, params, "hard", np.array([1]))
        assert degenerate_feature_events.count == 1
        # the last layer is linear, so its bias gradient is the feature gradient
        expected = (p - np.eye(params.n_classes)[1]) @ params.classifier_weights / params.temperature
        assert expected[0] == 0.0 and np.all(expected[1:] != 0.0)
        np.testing.assert_allclose(grads.extractor_layers[-1][1], expected, rtol=1e-12, atol=0.0)

    def test_gradient_partition_covers_every_parameter_once(self):
        params = small_net()
        n_ext, n_cls = group_sizes(params)
        assert n_ext + n_cls == params.flat.size
        grads = zero_grads(params)
        assert grads.flat.size == n_ext + n_cls


def _reference_softmax(logits):
    exp = logits - logits.max(axis=-1, keepdims=True)
    np.exp(exp, out=exp)
    exp /= exp.sum(axis=-1, keepdims=True)
    return exp


def _reference_forward(x, params):
    """Activations, head outputs and degenerate-row count, by the ``ndarray`` methods and an always-built mask."""
    h = [x]
    for i, (w, b) in enumerate(params.extractor_layers):
        zi = h[-1] @ w
        zi += b
        h.append(zi if i == len(params.extractor_layers) - 1 else np.maximum(zi, 0.0, out=zi))
    norms = np.sqrt(np.add.reduce(h[-1] * h[-1], axis=1, keepdims=True))
    degenerate = norms[:, 0] < FEATURE_NORM_FLOOR
    if degenerate.any():
        norms[degenerate] = 1.0
    g = h[-1] / norms
    logits = g @ params.classifier_weights.T
    logits /= params.temperature
    p = _reference_softmax(logits)
    logp = np.maximum(p, LOG_CLAMP)
    np.log(logp, out=logp)
    return h, g, norms, degenerate, p, logp


def _reference_backward(x, params, kind, targets=None):
    """``backward`` as written with ``.max``/``.sum``/``.mean`` and a zeros-then-setitem one-hot."""
    n = x.shape[0]
    h, g, norms, degenerate, p, logp = _reference_forward(x, params)
    if kind == "hard":
        onehot = np.zeros_like(p)
        onehot[np.arange(n), np.asarray(targets, dtype=int)] = 1.0
        kind, targets = "soft", onehot
    if kind == "soft":
        loss = float(-(targets * logp).sum() / n)
        dlogits = p - targets
        dlogits /= n
    else:
        row_h = -(p * logp).sum(axis=1, keepdims=True)
        loss = float(row_h[:, 0].mean())
        dlogits = logp
        dlogits += row_h
        dlogits *= p
        dlogits /= -n
    grads = zero_grads(params)
    gc = np.matmul(dlogits.T, g, out=grads.classifier_weights)
    gc /= params.temperature
    dg = dlogits @ params.classifier_weights
    dg /= params.temperature
    df = g * (g * dg).sum(axis=1, keepdims=True)
    np.subtract(dg, df, out=df)
    df /= norms
    if degenerate.any():
        df[degenerate] = dg[degenerate]
    dz = df
    for i in range(len(params.extractor_layers) - 1, -1, -1):
        gw, gb = grads.extractor_layers[i]
        np.matmul(h[i].T, dz, out=gw)
        dz.sum(axis=0, out=gb)
        if i > 0:
            dz = dz @ params.extractor_layers[i][0].T
            dz *= h[i] > 0
    return loss, grads, int(degenerate.sum())


class TestFrozenReference:
    """``backward``, ``_head``, ``entropy_loss`` and ``sgd_step`` give the bits of the ops they replaced: the
    ``ndarray`` methods, ``@`` and ``np.matmul`` where the module calls ``np.dot``, and fresh temporaries."""

    @pytest.mark.parametrize("input_dim, n_classes", [(2, 5), (8, 10)])
    @pytest.mark.parametrize("n", [1, 2, 15, 32, 64, 1025])
    @pytest.mark.parametrize("with_degenerate", [False, True])
    def test_losses_gradients_and_events_match(self, input_dim, n_classes, n, with_degenerate):
        params = _pool_net(input_dim, n_classes)
        rng = seeded_rng(n, "reference", str(input_dim))
        x = rng.standard_normal((n, input_dim))
        if with_degenerate:
            x[::7] = 0.0  # zero input, zero biases: a zero feature row
        version = f"numpy {np.__version__}, blas {blas_version()}"
        for kind in LOSS_KINDS:
            targets = _targets_for(kind, rng, n, n_classes)
            want_loss, want, want_events = _reference_backward(x, params, kind, targets)
            degenerate_feature_events.reset()
            loss, grads = backward(x, params, kind, targets)
            assert degenerate_feature_events.count == want_events == (len(x[::7]) if with_degenerate else 0)
            assert loss == want_loss, f"{version}: {kind} loss at n={n}"
            np.testing.assert_array_equal(grads.flat, want.flat, err_msg=f"{version}: {kind} gradient at n={n}")
        _, _, _, _, p, logp = _reference_forward(x, params)
        degenerate_feature_events.reset()
        assert entropy_loss(params, x) == float((-(p * logp).sum(axis=1, keepdims=True))[:, 0].mean())
        assert degenerate_feature_events.count == want_events
        assert (_head(_forward_extractor(x, params)[-1], params)[2] is None) is not with_degenerate

    def test_sgd_step_keeps_the_op_order(self):
        params = small_net()
        grads, velocities = zero_grads(params), zero_grads(params)
        rng = seeded_rng(5, "sgd-reference")
        grads.flat[:] = rng.standard_normal(grads.flat.shape)
        velocities.flat[:] = rng.standard_normal(velocities.flat.shape)
        theta, g, v, lr = params.flat.copy(), grads.flat.copy(), velocities.flat.copy(), 0.0123
        v = SGD_MOMENTUM * v
        v = v + (g + WEIGHT_DECAY * theta)
        theta = theta - lr * v
        sgd_step(params, grads, velocities, lr)
        np.testing.assert_array_equal(velocities.flat, v)
        np.testing.assert_array_equal(params.flat, theta)
        np.testing.assert_array_equal(grads.flat, g)

    def test_one_hot_keeps_index_semantics(self):
        params = _pool_net(2, 5)
        x = seeded_rng(3, "one-hot").standard_normal((3, 2))
        with pytest.raises(IndexError):
            backward(x, params, "hard", np.array([0, 5, 1]))
        wrapped = backward(x, params, "hard", np.array([0, -1, 1]))
        np.testing.assert_array_equal(wrapped[1].flat, backward(x, params, "hard", np.array([0, 4, 1]))[1].flat)
        assert wrapped[0] == _reference_backward(x, params, "hard", np.array([0, -1, 1]))[0]


class TestSgdStep:
    def test_zero_gradient_only_decays(self):
        params = small_net()
        before = params.flat.copy()
        sgd_step(params, zero_grads(params), zero_grads(params), lr=0.1)
        np.testing.assert_allclose(params.flat, before - 0.1 * WEIGHT_DECAY * before, rtol=1e-15, atol=0.0)

    def test_single_step_is_definition(self, rng):
        params = small_net()
        grads = zero_grads(params)
        grads.flat[:] = rng.standard_normal(grads.flat.shape)
        before = params.flat.copy()
        sgd_step(params, grads, zero_grads(params), lr=0.05)
        np.testing.assert_allclose(params.flat, before - 0.05 * (grads.flat + WEIGHT_DECAY * before), atol=1e-15)

    def test_two_momentum_steps_on_constant_gradient(self, rng):
        params = small_net()
        g = rng.standard_normal(params.flat.shape)
        grads = zero_grads(params)
        grads.flat[:] = g
        vel = zero_grads(params)
        theta0 = params.flat.copy()
        sgd_step(params, grads, vel, lr=0.01)
        grads.flat[:] = g  # sgd_step must not consume the gradient
        sgd_step(params, grads, vel, lr=0.01)
        v1 = g + WEIGHT_DECAY * theta0
        theta1 = theta0 - 0.01 * v1
        v2 = SGD_MOMENTUM * v1 + g + WEIGHT_DECAY * theta1
        np.testing.assert_allclose(vel.flat, v2, atol=1e-12)
        np.testing.assert_allclose(params.flat, theta1 - 0.01 * v2, atol=1e-12)

    @pytest.mark.parametrize("lr", [0.0, -0.1, float("nan"), float("inf")])
    def test_nonpositive_lr_rejected(self, lr):
        params = small_net()
        before = params.flat.copy()
        with pytest.raises(ValueError, match="lr must be positive"):
            sgd_step(params, zero_grads(params), zero_grads(params), lr=lr)
        np.testing.assert_array_equal(params.flat, before)

    def test_shape_mismatch_rejected(self):
        params = small_net()
        bad = zero_grads(small_net(input_dim=params.input_dim + 1))
        with pytest.raises(ValueError, match="shape mismatch"):
            sgd_step(params, bad, zero_grads(params), lr=0.1)


def _pickle_round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


def _checkpoint_round_trip(params):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        save_checkpoint(path, params, extra={})
        return load_checkpoint(path)["params"]


class TestFlatStorage:
    def test_every_layer_is_a_view_of_flat(self):
        params = small_net()
        arrays = [a for pair in params.extractor_layers for a in pair] + [params.classifier_weights]
        assert all(np.shares_memory(a, params.flat) for a in arrays)
        assert sum(a.size for a in arrays) == params.flat.size
        params.classifier_weights[0, 0] = 7.0  # writing a view writes flat
        assert params.flat[-params.classifier_weights.size] == 7.0

    def test_bindings_cannot_be_reassigned(self):
        params = small_net()
        with pytest.raises(AttributeError):
            params.classifier_weights = np.zeros_like(params.classifier_weights)
        with pytest.raises(TypeError):
            params.extractor_layers[0] = params.extractor_layers[1]
        with pytest.raises(AttributeError):
            zero_grads(params).classifier_weights = np.zeros_like(params.classifier_weights)

    def test_copy_owns_its_buffer(self):
        params = small_net()
        clone = params.copy()
        clone.flat[:] = 0.0
        assert np.all(params.classifier_weights != 0.0)
        assert np.shares_memory(clone.classifier_weights, clone.flat)

    @pytest.mark.parametrize("clone", [_pickle_round_trip, copy.deepcopy, _checkpoint_round_trip],
                             ids=["pickle", "deepcopy", "checkpoint"])
    def test_clone_keeps_views_on_flat_and_trains(self, clone, rng):
        original = small_net()
        params = clone(original)
        np.testing.assert_array_equal(params.flat, original.flat)
        assert params.temperature == original.temperature
        assert np.shares_memory(params.classifier_weights, params.flat)
        assert all(np.shares_memory(w, params.flat) for w, _ in params.extractor_layers)
        velocities = clone(zero_grads(params))
        assert np.shares_memory(velocities.classifier_weights, velocities.flat)

        x = rng.standard_normal((5, params.input_dim))
        before = forward(x, params)
        _, grads = backward(x, params, "hard", np.array([0, 1, 2, 0, 1]))
        sgd_step(params, grads, velocities, lr=0.5)
        assert not np.array_equal(forward(x, params), before)
        np.testing.assert_array_equal(forward(x, original), before)


class TestAnnealLr:
    def test_zero_progress_returns_base(self):
        assert anneal_lr(0.01, 0.0) == 0.01

    def test_full_progress_closed_form(self):
        assert anneal_lr(1.0, 1.0) == pytest.approx(11.0**-0.75, abs=1e-12)
        assert anneal_lr(1.0, 1.0) == pytest.approx(0.16556, abs=1e-5)

    def test_monotone_decreasing(self):
        grid = np.linspace(0.0, 1.0, 100)
        values = [anneal_lr(0.01, p) for p in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        for progress in (-0.1, 1.5):
            with pytest.raises(ValueError, match=r"progress must be in \[0, 1\]"):
                anneal_lr(0.01, progress)


class TestDeterminismAndCheckpoint:
    def _run_steps(self, n_steps):
        params = init_params(3, (8,), 4, 3, 0.05, seeded_rng(21, "init"))
        vel = zero_grads(params)
        rng = seeded_rng(21, "batch")
        for t in range(n_steps):
            x = rng.standard_normal((8, 3))
            labels = rng.integers(0, 3, size=8)
            _, grads = backward(x, params, "hard", labels)
            sgd_step(params, grads, vel, lr=anneal_lr(0.01, t / n_steps))
        return params

    def test_identical_seed_bit_identical_params(self):
        a = self._run_steps(50)
        b = self._run_steps(50)
        np.testing.assert_array_equal(a.flat, b.flat)

    def test_checkpoint_round_trips_bit_exactly(self, tmp_path):
        params = small_net(seed=8)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, extra={"t_iter": 17})
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded["params"].flat, params.flat)
        assert loaded["params"].temperature == params.temperature
        assert loaded["extra"]["t_iter"] == 17
        # the weights are one <f8 vector in the table beside the JSON, which holds its sha256
        table = tmp_path / "ckpt.flat.npy"
        flat = np.load(table, allow_pickle=False)
        assert (flat.dtype, flat.shape) == (np.dtype("<f8"), params.flat.shape)
        record = json.loads(path.read_text())
        assert record["checksum"] == hashlib.sha256(table.read_bytes()).hexdigest()
        assert record["params"] == json.loads(json.dumps(params.layout()))

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), 0.0, -1.0])
    def test_temperature_must_be_finite_and_positive(self, temperature):
        params = small_net()
        params.temperature = temperature
        with pytest.raises(ValueError, match="temperature must be finite and positive"):
            params.validate()

    def test_checkpoint_version_mismatch(self, tmp_path):
        params = small_net()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, extra={})
        text = path.read_text().replace('"format_version": 2', '"format_version": 99')
        path.write_text(text)
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)
