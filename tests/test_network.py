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
from ssda_lab import network
from conftest import blas_version, max_rel_err, small_net
from ssda_lab.artifacts import DataError
from ssda_lab.coremath import LOG_CLAMP, finite_diff_grad, l1_distance, seeded_rng
from ssda_lab.network import (
    CHECKPOINT_VERSION,
    DOT_ROWS,
    FEATURE_NORM_FLOOR,
    ROW_BLOCK,
    SGD_MOMENTUM,
    TEMPERATURE,
    WEIGHT_DECAY,
    NetworkParams,
    _backprop,
    _forward_extractor,
    _head,
    _loss_terms,
    anneal_lr,
    backward,
    degenerate_feature_events,
    forward,
    forward_features,
    init_params,
    load_checkpoint,
    predict_blocks,
    save_checkpoint,
    sgd_step,
    zero_grads,
)
from ssda_lab.pseudolabel import infer_pseudo, reliability
from ssda_lab.trainer import FEATURE_DIM, HIDDEN_DIMS, entropy_loss, evaluate

LOSS_KINDS = ["hard", "soft", "entropy"]


def _targets_for(kind, rng, n, k):
    if kind == "hard":
        return rng.integers(0, k, size=n)
    if kind == "soft":
        raw = rng.uniform(0.05, 1.0, size=(n, k))
        return raw / raw.sum(axis=1, keepdims=True)
    return None


# every public function that takes a raw (n, input_dim) batch, called with its batch and the network; the bare
# "backward" is its entropy kind
BATCH_TAKERS = {
    "forward_features": forward_features,
    "forward": forward,
    "backward": lambda x, params: backward(x, params, "entropy"),
    "backward-hard": lambda x, params: backward(x, params, "hard", np.zeros(len(x), dtype=int)),
    "backward-soft": lambda x, params: backward(x, params, "soft",
                                                np.full((len(x), params.n_classes), 1 / params.n_classes)),
    "evaluate": lambda x, params: evaluate(params, x, np.zeros(len(x), dtype=int)),
    "infer_pseudo": lambda x, params: infer_pseudo(params, x, {}),
    "entropy_loss": lambda x, params: entropy_loss(params, x),
}


class TestForwardFeatures:
    def test_zero_weights_give_zero_features(self):
        params = NetworkParams(np.zeros(3 * 4 + 4 + 4 * 2 + 2 + 2 * 2), [3, 4, 2, 2])
        np.testing.assert_array_equal(forward_features(np.array([[1.0, -2.0, 3.0]]), params), np.zeros((1, 2)))

    def test_single_identity_layer_passes_input_through(self):
        # Final extractor layer is linear, so identity weights reproduce x.
        params = NetworkParams(np.concatenate([np.eye(3).ravel(), np.zeros(3 + 2 * 3)]), [3, 3, 2])
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

    @pytest.mark.parametrize("fn", BATCH_TAKERS.values(), ids=BATCH_TAKERS.keys())
    def test_empty_batch_rejected(self, fn):
        params = small_net()
        with pytest.raises(ValueError, match="empty batch"):
            fn(np.zeros((0, params.input_dim)), params)

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
            "p = init_params(2, (8,), 4, 3, seeded_rng(5, 'init'))\n"
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


def _predictions(f: np.ndarray, params: NetworkParams) -> np.ndarray:
    """The head's predictions for an (n, feature_dim) feature batch."""
    return _head(f, params)[3]


class TestHead:
    def test_identical_rows_give_uniform(self, rng):
        f = rng.standard_normal((1, 6))
        params = small_net()
        params.classifier_weights[:] = np.tile(rng.standard_normal(6), (3, 1))
        np.testing.assert_allclose(_predictions(f, params), np.full((1, 3), 1 / 3), atol=1e-12)

    def test_scale_invariance(self, rng):
        params = small_net()
        f = rng.standard_normal((1, 6))
        p1 = _predictions(f, params)
        p2 = _predictions(10.0 * f, params)
        assert int(np.argmax(p1[0])) == int(np.argmax(p2[0]))
        np.testing.assert_allclose(p1, p2, atol=1e-9)

    def test_halving_temperature_sharpens(self, rng):
        """Logits are W.g / T, so doubling the classifier weights is halving the temperature."""
        params = small_net(seed=3)
        f = rng.standard_normal((1, 6))
        p_base = _predictions(f, params)
        sharp = small_net(seed=3)
        sharp.classifier_weights[:] *= 2.0
        p_sharp = _predictions(f, sharp)
        assert np.max(p_sharp) > np.max(p_base)

    def test_row_at_the_norm_floor_is_normalized(self):
        """Only a norm below ``FEATURE_NORM_FLOOR`` is degenerate: ``[1e-12, 0, ...]`` has a norm of exactly the
        floor in float64, so it becomes a unit row, builds no mask and bumps no counter."""
        f = np.zeros((1, 6))
        f[0, 0] = FEATURE_NORM_FLOOR
        degenerate_feature_events.reset()
        g, norms, degenerate, _ = _head(f, small_net())
        assert norms[0, 0] == FEATURE_NORM_FLOOR
        np.testing.assert_array_equal(g, [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        assert degenerate is None and degenerate_feature_events.count == 0

    def test_degenerate_feature_fallback_counts(self):
        params = small_net()
        degenerate_feature_events.reset()
        p = _predictions(np.zeros((1, 6)), params)
        assert degenerate_feature_events.count == 1
        assert np.all(np.isfinite(p))


def _pool_net(input_dim: int, n_classes: int) -> NetworkParams:
    """The pipeline's network layout with a random classifier, so predictions are not uniform."""
    params = init_params(input_dim, HIDDEN_DIMS, FEATURE_DIM, n_classes, seeded_rng(input_dim, "init"))
    params.classifier_weights[:] = seeded_rng(input_dim, "classifier").standard_normal((n_classes, FEATURE_DIM))
    return params


class TestRowBlocks:
    SIZES = [1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1, 19960]

    @pytest.mark.parametrize("n", SIZES)
    def test_forward_blocks_are_near_equal_and_never_small(self, n, monkeypatch):
        # a block of one row would take BLAS's vector path, whose bits can differ from the matrix path
        params = _pool_net(2, 5)
        x = seeded_rng(n, "pool").standard_normal((n, 2))
        one_shot = _head(_forward_extractor(x, params)[-1], params)[3]
        sizes = []
        monkeypatch.setattr(network, "_forward_extractor",
                            lambda xb, p: sizes.append(len(xb)) or _forward_extractor(xb, p))
        np.testing.assert_array_equal(forward(x, params), one_shot)
        assert sum(sizes) == n and max(sizes) <= ROW_BLOCK and max(sizes) - min(sizes) <= 1
        assert n <= ROW_BLOCK or min(sizes) >= ROW_BLOCK // 2

    @pytest.mark.parametrize("shots", [1, 3])
    @pytest.mark.parametrize("input_dim, n_classes", [(2, 5), (8, 10)])
    @pytest.mark.parametrize("n", SIZES)
    def test_blocked_passes_match_one_shot_bits(self, n, input_dim, n_classes, shots):
        params = _pool_net(input_dim, n_classes)
        x = seeded_rng(n, "pool").standard_normal((n, input_dim))
        x[::97] = 0.0  # zero rows give zero features, which the head counts as degenerate
        anchors = {c: seeded_rng(c, "anchors").standard_normal((shots, FEATURE_DIM)) for c in range(n_classes)}
        degenerate_feature_events.reset()
        features = _forward_extractor(x, params)[-1]
        probs = _head(features, params)[3]
        one_shot_events = degenerate_feature_events.count
        assert one_shot_events > 0
        hard = probs.argmax(axis=1)
        # the distances infer_pseudo works out per block, here from the one-shot features of each class at once
        distance = np.full(n, np.nan)
        for c in set(hard.tolist()):
            distance[hard == c] = l1_distance(features[hard == c][:, None, :], anchors[c]).mean(axis=1)
        # some class has no rows in some block, so that block makes no l1_distance call for it
        blocks = []
        predict_blocks(x, params, lambda rows, block_features, block_probs: blocks.append(rows))
        assert any(np.bincount(hard[rows], minlength=n_classes).min() == 0 for rows in blocks)
        pool = lambda: infer_pseudo(params, x, anchors)  # noqa: E731
        checks = [("forward_features", lambda: forward_features(x, params), features),
                  ("forward", lambda: forward(x, params), probs),
                  ("infer_pseudo", lambda: pool().soft_label, probs),
                  ("infer_pseudo", lambda: pool().hard_label, hard),
                  ("infer_pseudo", lambda: pool().distance, distance),
                  ("evaluate", lambda: evaluate(params, x, hard), 1.0)]
        for name, call, one_shot in checks:
            degenerate_feature_events.reset()
            np.testing.assert_array_equal(call(), one_shot, err_msg=f"numpy {np.__version__}, blas "
                                          f"{blas_version()}: blocked {name} differs at n={n}")
            assert degenerate_feature_events.count == (0 if name == "forward_features" else one_shot_events)

    @pytest.mark.parametrize("n", SIZES)
    def test_evaluate_scores_the_argmax_of_forward(self, n):
        params = _pool_net(8, 10)
        x = seeded_rng(n, "pool").standard_normal((n, 8))
        truth = seeded_rng(n, "truth").integers(0, 10, n)
        truth[::2] = forward(x[::2], params).argmax(axis=1)  # about 55% right, so a wrong row count shows
        assert evaluate(params, x, truth) == reliability(forward(x, params).argmax(axis=1), truth)

    def test_evaluate_holds_no_prediction_matrix(self):
        """Each block's argmax is kept, not its predictions: the peak stays below one (n, K) float64 matrix
        (1.6 MB here), which a one-shot argmax over ``forward`` holds on top of its last block."""
        params = _pool_net(8, 10)
        x = seeded_rng(8, "pool").standard_normal((19960, 8))
        truth = np.zeros(len(x), dtype=int)
        evaluate(params, x, truth)
        tracemalloc.start()
        try:
            evaluate(params, x, truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(x) * params.n_classes * 8, f"peak {peak / 1e6:.2f} MB"

    def test_infer_pseudo_holds_the_pool_once(self):
        """Predictions and distances go straight into the record array, and each block's features are dropped
        with the block: no pool-sized feature column and no pool-sized copy of any column."""
        params = _pool_net(8, 10)
        x = seeded_rng(8, "pool").standard_normal((19960, 8))
        anchors = {c: seeded_rng(c, "anchors").standard_normal((3, FEATURE_DIM)) for c in range(10)}
        tracemalloc.start()
        try:
            pool = infer_pseudo(params, x, anchors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 3.8 MB, of which the 104-byte rows take 2.1 MB; a 256-byte feature column in the pool
        # reaches 8.9 MB, and features held for a later select would add 5.1 MB more
        assert peak < 5e6, f"peak {peak / 1e6:.2f} MB, the pool {pool.nbytes / 1e6:.2f} MB"


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
        params = init_params(2, (64, 64), 32, 5, seeded_rng(0, "init"))
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
        expected = (p - np.eye(params.n_classes)[1]) @ params.classifier_weights / TEMPERATURE
        assert expected[0] == 0.0 and np.all(expected[1:] != 0.0)
        np.testing.assert_allclose(grads.extractor_layers[-1][1], expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind, targets, match", [
        ("hinge", None, "unknown loss kind"),
        ("soft", np.full((4, 2), 0.5), "soft targets shape"),
        ("soft", np.full((3, 3), 1 / 3), "soft targets shape"),
    ], ids=["unknown_kind", "soft_too_narrow", "soft_too_few_rows"])
    def test_refusal_leaves_out_unwritten(self, kind, targets, match):
        params = small_net()
        out = zero_grads(params)
        out.flat[:] = 7.0
        with pytest.raises(ValueError, match=match):
            backward(seeded_rng(3).standard_normal((4, params.input_dim)), params, kind, targets, out=out)
        assert np.all(out.flat == 7.0)

    @pytest.mark.parametrize("kinds", [("hard", "entropy"), ("soft", "entropy"), ("hard", "soft")], ids="+".join)
    def test_one_backprop_of_stacked_dlogits_sums_two_backwards(self, kinds):
        """The backprop is linear in ``dlogits``: one stacked forward, ``_loss_terms`` per slice and one
        ``_backprop`` give the sum of the two batches' ``backward`` gradients."""
        rng, params, n = seeded_rng(17), _pool_net(2, 5), 32
        assert 2 * n <= DOT_ROWS
        batches = [(rng.standard_normal((n, 2)), kind, _targets_for(kind, rng, n, 5)) for kind in kinds]
        h = _forward_extractor(np.vstack([x for x, _, _ in batches]), params)
        g, norms, degenerate, p = _head(h[-1], params)
        dlogits = np.vstack([_loss_terms(p[i * n:(i + 1) * n], kind, targets)[1]
                             for i, (_, kind, targets) in enumerate(batches)])
        fused = _backprop(h, g, norms, degenerate, dlogits, params, zero_grads(params))
        separate = sum(backward(x, params, kind, targets)[1].flat for x, kind, targets in batches)
        # rtol 1e-12, with a floor at that fraction of the largest entry for entries that are sums which cancel
        np.testing.assert_allclose(fused.flat, separate, rtol=1e-12, atol=1e-12 * np.max(np.abs(separate)))


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
    logits /= TEMPERATURE
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
    gc /= TEMPERATURE
    dg = dlogits @ params.classifier_weights
    dg /= TEMPERATURE
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
        params = init_params(3, (8,), 4, 3, seeded_rng(21, "init"))
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
        assert loaded["extra"]["t_iter"] == 17
        # the weights are one <f8 vector in the table beside the JSON, which holds its sha256
        table = tmp_path / "ckpt.flat.npy"
        flat = np.load(table, allow_pickle=False)
        assert (flat.dtype, flat.shape) == (np.dtype("<f8"), params.flat.shape)
        record = json.loads(path.read_text())
        assert record["checksum"] == hashlib.sha256(table.read_bytes()).hexdigest()
        assert record["params"] == {"widths": list(params.widths), "temperature": TEMPERATURE}

    def test_checkpoint_version_mismatch(self, tmp_path):
        params = small_net()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, extra={})
        text = path.read_text().replace(f'"format_version": {CHECKPOINT_VERSION}', '"format_version": 99')
        path.write_text(text)
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)
