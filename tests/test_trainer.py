import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_net
from ssda_lab.coremath import cross_entropy, entropy, seeded_rng, softmax
from ssda_lab.datasets import DomainPairSpec, ShiftSpec, gen_split
from ssda_lab.network import anneal_lr, backward, flatten_grads, forward, forward_features, group_sizes, zero_grads
from ssda_lab.pseudolabel import infer_pseudo, reliability, select
from ssda_lab import trainer
from ssda_lab.trainer import (
    TrainConfig,
    entropy_loss,
    evaluate,
    init_train_state,
    minimax_gradients,
    minimax_step,
    momentum_update_labels,
    progressive_self_train,
    report_csv_lines,
    run_train_loop,
    train_baseline,
)

def quick_config(**overrides):
    """Small, fast settings for loop-level tests."""
    base = dict(
        t_max=300,
        t_val=30,
        patience=4,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def separable_split(seed=0):
    """Zero-shift, well-separated blobs: any sensible model reaches ~100%."""
    spec = DomainPairSpec(
        n_classes=3,
        input_dim=2,
        n_source=150,
        n_target=150,
        class_separation=6.0,
        shift=ShiftSpec(),
        seed=seed,
    )
    return gen_split(spec, 3, 3)


@pytest.fixture(scope="module")
def trained_separable():
    split = separable_split()
    config = quick_config(t_max=600, patience=6)
    params, report = train_baseline(split, config)
    return split, config, params, report


class TestLossValues:
    def test_labeled_loss_zero_on_perfect_predictions(self):
        # temperature small enough that softmax saturates to exact one-hot rows
        params = small_net(seed=1, temperature=1e-6)
        rng = seeded_rng(1)
        x = rng.standard_normal((10, params.input_dim))
        p = forward(x, params)
        np.testing.assert_array_equal(p.max(axis=1), np.ones(10))
        preds = np.argmax(p, axis=1)
        assert backward(x, params, "hard", preds)[0] == 0.0

    def test_labeled_loss_uniform_predictions(self):
        params = small_net()
        params.classifier_weights[:] = 0.0
        rng = seeded_rng(2)
        x = rng.standard_normal((8, params.input_dim))
        y = rng.integers(0, params.n_classes, size=8)
        assert backward(x, params, "hard", y)[0] == pytest.approx(math.log(params.n_classes), abs=1e-9)

    def test_labeled_loss_matches_per_sample_loop(self):
        params = small_net(seed=3)
        rng = seeded_rng(3)
        x = rng.standard_normal((12, params.input_dim))
        y = rng.integers(0, params.n_classes, size=12)
        brute = 0.0
        for i in range(12):
            onehot = np.zeros(params.n_classes)
            onehot[y[i]] = 1.0
            brute += cross_entropy(forward(x[i : i + 1], params)[0], onehot)
        assert backward(x, params, "hard", y)[0] == pytest.approx(brute / 12, abs=1e-9)

    def test_pseudo_loss_at_own_predictions_is_mean_entropy(self):
        params = small_net(seed=4)
        rng = seeded_rng(4)
        x = rng.standard_normal((9, params.input_dim))
        p = forward(x, params)
        expected = np.mean([entropy(row) for row in p])
        assert backward(x, params, "soft", p)[0] == pytest.approx(expected, abs=1e-9)

    def test_pseudo_loss_with_onehot_targets_reduces_to_labeled_loss(self):
        params = small_net(seed=5)
        rng = seeded_rng(5)
        x = rng.standard_normal((7, params.input_dim))
        y = rng.integers(0, params.n_classes, size=7)
        onehot = np.zeros((7, params.n_classes))
        onehot[np.arange(7), y] = 1.0
        hard = backward(x, params, "hard", y)[0]
        assert backward(x, params, "soft", onehot)[0] == pytest.approx(hard, abs=1e-12)

    def test_entropy_loss_bounds_and_confident_zero(self):
        params = small_net(seed=6)
        rng = seeded_rng(6)
        x = rng.standard_normal((20, params.input_dim))
        h = entropy_loss(params, x)
        assert 0.0 <= h <= math.log(params.n_classes) + 1e-9
        sharp = small_net(seed=6, temperature=1e-4)
        assert entropy_loss(sharp, x) < 1e-6

    def test_entropy_loss_near_log_k_at_seeded_init(self):
        split = separable_split()
        config = quick_config()
        state = init_train_state(split, config, "baseline")
        h = entropy_loss(state.params, split.unlabeled_x())
        assert abs(h - math.log(3)) / math.log(3) < 0.10

    def test_soft_targets_receive_no_gradient_within_a_step(self):
        # finite-differencing the loss in the target direction changes the value,
        # but the parameter gradient bundle is computed with targets held constant
        params = small_net(seed=7)
        rng = seeded_rng(7)
        x = rng.standard_normal((5, params.input_dim))
        raw = rng.uniform(0.1, 1.0, (5, params.n_classes))
        soft = raw / raw.sum(axis=1, keepdims=True)
        _, g1 = backward(x, params, "soft", soft)
        _, g2 = backward(x, params, "soft", soft.copy())
        np.testing.assert_array_equal(flatten_grads(g1), flatten_grads(g2))
        np.testing.assert_array_equal(soft, raw / raw.sum(axis=1, keepdims=True))

    def test_empty_batches_rejected(self):
        params = small_net()
        empty = np.zeros((0, params.input_dim))
        with pytest.raises(ValueError):
            backward(empty, params, "hard", np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            backward(empty, params, "soft", np.zeros((0, params.n_classes)))
        with pytest.raises(ValueError):
            entropy_loss(params, empty)


class TestMinimaxStep:
    def _batches(self, params, seed=0):
        rng = seeded_rng(seed)
        labeled = (rng.standard_normal((6, params.input_dim)), rng.integers(0, params.n_classes, size=6))
        raw = rng.uniform(0.1, 1.0, (4, params.n_classes))
        pseudo = (rng.standard_normal((4, params.input_dim)), raw / raw.sum(axis=1, keepdims=True))
        unlabeled = rng.standard_normal((8, params.input_dim))
        return labeled, pseudo, unlabeled

    def test_combined_gradient_is_termwise_sum_with_sign_flip(self):
        params = small_net(seed=10)
        labeled, pseudo, unlabeled = self._batches(params)
        lam = 0.1
        _, combined = minimax_gradients(params, lam, labeled, pseudo, unlabeled, zero_grads(params), zero_grads(params))
        _, g_l = backward(labeled[0], params, "hard", labeled[1])
        _, g_pl = backward(pseudo[0], params, "soft", pseudo[1])
        _, g_h = backward(unlabeled, params, "entropy")
        for (cw, cb), (lw, lb), (pw, pb), (hw, hb) in zip(
            combined.grad_layers, g_l.grad_layers, g_pl.grad_layers, g_h.grad_layers
        ):
            np.testing.assert_allclose(cw, lw + pw + lam * hw, atol=1e-12)
            np.testing.assert_allclose(cb, lb + pb + lam * hb, atol=1e-12)
        np.testing.assert_allclose(
            combined.grad_classifier,
            g_l.grad_classifier + g_pl.grad_classifier - lam * g_h.grad_classifier,
            atol=1e-12,
        )

    def test_classifier_entropy_update_is_negated_descent(self):
        # what lambda adds to the classifier gradient must be the exact negation
        # of a descent step on +lambda*H at the same evaluation point
        params = small_net(seed=11)
        labeled, _, unlabeled = self._batches(params)
        lam = 0.7
        _, with_h = minimax_gradients(params, lam, labeled, None, unlabeled, zero_grads(params), zero_grads(params))
        _, without = minimax_gradients(params, 0.0, labeled, None, unlabeled, zero_grads(params), zero_grads(params))
        _, g_h = backward(unlabeled, params, "entropy")
        np.testing.assert_allclose(with_h.grad_classifier - without.grad_classifier, -lam * g_h.grad_classifier,
                                   atol=1e-12)

    def test_entropy_directional_derivatives_after_one_step(self):
        # the part of one step that lambda contributes raises H through the
        # classifier and lowers it through the extractor (directional finite
        # differences of H along each group's share of that part)
        params = small_net(seed=12)
        labeled, _, unlabeled = self._batches(params, seed=12)
        stepped = {}
        for lam in (0.5, 0.0):
            # momentum acts on zero velocities and weight decay cancels in the
            # difference, so the difference is lambda's part alone
            config = TrainConfig(lambda_=lam)
            stepped[lam] = params.copy()
            minimax_step(stepped[lam], zero_grads(params), 1e-4, config, labeled, None, unlabeled,
                         zero_grads(params), zero_grads(params))
        delta = stepped[0.5].flat - stepped[0.0].flat
        n_ext = group_sizes(params)[0]

        h_before = entropy_loss(params, unlabeled)
        cls_only = params.copy()
        cls_only.flat[n_ext:] += delta[n_ext:]
        ext_only = params.copy()
        ext_only.flat[:n_ext] += delta[:n_ext]
        assert entropy_loss(cls_only, unlabeled) > h_before
        assert entropy_loss(ext_only, unlabeled) < h_before

    def test_lambda_zero_reduces_to_joint_descent(self):
        params = small_net(seed=13)
        labeled, pseudo, unlabeled = self._batches(params, seed=13)
        _, combined = minimax_gradients(params, 0.0, labeled, pseudo, unlabeled, zero_grads(params), zero_grads(params))
        _, g_l = backward(labeled[0], params, "hard", labeled[1])
        _, g_pl = backward(pseudo[0], params, "soft", pseudo[1])
        np.testing.assert_allclose(
            combined.grad_classifier, g_l.grad_classifier + g_pl.grad_classifier, atol=1e-12
        )

    def test_lambda_default_is_point_one(self):
        assert TrainConfig().lambda_ == 0.1


def _reference_step(params, velocity, lr, config, labeled, pseudo, unlabeled):
    """One minimax step written out: fresh backward bundles, explicit sums, the SGD formula.

    Updates ``params`` (through its flat vector) and ``velocity`` in place; returns the losses.
    """
    losses = {"labeled": None, "pseudo": None, "entropy": None}
    losses["labeled"], g = backward(labeled[0], params, "hard", labeled[1])
    total = flatten_grads(g)
    if pseudo is not None:
        losses["pseudo"], g = backward(pseudo[0], params, "soft", pseudo[1])
        total = total + flatten_grads(g)
    losses["entropy"], g = backward(unlabeled, params, "entropy")
    if config.lambda_ != 0.0:  # at lambda 0, H is reported but adds nothing
        n_ext, n_cls = group_sizes(params)
        sign = np.concatenate([np.ones(n_ext), -np.ones(n_cls)])  # +lambda extractor, -lambda classifier
        total = total + sign * (config.lambda_ * flatten_grads(g))
    theta = params.flat.copy()
    velocity[:] = trainer.SGD_MOMENTUM * velocity + (total + trainer.WEIGHT_DECAY * theta)
    params.flat[:] = theta - lr * velocity
    return losses


STEP_MIXES = {
    # name: (lambda, whether the step takes a pseudo batch); the lambda-0 mixes
    # are the S+T arm (stage 1) and stage 3 under --lambda 0
    "hard+entropy": (0.1, False),
    "hard+soft+entropy": (0.1, True),
    "hard+entropy_lambda_0": (0.0, False),
    "hard+soft+entropy_lambda_0": (0.0, True),
}


class TestStepOracle:
    @pytest.mark.parametrize("mix", sorted(STEP_MIXES))
    def test_twenty_workspace_steps_match_reference_bit_for_bit(self, mix):
        lam, with_pseudo = STEP_MIXES[mix]
        split = separable_split()
        config = quick_config(lambda_=lam)
        state = init_train_state(split, config, "baseline")
        ref_params, ref_velocity = state.params.copy(), np.zeros_like(state.params.flat)
        labeled_x, labeled_y = split.labeled_xy()
        unlabeled_x = split.unlabeled_x()
        rng = seeded_rng(44, mix)
        for t in range(1, 21):
            li = rng.integers(0, len(labeled_x), size=trainer.BATCH_LABELED)
            pi = rng.integers(0, len(unlabeled_x), size=trainer.BATCH_PSEUDO)
            ui = rng.integers(0, len(unlabeled_x), size=trainer.BATCH_UNLABELED)
            labeled = (labeled_x[li], labeled_y[li])
            pseudo = (unlabeled_x[pi], rng.dirichlet(np.ones(split.n_classes), size=len(pi)))
            pseudo = pseudo if with_pseudo else None
            lr = anneal_lr(config.base_lr, t / config.t_max)
            expected = _reference_step(ref_params, ref_velocity, lr, config, labeled, pseudo, unlabeled_x[ui])
            losses = minimax_step(state.params, state.velocities, lr, config, labeled, pseudo, unlabeled_x[ui],
                                  state.grads, state.term_grads)
            assert losses == expected
        np.testing.assert_array_equal(state.params.flat, ref_params.flat)
        np.testing.assert_array_equal(state.velocities.flat, ref_velocity)
        assert not np.array_equal(state.params.flat, init_train_state(split, config, "baseline").params.flat)

    def test_entropy_loss_has_the_bits_of_backward(self):
        rng = seeded_rng(45)
        for seed in range(4):
            params = small_net(seed=seed, temperature=0.05)
            x = rng.standard_normal((17, params.input_dim))
            assert entropy_loss(params, x) == backward(x, params, "entropy")[0]


class TestMomentumUpdateLabels:
    def test_convex_blend(self):
        out = momentum_update_labels(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.9)
        np.testing.assert_allclose(out, [0.9, 0.1], atol=1e-15)

    def test_fixed_point(self):
        p = np.array([0.3, 0.7])
        np.testing.assert_array_equal(momentum_update_labels(p, p, 0.9), p)

    def test_geometric_convergence_ratio(self):
        live = np.array([[1.0, 0.0], [0.2, 0.8]])
        target = np.array([[0.5, 0.5], [0.6, 0.4]])
        gaps = []
        for _ in range(8):
            gaps.append(np.abs(live - target).max())
            live = momentum_update_labels(live, target, 0.9)
        gaps.append(np.abs(live - target).max())
        for a, b in zip(gaps, gaps[1:]):
            assert b / a == pytest.approx(0.9, abs=1e-9)

    def test_simplex_violation_rejected(self):
        with pytest.raises(ValueError, match="simplex violation"):
            momentum_update_labels(np.array([0.9, 0.3]), np.array([0.5, 0.5]), 0.9)
        with pytest.raises(ValueError, match="simplex violation"):
            momentum_update_labels(np.array([0.5, 0.5]), np.array([1.2, -0.2]), 0.9)
        with pytest.raises(ValueError, match="simplex violation"):  # NaN fails every comparison
            momentum_update_labels(np.array([[0.5, 0.5], [np.nan, 0.5]]), np.full((2, 2), 0.5), 0.9)

    @settings(max_examples=100)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=50))
    def test_simplex_preserved_under_repeated_refreshes(self, seed, n_refreshes):
        rng = seeded_rng(seed, "labels")
        k = int(rng.integers(2, 6))
        live = rng.dirichlet(np.ones(k), size=4)
        for _ in range(n_refreshes):
            fresh = rng.dirichlet(np.ones(k), size=4)
            live = momentum_update_labels(live, fresh, 0.9)
        assert np.all(live >= -1e-12)
        assert np.all(live <= 1.0 + 1e-12)
        np.testing.assert_allclose(live.sum(axis=1), 1.0, atol=1e-9)


class TestEvaluate:
    def test_perfect_model(self, trained_separable):
        split, config, params, report = trained_separable
        acc = evaluate(params, split.unlabeled_x(), split.unlabeled_truth)
        assert acc >= 0.99

    def test_chance_level_at_uniform_predictions(self):
        split = separable_split()
        params = small_net(seed=20, input_dim=2, n_classes=3)
        params.classifier_weights[:] = 0.0  # uniform: argmax tie resolves to class 0
        acc = evaluate(params, split.unlabeled_x(), split.unlabeled_truth)
        per_class = np.mean(split.unlabeled_truth == 0)
        assert acc == pytest.approx(per_class, abs=1e-12)

    def test_matches_brute_force_loop(self, trained_separable):
        split, config, params, _ = trained_separable
        x = split.unlabeled_x()
        hits = sum(
            1
            for i in range(len(x))
            if int(np.argmax(forward(x[i : i + 1], params)[0])) == split.unlabeled_truth[i]
        )
        assert evaluate(params, x, split.unlabeled_truth) == pytest.approx(hits / len(x), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate(small_net(), np.zeros((0, 4)), np.zeros(0))


class TestTrainBaseline:
    def test_separable_data_reaches_high_validation_accuracy(self, trained_separable):
        _, _, _, report = trained_separable
        assert report.best_val_acc >= 0.99

    def test_pseudo_labels_on_separable_split_exceed_95pct(self, trained_separable):
        split, config, params, _ = trained_separable
        annotations = infer_pseudo(params, split.unlabeled_x())
        assert reliability(annotations, split.unlabeled_truth) > 0.95

    def test_deterministic_history(self):
        split = separable_split()
        config = quick_config()
        _, r1 = train_baseline(split, config)
        _, r2 = train_baseline(split, config)
        assert report_csv_lines(r1) == report_csv_lines(r2)

    def test_history_strictly_increasing_iterations(self, trained_separable):
        _, _, _, report = trained_separable
        iters = [row.iteration for row in report.history]
        assert all(a < b for a, b in zip(iters, iters[1:]))

    def test_stage1_rows_leave_pseudo_columns_empty(self, trained_separable):
        _, _, _, report = trained_separable
        assert all(row.loss_pseudo is None for row in report.history)
        assert all(row.reliability is None for row in report.history)

    def test_invalid_config_lists_problems(self):
        split = separable_split()
        with pytest.raises(ValueError, match="lambda"):
            train_baseline(split, quick_config(lambda_=-1.0))


# argparse types every flag, so a wrongly typed field reaches validate only from a Python caller
BAD_FIELD_TYPES = [
    pytest.param({"t_max": "abc"}, "t_max must be an integer", id="t_max_str"),
    pytest.param({"t_max": 2.5}, "t_max must be an integer", id="t_max_float"),
    pytest.param({"t_val": "25"}, "t_val must be an integer", id="t_val_str"),
    pytest.param({"t_val": 25.0}, "t_val must be an integer", id="t_val_float"),
    pytest.param({"patience": True}, "patience must be an integer", id="patience_bool"),
    pytest.param({"patience": "3"}, "patience must be an integer", id="patience_str"),
    pytest.param({"seed": "0"}, "seed must be an integer", id="seed_str"),
    pytest.param({"seed": 0.0}, "seed must be an integer", id="seed_float"),
    pytest.param({"base_lr": "0.005"}, "base_lr must be a finite number", id="base_lr_str"),
    pytest.param({"base_lr": math.inf}, "base_lr must be a finite number", id="base_lr_inf"),
    pytest.param({"lambda_": "0.1"}, "lambda_ must be a finite number", id="lambda_str"),
    pytest.param({"lambda_": False}, "lambda_ must be a finite number", id="lambda_bool"),
    pytest.param({"r_u": True}, "r_u must be a finite number", id="r_u_bool"),
    pytest.param({"r_u": math.nan}, "r_u must be a finite number", id="r_u_nan"),
    pytest.param({"label_momentum": None}, "label_momentum must be a finite number", id="label_momentum_none"),
    pytest.param({"label_momentum": "0.9"}, "label_momentum must be a finite number", id="label_momentum_str"),
    pytest.param({"use_hard_labels": 1}, "use_hard_labels must be true or false", id="hard_labels_int"),
    pytest.param({"use_hard_labels": "true"}, "use_hard_labels must be true or false", id="hard_labels_str"),
]


@pytest.mark.parametrize("values, message", BAD_FIELD_TYPES)
def test_wrongly_typed_field_is_refused(values, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**values).validate()


def _selected(split, params, r_u=0.5):
    annotations = infer_pseudo(params, split.unlabeled_x())
    anchors = {c: forward_features(x, params) for c, x in split.labeled_target_by_class().items()}
    return select(annotations, anchors, r_u, len(split.unlabeled_target), split.n_classes)


class TestProgressiveSelfTrain:
    def test_membership_frozen_through_training(self, trained_separable):
        split, config, params, _ = trained_separable
        selected = _selected(split, params)
        before = list(selected.index_set)
        progressive_self_train(split, selected, params, quick_config())
        assert selected.index_set == before

    def test_empty_selection_rejected(self, trained_separable):
        split, config, params, _ = trained_separable
        selected = _selected(split, params)
        selected.annotations = []
        selected.index_set = []
        with pytest.raises(ValueError, match="nonempty"):
            progressive_self_train(split, selected, params, quick_config())

    def test_hard_label_arm_freezes_onehot_targets(self, trained_separable):
        split, config, params, _ = trained_separable
        selected = _selected(split, params)
        cfg = quick_config(use_hard_labels=True, label_momentum=1.0, t_max=90, patience=100)
        state = init_train_state(split, cfg, "selftrain", selected=selected, resume_params=params)
        live_before = state.live_soft.copy()
        assert np.all(np.isin(live_before, [0.0, 1.0]))
        run_train_loop(split, cfg, state)
        np.testing.assert_array_equal(state.live_soft, live_before)

    def test_soft_labels_refresh_at_validation_phases(self, trained_separable):
        split, config, params, _ = trained_separable
        selected = _selected(split, params)
        cfg = quick_config(t_max=90, t_val=30, patience=100)
        state = init_train_state(split, cfg, "selftrain", selected=selected, resume_params=params)
        live_before = state.live_soft.copy()
        run_train_loop(split, cfg, state)
        assert not np.array_equal(state.live_soft, live_before)
        np.testing.assert_allclose(state.live_soft.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("overrides", [{}, {"use_hard_labels": True, "label_momentum": 1.0}],
                             ids=["progressive", "vanilla"])
    def test_live_hard_labels_recorded_per_validation(self, trained_separable, overrides):
        """The trainer leaves ``reliability`` to a caller that holds the truth, and gives it one row of live hard
        labels per validation, over the selected rows, also when no refresh runs."""
        split, config, params, _ = trained_separable
        selected = _selected(split, params)
        _, report = progressive_self_train(split, selected, params, quick_config(**overrides))
        assert report.history and all(row.reliability is None for row in report.history)
        assert len(report.live_hard) == len(report.history)
        for hard in report.live_hard:
            assert hard.shape == (len(selected),) and hard.dtype.kind == "i"
            assert 0 <= hard.min() and hard.max() < split.n_classes

    def test_training_never_reads_the_unlabeled_truth(self, trained_separable):
        """Both stages train the same bits on a split whose hidden truth is shuffled."""
        split, _, params, _ = trained_separable
        shuffled = replace(split, unlabeled_truth=seeded_rng(0, "shuffle").permutation(split.unlabeled_truth))
        assert not np.array_equal(shuffled.unlabeled_truth, split.unlabeled_truth)
        config = quick_config(t_max=120, patience=100)
        selected = _selected(split, params)
        runs = [(train_baseline(s, config), progressive_self_train(s, selected, params, config))
                for s in (split, shuffled)]
        for stage, ((got, got_report), (want, want_report)) in enumerate(zip(*runs), start=1):
            np.testing.assert_array_equal(got.flat, want.flat, err_msg=f"stage {2 * stage - 1}")
            assert got_report.history == want_report.history
            assert len(got_report.live_hard) == len(want_report.live_hard) == (4 if stage == 2 else 0)
            for a, b in zip(got_report.live_hard, want_report.live_hard):
                np.testing.assert_array_equal(a, b)


def _per_iteration_loop(split, config, state):
    """``run_train_loop`` as one draw and one gather per iteration: the reference for its per-window batches."""
    labeled_x, labeled_y = split.labeled_xy()
    unlabeled_x = split.unlabeled_x()
    val_x, val_y = split.validation_xy()
    pseudo_x = unlabeled_x[state.selected_indices] if state.stage == "selftrain" else None
    rngs = trainer._batch_rngs(config, state.stage)
    while state.stop_reason is None and state.t_iter < config.t_max:
        state.t_iter += 1
        lr = anneal_lr(config.base_lr, state.t_iter / config.t_max)
        li = rngs["labeled"].integers(0, len(labeled_x), size=trainer.BATCH_LABELED)
        ui = rngs["unlabeled"].integers(0, len(unlabeled_x), size=trainer.BATCH_UNLABELED)
        pseudo = None
        if pseudo_x is not None:
            pi = rngs["pseudo"].integers(0, len(pseudo_x), size=trainer.BATCH_PSEUDO)
            pseudo = (pseudo_x[pi], state.live_soft[pi])
        losses = minimax_step(state.params, state.velocities, lr, config, (labeled_x[li], labeled_y[li]), pseudo,
                              unlabeled_x[ui], state.grads, state.term_grads)
        for key in ("labeled", "entropy", "pseudo"):
            if losses[key] is not None:
                state.loss_sums[key] += losses[key]
        state.loss_sums["count"] += 1
        if state.t_iter % config.t_val == 0:
            trainer._validation_phase(config, state, val_x, val_y, pseudo_x)
    if state.stop_reason is None:
        state.stop_reason = "t_max"
    return state


LOOP_CASES = {
    # name: (stage, config overrides, the stop the case must reach)
    "baseline": ("baseline", dict(patience=100), "t_max"),
    "baseline_lambda_0": ("baseline", dict(lambda_=0.0, patience=100), "t_max"),
    "selftrain_soft_refresh": ("selftrain", dict(patience=100), "t_max"),
    "selftrain_hard_labels": ("selftrain", dict(use_hard_labels=True, patience=100), "t_max"),
    "short_last_window": ("selftrain", dict(t_max=130, t_val=50, patience=100), "t_max"),
    "patience_stops_mid_stage": ("baseline", dict(patience=1), "patience"),
}


class TestWindowedLoop:
    @pytest.mark.parametrize("case", sorted(LOOP_CASES))
    def test_matches_per_iteration_loop_bit_for_bit(self, trained_separable, case):
        stage, overrides, stop = LOOP_CASES[case]
        split, _, params, _ = trained_separable
        config = quick_config(**overrides)
        selected = _selected(split, params) if stage == "selftrain" else None

        def fresh():
            return init_train_state(split, config, stage, selected=selected, resume_params=params)

        got = run_train_loop(split, config, fresh())
        want = _per_iteration_loop(split, config, fresh())
        assert (got.stop_reason, got.t_iter) == (want.stop_reason, want.t_iter)
        assert got.stop_reason == stop and (got.t_iter < config.t_max) == (stop == "patience")
        assert got.history == want.history
        assert (got.best_iteration, got.best_val_acc) == (want.best_iteration, want.best_val_acc)
        for name in ("params", "velocities", "best_params"):
            np.testing.assert_array_equal(getattr(got, name).flat, getattr(want, name).flat, err_msg=name)
        assert len(got.live_hard) == len(want.live_hard) == (len(got.history) if stage == "selftrain" else 0)
        for i, (a, b) in enumerate(zip(got.live_hard, want.live_hard)):
            np.testing.assert_array_equal(a, b, err_msg=f"live_hard[{i}]")
        if stage == "selftrain":
            np.testing.assert_array_equal(got.live_soft, want.live_soft)

    @pytest.mark.parametrize("w", [1, 50])
    @pytest.mark.parametrize("b", [1, 31, 32, 33, 64])
    @pytest.mark.parametrize("n", [3, 7, 100, 485, 1015, 19960])
    def test_window_draw_equals_per_iteration_draws(self, n, b, w):
        """The numpy property the loop relies on: one (w, b) draw has the values of w draws of b and leaves
        the stream where they leave it. A numpy release that breaks it fails here, by name."""
        blocked, stepped = (seeded_rng(n, "batch", f"{b}x{w}") for _ in range(2))
        window = blocked.integers(0, n, size=(w, b))
        rows = np.stack([stepped.integers(0, n, size=b) for _ in range(w)])
        np.testing.assert_array_equal(window, rows, err_msg=f"numpy {np.__version__}: (w, b) draw differs")
        np.testing.assert_array_equal(blocked.integers(0, n, size=b), stepped.integers(0, n, size=b),
                                      err_msg=f"numpy {np.__version__}: the stream ends elsewhere")
