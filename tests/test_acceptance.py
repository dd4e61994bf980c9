"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 4-7 share one set of per-seed pipeline artifacts (seeds 0..9 on
the default benchmark, 3-shot) computed once per session.  Criteria 6 and
7 state directional phenomena that measure how training arms compare on
the synthetic benchmark; they are asserted exactly as specified.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from conftest import max_rel_err, small_net
from ssda_lab.cli import EXIT_OK, main
from ssda_lab.coremath import (
    cross_entropy,
    entropy,
    finite_diff_grad,
    l1_distance,
    seeded_rng,
    softmax,
)
from ssda_lab.datasets import default_benchmark_spec, gen_split
from ssda_lab.network import (
    anneal_lr,
    backward,
    forward_features,
)
from ssda_lab.pseudolabel import (
    anchor_distances,
    infer_pseudo,
    per_class_quota,
    pseudo_rows,
    reliability,
    select,
)
from ssda_lab.trainer import (
    TrainConfig,
    evaluate,
    init_train_state,
    momentum_update_labels,
    progressive_self_train,
    run_train_loop,
    train_baseline,
)

SEEDS = list(range(10))
SUITE_START = time.perf_counter()


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="session")
def pipeline_cells():
    """Per-seed artifacts for every training arm used by criteria 4-7."""
    t0 = time.perf_counter()
    cells = []
    for seed in SEEDS:
        split = gen_split(default_benchmark_spec(seed=seed), 3, 3)
        ux = split.unlabeled_x()
        truth = split.unlabeled_truth
        config = TrainConfig(seed=seed)

        params, _ = train_baseline(split, config)
        anchors = {c: forward_features(x, params) for c, x in split.labeled_target_by_class().items()}
        annotations = infer_pseudo(params, ux, anchors)
        selections = {r: select(annotations, r, len(ux), split.n_classes) for r in (0.01, 0.2, 1.0)}

        cell = {
            "baseline": evaluate(params, ux, truth),
            "rel_all": reliability(np.array([a.hard_label for a in annotations]), truth),
            "rel_selected": reliability(np.array([a.hard_label for a in annotations])[selections[0.2].index_set],
                                        truth[selections[0.2].index_set]),
        }
        for r, sel in selections.items():
            arm, _ = progressive_self_train(split, sel, params, TrainConfig(seed=seed, r_u=r))
            cell[f"soft_{r}"] = evaluate(arm, ux, truth)
        vanilla, _ = progressive_self_train(
            split, selections[0.2], params,
            TrainConfig(seed=seed, use_hard_labels=True, label_momentum=1.0),
        )
        cell["vanilla"] = evaluate(vanilla, ux, truth)
        st_params, _ = train_baseline(split, TrainConfig(seed=seed, lambda_=0.0))
        cell["s_plus_t"] = evaluate(st_params, ux, truth)
        cells.append(cell)
    elapsed = time.perf_counter() - t0
    return cells, elapsed


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    rng = seeded_rng(1001)
    for draw in range(5):
        params = small_net(seed=100 + draw)
        x = rng.standard_normal((4, params.input_dim))
        for kind in ("hard", "soft", "entropy"):
            if kind == "hard":
                targets = rng.integers(0, params.n_classes, size=4)
            elif kind == "soft":
                raw = rng.uniform(0.05, 1.0, size=(4, params.n_classes))
                targets = raw / raw.sum(axis=1, keepdims=True)
            else:
                targets = None
            _, grads = backward(x, params, kind, targets)

            def loss_at(flat, kind=kind, targets=targets, x=x, params=params):
                candidate = params.copy()
                candidate.flat[:] = flat
                return backward(x, candidate, kind, targets)[0]

            fd = finite_diff_grad(loss_at, params.flat, eps=1e-5)
            worst = max(worst, max_rel_err(grads.flat, fd))
    elapsed = time.perf_counter() - t0
    passed = worst < 1e-4 and elapsed < 30.0
    _report("1 gradient correctness", passed, f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 30.0


def test_criterion_2_equation_unit_suite():
    t0 = time.perf_counter()
    # probability primitives
    np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-9)
    np.testing.assert_allclose(softmax(np.array([math.log(2), 0.0])), [2 / 3, 1 / 3], atol=1e-9)
    assert abs(softmax(np.array([1000.0, 0.0]))[0] - 1.0) < 1e-12
    assert cross_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == pytest.approx(math.log(2), abs=1e-9)
    assert cross_entropy(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0
    assert cross_entropy(np.array([0.25, 0.75]), np.array([0.5, 0.5])) == pytest.approx(
        -0.5 * (math.log(0.25) + math.log(0.75)), abs=1e-9
    )
    assert entropy(np.array([1.0, 0.0])) == 0.0
    assert entropy(np.array([0.5, 0.5])) == pytest.approx(math.log(2), abs=1e-9)
    assert entropy(np.full(5, 0.2)) == pytest.approx(math.log(5), abs=1e-9)
    assert l1_distance(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == 3.0
    assert l1_distance(np.array([-1.0, 1.0]), np.array([1.0, -1.0])) == 4.0
    # schedule endpoints
    assert anneal_lr(1.0, 0.0) == 1.0
    assert anneal_lr(1.0, 1.0) == pytest.approx(11.0**-0.75, abs=1e-12)
    # quota arithmetic and tie rules, exact
    assert per_class_quota(0.2, 100, 5) == 4
    assert per_class_quota(1.0, 470, 5) == 94
    anchors, hard = {0: np.array([[0.0, 0.0]])}, np.zeros(4, dtype=int)
    annotations = pseudo_rows(np.ones((4, 1)), hard, distance=anchor_distances(np.tile([1.0, 0.0], (4, 1)), hard,
                                                                                anchors))
    assert select(annotations, 0.5, 4, 1).index_set == [0, 1]
    assert int(np.argmax(softmax(np.array([3.0, 3.0, 1.0])))) == 0  # argmax tie -> lowest index
    # label refresh convex blend
    np.testing.assert_allclose(
        momentum_update_labels(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 0.9), [[0.9, 0.1]], atol=1e-12
    )
    elapsed = time.perf_counter() - t0
    _report("2 equation unit suite", elapsed < 10.0, f"{elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_3_selection_order_properties():
    rng = seeded_rng(3003)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 60))
        k = int(rng.integers(2, 7))
        raw, features = map(np.stack, zip(*[(rng.uniform(0.01, 1.0, size=k), rng.standard_normal(3))
                                            for _ in range(n)]))
        anchors = {c: rng.standard_normal((int(rng.integers(1, 4)), 3)) for c in range(k)}
        hard = raw.argmax(axis=1)
        annotations = pseudo_rows(raw / raw.sum(axis=1, keepdims=True), hard,
                                  distance=anchor_distances(features, hard, anchors))
        r_small = float(rng.uniform(0.01, 0.99))
        r_big = min(1.0, r_small + float(rng.uniform(0.01, 0.5)))
        small = select(annotations, r_small, n, k)
        big = select(annotations, r_big, n, k)
        assert set(small.index_set) <= set(big.index_set)
        for sel in (small, big):
            selected_ids = set(sel.index_set)
            assert len(sel.index_set) == len(selected_ids)
            for c in range(k):
                members = [a for a in annotations if a.hard_label == c]
                inside = [(a.distance, a.index) for a in members if a.index in selected_ids]
                outside = [(a.distance, a.index) for a in members if a.index not in selected_ids]
                if inside and outside:
                    assert max(inside) <= min(outside)
        checked += 1

    # membership freeze through a short stage 3
    split = gen_split(default_benchmark_spec(seed=0), 3, 3)
    config = TrainConfig(seed=0, t_max=200)
    params, _ = train_baseline(split, config)
    anchors = {c: forward_features(x, params) for c, x in split.labeled_target_by_class().items()}
    annotations = infer_pseudo(params, split.unlabeled_x(), anchors)
    selected = select(annotations, 0.2, len(split.unlabeled_target), split.n_classes)
    frozen = list(selected.index_set)
    state = init_train_state(split, config, "selftrain", selected=selected, resume_params=params)
    run_train_loop(split, config, state)
    assert state.selected_indices == frozen
    _report("3 selection order properties", True, f"{checked} random annotation sets + frozen membership")


def test_criterion_4_reliability_gain(pipeline_cells):
    cells, elapsed = pipeline_cells
    before = float(np.mean([c["rel_all"] for c in cells]))
    after = float(np.mean([c["rel_selected"] for c in cells]))
    gain = 100 * (after - before)
    passed = gain >= 5.0 and elapsed < 300.0
    _report(
        "4 selection reliability gain",
        passed,
        f"{100 * before:.1f} -> {100 * after:.1f} (+{gain:.1f} pts, need >= 5; cells took {elapsed:.0f}s)",
    )
    assert gain >= 5.0
    assert elapsed < 300.0


def test_criterion_5_selection_ratio_sweep(pipeline_cells):
    cells, _ = pipeline_cells
    means = {r: float(np.mean([c[f"soft_{r}"] for c in cells])) for r in (0.01, 0.2, 1.0)}
    ok_vs_full = means[0.2] >= means[1.0]
    ok_vs_tiny = means[0.2] >= means[0.01]
    _report(
        "5 selection ratio sweep",
        ok_vs_full and ok_vs_tiny,
        f"mean acc r_u=0.01: {means[0.01]:.4f}, 0.2: {means[0.2]:.4f}, 1.0: {means[1.0]:.4f}",
    )
    assert ok_vs_full, f"r_u=0.2 mean {means[0.2]:.4f} < r_u=1.0 mean {means[1.0]:.4f}"
    assert ok_vs_tiny, f"r_u=0.2 mean {means[0.2]:.4f} < r_u=0.01 mean {means[0.01]:.4f}"


def test_criterion_6_noise_robust_direction(pipeline_cells):
    cells, _ = pipeline_cells
    progressive = float(np.mean([c["soft_0.2"] for c in cells]))
    vanilla = float(np.mean([c["vanilla"] for c in cells]))
    margin = 100 * (progressive - vanilla)
    _report(
        "6 noise-robust learning direction",
        progressive >= vanilla,
        f"progressive {progressive:.4f} vs vanilla {vanilla:.4f} ({margin:+.1f} pts, need >= 0)",
    )
    assert progressive >= vanilla, (
        f"progressive soft-label mean {progressive:.4f} below vanilla hard-label mean {vanilla:.4f}"
    )


def test_criterion_7_pipeline_ordering(pipeline_cells):
    cells, _ = pipeline_cells
    full = float(np.mean([c["soft_0.2"] for c in cells]))
    base = float(np.mean([c["baseline"] for c in cells]))
    st = float(np.mean([c["s_plus_t"] for c in cells]))
    margin = 100 * (full - st)
    chain = full >= base >= st
    passed = chain and margin >= 2.0
    _report(
        "7 pipeline ordering",
        passed,
        f"full {full:.4f} >= baseline {base:.4f} >= S+T {st:.4f}: {chain}; full-S+T {margin:+.1f} pts (need >= 2)",
    )
    assert chain, f"ordering violated: full {full:.4f}, baseline {base:.4f}, S+T {st:.4f}"
    assert margin >= 2.0, f"full beats S+T by only {margin:.1f} pts"


def test_criterion_8_pipeline_determinism(tmp_path):
    args = ["--t-max", "400", "--seed", "4"]
    split_dir = tmp_path / "split"
    assert main(["gen-data", "--out", str(split_dir), "--seed", "4"]) == EXIT_OK
    for name in ("a", "b"):
        code = main(["run-pipeline", "--split", str(split_dir), "--out", str(tmp_path / name), *args])
        assert code == EXIT_OK
    identical = all(
        (tmp_path / "a" / csv).read_bytes() == (tmp_path / "b" / csv).read_bytes()
        for csv in ("baseline_report.csv", "final_report.csv")
    )
    _report("8 pipeline determinism", identical, "byte-identical report CSVs for identical seed+config")
    assert identical


def test_criterion_9_label_refresh_invariants():
    rng = seeded_rng(9009)
    live = rng.dirichlet(np.ones(5), size=40)
    target = rng.dirichlet(np.ones(5), size=40)
    ratios = []
    for _ in range(30):
        gap_before = np.abs(live - target).max()
        live = momentum_update_labels(live, target, 0.9)
        gap_after = np.abs(live - target).max()
        ratios.append(gap_after / gap_before)
        assert np.all(live >= -1e-12)
        assert np.all(live <= 1.0 + 1e-12)
        np.testing.assert_allclose(live.sum(axis=1), 1.0, atol=1e-9)
    worst = max(abs(r - 0.9) for r in ratios)
    _report("9 label refresh invariants", worst <= 1e-9, f"geometric ratio within {worst:.1e} of 0.9")
    assert worst <= 1e-9


def test_criterion_10_suite_runtime():
    elapsed = time.perf_counter() - SUITE_START
    _report("10 suite runtime", elapsed < 900.0, f"{elapsed:.0f}s of 900s budget")
    assert elapsed < 900.0
