import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_net
from ssda_lab.coremath import seeded_rng
from ssda_lab.pseudolabel import (
    PseudoAnnotation,
    infer_pseudo,
    load_selection,
    per_class_quota,
    reliability,
    save_selection,
    select,
    selected_set_from_dump,
    selection_dump,
)


def random_pool(seed, n=None, k=None, dim=3):
    """Random annotation set + anchors, the raw material for selection properties."""
    rng = seeded_rng(seed, "pool")
    n = n if n is not None else int(rng.integers(1, 60))
    k = k if k is not None else int(rng.integers(2, 7))
    annotations = []
    for i in range(n):
        raw = rng.uniform(0.01, 1.0, size=k)
        soft = raw / raw.sum()
        annotations.append(
            PseudoAnnotation(
                index=i,
                soft_label=soft,
                hard_label=int(np.argmax(soft)),
                feature=rng.standard_normal(dim),
            )
        )
    anchors = {c: rng.standard_normal((int(rng.integers(1, 4)), dim)) for c in range(k)}
    return annotations, anchors, n, k


class TestInferPseudo:
    def test_uniform_predictions_take_lowest_class(self):
        params = small_net()
        params.classifier_weights[:] = 0.0  # uniform output for every input
        rng = seeded_rng(0)
        annotations = infer_pseudo(params, rng.standard_normal((6, params.input_dim)))
        assert all(a.hard_label == 0 for a in annotations)

    def test_soft_labels_on_simplex(self):
        params = small_net(seed=2)
        rng = seeded_rng(2)
        annotations = infer_pseudo(params, rng.standard_normal((20, params.input_dim)))
        for a in annotations:
            assert abs(float(np.sum(a.soft_label)) - 1.0) < 1e-9
            assert np.all(a.soft_label >= 0)
            assert a.hard_label == int(np.argmax(a.soft_label))
            assert a.distance is None

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="empty unlabeled set"):
            infer_pseudo(small_net(), np.zeros((0, 4)))

    def test_one_dimensional_pool_is_a_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            infer_pseudo(small_net(), np.zeros(4))


class TestSelect:
    def test_quota_formula(self):
        assert per_class_quota(0.2, 100, 5) == 4
        assert per_class_quota(0.01, 470, 5) == 1
        assert per_class_quota(1.0, 470, 5) == 94

    def test_full_ratio_selects_everything_when_balanced(self):
        # 10 samples per class, quota ceil(1.0 * 30 / 3) = 10 >= class counts
        annotations, anchors, n, k = random_pool(seed=1, n=30, k=3)
        for i, a in enumerate(annotations):
            a.hard_label = i % 3
        selected = select(annotations, anchors, r_u=1.0, n_u=n, n_classes=k)
        assert sorted(selected.index_set) == list(range(n))

    def test_absent_class_contributes_nothing(self):
        annotations, anchors, n, k = random_pool(seed=3, n=20, k=4)
        for a in annotations:
            a.hard_label = min(a.hard_label, 2)  # class 3 has no members
        selected = select(annotations, anchors, r_u=0.5, n_u=n, n_classes=k)
        assert all(a.hard_label != 3 for a in selected.annotations)

    @pytest.mark.parametrize("drop", [
        pytest.param(lambda anchors, c: anchors.pop(c), id="missing"),
        pytest.param(lambda anchors, c: anchors.update({c: np.zeros((0, 3))}), id="empty"),
    ])
    def test_populated_class_without_anchors_rejected(self, drop):
        annotations, anchors, n, k = random_pool(seed=4)
        present = annotations[0].hard_label
        drop(anchors, present)
        with pytest.raises(ValueError, match=f"class {present} has annotated samples but no anchors"):
            select(annotations, anchors, r_u=0.5, n_u=n, n_classes=k)

    def test_ratio_out_of_range(self):
        annotations, anchors, n, k = random_pool(seed=5)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="r_u"):
                select(annotations, anchors, r_u=bad, n_u=n, n_classes=k)

    def test_anchor_distance_hand_values(self):
        anchors = {0: np.array([[1.5, -2.0]]), 1: np.array([[0.0, 0.0], [2.0, 0.0]])}
        annotations = [
            PseudoAnnotation(index=0, soft_label=np.array([1.0, 0.0]), hard_label=0, feature=np.array([1.5, -2.0])),
            PseudoAnnotation(index=1, soft_label=np.array([0.0, 1.0]), hard_label=1, feature=np.array([1.0, 0.0])),
        ]
        select(annotations, anchors, r_u=1.0, n_u=2, n_classes=2)
        assert [a.distance for a in annotations] == [0.0, 1.0]  # anchor at the sample; mean of 1 and 1

    def test_anchor_order_irrelevant(self):
        annotations, anchors, n, k = random_pool(seed=7)
        select(annotations, anchors, r_u=0.5, n_u=n, n_classes=k)
        forward_order = [a.distance for a in annotations]
        select(annotations, {c: x[::-1] for c, x in anchors.items()}, r_u=0.5, n_u=n, n_classes=k)
        np.testing.assert_allclose([a.distance for a in annotations], forward_order, rtol=0, atol=1e-12)

    def test_distance_ties_break_by_index(self):
        anchors = {0: np.array([[0.0, 0.0]])}
        annotations = [
            PseudoAnnotation(index=i, soft_label=np.array([1.0]), hard_label=0, feature=np.array([1.0, 0.0]))
            for i in range(4)
        ]
        selected = select(annotations, anchors, r_u=0.5, n_u=4, n_classes=1)
        assert selected.index_set == [0, 1]  # all distances equal; lowest indices win


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.floats(min_value=0.01, max_value=1.0))
def test_selection_order_properties(seed, r_u):
    """Per class: every selected distance <= every unselected distance; ids unique."""
    annotations, anchors, n, k = random_pool(seed)
    selected = select(annotations, anchors, r_u=r_u, n_u=n, n_classes=k)
    assert len(set(selected.index_set)) == len(selected.index_set)
    assert selected.per_class_quota == math.ceil(r_u * n / k)
    selected_ids = set(selected.index_set)
    for c in range(k):
        members = [a for a in annotations if a.hard_label == c]
        inside = [(a.distance, a.index) for a in members if a.index in selected_ids]
        outside = [(a.distance, a.index) for a in members if a.index not in selected_ids]
        assert len(inside) == min(selected.per_class_quota, len(members))
        if inside and outside:
            assert max(inside) <= min(outside)  # tie rule: (distance, index) order


def _reference_selection(annotations, anchors, quota, k):
    """Per-row distances and per-class (distance, index) order, one feature at a time."""
    distance = {a.index: float(np.mean([np.abs(x - a.feature).sum() for x in anchors[a.hard_label]]))
                for a in annotations}
    chosen = []
    for c in range(k):
        members = sorted((distance[a.index], a.index) for a in annotations if a.hard_label == c)
        chosen.extend(i for _, i in members[:quota])
    return distance, chosen


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.floats(min_value=0.01, max_value=1.0), st.booleans())
def test_select_matches_per_row_reference(seed, r_u, duplicate):
    """Distances equal the per-row mean L1 bit for bit, and the chosen order is (class, distance, index)."""
    annotations, anchors, n, k = random_pool(seed)
    if duplicate:  # copies of a few features, so equal distances must tie-break by index
        for a in annotations[1::2]:
            a.feature = annotations[0].feature.copy()
    selected = select(annotations, anchors, r_u=r_u, n_u=n, n_classes=k)
    distance, chosen = _reference_selection(annotations, anchors, selected.per_class_quota, k)
    assert [a.distance for a in annotations] == [distance[a.index] for a in annotations]
    assert [a.index for a in selected.annotations] == chosen


def test_hard_label_outside_classes_rejected():
    annotations, anchors, n, k = random_pool(seed=6)
    annotations[0].hard_label = k
    with pytest.raises(ValueError, match=rf"hard labels must lie in \[0, {k}\)"):
        select(annotations, anchors, r_u=0.5, n_u=n, n_classes=k)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.005, max_value=0.5),
)
def test_selection_monotone_in_ratio(seed, r_small, bump):
    annotations, anchors, n, k = random_pool(seed)
    r_big = min(1.0, r_small + bump)
    small = select(annotations, anchors, r_u=r_small, n_u=n, n_classes=k)
    big = select(annotations, anchors, r_u=r_big, n_u=n, n_classes=k)
    assert set(small.index_set) <= set(big.index_set)


class TestReliability:
    def test_hand_count(self):
        annotations = [
            PseudoAnnotation(index=i, soft_label=np.eye(2)[0], hard_label=h, feature=np.zeros(1))
            for i, h in enumerate([0, 0, 1, 1])
        ]
        assert reliability(annotations, np.array([0, 0, 1, 0])) == 0.75

    def test_all_correct(self):
        annotations = [
            PseudoAnnotation(index=i, soft_label=np.eye(2)[0], hard_label=1, feature=np.zeros(1))
            for i in range(5)
        ]
        assert reliability(annotations, np.ones(5, dtype=int)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            reliability([], np.array([0]))


class TestSelectionDump:
    def test_round_trip_through_files_is_bit_exact(self, tmp_path):
        annotations, anchors, n, k = random_pool(seed=11, n=40, k=4)
        selected = select(annotations, anchors, r_u=0.3, n_u=n, n_classes=k)
        path = tmp_path / "selection.json"
        save_selection(path, selection_dump(selected, annotations, split_checksum="split",
                                            checkpoint_sha256="checkpoint"))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "selection.distance.npy", "selection.hard_label.npy", "selection.json", "selection.soft_label.npy"]
        dump = load_selection(path)
        rebuilt = selected_set_from_dump(dump)
        assert rebuilt.index_set == selected.index_set
        assert rebuilt.r_u == selected.r_u
        assert rebuilt.per_class_quota == selected.per_class_quota
        rows = sorted(selected.annotations, key=lambda a: a.index)
        assert np.stack([a.soft_label for a in rebuilt.annotations]).tobytes() == \
            np.stack([a.soft_label for a in rows]).tobytes()
        assert dump["hard_label"].tobytes() == np.array([a.hard_label for a in annotations], "<i8").tobytes()
        assert dump["distance"].tobytes() == np.array([a.distance for a in annotations], "<f8").tobytes()
        assert dump["n_selected"] == len(selected) == len(dump["soft_label"])
        assert (dump["split_checksum"], dump["checkpoint_sha256"]) == ("split", "checkpoint")
