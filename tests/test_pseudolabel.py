import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_net
from ssda_lab.coremath import seeded_rng
from ssda_lab.pseudolabel import (
    infer_pseudo,
    load_selection,
    per_class_quota,
    pseudo_rows,
    reliability,
    save_selection,
    select,
    selected_set_from_dump,
    selection_dump,
)


def random_pool(seed, n=None, k=None, dim=3):
    """Random pool + anchors, the raw material for selection properties; each row draws its soft label,
    then its feature."""
    rng = seeded_rng(seed, "pool")
    n = n if n is not None else int(rng.integers(1, 60))
    k = k if k is not None else int(rng.integers(2, 7))
    raw, features = map(np.stack, zip(*[(rng.uniform(0.01, 1.0, size=k), rng.standard_normal(dim))
                                        for _ in range(n)]))
    soft = raw / raw.sum(axis=1, keepdims=True)
    annotations = pseudo_rows(soft, soft.argmax(axis=1), features)
    anchors = {c: rng.standard_normal((int(rng.integers(1, 4)), dim)) for c in range(k)}
    return annotations, anchors, n, k


class TestInferPseudo:
    def test_uniform_predictions_take_lowest_class(self):
        params = small_net()
        params.classifier_weights[:] = 0.0  # uniform output for every input
        rng = seeded_rng(0)
        annotations = infer_pseudo(params, rng.standard_normal((6, params.input_dim)))
        assert annotations.hard_label.tolist() == [0] * 6

    def test_soft_labels_on_simplex(self):
        params = small_net(seed=2)
        rng = seeded_rng(2)
        annotations = infer_pseudo(params, rng.standard_normal((20, params.input_dim)))
        assert np.all(np.abs(annotations.soft_label.sum(axis=1) - 1.0) < 1e-9)
        assert np.all(annotations.soft_label >= 0)
        np.testing.assert_array_equal(annotations.hard_label, annotations.soft_label.argmax(axis=1))
        assert np.all(np.isnan(annotations.distance))

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
        annotations.hard_label = np.arange(n) % 3
        selected = select(annotations, anchors, r_u=1.0, n_u=n, n_classes=k)
        assert sorted(selected.index_set) == list(range(n))

    def test_absent_class_contributes_nothing(self):
        annotations, anchors, n, k = random_pool(seed=3, n=20, k=4)
        annotations.hard_label = np.minimum(annotations.hard_label, 2)  # class 3 has no members
        selected = select(annotations, anchors, r_u=0.5, n_u=n, n_classes=k)
        assert len(selected) and 3 not in selected.annotations.hard_label

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
        annotations = pseudo_rows(np.eye(2), [0, 1], [[1.5, -2.0], [1.0, 0.0]])
        select(annotations, anchors, r_u=1.0, n_u=2, n_classes=2)
        assert annotations.distance.tolist() == [0.0, 1.0]  # anchor at the sample; mean of 1 and 1

    def test_anchor_order_irrelevant(self):
        annotations, anchors, n, k = random_pool(seed=7)
        select(annotations, anchors, r_u=0.5, n_u=n, n_classes=k)
        forward_order = annotations.distance.copy()
        select(annotations, {c: x[::-1] for c, x in anchors.items()}, r_u=0.5, n_u=n, n_classes=k)
        np.testing.assert_allclose(annotations.distance, forward_order, rtol=0, atol=1e-12)

    def test_distance_ties_break_by_index(self):
        anchors = {0: np.array([[0.0, 0.0]])}
        annotations = pseudo_rows(np.ones((4, 1)), np.zeros(4, dtype=int), np.tile([1.0, 0.0], (4, 1)))
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
        annotations.feature[1::2] = annotations.feature[0]
    selected = select(annotations, anchors, r_u=r_u, n_u=n, n_classes=k)
    distance, chosen = _reference_selection(annotations, anchors, selected.per_class_quota, k)
    assert [a.distance for a in annotations] == [distance[a.index] for a in annotations]
    assert selected.annotations.index.tolist() == chosen


def test_hard_label_outside_classes_rejected():
    annotations, anchors, n, k = random_pool(seed=6)
    annotations.hard_label[0] = k
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
    """One definition: the mean of ``hard == truth`` over aligned rows."""

    def test_hand_count(self):
        assert reliability(np.array([0, 0, 1, 1]), np.array([0, 0, 1, 0])) == 0.75

    def test_all_correct(self):
        assert reliability(np.ones(5, dtype=np.int64), np.ones(5, dtype=int)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            reliability(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("hard, truth", [(np.array([1]), np.array([1, 1, 0])),
                                             (np.array([1, 1, 0]), np.array([1, 1])),
                                             (np.array([[1, 0]]), np.array([1, 0]))],
                             ids=["one_label_against_a_pool", "pool_against_fewer_rows", "2d_against_1d"])
    def test_misaligned_rows_rejected(self, hard, truth):
        """A 1-row ``hard`` would otherwise broadcast against every truth row."""
        with pytest.raises(ValueError, match="align"):
            reliability(hard, truth)


class TestPoolRows:
    def test_fields_are_the_documented_ones(self):
        annotations, _, n, k = random_pool(seed=20, n=5, k=3)
        assert annotations.dtype.names == ("index", "soft_label", "hard_label", "feature", "distance")
        assert (annotations.soft_label.shape, annotations.feature.shape) == ((n, k), (n, 3))

    def test_unknown_attribute_is_refused_on_a_row(self):
        row = pseudo_rows(np.ones((1, 1)), [0], np.zeros((1, 2)))[0]
        with pytest.raises(AttributeError):
            row.confidence = 1.0

    def test_columns_of_different_lengths_are_refused(self):
        with pytest.raises(ValueError, match="array-shape mismatch"):
            pseudo_rows(np.ones((3, 2)), [0, 1], np.zeros((3, 2)))

    def test_select_fills_distance_on_every_hand_built_row(self):
        annotations, anchors, n, k = random_pool(seed=21, n=30, k=3)
        assert np.all(np.isnan(annotations.distance))
        select(annotations, anchors, r_u=0.2, n_u=n, n_classes=k)
        assert np.all(annotations.distance >= 0)  # NaN fails the comparison

    def test_infer_pseudo_indexes_rows_in_order(self):
        params = small_net(seed=3)
        annotations = infer_pseudo(params, seeded_rng(3).standard_normal((17, params.input_dim)))
        assert annotations.index.tolist() == list(range(17))
        assert annotations.dtype["index"] == annotations.dtype["hard_label"] == np.dtype("<i8")

    def test_rebuilt_rows_match_the_dump(self):
        annotations, anchors, n, k = random_pool(seed=22, n=50, k=4)
        dump = selection_dump(select(annotations, anchors, r_u=0.4, n_u=n, n_classes=k), annotations)
        index = sorted(e["index"] for entries in dump["selected_by_class"].values() for e in entries)
        rebuilt = selected_set_from_dump(dump).annotations
        assert len(rebuilt) == len(index) > 0
        assert rebuilt.index.tolist() == index
        assert rebuilt.hard_label.tolist() == dump["hard_label"][index].tolist()
        assert rebuilt.distance.tobytes() == dump["distance"][index].tobytes()
        assert rebuilt.soft_label.tobytes() == dump["soft_label"].tobytes()
        assert rebuilt.feature.shape == (len(index), 0)

    def test_selected_and_rebuilt_sets_have_one_row_shape(self):
        annotations, anchors, n, k = random_pool(seed=23, n=60, k=4)
        selected = select(annotations, anchors, r_u=0.5, n_u=n, n_classes=k)
        sets = [selected.annotations, selected_set_from_dump(selection_dump(selected, annotations)).annotations]
        assert sets[0].dtype == sets[1].dtype
        kept, rebuilt = (rows[np.argsort(rows.index)] for rows in sets)
        assert kept.feature.shape == rebuilt.feature.shape == (len(selected), 0)
        for column in ("index", "hard_label", "soft_label", "distance"):
            assert kept[column].tobytes() == rebuilt[column].tobytes(), column


class TestSelectionDump:
    def test_dump_holds_no_provenance(self):
        """The split and checkpoint a dump came from are the writer's to record, not stage 2's."""
        annotations, anchors, n, k = random_pool(seed=12, n=30, k=3)
        dump = selection_dump(select(annotations, anchors, r_u=0.3, n_u=n, n_classes=k), annotations)
        assert list(dump) == ["r_u", "per_class_quota", "n_selected", "selected_by_class",
                              "hard_label", "distance", "soft_label"]

    def test_round_trip_through_files_is_bit_exact(self, tmp_path):
        annotations, anchors, n, k = random_pool(seed=11, n=40, k=4)
        selected = select(annotations, anchors, r_u=0.3, n_u=n, n_classes=k)
        path = tmp_path / "selection.json"
        save_selection(path, selection_dump(selected, annotations), split_checksum="split",
                       checkpoint_sha256="checkpoint")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "selection.distance.npy", "selection.hard_label.npy", "selection.json", "selection.soft_label.npy"]
        dump = load_selection(path)
        rebuilt = selected_set_from_dump(dump)
        assert rebuilt.index_set == selected.index_set
        assert rebuilt.r_u == selected.r_u
        assert rebuilt.per_class_quota == selected.per_class_quota
        order = np.argsort(selected.annotations.index)
        assert rebuilt.annotations.soft_label.tobytes() == selected.annotations.soft_label[order].tobytes()
        assert dump["hard_label"].tobytes() == annotations.hard_label.astype("<i8").tobytes()
        assert dump["distance"].tobytes() == annotations.distance.astype("<f8").tobytes()
        assert dump["n_selected"] == len(selected) == len(dump["soft_label"])
        assert (dump["split_checksum"], dump["checkpoint_sha256"]) == ("split", "checkpoint")
        written = json.loads(path.read_text())
        assert list(written)[:3] == ["format_version", "split_checksum", "checkpoint_sha256"]
        assert list(written)[-1] == "checksums"
