import json
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_net
from ssda_lab.coremath import seeded_rng
from ssda_lab.network import forward_features
from ssda_lab.pseudolabel import (
    anchor_distances,
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


def random_draw(seed, n=None, k=None, dim=3):
    """Random soft labels, features and anchors, the raw material for selection properties; each row draws its
    soft label, then its feature, and each class then draws 1 to 3 anchors."""
    rng = seeded_rng(seed, "pool")
    n = n if n is not None else int(rng.integers(1, 60))
    k = k if k is not None else int(rng.integers(2, 7))
    raw, features = map(np.stack, zip(*[(rng.uniform(0.01, 1.0, size=k), rng.standard_normal(dim))
                                        for _ in range(n)]))
    anchors = {c: rng.standard_normal((int(rng.integers(1, 4)), dim)) for c in range(k)}
    return raw / raw.sum(axis=1, keepdims=True), features, anchors


def random_pool(seed, n=None, k=None):
    """``random_draw``'s pool, its distances filled by ``anchor_distances``, with its n and k."""
    soft, features, anchors = random_draw(seed, n, k)
    hard = soft.argmax(axis=1)
    return pseudo_rows(soft, hard, distance=anchor_distances(features, hard, anchors)), *soft.shape


def _pool_net():
    """``small_net`` with a wide random classifier, so a pool's hard labels spread over its classes."""
    params = small_net(seed=4, n_classes=5)
    params.classifier_weights[:] = 5.0 * seeded_rng(4, "classifier").standard_normal(params.classifier_weights.shape)
    return params


def net_anchors(params, seed, shots=1):
    """``shots`` anchor features per class of ``params``, from random inputs."""
    rng = seeded_rng(seed, "anchors")
    return {c: forward_features(rng.standard_normal((shots, params.input_dim)), params)
            for c in range(params.n_classes)}


class TestInferPseudo:
    def test_uniform_predictions_take_lowest_class(self):
        params = small_net()
        params.classifier_weights[:] = 0.0  # uniform output for every input
        rng = seeded_rng(0)
        annotations = infer_pseudo(params, rng.standard_normal((6, params.input_dim)), net_anchors(params, 0))
        assert annotations.hard_label.tolist() == [0] * 6

    def test_soft_labels_on_simplex(self):
        params = small_net(seed=2)
        rng = seeded_rng(2)
        annotations = infer_pseudo(params, rng.standard_normal((20, params.input_dim)), net_anchors(params, 2))
        assert np.all(np.abs(annotations.soft_label.sum(axis=1) - 1.0) < 1e-9)
        assert np.all(annotations.soft_label >= 0)
        np.testing.assert_array_equal(annotations.hard_label, annotations.soft_label.argmax(axis=1))

    @pytest.mark.parametrize("shots", [1, 3])
    def test_distances_are_the_anchor_distances_of_the_features(self, shots):
        params = _pool_net()
        x = seeded_rng(5).standard_normal((40, params.input_dim))
        anchors = net_anchors(params, 5, shots)
        annotations = infer_pseudo(params, x, anchors)
        expected = anchor_distances(forward_features(x, params), annotations.hard_label, anchors)
        assert annotations.distance.tobytes() == expected.tobytes()
        assert len(set(annotations.hard_label.tolist())) > 1

    def test_populated_class_without_anchors_rejected(self):
        params = _pool_net()
        x = seeded_rng(6).standard_normal((40, params.input_dim))
        anchors = net_anchors(params, 6)
        del anchors[infer_pseudo(params, x, anchors).hard_label[0]]
        with pytest.raises(ValueError, match="has annotated samples but no anchors"):
            infer_pseudo(params, x, anchors)

    def test_one_dimensional_pool_is_a_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            infer_pseudo(small_net(), np.zeros(4), {})


class TestAnchorDistances:
    def test_hand_values(self):
        anchors = {0: np.array([[1.5, -2.0]]), 1: np.array([[0.0, 0.0], [2.0, 0.0]])}
        distance = anchor_distances(np.array([[1.5, -2.0], [1.0, 0.0]]), np.array([0, 1]), anchors)
        assert distance.tolist() == [0.0, 1.0]  # anchor at the sample; mean of 1 and 1

    def test_anchor_order_irrelevant(self):
        soft, features, anchors = random_draw(seed=7)
        hard = soft.argmax(axis=1)
        forward_order = anchor_distances(features, hard, anchors)
        reversed_order = anchor_distances(features, hard, {c: x[::-1] for c, x in anchors.items()})
        np.testing.assert_allclose(reversed_order, forward_order, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("drop", [
        pytest.param(lambda anchors, c: anchors.pop(c), id="missing"),
        pytest.param(lambda anchors, c: anchors.update({c: np.zeros((0, 3))}), id="empty"),
    ])
    def test_populated_class_without_anchors_rejected(self, drop):
        soft, features, anchors = random_draw(seed=4)
        hard = soft.argmax(axis=1)
        drop(anchors, hard[0])
        with pytest.raises(ValueError, match=f"class {hard[0]} has annotated samples but no anchors"):
            anchor_distances(features, hard, anchors)

    def test_absent_class_needs_no_anchors(self):
        soft, features, anchors = random_draw(seed=8, n=20, k=4)
        hard = np.minimum(soft.argmax(axis=1), 2)  # class 3 has no members
        del anchors[3]
        assert np.all(anchor_distances(features, hard, anchors) >= 0)


class TestSelect:
    def test_quota_formula(self):
        assert per_class_quota(0.2, 100, 5) == 4
        assert per_class_quota(0.01, 470, 5) == 1
        assert per_class_quota(1.0, 470, 5) == 94

    def test_quota_is_the_ceiling_on_the_decimal_r_u(self):
        """In float64 0.07 * 200 / 2 is 7.000000000000001; the quota is taken on 7/100, not on that."""
        assert 0.07 * 200 / 2 > 7
        assert per_class_quota(0.07, 200, 2) == 7
        assert per_class_quota(0.07, 201, 2) == 8

    def test_full_ratio_selects_everything_when_balanced(self):
        # 10 samples per class, quota ceil(1.0 * 30 / 3) = 10 >= class counts
        annotations, n, k = random_pool(seed=1, n=30, k=3)
        annotations.hard_label = np.arange(n) % 3
        selected = select(annotations, r_u=1.0, n_u=n, n_classes=k)
        assert sorted(selected.index_set) == list(range(n))

    def test_absent_class_contributes_nothing(self):
        annotations, n, k = random_pool(seed=3, n=20, k=4)
        annotations.hard_label = np.minimum(annotations.hard_label, 2)  # class 3 has no members
        selected = select(annotations, r_u=0.5, n_u=n, n_classes=k)
        assert len(selected) and 3 not in selected.annotations.hard_label

    def test_ratio_out_of_range(self):
        annotations, n, k = random_pool(seed=5)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="r_u"):
                select(annotations, r_u=bad, n_u=n, n_classes=k)

    def test_distance_ties_break_by_index(self):
        anchors, hard = {0: np.array([[0.0, 0.0]])}, np.zeros(4, dtype=int)
        annotations = pseudo_rows(np.ones((4, 1)), hard,
                                  distance=anchor_distances(np.tile([1.0, 0.0], (4, 1)), hard, anchors))
        selected = select(annotations, r_u=0.5, n_u=4, n_classes=1)
        assert selected.index_set == [0, 1]  # all distances equal; lowest indices win

    def test_missing_distance_refused(self):
        """A pool built without distances holds NaN, which no rank order can place."""
        soft = np.eye(3)
        with pytest.raises(ValueError, match="without an anchor distance"):
            select(pseudo_rows(soft, soft.argmax(axis=1)), r_u=1.0, n_u=3, n_classes=3)
        annotations, n, k = random_pool(seed=21, n=30, k=3)
        annotations.distance[n // 2] = np.nan
        with pytest.raises(ValueError, match="without an anchor distance"):
            select(annotations, r_u=0.2, n_u=n, n_classes=k)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.floats(min_value=0.01, max_value=1.0))
def test_selection_order_properties(seed, r_u):
    """Per class: every selected distance <= every unselected distance; ids unique."""
    annotations, n, k = random_pool(seed)
    selected = select(annotations, r_u=r_u, n_u=n, n_classes=k)
    assert len(set(selected.index_set)) == len(selected.index_set)
    # the least integer >= r_u * n / k, with r_u the decimal its repr prints
    assert selected.per_class_quota - 1 < Fraction(repr(r_u)) * n / k <= selected.per_class_quota
    selected_ids = set(selected.index_set)
    for c in range(k):
        members = [a for a in annotations if a.hard_label == c]
        inside = [(a.distance, a.index) for a in members if a.index in selected_ids]
        outside = [(a.distance, a.index) for a in members if a.index not in selected_ids]
        assert len(inside) == min(selected.per_class_quota, len(members))
        if inside and outside:
            assert max(inside) <= min(outside)  # tie rule: (distance, index) order


def _reference_selection(features, hard, anchors, quota, k):
    """Per-row distances and per-class (distance, index) order, one feature at a time."""
    distance = [float(np.mean([np.abs(x - f).sum() for x in anchors[h]])) for f, h in zip(features, hard)]
    chosen = []
    for c in range(k):
        members = sorted((d, i) for i, (d, h) in enumerate(zip(distance, hard)) if h == c)
        chosen.extend(i for _, i in members[:quota])
    return distance, chosen


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.floats(min_value=0.01, max_value=1.0), st.booleans())
def test_select_matches_per_row_reference(seed, r_u, duplicate):
    """Distances equal the per-row mean L1 bit for bit; the kept rows are in index order, and the dump lists them
    in (class, distance, index) order."""
    soft, features, anchors = random_draw(seed)
    (n, k), hard = soft.shape, soft.argmax(axis=1)
    if duplicate:  # copies of a few features, so equal distances must tie-break by index
        features[1::2] = features[0]
    annotations = pseudo_rows(soft, hard, distance=anchor_distances(features, hard, anchors))
    selected = select(annotations, r_u=r_u, n_u=n, n_classes=k)
    distance, chosen = _reference_selection(features, hard, anchors, selected.per_class_quota, k)
    assert [a.distance for a in annotations] == distance
    assert selected.annotations.index.tolist() == sorted(chosen)
    assert _dump_order(selected, annotations) == chosen


def _dump_order(selected, pool) -> list:
    """The indices ``selection_dump`` lists under ``selected_by_class``, in its order."""
    by_class = selection_dump(selected, pool)["selected_by_class"]
    assert list(by_class) == sorted(by_class, key=int)
    return [e["index"] for entries in by_class.values() for e in entries]


def _per_class_lexsort(pool, quota, k):
    """The oracle for ``select``: the positions of the kept rows by one (distance, index) lexsort per class,
    merged in class order."""
    chosen = [np.empty(0, dtype=np.intp)]
    for c in range(k):
        members = np.flatnonzero(pool.hard_label == c)
        chosen.append(members[np.lexsort((pool.index[members], pool.distance[members]))[:quota]])
    return np.concatenate(chosen)


def _tied_pool(seed):
    """A pool with tied distances, classes without rows and unique indices in no order, its class count, and an
    ``n_u`` that makes quotas from 1 to above any class's size."""
    rng = seeded_rng(seed, "lexsort pool")
    n, k = int(rng.integers(0, 80)), int(rng.integers(1, 8))
    hard = rng.choice(rng.permutation(k)[:rng.integers(1, k + 1)], size=n)  # some classes may get no rows
    distance = rng.integers(0, 4, size=n) / 4  # four values, so most rows tie with others
    index = rng.permutation(3 * n)[:n]  # unique, in no order
    pool = pseudo_rows(rng.dirichlet(np.ones(k), n), hard, index, distance)
    return pool, k, int(rng.integers(1, 4 * n + 2))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.floats(min_value=0.01, max_value=1.0))
def test_select_matches_a_per_class_lexsort(seed, r_u):
    """On pools with tied distances, classes without rows and quotas above a class's size, ``select`` keeps the
    rows the oracle keeps, with every field's bits, in index order; the dump lists them in the oracle's order."""
    pool, k, n_u = _tied_pool(seed)
    selected = select(pool, r_u=r_u, n_u=n_u, n_classes=k)
    expected = pool[_per_class_lexsort(pool, selected.per_class_quota, k)]
    assert selected.annotations.dtype == expected.dtype
    assert selected.annotations.tobytes() == expected[np.argsort(expected.index)].tobytes()
    assert selected.index_set == sorted(expected.index.tolist())
    assert _dump_order(selected, pool) == expected.index.tolist()


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.floats(min_value=0.01, max_value=1.0))
def test_set_rebuilt_from_its_dump_is_the_selected_set(seed, r_u):
    """``selected_set_from_dump`` gives back ``select``'s set, every row's bits in the same order, from the dump
    in memory and through its files."""
    pool, k, n_u = _tied_pool(seed)
    pool.index = np.argsort(np.argsort(pool.index))  # 0..n-1, still in no order
    selected = select(pool, r_u=r_u, n_u=n_u, n_classes=k)
    dump = selection_dump(selected, pool[np.argsort(pool.index)])  # row i has index i, as infer_pseudo gives it
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "selection.json"
        save_selection(path, dump, split_checksum="split", checkpoint_sha256="checkpoint")
        rebuilt = [selected_set_from_dump(dump), selected_set_from_dump(load_selection(path))]
    for other in rebuilt:
        assert other.annotations.dtype == selected.annotations.dtype
        assert other.annotations.tobytes() == selected.annotations.tobytes()
        assert other.index_set == selected.index_set
        assert (other.r_u, other.per_class_quota) == (selected.r_u, selected.per_class_quota)


def test_hard_label_outside_classes_rejected():
    annotations, n, k = random_pool(seed=6)
    annotations.hard_label[0] = k
    with pytest.raises(ValueError, match=rf"hard labels must lie in \[0, {k}\)"):
        select(annotations, r_u=0.5, n_u=n, n_classes=k)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.005, max_value=0.5),
)
def test_selection_monotone_in_ratio(seed, r_small, bump):
    annotations, n, k = random_pool(seed)
    r_big = min(1.0, r_small + bump)
    small = select(annotations, r_u=r_small, n_u=n, n_classes=k)
    big = select(annotations, r_u=r_big, n_u=n, n_classes=k)
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
        annotations, n, k = random_pool(seed=20, n=5, k=3)
        assert annotations.dtype.names == ("index", "soft_label", "hard_label", "distance")
        assert annotations.soft_label.shape == (n, k)
        assert annotations.itemsize == 8 * (k + 3)  # no feature column: 104 bytes a row at 10 classes

    def test_unknown_attribute_is_refused_on_a_row(self):
        row = pseudo_rows(np.ones((1, 1)), [0])[0]
        with pytest.raises(AttributeError):
            row.confidence = 1.0

    def test_columns_of_different_lengths_are_refused(self):
        with pytest.raises(ValueError, match="array-shape mismatch"):
            pseudo_rows(np.ones((3, 2)), [0, 1])

    def test_distance_is_nan_where_not_given(self):
        assert np.all(np.isnan(pseudo_rows(np.ones((3, 2)), [0, 1, 1]).distance))

    def test_infer_pseudo_indexes_rows_in_order(self):
        params = small_net(seed=3)
        annotations = infer_pseudo(params, seeded_rng(3).standard_normal((17, params.input_dim)),
                                   net_anchors(params, 3))
        assert annotations.index.tolist() == list(range(17))
        assert annotations.dtype["index"] == annotations.dtype["hard_label"] == np.dtype("<i8")

    def test_rebuilt_rows_match_the_dump(self):
        annotations, n, k = random_pool(seed=22, n=50, k=4)
        dump = selection_dump(select(annotations, r_u=0.4, n_u=n, n_classes=k), annotations)
        index = sorted(e["index"] for entries in dump["selected_by_class"].values() for e in entries)
        rebuilt = selected_set_from_dump(dump).annotations
        assert len(rebuilt) == len(index) > 0
        assert rebuilt.index.tolist() == index
        assert rebuilt.hard_label.tolist() == dump["hard_label"][index].tolist()
        assert rebuilt.distance.tobytes() == dump["distance"][index].tobytes()
        assert rebuilt.soft_label.tobytes() == dump["soft_label"].tobytes()
        assert rebuilt.dtype == annotations.dtype

    def test_selected_and_rebuilt_sets_have_one_row_shape(self):
        annotations, n, k = random_pool(seed=23, n=60, k=4)
        selected = select(annotations, r_u=0.5, n_u=n, n_classes=k)
        kept, rebuilt = selected.annotations, selected_set_from_dump(selection_dump(selected, annotations)).annotations
        assert kept.dtype == rebuilt.dtype
        assert len(kept) == len(rebuilt) == len(selected)
        for column in ("index", "hard_label", "soft_label", "distance"):
            assert kept[column].tobytes() == rebuilt[column].tobytes(), column


class TestSelectionDump:
    def test_dump_holds_no_provenance(self):
        """The split and checkpoint a dump came from are the writer's to record, not stage 2's."""
        annotations, n, k = random_pool(seed=12, n=30, k=3)
        dump = selection_dump(select(annotations, r_u=0.3, n_u=n, n_classes=k), annotations)
        assert list(dump) == ["r_u", "per_class_quota", "n_selected", "selected_by_class",
                              "hard_label", "distance", "soft_label"]

    def test_round_trip_through_files_is_bit_exact(self, tmp_path):
        annotations, n, k = random_pool(seed=11, n=40, k=4)
        selected = select(annotations, r_u=0.3, n_u=n, n_classes=k)
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
        assert rebuilt.annotations.soft_label.tobytes() == selected.annotations.soft_label.tobytes()
        assert dump["hard_label"].tobytes() == annotations.hard_label.astype("<i8").tobytes()
        assert dump["distance"].tobytes() == annotations.distance.astype("<f8").tobytes()
        assert dump["n_selected"] == len(selected) == len(dump["soft_label"])
        assert (dump["split_checksum"], dump["checkpoint_sha256"]) == ("split", "checkpoint")
        written = json.loads(path.read_text())
        assert list(written)[:3] == ["format_version", "split_checksum", "checkpoint_sha256"]
        assert list(written)[-1] == "checksums"
