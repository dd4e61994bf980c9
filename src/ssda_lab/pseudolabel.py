"""Pseudo-label inference and anchor-distance selection.

Every unlabeled target sample gets a soft pseudo label (the model's
prediction vector) and a hard pseudo label (its argmax).  Within each
hard-label class, samples are ranked by mean L1 distance between their
feature vector and the few labeled target anchors of that class, and the
closest ceil(r_u * n_u / K) are kept as the trusted set, the ceiling taken
on the decimal r_u (``per_class_quota``).

A pool of samples is one record array of ``pseudo_rows``' layout: row i
holds sample ``index``, its ``soft_label`` and ``hard_label`` and its
anchor ``distance``.  Features are needed for that one distance only, so
no record holds them: ``infer_pseudo`` fills the pool from each block of
``network.predict_blocks``, the one inference pass, with the distances
(``anchor_distances``) of its features, and ``select`` ranks the whole
pool by class and the ``distance`` column in one sort.
Stage 2 holds the unlabeled pool once, at 8 * (K + 3) bytes a row.  Its
one product is the selection dump, whose columns are arrays.  A selected
set holds the kept rows in index order, whichever function built it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .artifacts import DataError, read_record, read_table, table_path, write_table
from .coremath import l1_distance
from .network import NetworkParams, predict_blocks


def _row_dtype(soft_shape: tuple) -> np.dtype:
    return np.dtype([("index", "<i8"), ("soft_label", "<f8", soft_shape), ("hard_label", "<i8"), ("distance", "<f8")])


def pseudo_rows(soft, hard, index=None, distance=None) -> np.recarray:
    """One record per sample: fields ``index`` (0..n-1 by default), ``soft_label`` (K,), ``hard_label`` and
    ``distance`` (NaN where not given, which ``select`` refuses).

    A ``np.recarray`` rather than a plain structured array, because its readers (the benchmark's counters, the
    acceptance tests and ``scripts/artifact_digests.py``) read ``a.soft_label``, ``a.hard_label``,
    ``a.distance`` and ``a.index`` row by row.
    """
    n = len(soft)
    return np.rec.fromarrays([np.arange(n) if index is None else index, soft, hard,
                              np.full(n, np.nan) if distance is None else distance],
                             dtype=_row_dtype(np.shape(soft)[1:]))


@dataclass
class SelectedSet:
    """The trusted pseudo-labeled subset and the quota that produced it.

    ``annotations`` holds the kept rows (``pseudo_rows`` records) in ascending index order, the order stage 3
    trains in, whichever of ``select`` and ``selected_set_from_dump`` built it; ``index_set`` lists their indices.
    """

    annotations: np.recarray
    index_set: list[int]
    r_u: float
    per_class_quota: int

    def __len__(self) -> int:
        return len(self.annotations)


def anchor_distances(features: np.ndarray, hard: np.ndarray,
                     anchor_features_by_class: dict[int, np.ndarray]) -> np.ndarray:
    """The ``(n,)`` mean L1 distance from each feature row to the anchors of its hard-label class.

    One ``l1_distance`` call per class present in ``hard``; classes may have
    different anchor counts.  A present class without anchors is an error,
    because the split protocol guarantees anchors for every class.  Each
    row's distance has the same bits whichever other rows come with it.
    """
    hard = np.asarray(hard)
    distance = np.empty(len(hard))
    # the classes present by bincount, not np.unique, whose first call in a process takes about 6 ms
    for c in np.flatnonzero(np.bincount(hard)).tolist():
        anchors = np.asarray(anchor_features_by_class.get(c, ()), dtype=np.float64)
        if anchors.size == 0:
            raise ValueError(f"class {c} has annotated samples but no anchors")
        members = np.flatnonzero(hard == c)
        # the ufunc behind .mean(axis=1), at the same bits and less cost per call: this runs per class and block
        distance[members] = np.add.reduce(l1_distance(features[members][:, None, :], anchors), axis=1) / len(anchors)
    return distance


def infer_pseudo(params: NetworkParams, unlabeled_x: np.ndarray,
                 anchor_features_by_class: dict[int, np.ndarray]) -> np.recarray:
    """The unlabeled pool as one record array, filled from each ``predict_blocks`` block, whose features it keeps
    none of: row i is sample i, its hard label the argmax (ties to the lowest class) and its distance the
    ``anchor_distances`` of its features."""
    pool = np.recarray(len(unlabeled_x), dtype=_row_dtype((params.n_classes,)))
    pool.index = np.arange(len(pool))

    def take(rows, features, predictions):
        hard = pool.hard_label[rows] = predictions.argmax(axis=1)
        pool.soft_label[rows] = predictions
        pool.distance[rows] = anchor_distances(features, hard, anchor_features_by_class)

    predict_blocks(unlabeled_x, params, take)
    return pool


def per_class_quota(r_u: float, n_u: int, n_classes: int) -> int:
    """ceil(r_u * n_u / n_classes) in exact arithmetic on the decimal ``repr(r_u)`` prints, the value the user
    wrote: in float64, 0.07 * 200 / 2 is 7.000000000000001, which would make a quota of 8 instead of 7."""
    return math.ceil(Fraction(repr(float(r_u))) * n_u / n_classes)


def select(annotations: np.recarray, r_u: float, n_u: int, n_classes: int) -> SelectedSet:
    """Keep, per hard-label class, the quota of rows nearest to its anchors.

    Rows are ranked by the pool's ``distance`` column, so a pool whose
    distances were never given (NaN) is refused.  One stable sort ranks the
    whole pool on (class, distance, index), and each class keeps its first
    ``quota`` rows, so the result is deterministic; the kept rows come back
    in index order.  A class with no annotated members simply contributes
    nothing.
    """
    if not 0.0 < r_u <= 1.0:
        raise ValueError(f"r_u must be in (0, 1], got {r_u}")
    quota = per_class_quota(r_u, n_u, n_classes)
    hard, distance = annotations.hard_label, annotations.distance
    if hard.size and not 0 <= hard.min() <= hard.max() < n_classes:
        raise ValueError(f"hard labels must lie in [0, {n_classes})")
    if np.isnan(distance).any():
        raise ValueError("the pool has rows without an anchor distance (NaN): fill them with anchor_distances")
    order = np.lexsort((annotations.index, distance, hard))
    sorted_hard = hard[order]
    # a row's rank within its class: its place in the ranking less that of its class's first row
    order = order[np.arange(len(order)) - np.searchsorted(sorted_hard, sorted_hard) < quota]
    order = order[np.argsort(annotations.index[order], kind="stable")]
    kept = pseudo_rows(annotations.soft_label[order], hard[order], annotations.index[order], distance[order])
    return SelectedSet(annotations=kept, index_set=kept.index.tolist(), r_u=r_u, per_class_quota=quota)


def reliability(hard: np.ndarray, hidden_truth: np.ndarray) -> float:
    """Fraction of hard pseudo labels that match the quarantined ground truth, row for aligned row.

    Evaluation context only: this is the one consumer of hidden labels on
    the pseudo-labeling side.  An empty input and rows that do not align
    are refused, so one label cannot broadcast against a whole pool.
    """
    hard, hidden_truth = np.asarray(hard), np.asarray(hidden_truth)
    if not hard.size:
        raise ValueError("empty hard-label set")
    if hard.shape != hidden_truth.shape:
        raise ValueError(f"hard labels of shape {hard.shape} do not align with truth of shape {hidden_truth.shape}")
    return float(np.mean(hard == hidden_truth))


# -- selection dump --

SELECTION_VERSION = 3

# each column's table: its dtype and rank; the checks against the split fix the lengths
_COLUMNS = {"hard_label": (np.dtype("<i8"), 1), "distance": (np.dtype("<f8"), 1), "soft_label": (np.dtype("<f8"), 2)}


def selection_dump(selected: SelectedSet, all_annotations: np.recarray) -> dict:
    """The selection dump, stage 2's one product: each fact once.

    ``hard_label`` (int64) and ``distance`` (float64) are the pool's columns
    over every unlabeled row (row i of ``all_annotations``, as
    ``infer_pseudo`` returns them, has index i); ``soft_label`` (float64)
    holds the selected rows only, in the set's index order, because
    self-training reads no other; ``selected_by_class`` lists each class's
    rows in (distance, index) order.  The dump holds no pool-sized
    prediction array, and no provenance: ``save_selection`` records that.
    """
    rows = selected.annotations
    ranked = np.lexsort((rows.index, rows.distance, rows.hard_label))
    by_class: dict[str, list] = {}
    for c, i in zip(rows.hard_label[ranked].tolist(), rows.index[ranked].tolist()):
        by_class.setdefault(str(c), []).append({"index": i})
    return {
        "r_u": selected.r_u,
        "per_class_quota": selected.per_class_quota,
        "n_selected": len(selected),
        "selected_by_class": by_class,
        "hard_label": all_annotations.hard_label.astype("<i8"),
        "distance": all_annotations.distance.astype("<f8"),
        "soft_label": rows.soft_label,
    }


def save_selection(path: str | Path, dump: dict, *, split_checksum: str, checkpoint_sha256: str) -> None:
    """Write the dump's three columns as tables, then the JSON: the format version and the split and
    checkpoint the dump came from, the dump's other keys in order, and the tables' checksums."""
    checksums = {c: write_table(table_path(path, c), dump[c]) for c in _COLUMNS}
    record = {"format_version": SELECTION_VERSION, "split_checksum": split_checksum,
              "checkpoint_sha256": checkpoint_sha256, **{k: v for k, v in dump.items() if k not in _COLUMNS}}
    Path(path).write_text(json.dumps({**record, "checksums": checksums}), encoding="utf-8")


def load_selection(path: str | Path) -> dict:
    """The dump at ``path`` with its three columns read from the tables beside it.

    Each table must match the checksum the JSON records for it and hold one
    array of its column's dtype and rank, else a ``DataError``;
    ``check_selection`` fixes the lengths.
    """
    dump = read_record(path, SELECTION_VERSION, "selection dump", "selected_by_class",
                       "run pseudo-label again on the checkpoint it came from")
    checksums = dump.get("checksums")
    if not isinstance(checksums, dict):
        raise DataError("selection dump lacks its table checksums")
    for c, (dtype, rank) in _COLUMNS.items():
        dump[c] = read_table(table_path(path, c), checksums.get(c), dtype, (None,) * rank)
    return dump


_DUMP_KEYS = ("format_version", "split_checksum", "checkpoint_sha256", "r_u", "per_class_quota", "n_selected",
              "selected_by_class", "hard_label", "distance", "soft_label")
_PROVENANCE_KEYS = ("split_checksum", "checkpoint_sha256")


def _selected_rows(by_class) -> tuple[list[str], np.ndarray]:
    """The class key and the index of every ``selected_by_class`` entry, in dump order."""
    try:
        pairs = [(c, e["index"]) for c, entries in by_class.items() for e in entries]
        index = np.array([i for _, i in pairs]) if pairs else np.zeros(0, dtype=np.int64)
    except (AttributeError, KeyError, TypeError, ValueError) as err:  # ValueError: indices of ragged lists
        raise DataError("selected_by_class must map each class to a list of {\"index\": ...} entries") from err
    if index.dtype.kind != "i" or index.ndim != 1:
        raise DataError("selected_by_class indices must be integers")
    return [c for c, _ in pairs], index


def check_selection(dump: dict, n_unlabeled: int, n_classes: int) -> None:
    """Check a loaded selection dump against its split.

    Raises DataError unless every key is present, the provenance values are
    strings, ``hard_label`` is an int64 column in [0, n_classes) and
    ``distance`` a float64 column of numbers >= 0, each of n_unlabeled rows,
    ``selected_by_class`` lists at least one row, each once, in
    [0, n_unlabeled) and under its hard label, no class keeps more than
    ``per_class_quota`` = ceil(r_u * n_unlabeled / n_classes) rows (on the decimal r_u),
    ``n_selected`` counts the listed rows, and ``soft_label`` is a float64
    table of one row per listed row and n_classes columns, each row of
    numbers in [0, 1] that sum to 1 within 1e-9.
    """
    missing = [k for k in _DUMP_KEYS if k not in dump]
    if missing:
        raise DataError(f"selection dump lacks the keys {missing}")
    if not all(isinstance(dump[k], str) for k in _PROVENANCE_KEYS):
        raise DataError(f"selection provenance {list(_PROVENANCE_KEYS)} must be strings")
    hard, distance, soft = (dump[c] for c in _COLUMNS)
    if not all(isinstance(dump[c], np.ndarray) and dump[c].dtype == dtype for c, (dtype, _) in _COLUMNS.items()):
        raise DataError("selection hard labels must be an int64 array, distances and soft rows float64 arrays")
    if hard.shape != (n_unlabeled,) or distance.shape != (n_unlabeled,):
        raise DataError(f"selection hard_label and distance must hold one entry per unlabeled row ({n_unlabeled})")
    if hard.min() < 0 or hard.max() >= n_classes:
        raise DataError(f"selection hard labels must lie in [0, {n_classes})")
    if not np.all(distance >= 0):  # written so that NaN is refused
        raise DataError("selection distances must be numbers >= 0")
    classes, index = _selected_rows(dump["selected_by_class"])
    if not index.size:
        raise DataError("selection dump selects no rows")
    ordered = np.sort(index)
    if ordered[0] < 0 or ordered[-1] >= n_unlabeled or np.any(ordered[1:] == ordered[:-1]):
        raise DataError(f"selected indices must be unique and lie in [0, {n_unlabeled})")
    if classes != [str(h) for h in hard[index].tolist()]:
        raise DataError("every selected_by_class key must be the hard label of its rows")
    r_u, quota, count = dump["r_u"], dump["per_class_quota"], dump["n_selected"]
    if type(r_u) not in (int, float) or not 0.0 < r_u <= 1.0:
        raise DataError(f"selection r_u {r_u!r} must be a number in (0, 1]")
    if type(quota) is not int or quota != per_class_quota(r_u, n_unlabeled, n_classes):
        raise DataError(f"per_class_quota {quota!r} is not ceil(r_u * n_unlabeled / n_classes)")
    if max(map(len, dump["selected_by_class"].values())) > quota:
        raise DataError(f"a class keeps more than its quota of {quota} rows")
    if type(count) is not int or count != index.size:
        raise DataError(f"n_selected {count!r} != the {index.size} rows selected_by_class lists")
    if len(soft) != index.size:
        raise DataError(f"selection dump holds {len(soft)} soft rows for {index.size} selected rows")
    if soft.shape[1:] != (n_classes,):
        raise DataError(f"selection soft rows have widths {list(soft.shape[1:])}, the split has {n_classes} classes")
    # written so that NaN, which fails every comparison, is refused
    if not (np.all((soft >= 0) & (soft <= 1)) and np.all(np.abs(soft.sum(axis=1) - 1.0) <= 1e-9)):
        raise DataError("every selected soft row must hold numbers in [0, 1] that sum to 1 within 1e-9")


def selected_set_from_dump(dump: dict) -> SelectedSet:
    """Rebuild the trusted set from a dump: its rows in ascending index order."""
    index = np.sort(_selected_rows(dump["selected_by_class"])[1])
    rows = pseudo_rows(dump["soft_label"], dump["hard_label"][index], index, dump["distance"][index])
    return SelectedSet(rows, index.tolist(), dump["r_u"], dump["per_class_quota"])
