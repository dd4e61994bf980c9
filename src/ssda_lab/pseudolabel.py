"""Pseudo-label inference and anchor-distance selection.

Every unlabeled target sample gets a soft pseudo label (the model's
prediction vector) and a hard pseudo label (its argmax).  Within each
hard-label class, samples are ranked by mean L1 distance between their
feature vector and the few labeled target anchors of that class, and the
closest ceil(r_u * n_u / K) are kept as the trusted set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import DataError, read_record, read_table, table_path, write_table
from .coremath import l1_distance
from .network import NetworkParams, forward_classifier, forward_features


@dataclass
class PseudoAnnotation:
    """Per-sample pseudo label plus the feature used for distance ranking.

    ``hard_label`` is argmax of ``soft_label`` with ties broken toward the
    lowest class index.  ``distance`` stays None until a selection pass
    fills it against the sample's hard-label anchors.
    """

    index: int
    soft_label: np.ndarray
    hard_label: int
    feature: np.ndarray
    distance: float | None = None


@dataclass
class SelectedSet:
    """The trusted pseudo-labeled subset and the quota that produced it."""

    annotations: list[PseudoAnnotation]
    index_set: list[int]
    r_u: float
    per_class_quota: int

    def __len__(self) -> int:
        return len(self.annotations)


def infer_pseudo(params: NetworkParams, unlabeled_x: np.ndarray) -> list[PseudoAnnotation]:
    """Forward-pass the unlabeled pool; one annotation per sample, distances unset."""
    features = forward_features(unlabeled_x, params)
    if not len(features):
        raise ValueError("empty unlabeled set")
    probs = forward_classifier(features, params)
    hard = probs.argmax(axis=1).tolist()
    return [
        PseudoAnnotation(index=i, soft_label=p, hard_label=h, feature=f)
        for i, (p, h, f) in enumerate(zip(probs, hard, features))
    ]


def per_class_quota(r_u: float, n_u: int, n_classes: int) -> int:
    return math.ceil(r_u * n_u / n_classes)


def select(
    annotations: list[PseudoAnnotation],
    anchor_features_by_class: dict[int, np.ndarray],
    r_u: float,
    n_u: int,
    n_classes: int,
) -> SelectedSet:
    """Keep, per hard-label class, the quota of samples nearest to its anchors.

    Fills ``distance`` on every annotation with its mean L1 distance to
    the anchors of its hard-label class.  Sorting is stable on
    (distance, index); classes are merged in ascending order so the
    result is deterministic.  A class with no annotated members simply
    contributes nothing; a populated class without anchors is an error
    because the split protocol guarantees anchors for every class.
    """
    if not 0.0 < r_u <= 1.0:
        raise ValueError(f"r_u must be in (0, 1], got {r_u}")
    quota = per_class_quota(r_u, n_u, n_classes)
    hard = np.array([a.hard_label for a in annotations], dtype=int)
    if hard.size and not 0 <= hard.min() <= hard.max() < n_classes:
        raise ValueError(f"hard labels must lie in [0, {n_classes})")
    chosen: list[PseudoAnnotation] = []
    for c in range(n_classes):
        members = np.flatnonzero(hard == c)
        if not members.size:
            continue
        anchors = np.asarray(anchor_features_by_class.get(c, ()), dtype=np.float64)
        if anchors.size == 0:
            raise ValueError(f"class {c} has annotated samples but no anchors")
        rows = [annotations[i] for i in members]
        dist = l1_distance(np.stack([a.feature for a in rows])[:, None, :], anchors).mean(axis=1)
        for a, d in zip(rows, dist.tolist()):
            a.distance = d
        order = np.lexsort((np.array([a.index for a in rows]), dist))
        chosen.extend(rows[i] for i in order[:quota].tolist())
    return SelectedSet(
        annotations=chosen,
        index_set=sorted(a.index for a in chosen),
        r_u=r_u,
        per_class_quota=quota,
    )


def reliability(annotations: list[PseudoAnnotation], hidden_truth: np.ndarray) -> float:
    """Fraction of hard pseudo labels that match the quarantined ground truth.

    Evaluation context only: this is the one consumer of hidden labels on
    the pseudo-labeling side.
    """
    if not annotations:
        raise ValueError("empty annotation set")
    hard = np.array([a.hard_label for a in annotations])
    index = np.array([a.index for a in annotations])
    hits = int(np.count_nonzero(hard == np.asarray(hidden_truth)[index]))
    return hits / len(annotations)


# -- selection dump --

SELECTION_VERSION = 3

# each column's table: its dtype and rank; the checks against the split fix the lengths
_COLUMNS = {"hard_label": (np.dtype("<i8"), 1), "distance": (np.dtype("<f8"), 1), "soft_label": (np.dtype("<f8"), 2)}


def selection_dump(
    selected: SelectedSet,
    all_annotations: list[PseudoAnnotation],
    *,
    split_checksum: str,
    checkpoint_sha256: str,
) -> dict:
    """The selection dump: each fact once, and the split and checkpoint it came from.

    ``hard_label`` (int64) and ``distance`` (float64) are columns over every
    unlabeled row (row i of ``all_annotations``, as ``infer_pseudo`` returns
    them, has index i); ``soft_label`` (float64) holds the rows of the
    selected samples only, in ascending index order, because self-training
    reads no other.  ``save_selection`` writes these three arrays as tables.
    """
    by_class: dict[str, list] = {}
    for a in selected.annotations:
        by_class.setdefault(str(a.hard_label), []).append({"index": a.index})
    rows = sorted(selected.annotations, key=lambda a: a.index)
    return {
        "format_version": SELECTION_VERSION,
        "split_checksum": split_checksum,
        "checkpoint_sha256": checkpoint_sha256,
        "r_u": selected.r_u,
        "per_class_quota": selected.per_class_quota,
        "n_selected": len(selected),
        "selected_by_class": by_class,
        "hard_label": np.array([a.hard_label for a in all_annotations], dtype="<i8"),
        "distance": np.array([a.distance for a in all_annotations], dtype="<f8"),
        "soft_label": np.array([a.soft_label for a in rows], dtype="<f8"),
    }


def save_selection(path: str | Path, dump: dict) -> None:
    """Write the three column tables, then the JSON with their checksums in place of the columns."""
    checksums = {c: write_table(table_path(path, c), dump[c]) for c in _COLUMNS}
    record = {k: v for k, v in dump.items() if k not in _COLUMNS}
    Path(path).write_text(json.dumps({**record, "checksums": checksums}), encoding="utf-8")


def load_selection(path: str | Path) -> dict:
    """The dump at ``path`` with its three columns read from the tables beside it.

    Each table must match the checksum the JSON records for it and hold one
    array of its column's dtype and rank, else a ``DataError``;
    ``check_selection`` fixes the lengths.
    """
    dump = read_record(path, SELECTION_VERSION, "selection dump",
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
    ``per_class_quota`` = ceil(r_u * n_unlabeled / n_classes) rows,
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
    """Rebuild the trusted set (without features) from a dump, in ascending index order."""
    index = np.sort(_selected_rows(dump["selected_by_class"])[1]).tolist()
    hard, distance = dump["hard_label"], dump["distance"]
    soft = np.asarray(dump["soft_label"], dtype=np.float64)
    annotations = [
        PseudoAnnotation(index=i, soft_label=row, hard_label=int(hard[i]), feature=np.empty(0), distance=distance[i])
        for i, row in zip(index, soft)
    ]
    return SelectedSet(
        annotations=annotations,
        index_set=index,
        r_u=dump["r_u"],
        per_class_quota=dump["per_class_quota"],
    )
