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
    unlabeled_x = np.asarray(unlabeled_x, dtype=np.float64)
    if unlabeled_x.ndim != 2 or unlabeled_x.shape[0] == 0:
        raise ValueError("empty unlabeled set")
    features = forward_features(unlabeled_x, params)
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


def selection_to_jsonable(
    selected: SelectedSet,
    all_annotations: list[PseudoAnnotation],
    reliability_before: float | None = None,
    reliability_after: float | None = None,
) -> dict:
    selected_ids = set(selected.index_set)
    by_class: dict[str, list] = {}
    for a in selected.annotations:
        by_class.setdefault(str(a.hard_label), []).append(
            {"index": a.index, "distance": a.distance}
        )
    return {
        "r_u": selected.r_u,
        "per_class_quota": selected.per_class_quota,
        "n_selected": len(selected),
        "selected_by_class": by_class,
        "annotations": [
            {
                "index": a.index,
                "hard_label": a.hard_label,
                "distance": a.distance,
                "soft_label": a.soft_label.tolist(),
                "selected": a.index in selected_ids,
            }
            for a in all_annotations
        ],
        "reliability_before": reliability_before,
        "reliability_after": reliability_after,
    }


def save_selection(path: str | Path, dump: dict) -> None:
    Path(path).write_text(json.dumps(dump), encoding="utf-8")


def load_selection(path: str | Path) -> dict:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"selection dump not found: {p}")
    dump = json.loads(p.read_text(encoding="utf-8"))
    if not isinstance(dump, dict):
        raise ValueError("selection dump must be a JSON object")
    return dump


_DUMP_KEYS = ("r_u", "per_class_quota", "n_selected", "selected_by_class", "annotations",
              "reliability_before", "reliability_after")
_ENTRY_KEYS = ("index", "hard_label", "distance", "soft_label", "selected")


def check_selection(dump: dict, n_unlabeled: int, n_classes: int) -> dict[str, np.ndarray]:
    """Check a selection dump against its split; returns the index, hard_label and selected columns.

    Raises ValueError unless every key is present, at least one row is
    selected, the indices are unique integers in [0, n_unlabeled), the hard
    labels integers in [0, n_classes), the distances numbers, the selected
    flags booleans, every soft row has n_classes entries, and every selected
    soft row holds numbers in [0, 1] that sum to 1 within 1e-9.
    """
    missing = [k for k in _DUMP_KEYS if k not in dump]
    if missing:
        raise ValueError(f"selection dump lacks the keys {missing}")
    entries = dump["annotations"]
    try:
        index, hard, distance, chosen = (np.array([e[k] for e in entries])
                                         for k in ("index", "hard_label", "distance", "selected"))
        widths = {len(e["soft_label"]) for e in entries}
    except (KeyError, TypeError) as err:
        raise ValueError(f"every selection entry needs the keys {list(_ENTRY_KEYS)}") from err
    if not chosen.any():
        raise ValueError("selection dump selects no rows")
    if index.dtype.kind != "i" or hard.dtype.kind != "i" or distance.dtype.kind != "f" or chosen.dtype != bool:
        raise ValueError("selection indices and hard labels must be integers, distances numbers, "
                         "selected flags booleans")
    ordered = np.sort(index)
    if ordered[0] < 0 or ordered[-1] >= n_unlabeled or np.any(ordered[1:] == ordered[:-1]):
        raise ValueError(f"selection indices must be unique and lie in [0, {n_unlabeled})")
    if hard.min() < 0 or hard.max() >= n_classes:
        raise ValueError(f"selection hard labels must lie in [0, {n_classes})")
    if widths != {n_classes}:
        raise ValueError(f"selection soft rows have widths {sorted(widths)}, the split has {n_classes} classes")
    soft = np.array([entries[i]["soft_label"] for i in np.flatnonzero(chosen)])
    # written so that NaN, which fails every comparison, is refused
    in_range = soft.ndim == 2 and soft.dtype.kind in "if" and np.all((soft >= 0) & (soft <= 1))
    if not (in_range and np.all(np.abs(soft.sum(axis=1) - 1.0) <= 1e-9)):
        raise ValueError("every selected soft row must hold numbers in [0, 1] that sum to 1 within 1e-9")
    return {"index": index, "hard_label": hard, "selected": chosen}


def selected_set_from_dump(dump: dict) -> SelectedSet:
    """Rebuild the trusted set (without features) from a selection dump, in dump order."""
    annotations = [
        PseudoAnnotation(
            index=entry["index"],
            soft_label=np.asarray(entry["soft_label"], dtype=np.float64),
            hard_label=int(entry["hard_label"]),
            feature=np.empty(0),
            distance=entry["distance"],
        )
        for entry in dump["annotations"]
        if entry["selected"]
    ]
    return SelectedSet(
        annotations=annotations,
        index_set=sorted(a.index for a in annotations),
        r_u=dump["r_u"],
        per_class_quota=dump["per_class_quota"],
    )
