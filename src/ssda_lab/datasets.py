"""Synthetic domain-shift benchmarks and the few-shot split protocol.

A domain pair is K Gaussian blobs with means on a circle (source) and the
same blobs pushed through an affine shift (target).  The target pool is
split into a few labeled anchors per class, a small labeled validation
set, and an unlabeled remainder whose ground-truth labels are quarantined
in a parallel array that only evaluation code should touch.  Every subset
is held as arrays: an ``(x, y)`` pair for the labeled ones, features only
for the unlabeled one.

On disk a split is a directory: ``manifest.json`` plus one ``.npy``
array per table.  ``source.npy``, ``labeled_target.npy`` and
``validation_target.npy`` hold rows of ``[("x", "<f8", (input_dim,)),
("y", "<i8")]``; ``unlabeled_target.npy`` is the ``(n, input_dim)`` ``<f8``
feature array and ``unlabeled_truth.npy`` its ``(n,)`` ``<i8`` labels.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .artifacts import DataError, check_keys, read_record, read_table, sha256, write_table
from .coremath import SEED_LIMIT, is_finite_number, is_int, seeded_rng

SPLIT_FORMAT_VERSION = 2

# Largest feature magnitude a split may hold: the head squares the network's features, and a float64 square
# overflows for a feature above 1.3e154, so this leaves the network 54 orders of magnitude of gain
FEATURE_LIMIT = 1e100


@dataclass(frozen=True)
class ShiftSpec:
    """Affine domain shift: x' = scale * R(rotation) x + translation + skew(y).

    Rotation acts on the first two coordinates.  ``label_skew`` adds a
    class-conditional offset of ``label_skew * y`` along the first axis,
    so the shift can depend on the (hidden) label.
    """

    rotation_degrees: float = 0.0
    translation: tuple[float, ...] = ()
    scale: float = 1.0
    label_skew: float = 0.0


@dataclass(frozen=True)
class DomainPairSpec:
    """Recipe for one source/target benchmark pair.  ``gen_split`` refuses one whose drawn features exceed
    ``FEATURE_LIMIT`` (1e100) in magnitude, or whose labeled target puts two classes on one point."""

    n_classes: int = 5
    input_dim: int = 2
    n_source: int = 500
    n_target: int = 500
    class_separation: float = 4.0
    shift: ShiftSpec = field(default_factory=ShiftSpec)
    seed: int = 0

    def validate(self) -> None:
        scalars = {
            "class_separation": self.class_separation,
            "rotation_degrees": self.shift.rotation_degrees,
            "scale": self.shift.scale,
            "label_skew": self.shift.label_skew,
        }
        problems = [f"{name} must be a finite number, got {value!r}"
                    for name, value in scalars.items() if not is_finite_number(value)]
        if not all(map(is_finite_number, self.shift.translation)):
            problems.append(f"translation entries must be finite numbers, got {list(self.shift.translation)}")
        if problems:
            raise ValueError("invalid domain spec: " + "; ".join(problems))
        if self.n_classes < 2:
            problems.append(f"n_classes must be >= 2, got {self.n_classes}")
        if self.input_dim < 1:
            problems.append(f"input_dim must be >= 1, got {self.input_dim}")
        if self.n_source < self.n_classes:
            problems.append(f"n_source {self.n_source} < n_classes {self.n_classes}")
        if self.n_target < self.n_classes:
            problems.append(f"n_target {self.n_target} < n_classes {self.n_classes}")
        if self.class_separation <= 0:
            problems.append(f"class_separation must be positive, got {self.class_separation}")
        if self.shift.rotation_degrees != 0.0 and self.input_dim < 2:
            problems.append("rotation requires input_dim >= 2")
        if self.shift.scale <= 0:
            problems.append(f"shift scale must be positive, got {self.shift.scale}")
        if not 0 <= self.seed < SEED_LIMIT:
            problems.append(f"seed must be in [0, 2**64), got {self.seed}")
        if self.shift.translation and len(self.shift.translation) != self.input_dim:
            problems.append(
                f"translation has {len(self.shift.translation)} entries, input_dim is {self.input_dim}"
            )
        if problems:
            raise ValueError("invalid domain spec: " + "; ".join(problems))


def class_means(spec: DomainPairSpec) -> np.ndarray:
    """Blob means: evenly spaced on a circle of radius class_separation in dims (0, 1)."""
    means = np.zeros((spec.n_classes, spec.input_dim))
    angles = 2.0 * np.pi * np.arange(spec.n_classes) / spec.n_classes
    means[:, 0] = spec.class_separation * np.cos(angles)
    if spec.input_dim >= 2:
        means[:, 1] = spec.class_separation * np.sin(angles)
    return means


def apply_shift(x: np.ndarray, y: np.ndarray, shift: ShiftSpec) -> np.ndarray:
    """Push points through the target-domain transform (rows of x, labels y)."""
    out = x.copy()
    if shift.rotation_degrees != 0.0:
        theta = np.deg2rad(shift.rotation_degrees)
        c, s = np.cos(theta), np.sin(theta)
        rotated = out[:, :2] @ np.array([[c, s], [-s, c]])  # row-vector convention
        out[:, :2] = rotated
    out *= shift.scale
    if shift.translation:
        out += np.asarray(shift.translation, dtype=np.float64)
    if shift.label_skew != 0.0:
        out[:, 0] += shift.label_skew * y
    return out


def _per_class_counts(total: int, k: int) -> list[int]:
    base, extra = divmod(total, k)
    return [base + (1 if c < extra else 0) for c in range(k)]


def gen_domain_pair(spec: DomainPairSpec) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Draw the source and target pools as (x, y) pairs, both with ground-truth labels."""
    spec.validate()
    means = class_means(spec)
    pools = []
    for domain, total in (("source", spec.n_source), ("target", spec.n_target)):
        rng = seeded_rng(spec.seed, "data", domain)
        xs, ys = [], []
        for c, count in enumerate(_per_class_counts(total, spec.n_classes)):
            xs.append(means[c] + rng.standard_normal((count, spec.input_dim)))
            ys.append(np.full(count, c, dtype=int))
        x = np.vstack(xs)
        y = np.concatenate(ys)
        if domain == "target":
            x = apply_shift(x, y, spec.shift)
        pools.append((x, y))
    return pools[0], pools[1]


def split_target(
    target: tuple[np.ndarray, np.ndarray],
    n_t_per_class: int,
    n_val_per_class: int,
    seed: int,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """Stratified draw of (labeled_target, validation_target, unlabeled_x, hidden truth).

    Labels of the unlabeled remainder are returned as a separate array so
    training code paths that consume the unlabeled features never see them.
    """
    if n_t_per_class < 1 or n_val_per_class < 1:
        raise ValueError(
            f"need at least 1 labeled and 1 validation sample per class, "
            f"got {n_t_per_class} and {n_val_per_class}"
        )
    x, y = target
    rng = seeded_rng(seed, "split")
    labeled_idx, val_idx, rest_idx = [], [], []
    for c in np.flatnonzero(np.bincount(y)):  # classes present, ascending
        members = np.flatnonzero(y == c)
        if len(members) < n_t_per_class + n_val_per_class + 1:
            raise ValueError(
                f"insufficient samples for class {c}: "
                f"need {n_t_per_class + n_val_per_class + 1}, have {len(members)}"
            )
        order = rng.permutation(members)
        labeled_idx.append(order[:n_t_per_class])
        val_idx.append(order[n_t_per_class : n_t_per_class + n_val_per_class])
        rest_idx.append(order[n_t_per_class + n_val_per_class :])
    labeled_idx, val_idx, rest_idx = (np.sort(np.concatenate(idx)) for idx in (labeled_idx, val_idx, rest_idx))
    return (x[labeled_idx], y[labeled_idx]), (x[val_idx], y[val_idx]), x[rest_idx], y[rest_idx]


@dataclass
class SSDASplit:
    """One benchmark instance: source pool plus the three target subsets.

    ``source``, ``labeled_target`` and ``validation_target`` are (x, y)
    pairs; ``unlabeled_target`` is the (n, d) feature array alone.
    ``unlabeled_truth[i]`` is the hidden label of ``unlabeled_target[i]``;
    it exists for evaluation and reliability reporting only.  All arrays
    are read-only, so the views below share memory with the split safely.
    """

    spec: DomainPairSpec
    source: tuple[np.ndarray, np.ndarray]
    labeled_target: tuple[np.ndarray, np.ndarray]
    unlabeled_target: np.ndarray
    validation_target: tuple[np.ndarray, np.ndarray]
    unlabeled_truth: np.ndarray
    n_t_per_class: int
    n_val_per_class: int

    def __post_init__(self) -> None:
        # the supervised pool (source plus labeled target) is stacked once, here
        self._labeled = tuple(np.concatenate(parts) for parts in zip(self.source, self.labeled_target))
        for a in (*self.source, *self.labeled_target, *self.validation_target, *self._labeled,
                  self.unlabeled_target, self.unlabeled_truth):
            a.setflags(write=False)

    @property
    def n_classes(self) -> int:
        return self.spec.n_classes

    def labeled_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """Source plus labeled target, the supervised training pool."""
        return self._labeled

    def unlabeled_x(self) -> np.ndarray:
        return self.unlabeled_target

    def validation_xy(self) -> tuple[np.ndarray, np.ndarray]:
        return self.validation_target

    def labeled_target_by_class(self) -> dict[int, np.ndarray]:
        x, y = self.labeled_target
        out = {c: x[y == c] for c in range(self.n_classes)}
        for rows in out.values():
            rows.setflags(write=False)
        return out


def gen_split(spec: DomainPairSpec, n_t_per_class: int = 3, n_val_per_class: int = 3) -> SSDASplit:
    """Generate a domain pair and apply the split protocol, all from spec.seed.

    A ``ValueError`` if any drawn feature is not finite or exceeds ``FEATURE_LIMIT`` in magnitude, or if two
    classes' labeled target anchors coincide, since no stage can use such a split.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, so the warning would only repeat it
        source, target = gen_domain_pair(spec)
    if not (_within_limit(source[0]) and _within_limit(target[0])):
        raise ValueError(f"the drawn features overflow or exceed {FEATURE_LIMIT:g} in magnitude; lower the class "
                         "separation (--separation) or the shift (--scale, --translation, --skew)")
    labeled, validation, unlabeled, truth = split_target(target, n_t_per_class, n_val_per_class, spec.seed)
    if _shared_anchor(*labeled):
        raise ValueError("two classes' labeled target anchors coincide, so anchor distances cannot tell them "
                         "apart; raise the shift scale (--scale) or the class separation (--separation)")
    return SSDASplit(
        spec=spec,
        source=source,
        labeled_target=labeled,
        unlabeled_target=unlabeled,
        validation_target=validation,
        unlabeled_truth=truth,
        n_t_per_class=n_t_per_class,
        n_val_per_class=n_val_per_class,
    )


# -- serialization --


def _labeled_dtype(dim: int) -> np.dtype:
    return np.dtype([("x", "<f8", (dim,)), ("y", "<i8")])


def _labeled_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    rows = np.empty(len(x), dtype=_labeled_dtype(x.shape[1]))
    rows["x"], rows["y"] = x, y
    return rows


def _within_limit(x: np.ndarray) -> bool:
    """Every entry at most ``FEATURE_LIMIT`` in magnitude; NaN fails the comparisons.  No temporary array."""
    return -FEATURE_LIMIT <= np.min(x, initial=0.0) <= np.max(x, initial=0.0) <= FEATURE_LIMIT


def _shared_anchor(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether one labeled point carries two classes' labels.  ``np.lexsort`` makes equal points neighbours;
    ``np.unique(axis=0)`` would too, but its first call in a process takes about 6 ms."""
    order = np.lexsort(x.T)
    x, y = x[order], y[order]
    return bool(np.any(np.all(x[1:] == x[:-1], axis=1) & (y[1:] != y[:-1])))


def _check_features(x: np.ndarray, name: str) -> np.ndarray:
    if not _within_limit(x):
        raise DataError(f"non-finite feature values, or values above {FEATURE_LIMIT:g} in magnitude, in {name}")
    return np.ascontiguousarray(x)


def _check_labels(y: np.ndarray, n_classes: int, name: str) -> np.ndarray:
    if np.any(y < 0) or np.any(y >= n_classes):
        raise DataError(f"{name} has labels outside [0, {n_classes})")
    return np.ascontiguousarray(y)


def save_split(split: SSDASplit, out_dir: str | Path) -> Path:
    """Write the split directory; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    tables = {
        "source.npy": _labeled_rows(*split.source),
        "labeled_target.npy": _labeled_rows(*split.labeled_target),
        "validation_target.npy": _labeled_rows(*split.validation_target),
        "unlabeled_target.npy": np.asarray(split.unlabeled_target, dtype="<f8"),
        "unlabeled_truth.npy": np.asarray(split.unlabeled_truth, dtype="<i8"),
    }
    checksums = {name: write_table(out / name, array) for name, array in tables.items()}

    manifest = {
        "format_version": SPLIT_FORMAT_VERSION,
        "spec": asdict(split.spec),
        "n_t_per_class": split.n_t_per_class,
        "n_val_per_class": split.n_val_per_class,
        "counts": {
            "source": len(split.source[0]),
            "labeled_target": len(split.labeled_target[0]),
            "unlabeled_target": len(split.unlabeled_target),
            "validation_target": len(split.validation_target[0]),
        },
        "checksums": checksums,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest_path


def split_checksum(split_dir: str | Path) -> str:
    """Digest of the manifest, to stamp experiment outputs with their input data."""
    return sha256(Path(split_dir) / "manifest.json")


_MANIFEST_KEYS = {"format_version", "spec", "n_t_per_class", "n_val_per_class", "counts", "checksums"}
_COUNTS = {"source", "labeled_target", "unlabeled_target", "validation_target"}
_TABLES = {f"{name}.npy" for name in (*_COUNTS, "unlabeled_truth")}


def _spec_from_manifest(manifest: dict) -> DomainPairSpec:
    """The manifest's spec, validated; the manifest itself carries no checksum."""
    spec_dict = manifest["spec"]
    check_keys(spec_dict, {f.name for f in fields(DomainPairSpec)}, "manifest spec")
    check_keys(spec_dict["shift"], {f.name for f in fields(ShiftSpec)}, "manifest spec.shift")
    values = {**spec_dict, **manifest}  # disjoint key sets
    not_int = [k for k in ("n_classes", "input_dim", "n_source", "n_target", "seed", "n_t_per_class",
                           "n_val_per_class") if not is_int(values[k])]
    not_int += [f"counts.{k}" for k, v in sorted(manifest["counts"].items()) if not is_int(v)]
    if not_int:
        raise DataError(f"bad split manifest: {not_int} must be integers")
    if min(manifest["n_t_per_class"], manifest["n_val_per_class"]) < 1:
        raise DataError("bad split manifest: n_t_per_class and n_val_per_class must be >= 1")
    try:
        shift = ShiftSpec(**{**spec_dict["shift"], "translation": tuple(spec_dict["shift"]["translation"])})
        spec = DomainPairSpec(**{**spec_dict, "shift": shift})
        spec.validate()
    except (TypeError, ValueError) as err:
        raise DataError(f"bad split manifest: {err}") from err
    return spec


def load_split(split_dir: str | Path) -> SSDASplit:
    """Load and verify a split directory; any tampering fails the checksum.

    The manifest's spec must pass ``DomainPairSpec.validate``; every table
    must be one ``.npy`` array of exactly the dtype and shape that the
    manifest's ``input_dim`` and ``counts`` give, features must be finite
    and labels in [0, n_classes), and the labeled and validation targets
    must hold ``n_t_per_class`` and ``n_val_per_class`` rows of every class,
    as ``split_target`` draws them, and the unlabeled target at least one
    row, which every stage scores; as in ``gen_split``, no feature may exceed
    ``FEATURE_LIMIT`` in magnitude and no labeled point may carry two classes;
    each failure is a ``DataError``.
    """
    root = Path(split_dir)
    manifest = read_record(root / "manifest.json", SPLIT_FORMAT_VERSION, "split manifest", "spec",
                           "version-1 (CSV) splits are no longer read; run gen-data again with the spec, seed and "
                           "shot counts of its manifest: the same numpy writes the same arrays")
    check_keys(manifest, _MANIFEST_KEYS, "manifest")
    check_keys(manifest["checksums"], _TABLES, "manifest checksums")
    check_keys(manifest["counts"], _COUNTS, "manifest counts")
    spec = _spec_from_manifest(manifest)

    counts, labeled = manifest["counts"], _labeled_dtype(spec.input_dim)
    layouts = {
        "source.npy": (labeled, (counts["source"],)),
        "labeled_target.npy": (labeled, (counts["labeled_target"],)),
        "validation_target.npy": (labeled, (counts["validation_target"],)),
        "unlabeled_target.npy": (np.dtype("<f8"), (counts["unlabeled_target"], spec.input_dim)),
        "unlabeled_truth.npy": (np.dtype("<i8"), (counts["unlabeled_target"],)),
    }
    arrays = {name: read_table(root / name, manifest["checksums"][name], dtype, shape)
              for name, (dtype, shape) in layouts.items()}
    if not counts["unlabeled_target"]:
        raise DataError(f"{root} holds no unlabeled target rows, so no stage has rows to label or score")

    def xy(name: str, per_class: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        rows = arrays[name]
        x, y = _check_features(rows["x"], name), _check_labels(rows["y"], spec.n_classes, name)
        counts = np.bincount(y, minlength=spec.n_classes)
        if per_class is not None and np.any(counts != per_class):
            raise DataError(f"{name} holds {counts.tolist()} rows per class, not the {per_class} each that "
                            "gen-data draws")
        return x, y

    split = SSDASplit(
        spec=spec,
        source=xy("source.npy"),
        labeled_target=xy("labeled_target.npy", manifest["n_t_per_class"]),
        unlabeled_target=_check_features(arrays["unlabeled_target.npy"], "unlabeled_target.npy"),
        validation_target=xy("validation_target.npy", manifest["n_val_per_class"]),
        unlabeled_truth=_check_labels(arrays["unlabeled_truth.npy"], spec.n_classes, "unlabeled_truth.npy"),
        n_t_per_class=manifest["n_t_per_class"],
        n_val_per_class=manifest["n_val_per_class"],
    )
    if _shared_anchor(*split.labeled_target):
        raise DataError("labeled_target.npy puts two classes on one point, so anchor distances cannot tell them apart")
    return split


def default_benchmark_spec(seed: int = 0) -> DomainPairSpec:
    """The synth-shift benchmark: 5 classes in 2-D, 30 degree rotation plus (1,1) shift."""
    return DomainPairSpec(
        n_classes=5,
        input_dim=2,
        n_source=500,
        n_target=500,
        class_separation=4.0,
        shift=ShiftSpec(rotation_degrees=30.0, translation=(1.0, 1.0)),
        seed=seed,
    )
