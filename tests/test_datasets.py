import hashlib
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from ssda_lab.artifacts import DataError
from ssda_lab.coremath import seeded_rng
from ssda_lab.datasets import (
    DomainPairSpec,
    ShiftSpec,
    class_means,
    default_benchmark_spec,
    gen_domain_pair,
    gen_split,
    load_split,
    save_split,
    split_target,
)


def small_spec(**overrides):
    base = dict(
        n_classes=3,
        input_dim=2,
        n_source=120,
        n_target=120,
        class_separation=4.0,
        shift=ShiftSpec(),
        seed=0,
    )
    base.update(overrides)
    return DomainPairSpec(**base)


class TestGenDomainPair:
    def test_identity_shift_matches_source_distribution(self):
        spec = small_spec(n_source=300, n_target=300, seed=0)
        (sx, sy), (tx, ty) = gen_domain_pair(spec)
        for c in range(spec.n_classes):
            src = sx[sy == c]
            tgt = tx[ty == c]
            # unit-variance blobs: two-sample mean difference within 3 of its own sigma
            bound = 3.0 * np.sqrt(1.0 / len(src) + 1.0 / len(tgt))
            assert np.all(np.abs(src.mean(axis=0) - tgt.mean(axis=0)) < bound)

    def test_half_turn_swaps_antipodal_class_means(self):
        spec = small_spec(n_classes=2, n_source=400, n_target=400, shift=ShiftSpec(rotation_degrees=180.0))
        _, (tx, ty) = gen_domain_pair(spec)
        means = class_means(spec)
        tgt0 = tx[ty == 0]
        n = len(tgt0)
        assert np.all(np.abs(tgt0.mean(axis=0) - means[1]) < 3.0 / np.sqrt(n))

    def test_same_seed_identical_pools(self):
        spec = small_spec()
        a_src, a_tgt = gen_domain_pair(spec)
        b_src, b_tgt = gen_domain_pair(spec)
        for a, b in zip((*a_src, *a_tgt), (*b_src, *b_tgt)):
            np.testing.assert_array_equal(a, b)

    def test_label_skew_offsets_classes_differently(self):
        spec = small_spec(n_target=600, shift=ShiftSpec(label_skew=5.0))
        _, (tx, ty) = gen_domain_pair(spec)
        means = class_means(spec)
        for c in range(spec.n_classes):
            tgt = tx[ty == c]
            expected = means[c] + np.array([5.0 * c, 0.0])
            assert np.all(np.abs(tgt.mean(axis=0) - expected) < 3.0 / np.sqrt(len(tgt)))

    def test_invalid_spec_lists_every_violation(self):
        spec = small_spec(n_classes=1, class_separation=-1.0, n_source=0)
        with pytest.raises(ValueError) as err:
            gen_domain_pair(spec)
        message = str(err.value)
        assert "n_classes" in message
        assert "class_separation" in message
        assert "n_source" in message

    def test_rotation_requires_two_dims(self):
        spec = small_spec(input_dim=1, shift=ShiftSpec(rotation_degrees=30.0))
        with pytest.raises(ValueError, match="rotation requires"):
            gen_domain_pair(spec)


class TestSplitTarget:
    def test_three_shot_counts(self):
        spec = small_spec(n_classes=5, n_target=200, n_source=200)
        _, pool = gen_domain_pair(spec)
        (lx, ly), (vx, vy), unlabeled, truth = split_target(pool, 3, 3, seed=0)
        assert lx.shape == (15, 2) and ly.shape == (15,)
        assert vx.shape == (15, 2) and vy.shape == (15,)
        assert unlabeled.shape == (200 - 30, 2)
        assert truth.shape == (len(unlabeled),)

    def test_one_shot_gives_one_anchor_per_class(self):
        spec = small_spec(n_classes=5, n_target=200, n_source=200)
        _, pool = gen_domain_pair(spec)
        (_, ly), _, _, _ = split_target(pool, 1, 3, seed=0)
        np.testing.assert_array_equal(np.bincount(ly, minlength=5), np.ones(5))

    def test_subsets_partition_the_pool(self):
        spec = small_spec()
        _, pool = gen_domain_pair(spec)
        (lx, _), (vx, _), unlabeled, _ = split_target(pool, 2, 2, seed=1)
        pool_rows = sorted(map(tuple, pool[0]))
        got_rows = sorted(map(tuple, np.vstack([lx, vx, unlabeled])))
        assert got_rows == pool_rows
        as_sets = [set(map(tuple, rows)) for rows in (lx, vx, unlabeled)]
        assert not (as_sets[0] & as_sets[1])
        assert not (as_sets[0] & as_sets[2])
        assert not (as_sets[1] & as_sets[2])

    def test_stratification_exact_per_class(self):
        split = gen_split(small_spec(n_classes=4, n_target=160, n_source=160), 3, 2)
        np.testing.assert_array_equal(np.bincount(split.labeled_target[1], minlength=4), [3] * 4)
        np.testing.assert_array_equal(np.bincount(split.validation_xy()[1], minlength=4), [2] * 4)

    def test_insufficient_class_named_in_error(self):
        spec = small_spec(n_classes=3, n_target=12, n_source=12)
        _, pool = gen_domain_pair(spec)
        with pytest.raises(ValueError, match="class 0"):
            split_target(pool, 3, 3, seed=0)

    def test_unlabeled_view_has_no_label_field(self):
        spec = small_spec()
        split = gen_split(spec)
        ux = split.unlabeled_x()
        # features only: a float matrix with input_dim columns, no label column
        assert ux.ndim == 2 and ux.shape[1] == spec.input_dim
        assert ux.dtype == np.float64
        # the labels live only in the separate truth array
        assert split.unlabeled_truth.shape == (len(ux),)
        assert split.unlabeled_truth.dtype.kind == "i"

    def test_truth_aligns_with_unlabeled_rows(self):
        spec = small_spec()
        _, pool = gen_domain_pair(spec)
        by_row = dict(zip(map(tuple, pool[0]), pool[1]))
        _, _, unlabeled, truth = split_target(pool, 2, 2, seed=3)
        for row, y in zip(unlabeled, truth):
            assert by_row[tuple(row)] == y


class TestSplitViews:
    def test_views_return_stored_arrays(self):
        split = gen_split(small_spec())
        assert split.unlabeled_x() is split.unlabeled_target
        assert split.validation_xy() is split.validation_target
        assert split.labeled_xy() is split.labeled_xy()
        lx, ly = split.labeled_xy()
        np.testing.assert_array_equal(lx, np.vstack([split.source[0], split.labeled_target[0]]))
        np.testing.assert_array_equal(ly, np.concatenate([split.source[1], split.labeled_target[1]]))

    def test_anchors_by_class_match_labels(self):
        split = gen_split(small_spec(), 2, 2)
        x, y = split.labeled_target
        by_class = split.labeled_target_by_class()
        assert sorted(by_class) == [0, 1, 2]
        for c, rows in by_class.items():
            np.testing.assert_array_equal(rows, x[y == c])

    def test_write_into_any_view_raises(self):
        split = gen_split(small_spec())
        views = [
            *split.labeled_xy(),
            split.unlabeled_x(),
            *split.validation_xy(),
            *split.labeled_target_by_class().values(),
            *split.source,
            *split.labeled_target,
            split.unlabeled_truth,
        ]
        for view in views:
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        split = gen_split(small_spec(seed=5), 3, 3)
        save_split(split, tmp_path / "split")
        loaded = load_split(tmp_path / "split")
        np.testing.assert_array_equal(loaded.unlabeled_x(), split.unlabeled_x())
        np.testing.assert_array_equal(loaded.unlabeled_truth, split.unlabeled_truth)
        lx, ly = loaded.labeled_xy()
        sx, sy = split.labeled_xy()
        np.testing.assert_array_equal(lx, sx)
        np.testing.assert_array_equal(ly, sy)
        assert loaded.spec == split.spec
        assert loaded.n_t_per_class == split.n_t_per_class

    def test_save_load_save_byte_identical(self, tmp_path):
        save_split(gen_split(small_spec(seed=4), 1, 2), tmp_path / "a")
        save_split(load_split(tmp_path / "a"), tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_identical_spec_and_seed_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            save_split(gen_split(small_spec(seed=9)), tmp_path / name)
        for fname in ["manifest.json", "source.npy", "unlabeled_target.npy", "unlabeled_truth.npy"]:
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_tampered_table_fails_checksum(self, tmp_path):
        save_split(gen_split(small_spec()), tmp_path / "split")
        victim = tmp_path / "split" / "source.npy"
        rows = np.load(victim)
        rows[[0, 1]] = rows[[1, 0]]
        np.save(victim, rows, allow_pickle=False)
        with pytest.raises(DataError, match="checksum mismatch"):
            load_split(tmp_path / "split")

    def test_manifest_records_shot_count(self, tmp_path):
        save_split(gen_split(small_spec(), n_t_per_class=1), tmp_path / "split")
        manifest = json.loads((tmp_path / "split" / "manifest.json").read_text())
        assert manifest["n_t_per_class"] == 1
        # counts are rows: 3 classes x (1 shot, 3 validation) out of 120 target rows
        assert manifest["counts"] == {
            "source": 120, "labeled_target": 3, "validation_target": 9, "unlabeled_target": 108,
        }

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="missing manifest"):
            load_split(tmp_path / "nope")

    def test_version_mismatch(self, tmp_path):
        save_split(gen_split(small_spec()), tmp_path / "split")
        mpath = tmp_path / "split" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["format_version"] = 99
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="version"):
            load_split(tmp_path / "split")



def _set_shift(key, value):
    return lambda m: m["spec"]["shift"].__setitem__(key, value)


def _set_spec(key, value):
    return lambda m: m["spec"].__setitem__(key, value)


def _set_counts(key, value):
    return lambda m: m["counts"].__setitem__(key, value)


BAD_MANIFESTS = [
    pytest.param(_set_shift("scale", -1.0), "shift scale must be positive", id="negative_scale"),
    pytest.param(_set_shift("translation", ["nan", 1]), "bad split manifest", id="translation_str"),
    # a JSON true is not the number 1
    pytest.param(_set_shift("scale", True), "scale must be a finite number", id="scale_bool"),
    pytest.param(_set_spec("class_separation", True), "class_separation must be a finite number",
                 id="class_separation_bool"),
    pytest.param(_set_shift("translation", [True, 1]), "translation entries must be finite numbers",
                 id="translation_bool"),
    pytest.param(_set_spec("input_dim", 3), r"malformed table source.npy: dtype .*\(2,\).*, expected .*\(3,\)",
                 id="input_dim"),
    pytest.param(_set_spec("n_classes", 2), r"labels outside \[0, 2\)", id="n_classes_below_labels"),
    pytest.param(_set_spec("n_classes", 3.0), r"\['n_classes'\] must be integers", id="n_classes_float"),
    pytest.param(_set_spec("colour", "red"), r"unknown keys \['colour'\]", id="unknown_spec_key"),
    pytest.param(lambda m: m["spec"].pop("seed"), r"missing keys \['seed'\]", id="missing_spec_key"),
    pytest.param(lambda m: m["spec"]["shift"].pop("scale"), r"missing keys \['scale'\]", id="missing_shift_key"),
    pytest.param(lambda m: m.pop("n_t_per_class"), r"missing keys \['n_t_per_class'\]", id="missing_key"),
    pytest.param(lambda m: m["checksums"].pop("source.npy"), r"missing keys \['source.npy'\]",
                 id="missing_checksum"),
    pytest.param(_set_counts("unlabeled_target", 5), r"unlabeled_target.npy: shape \(102, 2\), expected \(5, 2\)",
                 id="counts_unlabeled_5"),
    pytest.param(_set_counts("source", 121), r"source.npy: shape \(120,\), expected \(121,\)", id="counts_source_121"),
    pytest.param(_set_counts("labeled_target", True), r"\['counts.labeled_target'\] must be integers",
                 id="counts_bool"),
    pytest.param(_set_counts("source", 120.0), r"\['counts.source'\] must be integers", id="counts_float"),
    pytest.param(lambda m: m["counts"].pop("validation_target"), r"counts: missing keys \['validation_target'\]",
                 id="counts_missing_key"),
    pytest.param(_set_counts("unlabeled_truth", 108), r"counts: .*unknown keys \['unlabeled_truth'\]",
                 id="counts_unknown_key"),
    pytest.param(lambda m: m.__setitem__("n_val_per_class", 0), "must be >= 1", id="zero_validation"),
]


class TestManifestChecks:
    """The manifest carries no checksum, so load_split checks what it says."""

    @pytest.mark.parametrize("edit, message", BAD_MANIFESTS)
    def test_bad_manifest_is_data_error(self, tmp_path, edit, message):
        save_split(gen_split(small_spec()), tmp_path / "split")
        mpath = tmp_path / "split" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        edit(manifest)
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=message):
            load_split(tmp_path / "split")

    @pytest.mark.parametrize("data", [b"{not json", b"\xff\xfe"], ids=["not_json", "not_utf8"])
    def test_manifest_not_json(self, tmp_path, data):
        save_split(gen_split(small_spec()), tmp_path / "split")
        (tmp_path / "split" / "manifest.json").write_bytes(data)
        with pytest.raises(DataError, match="not valid JSON"):
            load_split(tmp_path / "split")

    def test_label_out_of_range_under_valid_checksum(self, tmp_path):
        save_split(gen_split(small_spec()), tmp_path / "split")
        rows = np.load(tmp_path / "split" / "labeled_target.npy")
        rows["y"][0] = 7
        _restamped(tmp_path / "split", "labeled_target.npy", _npy(rows))
        with pytest.raises(DataError, match=r"labeled_target.npy has labels outside \[0, 3\)"):
            load_split(tmp_path / "split")

    @pytest.mark.parametrize("name, per_class", [("labeled_target.npy", 3), ("validation_target.npy", 2)])
    def test_class_short_of_its_rows_under_valid_checksum(self, tmp_path, name, per_class):
        """Relabeling a row moves it to another class, so one class holds fewer rows than split_target draws."""
        save_split(gen_split(small_spec(), 3, 2), tmp_path / "split")
        rows = np.load(tmp_path / "split" / name)
        rows["y"][rows["y"] == 2] = 0
        _restamped(tmp_path / "split", name, _npy(rows))
        with pytest.raises(DataError, match=rf"{name} holds \[{2 * per_class}, {per_class}, 0\] rows per class, "
                                            rf"not the {per_class} each"):
            load_split(tmp_path / "split")


def _npy(array: np.ndarray, allow_pickle: bool = False) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=allow_pickle)
    return buf.getvalue()


def _restamped(split, name: str, data: bytes) -> None:
    """Replace one table's bytes and re-stamp its checksum, so only the reader can object."""
    (split / name).write_bytes(data)
    mpath = split / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["checksums"][name] = hashlib.sha256(data).hexdigest()
    mpath.write_text(json.dumps(manifest))


def _rows(x: np.ndarray, y: np.ndarray, x_type: str = "<f8", y_type: str = "<i8") -> np.ndarray:
    rows = np.empty(len(x), dtype=[("x", x_type, (x.shape[1],)), ("y", y_type)])
    rows["x"], rows["y"] = x, y
    return rows


def _zip_of(data: bytes) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, source=np.load(io.BytesIO(data)))
    return buf.getvalue()


def _huge_header() -> bytes:
    """A header that claims 10**15 float64 rows, over 8 bytes of data."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {"descr": "<f8", "fortran_order": False, "shape": (10**15,)})
    return buf.getvalue() + bytes(8)


# (table, how to rewrite its bytes from (split, the bytes as saved), the reader's complaint)
BAD_TABLES = [
    pytest.param("source.npy", lambda s, d: _npy(_rows(*s.source, y_type="<f8")), "dtype", id="float_labels"),
    pytest.param("source.npy", lambda s, d: _npy(_rows(s.source[0].astype(int), s.source[1], x_type="<i8")),
                 "dtype", id="integer_features"),
    pytest.param("source.npy", lambda s, d: _npy(_rows(*s.source, x_type=">f8")), "dtype", id="big_endian"),
    pytest.param("unlabeled_target.npy", lambda s, d: _npy(s.unlabeled_target.astype(">f8")), "dtype",
                 id="unlabeled_big_endian"),
    pytest.param("unlabeled_target.npy", lambda s, d: _npy(s.unlabeled_target[:, :1]), r"shape \(102, 1\)",
                 id="unlabeled_width"),
    pytest.param("source.npy", lambda s, d: _npy(_rows(*s.source)[1:]), r"shape \(119,\)", id="row_count"),
    pytest.param("unlabeled_truth.npy", lambda s, d: _npy(s.unlabeled_truth[:-1]), r"shape \(101,\)",
                 id="truth_short"),
    pytest.param("unlabeled_truth.npy", lambda s, d: _npy(s.unlabeled_truth[:, None]), r"shape \(102, 1\)",
                 id="truth_rank_2"),
    pytest.param("unlabeled_truth.npy", lambda s, d: _npy(s.unlabeled_truth.astype(np.int32)), "dtype",
                 id="truth_int32"),
    pytest.param("source.npy", lambda s, d: b"", "EOF", id="empty_file"),
    pytest.param("source.npy", lambda s, d: d[:-8], "EOF", id="truncated"),
    pytest.param("source.npy", lambda s, d: d + bytes(8), "8 bytes after the array", id="trailing_bytes"),
    pytest.param("source.npy", lambda s, d: _zip_of(d), "magic string", id="npz_zip"),
    pytest.param("unlabeled_truth.npy",
                 lambda s, d: _npy(np.array([int(v) for v in s.unlabeled_truth], dtype=object), allow_pickle=True),
                 "allow_pickle=False", id="pickled_objects"),
    pytest.param("unlabeled_target.npy", lambda s, d: _huge_header(), "", id="huge_header_shape"),
]


class TestTableParsing:
    """Tables are ``.npy`` arrays of one exact dtype and shape; any other file stays a DataError."""

    @pytest.mark.parametrize("name, rewrite, complaint", BAD_TABLES)
    def test_bad_table_under_valid_checksum(self, tmp_path, name, rewrite, complaint):
        split = gen_split(small_spec())
        save_split(split, tmp_path / "split")
        _restamped(tmp_path / "split", name, rewrite(split, (tmp_path / "split" / name).read_bytes()))
        with pytest.raises(DataError, match=f"malformed table {name}: .*{complaint}"):
            load_split(tmp_path / "split")

    def test_tables_are_plain_npy(self, tmp_path):
        split = gen_split(small_spec())
        save_split(split, tmp_path / "split")
        rows = np.load(tmp_path / "split" / "source.npy", allow_pickle=False)
        assert rows.dtype == np.dtype([("x", "<f8", (2,)), ("y", "<i8")])
        np.testing.assert_array_equal(rows["x"], split.source[0])
        np.testing.assert_array_equal(rows["y"], split.source[1])
        x = np.load(tmp_path / "split" / "unlabeled_target.npy", allow_pickle=False)
        truth = np.load(tmp_path / "split" / "unlabeled_truth.npy", allow_pickle=False)
        assert (x.dtype, x.shape, truth.dtype, truth.shape) == (np.dtype("<f8"), (102, 2), np.dtype("<i8"), (102,))

    def test_large_split_round_trips_bit_exactly(self, tmp_path):
        spec = small_spec(n_classes=10, input_dim=8, n_source=200, n_target=20000, class_separation=8.0)
        split = gen_split(spec, 1, 3)
        # magnitudes across the float64 range, signed zero, subnormals and the extremes
        scales = 10.0 ** seeded_rng(0, "scales").integers(-300, 300, size=split.unlabeled_target.shape)
        x = split.unlabeled_target * scales
        x[0, :4] = [5e-324, -0.0, 2.2250738585072014e-308, 1.7976931348623157e308]
        wide = replace(split, unlabeled_target=x)
        save_split(wide, tmp_path / "a")
        loaded = load_split(tmp_path / "a")
        for got, want in [(loaded.unlabeled_target, x), (loaded.unlabeled_truth, split.unlabeled_truth),
                          *zip(loaded.source, split.source), *zip(loaded.labeled_xy(), split.labeled_xy()),
                          *zip(loaded.validation_target, split.validation_target)]:
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous
        save_split(loaded, tmp_path / "b")
        for name in ("source.npy", "unlabeled_target.npy", "unlabeled_truth.npy", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_default_benchmark_spec_fields():
    spec = default_benchmark_spec(seed=3)
    assert spec.n_classes == 5
    assert spec.input_dim == 2
    assert (spec.n_source, spec.n_target) == (500, 500)
    assert spec.class_separation == 4.0
    assert spec.shift.rotation_degrees == 30.0
    assert spec.shift.translation == (1.0, 1.0)
    assert spec.seed == 3
